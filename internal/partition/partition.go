// Package partition implements the statically-controlled storage-sharing
// schemes of the survey's §4.2: shared-cache set partitioning (task-based
// and core-based, after Suhendra & Mitra), way partitioning
// ("columnization") and bank partitioning ("bankization") after Paolieri
// et al., and static/dynamic cache locking with greedy profit selection.
//
// All schemes turn the shared L2 into per-task private resources, making
// each task's WCET computable without knowledge of co-runner *content* —
// the property that places them between joint analysis and full isolation
// in the survey's taxonomy.
package partition

import (
	"cmp"
	"fmt"
	"slices"

	"paratime/internal/cache"
	"paratime/internal/cfg"
	"paratime/internal/core"
	"paratime/internal/ipet"
)

// floorPow2 returns the largest power of two <= n (and >= 1).
func floorPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// SetPartition returns the private L2 view of one partition owner when
// the cache's sets are split evenly among n owners.
func SetPartition(l2 cache.Config, n int) (cache.Config, error) {
	if n <= 0 {
		return cache.Config{}, fmt.Errorf("partition: %d owners", n)
	}
	if l2.Sets/n < 1 {
		return cache.Config{}, fmt.Errorf("partition: %d sets cannot serve %d owners", l2.Sets, n)
	}
	sets := floorPow2(l2.Sets / n)
	out := l2
	out.Sets = sets
	out.Name = fmt.Sprintf("%s/part%d", l2.Name, n)
	return out, nil
}

// Columnize returns the private view under way partitioning: same sets,
// a share of the ways (Paolieri et al.'s columnization).
func Columnize(l2 cache.Config, ways int) (cache.Config, error) {
	if ways < 1 || ways > l2.Ways {
		return cache.Config{}, fmt.Errorf("partition: %d of %d ways", ways, l2.Ways)
	}
	out := l2
	out.Ways = ways
	out.Name = fmt.Sprintf("%s/col%d", l2.Name, ways)
	return out, nil
}

// Bankize returns the private view under bank partitioning: a share of
// the banks (modelled as set groups), full associativity retained
// (Paolieri et al.'s bankization).
func Bankize(l2 cache.Config, banks, totalBanks int) (cache.Config, error) {
	if totalBanks <= 0 || banks < 1 || banks > totalBanks {
		return cache.Config{}, fmt.Errorf("partition: %d of %d banks", banks, totalBanks)
	}
	sets := floorPow2(l2.Sets * banks / totalBanks)
	if sets < 1 {
		return cache.Config{}, fmt.Errorf("partition: bank share too small")
	}
	out := l2
	out.Sets = sets
	out.Name = fmt.Sprintf("%s/bank%dof%d", l2.Name, banks, totalBanks)
	return out, nil
}

// --- cache locking ----------------------------------------------------------

// LockResult reports one locking configuration.
type LockResult struct {
	WCET   int64
	Locked []cache.LineID
}

// lineProfit estimates how many L2-reaching accesses each L2 line gets,
// weighting each reference by its block's worst-case execution count from
// a prior solo IPET solve.
func lineProfit(a *core.Analysis, within *cfg.Loop) map[cache.LineID]int64 {
	profit := map[cache.LineID]int64{}
	cfgL2 := a.L2.Cfg
	for _, b := range a.G.Blocks {
		if b.IsExit() {
			continue
		}
		if within != nil && !within.Contains(b) {
			continue
		}
		freq := a.IPET.BlockCounts[b.ID]
		if freq == 0 {
			freq = 1 // block off the worst path still deserves weight
		}
		for seq, r := range a.Merged.Refs[b.ID] {
			id := cache.RefID{Block: b.ID, Seq: seq}
			if a.CAC[id] == cache.Never {
				continue
			}
			lines, _ := cfgL2.RefLines(r) // unknown refs profit nothing
			for _, ln := range lines {
				profit[ln] += freq
			}
		}
	}
	return profit
}

// topLines picks the highest-profit lines that fit the capacity,
// respecting per-set associativity.
func topLines(profit map[cache.LineID]int64, geom cache.Config, budgetLines int) []cache.LineID {
	lines := make([]cache.LineID, 0, len(profit))
	for ln := range profit {
		lines = append(lines, ln)
	}
	slices.SortFunc(lines, func(a, b cache.LineID) int {
		if pa, pb := profit[a], profit[b]; pa != pb {
			if pa > pb {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
	perSet := map[int]int{}
	var out []cache.LineID
	for _, ln := range lines {
		if len(out) >= budgetLines {
			break
		}
		s := geom.SetOf(ln)
		if perSet[s] >= geom.Ways {
			continue
		}
		perSet[s]++
		out = append(out, ln)
	}
	return out
}

// applyLockClasses overrides the L2 classification: references entirely
// within the locked set are AlwaysHit; everything else always misses
// (the locked cache never reloads).
func applyLockClasses(a *core.Analysis, locked map[cache.LineID]bool, within *cfg.Loop) {
	cfgL2 := a.L2.Cfg
	if a.L2Override == nil {
		a.L2Override = map[cache.RefID]cache.Class{}
	}
	for _, b := range a.G.Blocks {
		if b.IsExit() {
			continue
		}
		if within != nil && !within.Contains(b) {
			continue
		}
		for seq, r := range a.Merged.Refs[b.ID] {
			id := cache.RefID{Block: b.ID, Seq: seq}
			if a.CAC[id] == cache.Never {
				continue
			}
			hit := false
			if lines, ok := cfgL2.RefLines(r); ok {
				hit = true
				for _, ln := range lines {
					if !locked[ln] {
						hit = false
						break
					}
				}
			}
			if hit {
				a.L2Override[id] = cache.AlwaysHit
			} else {
				a.L2Override[id] = cache.AlwaysMiss
			}
		}
	}
}

// StaticLock locks one set of lines for the whole run (greedy selection
// by access-frequency profit) into the task's L2 partition and returns
// the resulting WCET. budgetLines is the partition capacity in lines.
func StaticLock(task core.Task, sys core.SystemConfig, budgetLines int) (*LockResult, error) {
	a, err := core.Analyze(task, sys) // solo pass for frequencies
	if err != nil {
		return nil, err
	}
	profit := lineProfit(a, nil)
	locked := topLines(profit, a.L2.Cfg, budgetLines)
	lockedSet := map[cache.LineID]bool{}
	for _, ln := range locked {
		lockedSet[ln] = true
	}
	applyLockClasses(a, lockedSet, nil)
	if err := a.ComputeWCET(); err != nil {
		return nil, err
	}
	return &LockResult{WCET: a.WCET, Locked: locked}, nil
}

// DynamicLock re-locks the cache at every outermost-loop boundary: each
// region locks its own most profitable lines, paying a reload penalty of
// one memory access per locked line once per region entry. References
// outside any region always miss. Suhendra & Mitra's finding — dynamic
// beats static when phases use disjoint working sets — reproduces
// whenever the per-region working sets fit but their union does not.
func DynamicLock(task core.Task, sys core.SystemConfig, budgetLines int) (*LockResult, error) {
	a, err := core.Analyze(task, sys)
	if err != nil {
		return nil, err
	}
	a.L2Override = map[cache.RefID]cache.Class{}
	// Default: everything misses; regions refine below.
	applyLockClasses(a, map[cache.LineID]bool{}, nil)
	var allLocked []cache.LineID
	reload := int64(sys.Mem.BusDelay + sys.Mem.MemLatency)
	for _, l := range a.G.Loops {
		if l.Parent != nil {
			continue // outermost regions only
		}
		profit := lineProfit(a, l)
		locked := topLines(profit, a.L2.Cfg, budgetLines)
		lockedSet := map[cache.LineID]bool{}
		for _, ln := range locked {
			lockedSet[ln] = true
		}
		applyLockClasses(a, lockedSet, l)
		allLocked = append(allLocked, locked...)
		a.ExtraEvents = append(a.ExtraEvents, ipet.Event{
			Name:    fmt.Sprintf("reload_b%d", l.Header.ID),
			Block:   l.Header.ID,
			Penalty: reload * int64(len(locked)),
			Scope:   l,
		})
	}
	if err := a.ComputeWCET(); err != nil {
		return nil, err
	}
	return &LockResult{WCET: a.WCET, Locked: allLocked}, nil
}
