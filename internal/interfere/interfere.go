// Package interfere implements the survey's joint shared-cache analyses
// (§4.1): the direct-mapped conflict demotion of Yan & Zhang, the
// set-associative age-shift analysis of Li et al. with its iterative
// task-lifetime refinement, and the single-usage L2 bypass of Hardy et
// al. — plus the global-CFG yield analysis of Crowley & Baer for
// fine-grained multithreading (§5.1).
//
// All analyses operate on prepared core.Analysis values sharing one L2
// configuration: they derive per-set foreign conflict counts from the
// co-runners' reference streams, re-classify each task's L2 result, and
// recompute WCETs.
package interfere

import (
	"fmt"

	"paratime/internal/cache"
	"paratime/internal/core"
	"paratime/internal/sched"
)

// ConflictModel selects how foreign lines demote a task's classifications.
type ConflictModel uint8

// Conflict models.
const (
	// DirectMapped kills every conflicting set (Yan & Zhang, RTAS 2008):
	// appropriate for direct-mapped L2s, where one foreign line suffices
	// to evict ours.
	DirectMapped ConflictModel = iota
	// AgeShift ages each set by the number of distinct foreign lines
	// mapped to it (Li et al., RTSS 2009), preserving hits whose lines
	// are young enough to survive.
	AgeShift
)

// foreignConflicts accumulates, per L2 set, the number of distinct lines
// co-runners may bring into the shared L2 (a dense vector indexed by
// set). The bool is false when any co-runner has an unknown reference
// (assume full conflict everywhere).
func foreignConflicts(task *core.Analysis, coRunners []*core.Analysis) ([]int, bool) {
	if task.L2 == nil {
		return nil, false
	}
	perSet := make([]map[cache.LineID]bool, task.L2.Cfg.Sets)
	for _, o := range coRunners {
		if o == task {
			continue
		}
		if o.L2 == nil {
			return nil, false
		}
		touched, ok := o.L2.TouchedLines()
		if !ok {
			return nil, false
		}
		for s, lines := range touched {
			if len(lines) == 0 {
				continue
			}
			if perSet[s] == nil {
				perSet[s] = make(map[cache.LineID]bool, len(lines))
			}
			for _, l := range lines {
				perSet[s][l] = true
			}
		}
	}
	out := make([]int, len(perSet))
	for s, lines := range perSet {
		out[s] = len(lines)
	}
	return out, true
}

// Apply re-classifies the task's shared-L2 result against the co-runners
// under the chosen conflict model and recomputes its WCET. Co-runner
// address ranges must be disjoint from the task's (callers place
// programs at distinct bases); overlapping ranges are rejected because
// constructive interference would otherwise be claimed unsoundly.
func Apply(task *core.Analysis, coRunners []*core.Analysis, model ConflictModel) error {
	if task.L2 == nil {
		return fmt.Errorf("interfere: task %s has no shared L2", task.Task.Name)
	}
	for _, o := range coRunners {
		if o != task && rangesOverlap(task, o) {
			return fmt.Errorf("interfere: tasks %s and %s overlap in the address space",
				task.Task.Name, o.Task.Name)
		}
	}
	conflicts, ok := foreignConflicts(task, coRunners)
	ways := task.L2.Cfg.Ways
	shift := make([]int, task.L2.Cfg.Sets)
	if !ok {
		// Unknown foreign behaviour: every set fully conflicted.
		for s := range shift {
			shift[s] = ways
		}
	} else {
		for s, n := range conflicts {
			if n == 0 {
				continue
			}
			switch model {
			case DirectMapped:
				shift[s] = ways // kill the set
			case AgeShift:
				shift[s] = min(n, ways)
			}
		}
	}
	task.L2.ReclassifyShift(shift)
	return task.ComputeWCET()
}

func rangesOverlap(a, b *core.Analysis) bool {
	// Text segments.
	if a.Task.Prog.Base < b.Task.Prog.End() && b.Task.Prog.Base < a.Task.Prog.End() {
		return true
	}
	// Data images (word granularity, cheap scan).
	//paralint:unordered existence check; any iteration order reaches the same verdict
	for addr := range a.Task.Prog.Data {
		if _, clash := b.Task.Prog.Data[addr]; clash {
			return true
		}
	}
	return false
}

// JointResult summarizes one joint analysis.
type JointResult struct {
	Names []string
	// SoloWCET is each task's WCET assuming the L2 is private.
	SoloWCET []int64
	// JointWCET is each task's WCET accounting for co-runner conflicts.
	JointWCET []int64
}

// AnalyzeJoint runs the full joint analysis for a set of co-scheduled
// tasks: each task is first analyzed in isolation, then re-classified
// against all others. This is the all-overlap baseline of §4.1.
func AnalyzeJoint(analyses []*core.Analysis, model ConflictModel) (*JointResult, error) {
	res := &JointResult{}
	for _, a := range analyses {
		if a.IPET == nil {
			if err := a.ComputeWCET(); err != nil {
				return nil, err
			}
		}
		res.Names = append(res.Names, a.Task.Name)
		res.SoloWCET = append(res.SoloWCET, a.WCET)
	}
	for _, a := range analyses {
		if err := Apply(a, analyses, model); err != nil {
			return nil, err
		}
		res.JointWCET = append(res.JointWCET, a.WCET)
	}
	return res, nil
}

// LifetimeResult extends JointResult with the lifetime-refined bounds.
type LifetimeResult struct {
	JointResult
	// RefinedWCET accounts only for co-runners whose lifetime windows may
	// overlap (Li et al.'s iterative refinement).
	RefinedWCET []int64
}

// maxRefineIter bounds the WCET/lifetime alternation.
const maxRefineIter = 8

// AnalyzeWithLifetimes runs Li et al.'s iterative framework: starting
// from the all-overlap joint bounds, alternate (a) lifetime-window
// computation from current BCET/WCET values and (b) re-classification
// against only the co-runners that may overlap, until the WCETs are
// stable.
//
// specs[i] describes task i's mapping, priority and dependencies; its
// BCET/WCET fields are filled by the analysis.
func AnalyzeWithLifetimes(analyses []*core.Analysis, specs []sched.TaskSpec, model ConflictModel) (*LifetimeResult, error) {
	if len(analyses) != len(specs) {
		return nil, fmt.Errorf("interfere: %d analyses vs %d specs", len(analyses), len(specs))
	}
	joint, err := AnalyzeJoint(analyses, model)
	if err != nil {
		return nil, err
	}
	res := &LifetimeResult{JointResult: *joint}
	cur := append([]int64(nil), joint.JointWCET...)
	// BCETs: a cheap safe lower bound is zero; tasks with dependencies
	// still separate through the precedence structure. Use the solo WCET
	// as an optimistic-but-common BCET surrogate only when asked; here we
	// stay safe with zero.
	for range maxRefineIter {
		for i := range specs {
			specs[i].BCET = 0
			specs[i].WCET = cur[i]
		}
		win, err := sched.Lifetimes(specs)
		if err != nil {
			return nil, err
		}
		overlap := sched.MayOverlap(specs, win)
		next := make([]int64, len(analyses))
		for i, a := range analyses {
			var co []*core.Analysis
			for j, b := range analyses {
				if i != j && overlap[i][j] {
					co = append(co, b)
				}
			}
			if err := Apply(a, append(co, a), model); err != nil {
				return nil, err
			}
			next[i] = a.WCET
		}
		stable := true
		for i := range cur {
			if next[i] != cur[i] {
				stable = false
			}
		}
		cur = next
		if stable {
			break
		}
	}
	res.RefinedWCET = cur
	return res, nil
}
