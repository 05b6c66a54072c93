// Package core composes the paratime analysis substrates into the
// end-to-end static WCET analyzer of the survey's §2.1: control-flow
// reconstruction, flow analysis (loop bounds, address ranges), multi-level
// cache abstract interpretation, context-parameterized pipeline costing,
// and IPET computation — for one task on a configured (possibly shared)
// memory system.
//
// The package is deliberately two-phase: Prepare builds every analysis
// artefact up to cache classifications; ComputeWCET prices the pipeline
// and solves IPET. The shared-cache interference analyses in
// internal/interfere re-classify the L2 result between the two phases.
package core

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"paratime/internal/cache"
	"paratime/internal/cfg"
	"paratime/internal/flow"
	"paratime/internal/ipet"
	"paratime/internal/isa"
	"paratime/internal/memctrl"
	"paratime/internal/pipeline"
)

// MemSystem describes the memory hierarchy seen by one core.
type MemSystem struct {
	L1I cache.Config
	L1D cache.Config
	// L2 is an optional unified second level (shared between cores in the
	// multicore experiments); nil analyzes a two-level L1+memory system.
	L2 *cache.Config
	// BusDelay is the worst-case arbitration delay added to every
	// transaction that leaves the L1s (an arbiter bound, e.g. N·L−1 for
	// round robin); 0 models a private path. It only enters at
	// ComputeWCET, so the scenario fingerprint — not PrepareKey — owns
	// its coverage (keycover enforces both sides).
	BusDelay int `paralint:"fingerprint"`
	// MemLatency is the worst-case main-memory access time after the bus
	// grant (a memory-controller bound). Fingerprint-covered like
	// BusDelay: it prices blocks, it never shapes Prepare artefacts.
	MemLatency int `paralint:"fingerprint"`
}

// SystemConfig is a complete single-core analysis configuration.
type SystemConfig struct {
	// Pipeline timing only enters at ComputeWCET (one prepared prefix
	// serves every pipeline sweep); the scenario fingerprint owns its
	// coverage, which keycover enforces on the spec side.
	Pipeline pipeline.Config `paralint:"fingerprint"`
	Mem      MemSystem
	// Parallelism is the worker count for explore pricing, the one
	// parallel step inside an analysis (the cache and pipeline
	// fixpoints are sequential). 0 resolves to the process default
	// (parallel.Default: PARATIME_PARALLELISM or GOMAXPROCS). It is an execution knob, not a model parameter: every
	// result is bit-identical at any value, and it is deliberately
	// excluded from PrepareKey and scenario fingerprints — keycover
	// fails the build if it ever reaches either.
	Parallelism int `paralint:"execonly"`
}

// DefaultSystem returns the canonical small embedded configuration:
// 512 B L1I/L1D, 4 KiB unified L2, and a MemLatency equal to the default
// analyzable memory controller's worst-case access bound. It is the one
// source of the default system for the facade, the experiments, and the
// Scenario decoder.
func DefaultSystem() SystemConfig {
	l2 := cache.Config{Name: "L2", Sets: 32, Ways: 4, LineBytes: 32, HitLatency: 4, MissPenalty: 20}
	return SystemConfig{
		Pipeline: pipeline.DefaultConfig(),
		Mem: MemSystem{
			L1I:        cache.Config{Name: "L1I", Sets: 16, Ways: 2, LineBytes: 16, HitLatency: 1, MissPenalty: 4},
			L1D:        cache.Config{Name: "L1D", Sets: 16, Ways: 2, LineBytes: 16, HitLatency: 1, MissPenalty: 4},
			L2:         &l2,
			BusDelay:   0,
			MemLatency: memctrl.DefaultConfig().Bound(),
		},
	}
}

// Task is one unit of WCET analysis: a program plus its flow annotations.
type Task struct {
	Name  string
	Prog  *isa.Program
	Facts *flow.Facts

	// content caches the task's part of PrepareKey (see Keyed) for the
	// Prog and Facts it was computed from.
	content      string
	contentProg  *isa.Program
	contentFacts *flow.Facts
}

// Keyed returns t with the task's part of its PrepareKey — the program
// and flow-fact fingerprints — computed once and cached, so PrepareKey
// hashes neither again. A run that prices one task under many systems
// (a sweep's task set) keys it once. *t.Prog and *t.Facts must not
// change afterwards: PrepareKey trusts the cache while the task still
// points at the same Prog and Facts, and would key an edited program
// by its old content. Pointing the task at another Prog or Facts drops
// the cache.
func Keyed(t Task) Task {
	t.content = string(appendTaskKey(nil, t))
	t.contentProg, t.contentFacts = t.Prog, t.Facts
	return t
}

// appendTaskKey appends the task's PrepareKey fields: the program
// fingerprint, then the length-prefixed flow-fact fingerprint.
func appendTaskKey(b []byte, t Task) []byte {
	prog, facts := t.Prog.Fingerprint(), t.Facts.Fingerprint()
	b = slices.Grow(b, len(prog)+len(facts)+24)
	b = append(b, prog...)
	b = append(b, '|')
	return appendLenString(b, facts)
}

// RefOrigin says which L1 a merged-stream reference came through.
type RefOrigin uint8

// Reference origins.
const (
	FromL1I RefOrigin = iota
	FromL1D
)

// Analysis holds every artefact of one task's WCET analysis.
type Analysis struct {
	Task Task
	Sys  SystemConfig

	G         *cfg.Graph
	CP        *flow.ConstProp
	Induction map[*cfg.Loop]flow.Induction
	Addrs     map[flow.RefKey]flow.AddrRange

	IStream *cache.Stream
	DStream *cache.Stream
	L1I     *cache.Result
	L1D     *cache.Result

	// Unified L2 artefacts (nil/empty without an L2).
	Merged *cache.Stream
	CAC    map[cache.RefID]cache.CAC
	L2     *cache.Result
	// Bypass marks merged-stream references that skip the L2 entirely
	// (Hardy et al. single-usage bypass); their misses go straight to
	// memory and they never pollute the L2.
	Bypass map[cache.RefID]bool

	// origin maps merged refs back to their L1 refs.
	mergedOf map[RefOrigin]map[cache.RefID]cache.RefID // L1 id -> merged id

	// L2Override, when set for a merged reference, replaces its L2
	// classification in the cost model (cache-locking experiments:
	// locked lines are AlwaysHit, unlocked lines AlwaysMiss).
	L2Override map[cache.RefID]cache.Class

	// ExtraEvents are additional IPET charges (e.g. per-region cache
	// reload costs of dynamic locking).
	ExtraEvents []ipet.Event

	// Skel is the compiled IPET skeleton: flow conservation, loop bounds
	// and the task's extra path constraints, built once per CFG during
	// Prepare. Every ComputeWCET specializes it with fresh costs and
	// events; it is immutable and shared across Clone, like the graph.
	Skel *ipet.Skeleton

	// PipeOps is the compiled pipeline model: every instruction lowered
	// to a flat op array and every block to an op range with
	// pre-classified edges, built once per CFG during Prepare. EX
	// latencies stay outside it, so it is valid for any pipeline
	// parameterization; like Skel, it is immutable and shared across
	// Clone, and every ComputeWCET runs its context fixpoint on it.
	PipeOps *pipeline.Compiled

	// Results of ComputeWCET.
	WCET int64
	IPET *ipet.Result
	Pipe *pipeline.CostResult
}

// Prepare runs everything up to cache classification.
func Prepare(task Task, sys SystemConfig) (*Analysis, error) {
	g, err := cfg.Build(task.Prog)
	if err != nil {
		return nil, fmt.Errorf("task %s: %w", task.Name, err)
	}
	cp, ind, err := flow.BoundAll(g, task.Facts)
	if err != nil {
		return nil, fmt.Errorf("task %s: %w", task.Name, err)
	}
	a := &Analysis{
		Task:      task,
		Sys:       sys,
		G:         g,
		CP:        cp,
		Induction: ind,
		Addrs:     flow.AnalyzeAddrs(g, cp, ind),
		Bypass:    map[cache.RefID]bool{},
	}
	var extra []flow.Constraint
	if task.Facts != nil {
		extra = task.Facts.Constraints
	}
	if a.Skel, err = ipet.NewSkeleton(g, extra); err != nil {
		return nil, fmt.Errorf("task %s: %w", task.Name, err)
	}
	a.PipeOps = pipeline.Compile(g)
	a.IStream = cache.FetchStream(g)
	a.DStream = cache.DataStream(g, a.Addrs)
	if a.L1I, err = cache.Analyze(g, a.IStream, sys.Mem.L1I); err != nil {
		return nil, fmt.Errorf("task %s L1I: %w", task.Name, err)
	}
	if a.L1D, err = cache.Analyze(g, a.DStream, sys.Mem.L1D); err != nil {
		return nil, fmt.Errorf("task %s L1D: %w", task.Name, err)
	}
	if sys.Mem.L2 != nil {
		a.buildMergedStream()
		if err := a.RecomputeL2(); err != nil {
			return nil, fmt.Errorf("task %s L2: %w", task.Name, err)
		}
	}
	return a, nil
}

// buildMergedStream interleaves fetch and data references in program
// order per block and derives the initial CAC from the L1 results.
func (a *Analysis) buildMergedStream() {
	a.Merged = &cache.Stream{Refs: map[cfg.BlockID][]cache.Ref{}}
	a.CAC = map[cache.RefID]cache.CAC{}
	a.mergedOf = map[RefOrigin]map[cache.RefID]cache.RefID{
		FromL1I: {},
		FromL1D: {},
	}
	for _, b := range a.G.Blocks {
		if b.IsExit() {
			continue
		}
		var refs []cache.Ref
		iRefs := a.IStream.Refs[b.ID]
		dRefs := a.DStream.Refs[b.ID]
		dIdx := 0
		for i := 0; i < b.Len(); i++ {
			fid := cache.RefID{Block: b.ID, Seq: i}
			mid := cache.RefID{Block: b.ID, Seq: len(refs)}
			a.mergedOf[FromL1I][fid] = mid
			a.CAC[mid] = cache.CACFromL1(a.L1I.Classes[fid].Class)
			refs = append(refs, iRefs[i])
			if b.Insts()[i].IsMem() {
				did := cache.RefID{Block: b.ID, Seq: dIdx}
				mid := cache.RefID{Block: b.ID, Seq: len(refs)}
				a.mergedOf[FromL1D][did] = mid
				a.CAC[mid] = cache.CACFromL1(a.L1D.Classes[did].Class)
				refs = append(refs, dRefs[dIdx])
				dIdx++
			}
		}
		a.Merged.Refs[b.ID] = refs
	}
}

// RecomputeL2 re-runs the L2 analysis under the current CAC map (used
// after bypass or interference adjustments).
func (a *Analysis) RecomputeL2() error {
	if a.Sys.Mem.L2 == nil {
		return nil
	}
	res, err := cache.AnalyzeWithCAC(a.G, a.Merged, *a.Sys.Mem.L2, a.CAC)
	if err != nil {
		return err
	}
	a.L2 = res
	return nil
}

// Clone returns an independently usable copy of a prepared analysis:
// every artefact a downstream pass may mutate (the L2 result, CAC map,
// bypass and override sets, extra IPET events, and the WCET outputs) is
// copied, while the immutable prefix (graph, flow facts, reference
// streams, L1 results, the compiled IPET skeleton, the compiled
// pipeline model — and, inside each cache result, the interned-line
// index, fixpoint states and persistence tables) is shared. Interference re-classification only swaps a clone's
// classification map and dense shift vector, and bypass rebuilds the
// clone's L2 result outright, so all of interference, bypass, locking
// and ComputeWCET on the clone leave the receiver — and every other
// clone — untouched, which is what lets the batch engine hand one
// memoized Prepare result to many concurrent consumers that adjust it
// (engine.PrepareAll). Consumers that only price need no clone:
// ComputeWCET only reads the classification state, so engine.AnalyzeAll
// prices a shallow copy that shares it read-only. The skeleton is
// safe for the clones' concurrent ComputeWCET calls and lets the
// engine's joint/partition/lock/bus sweeps skip rebuilding identical ILP
// structure, and re-solving it where the skeleton's optimal basis still
// answers.
func (a *Analysis) Clone() *Analysis {
	c := *a
	c.CAC = maps.Clone(a.CAC)
	c.Bypass = maps.Clone(a.Bypass)
	c.L2Override = maps.Clone(a.L2Override)
	c.ExtraEvents = append([]ipet.Event(nil), a.ExtraEvents...)
	if a.L2 != nil {
		c.L2 = a.L2.Clone(c.CAC)
	}
	c.WCET, c.IPET, c.Pipe = 0, nil, nil
	return &c
}

// PrepareKey returns the content key under which Prepare's artefacts can
// be memoized: everything Prepare reads — the program text and data, the
// flow annotations, and the three cache geometries — and nothing it does
// not (pipeline parameters, bus delay and memory latency only enter at
// ComputeWCET, so one prepared prefix serves every bus-arbiter or
// pipeline sweep over the same task; Parallelism never changes results,
// so memoized artefacts are shared across worker counts).
//
// The key is a process-local memo key, never persisted, so its bytes may
// change between builds. Every variable-length part is length-prefixed,
// which keeps it injective. A Keyed task contributes its cached task
// part, byte for byte what hashing it again would give.
func PrepareKey(task Task, sys SystemConfig) string {
	var b []byte
	if task.content != "" && task.contentProg == task.Prog && task.contentFacts == task.Facts {
		b = append(make([]byte, 0, len(task.content)+128), task.content...)
	} else {
		b = appendTaskKey(make([]byte, 0, 256), task)
	}
	b = appendCacheKey(b, sys.Mem.L1I)
	b = appendCacheKey(b, sys.Mem.L1D)
	if sys.Mem.L2 != nil {
		b = appendCacheKey(b, *sys.Mem.L2)
	}
	return string(b)
}

// appendCacheKey appends one cache geometry, name included, as a
// "|"-led PrepareKey field.
func appendCacheKey(b []byte, c cache.Config) []byte {
	b = append(b, '|')
	b = appendLenString(b, c.Name)
	for _, v := range [...]int{c.Sets, c.Ways, c.LineBytes, c.HitLatency, c.MissPenalty} {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// appendLenString appends s as "<len>:<s>".
func appendLenString(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	return append(b, s...)
}

// MergedID maps an L1 reference to its merged-stream identity.
func (a *Analysis) MergedID(origin RefOrigin, id cache.RefID) (cache.RefID, bool) {
	if a.mergedOf == nil {
		return cache.RefID{}, false
	}
	mid, ok := a.mergedOf[origin][id]
	return mid, ok
}

// missChain describes the worst-case cost of one L1 miss for a reference:
// the guaranteed part (always incurred on an L1 miss) and an optional
// second-level persistence event.
type missChain struct {
	immediate int       // bus + L2 (+ memory when L2 also misses or bypassed)
	l2Event   *cfg.Loop // non-nil: memory part charged once per scope entry
	l2Penalty int
}

// chainFor computes the miss chain of a reference given its L1 origin.
func (a *Analysis) chainFor(origin RefOrigin, id cache.RefID) missChain {
	mem := a.Sys.Mem
	if mem.L2 == nil {
		return missChain{immediate: mem.BusDelay + mem.MemLatency}
	}
	mid, ok := a.MergedID(origin, id)
	if !ok {
		return missChain{immediate: mem.BusDelay + mem.MemLatency}
	}
	if a.Bypass[mid] {
		return missChain{immediate: mem.BusDelay + mem.MemLatency}
	}
	l2Lat := mem.BusDelay + mem.L2.HitLatency
	l2Miss := mem.BusDelay + mem.MemLatency
	rc := a.L2.Classes[mid]
	if ov, ok := a.L2Override[mid]; ok {
		rc = cache.RefClass{Class: ov}
	}
	switch rc.Class {
	case cache.AlwaysHit:
		return missChain{immediate: l2Lat}
	case cache.Persistent:
		return missChain{immediate: l2Lat, l2Event: rc.Scope, l2Penalty: l2Miss}
	default: // AM, NC: memory on every L1 miss
		return missChain{immediate: l2Lat + l2Miss}
	}
}

// ComputeWCET prices every block under the current classifications and
// solves the IPET model. It can be called repeatedly after classification
// adjustments (interference, bypass, partitioning). a must come from
// Prepare or Clone: it runs the compiled PipeOps and Skel that Prepare
// builds and Clone shares.
func (a *Analysis) ComputeWCET() error {
	events := append([]ipet.Event(nil), a.ExtraEvents...)
	// latFor returns (base, worst) added latency beyond the L1 hit for a
	// reference, appending persistence events as needed.
	latFor := func(origin RefOrigin, id cache.RefID, res *cache.Result) (int, int) {
		rc := res.Classes[id]
		ch := a.chainFor(origin, id)
		full := ch.immediate + ch.l2Penalty
		// Events carry no names on this hot path: an event is identified
		// by (Block, Scope), and names are debug-only (see ipet.Event).
		switch rc.Class {
		case cache.AlwaysHit:
			return 0, 0
		case cache.AlwaysMiss, cache.NotClassified:
			base := ch.immediate
			if ch.l2Event != nil {
				events = append(events, ipet.Event{
					Block:   id.Block,
					Penalty: int64(ch.l2Penalty),
					Scope:   ch.l2Event,
				})
			}
			return base, full
		default: // Persistent at L1
			events = append(events, ipet.Event{
				Block:   id.Block,
				Penalty: int64(ch.immediate),
				Scope:   rc.Scope,
			})
			if ch.l2Event != nil {
				events = append(events, ipet.Event{
					Block:   id.Block,
					Penalty: int64(ch.l2Penalty),
					Scope:   ch.l2Event,
				})
			}
			return 0, full
		}
	}

	// Per-instruction timings. Build tables first (events accumulate).
	// The base view folds AM/NC misses in (they happen every execution,
	// and occupy the miss port); PERSISTENT references are priced as hits
	// and their misses charged via IPET events. The worst view (used for
	// the context fixpoint) makes everything not ALWAYS_HIT a miss.
	type instLat struct {
		fetchBase, fetchWorst, memBase, memWorst                 int
		fetchBaseMiss, fetchWorstMiss, memBaseMiss, memWorstMiss bool
	}
	// Dense per-block rows (block IDs equal RPO positions) over one flat
	// backing array: the timing closures below run per instruction per
	// fixpoint visit, so they index slices instead of hashing block IDs.
	lats := make([][]instLat, len(a.G.Blocks))
	total := 0
	for _, b := range a.G.Blocks {
		if !b.IsExit() {
			total += b.Len()
		}
	}
	flat := make([]instLat, total)
	for _, b := range a.G.Blocks {
		if b.IsExit() {
			continue
		}
		row := flat[:b.Len():b.Len()]
		flat = flat[b.Len():]
		dIdx := 0
		for i, in := range b.Insts() {
			fid := cache.RefID{Block: b.ID, Seq: i}
			fb, fw := latFor(FromL1I, fid, a.L1I)
			row[i].fetchBase = a.Sys.Mem.L1I.HitLatency + fb
			row[i].fetchWorst = a.Sys.Mem.L1I.HitLatency + fw
			row[i].fetchBaseMiss = fb > 0
			row[i].fetchWorstMiss = fw > 0
			if in.IsMem() {
				did := cache.RefID{Block: b.ID, Seq: dIdx}
				db, dw := latFor(FromL1D, did, a.L1D)
				row[i].memBase = a.Sys.Mem.L1D.HitLatency + db
				row[i].memWorst = a.Sys.Mem.L1D.HitLatency + dw
				row[i].memBaseMiss = db > 0
				row[i].memWorstMiss = dw > 0
				dIdx++
			}
		}
		lats[b.ID] = row
	}
	base := func(b *cfg.Block, i int) pipeline.InstTiming {
		l := lats[b.ID][i]
		return pipeline.InstTiming{Fetch: l.fetchBase, FetchMiss: l.fetchBaseMiss, Mem: l.memBase, MemMiss: l.memBaseMiss}
	}
	worst := func(b *cfg.Block, i int) pipeline.InstTiming {
		l := lats[b.ID][i]
		return pipeline.InstTiming{Fetch: l.fetchWorst, FetchMiss: l.fetchWorstMiss, Mem: l.memWorst, MemMiss: l.memWorstMiss}
	}
	pipe, err := a.PipeOps.AnalyzeCosts(a.Sys.Pipeline, worst, base)
	if err != nil {
		return err
	}
	a.Pipe = pipe
	res, err := a.Skel.Solve(pipe.Costs(), events)
	if err != nil {
		return err
	}
	a.IPET = res
	a.WCET = res.WCET
	return nil
}

// Analyze is Prepare followed by ComputeWCET.
func Analyze(task Task, sys SystemConfig) (*Analysis, error) {
	a, err := Prepare(task, sys)
	if err != nil {
		return nil, err
	}
	if err := a.ComputeWCET(); err != nil {
		return nil, fmt.Errorf("task %s: %w", task.Name, err)
	}
	return a, nil
}

// ClassSummary renders classification counts of all analyzed levels.
func (a *Analysis) ClassSummary() string {
	b := make([]byte, 0, 96)
	for _, l := range [...]struct {
		name string
		r    *cache.Result
	}{{"L1I", a.L1I}, {"L1D", a.L1D}, {"L2", a.L2}} {
		if l.r == nil {
			continue
		}
		c := l.r.CountClasses()
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, l.name...)
		b = append(b, "[AH="...)
		b = strconv.AppendInt(b, int64(c[cache.AlwaysHit]), 10)
		b = append(b, " AM="...)
		b = strconv.AppendInt(b, int64(c[cache.AlwaysMiss]), 10)
		b = append(b, " PS="...)
		b = strconv.AppendInt(b, int64(c[cache.Persistent]), 10)
		b = append(b, " NC="...)
		b = strconv.AppendInt(b, int64(c[cache.NotClassified]), 10)
		b = append(b, ']')
	}
	return string(b)
}
