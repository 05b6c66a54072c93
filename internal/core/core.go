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
//
// ComputeWCET prices from a pricing plan: the classification compiled
// into one dense row per instruction, holding each reference's L1 class
// and scope and the shape of its miss chain, but no latency. An analysis
// that CompilePlan has frozen carries its plan, and every shallow copy
// shares it (the batch engine compiles one per memo entry, after
// Prepare); any other analysis compiles a plan for each ComputeWCET
// call, so reclassification between calls is always seen. Clone drops
// the plan, because clones exist to be reclassified.
package core

import (
	"fmt"
	"maps"
	"strconv"
	"strings"
	"sync"

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
	var b strings.Builder
	writeTaskKey(&b, t, 0)
	t.content = b.String()
	t.contentProg, t.contentFacts = t.Prog, t.Facts
	return t
}

// writeTaskKey writes the task's PrepareKey fields — the program
// fingerprint, then the length-prefixed flow-fact fingerprint — to b,
// growing it first by their length plus extra bytes.
func writeTaskKey(b *strings.Builder, t Task, extra int) {
	prog, facts := t.Prog.Fingerprint(), t.Facts.Fingerprint()
	var d [24]byte
	mid := append(strconv.AppendInt(append(d[:0], '|'), int64(len(facts)), 10), ':')
	b.Grow(len(prog) + len(mid) + len(facts) + extra)
	b.WriteString(prog)
	b.Write(mid)
	b.WriteString(facts)
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

	// plan is the pricing plan CompilePlan froze, shared by every
	// shallow copy; nil makes ComputeWCET compile one per call.
	plan *pricingPlan

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
// (engine.PrepareAll). The clone carries no pricing plan: its
// classification is about to change, so each of its ComputeWCET calls
// compiles a fresh one. Consumers that only price need no clone:
// ComputeWCET only reads the classification state, so engine.AnalyzeAll
// prices a shallow copy that shares it, and the memo entry's plan,
// read-only. The skeleton is
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
	c.plan = nil
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
	// The cache geometries are formatted on the stack first, so the
	// builder is grown to the key's exact length and allocates once.
	var buf [128]byte
	caches := appendCacheKey(buf[:0], sys.Mem.L1I)
	caches = appendCacheKey(caches, sys.Mem.L1D)
	if sys.Mem.L2 != nil {
		caches = appendCacheKey(caches, *sys.Mem.L2)
	}
	var b strings.Builder
	if task.content != "" && task.contentProg == task.Prog && task.contentFacts == task.Facts {
		b.Grow(len(task.content) + len(caches))
		b.WriteString(task.content)
	} else {
		writeTaskKey(&b, task, len(caches))
	}
	b.Write(caches)
	return b.String()
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

// chainKind says where a reference's L1 miss is served, which fixes the
// shape of its miss chain; the latencies along it are read from the
// system when the reference is priced.
type chainKind uint8

// Miss-chain kinds.
const (
	chainMem          chainKind = iota // no L2, or bypassed: memory on every L1 miss
	chainL2Hit                         // L2 AlwaysHit
	chainL2Persistent                  // L2 Persistent: memory once per l2Scope entry
	chainL2Miss                        // L2 AlwaysMiss or NotClassified: L2, then memory
)

// planRef is the latency-free pricing input of one reference.
type planRef struct {
	class   cache.Class // L1 classification
	chain   chainKind
	scope   *cfg.Loop // L1 persistence scope
	l2Scope *cfg.Loop // L2 persistence scope (chainL2Persistent only)
}

// events is the number of IPET events pricing the reference emits.
func (r *planRef) events() int {
	if r.class == cache.AlwaysHit {
		return 0
	}
	n := 0
	if r.class == cache.Persistent {
		n++
	}
	if r.l2Scope != nil {
		n++
	}
	return n
}

// planRow is one instruction: its fetch and, for LD/ST, its data
// reference.
type planRow struct {
	fetch, data planRef
	mem         bool
}

// pricingPlan is the classification of one analysis compiled for
// pricing: one row per instruction of every non-exit block, in block
// order. It holds no latency, so one plan prices every bus delay,
// memory latency and pipeline. It is immutable once built.
type pricingPlan struct {
	rowOf  []int32 // block ID -> the block's first row (exit blocks: unused)
	rows   []planRow
	events int // IPET events the rows emit
}

// CompilePlan compiles a's classification into a pricing plan and keeps
// it on a, so ComputeWCET on a, and on every shallow copy of a, prices
// from it instead of compiling one per call. Call it only once a's
// classification is final: the plan does not see later changes to the
// L1I, L1D or L2 results, Bypass or L2Override (ExtraEvents and every
// latency are read when pricing). Clone drops the plan.
func (a *Analysis) CompilePlan() { a.plan = a.compilePlan() }

// compilePlan builds the pricing plan of a's current classification.
func (a *Analysis) compilePlan() *pricingPlan {
	p := &pricingPlan{rowOf: make([]int32, len(a.G.Blocks))}
	n := 0
	for _, b := range a.G.Blocks {
		if !b.IsExit() {
			n += b.Len()
		}
	}
	p.rows = make([]planRow, 0, n)
	for _, b := range a.G.Blocks {
		if b.IsExit() {
			continue
		}
		p.rowOf[b.ID] = int32(len(p.rows))
		dIdx := 0
		for i, in := range b.Insts() {
			row := planRow{fetch: a.planRef(FromL1I, cache.RefID{Block: b.ID, Seq: i}, a.L1I)}
			if in.IsMem() {
				row.mem = true
				row.data = a.planRef(FromL1D, cache.RefID{Block: b.ID, Seq: dIdx}, a.L1D)
				dIdx++
			}
			p.events += row.fetch.events() + row.data.events()
			p.rows = append(p.rows, row)
		}
	}
	return p
}

// planRef resolves one L1 reference's class and miss chain: its merged
// identity, bypass, L2 classification and L2 override.
func (a *Analysis) planRef(origin RefOrigin, id cache.RefID, res *cache.Result) planRef {
	rc := res.Classes[id]
	r := planRef{class: rc.Class, scope: rc.Scope}
	if a.Sys.Mem.L2 == nil {
		return r
	}
	mid, ok := a.MergedID(origin, id)
	if !ok || a.Bypass[mid] {
		return r
	}
	l2 := a.L2.Classes[mid]
	if ov, ok := a.L2Override[mid]; ok {
		l2 = cache.RefClass{Class: ov}
	}
	switch l2.Class {
	case cache.AlwaysHit:
		r.chain = chainL2Hit
	case cache.Persistent:
		r.chain, r.l2Scope = chainL2Persistent, l2.Scope
	default:
		r.chain = chainL2Miss
	}
	return r
}

// missChain is the priced miss chain of one chainKind: the part every
// L1 miss pays, and the memory part a persistent L2 reference pays once
// per scope entry.
type missChain struct{ immediate, penalty int }

// lat returns the reference's added (base, worst) latency beyond the L1
// hit under chains, appending its IPET events, charged to block blk.
// Events carry no names on this hot path: an event is identified by
// (Block, Scope), and names are debug-only (see ipet.Event).
func (r *planRef) lat(chains *[4]missChain, blk cfg.BlockID, events []ipet.Event) (int, int, []ipet.Event) {
	if r.class == cache.AlwaysHit {
		return 0, 0, events
	}
	ch := chains[r.chain]
	base := 0
	switch r.class {
	case cache.AlwaysMiss, cache.NotClassified:
		base = ch.immediate
	default: // Persistent at L1: priced as a hit, the miss charged per scope entry
		events = append(events, ipet.Event{Block: blk, Penalty: int64(ch.immediate), Scope: r.scope})
	}
	if r.l2Scope != nil {
		events = append(events, ipet.Event{Block: blk, Penalty: int64(ch.penalty), Scope: r.l2Scope})
	}
	return base, ch.immediate + ch.penalty, events
}

// rowTiming is one instruction's memory timing in the two views
// ComputeWCET hands the pipeline fixpoint.
type rowTiming struct{ base, worst pipeline.InstTiming }

// rowPool recycles ComputeWCET's per-call timing rows.
var rowPool = sync.Pool{New: func() any { return new([]rowTiming) }}

// price fills lats (one entry per plan row) under a's system and returns
// events with a's ExtraEvents and then the plan's events appended, in
// block, instruction, fetch-then-data order.
//
// The base view folds AM/NC misses in (they happen every execution, and
// occupy the miss port); PERSISTENT references are priced as hits and
// their misses charged via IPET events. The worst view (used for the
// context fixpoint) makes everything not ALWAYS_HIT a miss.
func (a *Analysis) price(p *pricingPlan, lats []rowTiming, events []ipet.Event) []ipet.Event {
	events = append(events, a.ExtraEvents...)
	mem := a.Sys.Mem
	toMem := mem.BusDelay + mem.MemLatency
	l2Lat := 0
	if mem.L2 != nil {
		l2Lat = mem.BusDelay + mem.L2.HitLatency
	}
	chains := [4]missChain{
		chainMem:          {immediate: toMem},
		chainL2Hit:        {immediate: l2Lat},
		chainL2Persistent: {immediate: l2Lat, penalty: toMem},
		chainL2Miss:       {immediate: l2Lat + toMem},
	}
	for _, b := range a.G.Blocks {
		if b.IsExit() {
			continue
		}
		first := int(p.rowOf[b.ID])
		for k := first; k < first+b.Len(); k++ {
			r := &p.rows[k]
			var fb, fw, db, dw int
			fb, fw, events = r.fetch.lat(&chains, b.ID, events)
			t := rowTiming{
				base:  pipeline.InstTiming{Fetch: mem.L1I.HitLatency + fb, FetchMiss: fb > 0},
				worst: pipeline.InstTiming{Fetch: mem.L1I.HitLatency + fw, FetchMiss: fw > 0},
			}
			if r.mem {
				db, dw, events = r.data.lat(&chains, b.ID, events)
				t.base.Mem, t.base.MemMiss = mem.L1D.HitLatency+db, db > 0
				t.worst.Mem, t.worst.MemMiss = mem.L1D.HitLatency+dw, dw > 0
			}
			lats[k] = t
		}
	}
	return events
}

// ComputeWCET prices every block under the current classifications and
// solves the IPET model. It can be called repeatedly after classification
// adjustments (interference, bypass, partitioning). a must come from
// Prepare or Clone: it runs the compiled PipeOps and Skel that Prepare
// builds and Clone shares. It prices from a's plan when CompilePlan
// froze one, else from a plan compiled for this call.
func (a *Analysis) ComputeWCET() error {
	p := a.plan
	if p == nil {
		p = a.compilePlan()
	}
	rows := rowPool.Get().(*[]rowTiming)
	defer rowPool.Put(rows)
	if cap(*rows) < len(p.rows) {
		*rows = make([]rowTiming, len(p.rows))
	}
	lats := (*rows)[:len(p.rows)]
	events := a.price(p, lats, make([]ipet.Event, 0, len(a.ExtraEvents)+p.events))
	rowOf := p.rowOf
	base := func(b *cfg.Block, i int) pipeline.InstTiming { return lats[int(rowOf[b.ID])+i].base }
	worst := func(b *cfg.Block, i int) pipeline.InstTiming { return lats[int(rowOf[b.ID])+i].worst }
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
