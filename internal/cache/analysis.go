package cache

import (
	"fmt"
	"maps"
	"slices"

	"paratime/internal/cfg"
	"paratime/internal/flow"
)

// RefKind discriminates instruction fetches from data accesses.
type RefKind uint8

// Reference kinds.
const (
	Fetch RefKind = iota
	Load
	Store
)

// RefID identifies one reference: a block and its ordinal in that block's
// reference stream.
type RefID struct {
	Block cfg.BlockID
	Seq   int
}

// Ref is one memory reference of a block's stream. Exactly one of three
// precision levels applies: Exact (single address), imprecise (list of
// candidate addresses), or Unknown.
type Ref struct {
	Kind    RefKind
	InstIdx int // instruction index within the block, for diagnostics

	Exact   bool
	Addr    uint32   // when Exact
	Addrs   []uint32 // when imprecise (non-nil, !Exact, !Unknown)
	Unknown bool
}

// maxImpreciseAddrs caps enumeration of candidate addresses; larger
// ranges degrade to Unknown.
const maxImpreciseAddrs = 8192

// Stream holds the per-block reference sequences of a graph for one
// cache (instruction or data).
type Stream struct {
	Refs map[cfg.BlockID][]Ref
}

// FetchStream builds the instruction-fetch reference stream: every
// instruction fetch is an exact reference to its own address.
func FetchStream(g *cfg.Graph) *Stream {
	st := &Stream{Refs: map[cfg.BlockID][]Ref{}}
	for _, b := range g.Blocks {
		if b.IsExit() {
			continue
		}
		refs := make([]Ref, 0, b.Len())
		for i := 0; i < b.Len(); i++ {
			refs = append(refs, Ref{Kind: Fetch, InstIdx: i, Exact: true, Addr: b.Addr(i)})
		}
		st.Refs[b.ID] = refs
	}
	return st
}

// DataStream builds the data reference stream from the address analysis:
// one reference per LD/ST instruction.
func DataStream(g *cfg.Graph, addrs map[flow.RefKey]flow.AddrRange) *Stream {
	st := &Stream{Refs: map[cfg.BlockID][]Ref{}}
	for _, b := range g.Blocks {
		if b.IsExit() {
			continue
		}
		var refs []Ref
		for i, in := range b.Insts() {
			if !in.IsMem() {
				continue
			}
			kind := Load
			if in.Op.String() == "st" {
				kind = Store
			}
			r := Ref{Kind: kind, InstIdx: i, Unknown: true}
			if ar, ok := addrs[flow.RefKey{Block: b.ID, Idx: i}]; ok && ar.Known {
				if ar.Exact() {
					r = Ref{Kind: kind, InstIdx: i, Exact: true, Addr: ar.Lo}
				} else if as := ar.Addrs(); len(as) > 0 && len(as) <= maxImpreciseAddrs {
					r = Ref{Kind: kind, InstIdx: i, Addrs: as}
				}
			}
			refs = append(refs, r)
		}
		st.Refs[b.ID] = refs
	}
	return st
}

// Class is the access classification of static cache analysis.
type Class uint8

// Classifications, as named in the survey (§2.1).
const (
	AlwaysHit     Class = iota // AH: in the must state
	AlwaysMiss                 // AM: not in the may state
	Persistent                 // PS: misses at most once per scope entry
	NotClassified              // NC
)

func (c Class) String() string {
	switch c {
	case AlwaysHit:
		return "ALWAYS_HIT"
	case AlwaysMiss:
		return "ALWAYS_MISS"
	case Persistent:
		return "PERSISTENT"
	default:
		return "NOT_CLASSIFIED"
	}
}

// RefClass is the classification of one reference; Scope is the loop the
// persistence is relative to (outermost persistent scope).
type RefClass struct {
	Class Class
	Scope *cfg.Loop
}

// loopPersist is one loop's persistence profile: per set, the number of
// distinct lines the loop's level-reaching references map to it. A
// poisoned loop (an Unknown reference inside it) proves nothing.
type loopPersist struct {
	counts   []int32
	poisoned bool
}

// Result is the outcome of one cache-level analysis.
type Result struct {
	Cfg     Config
	Classes map[RefID]RefClass
	MustIn  map[cfg.BlockID]*ACS
	MayIn   map[cfg.BlockID]*ACS

	// idx interns the stream's touched lines; every ACS of this result is
	// a dense age vector over it. Immutable, shared with all clones.
	idx *Index

	// persist holds each loop's per-set distinct-line counts, behind the
	// persistence classification.
	persist map[*cfg.Loop]loopPersist

	// retained inputs, so interference analyses can reclassify.
	g      *cfg.Graph
	stream *Stream
	cac    map[RefID]CAC // nil for single-level analyses
	shift  []int         // interference age shift per set (see ReclassifyShift)

	// counts tallies Classes by class. classify keeps it in step with
	// every write to Classes, so reports read it without a map walk.
	counts ClassCounts
}

// ClassCounts is a classification tally indexed by Class.
type ClassCounts [NotClassified + 1]int

// CountClasses returns the number of classified references per class.
func (r *Result) CountClasses() ClassCounts { return r.counts }

// Index returns the interned-line index the result's states are built
// over.
func (r *Result) Index() *Index { return r.idx }

// Analyze runs Must, May and Persistence analyses for one cache level
// over the given reference stream and classifies every reference.
func Analyze(g *cfg.Graph, st *Stream, cacheCfg Config) (*Result, error) {
	return AnalyzeWithCAC(g, st, cacheCfg, nil)
}

// AnalyzePar forwards to Analyze.
//
// Deprecated: workers is ignored; the cache fixpoints are sequential.
// The name lives on only because the frozen perfbench module calls it.
func AnalyzePar(g *cfg.Graph, st *Stream, cacheCfg Config, workers int) (*Result, error) {
	return Analyze(g, st, cacheCfg)
}

// AnalyzeWithCACPar forwards to AnalyzeWithCAC.
//
// Deprecated: workers is ignored; the cache fixpoints are sequential.
// The name lives on only because the frozen perfbench module calls it.
func AnalyzeWithCACPar(g *cfg.Graph, st *Stream, cacheCfg Config, cac map[RefID]CAC, workers int) (*Result, error) {
	return AnalyzeWithCAC(g, st, cacheCfg, cac)
}

// computePersistence counts, for every loop scope and cache set, the
// distinct lines referenced within the scope (restricted to references
// that may reach this level). A set whose conflict count fits the
// associativity keeps any loaded line resident for the rest of the
// scope (LRU guarantee), making its references persistent.
func (res *Result) computePersistence(g *cfg.Graph, ops [][]refOp) {
	res.persist = make(map[*cfg.Loop]loopPersist, len(g.Loops))
	marks := make([]bool, res.idx.NumSlots())
	for _, l := range g.Loops {
		clear(marks)
		poisoned := false
		//paralint:unordered idempotent set-union over the loop body's slots and the poison flag
		for _, b := range l.Blocks {
			for _, op := range ops[int(b.ID)] {
				switch {
				case op.cac == Never:
				case op.unknown:
					poisoned = true
				case op.slot >= 0:
					marks[op.slot] = true
				default:
					for _, slot := range op.slots {
						marks[slot] = true
					}
				}
			}
		}
		lp := loopPersist{counts: make([]int32, res.Cfg.Sets), poisoned: poisoned}
		if !poisoned {
			for slot, m := range marks {
				if m {
					lp.counts[res.idx.setOfSlot(int32(slot))]++
				}
			}
		}
		res.persist[l] = lp
	}
}

func (res *Result) classify(g *cfg.Graph, st *Stream) {
	for _, b := range g.Blocks {
		if b.IsExit() {
			continue
		}
		must := stateOrNew(res.MustIn, b.ID, res.idx, Must).Clone()
		may := stateOrNew(res.MayIn, b.ID, res.idx, May).Clone()
		for seq, r := range st.Refs[b.ID] {
			id := RefID{Block: b.ID, Seq: seq}
			// A Never reference does not reach this level; by convention
			// it is AH (costs nothing).
			rc := RefClass{Class: AlwaysHit}
			if res.cac == nil || res.cac[id] != Never {
				rc = res.classifyRef(b, r, must, may)
			}
			res.Classes[id] = rc
			res.counts[rc.Class]++
			res.applyRef(must, id, r)
			res.applyRef(may, id, r)
		}
	}
}

// applyRef updates an abstract state for one reference, honouring the
// level's CAC when present.
func (res *Result) applyRef(a *ACS, id RefID, r Ref) {
	cac := Always
	if res.cac != nil {
		cac = res.cac[id]
	}
	switch {
	case cac == Never:
		// no effect at this level
	case r.Unknown:
		a.AccessUnknown()
	case !r.Exact:
		// Imprecise: accessing and not accessing join to the same state
		// under both remaining CACs.
		a.AccessImprecise(res.Cfg.LinesOf(r.Addrs))
	case cac == Uncertain:
		a.AccessUncertain(res.Cfg.LineOf(r.Addr))
	default:
		a.Access(res.Cfg.LineOf(r.Addr))
	}
}

func (res *Result) classifyRef(b *cfg.Block, r Ref, must, may *ACS) RefClass {
	if r.Exact {
		ln := res.Cfg.LineOf(r.Addr)
		shift := res.shiftFor(res.Cfg.SetOf(ln))
		if must.Contains(ln) && must.Age(ln)+shift < res.Cfg.Ways {
			return RefClass{Class: AlwaysHit}
		}
		if !may.Poisoned && !may.Contains(ln) {
			// Not cached on first encounter; but if persistent, later
			// encounters hit, which PERSISTENT captures more tightly than
			// ALWAYS_MISS only when inside a loop. Outside a loop a single
			// guaranteed miss is exactly ALWAYS_MISS.
			if scope := res.persistentScope(b, ln); scope != nil {
				return RefClass{Class: Persistent, Scope: scope}
			}
			return RefClass{Class: AlwaysMiss}
		}
		if scope := res.persistentScope(b, ln); scope != nil {
			return RefClass{Class: Persistent, Scope: scope}
		}
		return RefClass{Class: NotClassified}
	}
	// Imprecise and unknown references are never guaranteed hits.
	return RefClass{Class: NotClassified}
}

// shiftFor returns the interference age shift of one set (0 without
// ReclassifyShift).
func (res *Result) shiftFor(s int) int {
	if res.shift == nil {
		return 0
	}
	return res.shift[s]
}

// persistentScope returns the outermost enclosing loop in which the
// line's set is persistent (conflict count plus interference shift within
// associativity), or nil.
func (res *Result) persistentScope(b *cfg.Block, ln LineID) *cfg.Loop {
	s := res.Cfg.SetOf(ln)
	var best *cfg.Loop
	for l := b.Loop(); l != nil; l = l.Parent {
		lp := res.persist[l]
		n := int(lp.counts[s])
		if !lp.poisoned && n > 0 && n <= res.Cfg.Ways && n+res.shiftFor(s) <= res.Cfg.Ways {
			best = l
		} else {
			break // an outer scope includes this one's conflicts
		}
	}
	return best
}

// ReclassifyShift recomputes all classifications under an inter-task
// interference model: shift[s] is the number of distinct foreign cache
// lines that co-running tasks may bring into set s (Li et al., RTSS 2009
// age-shift semantics; with shift >= ways the set behaves as fully
// corrupted, the direct-mapped special case of Yan & Zhang).
//
// Foreign address ranges must be disjoint from the task's own (the
// toolkit places co-scheduled tasks at disjoint bases), so ALWAYS_MISS
// claims survive: co-runners can evict our lines but never insert them.
// ALWAYS_HIT claims now require age + shift < ways, and persistence
// requires conflictCount + shift <= ways.
//
// shift is dense (len == Sets), the representation the interference
// analyses build directly. The slice is retained.
func (res *Result) ReclassifyShift(shift []int) {
	res.shift = shift
	res.Classes = make(map[RefID]RefClass, len(res.Classes))
	res.counts = ClassCounts{}
	res.classify(res.g, res.stream)
}

// Clone returns a copy that can be independently reclassified without
// disturbing the receiver: the classification map, its class tally and
// the interference shift are copied, while the fixpoint states, line index, persistence tables,
// graph and stream — immutable after Analyze — stay shared. When cac is
// non-nil it replaces the retained access-classification map, so a
// caller that clones its CAC map alongside (the batch engine's memoized
// multi-level analyses do) keeps the pair consistent.
func (res *Result) Clone(cac map[RefID]CAC) *Result {
	c := *res
	c.Classes = maps.Clone(res.Classes)
	c.shift = slices.Clone(res.shift)
	if cac != nil {
		c.cac = cac
	}
	return &c
}

// CACOf returns the reference's cache access classification for this
// level (Always for single-level analyses).
func (res *Result) CACOf(id RefID) CAC {
	if res.cac == nil {
		return Always
	}
	return res.cac[id]
}

// TouchedLines returns, per set index, the distinct lines this task may
// bring into this cache level (refs with CAC ≠ Never), ascending within
// each set. Unknown refs poison the result: the bool return is false and
// callers must assume every set fully conflicted.
func (res *Result) TouchedLines() ([][]LineID, bool) {
	marks := make([]bool, res.idx.NumSlots())
	for _, b := range res.g.Blocks {
		if b.IsExit() {
			continue
		}
		for seq, r := range res.stream.Refs[b.ID] {
			if res.CACOf(RefID{Block: b.ID, Seq: seq}) == Never {
				continue
			}
			lines, ok := res.Cfg.RefLines(r)
			if !ok {
				return nil, false
			}
			for _, ln := range lines {
				if slot, ok := res.idx.SlotOf(ln); ok {
					marks[slot] = true
				}
			}
		}
	}
	out := make([][]LineID, res.Cfg.Sets)
	for s := 0; s < res.Cfg.Sets; s++ {
		lo, hi := res.idx.setRange(s)
		for slot := lo; slot < hi; slot++ {
			if marks[slot] {
				out[s] = append(out[s], res.idx.LineAt(slot))
			}
		}
	}
	return out, true
}

// stateOrNew fetches a block's in-state, defaulting to the initial state
// (blocks unreachable in the stream maps, e.g. with empty streams).
func stateOrNew(m map[cfg.BlockID]*ACS, id cfg.BlockID, idx *Index, k ACSKind) *ACS {
	if s, ok := m[id]; ok {
		return s
	}
	return NewACS(idx, k)
}

// Describe renders one classification for diagnostics.
func (rc RefClass) String() string {
	if rc.Class == Persistent && rc.Scope != nil {
		return fmt.Sprintf("PERSISTENT@B%d", rc.Scope.Header.ID)
	}
	return rc.Class.String()
}
