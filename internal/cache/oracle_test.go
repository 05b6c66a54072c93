package cache

// This file pins the dense ACS domain and the worklist fixpoint to the
// semantics of the original map-based implementation: oracleACS is a
// line-for-line port of the old `sets []map[LineID]int` representation
// and oracleFixpoint of the old whole-graph round-robin iteration.
// Property tests drive both representations through random operation
// sequences and demand exact agreement after every step.

import (
	"math/rand"
	"testing"

	"paratime/internal/cfg"
)

// oracleACS is the retired map-per-set abstract cache state.
type oracleACS struct {
	cfg      Config
	kind     ACSKind
	sets     []map[LineID]int
	Poisoned bool
}

func newOracle(cfg Config, kind ACSKind) *oracleACS {
	s := &oracleACS{cfg: cfg, kind: kind, sets: make([]map[LineID]int, cfg.Sets)}
	for i := range s.sets {
		s.sets[i] = map[LineID]int{}
	}
	return s
}

func (a *oracleACS) clone() *oracleACS {
	out := &oracleACS{cfg: a.cfg, kind: a.kind, sets: make([]map[LineID]int, len(a.sets)), Poisoned: a.Poisoned}
	for i, m := range a.sets {
		c := make(map[LineID]int, len(m))
		for l, age := range m {
			c[l] = age
		}
		out.sets[i] = c
	}
	return out
}

func (a *oracleACS) equal(b *oracleACS) bool {
	if a.Poisoned != b.Poisoned {
		return false
	}
	for i := range a.sets {
		if len(a.sets[i]) != len(b.sets[i]) {
			return false
		}
		for l, age := range a.sets[i] {
			if bage, ok := b.sets[i][l]; !ok || bage != age {
				return false
			}
		}
	}
	return true
}

func (a *oracleACS) join(b *oracleACS) *oracleACS {
	out := newOracle(a.cfg, a.kind)
	out.Poisoned = a.Poisoned || b.Poisoned
	switch a.kind {
	case Must:
		for i := range a.sets {
			for l, age := range a.sets[i] {
				if bage, ok := b.sets[i][l]; ok {
					out.sets[i][l] = max(age, bage)
				}
			}
		}
	case May:
		for i := range a.sets {
			for l, age := range a.sets[i] {
				out.sets[i][l] = age
			}
			for l, bage := range b.sets[i] {
				if age, ok := out.sets[i][l]; !ok || bage < age {
					out.sets[i][l] = bage
				}
			}
		}
	}
	return out
}

func (a *oracleACS) access(l LineID) {
	s := a.cfg.SetOf(l)
	m := a.sets[s]
	old, ok := m[l]
	if !ok {
		old = a.cfg.Ways
	}
	for x, age := range m {
		if x != l && age < old {
			if age+1 >= a.cfg.Ways {
				delete(m, x)
			} else {
				m[x] = age + 1
			}
		}
	}
	m[l] = 0
}

func (a *oracleACS) accessUncertain(l LineID) {
	upd := a.clone()
	upd.access(l)
	*a = *a.join(upd)
}

func (a *oracleACS) accessImprecise(lines []LineID) {
	switch a.kind {
	case Must:
		touched := map[int]bool{}
		for _, l := range lines {
			touched[a.cfg.SetOf(l)] = true
		}
		for s := range touched {
			a.ageSet(s, 1)
		}
	case May:
		for _, l := range lines {
			m := a.sets[a.cfg.SetOf(l)]
			if age, ok := m[l]; !ok || age > 0 {
				m[l] = 0
			}
		}
	}
}

func (a *oracleACS) accessUnknown() {
	switch a.kind {
	case Must:
		for s := range a.sets {
			a.ageSet(s, 1)
		}
	case May:
		a.Poisoned = true
	}
}

func (a *oracleACS) ageSet(s, n int) {
	if n <= 0 {
		return
	}
	m := a.sets[s]
	for x, age := range m {
		if age+n >= a.cfg.Ways {
			delete(m, x)
		} else {
			m[x] = age + n
		}
	}
}

// agree fails the test unless the dense state matches the oracle exactly
// on every interned line (and on poisoning).
func agree(t *testing.T, step string, o *oracleACS, a *ACS) {
	t.Helper()
	if o.Poisoned != a.Poisoned {
		t.Fatalf("%s: poisoned oracle=%v dense=%v", step, o.Poisoned, a.Poisoned)
	}
	idx := a.idx
	total := 0
	for slot := int32(0); slot < int32(idx.NumSlots()); slot++ {
		l := idx.LineAt(slot)
		oAge, oIn := o.sets[o.cfg.SetOf(l)][l]
		if !oIn {
			oAge = o.cfg.Ways
		} else {
			total++
		}
		if got := a.Age(l); got != oAge {
			t.Fatalf("%s: line %d oracle age %d (in=%v) dense age %d\noracle vs dense:\n%v\n%v",
				step, l, oAge, oIn, got, o.sets, a)
		}
	}
	for s := range o.sets {
		for l := range o.sets[s] {
			if _, ok := idx.SlotOf(l); !ok {
				t.Fatalf("%s: oracle contains uninterned line %d", step, l)
			}
		}
	}
	_ = total
}

// acsOpSeq drives one (oracle, dense) pair of each kind through a random
// operation sequence, checking agreement after every operation.
func acsOpSeq(t *testing.T, rng *rand.Rand, geom Config, universe int, steps int) {
	idx := NewIndex(geom, universeLines(universe))
	for _, kind := range []ACSKind{Must, May} {
		o := newOracle(geom, kind)
		a := NewACS(idx, kind)
		o2 := newOracle(geom, kind)
		a2 := NewACS(idx, kind)
		for step := 0; step < steps; step++ {
			l := LineID(rng.Intn(universe))
			switch op := rng.Intn(9); op {
			case 0, 1, 2, 3:
				o.access(l)
				a.Access(l)
			case 4:
				o.accessUncertain(l)
				a.AccessUncertain(l)
			case 5:
				k := 1 + rng.Intn(min(universe, 5))
				lines := make([]LineID, 0, k)
				for len(lines) < k {
					lines = append(lines, LineID(rng.Intn(universe)))
				}
				lines = geom.LinesOf(addrsOf(geom, lines))
				o.accessImprecise(lines)
				a.AccessImprecise(lines)
			case 6:
				if kind == Must || rng.Intn(4) == 0 { // poisoning is absorbing; keep May informative
					o.accessUnknown()
					a.AccessUnknown()
				}
			case 7:
				s, n := rng.Intn(geom.Sets), rng.Intn(3)
				o.ageSet(s, n)
				a.ageSetRange(s, n)
			case 8:
				// Advance the second pair and join it in.
				o2.access(l)
				a2.Access(l)
				o = o.join(o2)
				a = a.Join(a2)
			}
			agree(t, "op", o, a)
		}
		// Clone independence: mutating the clone leaves the original alone.
		oc, ac := o.clone(), a.Clone()
		oc.access(LineID(rng.Intn(universe)))
		agree(t, "post-clone original", o, a)
		_ = oc
		if !a.Equal(a.Clone()) {
			t.Fatal("state not Equal to its own clone")
		}
		_ = ac
	}
}

// addrsOf converts lines back to representative byte addresses.
func addrsOf(geom Config, lines []LineID) []uint32 {
	out := make([]uint32, len(lines))
	for i, l := range lines {
		out[i] = uint32(l) * uint32(geom.LineBytes)
	}
	return out
}

// TestACSOracleAgreement is the differential property test: the dense
// domain must agree with the map-based oracle on random op sequences
// over varied geometries.
func TestACSOracleAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		geom := Config{
			Name:      "o",
			Sets:      1 << rng.Intn(4),
			Ways:      1 + rng.Intn(4),
			LineBytes: 8 << rng.Intn(2),
		}
		acsOpSeq(t, rng, geom, 2+rng.Intn(12), 120)
	}
}

// FuzzACSOracle feeds arbitrary byte strings as operation programs to
// both representations.
func FuzzACSOracle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{9, 9, 9, 4, 4, 4, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		geom := Config{
			Name:      "f",
			Sets:      1 << (data[0] % 4),
			Ways:      1 + int(data[0]>>4)%4,
			LineBytes: 16,
		}
		universe := 2 + int(data[1]%12)
		idx := NewIndex(geom, universeLines(universe))
		for _, kind := range []ACSKind{Must, May} {
			o := newOracle(geom, kind)
			a := NewACS(idx, kind)
			for i := 2; i+1 < len(data); i += 2 {
				l := LineID(int(data[i+1]) % universe)
				switch data[i] % 6 {
				case 0, 1:
					o.access(l)
					a.Access(l)
				case 2:
					o.accessUncertain(l)
					a.AccessUncertain(l)
				case 3:
					lines := geom.LinesOf(addrsOf(geom, []LineID{l, LineID(int(data[i+1]/2) % universe)}))
					o.accessImprecise(lines)
					a.AccessImprecise(lines)
				case 4:
					o.ageSet(int(data[i+1])%geom.Sets, 1)
					a.ageSetRange(int(data[i+1])%geom.Sets, 1)
				case 5:
					o.accessUnknown()
					a.AccessUnknown()
				}
				agree(t, "fuzz-op", o, a)
			}
		}
	})
}

// oracleFixpoint is the retired whole-graph round-robin fixpoint,
// operating on oracle states over the raw stream (single-level: every
// reference reaches the cache).
func oracleFixpoint(g *cfg.Graph, st *Stream, cacheCfg Config, kind ACSKind) map[cfg.BlockID]*oracleACS {
	inStates := map[cfg.BlockID]*oracleACS{}
	out := map[cfg.BlockID]*oracleACS{}
	blocks := g.RPO()
	for changed := true; changed; {
		changed = false
		for _, b := range blocks {
			var in *oracleACS
			if b == g.Entry {
				in = newOracle(cacheCfg, kind)
			} else {
				for _, e := range b.Preds {
					p, ok := out[e.From.ID]
					if !ok {
						continue
					}
					if in == nil {
						in = p.clone()
					} else {
						in = in.join(p)
					}
				}
				if in == nil {
					continue
				}
			}
			o := in.clone()
			for _, r := range st.Refs[b.ID] {
				switch {
				case r.Exact:
					o.access(cacheCfg.LineOf(r.Addr))
				case r.Unknown:
					o.accessUnknown()
				default:
					o.accessImprecise(cacheCfg.LinesOf(r.Addrs))
				}
			}
			prevIn, okIn := inStates[b.ID]
			prevOut, okOut := out[b.ID]
			if !okIn || !prevIn.equal(in) || !okOut || !prevOut.equal(o) {
				inStates[b.ID] = in
				out[b.ID] = o
				changed = true
			}
		}
	}
	return inStates
}

// TestWorklistMatchesRoundRobin: the worklist fixpoint must compute
// exactly the in-states of the old round-robin iteration, block by
// block, on random loop-nest programs and random geometries.
func TestWorklistMatchesRoundRobin(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		g := randomLoopNest(t, rng)
		geom := Config{
			Name:      "w",
			Sets:      1 << rng.Intn(4),
			Ways:      1 + rng.Intn(3),
			LineBytes: 8 << rng.Intn(2),
		}
		st := FetchStream(g)
		res := MustAnalyze(g, st, geom)
		for _, kind := range []ACSKind{Must, May} {
			want := oracleFixpoint(g, st, geom, kind)
			got := res.MustIn
			if kind == May {
				got = res.MayIn
			}
			if len(want) != len(got) {
				t.Fatalf("trial %d kind %d: %d oracle states vs %d worklist states",
					trial, kind, len(want), len(got))
			}
			for id, o := range want {
				a, ok := got[id]
				if !ok {
					t.Fatalf("trial %d kind %d: block %d missing from worklist states", trial, kind, id)
				}
				agree(t, "fixpoint in-state", o, a)
			}
		}
	}
}

// randomLoopNest assembles a random two-level loop nest (same generator
// family as TestClassificationSoundnessRandomLoops).
func randomLoopNest(t *testing.T, rng *rand.Rand) *cfg.Graph {
	t.Helper()
	inner := 1 + rng.Intn(6)
	outer := 1 + rng.Intn(5)
	pad := rng.Intn(5)
	src := "        li r1, " + itoa(outer) + "\n"
	src += "outer:  li r2, " + itoa(inner) + "\n"
	for i := 0; i < pad; i++ {
		src += "        add r4, r4, r2\n"
	}
	src += "inner:  add r3, r3, r2\n"
	src += "        addi r2, r2, -1\n"
	src += "        bne r2, r0, inner\n"
	src += "        addi r1, r1, -1\n"
	src += "        bne r1, r0, outer\n"
	src += "        halt\n"
	return buildGraph(t, src)
}
