package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"paratime/internal/experiments"
	"paratime/internal/spec"
)

// Every input is a pure function of the seed: the program under test
// receives only the generated documents, never the generator's state.
// The seed varies values (latencies, loop bounds, data), never the shape
// of the work, so that runs under different seeds cost the same.

// corpusDoc is what `paratime export all` prints: every exported
// scenario in file order. It does not depend on the seed.
func corpusDoc() ([]byte, error) {
	scs, err := experiments.ExportAll()
	if err != nil {
		return nil, err
	}
	return spec.EncodeAll(scs)
}

// sweepTaskSets are registered task sets whose tasks are prepared once
// per sweep and priced at every (busDelay, memLatency) point.
var sweepTaskSets = []string{"suite", "fib24+crc16", "matmult4+bsort12+fir16x4"}

// sweepDoc is a 3 × 4 × 4 = 48-point product space over sweepTaskSets,
// busDelay and memLatency; the seed picks the axis values.
func sweepDoc(seed int64) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	doc := spec.SweepDoc{
		Sweep: spec.SweepVersion,
		Name:  fmt.Sprintf("perfbench-sweep-%d", seed),
		Base: spec.Scenario{
			Spec:   spec.Version,
			Name:   "perfbench-sweep",
			System: spec.DefaultSystemSpec(),
			Mode:   spec.ModeSpec{Kind: spec.KindSolo},
		},
		Axes: spec.SweepAxes{
			TaskSets:   sweepTaskSets,
			BusDelay:   distinct(rng, 4, 0, 64),
			MemLatency: distinct(rng, 4, 20, 200),
		},
	}
	return doc.Encode()
}

// distinct draws n distinct sorted integers from [lo, hi).
func distinct(rng *rand.Rand, n, lo, hi int) []int {
	out := rng.Perm(hi - lo)[:n]
	for i := range out {
		out[i] += lo
	}
	slices.Sort(out)
	return out
}

// Serve load: a fixed rate well below the service's capacity, with a
// small seeded share of exact repeats that hit the result cache. The
// share stays below 10% so that both reported percentiles fall among the
// result-cache misses.
const (
	serveRate        = 100.0
	serveRepeatShare = 0.05
)

// serveBases are the exported scenarios the serve stream varies: one
// solo, one joint and one bus scenario, chosen to cost about the same
// (1.2 to 1.7 ms each with a warm prepare memo) so that the miss latency
// has one mode. Their variants change only memLatency or busDelay, so
// they miss the result cache but hit the prepare memo that priming fills.
var serveBases = []string{"e1-solo-suite", "e4-joint-directmapped-4co", "e12-bus-roundrobin-8cores"}

// serveInputs is the generated request stream of one serve run. Request
// bodies are encoded when sent, so the stream costs no memory per
// request.
type serveInputs struct {
	bases []*spec.Scenario
	// prime holds the unmodified base scenarios, posted once at set-up.
	prime [][]byte
	reqs  []serveReq
}

// serveReq is one request: a variant of a base scenario.
type serveReq struct {
	base, memLatency, busDelay int
	// first is the index of the first request with this content: the
	// request itself, or the earlier request it repeats.
	first int
}

// body encodes request i.
func (in *serveInputs) body(i int) ([]byte, error) {
	r := in.reqs[i]
	sc := *in.bases[r.base]
	sc.System.MemLatency, sc.System.BusDelay = r.memLatency, r.busDelay
	return sc.Encode()
}

// serveStream generates n requests. Bases rotate in seeded order with
// equal counts; each non-repeat request is a variant of its base that no
// other request in the stream shares.
func serveStream(seed int64, n int) (*serveInputs, error) {
	all, err := experiments.ExportAll()
	if err != nil {
		return nil, err
	}
	in := &serveInputs{}
	for _, name := range serveBases {
		j := slices.IndexFunc(all, func(s *spec.Scenario) bool { return s.Name == name })
		if j < 0 {
			return nil, fmt.Errorf("serve base %q is not exported", name)
		}
		body, err := all[j].Encode()
		if err != nil {
			return nil, err
		}
		in.bases = append(in.bases, all[j])
		in.prime = append(in.prime, body)
	}
	rng := rand.New(rand.NewSource(seed))
	repeat := make([]bool, n)
	nRepeat := int(float64(n) * serveRepeatShare)
	for _, i := range rng.Perm(n - 1)[:min(nRepeat, n-1)] {
		repeat[i+1] = true // the first request is never a repeat
	}
	// Balanced, shuffled base order for the non-repeat requests.
	order := make([]int, 0, n)
	for len(order) < n {
		order = append(order, rng.Perm(len(in.bases))...)
	}
	// Each base draws its variants from a seeded permutation of
	// (memLatency, busDelay) combinations, so no two variants coincide.
	// Mode bus derives its bus bound from the arbiter, so its variants
	// spread over memLatency alone.
	const memLo, memN, delayN = 30, 400, 40
	combos := make([][]int, len(in.bases))
	used := make([]int, len(in.bases))
	for b := range in.bases {
		combos[b] = rng.Perm(memN * delayN)
	}
	next := 0
	for i := 0; i < n; i++ {
		if repeat[i] {
			in.reqs = append(in.reqs, in.reqs[in.reqs[rng.Intn(i)].first])
			continue
		}
		b := order[next]
		next++
		if used[b] >= len(combos[b]) {
			return nil, fmt.Errorf("serve stream of %d requests exhausts the variants of %q", n, serveBases[b])
		}
		c := combos[b][used[b]]
		used[b]++
		r := serveReq{base: b, memLatency: memLo + c%memN, busDelay: c / memN, first: i}
		if in.bases[b].Mode.Kind == spec.KindBus {
			r.memLatency, r.busDelay = memLo+c, 0
		}
		in.reqs = append(in.reqs, r)
	}
	return in, nil
}

// Large task shape: largeGroups loop nests of depth two, each walking
// its own array, three L1D lines per iteration, through largeDiamonds
// data-dependent branches. 8 groups give 16 loops, over a hundred blocks
// and over 256 L1D lines: above both parallel-fixpoint thresholds.
const (
	largeGroups   = 8
	largeDiamonds = 3
	largeMaxInner = 24
	largeStride   = 48 // bytes: each iteration loads three 16-byte L1D lines
)

// largeDoc is one solo scenario with an L2 and a sim block over the
// seeded generated task, given as assembly source.
func largeDoc(seed int64) ([]byte, error) {
	sc := spec.Scenario{
		Spec:   spec.Version,
		Name:   fmt.Sprintf("perfbench-large-%d", seed),
		Tasks:  []spec.TaskSpec{{Name: "large", Source: largeSource(seed)}},
		System: spec.DefaultSystemSpec(),
		Mode:   spec.ModeSpec{Kind: spec.KindSolo},
		Sim:    &spec.SimSpec{},
	}
	return sc.Encode()
}

// largeSource generates the large task. The seed picks loop bounds, array
// contents and which same-class ALU operation each branch arm performs;
// the control-flow shape is the same for every seed.
func largeSource(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	alu := []string{"add", "sub", "xor", "or"}
	var b strings.Builder
	b.WriteString(".data 0x10000\n")
	for g := 0; g < largeGroups; g++ {
		fmt.Fprintf(&b, "arr%d: .word", g)
		for k := 0; k < largeStride/4*largeMaxInner; k++ {
			fmt.Fprintf(&b, " %d", rng.Intn(1000))
		}
		b.WriteString("\n")
	}
	b.WriteString(".text\n        li   r13, 0\n")
	for g := 0; g < largeGroups; g++ {
		fmt.Fprintf(&b, "        li   r1, %d\n", 2+rng.Intn(3))
		// The array pointer is the loop's induction register, so the
		// address analysis bounds every access.
		inner := 2*largeMaxInner/3 + rng.Intn(largeMaxInner/3+1)
		fmt.Fprintf(&b, "g%do:   li   r2, arr%d\n", g, g)
		fmt.Fprintf(&b, "        li   r6, arr%d\n", g)
		fmt.Fprintf(&b, "        addi r6, r6, %d\n", largeStride*inner)
		fmt.Fprintf(&b, "g%di:   ld   r4, 0(r2)\n", g)
		b.WriteString("        ld   r7, 16(r2)\n")
		b.WriteString("        ld   r8, 32(r2)\n")
		b.WriteString("        add  r4, r4, r7\n")
		b.WriteString("        sub  r4, r4, r8\n")
		for d := 0; d < largeDiamonds; d++ {
			fmt.Fprintf(&b, "        andi r5, r4, %d\n", 1<<d)
			fmt.Fprintf(&b, "        beq  r5, r0, g%de%d\n", g, d)
			fmt.Fprintf(&b, "        %s r13, r13, r4\n", alu[rng.Intn(len(alu))])
			fmt.Fprintf(&b, "        j    g%dj%d\n", g, d)
			fmt.Fprintf(&b, "g%de%d:  %s r13, r13, r5\n", g, d, alu[rng.Intn(len(alu))])
			fmt.Fprintf(&b, "g%dj%d:  addi r4, r4, %d\n", g, d, 1+rng.Intn(9))
		}
		b.WriteString("        st   r13, 0(r2)\n")
		fmt.Fprintf(&b, "        addi r2, r2, %d\n", largeStride)
		fmt.Fprintf(&b, "        bne  r2, r6, g%di\n", g)
		b.WriteString("        addi r1, r1, -1\n")
		fmt.Fprintf(&b, "        bne  r1, r0, g%do\n", g)
	}
	b.WriteString("        halt\n")
	return b.String()
}
