package spec

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"paratime/internal/core"
	"paratime/internal/engine"
	"paratime/internal/workload"
)

// sampleSweep is a three-axis product space over named task sets, bus
// delays and memory latencies: 2*2*2 = 8 points.
func sampleSweep() *SweepDoc {
	return &SweepDoc{
		Sweep: SweepVersion,
		Name:  "sample",
		Base: Scenario{
			Spec:   Version,
			Name:   "base",
			System: DefaultSystemSpec(),
			Mode:   ModeSpec{Kind: KindSolo},
		},
		Axes: SweepAxes{
			TaskSets:   []string{"fib24", "crc16"},
			BusDelay:   []int{0, 10},
			MemLatency: []int{50, 80},
		},
	}
}

// TestSweepEnumeration: point count, row-major order (last axis
// fastest), deterministic coordinate IDs, and per-point scenarios that
// actually carry the coordinate values.
func TestSweepEnumeration(t *testing.T) {
	d := sampleSweep()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := d.Points(); n != 8 {
		t.Fatalf("Points() = %d, want 8", n)
	}
	wantIDs := []string{
		"tasks=fib24,busDelay=0,memLatency=50",
		"tasks=fib24,busDelay=0,memLatency=80",
		"tasks=fib24,busDelay=10,memLatency=50",
		"tasks=fib24,busDelay=10,memLatency=80",
		"tasks=crc16,busDelay=0,memLatency=50",
		"tasks=crc16,busDelay=0,memLatency=80",
		"tasks=crc16,busDelay=10,memLatency=50",
		"tasks=crc16,busDelay=10,memLatency=80",
	}
	for i, want := range wantIDs {
		pt, err := d.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		if pt.ID != want {
			t.Errorf("point %d ID = %q, want %q", i, pt.ID, want)
		}
		if pt.Index != i {
			t.Errorf("point %d Index = %d", i, pt.Index)
		}
		wantBus := 0
		if strings.Contains(want, "busDelay=10") {
			wantBus = 10
		}
		if pt.Scenario.System.BusDelay != wantBus {
			t.Errorf("point %d busDelay = %d, want %d", i, pt.Scenario.System.BusDelay, wantBus)
		}
		if len(pt.Scenario.Tasks) != 1 {
			t.Errorf("point %d has %d tasks, want 1", i, len(pt.Scenario.Tasks))
		}
		// Point identity stays out of the analyzed content: every point
		// keeps the base name so fingerprints depend only on what is
		// analyzed.
		if pt.Scenario.Name != "base" {
			t.Errorf("point %d scenario name = %q, want base name", i, pt.Scenario.Name)
		}
	}
	if _, err := d.Point(8); err == nil {
		t.Error("out-of-range point accepted")
	}
	if _, err := d.Point(-1); err == nil {
		t.Error("negative point accepted")
	}
}

// TestSweepFingerprintsDistinct: distinct points are distinct scenarios
// (the duplicate-value rejection guarantees this); the same point
// fingerprints identically when rematerialized.
func TestSweepFingerprintsDistinct(t *testing.T) {
	d := sampleSweep()
	seen := map[string]int{}
	for i := 0; i < d.Points(); i++ {
		pt, err := d.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := pt.Scenario.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[fp]; dup {
			t.Fatalf("points %d and %d share fingerprint %s", prev, i, fp)
		}
		seen[fp] = i
		again, err := d.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		fp2, err := again.Scenario.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp2 != fp {
			t.Fatalf("point %d fingerprint unstable: %s vs %s", i, fp, fp2)
		}
	}
}

// TestSweepAxisEditDirtiesOnlyItsPoints: editing one axis value changes
// the fingerprints of exactly the points using it — the contract the
// incremental manifest depends on.
func TestSweepAxisEditDirtiesOnlyItsPoints(t *testing.T) {
	fps := func(d *SweepDoc) []string {
		out := make([]string, d.Points())
		for i := range out {
			pt, err := d.Point(i)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := pt.Scenario.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = fp
		}
		return out
	}
	before := fps(sampleSweep())
	edited := sampleSweep()
	edited.Axes.BusDelay[1] = 20 // was 10
	after := fps(edited)
	for i := range before {
		// index = tasks*4 + busDelay*2 + memLatency; the edited value is
		// busDelay coordinate 1, so exactly indices with bit 1 set dirty.
		dirty := i&2 != 0
		if got := before[i] != after[i]; got != dirty {
			t.Errorf("point %d: fingerprint changed=%v, want %v", i, got, dirty)
		}
	}
}

// TestSweepRoundTrip: DecodeSweep(Encode(d)) reproduces d exactly and
// the encoding is canonical.
func TestSweepRoundTrip(t *testing.T) {
	docs := []*SweepDoc{
		sampleSweep(),
		{
			Sweep: SweepVersion,
			Name:  "l2-bus",
			Base: Scenario{
				Spec:   Version,
				Name:   "b",
				System: DefaultSystemSpec(),
				Mode:   ModeSpec{Kind: KindBus, Bus: &BusSpec{Policy: BusRoundRobin}},
			},
			Axes: SweepAxes{
				TaskSets: []string{"fib24+crc16", "suite"},
				L2: []CacheSpec{
					{Sets: 32, Ways: 4, LineBytes: 32, HitLatency: 6},
					{Sets: 64, Ways: 4, LineBytes: 32, HitLatency: 6},
				},
				Bus: []BusSpec{
					{Policy: BusRoundRobin},
					{Policy: BusRoundRobin, Cores: 4},
				},
			},
		},
	}
	for _, d := range docs {
		data, err := d.Encode()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		got, err := DecodeSweep(data)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if !reflect.DeepEqual(d, got) {
			t.Errorf("%s: decode(encode(d)) != d\nhave %+v\nwant %+v", d.Name, got, d)
		}
		again, err := got.Encode()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if string(data) != string(again) {
			t.Errorf("%s: encoding not canonical", d.Name)
		}
	}
}

// TestSweepDecodeStrict: unknown fields anywhere in the document,
// trailing data, and wrong schema versions are rejected.
func TestSweepDecodeStrict(t *testing.T) {
	good, err := sampleSweep().Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data string
		want string
	}{
		{"unknown top-level", strings.Replace(string(good), "\"name\"", "\"bogus\"", 1), "unknown field"},
		{"unknown axis", strings.Replace(string(good), "\"busDelay\"", "\"busDelays\"", 1), "unknown field"},
		{"trailing data", string(good) + "{}", "trailing data"},
		{"wrong sweep version", strings.Replace(string(good), "\"sweep\": 1", "\"sweep\": 2", 1), "unsupported sweep schema"},
		{"wrong base version", strings.Replace(string(good), "\"spec\": 1", "\"spec\": 9", 1), "schema version 9"},
		{"not json", "nope", "decode sweep"},
	}
	for _, c := range cases {
		if _, err := DecodeSweep([]byte(c.data)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestSweepValidateRejects: axis bounds, duplicates, unknown set names,
// mode incompatibilities, and task-less documents.
func TestSweepValidateRejects(t *testing.T) {
	mutate := func(f func(*SweepDoc)) *SweepDoc {
		d := sampleSweep()
		f(d)
		return d
	}
	tooMany := make([]int, maxSweepAxisValues+1)
	for i := range tooMany {
		tooMany[i] = i
	}
	wide := make([]int, 2048)
	for i := range wide {
		wide[i] = i
	}
	cases := []struct {
		name string
		doc  *SweepDoc
		want string
	}{
		{"axis too long", mutate(func(d *SweepDoc) { d.Axes.BusDelay = tooMany }), "above the 4096 bound"},
		{"too many points", mutate(func(d *SweepDoc) { d.Axes.BusDelay, d.Axes.MemLatency = wide, wide }), "more than 1048576 points"},
		{"duplicate set", mutate(func(d *SweepDoc) { d.Axes.TaskSets = []string{"fib24", "fib24"} }), "duplicates"},
		{"unknown set", mutate(func(d *SweepDoc) { d.Axes.TaskSets = []string{"nosuch"} }), "unknown task set"},
		{"duplicate busDelay", mutate(func(d *SweepDoc) { d.Axes.BusDelay = []int{5, 5} }), "duplicates 5"},
		{"negative busDelay", mutate(func(d *SweepDoc) { d.Axes.BusDelay = []int{-1} }), "non-negative"},
		{"duplicate l2", mutate(func(d *SweepDoc) {
			c := CacheSpec{Sets: 32, Ways: 4, LineBytes: 32, HitLatency: 6}
			d.Axes.L2 = []CacheSpec{c, c}
		}), "duplicates an earlier value"},
		{"bad l2", mutate(func(d *SweepDoc) { d.Axes.L2 = []CacheSpec{{Sets: 3, Ways: 4, LineBytes: 32, HitLatency: 6}} }), "l2[0]"},
		{"bus axis wrong mode", mutate(func(d *SweepDoc) { d.Axes.Bus = []BusSpec{{Policy: BusRoundRobin}} }), "needs base mode"},
		{"partition axis wrong mode", mutate(func(d *SweepDoc) { d.Axes.Partition = []PartitionSpec{{Scheme: PartTask}} }), "needs base mode"},
		{"tasks and taskSets", mutate(func(d *SweepDoc) {
			d.Base.Tasks = []TaskSpec{{Name: "x", Source: "halt"}}
		}), "conflicts with base tasks"},
		{"no tasks at all", mutate(func(d *SweepDoc) { d.Axes.TaskSets = nil }), "no tasks and no taskSets"},
	}
	for _, c := range cases {
		err := c.doc.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
		// The enumerator a run prices with validates identically.
		if err2 := c.doc.Enumerate().Validate(); err2 == nil || err2.Error() != err.Error() {
			t.Errorf("%s: SweepPoints.Validate err = %v, SweepDoc.Validate err = %v", c.name, err2, err)
		}
	}
	// busDelay axis under mode "bus" conflicts with arbiter-derived bounds.
	d := sampleSweep()
	d.Base.Mode = ModeSpec{Kind: KindBus, Bus: &BusSpec{Policy: BusRoundRobin}}
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "busDelay axis conflicts") {
		t.Errorf("busDelay under bus mode: err = %v", err)
	}
}

// TestSweepNoAxes: a document without axes has exactly one point — the
// base itself.
func TestSweepNoAxes(t *testing.T) {
	d := sampleSweep()
	d.Axes = SweepAxes{}
	d.Base.Tasks = []TaskSpec{{Name: "t", Source: "        halt"}}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := d.Points(); n != 1 {
		t.Fatalf("Points() = %d, want 1", n)
	}
	pt, err := d.Point(0)
	if err != nil {
		t.Fatal(err)
	}
	if pt.ID != "base" {
		t.Errorf("axis-free point ID = %q, want \"base\"", pt.ID)
	}
}

// FuzzSweepDecode: DecodeSweep must never panic, and any accepted
// document must re-encode canonically and materialize its first point.
func FuzzSweepDecode(f *testing.F) {
	seed, err := sampleSweep().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	f.Add(`{"sweep":1}`)
	f.Add(`{"sweep":1,"base":{"spec":1},"axes":{"busDelay":[1,2]}}`)
	f.Add(`{"sweep":1,"base":{"spec":1,"mode":{"kind":"solo"}},"axes":{"taskSets":["suite"]}}`)
	f.Fuzz(func(t *testing.T, data string) {
		d, err := DecodeSweep([]byte(data))
		if err != nil {
			return
		}
		out, err := d.Encode()
		if err != nil {
			t.Fatalf("accepted document fails to encode: %v", err)
		}
		d2, err := DecodeSweep(out)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v", err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatal("canonical round trip not a fixed point")
		}
		if _, err := d.Point(0); err != nil {
			t.Fatalf("validated document has no point 0: %v", err)
		}
	})
}

// TestSweepPointErrorMentionsID: a point whose materialization fails
// names its coordinates, not just an opaque index.
func TestSweepPointErrorMentionsID(t *testing.T) {
	d := sampleSweep()
	// Bypass Validate: inject an invalid value directly.
	d.Axes.MemLatency = []int{50, -1}
	if _, err := d.Point(1); err == nil || !strings.Contains(err.Error(), "memLatency=-1") {
		t.Errorf("err = %v, want coordinate ID in message", err)
	}
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted a negative memLatency")
	}
}

// threeSetSweep is a 3 × 4 × 4 = 48-point product space over three task
// sets, bus delays and memory latencies: the shape of a typical
// system-parameter sweep, where each set is priced at 16 points.
func threeSetSweep() *SweepDoc {
	d := sampleSweep()
	d.Axes = SweepAxes{
		TaskSets:   []string{"suite", "fib24+crc16", "matmult4+bsort12+fir16x4"},
		BusDelay:   []int{3, 9, 17, 40},
		MemLatency: []int{25, 60, 90, 150},
	}
	return d
}

// TestSweepPointsConcurrent: eight goroutines materializing every point
// from one enumerator — racing on the first use of each task set — get
// exactly the points that sequential SweepDoc.Point calls build.
func TestSweepPointsConcurrent(t *testing.T) {
	d := threeSetSweep()
	n := d.Points()
	want := make([]*SweepPoint, n)
	for i := range want {
		pt, err := d.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pt
	}
	wantFP := make([]string, n)
	for i, pt := range want {
		fp, err := pt.Scenario.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		wantFP[i] = fp
	}
	pts := d.Enumerate()
	const workers = 8
	got := make([][]*SweepPoint, workers)
	gotFP := make([][]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = make([]*SweepPoint, n)
			gotFP[w] = make([]string, n)
			for k := 0; k < n; k++ {
				i := (k + w*n/workers) % n // workers start at different sets
				pt, err := pts.Point(i)
				if err != nil {
					errs[w] = err
					return
				}
				got[w][i] = pt
				if gotFP[w][i], err = pts.Fingerprint(pt); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i := range want {
			if !reflect.DeepEqual(got[w][i], want[i]) {
				t.Fatalf("worker %d point %d differs from SweepDoc.Point", w, i)
			}
			if gotFP[w][i] != wantFP[i] {
				t.Fatalf("worker %d point %d: SweepPoints.Fingerprint %s, Scenario.Fingerprint %s", w, i, gotFP[w][i], wantFP[i])
			}
		}
	}
}

// TestSweepPointsShareTaskSets: one enumerator materializes each task set
// once, so its points share one Tasks backing array; points of other
// sets, and points from another enumerator, do not.
func TestSweepPointsShareTaskSets(t *testing.T) {
	d := threeSetSweep()
	tasksOf := func(pts *SweepPoints, i int) *TaskSpec {
		t.Helper()
		pt, err := pts.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		return &pt.Scenario.Tasks[0]
	}
	pts := d.Enumerate()
	perSet := pts.Points() / len(d.Axes.TaskSets)
	for set := range d.Axes.TaskSets {
		first := tasksOf(pts, set*perSet)
		for i := set*perSet + 1; i < (set+1)*perSet; i++ {
			if tasksOf(pts, i) != first {
				t.Fatalf("point %d does not share set %d's tasks", i, set)
			}
		}
		if set > 0 && first == tasksOf(pts, 0) {
			t.Fatalf("set %d shares set 0's tasks", set)
		}
	}
	if tasksOf(d.Enumerate(), 0) == tasksOf(pts, 0) {
		t.Fatal("two enumerators share a task set")
	}
}

// BenchmarkSweepPoints materializes every point of the 48-point
// three-set sweep through one enumerator per iteration, as one sweep
// run does.
func BenchmarkSweepPoints(b *testing.B) {
	d := threeSetSweep()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts := d.Enumerate()
		for p := 0; p < pts.Points(); p++ {
			if _, err := pts.Point(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// fingerprintDocs are the sweep shapes the per-set fingerprint must
// agree with Scenario.Fingerprint on: the CLI's example sweep, the
// 48-point three-set sweep, a document without a taskSets axis, and
// bases that exercise the encoding's omitempty fields (no name, a sim
// block, an explore block).
func fingerprintDocs(t testing.TB) map[string]*SweepDoc {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "cmd", "paratime", "testdata", "sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DecodeSweep(data)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := TasksToSpec(workload.Suite()[:2])
	if err != nil {
		t.Fatal(err)
	}
	noSets := sampleSweep()
	noSets.Base.Tasks = tasks
	noSets.Axes = SweepAxes{
		L2:         []CacheSpec{{Sets: 32, Ways: 4, LineBytes: 32, HitLatency: 4}, {Sets: 64, Ways: 8, LineBytes: 32, HitLatency: 6}},
		MemLatency: []int{25, 90},
	}
	unnamed := threeSetSweep()
	unnamed.Base.Name = ""
	withSim := sampleSweep()
	withSim.Base.Sim = &SimSpec{MaxCycles: 1_000_000}
	withExplore := *noSets
	withExplore.Base.Explore = &ExploreSpec{InitStates: 2, Inputs: []InputSpec{{Task: tasks[0].Name, Reg: "r1", Values: []int32{0, 1}}}}
	bus := sampleSweep()
	bus.Base.Mode = ModeSpec{Kind: KindBus, Bus: &BusSpec{Policy: BusRoundRobin}}
	bus.Axes.BusDelay = nil
	bus.Axes.Bus = []BusSpec{{Policy: BusRoundRobin}, {Policy: BusMBBA, Weights: []int{1}}}
	return map[string]*SweepDoc{
		"cli": cli, "three-set": threeSetSweep(), "no-taskSets": noSets, "unnamed": unnamed,
		"sim": withSim, "explore": &withExplore, "bus": bus,
	}
}

// TestSweepPointsFingerprint: for every point of every fingerprintDocs
// sweep, the head and tail encodings compose to json.Marshal of the
// point's scenario, and SweepPoints.Fingerprint — hashing each set's
// head once — equals Scenario.Fingerprint.
func TestSweepPointsFingerprint(t *testing.T) {
	for name, d := range fingerprintDocs(t) {
		pts := d.Enumerate()
		if err := pts.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen := map[string]int{}
		for i := 0; i < pts.Points(); i++ {
			pt, err := pts.Point(i)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkSplitEncoding(t, name+" "+pt.ID, pt.Scenario)
			got, err := pts.Fingerprint(pt)
			if err != nil {
				t.Fatalf("%s %s: %v", name, pt.ID, err)
			}
			want, err := pt.Scenario.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s %s: SweepPoints.Fingerprint %s, Scenario.Fingerprint %s", name, pt.ID, got, want)
			}
			if j, dup := seen[got]; dup {
				t.Fatalf("%s: points %d and %d share fingerprint %s", name, j, i, got)
			}
			seen[got] = i
		}
	}
}

// TestSweepPointsFingerprintForeignPoint: an enumerator fingerprints
// only its own points. A point from another enumerator carries another
// copy of its task set, which the cached head was not hashed from.
func TestSweepPointsFingerprintForeignPoint(t *testing.T) {
	d := threeSetSweep()
	pts := d.Enumerate()
	foreign, err := d.Point(20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pts.Fingerprint(foreign); err == nil || !strings.Contains(err.Error(), "not enumerated by this SweepPoints") {
		t.Errorf("foreign point: err = %v", err)
	}
	own, err := pts.Point(20)
	if err != nil {
		t.Fatal(err)
	}
	own.Index = pts.Points()
	if _, err := pts.Fingerprint(own); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("out-of-range point: err = %v", err)
	}
}

// BenchmarkSweepFingerprint materializes and fingerprints every point
// of the 48-point three-set sweep through one enumerator per iteration,
// as one sweep run keys its points; the difference from
// BenchmarkSweepPoints is the fingerprint cost.
func BenchmarkSweepFingerprint(b *testing.B) {
	d := threeSetSweep()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts := d.Enumerate()
		for p := 0; p < pts.Points(); p++ {
			pt, err := pts.Point(p)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pts.Fingerprint(pt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestSweepPointsRun: for every point of every fingerprintDocs sweep,
// SweepPoints.Run reports byte for byte what Run reports for the
// point's scenario, and it refuses a point from another enumerator.
func TestSweepPointsRun(t *testing.T) {
	ctx := context.Background()
	for name, d := range fingerprintDocs(t) {
		pts := d.Enumerate()
		eng, ref := engine.New(1), engine.New(1)
		for i := 0; i < pts.Points(); i++ {
			pt, err := pts.Point(i)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := pts.Run(ctx, pt, eng)
			if err != nil {
				t.Fatalf("%s %s: %v", name, pt.ID, err)
			}
			want, err := Run(ctx, pt.Scenario, ref)
			if err != nil {
				t.Fatal(err)
			}
			gb, _ := got.Encode()
			wb, _ := want.Encode()
			if !bytes.Equal(gb, wb) {
				t.Fatalf("%s %s: SweepPoints.Run report\n%s\nRun report\n%s", name, pt.ID, gb, wb)
			}
		}
	}
	d := threeSetSweep()
	foreign, err := d.Point(20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Enumerate().Run(ctx, foreign, nil); err == nil || !strings.Contains(err.Error(), "not enumerated by this SweepPoints") {
		t.Errorf("foreign point: err = %v", err)
	}
}

// TestSweepPointsRunSharesPrograms: every point of one task set reaches
// the mode's analysis with the same built, Keyed tasks, so the engine
// sees one *isa.Program per task and keys it without hashing it again
// (fewer allocations); the keys equal those of freshly built tasks. It records the tasks by
// wrapping solo's row of the mode table.
func TestSweepPointsRunSharesPrograms(t *testing.T) {
	m := modeOf(KindSolo)
	orig := m.run
	defer func() { m.run = orig }()
	var seen []core.Task
	m.run = func(ctx context.Context, s *Scenario, eng *engine.Engine, tasks []core.Task, sys core.SystemConfig, rep *Report) error {
		seen = tasks
		return orig(ctx, s, eng, tasks, sys, rep)
	}
	for name, d := range map[string]*SweepDoc{"three-set": threeSetSweep(), "no-taskSets": fingerprintDocs(t)["no-taskSets"]} {
		pts := d.Enumerate()
		perSet := pts.Points() / max(1, len(d.Axes.TaskSets))
		eng := engine.New(1)
		var first, setFirst []core.Task
		for i := 0; i < pts.Points(); i++ {
			pt, err := pts.Point(i)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pts.Run(context.Background(), pt, eng); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = seen
			}
			if i%perSet == 0 {
				setFirst = seen
			}
			for j := range seen {
				if seen[j].Prog != setFirst[j].Prog {
					t.Errorf("%s: point %d task %d has its own program, not its set's", name, i, j)
				}
			}
			if i >= perSet && seen[0].Prog == first[0].Prog {
				t.Errorf("%s: point %d shares another set's program", name, i)
			}
			plain, err := buildTasks(pt.Scenario.Tasks)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := pt.Scenario.System.BuildSystem()
			if err != nil {
				t.Fatal(err)
			}
			for j := range seen {
				if k, want := core.PrepareKey(seen[j], sys), core.PrepareKey(plain[j], sys); k != want {
					t.Errorf("%s point %d task %d: set key %q, fresh key %q", name, i, j, k, want)
				}
			}
			// A keyed task skips the fingerprints, and with them their
			// allocations.
			keyed := testing.AllocsPerRun(5, func() { core.PrepareKey(seen[0], sys) })
			if fresh := testing.AllocsPerRun(5, func() { core.PrepareKey(plain[0], sys) }); keyed >= fresh {
				t.Fatalf("%s point %d: keying the set's task allocates %v times, as many as a fresh task's %v: the set's tasks are not keyed", name, i, keyed, fresh)
			}
		}
	}
}

// TestSetTasksKeyAsBuilt: SweepPoints.Run keys the tasks workload.Set
// built instead of rebuilding them from their specs, which is sound
// only if every set's direct tasks carry the names and PrepareKeys of
// the tasks BuildTask makes from their specs, under systems with and
// without an L2.
func TestSetTasksKeyAsBuilt(t *testing.T) {
	noL2 := core.DefaultSystem()
	noL2.Mem.L2 = nil
	names := append(workload.SetNames(), "fib24+crc16", "matmult4+bsort12+fir16x4")
	for _, name := range names {
		direct, err := workload.Set(name)
		if err != nil {
			t.Fatal(err)
		}
		specs, err := TasksToSpec(direct)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			built, err := specs[i].BuildTask()
			if err != nil {
				t.Fatal(err)
			}
			if direct[i].Name != built.Name {
				t.Errorf("%s task %d: direct name %q, built %q", name, i, direct[i].Name, built.Name)
			}
			for _, sys := range []core.SystemConfig{core.DefaultSystem(), noL2} {
				if got, want := core.PrepareKey(direct[i], sys), core.PrepareKey(built, sys); got != want {
					t.Errorf("%s task %d (%s): direct key %q, built %q", name, i, direct[i].Name, got, want)
				}
			}
		}
	}
}
