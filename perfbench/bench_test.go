package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"paratime/internal/cfg"
	"paratime/internal/engine"
	"paratime/internal/parallel"
	"paratime/internal/spec"
)

// The tests run from the benchmark's directory; TIGHTNESS.json lives at
// the repository root.
func chdirRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

func serveBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	in, err := serveStream(seed, 300)
	if err != nil {
		t.Fatal(err)
	}
	out := slices.Concat(in.prime...)
	for i := range in.reqs {
		body, err := in.body(i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body...)
	}
	return out
}

func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	gens := map[string]func(seed int64) []byte{
		"sweep": func(seed int64) []byte {
			doc, err := sweepDoc(seed)
			if err != nil {
				t.Fatal(err)
			}
			return doc
		},
		"large": func(seed int64) []byte {
			doc, err := largeDoc(seed)
			if err != nil {
				t.Fatal(err)
			}
			return doc
		},
		"serve": func(seed int64) []byte { return serveBytes(t, seed) },
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

// The serve stream's repeat share is what keeps both percentiles among
// result-cache misses; every non-repeat must be a distinct scenario.
func TestServeStreamShape(t *testing.T) {
	const n = 1000
	in, err := serveStream(3, n)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	repeats := 0
	for i, r := range in.reqs {
		body, err := in.body(i)
		if err != nil {
			t.Fatal(err)
		}
		if r.first != i {
			repeats++
			if first, _ := in.body(r.first); !bytes.Equal(body, first) {
				t.Fatalf("request %d does not repeat request %d", i, r.first)
			}
			continue
		}
		if seen[string(body)] {
			t.Fatalf("request %d repeats an earlier scenario without being marked a repeat", i)
		}
		seen[string(body)] = true
	}
	if want := int(n * serveRepeatShare); repeats != want {
		t.Errorf("%d repeats, want %d", repeats, want)
	}
}

// The large task must stay above the parallel fixpoints' size thresholds
// (96 blocks, 256 interned cache lines) for every seed's shape.
func TestLargeTaskExceedsParallelThresholds(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		doc, err := largeDoc(seed)
		if err != nil {
			t.Fatal(err)
		}
		scs, err := spec.DecodeAll(doc)
		if err != nil {
			t.Fatal(err)
		}
		task, err := scs[0].Tasks[0].BuildTask()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := scs[0].System.BuildSystem()
		if err != nil {
			t.Fatal(err)
		}
		g, err := cfg.Build(task.Prog)
		if err != nil {
			t.Fatal(err)
		}
		if n := g.BlockCount(); n < 96 {
			t.Errorf("seed %d: %d blocks, want at least 96", seed, n)
		}
		a, err := engine.New(1).Analyze(context.Background(), task, sys)
		if err != nil {
			t.Fatal(err)
		}
		if n := a.L1D.Index().NumSlots(); n < 256 {
			t.Errorf("seed %d: %d L1D lines, want at least 256", seed, n)
		}
	}
}

// A corrupted report must fail the checks, and a failing op must be
// counted as failed.
func TestCorruptReportCountsAsFailed(t *testing.T) {
	chdirRoot(t)
	parallel.SetDefault(1)
	tight, err := loadTightness()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := corpusDoc()
	if err != nil {
		t.Fatal(err)
	}
	scs, err := spec.DecodeAll(doc)
	if err != nil {
		t.Fatal(err)
	}
	reps, encs, _, err := pass(context.Background(), configs["corpus"], scs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkPass(reps, encs, tight); err != nil {
		t.Fatalf("the uncorrupted corpus fails its checks: %v", err)
	}
	corruptions := map[string]func(r *spec.Report){
		"unsound sim":       func(r *spec.Report) { r.Sim[0].Sound = false },
		"exact above bound": func(r *spec.Report) { r.Tasks[0].ExactWorst = r.Tasks[0].WCET + 1 },
		"loosened bound":    func(r *spec.Report) { r.Tasks[0].WCET++ },
	}
	for name, corrupt := range corruptions {
		i := slices.IndexFunc(reps, func(r *spec.Report) bool { return r.Scenario == "e1-solo-suite" })
		saved, err := json.Marshal(reps[i])
		if err != nil {
			t.Fatal(err)
		}
		corrupt(reps[i])
		_, checkErr := checkPass(reps, encs, tight)
		if checkErr == nil {
			t.Errorf("%s: checks passed a corrupted report", name)
		}
		var restored spec.Report
		if err := json.Unmarshal(saved, &restored); err != nil {
			t.Fatal(err)
		}
		reps[i] = &restored

		_, failed, _ := closedLoop(time.Millisecond, func() (time.Duration, error) { return 0, checkErr })
		if failed == 0 {
			t.Errorf("%s: the op was not counted as failed", name)
		}
	}

	// A served report with an unsound simulation fails its checks.
	reps[0].Sim[0].Sound = false
	event, err := json.Marshal(map[string]any{"report": reps[0]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := terminalReport(append(event, '\n')); err == nil {
		t.Error("a served unsound report passed its checks")
	}
}

// The traced replay must reproduce spec.Run byte for byte on every
// exported scenario.
func TestReplayMatchesRun(t *testing.T) {
	parallel.SetDefault(1)
	doc, err := corpusDoc()
	if err != nil {
		t.Fatal(err)
	}
	scs, err := spec.DecodeAll(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, want, _, err := pass(context.Background(), configs["corpus"], scs)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	op := tr.begin(opSpan)
	rp := newReplayer(tr)
	for i, sc := range scs {
		rep, err := rp.run(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		got, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("%s: replay differs from spec.Run:\n%s\nwant:\n%s", sc.Name, got, want[i])
		}
	}
	tr.end(op)
	if _, _, _, err := tr.split(); err != nil {
		t.Error(err)
	}
}

// BENCHMARK.json's per-layer list is exactly what a traced run reports.
func TestPerLayerNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range bj.PerLayer {
		names = append(names, m.Name+" "+m.Unit)
	}
	var want []string
	for _, l := range perLayer {
		want = append(want, l.name+" "+l.unit)
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json per_layer %v\nperfbench reports %v", names, want)
	}
}

func TestTracerRejectsMisnestedSpans(t *testing.T) {
	tr := newTracer()
	op := tr.begin(opSpan)
	inner := tr.begin("sim")
	defer func() {
		if recover() == nil {
			t.Error("closing a parent before its child did not panic")
		}
	}()
	tr.end(op)
	tr.end(inner)
}
