package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paratime/internal/spec"
)

var update = flag.Bool("update", false, "rewrite golden files")

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.String()
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (run with -update to regenerate):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestRunGolden: `paratime run` output on the checked-in scenario file
// is pinned byte-for-byte — the WCET numbers are part of the contract.
func TestRunGolden(t *testing.T) {
	out := capture(t, func() error {
		return run(context.Background(), []string{"run", filepath.Join("testdata", "quickstart.json")})
	})
	checkGolden(t, "quickstart.golden", out)
}

// TestRunGoldenJSON pins the -json report form.
func TestRunGoldenJSON(t *testing.T) {
	out := capture(t, func() error {
		return run(context.Background(), []string{"run", "-json", filepath.Join("testdata", "quickstart.json")})
	})
	checkGolden(t, "quickstart.json.golden", out)
}

// TestExploreGolden pins the text report of `paratime run` on a
// scenario with an explore block: exact worst, tightness and the
// replayable witness line are byte-for-byte part of the contract.
func TestExploreGolden(t *testing.T) {
	out := capture(t, func() error {
		return run(context.Background(), []string{"run", filepath.Join("testdata", "explore.json")})
	})
	checkGolden(t, "explore.golden", out)
}

// TestExploreGoldenJSON pins the -json form with explore enabled.
func TestExploreGoldenJSON(t *testing.T) {
	out := capture(t, func() error {
		return run(context.Background(), []string{"run", "-json", filepath.Join("testdata", "explore.json")})
	})
	checkGolden(t, "explore.json.golden", out)
}

// TestExportRunPipeline: every exported scenario decodes and runs — the
// in-process version of the CI `export all | run -` smoke job (on a
// fast subset; CI runs the full set).
func TestExportRunPipeline(t *testing.T) {
	out := capture(t, func() error {
		return run(context.Background(), []string{"export", "e8"})
	})
	scs, err := spec.DecodeAll([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 4 {
		t.Fatalf("e8 exported %d scenarios, want 4", len(scs))
	}
	tmp := filepath.Join(t.TempDir(), "e8.json")
	if err := os.WriteFile(tmp, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	res := capture(t, func() error {
		return run(context.Background(), []string{"run", tmp})
	})
	for _, sc := range scs {
		if !strings.Contains(res, sc.Name) {
			t.Errorf("run output lacks scenario %q", sc.Name)
		}
	}
}

// TestSweepGolden pins the text stream of `paratime sweep` on the
// checked-in sweep file: one aligned line per point, in point order.
func TestSweepGolden(t *testing.T) {
	out := capture(t, func() error {
		return run(context.Background(), []string{"sweep", filepath.Join("testdata", "sweep.json")})
	})
	checkGolden(t, "sweep.golden", out)
}

// TestSweepGoldenJSON pins the NDJSON stream — and with it the ordered
// mode's determinism contract (the golden must match at any
// -parallelism).
func TestSweepGoldenJSON(t *testing.T) {
	for _, p := range []string{"1", "8"} {
		out := capture(t, func() error {
			return run(context.Background(), []string{"sweep", "-json", "-parallelism", p, filepath.Join("testdata", "sweep.json")})
		})
		checkGolden(t, "sweep.ndjson.golden", out)
	}
}

// TestSweepCacheDirByteIdentical: a warm re-run through -cache-dir (all
// points answered from the manifest) emits exactly the cold run's
// bytes — the in-process version of the CI sweep smoke job.
func TestSweepCacheDirByteIdentical(t *testing.T) {
	dir := t.TempDir()
	sweepArgs := func(out string) []string {
		return []string{"sweep", "-json", "-cache-dir", dir, "-out", out, filepath.Join("testdata", "sweep.json")}
	}
	cold := filepath.Join(t.TempDir(), "cold.ndjson")
	warm := filepath.Join(t.TempDir(), "warm.ndjson")
	if err := run(context.Background(), sweepArgs(cold)); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), sweepArgs(warm)); err != nil {
		t.Fatal(err)
	}
	c, err := os.ReadFile(cold)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c, w) {
		t.Errorf("warm sweep differs from cold:\n%s\nvs\n%s", w, c)
	}
}

// TestSweepRejectsBadFile: strict decoding surfaces the file name.
func TestSweepRejectsBadFile(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"sweep":1,"bogus":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"sweep", bad})
	if err == nil || !strings.Contains(err.Error(), "bad.json") {
		t.Errorf("err = %v, want decode failure naming the file", err)
	}
}

// TestRunBadFlags: malformed run and tightness flags are flag errors,
// never mistaken for file names.
func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-json", "-parallelism"},
		{"run", "-bogus", "x"},
		{"run", "-parallelism", "-1", "testdata/quickstart.json"},
		{"tightness", "-bogus"},
	} {
		err := run(context.Background(), args)
		if err == nil || strings.Contains(err.Error(), "no such file") {
			t.Errorf("%v: err = %v, want a flag error", args, err)
		}
	}
}

// TestNegativeParallelismRejected: run, sweep and serve all reject a
// negative -parallelism with the same message, before reading any input
// or opening a listener.
func TestNegativeParallelismRejected(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-parallelism", "-3", filepath.Join("testdata", "quickstart.json")},
		{"sweep", "-parallelism", "-3", filepath.Join("testdata", "sweep.json")},
		{"serve", "-parallelism", "-3", "-addr", "127.0.0.1:0"},
	} {
		err := run(context.Background(), args)
		want := args[0] + ": -parallelism wants a non-negative integer, got -3"
		if err == nil || err.Error() != want {
			t.Errorf("%v: err = %v, want %q", args, err, want)
		}
	}
}

// TestExpUnknownID: the exp verb still rejects unknown ids up front.
func TestExpUnknownID(t *testing.T) {
	if err := run(context.Background(), []string{"exp", "e99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestExpAllGolden pins every experiment table and metric of `paratime
// exp all` byte-for-byte: a runner rebased onto its exported scenarios
// must reproduce the numbers it printed before.
func TestExpAllGolden(t *testing.T) {
	out := capture(t, func() error {
		return run(context.Background(), []string{"exp", "all"})
	})
	checkGolden(t, "expall.golden", out)
}

// TestSuiteGolden pins `paratime suite`: every benchmark's WCET, solo
// simulated cycles and cache classes.
func TestSuiteGolden(t *testing.T) {
	out := capture(t, func() error {
		return run(context.Background(), []string{"suite"})
	})
	checkGolden(t, "suite.golden", out)
}

// TestExportAllGolden pins the scenario JSON of `paratime export all`.
func TestExportAllGolden(t *testing.T) {
	out := capture(t, func() error {
		return run(context.Background(), []string{"export", "all"})
	})
	checkGolden(t, "exportall.golden", out)
}
