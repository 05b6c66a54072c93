package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"paratime/internal/cachestore"
	"paratime/internal/engine"
	"paratime/internal/spec"
)

// testSweep is a 1-task × 2-busDelay × 2-memLatency product space: four
// points sharing one core.PrepareKey (bus delay and memory latency are
// outside the key), the differential-reuse sweet spot.
func testSweep() *spec.SweepDoc {
	return &spec.SweepDoc{
		Sweep: spec.SweepVersion,
		Name:  "test",
		Base: spec.Scenario{
			Spec:   spec.Version,
			Name:   "base",
			System: spec.DefaultSystemSpec(),
			Mode:   spec.ModeSpec{Kind: spec.KindSolo},
		},
		Axes: spec.SweepAxes{
			TaskSets:   []string{"crc16"},
			BusDelay:   []int{0, 10},
			MemLatency: []int{50, 80},
		},
	}
}

// ndjson runs the sweep and returns the emitted NDJSON byte stream plus
// the summary.
func ndjson(t *testing.T, doc *spec.SweepDoc, opt Options) ([]byte, *Summary) {
	t.Helper()
	var buf bytes.Buffer
	sum, err := Run(context.Background(), doc, opt, func(l Line) error {
		b, err := json.Marshal(l)
		if err != nil {
			return err
		}
		buf.Write(append(b, '\n'))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sum
}

// TestOrderedByteIdentical: the ordered stream is a pure function of the
// document — byte-identical at any parallelism, inline or across workers.
func TestOrderedByteIdentical(t *testing.T) {
	ref, refSum := ndjson(t, testSweep(), Options{Parallelism: 1})
	if refSum.Points != 4 || refSum.Errors != 0 {
		t.Fatalf("summary %+v, want 4 clean points", refSum)
	}
	for _, p := range []int{2, 8} {
		got, sum := ndjson(t, testSweep(), Options{Parallelism: p})
		if !bytes.Equal(ref, got) {
			t.Errorf("parallelism %d: stream differs from sequential:\n%s\nvs\n%s", p, got, ref)
		}
		if sum.Points != refSum.Points || sum.Errors != 0 {
			t.Errorf("parallelism %d summary %+v", p, sum)
		}
	}
}

// TestOrderedAcrossGOMAXPROCS: the differential determinism check — the
// ordered stream at GOMAXPROCS=1 is byte-identical to GOMAXPROCS=8,
// with the engine and driver both resolving their own worker counts.
func TestOrderedAcrossGOMAXPROCS(t *testing.T) {
	stream := func(procs int) []byte {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		got, _ := ndjson(t, testSweep(), Options{})
		return got
	}
	s1, s8 := stream(1), stream(8)
	if !bytes.Equal(s1, s8) {
		t.Errorf("stream differs across GOMAXPROCS:\n%s\nvs\n%s", s1, s8)
	}
}

// TestPrepareReuseRatio: a sweep varying only parameters outside
// core.PrepareKey prepares the task once — misses = 1 task, hits =
// (points-1) × tasks, so reuse is (points-1)/points.
func TestPrepareReuseRatio(t *testing.T) {
	_, sum := ndjson(t, testSweep(), Options{Parallelism: 1})
	if sum.PrepareMisses != 1 || sum.PrepareHits != 3 {
		t.Fatalf("prepare hits/misses = %d/%d, want 3/1", sum.PrepareHits, sum.PrepareMisses)
	}
	if sum.PrepareReuse != 0.75 {
		t.Fatalf("PrepareReuse = %v, want 0.75", sum.PrepareReuse)
	}
}

// TestManifestIncremental: with a persistent manifest, a re-run answers
// every point from it; after a one-axis edit only the dirty points are
// recomputed. Streams stay byte-identical either way.
func TestManifestIncremental(t *testing.T) {
	disk, err := cachestore.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	opt := func() Options { return Options{Parallelism: 4, Manifest: disk} }

	cold, sum := ndjson(t, testSweep(), opt())
	if sum.ManifestHits != 0 || sum.ManifestMisses != 4 {
		t.Fatalf("cold run hits/misses = %d/%d, want 0/4", sum.ManifestHits, sum.ManifestMisses)
	}
	warm, sum := ndjson(t, testSweep(), opt())
	if sum.ManifestHits != 4 || sum.ManifestMisses != 0 {
		t.Fatalf("warm run hits/misses = %d/%d, want 4/0", sum.ManifestHits, sum.ManifestMisses)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("manifest-served stream differs from computed:\n%s\nvs\n%s", warm, cold)
	}

	// Edit one busDelay value: exactly the two points using it recompute.
	edited := testSweep()
	edited.Axes.BusDelay[1] = 20
	_, sum = ndjson(t, edited, opt())
	if sum.ManifestHits != 2 || sum.ManifestMisses != 2 {
		t.Fatalf("incremental run hits/misses = %d/%d, want 2/2", sum.ManifestHits, sum.ManifestMisses)
	}
	// The incremental run prepared nothing new beyond the shared artefact
	// for the recomputed points (still one PrepareKey).
	_, sum = ndjson(t, edited, opt())
	if sum.ManifestHits != 4 {
		t.Fatalf("re-run after incremental still misses: %+v", sum)
	}
}

// TestManifestUndecodablePayloadRecomputes: a corrupt manifest payload
// is treated as a miss, not an error.
func TestManifestUndecodablePayloadRecomputes(t *testing.T) {
	mem := cachestore.NewMemory(0)
	doc := testSweep()
	// Poison every point's manifest slot.
	for i := 0; i < doc.Points(); i++ {
		pt, err := doc.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := pt.Scenario.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		mem.Put(manifestKey(fp), []byte("not json"))
	}
	ref, _ := ndjson(t, doc, Options{Parallelism: 1})
	got, sum := ndjson(t, doc, Options{Parallelism: 1, Manifest: mem})
	if !bytes.Equal(ref, got) {
		t.Fatal("poisoned manifest changed the stream")
	}
	if sum.ManifestHits != 0 || sum.ManifestMisses != 4 {
		t.Fatalf("hits/misses = %d/%d, want 0/4", sum.ManifestHits, sum.ManifestMisses)
	}
}

// TestPointErrorsAreLines: a point whose analysis fails produces an
// error line; the sweep continues and the summary counts it.
func TestPointErrorsAreLines(t *testing.T) {
	doc := testSweep()
	doc.Axes.TaskSets = nil
	// An unbounded loop passes Validate (bounds are an analysis-time
	// concern) but fails every point's analysis.
	doc.Base.Tasks = []spec.TaskSpec{{
		Name:   "spin",
		Source: "loop:   addi r1, r1, 1\n        bne r1, r0, loop\n        halt",
	}}
	var lines []Line
	sum, err := Run(context.Background(), doc, Options{Parallelism: 2}, func(l Line) error {
		lines = append(lines, l)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != sum.Points || sum.Points != 4 {
		t.Fatalf("summary %+v, want 4 error points", sum)
	}
	for _, l := range lines {
		if l.Error == "" || l.Report != nil {
			t.Errorf("point %d: error line malformed: %+v", l.Index, l)
		}
	}
}

// bigSweep is a 96-point single-task sweep over bus delays 0..95:
// three times the reorder window at parallelism 8, so pricing must
// wait for emission at every parallelism the tests run.
func bigSweep() *spec.SweepDoc {
	doc := testSweep()
	delays := make([]int, 96)
	for i := range delays {
		delays[i] = i
	}
	doc.Axes.BusDelay = delays
	doc.Axes.MemLatency = []int{50}
	return doc
}

// TestEmitErrorAborts: an emit failure stops the run, is the returned
// error, and no line is emitted after it, on the inline path and with
// workers racing to emit.
func TestEmitErrorAborts(t *testing.T) {
	boom := errors.New("sink full")
	for _, par := range []int{1, 2, 8} {
		var got []Line
		_, err := Run(context.Background(), bigSweep(), Options{Parallelism: par}, func(l Line) error {
			got = append(got, l)
			if len(got) == 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("parallelism %d: err = %v, want emit error", par, err)
		}
		checkStoppedAt(t, par, got, 3)
	}
}

// checkStoppedAt asserts that a stopped run emitted exactly the first
// want lines, in order, none carrying an error.
func checkStoppedAt(t *testing.T, par int, got []Line, want int) {
	t.Helper()
	if len(got) != want {
		t.Errorf("parallelism %d: %d lines emitted, want %d (none after the stop)", par, len(got), want)
	}
	for k, l := range got {
		if l.Index != k {
			t.Errorf("parallelism %d: line %d has index %d", par, k, l.Index)
		}
		if l.Error != "" {
			t.Errorf("parallelism %d: point %d emitted error %q", par, l.Index, l.Error)
		}
	}
}

// TestCancelledContext: cancellation surfaces as the run error.
func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, testSweep(), Options{Parallelism: 2}, func(Line) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCancelStopsEmission: once the context is cancelled, Run emits no
// further line — in particular none carrying the cancellation as a point
// error — and returns context.Canceled, on the inline path and with
// workers racing to emit.
func TestCancelStopsEmission(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var got []Line
		_, err := Run(ctx, bigSweep(), Options{Parallelism: par}, func(l Line) error {
			got = append(got, l)
			if len(got) == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", par, err)
		}
		checkStoppedAt(t, par, got, 3)
	}
}

// TestInvalidDocRejected: Run validates before pricing anything.
func TestInvalidDocRejected(t *testing.T) {
	doc := testSweep()
	doc.Sweep = 99
	called := false
	_, err := Run(context.Background(), doc, Options{}, func(Line) error { called = true; return nil })
	if err == nil || called {
		t.Fatalf("invalid doc: err=%v called=%v", err, called)
	}
}

// TestSharedEngineAcrossRuns: reuse deltas are per-run even on a shared
// engine — the second run's misses are 0, not cumulative.
func TestSharedEngineAcrossRuns(t *testing.T) {
	eng := engine.New(0)
	_, sum1 := ndjson(t, testSweep(), Options{Engine: eng, Parallelism: 1})
	if sum1.PrepareMisses != 1 {
		t.Fatalf("first run misses = %d, want 1", sum1.PrepareMisses)
	}
	_, sum2 := ndjson(t, testSweep(), Options{Engine: eng, Parallelism: 1})
	if sum2.PrepareMisses != 0 || sum2.PrepareHits != 4 {
		t.Fatalf("second run hits/misses = %d/%d, want 4/0", sum2.PrepareHits, sum2.PrepareMisses)
	}
	if sum2.PrepareReuse != 1 {
		t.Fatalf("second run reuse = %v, want 1", sum2.PrepareReuse)
	}
}

// TestSummaryString: the one-line rendering carries the headline
// numbers.
func TestSummaryString(t *testing.T) {
	_, sum := ndjson(t, testSweep(), Options{Parallelism: 1})
	s := sum.String()
	for _, want := range []string{"points=4", "errors=0", "prepareReuse=0.750"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

// countingBackend is a manifest that never hits and counts lookups:
// price calls Get once per started point, so gets is the number of
// points that have begun pricing.
type countingBackend struct{ gets atomic.Int64 }

func (c *countingBackend) Get(string) (any, bool) {
	c.gets.Add(1)
	return nil, false
}
func (c *countingBackend) Put(string, any)         {}
func (c *countingBackend) Stats() cachestore.Stats { return cachestore.Stats{} }
func (c *countingBackend) Close() error            { return nil }

// TestLargeSweepBoundedPending: on a sweep three times the reorder
// window, no point starts pricing more than 4 × workers points ahead of
// emission — when line k is emitted at most k + 4·workers points have
// started — and lines arrive in order. Emitting line 0 stalls until the
// window has filled and a little longer, so a driver that let pricing
// run ahead would overrun the bound there.
func TestLargeSweepBoundedPending(t *testing.T) {
	for _, par := range []int{2, 8} {
		window := int64(4 * par)
		manifest := &countingBackend{}
		next := 0
		sum, err := Run(context.Background(), bigSweep(), Options{Parallelism: par, Manifest: manifest}, func(l Line) error {
			if l.Index != next {
				return fmt.Errorf("line %d out of order (want %d)", l.Index, next)
			}
			if next == 0 {
				deadline := time.Now().Add(10 * time.Second)
				for manifest.gets.Load() < window && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(50 * time.Millisecond)
			}
			if started := manifest.gets.Load(); started > int64(next)+window {
				return fmt.Errorf("line %d emitted with %d points started, want at most %d", next, started, int64(next)+window)
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if sum.Points != 96 || next != 96 || sum.ManifestMisses != 96 {
			t.Fatalf("parallelism %d: saw %d of %d points, summary %+v", par, next, sum.Points, sum)
		}
	}
}

// TestUnknownTaskSetErrorLine: a task set that fails to materialize
// fails every point using it with the line sweep.Run has always
// emitted — the error SweepDoc.Point reports for that point — while the
// other set's points still price. Run's validation rejects unknown set
// names up front, so the per-point path is driven through price, the
// function Run prices each point with.
func TestUnknownTaskSetErrorLine(t *testing.T) {
	doc := testSweep()
	doc.Axes.TaskSets = []string{"crc16", "nope"}
	if _, err := Run(context.Background(), doc, Options{}, func(Line) error { return nil }); err == nil {
		t.Fatal("Run accepted an unknown task set")
	}
	pts := doc.Enumerate()
	eng := engine.New(0)
	for i := 0; i < pts.Points(); i++ {
		l := price(context.Background(), pts, i, eng, nil)
		_, err := doc.Point(i)
		if err == nil {
			if l.Error != "" || l.Report == nil {
				t.Errorf("point %d: line %+v, want a report", i, l)
			}
			continue
		}
		want := Line{Index: i, Error: err.Error()}
		if !strings.Contains(want.Error, "tasks=nope") {
			t.Fatalf("point %d: error %q does not name the set", i, want.Error)
		}
		if !reflect.DeepEqual(l, want) {
			t.Errorf("point %d: line %+v, want %+v", i, l, want)
		}
	}
}
