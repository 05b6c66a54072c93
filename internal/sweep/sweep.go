// Package sweep is the sharded streaming driver for scenario
// product-spaces: it prices every point of a "sweep":1 document
// (spec.SweepDoc) across a bounded worker pool and hands each result to
// an emit callback as one line, without ever materializing the whole
// sweep in memory — points are generated lazily, results stream out as
// they complete, and a window of 4 × parallelism points bounds how far
// computation may run ahead of emission.
//
// Two properties make sweeps cheap at production scale:
//
//   - Differential artefact reuse. All points run through one batch
//     engine, so points sharing a (task, system-prefix) identity — the
//     same core.PrepareKey — reuse one memoized Prepare/Skeleton/
//     Compiled artefact: a point's analysis prices a shallow copy of
//     the memo entry and shares its classification state read-only
//     (engine.AnalyzeAll). A sweep that varies only parameters outside
//     the key (bus delays, memory latencies) prepares each task once,
//     no matter how many points price it. Each task set is also built,
//     and its programs fingerprinted for the key, once per run
//     (spec.SweepPoints.Run), so a point does only its own pricing.
//     The summary reports the measured reuse ratio.
//
//   - Incremental re-analysis. When a manifest backend is configured,
//     each point's report is persisted under its scenario content
//     fingerprint; a re-run — after editing one axis value or one
//     task — answers every fingerprint-clean point from the manifest
//     and recomputes only the dirty subset. Analysis is deterministic,
//     so a manifest hit is byte-identical to recomputation.
//
// Lines are emitted in point order, making the output stream a pure
// function of the document (byte-identical at any worker count).
package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"paratime/internal/cachestore"
	"paratime/internal/engine"
	"paratime/internal/parallel"
	"paratime/internal/spec"
)

// manifestVersion versions the persisted per-point report format;
// bumping it invalidates (by key) manifest entries recorded by older
// builds.
const manifestVersion = 1

// manifestKey derives the manifest key of one point from its scenario
// content fingerprint. Point identity (index, coordinate ID) is
// deliberately absent: the persisted result depends only on what is
// analyzed, so reordering or extending axes never dirties untouched
// points.
func manifestKey(fingerprint string) string {
	return fmt.Sprintf("sweepres%d|%s", manifestVersion, fingerprint)
}

// Options parameterizes one sweep run.
type Options struct {
	// Engine prices the points; nil builds a private engine. Sharing one
	// engine across points is what makes artefact reuse work, so the
	// driver always runs every point through this single engine.
	Engine *engine.Engine
	// Parallelism bounds concurrently priced points; <= 0 selects the
	// process default (parallel.Default). Results are identical at any
	// value.
	Parallelism int
	// Manifest persists each point's report under its scenario
	// fingerprint for incremental re-runs; nil disables reuse.
	Manifest cachestore.CacheBackend
}

// Line is one streamed per-point result. Its content is a pure function
// of the point's scenario: cache provenance and timing live in the
// Summary, never in the line, so cached and recomputed runs emit
// identical bytes.
type Line struct {
	// Index is the point's rank in enumeration order.
	Index int `json:"index"`
	// ID is the point's deterministic coordinate identity.
	ID string `json:"id"`
	// Coords maps each active axis to this point's value label.
	Coords map[string]string `json:"coords,omitempty"`
	// Fingerprint is the scenario's content address (the manifest key
	// modulo version prefix).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Report is the analysis result; nil when the point failed.
	Report *spec.Report `json:"report,omitempty"`
	// Error is the point's failure, when it has one. Point failures do
	// not abort the sweep: every point gets exactly one line.
	Error string `json:"error,omitempty"`

	// fromManifest marks a line answered from the manifest (summary
	// accounting only — deliberately not serialized).
	fromManifest bool
}

// Summary aggregates one sweep run.
type Summary struct {
	Points int `json:"points"`
	Errors int `json:"errors"`
	// ManifestHits/ManifestMisses count points answered from /
	// recomputed into the manifest (misses stay 0 when no manifest is
	// configured).
	ManifestHits   int `json:"manifestHits"`
	ManifestMisses int `json:"manifestMisses"`
	// PrepareHits/PrepareMisses are the engine memo's deltas across this
	// sweep; PrepareReuse = hits/(hits+misses) (the engine's reuse
	// ratio restricted to this run).
	PrepareHits   uint64  `json:"prepareHits"`
	PrepareMisses uint64  `json:"prepareMisses"`
	PrepareReuse  float64 `json:"prepareReuse"`
	// Elapsed is the wall-clock run time; PointsPerSec the end-to-end
	// throughput including manifest hits.
	Elapsed      time.Duration `json:"elapsed"`
	PointsPerSec float64       `json:"pointsPerSec"`
}

// String renders the summary as the one-line form the CLI prints.
func (s *Summary) String() string {
	return fmt.Sprintf(
		"sweep: points=%d errors=%d manifestHits=%d manifestMisses=%d prepareHits=%d prepareMisses=%d prepareReuse=%.3f pointsPerSec=%.1f elapsed=%s",
		s.Points, s.Errors, s.ManifestHits, s.ManifestMisses,
		s.PrepareHits, s.PrepareMisses, s.PrepareReuse, s.PointsPerSec, s.Elapsed.Round(time.Millisecond))
}

// Run prices every point of the sweep document and returns the run
// summary. A point that fails to materialize or analyze produces a line
// with its error and the sweep continues; Run itself fails only on a
// cancelled context, an emit error, or an invalid document.
//
// emit is called once per point, in point order, and never
// concurrently, though possibly from a worker goroutine rather than the
// caller's; a sink that is not safe for concurrent use needs no lock of
// its own. Once ctx is cancelled, or after emit fails, no further line
// is emitted. Memory is O(parallelism): a point starts pricing only
// while it is fewer than 4 × workers points ahead of the next line to
// emit, so at most that many results are in flight or buffered for
// reordering at any moment.
func Run(ctx context.Context, doc *spec.SweepDoc, opt Options, emit func(Line) error) (*Summary, error) {
	// One enumerator per run: each task set is materialized, and its
	// fingerprint head hashed, once and shared by every point that uses
	// it, starting with the set that validation materializes.
	pts := doc.Enumerate()
	if err := pts.Validate(); err != nil {
		return nil, err
	}
	eng := opt.Engine
	if eng == nil {
		eng = engine.New(0)
	}
	workers := parallel.Resolve(opt.Parallelism)
	n := pts.Points()
	hits0, misses0 := eng.Stats()
	start := time.Now()

	// Each index prices its point and buffers the line in pending.
	// Whichever worker finds the next line buffered becomes the one
	// emitter and drains the consecutive run of buffered lines, calling
	// emit outside the lock. The point at next never waits for the
	// window, so the run always progresses; at one worker For runs
	// inline and each point is priced and emitted in turn.
	sum := &Summary{Points: n}
	window := 4 * workers
	var (
		mu       sync.Mutex
		advanced = sync.NewCond(&mu) // next moved or stop was set
		pending  = map[int]Line{}
		next     int
		emitting bool
		stop     error // first emit or context error; sticky
	)
	err := parallel.For(ctx, workers, n, func(i int) error {
		mu.Lock()
		defer mu.Unlock()
		for stop == nil && i >= next+window {
			advanced.Wait()
		}
		if stop != nil {
			return stop
		}
		mu.Unlock()
		line := price(ctx, pts, i, eng, opt.Manifest)
		mu.Lock()
		pending[i] = line
		if emitting {
			return stop
		}
		emitting = true
		for stop == nil {
			l, ok := pending[next]
			if !ok {
				break
			}
			if stop = ctx.Err(); stop == nil {
				delete(pending, next)
				if l.Error != "" {
					sum.Errors++
				} else if l.fromManifest {
					sum.ManifestHits++
				} else if opt.Manifest != nil {
					sum.ManifestMisses++
				}
				mu.Unlock()
				err := emit(l)
				mu.Lock()
				stop = err
				next++
			}
			advanced.Broadcast()
		}
		emitting = false
		return stop
	})
	if err != nil {
		return nil, err
	}
	hits1, misses1 := eng.Stats()
	sum.PrepareHits = hits1 - hits0
	sum.PrepareMisses = misses1 - misses0
	if total := sum.PrepareHits + sum.PrepareMisses; total > 0 {
		sum.PrepareReuse = float64(sum.PrepareHits) / float64(total)
	}
	sum.Elapsed = time.Since(start)
	if secs := sum.Elapsed.Seconds(); secs > 0 {
		sum.PointsPerSec = float64(n) / secs
	}
	return sum, nil
}

// price materializes and analyzes one point: manifest lookup by
// scenario fingerprint first, full analysis through the shared engine
// on a miss, manifest fill afterwards. All failure modes land in the
// line's Error field; a cancelled context yields a line too, which Run
// discards: it emits nothing once ctx is cancelled.
//
//paralint:canonical manifest payloads are canonical Report encodings keyed by scenario fingerprint; byte-compared on reuse
func price(ctx context.Context, pts *spec.SweepPoints, idx int, eng *engine.Engine, manifest cachestore.CacheBackend) Line {
	pt, err := pts.Point(idx)
	if err != nil {
		return Line{Index: idx, Error: err.Error()}
	}
	line := Line{Index: idx, ID: pt.ID, Coords: pt.Coords}
	fp, err := pts.Fingerprint(pt)
	if err != nil {
		line.Error = err.Error()
		return line
	}
	line.Fingerprint = fp
	if manifest != nil {
		if v, ok := manifest.Get(manifestKey(fp)); ok {
			if payload, ok := v.([]byte); ok {
				var rep spec.Report
				// A payload that no longer decodes is treated as a miss
				// and recomputed; determinism makes that always safe.
				if json.Unmarshal(payload, &rep) == nil {
					line.Report = &rep
					line.fromManifest = true
					return line
				}
			}
		}
	}
	rep, err := pts.Run(ctx, pt, eng)
	if err != nil {
		line.Error = err.Error()
		return line
	}
	line.Report = rep
	if manifest != nil {
		if payload, err := json.Marshal(rep); err == nil {
			manifest.Put(manifestKey(fp), payload)
		}
	}
	return line
}
