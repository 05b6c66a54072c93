// Package sweep is the sharded streaming driver for scenario
// product-spaces: it prices every point of a "sweep":1 document
// (spec.SweepDoc) across a bounded worker pool and hands each result to
// an emit callback as one line, without ever materializing the whole
// sweep in memory — points are generated lazily, results stream out as
// they complete, and a token window bounds how far computation may run
// ahead of emission.
//
// Two properties make sweeps cheap at production scale:
//
//   - Differential artefact reuse. All points run through one batch
//     engine, so points sharing a (task, system-prefix) identity — the
//     same core.PrepareKey — reuse one memoized Prepare/Skeleton/
//     Compiled artefact via the engine's clone-sharing contract. A
//     sweep that varies only parameters outside the key (bus delays,
//     memory latencies) prepares each task once, no matter how many
//     points price it. The summary reports the measured reuse ratio.
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

// Run prices every point of the sweep document, calling emit once per
// point in point order, and returns the run summary. A point that fails
// to materialize or analyze produces a line with its error and the
// sweep continues; Run itself fails only on a cancelled context, an
// emit error, or an invalid document. Once ctx is cancelled no further
// line is emitted. Memory is O(parallelism): at most a small window of
// results is in flight or buffered for reordering at any moment.
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
	if workers > n {
		workers = n
	}
	hits0, misses0 := eng.Stats()
	start := time.Now()

	sum := &Summary{Points: n}
	account := func(l Line) {
		if l.Error != "" {
			sum.Errors++
		} else if opt.Manifest != nil {
			if l.fromManifest {
				sum.ManifestHits++
			} else {
				sum.ManifestMisses++
			}
		}
	}
	finish := func() {
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
	}

	if workers <= 1 {
		// Inline path: price and emit in one loop. It stays separate from
		// the pipeline below because at one worker the dispatcher, worker
		// and collector goroutines only add scheduling cost: about 9% more
		// CPU per cold 48-point sweep on a 2-vCPU x86-64 host.
		for i := 0; i < n; i++ {
			l := price(ctx, pts, i, eng, opt.Manifest)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			account(l)
			if err := emit(l); err != nil {
				return nil, err
			}
		}
		finish()
		return sum, nil
	}

	// Pipelined path: a dispatcher feeds point indices in order, workers
	// price them, and this goroutine collects and emits. The token
	// window keeps computation from running more than O(workers) points
	// ahead of emission, which is what bounds the reorder buffer (and
	// with it, sweep memory) regardless of sweep size.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	window := 4 * workers
	tokens := make(chan struct{}, window)
	jobs := make(chan int)
	results := make(chan Line, workers)

	go func() {
		defer close(jobs)
		for i := 0; i < n; i++ {
			select {
			case tokens <- struct{}{}:
			case <-runCtx.Done():
				return
			}
			select {
			case jobs <- i:
			case <-runCtx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results <- price(runCtx, pts, i, eng, opt.Manifest)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			cancel() // stop dispatch; workers drain, results closes
		}
	}
	handle := func(l Line) {
		if firstErr == nil && ctx.Err() != nil {
			fail(ctx.Err())
		}
		if firstErr != nil {
			<-tokens
			return
		}
		account(l)
		if err := emit(l); err != nil {
			fail(err)
		}
		<-tokens
	}
	pending := make(map[int]Line, window)
	next := 0
	for l := range results {
		pending[l.Index] = l
		for {
			buf, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			handle(buf)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	finish()
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
	rep, err := spec.Run(ctx, pt.Scenario, eng)
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
