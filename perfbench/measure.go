package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// setupReps is how many timed batches of set-ups a run makes; setup_s is
// their median, which keeps one descheduled batch from moving it.
const setupReps = 25

// minOps is the fewest timed ops a run accepts: latency_p90_ms needs at
// least ten samples beyond it.
const minOps = 100

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one workload prepared from its seed. setup builds the state
// ops run against; finish runs the checks that need the whole run.
type bench interface {
	name() string
	setup() error
	// window runs untraced ops for d and returns their latencies (program
	// time only, checks excluded) and how many failed their checks.
	// Closed-loop workloads run ops back to back; serve runs its open
	// loop.
	window(ctx context.Context, d time.Duration) (lat []time.Duration, failed int, err error)
	// traced runs one op through the traced replay.
	traced(ctx context.Context, tr *tracer) error
	finish(ctx context.Context) (failed int, err error)
}

// closedLoop runs op back to back until d has passed.
func closedLoop(d time.Duration, op func() (time.Duration, error)) (lat []time.Duration, failed int, err error) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		l, opErr := op()
		if opErr != nil {
			if failed == 0 {
				logf("op failed: %v", opErr)
			}
			failed++
		}
		lat = append(lat, l)
	}
	return lat, failed, nil
}

// usage is a snapshot of the process counters a window is measured by.
type usage struct {
	wall     time.Time
	cpu      time.Duration
	alloc    uint64
	gcCPU    float64
	totalCPU float64
	gcCycles uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := slices.Clone(runtimeSamples)
	metrics.Read(s)
	return usage{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		gcCycles: s[3].Value.Uint64(),
	}
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// setupBatch is the shortest timed batch of set-ups: a single set-up of
// a tenth of a millisecond times too noisily on a shared host for even a
// median of them to repeat from run to run.
const setupBatch = 20 * time.Millisecond

// timedSetup returns the median over setupReps batches of the mean time
// of one set-up, each batch repeating set-up until setupBatch has passed.
// A workload whose set-up holds resources (serve's server) runs one
// set-up per batch and releases the previous one outside the timed part.
func timedSetup(b bench) (float64, error) {
	r, holds := b.(interface{ release() })
	times := make([]float64, setupReps)
	for i := range times {
		if holds {
			r.release()
		}
		runtime.GC() // every batch starts from the same heap
		start := time.Now()
		n := 0
		for {
			if err := b.setup(); err != nil {
				return 0, fmt.Errorf("set-up: %w", err)
			}
			n++
			if holds || time.Since(start) >= setupBatch {
				break
			}
		}
		times[i] = time.Since(start).Seconds() / float64(n)
	}
	return median(times), nil
}

// The timed window is cut into equal stretches and the end-to-end
// metrics come from the quietest one, the stretch with the lowest median
// latency. On a shared host, contention from other tenants comes in
// bursts of seconds and only ever slows ops down, so the quietest stretch
// is the figure that repeats from run to run. The warm-up's op rate sizes
// the stretches to hold about stretchOps ops each, at most maxStretches
// of them; a stretch that still ends up under minOps ops is merged with
// its neighbour.
const (
	maxStretches = 6
	stretchOps   = 150
)

// stretch is one measured part of the timed window.
type stretch struct {
	lat    []time.Duration
	failed int
	u0, u1 usage
}

func (s stretch) merge(t stretch) stretch {
	return stretch{lat: append(s.lat, t.lat...), failed: s.failed + t.failed, u0: s.u0, u1: t.u1}
}

// runTimed measures the end-to-end metrics with tracing off.
func runTimed(ctx context.Context, b bench, seconds int) (*result, error) {
	setupS, err := timedSetup(b)
	if err != nil {
		return nil, err
	}
	// Warm-up: one short window lets lazy initialisation and the heap
	// size settle before timing, and gives the op rate.
	warm, _, err := b.window(ctx, warmup(seconds))
	if err != nil {
		return nil, err
	}
	expected := float64(len(warm)) / warmup(seconds).Seconds() * float64(seconds)
	k := max(1, min(maxStretches, int(expected/stretchOps)))
	d := time.Duration(seconds) * time.Second / time.Duration(k)
	var parts []stretch
	attempted, failed := 0, 0
	runtime.GC()
	for range k {
		var s stretch
		s.u0 = snapshot()
		gen0 := loadgenCPU(b)
		s.lat, s.failed, err = b.window(ctx, d)
		if err != nil {
			return nil, err
		}
		s.u1 = snapshot()
		s.u1.cpu -= loadgenCPU(b) - gen0
		attempted += len(s.lat)
		failed += s.failed
		if n := len(parts); n > 0 && len(parts[n-1].lat) < minOps {
			parts[n-1] = parts[n-1].merge(s)
		} else {
			parts = append(parts, s)
		}
	}
	if n := len(parts); n > 1 && len(parts[n-1].lat) < minOps {
		parts = append(parts[:n-2], parts[n-2].merge(parts[n-1]))
	}
	if len(parts[0].lat) < minOps {
		return nil, fmt.Errorf("only %d ops in %ds; the run needs at least %d", attempted, seconds, minOps)
	}
	finFailed, err := b.finish(ctx)
	if err != nil {
		return nil, err
	}
	q := parts[0]
	for _, s := range parts[1:] {
		if median(durationsMs(s.lat)) < median(durationsMs(q.lat)) {
			q = s
		}
	}
	ms := durationsMs(q.lat)
	n := float64(len(q.lat))
	return &result{
		Correct:   failed == 0 && finFailed == 0,
		Attempted: attempted,
		Failed:    failed + finFailed,
		Metrics: map[string]metric{
			"setup_s":          {setupS, "s"},
			"ops_per_s":        {n / q.u1.wall.Sub(q.u0.wall).Seconds(), "1/s"},
			"latency_p50_ms":   {quantile(ms, 0.5), "ms"},
			"latency_p90_ms":   {quantile(ms, 0.9), "ms"},
			"cpu_ms_per_op":    {float64(q.u1.cpu-q.u0.cpu) / float64(time.Millisecond) / n, "ms"},
			"alloc_mib_per_op": {float64(q.u1.alloc-q.u0.alloc) / (1 << 20) / n, "MiB"},
			"peak_rss_mib":     {peakRSSMiB(), "MiB"},
		},
	}, nil
}

// loadgenCPU is the CPU time an open-loop workload's load generator has
// used so far; closed-loop workloads have none.
func loadgenCPU(b bench) time.Duration {
	if g, ok := b.(interface{ loadgenCPU() time.Duration }); ok {
		return g.loadgenCPU()
	}
	return 0
}

func warmup(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second / 10
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
