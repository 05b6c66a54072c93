package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share op;
// parent is the index of the enclosing span, -1 for the op's root.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
}

// tracer keeps the spans and work counters of the traced ops in memory.
// The serve workload records spans from the server's handler goroutine
// while the client goroutine holds the op open, so every method locks.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	stack  []int
	ops    int
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]float64{}}
}

func (t *tracer) now() float64 {
	return float64(time.Since(t.epoch)) / float64(time.Millisecond)
}

// begin opens a span under the innermost open one. Outside an op
// (priming a server, say) it records nothing and returns -1.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	} else if name != opSpan {
		return -1
	}
	if name == opSpan {
		t.ops++
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Op: t.ops})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("span %q closed out of order", t.spans[id].Name))
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func() error) error {
	id := t.begin(name)
	defer t.end(id)
	return f()
}

// add accumulates a work counter; like spans, only inside an op.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stack) > 0 {
		t.counts[name] += v
	}
}

const opSpan = "op"

// Prepare's child layers cannot be timed from outside core.Prepare, so
// the replay times core.Prepare whole and then re-runs each child call on
// the same inputs inside a dupSpan. core.prepare_ms reports Prepare minus
// its children (the remainder); the re-runs are tracing overhead.
const dupSpan = "trace.dup"

var prepareChildren = []string{"cfg.build", "flow.bound", "ipet.skeleton", "pipeline.compile", "cache.l1", "cache.l2"}

// split summarises the traced ops: per-name self times (span minus the
// part its children cover) and total times, in ms summed over all ops,
// plus each op's traced time.
func (t *tracer) split() (self, total map[string]float64, opMs []float64, err error) {
	self, total = map[string]float64{}, map[string]float64{}
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.End < s.Start {
			return nil, nil, nil, fmt.Errorf("span %q of op %d never closed", s.Name, s.Op)
		}
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				return nil, nil, nil, fmt.Errorf("span %q escapes its parent %q", s.Name, p.Name)
			}
		}
	}
	for i := len(t.spans) - 1; i >= 0; i-- {
		if p := t.spans[i].Parent; p >= 0 {
			child[p] += t.spans[i].End - t.spans[i].Start
		}
	}
	var selfSum float64
	for i, s := range t.spans {
		d := s.End - s.Start
		self[s.Name] += d - child[i]
		total[s.Name] += d
		selfSum += d - child[i]
		if s.Parent < 0 {
			opMs = append(opMs, d)
		}
	}
	var opSum float64
	for _, d := range opMs {
		opSum += d
	}
	if math.Abs(selfSum-opSum) > 1e-6*opSum {
		return nil, nil, nil, fmt.Errorf("self times sum to %.6f ms but the traced ops took %.6f ms", selfSum, opSum)
	}
	return self, total, opMs, nil
}

// write stores the spans as NDJSON under the build directory.
func (t *tracer) write(workload string) (string, error) {
	path := filepath.Join(".bench_build", "perfbench", "spans-"+workload+".ndjson")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// timeLayers are the layers reported as self time per op. A layer that
// does not run on a workload reports 0.
var timeLayers = []string{
	"spec.decode", "spec.fingerprint", "spec.point", "spec.encode", "isa.build",
	"cfg.build", "flow.bound", "cache.l1", "cache.l2", "ipet.skeleton", "pipeline.compile",
	"core.price", "engine.key", "engine.clone", "interfere", "partition.lock", "smt", "sim", "explore",
	"cachestore.get", "cachestore.put",
}

// runTraced measures the per-layer split. An untraced stretch first gives
// the untraced op time the tracing overhead is measured against; traced
// replays of the same workload fill the rest of the window.
func runTraced(ctx context.Context, b bench, seconds int) (*result, error) {
	if err := b.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if _, _, err := b.window(ctx, warmup(seconds)); err != nil {
		return nil, err
	}
	window := time.Duration(seconds) * time.Second
	runtime.GC()
	u0 := snapshot()
	lat, failed, err := b.window(ctx, window*3/10)
	if err != nil {
		return nil, err
	}
	u1 := snapshot()
	if len(lat) == 0 {
		return nil, fmt.Errorf("no untraced ops completed")
	}
	untracedMs := median(durationsMs(lat))

	tr := newTracer()
	deadline := time.Now().Add(window * 7 / 10)
	for tr.ops == 0 || time.Now().Before(deadline) {
		if err := b.traced(ctx, tr); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	finFailed, err := b.finish(ctx)
	if err != nil {
		return nil, err
	}
	self, total, opMs, err := tr.split()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	path, err := tr.write(b.name())
	if err != nil {
		return nil, err
	}
	logf("wrote %d spans of %d traced ops to %s", len(tr.spans), tr.ops, path)

	n := float64(len(opMs))
	perOp := func(v float64) float64 { return v / n }
	m := map[string]metric{}
	var layerSum float64
	for _, name := range timeLayers {
		v := self[name]
		m[layerMetric(name)] = metric{perOp(v), "ms"}
		layerSum += v
	}
	var children float64
	for _, c := range prepareChildren {
		children += total[c]
	}
	m["core.prepare_ms"] = metric{perOp(self["core.prepare"] - children), "ms"}
	m["server.analyze_ms"] = metric{perOp(total["server.analyze"]), "ms"}
	other := self[opSpan]
	opSum := 0.0
	for _, d := range opMs {
		opSum += d
	}
	// The split must account for the whole traced op: the layers (the
	// re-run children among them), Prepare's remainder, the re-runs'
	// duplicate of the children, the analyze wrapper's own time and the
	// op's own time. A span name missing from the split shows up here.
	accounted := layerSum + (self["core.prepare"] - children) + total[dupSpan] + self["server.analyze"] + other
	if math.Abs(accounted-opSum) > 1e-6*opSum {
		return nil, fmt.Errorf("trace: layers account for %.6f ms of %.6f ms traced", accounted, opSum)
	}
	tracedMs := median(opMs)
	m["trace.other_ms"] = metric{perOp(other), "ms"}
	m["trace.dup_ms"] = metric{perOp(total[dupSpan]), "ms"}
	m["trace.ops"] = metric{n, "count"}
	m["trace.op_ms"] = metric{tracedMs, "ms"}
	m["trace.untraced_op_ms"] = metric{untracedMs, "ms"}
	m["trace.overhead_ms"] = metric{tracedMs - untracedMs, "ms"}

	c := tr.counts
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["ilp.pivots"] = metric{perOp(c["ilp.pivots"]), "count"}
	m["ilp.nodes"] = metric{perOp(c["ilp.nodes"]), "count"}
	m["ilp.fellback"] = metric{perOp(c["ilp.fellback"]), "count"}
	m["ilp.solves"] = metric{perOp(c["ilp.solves"]), "count"}
	m["engine.memo_lookups"] = metric{perOp(c["engine.lookups"]), "count"}
	m["engine.memo_hit_ratio"] = metric{ratio(c["engine.hits"], c["engine.lookups"]), "1"}
	m["engine.prepare_misses"] = metric{perOp(c["engine.lookups"] - c["engine.hits"]), "count"}
	m["sim.mcycles"] = metric{perOp(c["sim.cycles"]) / 1e6, "Mcycles"}
	m["sim.mcycles_per_s"] = metric{ratio(c["sim.cycles"]/1e6, total["sim"]/1000), "Mcycles/s"}
	m["explore.states"] = metric{perOp(c["explore.states"]), "count"}
	m["explore.states_per_s"] = metric{ratio(c["explore.states"], total["explore"]/1000), "1/s"}
	m["cachestore.lookups"] = metric{perOp(c["cachestore.lookups"]), "count"}
	m["cachestore.hit_ratio"] = metric{ratio(c["cachestore.hits"], c["cachestore.lookups"]), "1"}
	m["server.pre_ms"] = metric{ratio(c["server.pre_ms"], c["server.analyzed"]), "ms"}
	m["server.post_ms"] = metric{ratio(c["server.post_ms"], c["server.analyzed"]), "ms"}

	ops := float64(len(lat))
	m["runtime.cpu_ms_per_op"] = metric{float64(u1.cpu-u0.cpu) / float64(time.Millisecond) / ops, "ms"}
	m["runtime.gc_cpu_frac"] = metric{ratio(u1.gcCPU-u0.gcCPU, u1.totalCPU-u0.totalCPU), "1"}
	m["runtime.gc_cycles_per_op"] = metric{float64(u1.gcCycles-u0.gcCycles) / ops, "count"}
	m["error_frac"] = metric{float64(failed+finFailed) / ops, "1"}
	if ex, ok := b.(interface{ layerMetrics(map[string]metric) }); ok {
		ex.layerMetrics(m)
	}
	// Every workload reports every per-layer metric; a layer that does
	// not run on it reads 0.
	out := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		v, ok := m[l.name]
		if ok && v.Unit != l.unit {
			return nil, fmt.Errorf("metric %s has unit %s, want %s", l.name, v.Unit, l.unit)
		}
		out[l.name] = metric{v.Value, l.unit}
		delete(m, l.name)
	}
	for name := range m {
		return nil, fmt.Errorf("metric %s is missing from the per-layer list", name)
	}
	return &result{
		Correct:   failed == 0 && finFailed == 0,
		Attempted: len(lat),
		Failed:    failed + finFailed,
		Metrics:   out,
	}, nil
}

// layerMetric names a layer's time metric: "cfg.build" reports as
// cfg.build_ms, a one-word layer such as "sim" as sim.ms.
func layerMetric(layer string) string {
	if strings.Contains(layer, ".") {
		return layer + "_ms"
	}
	return layer + ".ms"
}

type layerDef struct{ name, unit string }

// perLayer is the per-layer metric list BENCHMARK.json declares. Ratios
// come with their base: memo_hit_ratio with memo_lookups, hit_ratio with
// lookups, prepare_reuse with prepare_lookups, the per-second rates with
// the work they divide, gc_cpu_frac with cpu_ms_per_op.
var perLayer = []layerDef{
	{"spec.decode_ms", "ms"}, {"spec.fingerprint_ms", "ms"}, {"spec.point_ms", "ms"}, {"spec.encode_ms", "ms"},
	{"isa.build_ms", "ms"}, {"cfg.build_ms", "ms"}, {"flow.bound_ms", "ms"},
	{"cache.l1_ms", "ms"}, {"cache.l2_ms", "ms"}, {"ipet.skeleton_ms", "ms"}, {"pipeline.compile_ms", "ms"},
	{"core.prepare_ms", "ms"}, {"core.price_ms", "ms"},
	{"ilp.pivots", "count"}, {"ilp.nodes", "count"}, {"ilp.fellback", "count"}, {"ilp.solves", "count"},
	{"engine.key_ms", "ms"}, {"engine.clone_ms", "ms"},
	{"engine.memo_hit_ratio", "1"}, {"engine.memo_lookups", "count"}, {"engine.prepare_misses", "count"},
	{"interfere.ms", "ms"}, {"partition.lock_ms", "ms"}, {"smt.ms", "ms"},
	{"sim.ms", "ms"}, {"sim.mcycles", "Mcycles"}, {"sim.mcycles_per_s", "Mcycles/s"},
	{"explore.ms", "ms"}, {"explore.states", "count"}, {"explore.states_per_s", "1/s"},
	{"sweep.prepare_reuse", "1"}, {"sweep.prepare_lookups", "count"},
	{"server.analyze_ms", "ms"}, {"server.pre_ms", "ms"}, {"server.post_ms", "ms"},
	{"cachestore.get_ms", "ms"}, {"cachestore.put_ms", "ms"}, {"cachestore.hit_ratio", "1"}, {"cachestore.lookups", "count"},
	{"runtime.cpu_ms_per_op", "ms"}, {"runtime.gc_cpu_frac", "1"}, {"runtime.gc_cycles_per_op", "count"},
	{"loadgen.late_p90_ms", "ms"}, {"error_frac", "1"},
	{"trace.op_ms", "ms"}, {"trace.untraced_op_ms", "ms"}, {"trace.overhead_ms", "ms"},
	{"trace.dup_ms", "ms"}, {"trace.other_ms", "ms"}, {"trace.ops", "count"},
}
