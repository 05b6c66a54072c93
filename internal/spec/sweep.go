// Sweep documents ("sweep": 1) describe scenario product-spaces
// declaratively: one base Scenario plus per-field axes (task sets by
// name, L2 geometries, fixed bus delays, memory latencies, bus
// arbiters, partition splits). The cross-product is enumerated lazily —
// Point(i) materializes exactly one concrete Scenario — so a sweep of a
// million points never exists in memory as a whole, and every point has
// a deterministic coordinate-derived ID: the same document always
// yields the same points in the same order, and editing one axis value
// only changes the points that use it. A run that prices many points
// enumerates them through one SweepPoints, which materializes each task
// set once and shares it among the points that use it.
package spec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"paratime/internal/core"
	"paratime/internal/engine"
	"paratime/internal/workload"
)

// SweepVersion is the sweep schema version this package encodes and
// decodes.
const SweepVersion = 1

// Sweep bounds enforced by Validate.
const (
	maxSweepAxisValues = 4096
	maxSweepPoints     = 1 << 20
)

// SweepDoc is one declarative scenario product-space: a base Scenario
// and the axes along which it varies. Every combination of one value
// per non-empty axis is a point; a document with no axes has exactly
// one point, the base itself.
type SweepDoc struct {
	// Sweep is the schema version; EncodeSweep writes SweepVersion and
	// DecodeSweep rejects anything else.
	Sweep int `json:"sweep"`
	// Name labels the sweep in diagnostics and summaries.
	Name string `json:"name,omitempty"`
	// Base is the scenario every point starts from. When the taskSets
	// axis is present the base carries no tasks (each point's tasks come
	// from its task set); otherwise it must be a complete valid
	// scenario.
	Base Scenario `json:"base"`
	// Axes are the varied dimensions.
	Axes SweepAxes `json:"axes"`
}

// SweepAxes lists the varied dimensions of a sweep. Axis order is
// fixed — taskSets, l2, busDelay, memLatency, bus, partition — and
// enumeration is row-major with the later axes varying fastest.
// Entries within one axis must be distinct.
type SweepAxes struct {
	// TaskSets names workload task sets (see workload.SetNames: "suite",
	// a single benchmark like "fib24", or "+"-joined combinations). Each
	// point's tasks are the set materialized at canonical disjoint
	// bases.
	TaskSets []string `json:"taskSets,omitempty"`
	// L2 enumerates shared-L2 geometries replacing system.l2.
	L2 []CacheSpec `json:"l2,omitempty"`
	// BusDelay enumerates fixed per-transaction arbitration bounds
	// replacing system.busDelay (not in mode "bus", which derives
	// per-core bounds from the arbiter).
	BusDelay []int `json:"busDelay,omitempty"`
	// MemLatency enumerates worst-case memory bounds replacing
	// system.memLatency.
	MemLatency []int `json:"memLatency,omitempty"`
	// Bus enumerates arbiter configurations replacing mode.bus
	// (mode "bus" only).
	Bus []BusSpec `json:"bus,omitempty"`
	// Partition enumerates partition splits replacing mode.partition
	// (mode "partition" only).
	Partition []PartitionSpec `json:"partition,omitempty"`
}

// sweepAxis is one active dimension of the enumeration: a size, a
// stable label per value, and an apply step writing value v into a
// point's scenario.
type sweepAxis struct {
	name  string
	size  int
	label func(v int) string
	apply func(s *Scenario, v int) error
}

// SweepPoints enumerates the points of one SweepDoc for one run. It
// builds the axes once and materializes each taskSets value at most
// once, on first use; every point of that set shares the same read-only
// []TaskSpec. The set's fingerprint head is hashed once, and Run builds
// and keys its []core.Task once, too. It is safe for concurrent use.
// Its caches go stale if the document is edited, so callers create one
// per run.
type SweepPoints struct {
	doc  *SweepDoc
	axes []sweepAxis
	n    int
	// sets holds one entry per taskSets value, or a single entry for
	// the base tasks when the document has no taskSets axis.
	sets []taskSet
}

// taskSet is one lazily materialized taskSets value, its built and
// Keyed tasks, and the sha256 midstate of its points' shared
// {spec,name,tasks} encoding prefix.
type taskSet struct {
	once sync.Once
	// set is what workload.Set built for a taskSets value (nil for the
	// base tasks); specs is its spec form, for fingerprints and reports.
	set   []core.Task
	specs []TaskSpec
	err   error

	buildOnce sync.Once
	tasks     []core.Task
	buildErr  error

	headOnce sync.Once
	head     []byte
	headErr  error
}

// Enumerate returns a fresh enumerator over the document's points.
func (d *SweepDoc) Enumerate() *SweepPoints {
	e := &SweepPoints{doc: d, n: 1, sets: make([]taskSet, max(1, len(d.Axes.TaskSets)))}
	e.axes = d.axes(e.sets)
	for _, ax := range e.axes {
		e.n *= ax.size
	}
	return e
}

// taskSpecs returns the materialized task set named name, building it
// on the first call.
func (ts *taskSet) taskSpecs(name string) ([]TaskSpec, error) {
	ts.once.Do(func() {
		if ts.set, ts.err = workload.Set(name); ts.err == nil {
			ts.specs, ts.err = TasksToSpec(ts.set)
		}
	})
	return ts.specs, ts.err
}

// axes returns the active dimensions in canonical order, drawing task
// sets from sets (one entry per taskSets value). Inactive (empty) axes
// contribute nothing; the base value stays in effect.
func (d *SweepDoc) axes(sets []taskSet) []sweepAxis {
	var out []sweepAxis
	if n := len(d.Axes.TaskSets); n > 0 {
		out = append(out, sweepAxis{
			name: "tasks", size: n,
			label: func(v int) string { return d.Axes.TaskSets[v] },
			apply: func(s *Scenario, v int) error {
				specs, err := sets[v].taskSpecs(d.Axes.TaskSets[v])
				if err != nil {
					return err
				}
				s.Tasks = specs
				return nil
			},
		})
	}
	if n := len(d.Axes.L2); n > 0 {
		out = append(out, sweepAxis{
			name: "l2", size: n,
			label: strconv.Itoa,
			apply: func(s *Scenario, v int) error {
				l2 := d.Axes.L2[v]
				s.System.L2 = &l2
				return nil
			},
		})
	}
	if n := len(d.Axes.BusDelay); n > 0 {
		out = append(out, sweepAxis{
			name: "busDelay", size: n,
			label: func(v int) string { return strconv.Itoa(d.Axes.BusDelay[v]) },
			apply: func(s *Scenario, v int) error {
				s.System.BusDelay = d.Axes.BusDelay[v]
				return nil
			},
		})
	}
	if n := len(d.Axes.MemLatency); n > 0 {
		out = append(out, sweepAxis{
			name: "memLatency", size: n,
			label: func(v int) string { return strconv.Itoa(d.Axes.MemLatency[v]) },
			apply: func(s *Scenario, v int) error {
				s.System.MemLatency = d.Axes.MemLatency[v]
				return nil
			},
		})
	}
	if n := len(d.Axes.Bus); n > 0 {
		out = append(out, sweepAxis{
			name: "bus", size: n,
			label: strconv.Itoa,
			apply: func(s *Scenario, v int) error {
				bus := d.Axes.Bus[v]
				s.Mode.Bus = &bus
				return nil
			},
		})
	}
	if n := len(d.Axes.Partition); n > 0 {
		out = append(out, sweepAxis{
			name: "partition", size: n,
			label: strconv.Itoa,
			apply: func(s *Scenario, v int) error {
				p := d.Axes.Partition[v]
				s.Mode.Partition = &p
				return nil
			},
		})
	}
	return out
}

// Points returns the number of enumerated points: the product of the
// active axis sizes, or 1 for a document with no axes.
func (d *SweepDoc) Points() int { return d.Enumerate().Points() }

// Points returns the number of enumerated points.
func (e *SweepPoints) Points() int { return e.n }

// SweepPoint is one materialized point of the product space.
type SweepPoint struct {
	// Index is the point's row-major rank in enumeration order.
	Index int
	// ID is the deterministic coordinate identity, e.g.
	// "tasks=suite,l2=1,busDelay=25" ("base" for an axis-free sweep).
	// IDs are stable under edits to other axis values.
	ID string
	// Coords maps each active axis to the point's value label.
	Coords map[string]string
	// Scenario is the concrete, validated scenario. Its name is the
	// base scenario's name for every point (point identity lives in ID),
	// so the content fingerprint — and therefore any persisted result —
	// depends only on what is actually analyzed. It is read-only: its
	// payload slices are shared with the document and, for points
	// enumerated by one SweepPoints, its Tasks with every other point of
	// the same task set.
	Scenario *Scenario
}

// Point materializes point i of the enumeration through a fresh
// enumerator: the base scenario with each active axis's coordinate value
// applied, validated. Callers pricing many points should Enumerate once
// and call SweepPoints.Point instead, so each task set is materialized
// once rather than once per point.
func (d *SweepDoc) Point(i int) (*SweepPoint, error) { return d.Enumerate().Point(i) }

// Point materializes point i: the base scenario with each active axis's
// coordinate value applied, validated. Points may be materialized
// concurrently; the returned scenario is read-only (see SweepPoint).
func (e *SweepPoints) Point(i int) (*SweepPoint, error) {
	if i < 0 || i >= e.n {
		return nil, fmt.Errorf("spec: sweep point %d outside [0,%d)", i, e.n)
	}
	// Row-major decomposition, last axis fastest.
	coord := make([]int, len(e.axes))
	rem := i
	for a := len(e.axes) - 1; a >= 0; a-- {
		coord[a] = rem % e.axes[a].size
		rem /= e.axes[a].size
	}
	s := e.doc.Base // value copy; apply steps replace fields, never mutate in place
	pt := &SweepPoint{Index: i, Coords: make(map[string]string, len(e.axes))}
	var id []string
	for a, ax := range e.axes {
		label := ax.label(coord[a])
		pt.Coords[ax.name] = label
		id = append(id, ax.name+"="+label)
		if err := ax.apply(&s, coord[a]); err != nil {
			return nil, fmt.Errorf("spec: sweep point %d (%s): %w", i, strings.Join(id, ","), err)
		}
	}
	pt.ID = "base"
	if len(id) > 0 {
		pt.ID = strings.Join(id, ",")
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("spec: sweep point %d (%s): %w", i, pt.ID, err)
	}
	pt.Scenario = &s
	return pt, nil
}

// setOf returns the task set of a point that e.Point returned, and
// fails for a point that some other enumerator returned.
func (e *SweepPoints) setOf(pt *SweepPoint) (*taskSet, error) {
	if pt.Index < 0 || pt.Index >= e.n {
		return nil, fmt.Errorf("spec: sweep point %d outside [0,%d)", pt.Index, e.n)
	}
	ts, specs := &e.sets[0], e.doc.Base.Tasks
	if len(e.doc.Axes.TaskSets) > 0 {
		v := pt.Index / (e.n / len(e.sets)) // the taskSets axis varies slowest
		ts = &e.sets[v]
		var err error
		if specs, err = ts.taskSpecs(e.doc.Axes.TaskSets[v]); err != nil {
			return nil, err
		}
	}
	if got := pt.Scenario.Tasks; len(got) != len(specs) || len(got) > 0 && &got[0] != &specs[0] {
		return nil, fmt.Errorf("spec: sweep point %d (%s) was not enumerated by this SweepPoints", pt.Index, pt.ID)
	}
	return ts, nil
}

// Fingerprint returns pt.Scenario.Fingerprint() for a point that e.Point
// returned (and so validated). All points of one task set share the
// canonical encoding's {spec,name,tasks} prefix, so e hashes it once per
// set and keeps the sha256 midstate; each call restores it and hashes
// only the point's {system,mode,sim,explore} suffix.
func (e *SweepPoints) Fingerprint(pt *SweepPoint) (string, error) {
	ts, err := e.setOf(pt)
	if err != nil {
		return "", err
	}
	ts.headOnce.Do(func() {
		h := sha256.New()
		if ts.headErr = pt.Scenario.encodeHead(h); ts.headErr == nil {
			ts.head, ts.headErr = h.(encoding.BinaryMarshaler).MarshalBinary()
		}
	})
	if ts.headErr != nil {
		return "", ts.headErr
	}
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(ts.head); err != nil {
		return "", err
	}
	return pt.Scenario.fingerprintTail(h)
}

// Run returns Run(ctx, pt.Scenario, eng) for a point that e.Point
// returned, without validating the point again (Point did) or
// rebuilding its tasks: e keys each task set's tasks once (core.Keyed)
// and hands every point of the set the same read-only []core.Task, so
// the engine sees the same programs at every point. A taskSets value
// keys the tasks workload.Set built, which build and key exactly as
// their specs would; the base tasks are built from their specs.
func (e *SweepPoints) Run(ctx context.Context, pt *SweepPoint, eng *engine.Engine) (*Report, error) {
	ts, err := e.setOf(pt)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ts.buildOnce.Do(func() {
		tasks := ts.set
		if tasks == nil {
			if tasks, ts.buildErr = buildTasks(pt.Scenario.Tasks); ts.buildErr != nil {
				return
			}
		}
		for i := range tasks {
			tasks[i] = core.Keyed(tasks[i])
		}
		ts.tasks = tasks
	})
	if ts.buildErr != nil {
		return nil, ts.buildErr
	}
	return run(ctx, pt.Scenario, eng, ts.tasks)
}

// Validate checks the sweep document: schema versions, axis bounds and
// duplicates, axis/mode compatibility, resolvable task-set names, and —
// as a cheap early smoke of the base — that point 0 materializes into a
// valid scenario. Remaining points are validated as they are
// materialized. It checks through a fresh enumerator; see
// SweepPoints.Validate.
func (d *SweepDoc) Validate() error { return d.Enumerate().Validate() }

// Validate is SweepDoc.Validate through e, so the task set that point 0
// materializes stays cached for the run that prices e's points.
func (e *SweepPoints) Validate() error {
	d := e.doc
	if d.Sweep != SweepVersion {
		return fmt.Errorf("spec: unsupported sweep schema version %d (this build supports \"sweep\": %d)", d.Sweep, SweepVersion)
	}
	if d.Base.Spec != Version {
		return fmt.Errorf("spec: sweep base has schema version %d (this build supports \"spec\": %d)", d.Base.Spec, Version)
	}
	type axisCheck struct {
		name string
		size int
	}
	checks := []axisCheck{
		{"taskSets", len(d.Axes.TaskSets)},
		{"l2", len(d.Axes.L2)},
		{"busDelay", len(d.Axes.BusDelay)},
		{"memLatency", len(d.Axes.MemLatency)},
		{"bus", len(d.Axes.Bus)},
		{"partition", len(d.Axes.Partition)},
	}
	points := 1
	for _, c := range checks {
		if c.size > maxSweepAxisValues {
			return fmt.Errorf("spec: sweep axis %q has %d values, above the %d bound", c.name, c.size, maxSweepAxisValues)
		}
		if c.size > 0 {
			points *= c.size
		}
		if points > maxSweepPoints {
			return fmt.Errorf("spec: sweep enumerates more than %d points", maxSweepPoints)
		}
	}
	if err := d.validateAxisValues(); err != nil {
		return err
	}
	// Mode compatibility: an axis that writes a mode payload (or a field
	// the mode forbids) must match the base's mode.
	if len(d.Axes.Bus) > 0 && d.Base.Mode.Kind != KindBus {
		return fmt.Errorf("spec: sweep bus axis needs base mode %q (mode is %q)", KindBus, d.Base.Mode.Kind)
	}
	if len(d.Axes.Partition) > 0 && d.Base.Mode.Kind != KindPartition {
		return fmt.Errorf("spec: sweep partition axis needs base mode %q (mode is %q)", KindPartition, d.Base.Mode.Kind)
	}
	if len(d.Axes.BusDelay) > 0 && d.Base.Mode.Kind == KindBus {
		return fmt.Errorf("spec: sweep busDelay axis conflicts with mode %q, which derives bus bounds from the arbiter", KindBus)
	}
	if len(d.Axes.TaskSets) > 0 && len(d.Base.Tasks) > 0 {
		return fmt.Errorf("spec: sweep taskSets axis conflicts with base tasks; leave base.tasks empty")
	}
	if len(d.Axes.TaskSets) == 0 && len(d.Base.Tasks) == 0 {
		return fmt.Errorf("spec: sweep base has no tasks and no taskSets axis")
	}
	if _, err := e.Point(0); err != nil {
		return err
	}
	return nil
}

// validateAxisValues checks each axis's entries individually: in-range
// values, well-formed geometries, resolvable set names, no duplicates
// (a duplicated value would enumerate indistinguishable points).
//
//paralint:canonical json.Marshal is a structural equality key for duplicate detection, never emitted
func (d *SweepDoc) validateAxisValues() error {
	seenStr := map[string]bool{}
	for i, name := range d.Axes.TaskSets {
		if err := workload.CheckSet(name); err != nil {
			return fmt.Errorf("spec: sweep taskSets[%d]: %w", i, err)
		}
		if seenStr[name] {
			return fmt.Errorf("spec: sweep taskSets[%d] duplicates %q", i, name)
		}
		seenStr[name] = true
	}
	seenJSON := map[string]bool{}
	dedupJSON := func(axis string, i int, v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("spec: sweep %s[%d]: %w", axis, i, err)
		}
		if seenJSON[axis+"\x00"+string(b)] {
			return fmt.Errorf("spec: sweep %s[%d] duplicates an earlier value", axis, i)
		}
		seenJSON[axis+"\x00"+string(b)] = true
		return nil
	}
	for i, c := range d.Axes.L2 {
		if err := c.validate(fmt.Sprintf("sweep l2[%d]", i)); err != nil {
			return err
		}
		if err := dedupJSON("l2", i, c); err != nil {
			return err
		}
	}
	intAxes := []struct {
		axis string
		vals []int
	}{{"busDelay", d.Axes.BusDelay}, {"memLatency", d.Axes.MemLatency}}
	for _, ia := range intAxes {
		axis, seen := ia.axis, map[int]bool{}
		for i, v := range ia.vals {
			if v < 0 {
				return fmt.Errorf("spec: sweep %s[%d] = %d must be non-negative", axis, i, v)
			}
			if seen[v] {
				return fmt.Errorf("spec: sweep %s[%d] duplicates %d", axis, i, v)
			}
			seen[v] = true
		}
	}
	for i, b := range d.Axes.Bus {
		if err := dedupJSON("bus", i, b); err != nil {
			return err
		}
	}
	for i, p := range d.Axes.Partition {
		if err := dedupJSON("partition", i, p); err != nil {
			return err
		}
	}
	return nil
}

// Encode validates the document and renders it as indented JSON. The
// encoding is canonical: DecodeSweep(d.Encode()) reproduces d exactly.
//
//paralint:canonical the sweep-document wire format; round-trip pinned by the sweep tests
func (d *SweepDoc) Encode() ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// DecodeSweep parses one sweep document from JSON, rejecting unknown
// fields, trailing data, schema versions other than SweepVersion, and
// invalid configurations.
func DecodeSweep(data []byte) (*SweepDoc, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d SweepDoc
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("spec: decode sweep: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("spec: trailing data after sweep document")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}
