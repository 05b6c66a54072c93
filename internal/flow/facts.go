package flow

import (
	"fmt"
	"maps"
	"sort"
	"strconv"

	"paratime/internal/cfg"
)

// Rel is the comparison direction of an extra path constraint.
type Rel uint8

// Constraint relations.
const (
	RelLE Rel = iota
	RelGE
	RelEQ
)

// Term is one linear term over an execution count: exactly one of Edge or
// Block is set.
type Term struct {
	Coef  int64
	Edge  *cfg.Edge
	Block *cfg.Block
}

// Constraint is an extra linear flow fact over block/edge execution
// counts, fed verbatim into the IPET ILP (used to express infeasible
// paths, mutual-exclusion of branches, and interference budgets).
type Constraint struct {
	Name  string
	Terms []Term
	Rel   Rel
	RHS   int64
}

// Facts carries user-supplied flow annotations for a task: loop bounds by
// header label and extra linear constraints.
type Facts struct {
	// bounds by label; applied to every inlined copy of the loop.
	bounds map[string]int
	// Constraints are graph-specific extra path constraints.
	Constraints []Constraint
}

// NewFacts returns an empty annotation set.
func NewFacts() *Facts { return &Facts{bounds: map[string]int{}} }

// Bound annotates the loop whose header carries the given code label with
// a maximum header-execution count per loop entry.
func (f *Facts) Bound(label string, n int) *Facts {
	f.bounds[label] = n
	return f
}

// Bounds returns a copy of the annotated loop bounds by header label (nil
// when there are none). Serialization formats use it to externalize an
// annotation set; graph-bound Constraints are not covered.
func (f *Facts) Bounds() map[string]int {
	if f == nil || len(f.bounds) == 0 {
		return nil
	}
	return maps.Clone(f.bounds)
}

// Fingerprint returns a stable content key over the annotation set, used
// by the batch engine to memoize prepared analyses. Loop bounds are
// serialized by label; extra constraints are serialized structurally
// (coefficients, relation, RHS, and the IDs of the blocks and edges they
// reference), which distinguishes any two constraint sets over the same
// program. Labels and constraint names are length-prefixed, so no
// spelling can make two different annotation sets share a key. A nil
// receiver keys identically to an empty set.
func (f *Facts) Fingerprint() string {
	if f == nil {
		return ""
	}
	labels := make([]string, 0, len(f.bounds))
	for l := range f.bounds {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var b []byte
	for _, l := range labels {
		b = append(b, 'b')
		b = appendLenString(b, l)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(f.bounds[l]), 10)
		b = append(b, ';')
	}
	for _, c := range f.Constraints {
		b = append(b, 'c')
		b = appendLenString(b, c.Name)
		b = append(b, ',')
		b = strconv.AppendUint(b, uint64(c.Rel), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, c.RHS, 10)
		for _, t := range c.Terms {
			b = append(b, '|')
			b = strconv.AppendInt(b, t.Coef, 10)
			switch {
			case t.Edge != nil:
				b = append(b, "*e"...)
				b = strconv.AppendInt(b, int64(t.Edge.ID), 10)
			case t.Block != nil:
				b = append(b, "*b"...)
				b = strconv.AppendInt(b, int64(t.Block.ID), 10)
			}
		}
		b = append(b, ';')
	}
	return string(b)
}

// appendLenString appends s as "<len>:<s>".
func appendLenString(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	return append(b, s...)
}

// Apply writes annotated bounds into the graph's loops. A label matches
// every inlined copy of the loop (all copies share the header's original
// instruction index). Unknown labels and labels that match no loop header
// are errors, catching stale annotations.
func (f *Facts) Apply(g *cfg.Graph) error {
	// Sorted labels keep the first-error choice deterministic.
	labels := make([]string, 0, len(f.bounds))
	for l := range f.bounds {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, label := range labels {
		n := f.bounds[label]
		idx, ok := g.Prog.Labels[label]
		if !ok {
			return fmt.Errorf("flow fact: no label %q in program %q", label, g.Prog.Name)
		}
		matched := false
		for _, l := range g.Loops {
			if l.Header.Start == idx {
				l.Bound = n
				matched = true
			}
		}
		if !matched {
			return fmt.Errorf("flow fact: label %q is not a loop header", label)
		}
	}
	return nil
}

// CheckBounded verifies every loop has a bound (derived or annotated);
// WCET computation is impossible otherwise.
func CheckBounded(g *cfg.Graph) error {
	for _, l := range g.Loops {
		if l.Bound < 0 {
			return fmt.Errorf("loop %v in %q has no bound: annotate it or simplify the loop",
				l, g.Prog.Name)
		}
		if l.Bound == 0 {
			return fmt.Errorf("loop %v in %q has bound 0; headers execute at least once per entry",
				l, g.Prog.Name)
		}
	}
	return nil
}

// BoundAll is the standard preparation pipeline: propagate constants,
// derive bounds automatically, apply manual annotations (which override
// derived values), and verify completeness. It returns the constant
// propagation result and induction facts for reuse by address analysis.
func BoundAll(g *cfg.Graph, facts *Facts) (*ConstProp, map[*cfg.Loop]Induction, error) {
	cp := PropagateConstants(g)
	_, ind := DeriveBounds(g, cp)
	if facts != nil {
		if err := facts.Apply(g); err != nil {
			return nil, nil, err
		}
	}
	if err := CheckBounded(g); err != nil {
		return nil, nil, err
	}
	return cp, ind, nil
}
