// Package ilp provides an exact integer linear programming solver for
// the IPET models at the heart of static WCET analysis: a two-phase
// primal simplex for the LP relaxation and depth-first branch and bound
// for integrality, offline and self-contained — no external solver.
//
// The hot path runs on a sparse tableau over overflow-checked int64
// rationals (IPET models are all-integer, so machine words suffice in
// practice); any arithmetic overflow aborts the fast solve and the model
// is re-solved by the retired dense math/big oracle, which remains the
// exact reference the fast path is differentially tested against. Both
// paths implement the same pivoting rules (Bland's entering rule, min
// ratio with smallest-basis tie break, identical branching order), so
// they produce identical solutions, not merely identical objectives.
package ilp

import (
	"fmt"
	"math/big"
	"slices"
	"strings"
)

// Var is a variable handle within one Model.
type Var int

// Sense is a constraint comparison direction.
type Sense uint8

// Constraint senses.
const (
	LE Sense = iota // Σ aᵢxᵢ ≤ b
	GE              // Σ aᵢxᵢ ≥ b
	EQ              // Σ aᵢxᵢ = b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Lin is a sparse linear expression Σ coef·var, kept sorted by variable
// index, so iteration — and therefore rendering — is deterministic by
// construction. Coefficients are exact int64 rationals; values outside
// that range panic (IPET models never produce them).
type Lin struct {
	vars []Var
	coef []rat64
}

// NewLin returns an empty linear expression.
func NewLin() *Lin { return &Lin{} }

// NewLinCap returns an empty linear expression with room for n terms:
// adding up to n terms in variable order allocates nothing more.
func NewLinCap(n int) *Lin {
	return &Lin{vars: make([]Var, 0, n), coef: make([]rat64, 0, n)}
}

// Len returns the number of (nonzero) terms.
func (l *Lin) Len() int { return len(l.vars) }

// addRat accumulates c·v, keeping terms sorted and dropping zeros.
func (l *Lin) addRat(v Var, c rat64) *Lin {
	if c.n == 0 {
		return l
	}
	i, ok := slices.BinarySearch(l.vars, v)
	if ok {
		s, okAdd := l.coef[i].add(c)
		if !okAdd {
			panic("ilp: Lin coefficient overflows int64")
		}
		if s.n == 0 {
			l.vars = slices.Delete(l.vars, i, i+1)
			l.coef = slices.Delete(l.coef, i, i+1)
		} else {
			l.coef[i] = s
		}
		return l
	}
	l.vars = slices.Insert(l.vars, i, v)
	l.coef = slices.Insert(l.coef, i, c)
	return l
}

// AddInt accumulates an integer coefficient.
func (l *Lin) AddInt(v Var, coef int64) *Lin { return l.addRat(v, rat64{coef, 1}) }

// Clone returns a deep copy.
func (l *Lin) Clone() *Lin {
	return &Lin{vars: slices.Clone(l.vars), coef: slices.Clone(l.coef)}
}

// Eval evaluates the expression at the given point.
func (l *Lin) Eval(x []*big.Rat) *big.Rat {
	sum := new(big.Rat)
	t := new(big.Rat)
	for i, v := range l.vars {
		sum.Add(sum, t.Mul(l.coef[i].Rat(), x[v]))
	}
	return sum
}

type constraint struct {
	name  string
	terms *Lin
	sense Sense
	rhs   rat64
}

// Model is an ILP/LP model. Variables have a finite lower bound
// (default 0) and an optional upper bound; integrality is per-variable.
// The objective is always maximized (negate coefficients to minimize).
// All inputs must fit int64 rationals.
type Model struct {
	names     []string // "" = lazily derived "v%d"
	integer   []bool
	lower     []rat64
	upper     []rat64 // valid only where upinf is false
	upinf     []bool  // true = +inf
	objective *Lin
	cons      []constraint
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{objective: NewLin()} }

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.names) }

// NumCons returns the number of constraints.
func (m *Model) NumCons() int { return len(m.cons) }

// AddVar adds a continuous variable with bounds [0, +inf). An empty name
// is allowed: Name derives "v%d" lazily, keeping hot model construction
// free of string formatting.
func (m *Model) AddVar(name string) Var {
	m.names = append(m.names, name)
	m.integer = append(m.integer, false)
	m.lower = append(m.lower, r64Zero)
	m.upper = append(m.upper, r64Zero)
	m.upinf = append(m.upinf, true)
	return Var(len(m.names) - 1)
}

// AddIntVar adds an integer variable with bounds [0, +inf).
func (m *Model) AddIntVar(name string) Var {
	v := m.AddVar(name)
	m.integer[v] = true
	return v
}

// Name returns the variable's name ("v%d" when none was given).
func (m *Model) Name(v Var) string {
	if m.names[v] != "" {
		return m.names[v]
	}
	return fmt.Sprintf("v%d", int(v))
}

// AddConstraintInt appends a constraint with an integer right-hand side.
// The terms are copied.
func (m *Model) AddConstraintInt(name string, terms *Lin, sense Sense, rhs int64) {
	m.cons = append(m.cons, constraint{name: name, terms: terms.Clone(), sense: sense, rhs: rat64{rhs, 1}})
}

// SetObjective replaces the (maximized) objective.
func (m *Model) SetObjective(terms *Lin) { m.objective = terms.Clone() }

// Fork returns a shallow extension point for the model: the receiver's
// variables and constraints are shared (copy-on-append — every slice is
// capacity-clipped, so appending to the fork never mutates the parent),
// and new variables, constraints and a new objective can be added
// cheaply. Fork is how an immutable compiled skeleton (flow structure
// built once per CFG) is specialized into per-scenario instances; it is
// safe to Fork one parent from many goroutines concurrently, provided
// the parent is no longer mutated directly.
func (m *Model) Fork() *Model {
	return &Model{
		names:     slices.Clip(m.names),
		integer:   slices.Clip(m.integer),
		lower:     slices.Clip(m.lower),
		upper:     slices.Clip(m.upper),
		upinf:     slices.Clip(m.upinf),
		objective: m.objective, // replaced via SetObjective before solving
		cons:      slices.Clip(m.cons),
	}
}

// String renders the model in LP-like text form for debugging. Output is
// deterministic: Lin terms are sorted by variable index by construction.
func (m *Model) String() string {
	var sb strings.Builder
	sb.WriteString("max ")
	sb.WriteString(m.linString(m.objective))
	sb.WriteString("\ns.t.\n")
	for _, c := range m.cons {
		fmt.Fprintf(&sb, "  %s: %s %s %s\n", c.name, m.linString(c.terms), c.sense, c.rhs.Rat().RatString())
	}
	for i := range m.names {
		up := "+inf"
		if !m.upinf[i] {
			up = m.upper[i].Rat().RatString()
		}
		kind := ""
		if m.integer[i] {
			kind = " int"
		}
		fmt.Fprintf(&sb, "  %s in [%s, %s]%s\n", m.Name(Var(i)), m.lower[i].Rat().RatString(), up, kind)
	}
	return sb.String()
}

func (m *Model) linString(l *Lin) string {
	if l.Len() == 0 {
		return "0"
	}
	parts := make([]string, l.Len())
	for i, v := range l.vars {
		parts[i] = fmt.Sprintf("%s*%s", l.coef[i].Rat().RatString(), m.Name(v))
	}
	return strings.Join(parts, " + ")
}

// Status reports the outcome of a solve.
type Status uint8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return "?"
	}
}

// Solution is the result of a solve.
type Solution struct {
	Status Status
	Value  *big.Rat   // objective value (valid when Optimal)
	X      []*big.Rat // variable values (valid when Optimal)

	// Nodes is the number of branch-and-bound nodes explored (1 for a
	// pure LP).
	Nodes int
	// Pivots counts simplex pivots across all LP solves.
	Pivots int
	// FellBack reports that int64 arithmetic overflowed and the solution
	// was produced by the exact big.Rat oracle instead.
	FellBack bool
}
