package cache

import (
	"bytes"
	"fmt"
	"strings"
)

// ACSKind discriminates the abstract cache state flavour.
type ACSKind uint8

// Abstract state flavours.
const (
	Must ACSKind = iota // ages are upper bounds; presence ⇒ guaranteed cached
	May                 // ages are lower bounds; absence ⇒ guaranteed not cached
)

// ACS is an abstract cache state over an interned line Index: a flat age
// vector with one byte per interned line, where the value is the
// abstract age in [0, Ways) and Ways is the "absent" sentinel. For Must
// states a present line is guaranteed resident with age at most the
// stored value; for May states a present line may be resident with age
// at least the stored value, and an absent line is guaranteed not
// cached — unless the state is poisoned.
//
// Poisoned applies to May states only: after an access whose target set
// is unknown, any line anywhere may be cached, so absence proves nothing
// and ALWAYS_MISS classification is disabled.
//
// The dense layout makes Join/Access/Equal branch-light linear loops
// over contiguous memory and Clone/CopyFrom a single copy, which is what
// lets the fixpoint iterate without allocating.
type ACS struct {
	idx      *Index
	kind     ACSKind
	age      []uint8 // per slot; == absent() means not in the state
	Poisoned bool

	// scratch backs AccessUncertain's access-vs-skip join; it is lazily
	// allocated, reused across calls, and never copied or compared.
	scratch []uint8
}

// NewACS returns the initial state over an index: for Must the empty
// cache contains nothing guaranteed; for May an *empty* state means
// "nothing can be cached", which is correct at task start (cold or
// unknown-but-invisible cache: WCET analysis of an isolated task assumes
// no useful content, and a truly unknown initial state is modelled by
// poisoning).
func NewACS(idx *Index, kind ACSKind) *ACS {
	a := &ACS{idx: idx, kind: kind, age: make([]uint8, idx.NumSlots())}
	a.Reset()
	return a
}

// absent is the sentinel age marking a line as not in the state.
func (a *ACS) absent() uint8 { return uint8(a.idx.cfg.Ways) }

// Reset restores the initial (empty, unpoisoned) state.
func (a *ACS) Reset() {
	ab := a.absent()
	for i := range a.age {
		a.age[i] = ab
	}
	a.Poisoned = false
}

// Clone deep-copies the state.
func (a *ACS) Clone() *ACS {
	return &ACS{
		idx:      a.idx,
		kind:     a.kind,
		age:      bytes.Clone(a.age),
		Poisoned: a.Poisoned,
	}
}

// CopyFrom overwrites the state with b's content (same index and kind).
func (a *ACS) CopyFrom(b *ACS) {
	copy(a.age, b.age)
	a.Poisoned = b.Poisoned
}

// Equal compares two states (same kind and index assumed).
func (a *ACS) Equal(b *ACS) bool {
	return a.Poisoned == b.Poisoned && bytes.Equal(a.age, b.age)
}

// slotOf returns the interned slot of a line, panicking on lines outside
// the index (a programming error: states only ever see stream lines).
func (a *ACS) slotOf(l LineID) int32 {
	slot, ok := a.idx.SlotOf(l)
	if !ok {
		panic(fmt.Sprintf("cache: line %d not interned in index", l))
	}
	return slot
}

// Contains reports whether the line is in the state (meaning depends on
// kind). Lines outside the index are never in the state.
func (a *ACS) Contains(l LineID) bool {
	slot, ok := a.idx.SlotOf(l)
	return ok && a.age[slot] < a.absent()
}

// Age returns the line's abstract age, or Ways if absent.
func (a *ACS) Age(l LineID) int {
	if slot, ok := a.idx.SlotOf(l); ok {
		return int(a.age[slot])
	}
	return a.idx.cfg.Ways
}

// JoinInPlace folds b into a. With absent == Ways and present ages
// strictly below it, the Must join is an element-wise max (either side
// absent ⇒ max is the sentinel ⇒ absent) and the May join an
// element-wise min (either side present ⇒ min is a real age).
func (a *ACS) JoinInPlace(b *ACS) {
	av, bv := a.age, b.age
	if a.kind == Must {
		for i, x := range bv {
			if x > av[i] {
				av[i] = x
			}
		}
	} else {
		for i, x := range bv {
			if x < av[i] {
				av[i] = x
			}
		}
	}
	a.Poisoned = a.Poisoned || b.Poisoned
}

// Access applies the LRU transfer function for a precise access to line l.
//
// Must: the accessed line moves to age 0; lines strictly younger than l's
// previous upper-bound age get one older (they are pushed down); lines
// reaching Ways are evicted from the state.
//
// May: the accessed line moves to age 0; lines whose lower-bound age is
// strictly below l's previous lower-bound age get one older.
func (a *ACS) Access(l LineID) { a.accessSlot(a.slotOf(l)) }

func (a *ACS) accessSlot(slot int32) {
	lo, hi := a.idx.setRange(a.idx.setOfSlot(slot))
	v := a.age[lo:hi]
	old := a.age[slot]
	// Every aged line had age < old <= Ways, so age+1 <= Ways: reaching
	// Ways IS eviction under the sentinel encoding — no clamp needed.
	for i, x := range v {
		if x < old && int32(i)+lo != slot {
			v[i] = x + 1
		}
	}
	a.age[slot] = 0
}

// AccessUncertain applies an access that may or may not happen (used for
// L2 analysis under an Uncertain cache-access classification, Hardy &
// Puaut style): the result is the join of accessing and not accessing.
func (a *ACS) AccessUncertain(l LineID) { a.accessUncertainSlot(a.slotOf(l)) }

func (a *ACS) accessUncertainSlot(slot int32) {
	lo, hi := a.idx.setRange(a.idx.setOfSlot(slot))
	if a.scratch == nil {
		a.scratch = make([]uint8, len(a.age))
	}
	// Only the accessed line's set changes, so save it, apply the access,
	// and join the two versions of just that range.
	sv := a.scratch[lo:hi]
	copy(sv, a.age[lo:hi])
	a.accessSlot(slot)
	v := a.age[lo:hi]
	if a.kind == Must {
		for i, x := range sv {
			if x > v[i] {
				v[i] = x
			}
		}
	} else {
		for i, x := range sv {
			if x < v[i] {
				v[i] = x
			}
		}
	}
}

// AccessImprecise applies an access known to touch exactly one of the
// given lines. Must: in every possibly-touched set, every line may be
// pushed one down (and nothing is guaranteed inserted). May: each
// candidate line may now be resident at age 0; other ages keep their
// lower bounds.
func (a *ACS) AccessImprecise(lines []LineID) {
	switch a.kind {
	case Must:
		aged := make(map[int]struct{}, 8)
		for _, l := range lines {
			s := a.idx.cfg.SetOf(l)
			if _, done := aged[s]; done {
				continue
			}
			aged[s] = struct{}{}
			a.ageSetRange(s, 1)
		}
	case May:
		for _, l := range lines {
			a.age[a.slotOf(l)] = 0
		}
	}
}

// AccessUnknown applies an access to a completely unknown address.
// Must: every line everywhere may be pushed one down. May: poisoned.
func (a *ACS) AccessUnknown() {
	switch a.kind {
	case Must:
		ab := a.absent()
		for i, x := range a.age {
			if x < ab {
				a.age[i] = x + 1
			}
		}
	case May:
		a.Poisoned = true
	}
}

func (a *ACS) ageSetRange(s, n int) {
	lo, hi := a.idx.setRange(s)
	v := a.age[lo:hi]
	ab := a.absent()
	for i, x := range v {
		if x < ab {
			v[i] = uint8(min(int(x)+n, int(ab)))
		}
	}
}

// String renders the state compactly for debugging: sets in ascending
// order, lines ascending within each set — deterministic by construction
// (the index groups slots by set and sorts them by line).
func (a *ACS) String() string {
	var sb strings.Builder
	kind := "must"
	if a.kind == May {
		kind = "may"
	}
	fmt.Fprintf(&sb, "%s{", kind)
	ab := a.absent()
	for s := 0; s < a.idx.cfg.Sets; s++ {
		lo, hi := a.idx.setRange(s)
		header := false
		for slot := lo; slot < hi; slot++ {
			if a.age[slot] >= ab {
				continue
			}
			if !header {
				fmt.Fprintf(&sb, " s%d:", s)
				header = true
			}
			fmt.Fprintf(&sb, "%d@%d ", a.idx.LineAt(slot), a.age[slot])
		}
	}
	if a.Poisoned {
		sb.WriteString(" POISONED")
	}
	sb.WriteString("}")
	return sb.String()
}
