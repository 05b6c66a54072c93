package cache

import (
	"cmp"
	"slices"
)

// Index interns the distinct cache lines a reference stream may touch
// into dense slots, grouped by set: the slots of set s are the
// contiguous range [setStart[s], setStart[s+1]), ascending by line
// within the set. An abstract cache state over an Index is a flat age
// vector indexed by slot, which makes Join/Access/Equal branch-light
// linear loops and Clone a single copy.
//
// An Index is immutable after construction and may be shared by any
// number of states, results and their clones.
type Index struct {
	cfg      Config
	lines    []LineID // slot -> line
	setStart []int32  // len cfg.Sets+1
	slots    map[LineID]int32
}

// NewIndex interns the given lines (duplicates welcome) for one cache
// geometry. The geometry must be Validate-clean.
func NewIndex(cfg Config, lines []LineID) *Index {
	ls := slices.Clone(lines)
	// Group by set, ascending line within a set.
	slices.SortFunc(ls, func(a, b LineID) int {
		if sa, sb := cfg.SetOf(a), cfg.SetOf(b); sa != sb {
			return sa - sb
		}
		return cmp.Compare(a, b)
	})
	ls = slices.Compact(ls)
	ix := &Index{
		cfg:      cfg,
		lines:    ls,
		setStart: make([]int32, cfg.Sets+1),
		slots:    make(map[LineID]int32, len(ls)),
	}
	for i, l := range ls {
		ix.slots[l] = int32(i)
	}
	// setStart[s] = first slot of set s (slots are grouped by set).
	s := 0
	for i, l := range ls {
		for ; s < cfg.SetOf(l); s++ {
			ix.setStart[s+1] = int32(i)
		}
	}
	for ; s < cfg.Sets; s++ {
		ix.setStart[s+1] = int32(len(ls))
	}
	return ix
}

// StreamIndex interns every line the streams' references may touch
// (exact and imprecise candidates; Unknown references touch no
// particular line and contribute nothing).
func StreamIndex(cfg Config, sts ...*Stream) *Index {
	var lines []LineID
	for _, st := range sts {
		//paralint:unordered NewIndex sorts and dedups the collected lines; collection order is invisible
		for _, refs := range st.Refs {
			for _, r := range refs {
				switch {
				case r.Exact:
					lines = append(lines, cfg.LineOf(r.Addr))
				case r.Unknown:
				default:
					for _, a := range r.Addrs {
						lines = append(lines, cfg.LineOf(a))
					}
				}
			}
		}
	}
	return NewIndex(cfg, lines)
}

// NumSlots returns the number of interned lines.
func (ix *Index) NumSlots() int { return len(ix.lines) }

// SlotOf returns the dense slot of a line, if interned.
func (ix *Index) SlotOf(l LineID) (int32, bool) {
	s, ok := ix.slots[l]
	return s, ok
}

// LineAt returns the line interned at a slot.
func (ix *Index) LineAt(slot int32) LineID { return ix.lines[slot] }

// setRange returns the slot range of one set.
func (ix *Index) setRange(s int) (lo, hi int32) {
	return ix.setStart[s], ix.setStart[s+1]
}

// setOfSlot returns the set index of a slot.
func (ix *Index) setOfSlot(slot int32) int { return ix.cfg.SetOf(ix.lines[slot]) }
