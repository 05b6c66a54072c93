// Package cache implements the cache machinery of static WCET analysis:
// a concrete set-associative LRU cache model (used by the cycle-accurate
// simulator and as the ground truth in tests) and the classic abstract
// interpretation analyses — Must, May and loop-scoped Persistence — that
// classify every memory reference as ALWAYS_HIT, ALWAYS_MISS, PERSISTENT
// or NOT_CLASSIFIED, as described in §2.1 of Rochange's survey (after
// Ferdinand & Wilhelm, and Hardy & Puaut for multi-level hierarchies).
package cache

import (
	"fmt"
	"slices"
)

// LineID identifies a memory line: byte address divided by the line size.
type LineID uint32

// Config describes one cache level.
type Config struct {
	Name      string
	Sets      int // number of sets (power of two)
	Ways      int // associativity
	LineBytes int // line size in bytes (power of two)

	// HitLatency is the access time in cycles on a hit; MissPenalty is the
	// additional time to fill from the next level (used by the timing
	// composition, not by the classification analysis itself).
	HitLatency  int
	MissPenalty int
}

// Validate checks structural sanity.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: sets %d not a positive power of two", c.Name, c.Sets)
	}
	if c.LineBytes < 4 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two >= 4", c.Name, c.LineBytes)
	}
	if c.Ways <= 0 || c.Ways > 255 {
		// The upper bound keeps abstract ages (plus the "absent" sentinel
		// at Ways) representable in one byte of the dense ACS encoding.
		return fmt.Errorf("cache %s: ways %d", c.Name, c.Ways)
	}
	return nil
}

// LineOf maps a byte address to its line.
func (c Config) LineOf(addr uint32) LineID { return LineID(addr / uint32(c.LineBytes)) }

// SetOf maps a line to its set index.
func (c Config) SetOf(l LineID) int { return int(uint32(l) % uint32(c.Sets)) }

// LinesOf returns the distinct lines touched by a set of byte addresses,
// in ascending order.
func (c Config) LinesOf(addrs []uint32) []LineID {
	out := make([]LineID, len(addrs))
	for i, a := range addrs {
		out[i] = c.LineOf(a)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// RefLines returns the distinct lines a reference may touch under this
// geometry, ascending. Unknown references touch no enumerable line: the
// bool is false and callers must treat the reference pessimistically.
func (c Config) RefLines(r Ref) ([]LineID, bool) {
	switch {
	case r.Exact:
		return []LineID{c.LineOf(r.Addr)}, true
	case r.Unknown:
		return nil, false
	default:
		return c.LinesOf(r.Addrs), true
	}
}

// LRU is a concrete set-associative cache with true LRU replacement,
// and the reference model the abstract analyses are validated against.
type LRU struct {
	cfg  Config
	sets [][]LineID // each set: MRU first

	Hits, Misses uint64
}

// NewLRU returns an empty cache.
func NewLRU(cfg Config) *LRU {
	return &LRU{cfg: cfg, sets: make([][]LineID, cfg.Sets)}
}

// Config returns the cache geometry.
func (c *LRU) Config() Config { return c.cfg }

// Access touches the line containing addr and reports whether it hit.
// On a miss the line is filled, evicting the least recently used line if
// the set is full.
func (c *LRU) Access(addr uint32) bool {
	return c.AccessLine(c.cfg.LineOf(addr))
}

// AccessLine is Access by line.
func (c *LRU) AccessLine(l LineID) bool {
	s := c.cfg.SetOf(l)
	set := c.sets[s]
	for i, x := range set {
		if x == l {
			// Move to MRU.
			copy(set[1:i+1], set[:i])
			set[0] = l
			c.Hits++
			return true
		}
	}
	c.Misses++
	c.insert(s, l)
	return false
}

func (c *LRU) insert(s int, l LineID) {
	set := c.sets[s]
	if len(set) < c.cfg.Ways {
		c.sets[s] = append([]LineID{l}, set...)
		return
	}
	// Evict the least recently used line.
	copy(set[1:], set[:len(set)-1])
	set[0] = l
}
