// Package memctrl models an analyzable main-memory controller in the
// spirit of Paolieri et al.'s AMC (§5.3, [24]): banked memory with
// row-buffer timing, where a closed-page policy trades average latency
// for a constant, workload-independent worst-case access time usable as
// the MemLatency bound of WCET analysis.
package memctrl

import "fmt"

// Config is the memory-device timing parameterization.
type Config struct {
	Banks int // power of two
	// RowBits selects the row: addresses sharing addr>>RowBits within a
	// bank share a row buffer.
	RowBits int
	// Timing components in cycles.
	CAS        int // column access on an open-row hit
	Activate   int // row activation (RAS)
	Precharge  int // close the open row
	ClosedPage bool
}

// DefaultConfig returns a small predictable device: 4 banks, closed page.
func DefaultConfig() Config {
	return Config{Banks: 4, RowBits: 10, CAS: 6, Activate: 8, Precharge: 6, ClosedPage: true}
}

// Validate checks geometry.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("memctrl: banks %d not a power of two", c.Banks)
	}
	if c.CAS <= 0 || c.Activate < 0 || c.Precharge < 0 {
		return fmt.Errorf("memctrl: non-positive timing")
	}
	return nil
}

// Bound returns the worst-case single-access latency, the constant the
// static analysis uses as MemLatency.
//
// Closed page: every access activates and reads, then precharges in the
// background — but the next access to the same bank may have to wait for
// that precharge, so the bound charges it. Open page: the worst case is a
// row conflict (precharge + activate + CAS).
func (c Config) Bound() int {
	return c.Precharge + c.Activate + c.CAS
}

// Controller is the cycle-level device. The simulator calls Access with
// monotonically non-decreasing start times (after bus arbitration).
type Controller struct {
	cfg     Config
	openRow []int64 // per bank; -1 = closed
	busy    []int64 // per bank: time the bank becomes free

	Accesses, RowHits uint64
}

// New returns a controller with all rows closed.
func New(cfg Config) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Controller{cfg: cfg, openRow: make([]int64, cfg.Banks), busy: make([]int64, cfg.Banks)}
	for i := range c.openRow {
		c.openRow[i] = -1
	}
	return c
}

// bankOf maps an address to its bank (low line-ish bits for spread).
func (c *Controller) bankOf(addr uint32) int {
	return int((addr >> 6) & uint32(c.cfg.Banks-1))
}

func (c *Controller) rowOf(addr uint32) int64 {
	return int64(addr >> uint(c.cfg.RowBits))
}

// Access performs one access starting no earlier than t and returns its
// completion time. The latency never exceeds t_start + Bound(), which the
// tests assert.
func (c *Controller) Access(addr uint32, t int64) int64 {
	c.Accesses++
	b := c.bankOf(addr)
	row := c.rowOf(addr)
	start := t
	if c.busy[b] > start {
		start = c.busy[b]
	}
	var done int64
	switch {
	case c.cfg.ClosedPage:
		// Activate + CAS, then precharge off the critical path; the bank
		// stays busy through the precharge.
		done = start + int64(c.cfg.Activate+c.cfg.CAS)
		c.busy[b] = done + int64(c.cfg.Precharge)
		c.openRow[b] = -1
	case c.openRow[b] == row:
		c.RowHits++
		done = start + int64(c.cfg.CAS)
		c.busy[b] = done
	case c.openRow[b] == -1:
		done = start + int64(c.cfg.Activate+c.cfg.CAS)
		c.busy[b] = done
		c.openRow[b] = row
	default:
		done = start + int64(c.cfg.Precharge+c.cfg.Activate+c.cfg.CAS)
		c.busy[b] = done
		c.openRow[b] = row
	}
	return done
}

// Reset closes all rows and clears statistics.
func (c *Controller) Reset() {
	for i := range c.openRow {
		c.openRow[i] = -1
		c.busy[i] = 0
	}
	c.Accesses, c.RowHits = 0, 0
}
