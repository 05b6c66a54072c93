// Package arbiter implements the shared-bandwidth arbitration schemes the
// survey discusses (§5): round-robin (task isolation with the classic
// bound D = N·L − 1), TDMA slot tables (Rosén et al.), a multi-bandwidth
// weighted arbiter in the spirit of Bourgade et al.'s MBBA, and the PRET
// memory wheel.
//
// Every arbiter is simultaneously an analytical model — Bound(core)
// returns a worst-case grant delay usable as the BusDelay of a WCET
// analysis — and a cycle-level device driven by the simulator through
// the Session it creates, so each bound is validated against simulated
// behaviour. An Arbiter is an immutable policy and safe to share across
// goroutines; all request state lives in the per-run Session.
package arbiter

import "fmt"

// Arbiter is an arbitration policy for a shared resource whose
// transactions occupy it for Latency() cycles. It holds no request
// state: every simulation run asks it for a fresh Session, so one
// Arbiter may serve any number of concurrent runs.
type Arbiter interface {
	Name() string
	Latency() int
	// Bound returns the worst-case delay between request and grant for
	// the given core (excluding the transaction's own latency).
	Bound(core int) int
	// NewSession returns the request state of one run, starting from an
	// idle resource at cycle 0.
	NewSession() Session
}

// Session is the mutable grant state of one simulation run. It is owned
// by that run and must not be shared across goroutines.
//
// Simulation contract: Request(core, t) returns the grant time g >= t;
// the transaction occupies [g, g+Latency()). The simulator issues
// requests in non-decreasing time order across all cores (event order),
// and a core never has two outstanding transactions.
type Session interface {
	Request(core int, t int64) int64
}

// --- round robin -----------------------------------------------------------

// RoundRobin arbitrates among n cores with equal rights. Its delay bound
// is the survey's D = N·L − 1 (§5.3): at worst a request waits for one
// in-flight transaction minus one cycle plus one transaction from every
// other core.
type RoundRobin struct {
	n, lat int
}

// NewRoundRobin returns a round-robin arbiter for n cores and transaction
// latency lat.
func NewRoundRobin(n, lat int) *RoundRobin {
	if n <= 0 || lat <= 0 {
		panic(fmt.Sprintf("arbiter: bad round-robin geometry n=%d lat=%d", n, lat))
	}
	return &RoundRobin{n: n, lat: lat}
}

// Name implements Arbiter.
func (r *RoundRobin) Name() string { return fmt.Sprintf("rr(n=%d,L=%d)", r.n, r.lat) }

// Latency implements Arbiter.
func (r *RoundRobin) Latency() int { return r.lat }

// Bound implements Arbiter: D = N·L − 1.
func (r *RoundRobin) Bound(core int) int { return r.n*r.lat - 1 }

// NewSession implements Arbiter.
func (r *RoundRobin) NewSession() Session { return &rrSession{lat: int64(r.lat)} }

// rrSession is one run of a RoundRobin bus.
type rrSession struct {
	lat, busyUntil int64
}

// Request implements Session. With at most one outstanding transaction
// per core, first-come-first-served order realizes the round-robin bound.
func (s *rrSession) Request(core int, t int64) int64 {
	g := t
	if s.busyUntil > g {
		g = s.busyUntil
	}
	s.busyUntil = g + s.lat
	return g
}

// --- TDMA ------------------------------------------------------------------

// Slot is one TDMA table entry: Owner holds the bus for Len cycles.
type Slot struct {
	Owner int
	Len   int
}

// TDMA grants the bus according to a fixed, periodically repeated slot
// table (Rosén et al., §5.2). A transaction must fit entirely within one
// of its owner's slots.
type TDMA struct {
	name   string
	slots  []Slot
	period int64
	lat    int
}

// NewTDMA builds a TDMA arbiter. Every slot must be at least lat long.
// The table is copied, so later edits to slots do not reach the arbiter.
func NewTDMA(slots []Slot, lat int) *TDMA {
	if len(slots) == 0 || lat <= 0 {
		panic("arbiter: empty TDMA table")
	}
	period := int64(0)
	for _, s := range slots {
		if s.Len < lat {
			panic(fmt.Sprintf("arbiter: TDMA slot len %d below latency %d", s.Len, lat))
		}
		period += int64(s.Len)
	}
	return &TDMA{
		name:   fmt.Sprintf("tdma(%d slots,P=%d,L=%d)", len(slots), period, lat),
		slots:  append([]Slot(nil), slots...),
		period: period,
		lat:    lat,
	}
}

// NewWheel returns the PRET memory wheel: one lat-cycle window per thread,
// repeated round-robin (§5.3, Lickly et al.).
func NewWheel(n, lat int) *TDMA {
	slots := make([]Slot, n)
	for i := range slots {
		slots[i] = Slot{Owner: i, Len: lat}
	}
	t := NewTDMA(slots, lat)
	t.name = fmt.Sprintf("wheel(n=%d,L=%d)", n, lat)
	return t
}

// Name implements Arbiter.
func (t *TDMA) Name() string { return t.name }

// Latency implements Arbiter.
func (t *TDMA) Latency() int { return t.lat }

// grantAfter returns the earliest start >= at such that [start, start+lat)
// lies inside a slot owned by core.
func (t *TDMA) grantAfter(core int, at int64) int64 {
	// Walk slots starting from the one containing `at`; at most two
	// periods are needed to find an owned window.
	for tick := at; tick < at+2*t.period+int64(t.lat); {
		phase := tick % t.period
		var start int64
		for _, s := range t.slots {
			end := start + int64(s.Len)
			if phase < end {
				if s.Owner == core && end-phase >= int64(t.lat) {
					return tick
				}
				// Jump to the start of the next slot.
				tick += end - phase
				break
			}
			start = end
		}
	}
	panic(fmt.Sprintf("arbiter: %s has no slot for core %d", t.name, core))
}

// Bound implements Arbiter exactly, by boundary enumeration. The grant
// function g(p) = grantAfter(p) is a non-decreasing step function of the
// arrival phase, so the delay d(p) = g(p) − p is strictly decreasing on
// every interval where g is constant: d is maximized only at the left
// edge of such an interval. g changes value exactly where the set of
// feasible starts changes — at phase 0 and just past the last feasible
// start of each owned slot (start ≤ p ≤ end−lat) — so it suffices to
// probe those O(slots) phases instead of every phase in the period.
func (t *TDMA) Bound(core int) int {
	worst := t.grantAfter(core, 0) // == d(0); no slot starts at phase −1
	var start int64
	for _, s := range t.slots {
		end := start + int64(s.Len)
		if s.Owner == core {
			// First phase whose remaining window no longer fits a
			// transaction (slots are at least lat long, so this lies
			// inside or just past the slot).
			if p := (end - int64(t.lat) + 1) % t.period; p > 0 {
				if d := t.grantAfter(core, p) - p; d > worst {
					worst = d
				}
			}
		}
		start = end
	}
	return int(worst)
}

// SumOfOtherSlots is the coarse fallback bound the survey discusses for
// static analysis without offset tracking: the total length of all slots
// not owned by the core (plus the tail of an own slot too short to use).
func (t *TDMA) SumOfOtherSlots(core int) int {
	other := 0
	for _, s := range t.slots {
		if s.Owner != core {
			other += s.Len
		}
	}
	return other + t.lat - 1
}

// GrantAfter returns the earliest grant time >= at for the core, without
// a session's per-core serialization state (a pure query used by
// offset-set analyses).
func (t *TDMA) GrantAfter(core int, at int64) int64 { return t.grantAfter(core, at) }

// Period returns the schedule period.
func (t *TDMA) Period() int64 { return t.period }

// NewSession implements Arbiter.
func (t *TDMA) NewSession() Session {
	return &tdmaSession{t: t, lastGrantEnd: map[int]int64{}}
}

// tdmaSession is one run of a TDMA bus.
type tdmaSession struct {
	t *TDMA
	// lastGrantEnd serializes per-core transactions defensively.
	lastGrantEnd map[int]int64
}

// Request implements Session.
func (s *tdmaSession) Request(core int, at int64) int64 {
	if end, ok := s.lastGrantEnd[core]; ok && at < end {
		at = end
	}
	g := s.t.grantAfter(core, at)
	s.lastGrantEnd[core] = g + int64(s.t.lat)
	return g
}

// --- multi-bandwidth (MBBA-style) ------------------------------------------

// NewMultiBandwidth builds a weighted arbiter in the spirit of Bourgade
// et al.'s MBBA (§5.3): core i receives weight[i] transaction slots out of
// every Σweights, interleaved smoothly, so cores with heavier memory
// demand see proportionally tighter worst-case delays than a uniform
// round robin would give them.
//
// It is realized as a TDMA table built by smooth weighted round-robin,
// which preserves the workload-independent per-core bound that defines
// the survey's task-isolation category. (The original MBBA is a dynamic
// priority arbiter; the substitution keeps its defining property —
// heterogeneous per-core bounds — while staying statically analyzable.)
func NewMultiBandwidth(weights []int, lat int) *TDMA {
	total := 0
	for i, w := range weights {
		if w <= 0 {
			panic(fmt.Sprintf("arbiter: weight[%d] = %d", i, w))
		}
		total += w
	}
	credit := make([]int, len(weights))
	var slots []Slot
	for k := 0; k < total; k++ {
		best := 0
		for i := range weights {
			credit[i] += weights[i]
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= total
		slots = append(slots, Slot{Owner: best, Len: lat})
	}
	t := NewTDMA(slots, lat)
	t.name = fmt.Sprintf("mbba(w=%v,L=%d)", weights, lat)
	return t
}
