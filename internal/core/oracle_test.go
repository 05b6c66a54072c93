package core

import (
	"fmt"
	"slices"

	"paratime/internal/cache"
	"paratime/internal/cfg"
	"paratime/internal/ipet"
	"paratime/internal/pipeline"
)

// The retired map-walking pricing, kept as the oracle of the pricing
// plan: every reference looked up by RefID in the L1 classification,
// the merged-stream map, Bypass, the L2 classification and L2Override,
// on every pricing.

// oracleChain is the worst-case cost of one L1 miss: the part always
// incurred, and an optional second-level persistence event.
type oracleChain struct {
	immediate int
	l2Event   *cfg.Loop
	l2Penalty int
}

// oracleChainFor computes the miss chain of a reference given its L1
// origin.
func (a *Analysis) oracleChainFor(origin RefOrigin, id cache.RefID) oracleChain {
	mem := a.Sys.Mem
	if mem.L2 == nil {
		return oracleChain{immediate: mem.BusDelay + mem.MemLatency}
	}
	mid, ok := a.MergedID(origin, id)
	if !ok {
		return oracleChain{immediate: mem.BusDelay + mem.MemLatency}
	}
	if a.Bypass[mid] {
		return oracleChain{immediate: mem.BusDelay + mem.MemLatency}
	}
	l2Lat := mem.BusDelay + mem.L2.HitLatency
	l2Miss := mem.BusDelay + mem.MemLatency
	rc := a.L2.Classes[mid]
	if ov, ok := a.L2Override[mid]; ok {
		rc = cache.RefClass{Class: ov}
	}
	switch rc.Class {
	case cache.AlwaysHit:
		return oracleChain{immediate: l2Lat}
	case cache.Persistent:
		return oracleChain{immediate: l2Lat, l2Event: rc.Scope, l2Penalty: l2Miss}
	default:
		return oracleChain{immediate: l2Lat + l2Miss}
	}
}

// oracleTimings returns the per-block timing rows and the event list
// the retired ComputeWCET built: ExtraEvents first, then each
// reference's events in block, instruction, fetch-then-data order.
func (a *Analysis) oracleTimings() ([][]rowTiming, []ipet.Event) {
	events := append([]ipet.Event(nil), a.ExtraEvents...)
	latFor := func(origin RefOrigin, id cache.RefID, res *cache.Result) (int, int) {
		rc := res.Classes[id]
		ch := a.oracleChainFor(origin, id)
		full := ch.immediate + ch.l2Penalty
		switch rc.Class {
		case cache.AlwaysHit:
			return 0, 0
		case cache.AlwaysMiss, cache.NotClassified:
			if ch.l2Event != nil {
				events = append(events, ipet.Event{Block: id.Block, Penalty: int64(ch.l2Penalty), Scope: ch.l2Event})
			}
			return ch.immediate, full
		default:
			events = append(events, ipet.Event{Block: id.Block, Penalty: int64(ch.immediate), Scope: rc.Scope})
			if ch.l2Event != nil {
				events = append(events, ipet.Event{Block: id.Block, Penalty: int64(ch.l2Penalty), Scope: ch.l2Event})
			}
			return 0, full
		}
	}
	mem := a.Sys.Mem
	lats := make([][]rowTiming, len(a.G.Blocks))
	for _, b := range a.G.Blocks {
		if b.IsExit() {
			continue
		}
		row := make([]rowTiming, b.Len())
		dIdx := 0
		for i, in := range b.Insts() {
			fb, fw := latFor(FromL1I, cache.RefID{Block: b.ID, Seq: i}, a.L1I)
			row[i].base.Fetch, row[i].base.FetchMiss = mem.L1I.HitLatency+fb, fb > 0
			row[i].worst.Fetch, row[i].worst.FetchMiss = mem.L1I.HitLatency+fw, fw > 0
			if in.IsMem() {
				db, dw := latFor(FromL1D, cache.RefID{Block: b.ID, Seq: dIdx}, a.L1D)
				row[i].base.Mem, row[i].base.MemMiss = mem.L1D.HitLatency+db, db > 0
				row[i].worst.Mem, row[i].worst.MemMiss = mem.L1D.HitLatency+dw, dw > 0
				dIdx++
			}
		}
		lats[b.ID] = row
	}
	return lats, events
}

// oracleWCET prices a with the retired map-walking pricing.
func (a *Analysis) oracleWCET() (*ipet.Result, []ipet.Event, [][]rowTiming, error) {
	lats, events := a.oracleTimings()
	base := func(b *cfg.Block, i int) pipeline.InstTiming { return lats[b.ID][i].base }
	worst := func(b *cfg.Block, i int) pipeline.InstTiming { return lats[b.ID][i].worst }
	pipe, err := a.PipeOps.AnalyzeCosts(a.Sys.Pipeline, worst, base)
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := a.Skel.Solve(pipe.Costs(), events)
	return res, events, lats, err
}

// CheckPricingOracle prices a shallow copy of a through ComputeWCET —
// from a's frozen plan if it carries one, else from a per-call plan —
// and reports the first difference from the retired map-walking
// pricing: the timing rows, the event list in order, and the WCET with
// its block, edge and event counts. a itself is left untouched.
func CheckPricingOracle(a *Analysis) error {
	want, wantEvents, wantLats, err := a.oracleWCET()
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	p := a.plan
	if p == nil {
		p = a.compilePlan()
	}
	lats := make([]rowTiming, len(p.rows))
	events := a.price(p, lats, nil)
	if len(events) != len(a.ExtraEvents)+p.events {
		return fmt.Errorf("plan counts %d events beyond %d extra, prices %d", p.events, len(a.ExtraEvents), len(events))
	}
	if !slices.Equal(events, wantEvents) {
		return fmt.Errorf("events %v, oracle %v", events, wantEvents)
	}
	for _, b := range a.G.Blocks {
		if b.IsExit() {
			continue
		}
		first := int(p.rowOf[b.ID])
		if got := lats[first : first+b.Len()]; !slices.Equal(got, wantLats[b.ID]) {
			return fmt.Errorf("block %v timings %+v, oracle %+v", b, got, wantLats[b.ID])
		}
	}
	c := *a
	if err := c.ComputeWCET(); err != nil {
		return err
	}
	got := c.IPET
	switch {
	case c.WCET != want.WCET:
		return fmt.Errorf("WCET %d, oracle %d", c.WCET, want.WCET)
	case !slices.Equal(got.BlockCounts, want.BlockCounts):
		return fmt.Errorf("block counts %v, oracle %v", got.BlockCounts, want.BlockCounts)
	case !slices.Equal(got.EdgeCounts, want.EdgeCounts):
		return fmt.Errorf("edge counts %v, oracle %v", got.EdgeCounts, want.EdgeCounts)
	case !slices.Equal(got.EventCounts, want.EventCounts):
		return fmt.Errorf("event counts %v, oracle %v", got.EventCounts, want.EventCounts)
	}
	return nil
}
