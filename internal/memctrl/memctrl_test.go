package memctrl

import (
	"math/rand"
	"testing"
)

func TestValidate(t *testing.T) {
	bad := []Config{
		{Banks: 3, CAS: 1},
		{Banks: 4, CAS: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("accepted %+v", c)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClosedPageConstantCompletion(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	// Spaced-out accesses (no precharge overlap) always take
	// Activate+CAS.
	var prev int64
	for i := 0; i < 20; i++ {
		start := prev + 100
		done := c.Access(uint32(i*64), start)
		if done-start != int64(cfg.Activate+cfg.CAS) {
			t.Errorf("closed-page latency = %d, want %d", done-start, cfg.Activate+cfg.CAS)
		}
		prev = done
	}
}

func TestOpenPageRowHitFaster(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClosedPage = false
	c := New(cfg)
	first := c.Access(0x1000, 0)
	second := c.Access(0x1004, first) // same row, same bank
	if second-first != int64(cfg.CAS) {
		t.Errorf("row hit latency = %d, want CAS %d", second-first, cfg.CAS)
	}
	if c.RowHits != 1 {
		t.Errorf("row hits = %d", c.RowHits)
	}
	// A different row in the same bank pays the full conflict penalty.
	conflictAddr := uint32(0x1000 + (1<<cfg.RowBits)<<6) // same bank, different row
	third := c.Access(conflictAddr, second)
	if third-second != int64(cfg.Precharge+cfg.Activate+cfg.CAS) {
		t.Errorf("row conflict latency = %d, want %d", third-second, cfg.Precharge+cfg.Activate+cfg.CAS)
	}
}

func TestBoundHolds(t *testing.T) {
	for _, closed := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.ClosedPage = closed
		c := New(cfg)
		rng := rand.New(rand.NewSource(7))
		tnow := int64(0)
		for i := 0; i < 2000; i++ {
			tnow += int64(rng.Intn(5))
			addr := uint32(rng.Intn(1 << 16))
			done := c.Access(addr, tnow)
			if done-tnow > int64(cfg.Bound()) {
				t.Fatalf("closed=%v: access latency %d exceeds bound %d", closed, done-tnow, cfg.Bound())
			}
			tnow = done
		}
	}
}

func TestOpenBeatsClosedOnLocality(t *testing.T) {
	open := DefaultConfig()
	open.ClosedPage = false
	closed := DefaultConfig()
	co, cc := New(open), New(closed)
	var to, tc int64
	for i := 0; i < 100; i++ {
		addr := uint32(0x2000 + i*4) // sequential same-row traffic
		to = co.Access(addr, to)
		tc = cc.Access(addr, tc)
	}
	if to >= tc {
		t.Errorf("open page should win on locality: open %d vs closed %d", to, tc)
	}
}

func TestReset(t *testing.T) {
	c := New(DefaultConfig())
	c.Access(0, 0)
	c.Reset()
	if c.Accesses != 0 {
		t.Error("reset did not clear stats")
	}
}
