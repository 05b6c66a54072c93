package smt_test

import (
	"testing"

	"paratime/internal/isa"
	"paratime/internal/smt"
)

// defaultPret is the classic six-thread PRET arrangement.
func defaultPret() smt.PretConfig { return smt.PretConfig{Threads: 6, WheelWindow: 26, MemLatency: 20} }

func countdown(n int) *isa.Program {
	b := isa.NewBuilder("countdown")
	b.Li(isa.R1, int32(n))
	b.Label("loop").OpI(isa.ADDI, isa.R1, isa.R1, -1)
	b.Br(isa.BNE, isa.R1, isa.R0, "loop")
	b.Halt()
	return b.MustDone()
}

func memLoop(n int) *isa.Program {
	b := isa.NewBuilder("memloop")
	arr := b.DataWords("arr", 1, 2, 3, 4)
	_ = arr
	b.Li(isa.R1, int32(n))
	b.La(isa.R3, "arr")
	b.Label("loop").Ld(isa.R2, isa.R3, 0)
	b.Op3(isa.ADD, isa.R4, isa.R4, isa.R2)
	b.OpI(isa.ADDI, isa.R1, isa.R1, -1)
	b.Br(isa.BNE, isa.R1, isa.R0, "loop")
	b.Halt()
	return b.MustDone()
}

func TestPretWCETBoundsSim(t *testing.T) {
	pc := defaultPret()
	for _, p := range []*isa.Program{countdown(30), memLoop(20)} {
		bound, err := pc.AnalyzeWCET(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		times, err := pc.SimulatePret([]*isa.Program{p}, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if bound < times[0] {
			t.Errorf("%s: UNSOUND PRET bound %d < sim %d", p.Name, bound, times[0])
		}
	}
}

// TestPretIndependence is E15's core claim: a PRET thread's simulated
// timing is bit-identical under every co-runner mix.
func TestPretIndependence(t *testing.T) {
	pc := defaultPret()
	victim := memLoop(25)
	mixes := [][]*isa.Program{
		{victim},
		{victim, countdown(100)},
		{victim, countdown(100), memLoop(50), countdown(7)},
		{victim, memLoop(200), memLoop(200), memLoop(200), memLoop(200), countdown(999)},
	}
	var ref int64 = -1
	for i, mix := range mixes {
		times, err := pc.SimulatePret(mix, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if ref < 0 {
			ref = times[0]
		} else if times[0] != ref {
			t.Errorf("mix %d: victim time %d differs from solo %d", i, times[0], ref)
		}
	}
}

func TestPretValidation(t *testing.T) {
	bad := smt.PretConfig{Threads: 2, WheelWindow: 5, MemLatency: 10}
	if err := bad.Validate(); err == nil {
		t.Error("window smaller than access accepted")
	}
	pc := defaultPret()
	if _, err := pc.SimulatePret(make([]*isa.Program, 7), 100); err == nil {
		t.Error("more programs than threads accepted")
	}
}

func TestCarCoreHRTUnaffected(t *testing.T) {
	solo := int64(12345)
	retired := uint64(4000)
	for _, nhrts := range [][]*isa.Program{
		nil,
		{countdown(10)},
		{countdown(1000), memLoop(500), countdown(31)},
	} {
		res, err := smt.SimulateCarCore(solo, retired, nhrts, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if res.HRTCycles != solo {
			t.Fatalf("HRT cycles changed: %d != %d", res.HRTCycles, solo)
		}
	}
}

func TestCarCoreNHRTProgress(t *testing.T) {
	res, err := smt.SimulateCarCore(10_000, 2_000, []*isa.Program{countdown(100), countdown(100)}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	total := res.NHRTRetired[0] + res.NHRTRetired[1]
	if total == 0 {
		t.Error("NHRTs made no progress in 8000 free slots")
	}
	// Progress cannot exceed the free slots.
	if total > 8_000 {
		t.Errorf("NHRTs retired %d > free slots", total)
	}
}

func TestCarCoreRejectsBadInput(t *testing.T) {
	if _, err := smt.SimulateCarCore(10, 20, nil, 100); err == nil {
		t.Error("retired > cycles accepted")
	}
}

func TestBarreWCETBoundsSim(t *testing.T) {
	cfg := smt.BarreConfig{Threads: 4, FULatency: 2, MemLatency: 10}
	progs := []*isa.Program{countdown(40), memLoop(30), countdown(17), memLoop(8)}
	times, err := cfg.SimulateBarre(progs, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range progs {
		bound, err := cfg.AnalyzeWCET(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bound < times[i] {
			t.Errorf("thread %d (%s): UNSOUND bound %d < sim %d", i, p.Name, bound, times[i])
		}
	}
}

func TestBarreIssueBound(t *testing.T) {
	cfg := smt.BarreConfig{Threads: 4, FULatency: 3, MemLatency: 10}
	if cfg.IssueBound() != 9 {
		t.Errorf("issue bound = %d, want (K-1)*L = 9", cfg.IssueBound())
	}
}

func TestSharedQueueStarvationUnbounded(t *testing.T) {
	// The victim's delay grows with the co-runner's stall length: no
	// workload-independent bound exists (the survey's argument for
	// partitioned queues).
	d1 := smt.SharedQueueStarvation(4, 10, 100)
	d2 := smt.SharedQueueStarvation(4, 10, 10_000)
	if d2 <= d1 {
		t.Errorf("starvation should scale with co-runner stalls: %d vs %d", d1, d2)
	}
	// Contrast: the Barre issue bound is independent of co-runner
	// behaviour by definition (it is a constant of the configuration).
	cfg := smt.BarreConfig{Threads: 4, FULatency: 3, MemLatency: 10}
	if cfg.IssueBound() != (cfg.Threads-1)*cfg.FULatency {
		t.Error("issue bound depends on nothing but the configuration")
	}
}
