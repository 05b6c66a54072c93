package spec

import (
	"strings"
	"testing"

	"paratime/internal/workload"
)

// fpBaseJSON is the reference scenario for the fingerprint contract
// tests, written with a deliberate key order that the reordered variant
// permutes.
const fpBaseJSON = `{
  "spec": 1,
  "name": "fp-base",
  "tasks": [
    {
      "name": "countdown",
      "source": "        li   r1, 10\nloop:   addi r1, r1, -1\n        bne  r1, r0, loop\n        halt",
      "bounds": {"loop": 10}
    }
  ],
  "system": {
    "l1i": {"sets": 16, "ways": 2, "lineBytes": 16, "hitLatency": 1, "missPenalty": 4},
    "l1d": {"sets": 16, "ways": 2, "lineBytes": 16, "hitLatency": 1, "missPenalty": 4},
    "l2": {"sets": 32, "ways": 4, "lineBytes": 32, "hitLatency": 4, "missPenalty": 20}
  },
  "mode": {"kind": "solo"}
}`

// fpReorderedJSON is the same scenario with every object's keys
// permuted (and different whitespace); it must decode to the same
// fingerprint.
const fpReorderedJSON = `{
	"mode": {"kind": "solo"},
	"system": {
		"l2": {"missPenalty": 20, "hitLatency": 4, "lineBytes": 32, "ways": 4, "sets": 32},
		"l1d": {"hitLatency": 1, "missPenalty": 4, "sets": 16, "lineBytes": 16, "ways": 2},
		"l1i": {"ways": 2, "sets": 16, "hitLatency": 1, "lineBytes": 16, "missPenalty": 4}
	},
	"tasks": [
		{
			"bounds": {"loop": 10},
			"source": "        li   r1, 10\nloop:   addi r1, r1, -1\n        bne  r1, r0, loop\n        halt",
			"name": "countdown"
		}
	],
	"name": "fp-base",
	"spec": 1
}`

func mustFingerprint(t *testing.T, data string) string {
	t.Helper()
	s, err := Decode([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestFingerprintInvariantUnderKeyReordering: the cache key must depend
// on scenario content, not on how the JSON document happened to be laid
// out.
func TestFingerprintInvariantUnderKeyReordering(t *testing.T) {
	base := mustFingerprint(t, fpBaseJSON)
	if !strings.HasPrefix(base, "spec1-") {
		t.Errorf("fingerprint %q lacks the schema-version prefix", base)
	}
	if got := mustFingerprint(t, fpReorderedJSON); got != base {
		t.Errorf("reordered JSON fingerprint %q != base %q", got, base)
	}
	// Stability across an encode/decode round trip (the export format).
	s, err := Decode([]byte(fpBaseJSON))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := mustFingerprint(t, string(out)); got != base {
		t.Errorf("round-tripped fingerprint %q != base %q", got, base)
	}
}

// TestFingerprintChangesWithSemantics: every semantic edit must move the
// fingerprint, and distinct edits must not collide with each other.
func TestFingerprintChangesWithSemantics(t *testing.T) {
	base := mustFingerprint(t, fpBaseJSON)
	mutations := map[string]func(*Scenario){
		"name":        func(s *Scenario) { s.Name = "fp-other" },
		"task name":   func(s *Scenario) { s.Tasks[0].Name = "countup" },
		"task source": func(s *Scenario) { s.Tasks[0].Source = strings.Replace(s.Tasks[0].Source, "10", "11", 1) },
		"loop bound":  func(s *Scenario) { s.Tasks[0].Bounds["loop"] = 11 },
		"l1i sets":    func(s *Scenario) { s.System.L1I.Sets = 32 },
		"l2 ways":     func(s *Scenario) { s.System.L2.Ways = 8 },
		"drop l2":     func(s *Scenario) { s.System.L2 = nil },
		"mem latency": func(s *Scenario) { s.System.MemLatency = 77 },
		"bus delay":   func(s *Scenario) { s.System.BusDelay = 5 },
		"mode kind": func(s *Scenario) {
			s.Mode = ModeSpec{Kind: KindLock, Lock: &LockSpec{Policy: LockStatic, BudgetLines: 4}}
		},
		"add sim":     func(s *Scenario) { s.Sim = &SimSpec{MaxCycles: 1000} },
		"add explore": func(s *Scenario) { s.Explore = &ExploreSpec{InitStates: 2} },
		"second task": func(s *Scenario) { s.Tasks = append(s.Tasks, s.Tasks[0]); s.Tasks[1].Name = "twin" },
		"pipeline exLat": func(s *Scenario) {
			s.System.Pipeline = &PipelineSpec{ExLat: map[string]int{"alu": 2}, BranchPenalty: 1}
		},
	}
	seen := map[string]string{base: "base"}
	for label, mutate := range mutations {
		s, err := Decode([]byte(fpBaseJSON))
		if err != nil {
			t.Fatal(err)
		}
		mutate(s)
		fp, err := s.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutation %q collides with %q (fingerprint %s)", label, prev, fp)
			continue
		}
		seen[fp] = label
	}
}

// TestFingerprintRejectsInvalid: invalid scenarios have no fingerprint —
// a cache must never be keyed by something that cannot run.
func TestFingerprintRejectsInvalid(t *testing.T) {
	s := &Scenario{Spec: Version} // no tasks
	if fp, err := s.Fingerprint(); err == nil {
		t.Errorf("invalid scenario fingerprinted as %q", fp)
	}
	s2 := &Scenario{Spec: 99}
	if _, err := s2.Fingerprint(); err == nil {
		t.Error("wrong schema version fingerprinted")
	}
}

// TestFingerprintGolden pins Fingerprint bytes. Manifests and the serve
// disk cache persist results under these keys, so a change here would
// orphan every stored result: the encoding may only change together
// with the schema version. The first scenario is the exported
// "e1-solo-suite" request (prebuilt programs, sim and explore blocks),
// rebuilt here the way the experiments export it; the second is the
// assembly-source reference scenario.
func TestFingerprintGolden(t *testing.T) {
	tasks, err := TasksToSpec(workload.Suite())
	if err != nil {
		t.Fatal(err)
	}
	e1 := &Scenario{
		Spec:    Version,
		Name:    "e1-solo-suite",
		Tasks:   tasks,
		System:  DefaultSystemSpec(),
		Mode:    ModeSpec{Kind: KindSolo},
		Sim:     &SimSpec{MaxCycles: 200_000_000},
		Explore: &ExploreSpec{InitStates: 4},
	}
	got, err := e1.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if want := "spec1-90a357e409c8858e3edc056ea555d147416e7012848b2992021632c1a15e2f9c"; got != want {
		t.Errorf("e1-solo-suite fingerprint = %s, want %s", got, want)
	}
	if got, want := mustFingerprint(t, fpBaseJSON), "spec1-8c5d9b52cf15a2aeb0f4890dc489683b0754c8e07aeff3455efb43f616cddd63"; got != want {
		t.Errorf("fp-base fingerprint = %s, want %s", got, want)
	}
}
