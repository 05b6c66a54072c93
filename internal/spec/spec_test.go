package spec

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"paratime/internal/core"
	"paratime/internal/memctrl"
	"paratime/internal/workload"
)

// sampleScenarios covers every mode kind with serializable payloads.
func sampleScenarios(t *testing.T) []*Scenario {
	t.Helper()
	mk := func(name string, tasks []core.Task, mode ModeSpec, sim *SimSpec) *Scenario {
		ts, err := TasksToSpec(tasks)
		if err != nil {
			t.Fatal(err)
		}
		return &Scenario{
			Spec: Version, Name: name, Tasks: ts,
			System: DefaultSystemSpec(), Mode: mode, Sim: sim,
		}
	}
	suite := workload.Suite()
	pair := suite[:2]
	soloExp := mk("solo-explore", suite[:1], ModeSpec{Kind: KindSolo}, &SimSpec{MaxCycles: 1_000_000})
	soloExp.Explore = &ExploreSpec{
		MaxBranchDecisions: 8, InitStates: 2, MaxStates: 64, MaxSteps: 100_000,
		Inputs: []InputSpec{{Task: soloExp.Tasks[0].Name, Reg: "r1", Values: []int32{0, 1, 7}}},
	}
	busExp := mk("bus-explore", pair, ModeSpec{Kind: KindBus, Bus: &BusSpec{Policy: BusRoundRobin}}, nil)
	busExp.Explore = &ExploreSpec{InitStates: 2}
	// smt and pret run on machines, so they take sim and explore blocks.
	smtExp := mk("smt", pair, ModeSpec{Kind: KindSMT, SMT: &SMTSpec{Threads: 4, FULatency: 2, MemLatency: 10}}, &SimSpec{})
	smtExp.Explore = &ExploreSpec{InitStates: 4}
	pretExp := mk("pret", pair, ModeSpec{Kind: KindPRET, PRET: &PretSpec{Threads: 6, WheelWindow: 26, MemLatency: 20}}, &SimSpec{})
	pretExp.Explore = &ExploreSpec{InitStates: 4}
	return []*Scenario{
		mk("solo", suite, ModeSpec{Kind: KindSolo}, &SimSpec{MaxCycles: 1_000_000}),
		soloExp,
		busExp,
		mk("joint", pair, ModeSpec{Kind: KindJoint, Model: ModelDirectMapped}, nil),
		mk("joint-lt", pair, ModeSpec{Kind: KindJoint, Model: ModelAgeShift,
			Lifetimes: []LifetimeSpec{{Core: 0}, {Core: 1, Deps: []int{0}}}}, nil),
		mk("part", pair, ModeSpec{Kind: KindPartition, Partition: &PartitionSpec{Scheme: PartTask}}, nil),
		mk("lock", pair[:1], ModeSpec{Kind: KindLock, Lock: &LockSpec{Policy: LockStatic, BudgetLines: 16}}, nil),
		mk("bus", pair, ModeSpec{Kind: KindBus, Bus: &BusSpec{Policy: BusRoundRobin}}, nil),
		smtExp,
		pretExp,
	}
}

// TestRoundTrip: Decode(Encode(s)) must reproduce s exactly for every
// sample scenario — the losslessness contract of the format.
func TestRoundTrip(t *testing.T) {
	for _, sc := range sampleScenarios(t) {
		data, err := sc.Encode()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(sc, got) {
			t.Errorf("%s: decode(encode(s)) != s\nhave %+v\nwant %+v", sc.Name, got, sc)
		}
		// Encoding must be canonical: a second encode is byte-identical.
		again, err := got.Encode()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if string(data) != string(again) {
			t.Errorf("%s: encoding not canonical", sc.Name)
		}
	}
}

// TestRoundTripSourceTask: source-form tasks survive the round trip too.
func TestRoundTripSourceTask(t *testing.T) {
	sc := &Scenario{
		Spec: Version, Name: "src",
		Tasks: []TaskSpec{{Name: "demo", Source: "        li r1, 3\nloop:   addi r1, r1, -1\n        bne r1, r0, loop\n        halt",
			Bounds: map[string]int{"loop": 3}}},
		System: DefaultSystemSpec(),
		Mode:   ModeSpec{Kind: KindSolo},
	}
	data, err := sc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, got) {
		t.Errorf("source task round trip mismatch:\nhave %+v\nwant %+v", got, sc)
	}
}

// TestDecodeAllArray: the export format (a JSON array) decodes, and the
// single-object form still works.
func TestDecodeAllArray(t *testing.T) {
	scs := sampleScenarios(t)[:3]
	data, err := EncodeAll(scs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scs, got) {
		t.Error("array round trip mismatch")
	}
	one, err := scs[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	single, err := DecodeAll(one)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 || !reflect.DeepEqual(single[0], scs[0]) {
		t.Error("single-object DecodeAll mismatch")
	}
}

// TestValidationRejections: every impossible configuration is rejected
// at decode time with an error mentioning the offending field. The mode
// rows (kind, payloads, L2 need, sim and explore support) pin the whole
// message, so the lists of kinds the errors name cannot drift.
func TestValidationRejections(t *testing.T) {
	base := func() *Scenario {
		ts, err := TasksToSpec(workload.Suite()[:2])
		if err != nil {
			t.Fatal(err)
		}
		return &Scenario{Spec: Version, Tasks: ts, System: DefaultSystemSpec(), Mode: ModeSpec{Kind: KindSolo}}
	}
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		wantSub string
	}{
		{"bad version", func(s *Scenario) { s.Spec = 2 }, "schema version"},
		{"no tasks", func(s *Scenario) { s.Tasks = nil }, "no tasks"},
		{"unnamed task", func(s *Scenario) { s.Tasks[0].Name = "" }, "no name"},
		{"dup task", func(s *Scenario) { s.Tasks[1].Name = s.Tasks[0].Name }, "duplicate"},
		{"source and program", func(s *Scenario) { s.Tasks[0].Source = "halt" }, "exactly one"},
		{"neither source nor program", func(s *Scenario) { s.Tasks[0].Program = nil }, "exactly one"},
		{"bad opcode", func(s *Scenario) { s.Tasks[0].Program.Insts[0].Op = "frobnicate" }, "unknown opcode"},
		{"zero bound", func(s *Scenario) { s.Tasks[0].Bounds = map[string]int{"loop": 0} }, "positive"},
		{"bypass outside joint", func(s *Scenario) { s.Tasks[0].Bypass = true }, "bypass"},
		{"unknown kind", func(s *Scenario) { s.Mode.Kind = "quantum" }, `spec: unknown mode kind "quantum" (known: [bus joint lock partition pret smt solo])`},
		{"stray payload", func(s *Scenario) { s.Mode.SMT = &SMTSpec{Threads: 2, FULatency: 1, MemLatency: 1} },
			`spec: mode "solo" does not take a "smt" payload`},
		{"joint without L2", func(s *Scenario) { s.Mode.Kind = KindJoint; s.System.L2 = nil }, `spec: mode "joint" needs a shared L2; add system.l2`},
		{"unknown model", func(s *Scenario) { s.Mode.Kind = KindJoint; s.Mode.Model = "psychic" }, "conflict model"},
		{"lifetime dep range", func(s *Scenario) {
			s.Mode.Kind = KindJoint
			s.Mode.Lifetimes = []LifetimeSpec{{Deps: []int{7}}, {}}
		}, "outside"},
		{"partition without payload", func(s *Scenario) { s.Mode.Kind = KindPartition }, `spec: mode "partition" needs a partition payload`},
		{"bad partition scheme", func(s *Scenario) {
			s.Mode.Kind = KindPartition
			s.Mode.Partition = &PartitionSpec{Scheme: "diagonal"}
		}, "partition scheme"},
		{"ways out of range", func(s *Scenario) {
			s.Mode.Kind = KindPartition
			s.Mode.Partition = &PartitionSpec{Scheme: PartWays, Ways: 99}
		}, "ways"},
		{"bad lock policy", func(s *Scenario) {
			s.Mode.Kind = KindLock
			s.Mode.Lock = &LockSpec{Policy: "hopeful", BudgetLines: 4}
		}, "lock policy"},
		{"bus with busDelay", func(s *Scenario) {
			s.Mode.Kind = KindBus
			s.Mode.Bus = &BusSpec{Policy: BusRoundRobin}
			s.System.BusDelay = 3
		}, `spec: mode "bus" derives per-core bus bounds from the arbiter; remove system.busDelay`},
		{"tdma slot too short", func(s *Scenario) {
			s.Mode.Kind = KindBus
			s.Mode.Bus = &BusSpec{Policy: BusTDMA, Latency: 6,
				Slots: []SlotSpec{{Owner: 0, Len: 3}, {Owner: 1, Len: 8}}}
		}, "cannot fit"},
		{"tdma missing owner", func(s *Scenario) {
			s.Mode.Kind = KindBus
			s.Mode.Bus = &BusSpec{Policy: BusTDMA, Latency: 6, Slots: []SlotSpec{{Owner: 0, Len: 8}}}
		}, "no slot for core"},
		{"mbba weight count", func(s *Scenario) {
			s.Mode.Kind = KindBus
			s.Mode.Bus = &BusSpec{Policy: BusMBBA, Weights: []int{1}}
		}, "one weight per task"},
		{"too many smt tasks", func(s *Scenario) {
			s.Mode.Kind = KindSMT
			s.Mode.SMT = &SMTSpec{Threads: 1, FULatency: 2, MemLatency: 10}
		}, "hardware threads"},
		{"pret wheel too small", func(s *Scenario) {
			s.Mode.Kind = KindPRET
			s.Mode.PRET = &PretSpec{Threads: 6, WheelWindow: 5, MemLatency: 20}
		}, "wheelWindow"},
		{"sim in lock mode", func(s *Scenario) {
			s.Mode.Kind = KindLock
			s.Mode.Lock = &LockSpec{Policy: LockStatic, BudgetLines: 4}
			s.Sim = &SimSpec{}
		}, `spec: sim validation is not supported in mode "lock"; remove the sim block`},
		{"bad cache geometry", func(s *Scenario) { s.System.L1I.Sets = 3 }, "powers of two"},
		{"explore in lock mode", func(s *Scenario) {
			s.Mode.Kind = KindLock
			s.Mode.Lock = &LockSpec{Policy: LockStatic, BudgetLines: 4}
			s.Explore = &ExploreSpec{}
		}, `spec: explore is not supported in mode "lock" (supported: "solo", "joint", "partition", "bus", "smt", "pret")`},
		{"explore unknown task", func(s *Scenario) {
			s.Explore = &ExploreSpec{Inputs: []InputSpec{{Task: "ghost", Reg: "r1", Values: []int32{0}}}}
		}, "unknown task"},
		{"explore unknown register", func(s *Scenario) {
			s.Explore = &ExploreSpec{Inputs: []InputSpec{{Task: s.Tasks[0].Name, Reg: "r99", Values: []int32{0}}}}
		}, "unknown register"},
		{"explore r0 input", func(s *Scenario) {
			s.Explore = &ExploreSpec{Inputs: []InputSpec{{Task: s.Tasks[0].Name, Reg: "r0", Values: []int32{0}}}}
		}, "hardwired"},
		{"explore no values", func(s *Scenario) {
			s.Explore = &ExploreSpec{Inputs: []InputSpec{{Task: s.Tasks[0].Name, Reg: "r1"}}}
		}, "values"},
		{"explore too many values", func(s *Scenario) {
			s.Explore = &ExploreSpec{Inputs: []InputSpec{{Task: s.Tasks[0].Name, Reg: "r1", Values: make([]int32, 17)}}}
		}, "values"},
		{"explore duplicate input", func(s *Scenario) {
			s.Explore = &ExploreSpec{Inputs: []InputSpec{
				{Task: s.Tasks[0].Name, Reg: "r1", Values: []int32{0}},
				{Task: s.Tasks[0].Name, Reg: "r1", Values: []int32{1}},
			}}
		}, "duplicates"},
		{"explore initStates bound", func(s *Scenario) {
			s.Explore = &ExploreSpec{InitStates: 65}
		}, "initStates"},
		{"explore decision bound", func(s *Scenario) {
			s.Explore = &ExploreSpec{MaxBranchDecisions: 31}
		}, "maxBranchDecisions"},
		{"explore maxStates bound", func(s *Scenario) {
			s.Explore = &ExploreSpec{MaxStates: 1<<20 + 1}
		}, "maxStates"},
		{"explore negative steps", func(s *Scenario) {
			s.Explore = &ExploreSpec{MaxSteps: -1}
		}, "maxSteps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base()
			tc.mutate(sc)
			err := sc.Validate()
			if err == nil {
				t.Fatalf("accepted invalid scenario")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestDecodeRejectsUnknownFields: a typo'd field name fails instead of
// being silently dropped.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	sc := sampleScenarios(t)[0]
	data, err := sc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["modee"] = json.RawMessage(`{"kind":"solo"}`)
	bad, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bad); err == nil {
		t.Error("unknown field accepted")
	}
	// Unknown fields nested inside the explore block fail too.
	delete(raw, "modee")
	raw["explore"] = json.RawMessage(`{"maxStatez": 5}`)
	bad, err = json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bad); err == nil {
		t.Error("unknown explore field accepted")
	}
}

// TestDecodeRejectsTrailingData: anything after the JSON value —
// well-formed or garbage — is rejected in both the single-object and
// array forms.
func TestDecodeRejectsTrailingData(t *testing.T) {
	sc := sampleScenarios(t)[0]
	obj, err := sc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	arr, err := EncodeAll([]*Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	for _, trailer := range []string{"}garbage", "{}", "null", "[1]"} {
		if _, err := Decode(append(append([]byte(nil), obj...), trailer...)); err == nil {
			t.Errorf("Decode accepted trailing %q", trailer)
		}
		if _, err := DecodeAll(append(append([]byte(nil), arr...), trailer...)); err == nil {
			t.Errorf("DecodeAll accepted trailing %q", trailer)
		}
	}
}

// TestStringIsTotal: String must not panic on unvalidated scenarios
// with missing mode payloads — diagnostics call it on invalid values.
func TestStringIsTotal(t *testing.T) {
	for _, kind := range []string{KindSolo, KindJoint, KindPartition, KindLock, KindBus, KindSMT, KindPRET, "bogus"} {
		s := &Scenario{Mode: ModeSpec{Kind: kind}}
		if got := s.String(); !strings.Contains(got, kind) && kind != "bogus" {
			t.Errorf("String() = %q lacks kind %q", got, kind)
		}
	}
}

// TestSystemSpecRoundTrip: SystemToSpec/BuildSystem invert each other
// on the canonical default (the dedup contract between the facade and
// the experiments).
func TestSystemSpecRoundTrip(t *testing.T) {
	want := core.DefaultSystem()
	got, err := DefaultSystemSpec().BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("BuildSystem(DefaultSystemSpec()) = %+v, want %+v", got, want)
	}
	// A non-default memory latency survives.
	sys := core.DefaultSystem()
	sys.Mem.MemLatency = 77
	got, err = SystemToSpec(sys, memctrl.DefaultConfig()).BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	if got.Mem.MemLatency != 77 {
		t.Errorf("MemLatency %d, want 77", got.Mem.MemLatency)
	}
}

// TestScenarioString smoke-tests the text rendering.
func TestScenarioString(t *testing.T) {
	for _, sc := range sampleScenarios(t) {
		s := sc.String()
		if !strings.Contains(s, sc.Mode.Kind) || !strings.Contains(s, sc.Name) {
			t.Errorf("String() = %q lacks mode/name", s)
		}
	}
}

// FuzzScenarioDecode: any input that decodes must re-encode and decode
// again to the same value (decode/encode idempotence), its fingerprint's
// head and tail encodings must compose to its canonical encoding, and
// decoding must never panic.
func FuzzScenarioDecode(f *testing.F) {
	tasks, err := TasksToSpec(workload.Suite()[:2])
	if err != nil {
		f.Fatal(err)
	}
	seeds := []*Scenario{
		{Spec: Version, Name: "seed-solo", Tasks: tasks, System: DefaultSystemSpec(), Mode: ModeSpec{Kind: KindSolo}},
		{Spec: Version, Name: "seed-joint", Tasks: tasks, System: DefaultSystemSpec(),
			Mode: ModeSpec{Kind: KindJoint, Model: ModelAgeShift}},
		{Spec: Version, Name: "seed-bus", Tasks: tasks, System: DefaultSystemSpec(),
			Mode: ModeSpec{Kind: KindBus, Bus: &BusSpec{Policy: BusRoundRobin}}, Sim: &SimSpec{MaxCycles: 1000}},
		{Spec: Version, Name: "seed-explore", Tasks: tasks, System: DefaultSystemSpec(),
			Mode:    ModeSpec{Kind: KindSolo},
			Explore: &ExploreSpec{InitStates: 2, Inputs: []InputSpec{{Task: tasks[0].Name, Reg: "r1", Values: []int32{0, 1}}}}},
	}
	for _, sc := range seeds {
		data, err := sc.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"spec":1}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Decode(data)
		if err != nil {
			return // invalid input is fine; panics are not
		}
		enc, err := sc.Encode()
		if err != nil {
			t.Fatalf("decoded scenario fails to encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("decode/encode not idempotent:\nfirst  %+v\nsecond %+v", sc, again)
		}
		checkSplitEncoding(t, "decoded scenario", sc)
	})
}
