package spec

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
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

// splitEncoding returns the bytes Fingerprint hashes for s: its head
// and tail encodings, back to back.
func splitEncoding(t testing.TB, s *Scenario) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.encodeHead(&b); err != nil {
		t.Fatal(err)
	}
	if err := s.encodeTail(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkSplitEncoding fails unless the head and tail encodings of s
// compose to exactly json.Marshal(s), the canonical encoding.
func checkSplitEncoding(t testing.TB, label string, s *Scenario) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := splitEncoding(t, s); !bytes.Equal(got, want) {
		t.Fatalf("%s: head+tail encoding differs from json.Marshal:\n got  %s\n want %s", label, got, want)
	}
}

// TestFingerprintSplitCoversScenario: the head and tail encoders,
// taken together, declare exactly Scenario's fields — same names,
// types and json tags, in declaration order — so a field added to
// Scenario cannot silently miss the fingerprint (keycover audits only
// the Scenario struct tree).
func TestFingerprintSplitCoversScenario(t *testing.T) {
	var split []reflect.StructField
	for _, part := range []reflect.Type{reflect.TypeFor[scenarioHead](), reflect.TypeFor[scenarioTail]()} {
		for i := range part.NumField() {
			split = append(split, part.Field(i))
		}
	}
	want := reflect.TypeFor[Scenario]()
	if len(split) != want.NumField() {
		t.Fatalf("head+tail declare %d fields, Scenario %d", len(split), want.NumField())
	}
	for i, f := range split {
		w := want.Field(i)
		if f.Name != w.Name || f.Type != w.Type || f.Tag != w.Tag {
			t.Errorf("field %d: split has %s %s `%s`, Scenario has %s %s `%s`", i, f.Name, f.Type, f.Tag, w.Name, w.Type, w.Tag)
		}
	}
}

// TestFingerprintFieldSources: the Scenario methods in fingerprint.go
// read Scenario fields only as the same-named values of the head and
// tail literals, each field exactly once, so those two encodings are
// the fingerprint's only source.
func TestFingerprintFieldSources(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "fingerprint.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]int{}
	for i := range reflect.TypeFor[Scenario]().NumField() {
		fields[reflect.TypeFor[Scenario]().Field(i).Name] = 0
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv == nil {
			continue
		}
		star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
		if !ok || star.X.(*ast.Ident).Name != "Scenario" {
			t.Fatalf("%s: unexpected receiver in fingerprint.go", fd.Name.Name)
		}
		recv := fd.Recv.List[0].Names[0].Name
		isField := func(e ast.Expr) (string, bool) {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return "", false
			}
			x, ok := sel.X.(*ast.Ident)
			if _, field := fields[sel.Sel.Name]; !ok || x.Name != recv || !field {
				return "", false
			}
			return sel.Sel.Name, true
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				if id, ok := lit.Type.(*ast.Ident); ok && (id.Name == "scenarioHead" || id.Name == "scenarioTail") {
					for _, el := range lit.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							t.Fatalf("%s: %s literal is not keyed", fd.Name.Name, id.Name)
						}
						key := kv.Key.(*ast.Ident).Name
						if name, ok := isField(kv.Value); !ok || name != key {
							t.Errorf("%s: %s.%s is not set from %s.%s", fd.Name.Name, id.Name, key, recv, key)
						} else {
							fields[name]++
						}
					}
					return false
				}
			}
			if e, ok := n.(ast.Expr); ok {
				if name, ok := isField(e); ok {
					t.Errorf("%s reads %s.%s outside the head and tail literals", fd.Name.Name, recv, name)
				}
			}
			return true
		})
	}
	for name, n := range fields {
		if n != 1 {
			t.Errorf("Scenario.%s reaches the head and tail literals %d times, want 1", name, n)
		}
	}
}

// TestFingerprintSplitMatchesMarshal: the composed head and tail are
// byte-identical to json.Marshal for scenarios that exercise every
// omitempty field of the split, both present and absent.
func TestFingerprintSplitMatchesMarshal(t *testing.T) {
	s, err := Decode([]byte(fpBaseJSON))
	if err != nil {
		t.Fatal(err)
	}
	checkSplitEncoding(t, "fp-base", s)
	s.Name = ""
	checkSplitEncoding(t, "empty name", s)
	s.Sim = &SimSpec{MaxCycles: 1000}
	s.Explore = &ExploreSpec{InitStates: 2, Inputs: []InputSpec{{Task: "countdown", Reg: "r1", Values: []int32{0, 3}}}}
	checkSplitEncoding(t, "sim and explore", s)
	s.Tasks = nil
	checkSplitEncoding(t, "nil tasks", s)
	checkSplitEncoding(t, "zero scenario", &Scenario{})
}
