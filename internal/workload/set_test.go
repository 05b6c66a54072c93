package workload

import (
	"slices"
	"strings"
	"testing"
)

// TestSetNamesSortedAndResolvable: the vocabulary is sorted, contains
// "suite", and every listed name resolves.
func TestSetNamesSortedAndResolvable(t *testing.T) {
	names := SetNames()
	if !slices.IsSorted(names) {
		t.Errorf("SetNames() not sorted: %v", names)
	}
	if !slices.Contains(names, "suite") {
		t.Errorf("SetNames() missing \"suite\": %v", names)
	}
	for _, name := range names {
		if _, err := Set(name); err != nil {
			t.Errorf("Set(%q): %v", name, err)
		}
	}
}

// TestSetComposite: "+"-joined sets materialize components at disjoint
// slots in list order, deterministically.
func TestSetComposite(t *testing.T) {
	tasks, err := Set("fib24+crc16")
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 || tasks[0].Name != "fib24" || tasks[1].Name != "crc16" {
		t.Fatalf("fib24+crc16 = %v", tasks)
	}
	// Same name, same bytes: the programs must be identical across calls.
	again, err := Set("fib24+crc16")
	if err != nil {
		t.Fatal(err)
	}
	for i := range tasks {
		if tasks[i].Prog.Fingerprint() != again[i].Prog.Fingerprint() {
			t.Errorf("task %d differs between identical Set calls", i)
		}
	}
	// Component order is position-significant: crc16 at slot 0 is a
	// different program image than crc16 at slot 1.
	rev, err := Set("crc16+fib24")
	if err != nil {
		t.Fatal(err)
	}
	if rev[0].Prog.Fingerprint() == tasks[1].Prog.Fingerprint() {
		t.Error("crc16 at slot 0 and slot 1 produced the same image")
	}
}

// TestSetSuiteMatchesSuite: the "suite" name is exactly Suite().
func TestSetSuiteMatchesSuite(t *testing.T) {
	tasks, err := Set("suite")
	if err != nil {
		t.Fatal(err)
	}
	want := Suite()
	if len(tasks) != len(want) {
		t.Fatalf("Set(suite) has %d tasks, Suite() has %d", len(tasks), len(want))
	}
	for i := range tasks {
		if tasks[i].Name != want[i].Name {
			t.Errorf("task %d: %q vs %q", i, tasks[i].Name, want[i].Name)
		}
	}
}

// TestSetUnknown: unknown names error and the message teaches the
// vocabulary.
func TestSetUnknown(t *testing.T) {
	for _, name := range []string{"nosuch", "fib24+nosuch", ""} {
		_, err := Set(name)
		if err == nil {
			t.Errorf("Set(%q) accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "suite") {
			t.Errorf("Set(%q) error does not list vocabulary: %v", name, err)
		}
	}
}

// TestCheckSetMatchesSet: CheckSet accepts exactly the names Set
// resolves and fails with Set's error text.
func TestCheckSetMatchesSet(t *testing.T) {
	for _, name := range []string{"suite", "fib24", "fib24+crc16", "nosuch", "fib24+nosuch", "suite+fib24", ""} {
		_, setErr := Set(name)
		checkErr := CheckSet(name)
		if (setErr == nil) != (checkErr == nil) || (setErr != nil && setErr.Error() != checkErr.Error()) {
			t.Errorf("%q: Set error %v, CheckSet error %v", name, setErr, checkErr)
		}
	}
}
