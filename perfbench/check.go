package main

import (
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"

	"paratime/internal/experiments"
	"paratime/internal/spec"
)

// refSeed is the seed whose outputs digests.json records for the seeded
// workloads; every run also replays it and compares.
const refSeed = 0

//go:embed digests.json
var digestsJSON []byte

// digests maps each workload to the SHA-256 of its reference output.
func digests() (map[string]string, error) {
	var d map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// checkReport applies the soundness sandwich to one report: every
// simulated core finishes within its bound, and no explored exact worst
// exceeds the static bound.
func checkReport(rep *spec.Report) error {
	for _, s := range rep.Sim {
		if !s.Sound {
			return fmt.Errorf("%s: simulated %s ran %d cycles, above its bound", rep.Scenario, s.Name, s.Cycles)
		}
	}
	for _, t := range rep.Tasks {
		if t.ExactWorst > t.WCET {
			return fmt.Errorf("%s: %s exact worst %d exceeds WCET %d", rep.Scenario, t.Name, t.ExactWorst, t.WCET)
		}
	}
	return nil
}

// tightness indexes TIGHTNESS.json by scenario and task.
type tightness map[string]map[string]experiments.TightnessEntry

func loadTightness() (tightness, error) {
	data, err := os.ReadFile("TIGHTNESS.json")
	if err != nil {
		return nil, fmt.Errorf("%w (run perfbench from the repository root)", err)
	}
	entries, err := experiments.DecodeTightness(data)
	if err != nil {
		return nil, err
	}
	t := tightness{}
	for _, e := range entries {
		if t[e.Scenario] == nil {
			t[e.Scenario] = map[string]experiments.TightnessEntry{}
		}
		t[e.Scenario][e.Task] = e
	}
	return t, nil
}

// check compares the covered tasks of one report with the baseline and
// returns how many it covered.
func (t tightness) check(rep *spec.Report) (int, error) {
	want := t[rep.Scenario]
	n := 0
	for _, task := range rep.Tasks {
		e, ok := want[task.Name]
		if !ok {
			continue
		}
		if task.ExactWorst != e.Exact || task.WCET != e.Bound {
			return n, fmt.Errorf("%s/%s: exact %d bound %d, TIGHTNESS.json has exact %d bound %d",
				rep.Scenario, task.Name, task.ExactWorst, task.WCET, e.Exact, e.Bound)
		}
		n++
	}
	return n, nil
}

// covered counts the baseline entries, so a corpus op can prove it saw
// every one.
func (t tightness) covered() int {
	n := 0
	for _, tasks := range t {
		n += len(tasks)
	}
	return n
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// writeDigests records every workload's reference-seed output digest.
func writeDigests() error {
	out := map[string]string{}
	for _, name := range []string{"corpus", "sweep", "serve", "large"} {
		d, err := referenceDigest(name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out[name] = d
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join("perfbench", "digests.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}
