package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
)

// Fingerprint returns a stable content address for the scenario: a
// collision-resistant digest of its canonical JSON encoding, prefixed
// with the schema version. It is the cache key of the analysis service
// and a public contract:
//
//   - Two scenarios that decode equal — regardless of JSON key order,
//     whitespace or indentation in the source document — share one
//     fingerprint, because the digest is taken over the canonical
//     re-encoding (struct field order, sorted map keys), not the input
//     bytes.
//   - Any semantic change (a task's program or bounds, a cache
//     geometry, the sharing mode or its payload, sim or explore
//     budgets, the scenario name) changes the fingerprint.
//   - The "specN-" prefix ties the key to the schema version, so a
//     cache can never serve an entry recorded under a different schema.
//
// The hashed bytes are exactly json.Marshal(s), streamed in two parts:
// the {spec,name,tasks} head and the {system,mode,sim,explore} tail.
// SweepPoints.Fingerprint hashes the head once per task set and only
// the tail per point, and arrives at the same digest.
//
// Analysis is deterministic, so equal fingerprints mean equal reports;
// the fingerprint may therefore key result caches that survive process
// restarts. Only valid scenarios have fingerprints: validation failures
// are returned rather than hashed around.
func (s *Scenario) Fingerprint() (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	h := sha256.New()
	if err := s.encodeHead(h); err != nil {
		return "", err
	}
	return s.fingerprintTail(h)
}

// scenarioHead and scenarioTail split Scenario's fields, tags and order
// unchanged, at the last field a sweep task set determines. Encoded
// back to back they spell json.Marshal of the whole Scenario.
type scenarioHead struct {
	Spec  int        `json:"spec"`
	Name  string     `json:"name,omitempty"`
	Tasks []TaskSpec `json:"tasks"`
}

type scenarioTail struct {
	System  SystemSpec   `json:"system"`
	Mode    ModeSpec     `json:"mode"`
	Sim     *SimSpec     `json:"sim,omitempty"`
	Explore *ExploreSpec `json:"explore,omitempty"`
}

// encodeHead writes the canonical encoding up to and including the
// comma after "tasks": the head object with its closing brace turned
// into the separator the tail continues from.
//
//paralint:canonical the first half of THE canonical scenario encoding; composition with encodeTail pinned equal to json.Marshal(s) by the spec tests
func (s *Scenario) encodeHead(w io.Writer) error {
	b, err := json.Marshal(scenarioHead{Spec: s.Spec, Name: s.Name, Tasks: s.Tasks})
	if err != nil {
		return fmt.Errorf("spec: fingerprint: %w", err)
	}
	b[len(b)-1] = ','
	_, err = w.Write(b)
	return err
}

// encodeTail writes the rest of the canonical encoding: the tail object
// without its opening brace ("system" is never omitted, so it is never
// empty).
//
//paralint:canonical the second half of THE canonical scenario encoding; keycover audits Scenario's fields and the spec tests pin the split to them
func (s *Scenario) encodeTail(w io.Writer) error {
	b, err := json.Marshal(scenarioTail{System: s.System, Mode: s.Mode, Sim: s.Sim, Explore: s.Explore})
	if err != nil {
		return fmt.Errorf("spec: fingerprint: %w", err)
	}
	_, err = w.Write(b[1:])
	return err
}

// fingerprintTail completes h, which holds the head, with the tail and
// formats the digest.
func (s *Scenario) fingerprintTail(h hash.Hash) (string, error) {
	if err := s.encodeTail(h); err != nil {
		return "", err
	}
	return fmt.Sprintf("spec%d-%s", Version, hex.EncodeToString(h.Sum(nil))), nil
}
