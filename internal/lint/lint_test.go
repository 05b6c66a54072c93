package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/keycover.golden from the current tree")

// fixturePath is the import-path pattern of one analyzer fixture,
// relative to the repo root.
func fixturePath(name string) string {
	return "./internal/lint/testdata/src/" + name
}

// fixturePkgPath is the full import path the loader reports for a
// fixture.
func fixturePkgPath(name string) string {
	return "paratime/internal/lint/testdata/src/" + name
}

func loadFixture(t *testing.T, name string) []*Package {
	t.Helper()
	pkgs, err := Load("../..", fixturePath(name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkgs
}

// wantRE extracts the backquoted expectation regexes from a
// `// want `re` `re“ comment.
var wantRE = regexp.MustCompile("`([^`]*)`")

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants scans a fixture package's comments for `// want ...`
// expectations and returns them keyed by "basename:line".
func collectWants(t *testing.T, pkgs []*Package) map[string][]*expectation {
	t.Helper()
	wants := map[string][]*expectation{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
					for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s: bad want regex %q: %v", key, m[1], err)
						}
						wants[key] = append(wants[key], &expectation{re: re})
					}
				}
			}
		}
	}
	return wants
}

// checkFixture runs one analyzer over one fixture package, with refs as
// reference-only packages of the load set, and verifies the diagnostics
// match the `// want` comments exactly.
func checkFixture(t *testing.T, a *Analyzer, fixture string, cfg *Config, refs ...*Package) {
	t.Helper()
	pkgs := loadFixture(t, fixture)
	wants := collectWants(t, pkgs)
	diags, _, err := Run(append(pkgs, refs...), []*Analyzer{a}, cfg)
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, fixture, err)
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("missing diagnostic at %s matching %q", key, w.re)
			}
		}
	}
}

func TestMapIterFixture(t *testing.T) {
	checkFixture(t, MapIter, "mapitertest", nil)
}

func TestNonDetermFixture(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NondetermAllow[fixturePkgPath("nondetermtest")+" allowlisted time.Now"] = true
	checkFixture(t, NonDeterm, "nondetermtest", cfg)
}

// TestNonDetermAllowlistMiss pins that the allowlist key is exact: the
// same callee in a different function stays flagged.
func TestNonDetermAllowlistMiss(t *testing.T) {
	pkgs := loadFixture(t, "nondetermtest")
	cfg := DefaultConfig()
	cfg.NondetermAllow[fixturePkgPath("nondetermtest")+" allowlisted time.Now"] = true
	diags, _, err := Run(pkgs, []*Analyzer{NonDeterm}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, `"`+fixturePkgPath("nondetermtest")+` allowlisted `) {
			t.Errorf("allowlisted site still reported: %s", d)
		}
	}
	wantKey := fixturePkgPath("nondetermtest") + " wallClock time.Now"
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, `"`+wantKey+`"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("diagnostic for wallClock should embed allowlist key %q; got %v", wantKey, diags)
	}
}

func TestSortedOutFixture(t *testing.T) {
	checkFixture(t, SortedOut, "sortedouttest", nil)
}

func TestKeyCoverPrepareFixture(t *testing.T) {
	checkFixture(t, KeyCover, "keycovertest", nil)
}

func TestKeyCoverSpecFixture(t *testing.T) {
	checkFixture(t, KeyCover, "keycoverspec", nil)
}

// TestDeadExportFixture loads a second root reference-only, test files
// included, standing in for perfbench: its calls keep exports alive.
func TestDeadExportFixture(t *testing.T) {
	refs, err := LoadRefs("../..", fixturePath("deadexportbench"))
	if err != nil {
		t.Fatalf("loading second root: %v", err)
	}
	checkFixture(t, DeadExport, "deadexporttest", nil, refs...)
}

// TestKeyCoverInventory pins the prepare-side fixture's inventory shape:
// every field lands in exactly one bucket.
func TestKeyCoverInventory(t *testing.T) {
	pkgs := loadFixture(t, "keycovertest")
	_, results, err := Run(pkgs, []*Analyzer{KeyCover}, nil)
	if err != nil {
		t.Fatal(err)
	}
	inv, ok := results[ResultKey{fixturePkgPath("keycovertest"), "keycover"}].([]string)
	if !ok {
		t.Fatalf("no keycover inventory for fixture; results: %v", results)
	}
	wantLines := map[string]string{
		"keycovertest.SystemConfig.L1":      "preparekey",
		"keycovertest.SystemConfig.Alpha":   "preparekey",
		"keycovertest.SystemConfig.Missing": "UNCOVERED",
		"keycovertest.SystemConfig.Sched":   "fingerprint[tag]",
		"keycovertest.SystemConfig.Workers": "execonly[tag]",
		"keycovertest.SystemConfig.Leaky":   "execonly[tag]",
	}
	got := map[string]string{}
	for _, line := range inv {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, bucket, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed inventory line %q", line)
		}
		got[name] = bucket
	}
	for name, bucket := range wantLines {
		if got[name] != bucket {
			t.Errorf("inventory[%s] = %q, want %q", name, got[name], bucket)
		}
	}
	if len(got) != len(wantLines) {
		t.Errorf("inventory has %d fields, want %d: %v", len(got), len(wantLines), inv)
	}
}

// repoPackages loads the whole repository, perfbench included, for the
// repo-level tests.
func repoPackages(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := LoadRepo("../..")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	return pkgs
}

// TestRepoLintClean is the gate the CI paralint job mirrors: the whole
// repository must be violation-free under the committed configuration.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	diags, _, err := Run(repoPackages(t), Suite(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestKeyCoverGolden pins the committed field inventory: any change to
// what is fingerprinted, spec-assigned, or execution-only shows up as a
// golden diff in review. Regenerate with `go test ./internal/lint
// -run TestKeyCoverGolden -update`.
func TestKeyCoverGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	_, results, err := Run(repoPackages(t), []*Analyzer{KeyCover}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var inv []string
	// Fixed section order: the prepare side (core), then the spec side.
	for _, pkgPath := range []string{"paratime/internal/core", "paratime/internal/spec"} {
		lines, ok := results[ResultKey{pkgPath, "keycover"}].([]string)
		if !ok {
			t.Fatalf("no keycover inventory for %s", pkgPath)
		}
		inv = append(inv, lines...)
	}
	got := strings.Join(inv, "\n") + "\n"
	const golden = "testdata/keycover.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("field inventory drifted from %s (run with -update after review):\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestParseAllowlist pins the allowlist format errors.
func TestParseAllowlist(t *testing.T) {
	allow, err := ParseAllowlist("# comment\n\npkg F time.Now # why\n")
	if err != nil {
		t.Fatal(err)
	}
	if !allow["pkg F time.Now"] {
		t.Errorf("entry not parsed: %v", allow)
	}
	if _, err := ParseAllowlist("pkg F\n"); err == nil {
		t.Error("two-column line should be rejected")
	}
}

// TestSuiteOrder pins the reporting order of the suite.
func TestSuiteOrder(t *testing.T) {
	var names []string
	for _, a := range Suite() {
		names = append(names, a.Name)
	}
	if got, want := strings.Join(names, " "), "mapiter keycover nondeterm sortedout deadexport"; got != want {
		t.Errorf("Suite() order = %q, want %q", got, want)
	}
}

// TestDirectiveLines pins the directive parser against comment styles.
func TestDirectiveLines(t *testing.T) {
	pkgs := loadFixture(t, "sortedouttest")
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			dirs := directiveLines(pkg.Fset, file)
			n := 0
			for _, set := range dirs {
				if set[DirUnordered] || set[DirCanonical] {
					n++
				}
			}
			if n < 4 {
				t.Errorf("expected at least 4 directive lines in fixture, found %d", n)
			}
		}
	}
}
