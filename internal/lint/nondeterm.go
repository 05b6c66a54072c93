package lint

import (
	"go/ast"
	"go/token"
)

// NonDeterm forbids the ambient-nondeterminism entry points in
// result-producing code: wall-clock reads (time.Now / time.Since),
// environment lookups (os.Getenv / os.LookupEnv / os.Environ), draws
// from math/rand's globally-seeded source (rand.Intn and friends —
// explicitly seeded rand.New(rand.NewSource(k)) generators are
// deterministic and stay legal), and bare go statements outside
// internal/parallel (concurrency must flow through the audited
// fork/join primitive or a listed site). Sanctioned sites live in
// allow_nondeterm.txt as "<pkgpath> <func> <callee>" entries.
var NonDeterm = &Analyzer{
	Name: "nondeterm",
	Doc:  "forbids wall-clock, environment, global-rand and unaudited goroutines in result-producing packages",
	Run:  runNonDeterm,
}

// forbiddenCalls maps (package path, function) to the callee label used
// in diagnostics and allowlist entries.
var forbiddenCalls = map[[2]string]string{
	{"time", "Now"}:     "time.Now",
	{"time", "Since"}:   "time.Since",
	{"time", "Until"}:   "time.Until",
	{"os", "Getenv"}:    "os.Getenv",
	{"os", "LookupEnv"}: "os.LookupEnv",
	{"os", "Environ"}:   "os.Environ",
}

// globalRandFuncs are the math/rand and math/rand/v2 package-level
// functions that draw from the shared, randomly-seeded source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "Perm": true, "Shuffle": true,
	"Seed": true, "NormFloat64": true, "ExpFloat64": true, "Read": true,
	// math/rand/v2 spellings
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32N": true, "Uint64N": true,
}

func runNonDeterm(pass *Pass) (any, error) {
	pkgPath := pass.Pkg.PkgPath
	goExempt := pass.Config.goStmtExempt(pkgPath)
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if goExempt {
					return true
				}
				pass.flagNondeterm(file, n.Pos(), "go",
					"bare go statement outside internal/parallel: route concurrency through parallel.For or allowlist this site")
			case *ast.CallExpr:
				cp, name, ok := calleePkgFunc(pass.Pkg.Info, n)
				if !ok {
					return true
				}
				label, bad := forbiddenCalls[[2]string{cp, name}]
				if !bad && (cp == "math/rand" || cp == "math/rand/v2") && globalRandFuncs[name] {
					label, bad = "rand."+name, true
				}
				if bad {
					pass.flagNondeterm(file, n.Pos(), label,
						label+" is nondeterministic in a result-producing package")
				}
			}
			return true
		})
	}
	return nil, nil
}

// flagNondeterm reports pos unless "<pkgpath> <func> <callee>" is
// allowlisted; the diagnostic embeds the exact allowlist key so a
// sanctioned new site is a copy-paste plus a justification comment.
func (p *Pass) flagNondeterm(file *ast.File, pos token.Pos, callee, msg string) {
	fn := enclosingFuncName(file, pos)
	key := p.Pkg.PkgPath + " " + fn + " " + callee
	if p.Config.NondetermAllow[key] {
		return
	}
	p.Reportf(pos, "%s (allowlist key: %q)", msg, key)
}
