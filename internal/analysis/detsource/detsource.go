// Package detsource forbids nondeterminism sources inside the packages
// whose behavior must replay byte-identically: wall-clock reads
// (time.Now and friends), the process-global math/rand generators, and
// map-order-dependent selection. DiCE's guarantees — reset ≡ cold golden
// tests, content-addressed checkpoints, cross-process delta comparison,
// provably-identical path-cache re-runs — all assume that executing the
// same campaign twice touches the same bytes; one stray time.Now in a
// checkpoint path (the unscrubbed symbolic shadow of PR 5 was this bug
// class in another guise) makes detections irreproducible.
//
// A package is deterministic if its import path is in the built-in set
// (checkpoint, codec, concolic, netem, node, bird, frr, bgp, rib, policy,
// topology, faults, fuzz) or any of its files carries a
// `//dice:deterministic` package directive.
//
// Allowed patterns:
//
//   - injected clocks: referencing time.Now as a VALUE (cfg.Clock =
//     time.Now) is fine — only calls are flagged, so the seam where a
//     caller injects the default is untouched;
//   - seeded rngs: methods on a *rand.Rand instance are fine; only the
//     package-level convenience functions (global, process-seeded state)
//     are flagged;
//   - genuinely wall-clock code (the real-TCP integration runner) takes
//     `//dice:allow detsource <reason>`.
//
// Map-order-dependent selection is the subtler leak: `for k := range m {
// pick = k; break }` chooses a random element. Any break out of a map
// range is flagged — if the predicate matches exactly one entry, say so
// with an allow directive; if it can match several, the break is a bug.
package detsource

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/dice-project/dice/internal/analysis"
)

// Analyzer is the detsource pass.
var Analyzer = &analysis.Analyzer{
	Name: "detsource",
	Doc:  "forbids wall-clock, global-rand and map-order-dependent selection in deterministic packages",
	Run:  run,
}

// deterministicPkgs is the built-in deterministic set, by import path
// suffix under the module.
var deterministicPkgs = map[string]bool{
	"internal/checkpoint":       true,
	"internal/checkpoint/codec": true,
	"internal/obs":              true,
	"internal/concolic":         true,
	"internal/concolic/expr":    true,
	"internal/concolic/solver":  true,
	"internal/netem":            true,
	"internal/node":             true,
	"internal/speaker":          true,
	"internal/bird":             true,
	"internal/frr":              true,
	"internal/obgpd":            true,
	"internal/bgp":              true,
	"internal/bgp/policy":       true,
	"internal/bgp/rib":          true,
	"internal/topology":         true,
	"internal/faults":           true,
	"internal/fuzz":             true,
}

// randConstructors build seeded generator instances — the replacement the
// analyzer asks for, so they must stay legal.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// bannedTimeFuncs are the wall-clock entry points in package time.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"Sleep": true,
}

func run(pass *analysis.Pass) error {
	if !deterministic(pass) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapSelection(pass, n)
			}
			return true
		})
	}
	return nil
}

// deterministic decides whether this package is in the deterministic set.
func deterministic(pass *analysis.Pass) bool {
	path := pass.Pkg.Path()
	if analysis.IsModulePkg(path) {
		rel := ""
		if len(path) > len(analysis.ModulePath) {
			rel = path[len(analysis.ModulePath)+1:]
		}
		if deterministicPkgs[rel] {
			return true
		}
	}
	for _, f := range pass.Files {
		for _, d := range analysis.ParseDirectives(pass.Fset, f) {
			if d.Name == "deterministic" {
				return true
			}
		}
	}
	return false
}

// checkCall flags wall-clock and global-rand calls.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if analysis.RecvNamed(fn) != nil {
		return // methods (e.g. on a seeded *rand.Rand) are injected state
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTimeFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"time.%s in deterministic package %s: inject a clock (cfg.Clock func() time.Time seam, default assigned — not called — at construction) or //dice:allow detsource <reason>",
				fn.Name(), pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		if randConstructors[fn.Name()] {
			return // building a seeded instance is the approved pattern
		}
		pass.Reportf(call.Pos(),
			"global %s.%s in deterministic package %s: use a seeded *rand.Rand instance so replays draw the same sequence",
			fn.Pkg().Name(), fn.Name(), pass.Pkg.Name())
	case "crypto/rand":
		pass.Reportf(call.Pos(),
			"crypto/rand.%s in deterministic package %s: deterministic paths cannot read entropy",
			fn.Name(), pass.Pkg.Name())
	}
}

// checkMapSelection flags `break` out of a map range — selecting an element
// that depends on iteration order.
func checkMapSelection(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if analysis.MapType(t) == nil {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt, *ast.ForStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			return false // a break in there doesn't break our range
		case *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			if n.Tok == token.BREAK && n.Label == nil {
				pass.Reportf(n.Pos(),
					"break out of range over map %s selects an order-dependent element in deterministic package %s: iterate sorted keys or collect all matches",
					types.TypeString(t, nil), pass.Pkg.Name())
			}
		}
		return true
	})
}
