// Package detrange flags `range` over a map whose loop body reaches a
// deterministic encoder, hasher or wire writer — the bug class behind the
// map-order nondeterminism that once corrupted cross-process deltas (PR 6)
// and forced the live-mode ring onto fingerprint-driven delta accounting
// (PR 5/7). Go map iteration order is deliberately randomized,
// so any bytes produced inside such a loop differ run to run: content
// hashes stop matching, binary deltas explode, and "identical" snapshots
// stop comparing equal.
//
// Sinks are:
//
//   - any method on internal/checkpoint/codec.Writer (the deterministic
//     checkpoint encoder);
//   - Write/Sum-shaped methods on hash.Hash implementations (hash/*,
//     crypto/* packages) — fingerprints must be byte-stable;
//   - fmt.Fprint* whose first argument is one of the above;
//   - any module function that itself (transitively) writes to one of the
//     above — propagated as a cross-package fact, so a helper that wraps
//     the encoder taints its callers.
//
// The fix is the standard one: collect the keys, sort them, and iterate the
// sorted slice (codec.PutBlobMap and codec.PutPeerRouteMap are the model).
// Intentional exceptions take `//dice:allow detrange <reason>`.
package detrange

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/dice-project/dice/internal/analysis"
)

// Analyzer is the detrange pass.
var Analyzer = &analysis.Analyzer{
	Name: "detrange",
	Doc:  "flags map iteration that feeds encoders, hashers or wire writers (nondeterministic byte output)",
	Run:  run,
}

const codecPkg = analysis.ModulePath + "/internal/checkpoint/codec"

// hashMethodNames are the byte-absorbing methods of hash.Hash and friends.
var hashMethodNames = map[string]bool{
	"Write": true, "Sum": true, "Sum32": true, "Sum64": true, "WriteString": true,
}

func run(pass *analysis.Pass) error {
	// Pass 1: compute which functions in this package write to a sink,
	// directly or through calls, and export the result as facts for
	// downstream packages. Iterate to a fixpoint so intra-package call
	// chains resolve independent of declaration order.
	funcs := map[string]*ast.FuncDecl{} // FuncKey -> decl
	sinks := map[string]bool{}          // FuncKey -> writes to encoder
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			funcs[analysis.FuncKey(obj)] = fd
		}
	}
	for changed := true; changed; {
		changed = false
		for key, fd := range funcs {
			if sinks[key] {
				continue
			}
			if bodyReachesSink(pass, fd.Body, sinks) {
				sinks[key] = true
				changed = true
			}
		}
	}
	for key := range sinks {
		pass.ExportFact(key, true)
	}

	// Pass 2: flag map ranges whose body reaches a sink.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if rng, ok := n.(*ast.RangeStmt); ok {
				checkRange(pass, rng, sinks)
			}
			return true
		})
	}
	return nil
}

// checkRange reports a range statement iterating a map whose body reaches a
// sink.
func checkRange(pass *analysis.Pass, rng *ast.RangeStmt, local map[string]bool) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if analysis.MapType(t) == nil {
		return
	}
	sink := firstSinkCall(pass, rng.Body, local)
	if sink == nil {
		return
	}
	what := describeCallee(pass, sink)
	pass.Reportf(rng.Pos(),
		"range over map %s feeds %s inside the loop body; map iteration order is randomized — iterate sorted keys instead (or //dice:allow detrange <reason>)",
		types.TypeString(t, nil), what)
}

// bodyReachesSink reports whether any call in the body is a sink.
func bodyReachesSink(pass *analysis.Pass, body ast.Node, local map[string]bool) bool {
	return firstSinkCall(pass, body, local) != nil
}

// firstSinkCall returns the first sink call expression found under n.
func firstSinkCall(pass *analysis.Pass, n ast.Node, local map[string]bool) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(n, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isSinkCall(pass, call, local) {
			found = call
			return false
		}
		return true
	})
	return found
}

// isSinkCall classifies one call as encoder-reaching.
func isSinkCall(pass *analysis.Pass, call *ast.CallExpr, local map[string]bool) bool {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	// Direct: codec.Writer methods.
	if analysis.IsMethodOn(fn, codecPkg, "Writer") {
		return true
	}
	// Direct: hash.Hash Write/Sum on hash/crypto implementations, whether
	// called via the interface (receiver in package "hash") or concretely.
	if named := analysis.RecvNamed(fn); named != nil && named.Obj().Pkg() != nil {
		p := named.Obj().Pkg().Path()
		if (p == "hash" || strings.HasPrefix(p, "hash/") || strings.HasPrefix(p, "crypto/")) &&
			hashMethodNames[fn.Name()] {
			return true
		}
	}
	if iface := recvInterfaceHash(pass, call); iface && hashMethodNames[fn.Name()] {
		return true
	}
	// fmt.Fprint* into a hasher or codec writer.
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") && len(call.Args) > 0 {
		if t := pass.TypesInfo.TypeOf(call.Args[0]); t != nil {
			if p, name := analysis.NamedPath(t); p == codecPkg && name == "Writer" {
				return true
			}
			if implementsHash(t) {
				return true
			}
		}
	}
	// Transitive: a module function already known to write to a sink.
	if fn.Pkg() != nil && analysis.IsModulePkg(fn.Pkg().Path()) {
		key := analysis.FuncKey(fn)
		if local[key] {
			return true
		}
		if _, ok := pass.Fact(key); ok {
			return true
		}
	}
	return false
}

// recvInterfaceHash reports whether the call's receiver expression has an
// interface type that embeds hash.Hash semantics (io.Writer from package
// hash).
func recvInterfaceHash(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	return implementsHash(t)
}

// implementsHash reports whether t is (or points to) a named type declared
// in hash/* or crypto/*, or an interface from package hash.
func implementsHash(t types.Type) bool {
	p, _ := analysis.NamedPath(t)
	return p == "hash" || strings.HasPrefix(p, "hash/") || strings.HasPrefix(p, "crypto/")
}

// describeCallee renders the sink for the diagnostic.
func describeCallee(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return "an encoder"
	}
	if named := analysis.RecvNamed(fn); named != nil {
		return named.Obj().Name() + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
