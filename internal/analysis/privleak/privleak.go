// Package privleak enforces the paper's disclosure guarantee as a lint:
// nothing but checker.Summary content (and the neutral metadata around it)
// may be reachable from the types that cross a federation domain boundary
// or ride in control-plane result frames. The federation Bus's API already
// makes the direct payload a Summary structurally; this analyzer closes
// the indirect holes — a struct field added to an envelope or result frame
// that transitively drags router configuration, raw RIB records, node
// checkpoints or free-form violation Detail across the boundary.
//
// Boundary roots are declared with a `//dice:boundary` directive on the
// type declaration (federation.Envelope and the control-plane result
// frames carry it). For every root, the analyzer walks the full reachable
// type graph — fields, embedded fields, slices, arrays, maps, pointers,
// named types across packages — and reports the first edge that reaches a
// poison type:
//
//   - checker.Violation: its Detail string quotes node-local evidence; only
//     the ViolationDigest projection may cross (PR 3's privacy test, now
//     static);
//   - any named type from internal/speaker, its dialect packages
//     (internal/bird, internal/frr, internal/obgpd), internal/checkpoint,
//     internal/bgp/rib or internal/netem: router state, configuration and
//     checkpoint payloads never leave their domain;
//   - node.RouteRecord, node.PeerRouteMap, node.Config, node.SessionRecord,
//     node.EventRecord, node.RouterStats: the implementation-neutral state
//     records are exactly what the paper promises stays home;
//   - the empty interface (any): a boundary type with an any field defeats
//     static checking entirely, so it is rejected outright.
//
// The analyzer also flags exported methods on federation.Bus that accept
// an interface-typed payload — the Summary-only API surface is itself an
// invariant.
//
// Suppression: `//dice:allow privleak <reason>` (there is no legitimate
// case today; the directive exists so an emergency hole is at least
// greppable).
package privleak

import (
	"fmt"
	"go/ast"
	"go/types"

	"github.com/dice-project/dice/internal/analysis"
)

// Analyzer is the privleak pass.
var Analyzer = &analysis.Analyzer{
	Name: "privleak",
	Doc:  "verifies only checker.Summary content is reachable from federation/control boundary types",
	Run:  run,
}

const (
	checkerPkg    = analysis.ModulePath + "/internal/checker"
	federationPkg = analysis.ModulePath + "/internal/federation"
)

// poisonPkgs are packages whose every named type is domain-local state.
var poisonPkgs = map[string]bool{
	analysis.ModulePath + "/internal/speaker":    true,
	analysis.ModulePath + "/internal/bird":       true,
	analysis.ModulePath + "/internal/frr":        true,
	analysis.ModulePath + "/internal/obgpd":      true,
	analysis.ModulePath + "/internal/checkpoint": true,
	analysis.ModulePath + "/internal/bgp/rib":    true,
	analysis.ModulePath + "/internal/netem":      true,
}

// poisonNodeTypes are the state-record types in internal/node.
var poisonNodeTypes = map[string]bool{
	"RouteRecord": true, "PeerRouteMap": true, "Config": true,
	"SessionRecord": true, "EventRecord": true, "RouterStats": true,
}

func run(pass *analysis.Pass) error {
	checkBoundaryTypes(pass)
	checkBusSurface(pass)
	return nil
}

// checkBoundaryTypes walks every //dice:boundary type's reachable graph.
func checkBoundaryTypes(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !analysis.HasDirective(gd.Doc, "boundary") && !analysis.HasDirective(ts.Doc, "boundary") {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				walkBoundary(pass, obj)
			}
		}
	}
}

// walkBoundary explores the reachable type graph from one boundary root.
func walkBoundary(pass *analysis.Pass, root *types.TypeName) {
	seen := make(map[types.Type]bool)
	var visit func(t types.Type, path string)

	report := func(path, why string) {
		pass.Reportf(root.Pos(),
			"boundary type %s leaks domain-local state: %s %s — only checker.Summary content may cross the federation/control boundary (ship a digest projection instead)",
			root.Name(), path, why)
	}

	visit = func(t types.Type, path string) {
		if t == nil {
			return
		}
		t = types.Unalias(t) // `any` and friends resolve to their targets
		if seen[t] {
			return
		}
		seen[t] = true
		switch tt := t.(type) {
		case *types.Named:
			tn := tt.Obj()
			if tn.Pkg() != nil {
				p := tn.Pkg().Path()
				if poisonPkgs[p] {
					report(path, fmt.Sprintf("reaches %s.%s (package %s is domain-local)", tn.Pkg().Name(), tn.Name(), p))
					return
				}
				if p == analysis.ModulePath+"/internal/node" && poisonNodeTypes[tn.Name()] {
					report(path, fmt.Sprintf("reaches node.%s (implementation-neutral state record)", tn.Name()))
					return
				}
				if p == checkerPkg && tn.Name() == "Violation" {
					report(path, "reaches checker.Violation, whose Detail quotes node-local evidence (use checker.ViolationDigest)")
					return
				}
			}
			visit(tt.Underlying(), path)
		case *types.Struct:
			for i := 0; i < tt.NumFields(); i++ {
				f := tt.Field(i)
				visit(f.Type(), path+"."+f.Name())
			}
		case *types.Pointer:
			visit(tt.Elem(), path)
		case *types.Slice:
			visit(tt.Elem(), path+"[]")
		case *types.Array:
			visit(tt.Elem(), path+"[]")
		case *types.Map:
			visit(tt.Key(), path+"(key)")
			visit(tt.Elem(), path+"(value)")
		case *types.Interface:
			if tt.Empty() {
				report(path, "is declared any/interface{}, which defeats static privacy checking")
			}
			// Non-empty interfaces carry no state across the wire without
			// a hand-written record for a concrete type; the
			// empty-interface rule catches the generic escape hatch.
		case *types.Chan, *types.Signature:
			report(path, "is a channel or func, which cannot cross a process boundary")
		}
	}
	visit(root.Type(), root.Name())
}

// checkBusSurface flags federation.Bus methods that accept interface-typed
// payloads — the API must stay Summary-only.
func checkBusSurface(pass *analysis.Pass) {
	if pass.Pkg.Path() != federationPkg {
		return
	}
	obj, ok := pass.Pkg.Scope().Lookup("Bus").(*types.TypeName)
	if !ok {
		return
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if !m.Exported() {
			continue
		}
		sig := m.Type().(*types.Signature)
		for j := 0; j < sig.Params().Len(); j++ {
			p := sig.Params().At(j)
			if iface, ok := p.Type().Underlying().(*types.Interface); ok && iface.Empty() {
				pass.Reportf(m.Pos(),
					"federation.Bus.%s accepts an any-typed payload %q: the bus API must be checker.Summary-only to keep the disclosure guarantee structural",
					m.Name(), p.Name())
			}
		}
	}
}
