package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Shared type-query helpers the analyzers build on.

// ModulePath is the import-path prefix identifying this module's packages.
const ModulePath = "github.com/dice-project/dice"

// IsModulePkg reports whether path belongs to this module.
func IsModulePkg(path string) bool {
	return path == ModulePath || strings.HasPrefix(path, ModulePath+"/")
}

// CalleeFunc resolves the static callee of a call expression: a package
// function, a method (value or pointer receiver), or nil for calls through
// function values, builtins and type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// RecvNamed returns the named type of fn's receiver (pointerness erased),
// or nil for package-level functions.
func RecvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// NamedPath returns (package path, type name) for a named type, following
// one level of pointer; empty strings otherwise.
func NamedPath(t types.Type) (string, string) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	return named.Obj().Pkg().Path(), named.Obj().Name()
}

// IsMethodOn reports whether fn is a method (any name) on the named type
// pkgPath.typeName.
func IsMethodOn(fn *types.Func, pkgPath, typeName string) bool {
	named := RecvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == typeName
}

// IsPkgFunc reports whether fn is the package-level function pkgPath.name.
func IsPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn.Pkg() == nil || RecvNamed(fn) != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// MapType returns the underlying map type of t, or nil. Named map types
// (node.PeerRouteMap) resolve through to their map structure.
func MapType(t types.Type) *types.Map {
	if t == nil {
		return nil
	}
	m, _ := t.Underlying().(*types.Map)
	return m
}
