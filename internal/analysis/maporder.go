package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags `range` over a map when the loop body builds ordered
// output — appending to a slice, writing slice elements, sending on a
// channel, building a string, printing, or drawing from a seeded
// *rand.Rand. Go randomizes map iteration order per run, so such loops
// are the classic source of nondeterministic FD lists, tableaux,
// orderings, and seeded generators. Commutative aggregation (counting,
// summing, filling another map or set) is order-insensitive and not
// flagged, and an appended slice that is subsequently passed to a
// sort/slices call in the same function is considered fixed up.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flags range over maps in code that builds ordered output (FD lists, tableaux, orderings)",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !isMap(pass.Info, rng.X) {
				return true
			}
			sink, target := orderedSink(pass, rng.Body)
			if sink == "" {
				return true
			}
			if target != nil && sortedAfter(pass, f, rng, target) {
				return true
			}
			pass.Reportf(rng.For, "map iteration order is nondeterministic but this loop %s; iterate over sorted keys or sort the result", sink)
			return true
		})
	}
}

func isMap(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Map)
	return ok
}

// orderedSink scans the loop body for a statement whose effect depends on
// iteration order. It returns a description of the first sink found and,
// for slice appends/writes, the object of the slice variable (so the caller
// can look for a later sort).
func orderedSink(pass *Pass, body *ast.BlockStmt) (sink string, target types.Object) {
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			// x = append(x, ...) and s[i] = v with s a slice; also
			// order-dependent string building via s += ...
			for i, rhs := range st.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(pass.Info, call) && i < len(st.Lhs) {
					if id, ok := st.Lhs[i].(*ast.Ident); ok {
						sink, target = "appends to "+id.Name, objectOf(pass.Info, id)
					} else {
						sink = "appends to a slice"
					}
					return false
				}
			}
			for _, lhs := range st.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok && isSlice(pass.Info, ix.X) {
					if id, ok := ix.X.(*ast.Ident); ok {
						sink, target = "writes elements of "+id.Name, objectOf(pass.Info, id)
					} else {
						sink = "writes slice elements"
					}
					return false
				}
			}
			if st.Tok == token.ADD_ASSIGN && len(st.Lhs) == 1 && isString(pass.Info, st.Lhs[0]) {
				sink = "concatenates a string"
				return false
			}
			// Float accumulation: addition is not associative, so the
			// iteration order changes the result in the last ulps — enough
			// to flip exact tie-breaks downstream.
			if (st.Tok == token.ADD_ASSIGN || st.Tok == token.SUB_ASSIGN) && len(st.Lhs) == 1 && isFloat(pass.Info, st.Lhs[0]) {
				sink = "accumulates a float (addition order changes the low bits)"
				return false
			}
		case *ast.SendStmt:
			sink = "sends on a channel"
			return false
		case *ast.CallExpr:
			if name, ok := printLikeCall(pass.Info, st); ok {
				sink = "calls " + name
				return false
			}
			// A seeded generator's draws are a fixed sequence; handing them
			// out in map order makes which key gets which draw vary per run.
			if isRandDraw(pass.Info, st) {
				sink = "draws from a seeded *rand.Rand"
				return false
			}
		}
		return true
	})
	return sink, target
}

// sortedAfter reports whether target is passed, after the range statement
// and within the same enclosing function (or file scope when the loop is
// not inside a declared function), to a call that canonicalizes its order:
// anything in package sort or slices, or a helper whose name mentions Sort
// (e.g. core.SortFDs).
func sortedAfter(pass *Pass, f *ast.File, rng *ast.RangeStmt, target types.Object) bool {
	var scope ast.Node = f
	if fd := enclosingFuncDecl(pass.Files, rng.Pos()); fd != nil {
		scope = fd
	}
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found || call.Pos() < rng.End() {
			return true
		}
		if !isSortingCall(call) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && objectOf(pass.Info, id) == target {
				found = true
			}
		}
		return true
	})
	return found
}

func isSortingCall(call *ast.CallExpr) bool {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return strings.Contains(f.Name, "Sort")
	case *ast.SelectorExpr:
		if pkg, ok := f.X.(*ast.Ident); ok && (pkg.Name == "sort" || pkg.Name == "slices") {
			return true
		}
		return strings.Contains(f.Sel.Name, "Sort")
	}
	return false
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

func isSlice(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Slice)
	return ok
}

func isString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isRandDraw reports whether call is a method call on a math/rand (or
// math/rand/v2) Rand.
func isRandDraw(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Name() != "Rand" {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "math/rand" || path == "math/rand/v2"
}

// printLikeCall matches fmt print/sprint functions and Write* methods on
// string/byte builders — sinks whose output order is the iteration order.
func printLikeCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fmt" {
		return "fmt." + sel.Sel.Name, true
	}
	if len(sel.Sel.Name) >= 5 && sel.Sel.Name[:5] == "Write" {
		tv, ok := info.Types[sel.X]
		if ok && tv.Type != nil {
			s := tv.Type.String()
			if s == "*strings.Builder" || s == "strings.Builder" || s == "*bytes.Buffer" || s == "bytes.Buffer" {
				return tv.Type.String() + "." + sel.Sel.Name, true
			}
		}
	}
	return "", false
}

func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
