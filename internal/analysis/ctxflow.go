package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces the pipeline's cancellation contract along the call
// graph. Three rules:
//
//  1. No re-rooting: a function that receives a context.Context must not
//     call context.Background() or context.TODO() — doing so detaches its
//     callees from the caller's deadline, which is exactly how a cancelled
//     Discover keeps burning CPU.
//  2. No dropping: a function holding a ctx that calls the context-free
//     variant of an API with a *Context sibling (core.Discover when
//     core.DiscoverContext exists) silently severs propagation; call the
//     sibling and pass the ctx.
//  3. Cancellation liveness: in functions transitively reachable from the
//     pipeline's context entry points (any declared function whose name
//     ends in "Context" and takes a ctx), a loop that does real work —
//     calls into module code or nests another loop — must contain a
//     cancellation check: ctx.Err()/ctx.Done() directly, or a call that
//     hands the ctx to a callee that provably checks (a bottom-up summary
//     fact, so a loop whose body calls solveFrom is covered by solveFrom's
//     own per-sweep check).
//
// Leaf kernels that do not take a context are exempt by design: the
// contract is that their *callers* check at the call-granularity the
// public documentation promises (transform worker loops, glasso sweeps,
// ladder rungs, per-block ordering).
var CtxFlow = &Analyzer{
	Name:      "ctxflow",
	Doc:       "enforces context propagation and per-loop cancellation checks on the pipeline's call graph",
	RunModule: runCtxFlow,
}

func runCtxFlow(mpass *ModulePass) {
	graph := mpass.Graph

	// Bottom-up fact: does the function check cancellation on some path —
	// ctx.Err()/ctx.Done() in its own body, or ctx handed to a module
	// callee that checks? Mutual recursion iterates to fixpoint inside the
	// SCC (monotone boolean: at most len(scc) rounds).
	checksCancel := map[*Node]bool{}
	graph.BottomUp(func(scc []*Node) {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if checksCancel[n] || n.Decl == nil || n.Decl.Body == nil {
					continue
				}
				if nodeChecksCancel(n, checksCancel, graph) {
					checksCancel[n] = true
					changed = true
				}
			}
		}
	})

	// Roots: the pipeline's context entry points. Test declarations are not
	// entry points (see boundaryExported).
	var roots []*Node
	for _, n := range graph.ModuleNodes() {
		if strings.HasSuffix(n.Decl.Name.Name, "Context") && ctxParamObj(n) != nil && !inTestFile(mpass, n) {
			roots = append(roots, n)
		}
	}
	onPipeline := graph.Reachable(roots)

	for _, n := range graph.ModuleNodes() {
		if n.Decl.Body == nil {
			continue
		}
		ctxObj := ctxParamObj(n)
		if ctxObj == nil {
			continue
		}
		checkNoReroot(mpass, n)
		checkNoDrop(mpass, n)
		if onPipeline[n] {
			checkLoopCancellation(mpass, n, checksCancel)
		}
	}
}

// nodeChecksCancel reports whether n's body contains a direct cancellation
// check or passes its ctx to a callee already known to check.
func nodeChecksCancel(n *Node, facts map[*Node]bool, graph *CallGraph) bool {
	if containsCtxCheck(n.Pkg.Info, n.Decl.Body) {
		return true
	}
	for _, e := range n.Calls {
		if e.Call == nil || e.Callee.External() || !facts[e.Callee] {
			continue
		}
		if exprHasContextArg(n.Pkg.Info, e.Call) {
			return true
		}
	}
	return false
}

// containsCtxCheck reports whether the subtree calls Err() or Done() on a
// context-typed receiver (selects over Done() count through the Done call).
func containsCtxCheck(info *types.Info, root ast.Node) bool {
	found := false
	ast.Inspect(root, func(node ast.Node) bool {
		if found {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Err" && sel.Sel.Name != "Done") {
			return true
		}
		if tv, ok := info.Types[sel.X]; ok && isContextType(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

// checkNoReroot flags context.Background()/TODO() calls inside a function
// that already holds a ctx parameter.
func checkNoReroot(mpass *ModulePass, n *Node) {
	for _, e := range n.Calls {
		if e.Call == nil || e.Callee.Func == nil {
			continue
		}
		fn := e.Callee.Func
		if fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			continue
		}
		if fn.Name() == "Background" || fn.Name() == "TODO" {
			mpass.ReportRangef(e.Call, e.Site,
				"%s re-roots the context inside %s, which already receives a ctx; thread the parameter instead",
				"context."+fn.Name(), shortID(n.ID))
		}
	}
}

// checkNoDrop flags calls from a ctx-holding function to the context-free
// variant of an API whose *Context sibling exists in the same package.
func checkNoDrop(mpass *ModulePass, n *Node) {
	for _, e := range n.Calls {
		if e.Call == nil || e.Callee.Func == nil || e.Kind == EdgeRef {
			continue
		}
		fn := e.Callee.Func
		if sigHasContext(fn) || strings.HasSuffix(fn.Name(), "Context") {
			continue
		}
		sibling := siblingContextID(e.Callee)
		if sibling == "" {
			continue
		}
		if mpass.Graph.Lookup(sibling) == nil {
			continue
		}
		// FContext delegating to its own plain F is the sibling pair's
		// intended shape, not a drop.
		if n.ID == sibling {
			continue
		}
		mpass.ReportRangef(e.Call, e.Site,
			"%s drops the ctx: %s exists; call it and pass the context",
			shortID(e.Callee.ID), shortID(sibling))
	}
}

// siblingContextID derives the would-be ID of the ctx-taking sibling of a
// context-free function: ".F" → ".FContext" with the same receiver shape.
func siblingContextID(n *Node) string {
	i := strings.LastIndex(n.ID, ".")
	if i < 0 {
		return ""
	}
	return n.ID + "Context"
}

// checkLoopCancellation flags working loops on the pipeline that can spin
// past a cancelled context.
func checkLoopCancellation(mpass *ModulePass, n *Node, checksCancel map[*Node]bool) {
	info := n.Pkg.Info
	// Pre-index call edges by position so loop spans can locate the module
	// calls they contain.
	var flagged []ast.Node
	var visit func(node ast.Node) bool
	visit = func(node ast.Node) bool {
		var body *ast.BlockStmt
		switch st := node.(type) {
		case *ast.ForStmt:
			body = st.Body
		case *ast.RangeStmt:
			body = st.Body
		default:
			return true
		}
		// A loop that contains its own check — or whose body hands the ctx
		// to a checking callee — is satisfied, and so are its inner loops.
		if containsCtxCheck(info, body) || loopCallsChecker(n, body, checksCancel) {
			return false
		}
		if loopDoesWork(n, body) {
			flagged = append(flagged, node)
			return false // the outermost offending loop is the finding
		}
		return true
	}
	ast.Inspect(n.Decl.Body, visit)
	for _, loop := range flagged {
		mpass.ReportRangef(loop, loop.Pos(),
			"loop on the pipeline (reachable from a *Context entry point) never checks cancellation; test ctx.Err() per iteration or call a ctx-checking callee")
	}
}

// loopCallsChecker reports whether some call inside the loop body passes a
// context to a module callee that checks cancellation.
func loopCallsChecker(n *Node, body *ast.BlockStmt, checksCancel map[*Node]bool) bool {
	for _, e := range n.Calls {
		if e.Call == nil || e.Site < body.Pos() || e.Site > body.End() {
			continue
		}
		if checksCancel[e.Callee] && exprHasContextArg(n.Pkg.Info, e.Call) {
			return true
		}
	}
	return false
}

// loopDoesWork reports whether the loop body is more than local glue: it
// calls into module code (per the call graph) or nests another loop.
func loopDoesWork(n *Node, body *ast.BlockStmt) bool {
	for _, e := range n.Calls {
		if e.Call == nil || e.Callee.External() {
			continue
		}
		if e.Site >= body.Pos() && e.Site <= body.End() {
			return true
		}
	}
	nested := false
	ast.Inspect(body, func(node ast.Node) bool {
		switch node.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			nested = true
		}
		return !nested
	})
	return nested
}
