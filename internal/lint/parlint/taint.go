package parlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/detlint"
)

// The taint analyzers upgrade detlint's syntactic determinism checks
// to interprocedural ones: a per-function summary ("this function's
// own body touches the wall clock / the global rand / emits in map
// order") is propagated bottom-up over the call-graph SCCs, and the
// report lands on the *call edge* in simulation-reachable code — the
// place the syntactic pass cannot see, because the offending construct
// sits in a helper (possibly several calls deep, possibly carrying its
// own sanctioned allow for harness use).  Direct uses inside a
// simulation function are NOT re-reported here: those are exactly what
// the syntactic suite already flags, and double diagnostics on one
// line would need double allows.  The analyzers share detlint's names
// ("wallclock", "globalrand", "maporder") so one //detlint:allow
// vocabulary covers both passes.

// WallclockTaint reports simulation-context calls to helpers that
// reach time.Now/time.Since.  The vtime package is exempt — its
// injectable nowFunc is the sanctioned wall-clock boundary.
var WallclockTaint = &lint.Analyzer{
	Name: "wallclock",
	Doc:  "flags simulation-context calls into helpers that reach time.Now/time.Since",
	RunModule: func(pass *lint.ModulePass) error {
		reportTaint(pass, directWallclock, "reaches the wall clock (%s); simulation code must take virtual time from the kernel")
		return nil
	},
}

// GlobalRandTaint reports simulation-context calls to helpers that
// reach the process-global math/rand generator.
var GlobalRandTaint = &lint.Analyzer{
	Name: "globalrand",
	Doc:  "flags simulation-context calls into helpers that reach the global math/rand generator",
	RunModule: func(pass *lint.ModulePass) error {
		reportTaint(pass, directGlobalRand, "reaches the process-global math/rand generator (%s); thread an explicit seeded *rand.Rand instead")
		return nil
	},
}

// directWallclock reports whether a node's own body references
// time.Now or time.Since, directly or through an external function
// value that resolves to them.
func directWallclock(n *lint.FuncNode) bool {
	found := false
	inspectOwn(n, func(nd ast.Node) bool {
		sel, ok := nd.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if selPkg(n.Pkg, sel) == "time" && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
			found = true
		}
		return !found
	})
	if found {
		return true
	}
	for _, cs := range n.Calls {
		for _, ext := range cs.Ext {
			if ext.Pkg() != nil && ext.Pkg().Path() == "time" && (ext.Name() == "Now" || ext.Name() == "Since") {
				return true
			}
		}
	}
	return false
}

// directGlobalRand reports whether a node's own body calls through the
// process-global math/rand generator.
func directGlobalRand(n *lint.FuncNode) bool {
	found := false
	inspectOwn(n, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch selPkg(n.Pkg, sel) {
		case "math/rand", "math/rand/v2":
			if !detlint.GlobalRandSafe(sel.Sel.Name) {
				found = true
			}
		}
		return !found
	})
	return found
}

// propagate computes the bottom-up closure of a direct-fact predicate
// over the call-graph SCCs: a function is tainted when its own body
// has the fact or any (non-vtime) callee is tainted.  vtime nodes are
// never tainted — the kernel holds the sanctioned boundary for both
// the wall clock (nowFunc) and scheduling order.
func propagate(g *lint.CallGraph, direct func(*lint.FuncNode) bool) map[*lint.FuncNode]bool {
	tainted := make(map[*lint.FuncNode]bool, len(g.Nodes))
	for _, scc := range g.SCCs() {
		has := false
		for _, n := range scc {
			if isVtimeNode(n) {
				continue
			}
			if direct(n) {
				has = true
				break
			}
			for _, cs := range n.Calls {
				for _, t := range cs.Targets {
					if tainted[t] {
						has = true
						break
					}
				}
				if has {
					break
				}
			}
			if has {
				break
			}
		}
		if has {
			for _, n := range scc {
				if !isVtimeNode(n) {
					tainted[n] = true
				}
			}
		}
	}
	return tainted
}

// reportTaint reports every simulation-reachable call edge into a
// tainted helper, once per call site, with the shortest witness chain
// from the callee down to a function whose own body has the fact.
func reportTaint(pass *lint.ModulePass, direct func(*lint.FuncNode) bool, format string) {
	c := contextOf(pass.Graph)
	tainted := propagate(pass.Graph, direct)
	if len(tainted) == 0 {
		return
	}
	seen := make(map[token.Pos]bool)
	for _, n := range c.reached() {
		for _, cs := range n.Calls {
			if seen[cs.Site] {
				continue
			}
			for _, t := range cs.Targets {
				if tainted[t] && !isVtimeNode(t) {
					seen[cs.Site] = true
					pass.Report(cs.Site, "call to %s "+format,
						t.Name, taintChain(t, tainted, direct))
					break
				}
			}
		}
	}
}

// taintChain renders the first (index-deterministic) path from a
// tainted node down to a direct fact, e.g. "obs.stamp → time.Now".
func taintChain(n *lint.FuncNode, tainted map[*lint.FuncNode]bool, direct func(*lint.FuncNode) bool) string {
	var names []string
	visited := make(map[*lint.FuncNode]bool)
	cur := n
	for cur != nil && !visited[cur] {
		visited[cur] = true
		names = append(names, cur.Name)
		if direct(cur) {
			return strings.Join(names, " → ")
		}
		var next *lint.FuncNode
		for _, cs := range cur.Calls {
			for _, t := range cs.Targets {
				if tainted[t] && !visited[t] {
					next = t
					break
				}
			}
			if next != nil {
				break
			}
		}
		cur = next
	}
	return strings.Join(names, " → ")
}

// MapOrderTaint reports map-range loops whose body calls a helper that
// emits to an ordered sink — the helper hides the sink from the
// syntactic maporder pass.  The collect-then-sort idiom is honoured
// exactly as in the syntactic pass: a sort.*/slices.* call after the
// loop in the same function exempts it.
var MapOrderTaint = &lint.Analyzer{
	Name: "maporder",
	Doc:  "flags map-range loops calling helpers that emit to ordered sinks",
	RunModule: func(pass *lint.ModulePass) error {
		c := contextOf(pass.Graph)
		emits := propagate(pass.Graph, directEmitsOrdered)
		if len(emits) == 0 {
			return nil
		}
		for _, n := range c.reached() {
			n := n
			inspectOwn(n, func(nd ast.Node) bool {
				rs, ok := nd.(*ast.RangeStmt)
				if !ok || !rangesOverMap(n.Pkg, rs) {
					return true
				}
				if sortFollowsIn(n, rs) {
					return true
				}
				for _, cs := range n.Calls {
					if cs.Site < rs.Body.Pos() || cs.Site > rs.Body.End() {
						continue
					}
					for _, t := range cs.Targets {
						if emits[t] && !isVtimeNode(t) {
							pass.Report(cs.Site,
								"%s emits to an ordered sink and is called inside a map-range loop; iterate sorted keys or sort afterwards",
								t.Name)
							break
						}
					}
				}
				return true
			})
		}
		return nil
	},
}

// directEmitsOrdered reports whether a node's own body writes to
// storage that outlives it in call order: a sink-named method call, an
// fmt print, or an append assigned to a non-local target.
func directEmitsOrdered(n *lint.FuncNode) bool {
	found := false
	inspectOwn(n, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.CallExpr:
			if sel, ok := nd.Fun.(*ast.SelectorExpr); ok {
				switch p := selPkg(n.Pkg, sel); {
				case p == "fmt":
					if strings.HasPrefix(sel.Sel.Name, "Print") || strings.HasPrefix(sel.Sel.Name, "Fprint") {
						found = true
					}
				case p == "":
					if detlint.IsSinkName(sel.Sel.Name) {
						found = true
					}
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range nd.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || id.Name != "append" {
					continue
				}
				if _, isBuiltin := n.Pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
					continue
				}
				if i < len(nd.Lhs) && outlivesNode(n, nd.Lhs[i]) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// outlivesNode reports whether an assignment target refers to storage
// declared outside the node (field, parameter from outside, global).
func outlivesNode(n *lint.FuncNode, lhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return true // selector or index target: persists beyond the call
	}
	obj := n.Pkg.Info.Uses[id]
	if obj == nil {
		obj = n.Pkg.Info.Defs[id]
	}
	if obj == nil {
		return true
	}
	return obj.Pos() < n.Body().Pos() || obj.Pos() > n.Body().End()
}

func rangesOverMap(pkg *lint.Package, rs *ast.RangeStmt) bool {
	if pkg.Info == nil {
		return false
	}
	t := pkg.Info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// sortFollowsIn reports whether a sort.*/slices.* call appears after
// the range statement in the same function body.
func sortFollowsIn(n *lint.FuncNode, rs *ast.RangeStmt) bool {
	found := false
	inspectOwn(n, func(nd ast.Node) bool {
		if found {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch selPkg(n.Pkg, sel) {
			case "sort", "slices":
				found = true
			}
		}
		return !found
	})
	return found
}

// selPkg resolves the package path a selector's base identifier names,
// or "" for method calls and field accesses.
func selPkg(pkg *lint.Package, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}
