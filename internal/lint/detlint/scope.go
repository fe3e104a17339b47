package detlint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint"
)

// A finder is one analyzer's predicate applied to a syntax node: it
// returns the name its diagnostic quotes ("Now", "Intn",
// "sb.WriteString"), or "" when nd is not the construct.  Diagnostics
// land on nd.Pos().
type finder func(pkg *lint.Package, f *ast.File, nd ast.Node) string

// reportDirect is the direct scope: every node find matches, anywhere
// in the module, package-level initializers included.
func reportDirect(pass *lint.ModulePass, find finder, format string) {
	for _, pkg := range pass.Module.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(nd ast.Node) bool {
				if name := find(pkg, f, nd); name != "" {
					pass.Report(nd.Pos(), format, name)
				}
				return true
			})
		}
	}
}

// reportHelperCalls is the helper scope: every call site in
// simulation-reachable code into a function whose bottom-up summary of
// has holds, with the shortest witness chain from the callee down to a
// function whose own body has the fact, e.g. "obs.stamp → time.Now".
func reportHelperCalls(pass *lint.ModulePass, has func(*lint.FuncNode) bool, format string) {
	sim := simulationCode(pass.Graph)
	tainted := propagate(pass.Graph, has)
	for _, n := range pass.Graph.Nodes {
		if !sim.has(n) {
			continue
		}
		for _, cs := range n.Calls {
			if t := targetIn(cs, tainted); t != nil {
				pass.Report(cs.Site, "call to %s "+format, t.Name, taintChain(t, tainted, has))
			}
		}
	}
}

// ownHas reports whether find matches anywhere in n's own body.
func ownHas(n *lint.FuncNode, find finder) bool {
	found := false
	inspectOwn(n, func(nd ast.Node) bool {
		found = found || find(n.Pkg, n.File, nd) != ""
		return !found
	})
	return found
}

// propagate computes the bottom-up closure of a per-function fact over
// the call-graph SCCs: a function is tainted when its own body has the
// fact or any callee is tainted.  vtime nodes are never tainted — the
// kernel holds the sanctioned boundary for scheduling order.
func propagate(g *lint.CallGraph, has func(*lint.FuncNode) bool) map[*lint.FuncNode]bool {
	tainted := make(map[*lint.FuncNode]bool)
	for _, scc := range g.SCCs() {
		hit := false
		for _, n := range scc {
			if hit || isVtimeNode(n) {
				continue
			}
			hit = has(n)
			for _, cs := range n.Calls {
				hit = hit || targetIn(cs, tainted) != nil
			}
		}
		for _, n := range scc {
			if hit && !isVtimeNode(n) {
				tainted[n] = true
			}
		}
	}
	return tainted
}

// targetIn returns the first (index-ordered) target of cs in set.
func targetIn(cs *lint.CallSite, set map[*lint.FuncNode]bool) *lint.FuncNode {
	for _, t := range cs.Targets {
		if set[t] {
			return t
		}
	}
	return nil
}

// taintChain renders the first (index-deterministic) path from a
// tainted node down to one whose own body has the fact.
func taintChain(n *lint.FuncNode, tainted map[*lint.FuncNode]bool, has func(*lint.FuncNode) bool) string {
	var names []string
	visited := make(map[*lint.FuncNode]bool)
	for cur := n; cur != nil && !visited[cur]; {
		visited[cur] = true
		names = append(names, cur.Name)
		if has(cur) {
			break
		}
		var next *lint.FuncNode
		for _, cs := range cur.Calls {
			for _, t := range cs.Targets {
				if next == nil && tainted[t] && !visited[t] {
					next = t
				}
			}
		}
		cur = next
	}
	return strings.Join(names, " → ")
}

// simCode maps every simulation-reachable function to the caller it
// was first reached from (nil for the roots).  It is computed per
// analyzer run, so concurrent runs share nothing.
type simCode map[*lint.FuncNode]*lint.FuncNode

func (s simCode) has(n *lint.FuncNode) bool {
	_, ok := s[n]
	return ok
}

// chain renders the witness path from a simulation root to n, e.g.
// "simmpi.Launch$1 → simmpi.NewTeam".  Cycles cannot occur: s holds
// the first (acyclic) predecessor of each node.
func (s simCode) chain(n *lint.FuncNode) string {
	var names []string
	for cur := n; cur != nil; cur = s[cur] {
		names = append([]string{cur.Name}, names...)
	}
	return strings.Join(names, " → ")
}

// simulationCode walks call edges breadth-first from the simulation
// roots: every function value passed to a vtime API call outside vtime
// itself.  Edges into vtime are never followed: the kernel's internals
// are exempt, and a callback handed to it is a root of its own.
func simulationCode(g *lint.CallGraph) simCode {
	var roots []*lint.FuncNode
	seen := make(map[*lint.FuncNode]bool)
	for _, n := range g.Nodes {
		if isVtimeNode(n) {
			continue
		}
		for _, cs := range n.Calls {
			if !isVtimeFunc(cs.Callee) {
				continue
			}
			for _, arg := range cs.Expr.Args {
				for _, t := range g.FuncValues(n.Pkg, arg) {
					if !seen[t] && !isVtimeNode(t) {
						seen[t] = true
						roots = append(roots, t)
					}
				}
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Index < roots[j].Index })
	reach := make(simCode)
	for _, r := range roots {
		reach[r] = nil
	}
	for queue := roots; len(queue) > 0; queue = queue[1:] {
		n := queue[0]
		for _, cs := range n.Calls {
			if isVtimeFunc(cs.Callee) {
				continue
			}
			for _, t := range cs.Targets {
				if !isVtimeNode(t) && !reach.has(t) {
					reach[t] = n
					queue = append(queue, t)
				}
			}
		}
	}
	return reach
}

// isVtimePkg reports whether a package is the kernel package.  Matched
// by path suffix so corpus modules with a stub vtime subpackage model
// the real API.
func isVtimePkg(p *types.Package) bool {
	return p != nil && (p.Path() == "vtime" || strings.HasSuffix(p.Path(), "/vtime"))
}

func isVtimeNode(n *lint.FuncNode) bool { return isVtimePkg(n.Pkg.Types) }

// isVtimeFunc reports whether a callee belongs to the kernel API.
func isVtimeFunc(fn *types.Func) bool { return fn != nil && isVtimePkg(fn.Pkg()) }

// inspectOwn walks a node's own body, skipping nested function
// literals (they are their own nodes).
func inspectOwn(n *lint.FuncNode, fn func(ast.Node) bool) {
	ast.Inspect(n.Body(), func(nd ast.Node) bool {
		if _, isLit := nd.(*ast.FuncLit); isLit {
			return false
		}
		return fn(nd)
	})
}

// pkgPathOf resolves the package a selector's base identifier names,
// or "" for a method call or field access.  An identifier the type
// checker could not resolve falls back to the file's import table.
func pkgPathOf(pkg *lint.Package, f *ast.File, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if obj, ok := pkg.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return ""
	}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndexByte(path, '/')+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}
