// Package parlint holds the module-wide, interprocedural determinism
// analyzers.  A study runs its grid on the -j job pool, so several
// simulations execute at once in one process, and each must still be
// byte-reproducible.  Code that runs under simulated time must therefore
// obey rules that detlint's syntactic pass can only check one function
// at a time:
//
//   - package-level mutable state must not be written from simulation
//     code (globalmut) — two concurrent jobs would race on it;
//   - simulation code must not reach the wall clock, the process-global
//     math/rand generator, or an ordered sink fed in map-iteration order
//     (wallclock, globalrand, maporder), even through helpers: a helper
//     that wraps time.Now three calls deep is reported at its
//     simulation-context call site, which the syntactic pass cannot see.
//
// The analyzers reason over the module-wide call graph (internal/lint).
// Simulation-reachable code is everything reachable from a function
// value handed to the vtime kernel — Kernel.Spawn bodies and Post
// completion callbacks alike.  The traversal is a deliberate
// over-approximation — interface dispatch fans out to every implementing
// type, function values to everything that flows there — so a clean run
// is a guarantee, and a false positive is silenced with
// "//detlint:allow <name>: why".
//
// The vtime package itself is exempt: it owns the sanctioned boundaries
// (the watchdog's injectable clock and the scheduling order).
package parlint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint"
)

// Analyzers is the interprocedural determinism suite in reporting order.
func Analyzers() []*lint.Analyzer {
	return []*lint.Analyzer{GlobalMut, WallclockTaint, GlobalRandTaint, MapOrderTaint}
}

// ctx is the shared context model computed once per call graph.
type ctx struct {
	g *lint.CallGraph

	// simReach maps every function reachable from a callback handed to
	// vtime (Spawn bodies, Post completions) to the caller it was first
	// reached from (nil for the callbacks themselves).  Everything here
	// executes under simulated time.
	simReach map[*lint.FuncNode]*lint.FuncNode
}

// ctxCache memoises the context per call graph; the runner executes
// the suite's analyzers sequentially over one graph.
var ctxCache = map[*lint.CallGraph]*ctx{}

func contextOf(g *lint.CallGraph) *ctx {
	if c, ok := ctxCache[g]; ok {
		return c
	}
	c := &ctx{g: g, simReach: make(map[*lint.FuncNode]*lint.FuncNode)}
	c.computeReach()
	ctxCache[g] = c
	return c
}

// isVtimePkg reports whether a package is the kernel package.  Matched
// by path suffix so linttest corpus modules with a stub vtime
// subpackage model the real API.
func isVtimePkg(p *types.Package) bool {
	if p == nil {
		return false
	}
	path := p.Path()
	return path == "vtime" || strings.HasSuffix(path, "/vtime")
}

func isVtimeNode(n *lint.FuncNode) bool {
	return n.Pkg.Types != nil && isVtimePkg(n.Pkg.Types)
}

// isVtimeFunc reports whether a callee belongs to the kernel API.
func isVtimeFunc(fn *types.Func) bool { return fn != nil && isVtimePkg(fn.Pkg()) }

// computeReach walks call edges from the simulation roots: every
// function value passed to any vtime API call outside vtime itself.
func (c *ctx) computeReach() {
	var roots []*lint.FuncNode
	seen := make(map[*lint.FuncNode]bool)
	for _, n := range c.g.Nodes {
		if isVtimeNode(n) {
			continue
		}
		for _, cs := range n.Calls {
			if !isVtimeFunc(cs.Callee) {
				continue
			}
			for _, arg := range cs.Expr.Args {
				for _, t := range c.g.FuncValues(n.Pkg, arg) {
					if !seen[t] && !isVtimeNode(t) {
						seen[t] = true
						roots = append(roots, t)
					}
				}
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Index < roots[j].Index })
	c.bfs(roots)
}

// bfs walks call edges from the roots into simReach.  Edges into vtime
// are never followed: the kernel's internals are exempt, and a callback
// handed to it is a root of its own.
func (c *ctx) bfs(roots []*lint.FuncNode) {
	reach := c.simReach
	queue := make([]*lint.FuncNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := reach[r]; !ok {
			reach[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, cs := range n.Calls {
			if isVtimeFunc(cs.Callee) {
				continue
			}
			for _, t := range cs.Targets {
				if isVtimeNode(t) {
					continue
				}
				if _, ok := reach[t]; !ok {
					reach[t] = n
					queue = append(queue, t)
				}
			}
		}
	}
}

// chain renders the witness path from a simulation root to n, e.g.
// "simmpi.Launch$1 → simmpi.NewTeam".  Cycles cannot occur: simReach
// holds the first (acyclic) predecessor of each node.
func (c *ctx) chain(n *lint.FuncNode) string {
	var names []string
	for cur := n; cur != nil; cur = c.simReach[cur] {
		names = append(names, cur.Name)
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}

// reached returns the simulation-reachable nodes in deterministic index
// order, excluding vtime internals.
func (c *ctx) reached() []*lint.FuncNode {
	var out []*lint.FuncNode
	for _, n := range c.g.Nodes { // Nodes is already in index order
		if _, ok := c.simReach[n]; ok && !isVtimeNode(n) {
			out = append(out, n)
		}
	}
	return out
}

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
