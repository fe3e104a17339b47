package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds a module-wide call graph on top of go/types, which
// the analyzers use to find simulation-reachable code and to summarise
// helpers bottom-up.  Three kinds of call are resolved:
//
//   - static calls: plain functions, methods on concrete receivers, and
//     immediately-invoked function literals resolve to exactly one node.
//   - interface dispatch: a call through an interface method edges to
//     every method of every module type that implements the interface —
//     a sound over-approximation of whatever dynamic type shows up.
//   - function values: a call through a variable, field or parameter is
//     resolved by a flow-insensitive value-flow graph (assignments,
//     composite literals and argument binding at statically resolved
//     call sites propagate function values between variables).  A value
//     that escapes into an untracked position (slice/map element,
//     channel, interface conversion, return value, argument of a
//     dynamic or interface call) joins a global "escaped" pool, and a
//     call whose callee expression cannot be tracked edges to every
//     escaped function with an identical signature.
//
// Function values passed as arguments to functions *outside* the module
// (sort.Slice, filepath.Walk, ...) are modelled as called directly by
// the caller — the callee's source is not loaded, so "the caller may
// invoke it" is the sound default.
//
// Everything is deterministic: nodes are numbered in (package path,
// file, position) order, adjacency lists are kept in source order, and
// every resolution that consults a set sorts by node index.

// FuncNode is one function in the call graph: a declared function or
// method (Obj != nil) or a function literal (Lit != nil).
type FuncNode struct {
	Index int
	Pkg   *Package
	File  *ast.File
	Obj   *types.Func   // nil for function literals
	Decl  *ast.FuncDecl // nil for function literals
	Lit   *ast.FuncLit  // nil for declarations
	// Name is the diagnostic name: "pkg.Func", "(*pkg.T).M", or
	// "pkg.Func$1" for the N-th literal inside pkg.Func ("pkg$init$1"
	// for a literal in a package-level initializer).
	Name string
	// Calls lists the call sites in the node's own body, in source
	// order, excluding the bodies of nested function literals (those are
	// their own nodes).
	Calls []*CallSite

	body *ast.BlockStmt
}

// Body returns the node's statement body.
func (n *FuncNode) Body() *ast.BlockStmt { return n.body }

// Pos returns the node's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// CallSite is one call expression inside a node.
type CallSite struct {
	Site token.Pos
	Expr *ast.CallExpr
	// Callee is the statically named callee object — a top-level
	// function, a method (concrete or interface), possibly from outside
	// the module.  Nil for calls through function values.
	Callee *types.Func
	// Interface marks an interface-method dispatch; Targets then holds
	// every implementing module method.
	Interface bool
	// Dynamic marks a call through a function value; Targets holds the
	// value-flow resolution.
	Dynamic bool
	// Targets are the module-internal functions this call may reach.
	Targets []*FuncNode
	// Ext are non-module functions a dynamic call may reach (a function
	// value imported from another module flowing into the callee
	// expression), for analyzers that match external APIs.
	Ext []*types.Func
}

// CallGraph is the module-wide call graph.
type CallGraph struct {
	Module *Module
	Nodes  []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode

	flows   map[types.Object]*flowEntry
	escaped []funcVal
	// poolVars are function-typed variables whose contents escaped into
	// an untracked position; their resolved values join the pool.
	poolVars []types.Object

	sccs [][]*FuncNode
}

// funcVal is one function value tracked by the flow graph: a module
// node or an external function, with the signature it had at the point
// it became a value (method values lose their receiver parameter).
type funcVal struct {
	node *FuncNode
	ext  *types.Func
	sig  *types.Signature
}

// flowEntry records what may flow into one variable (local, parameter,
// field or package-level var).
type flowEntry struct {
	vals    []funcVal
	vars    []types.Object // variable-to-variable assignments
	escaped bool           // received a value the builder cannot track
}

// BuildCallGraph constructs the call graph for a loaded module.
func BuildCallGraph(m *Module) *CallGraph {
	g := &CallGraph{
		Module: m,
		byObj:  make(map[*types.Func]*FuncNode),
		byLit:  make(map[*ast.FuncLit]*FuncNode),
		flows:  make(map[types.Object]*flowEntry),
	}
	g.collectNodes()
	g.collectFlows()
	g.resolveCalls()
	return g
}

// collectNodes numbers every function declaration and literal in
// (package, file, position) order.
func (g *CallGraph) collectNodes() {
	for _, pkg := range g.Module.Packages {
		for _, f := range pkg.Files {
			// Stack of enclosing nodes so literals get hierarchical names.
			type scope struct {
				node *FuncNode
				n    int // literal counter
				end  token.Pos
			}
			var stack []scope
			baseName := func() (string, *int) {
				if len(stack) == 0 {
					return pkg.Types.Name() + "$init", nil
				}
				top := &stack[len(stack)-1]
				return top.node.Name, &top.n
			}
			ast.Inspect(f, func(nd ast.Node) bool {
				if nd == nil {
					return true
				}
				for len(stack) > 0 && nd.Pos() >= stack[len(stack)-1].end {
					stack = stack[:len(stack)-1]
				}
				switch nd := nd.(type) {
				case *ast.FuncDecl:
					if nd.Body == nil {
						return false
					}
					obj, _ := pkg.Info.Defs[nd.Name].(*types.Func)
					node := &FuncNode{
						Index: len(g.Nodes), Pkg: pkg, File: f,
						Obj: obj, Decl: nd, body: nd.Body,
						Name: declName(pkg, nd, obj),
					}
					g.Nodes = append(g.Nodes, node)
					if obj != nil {
						g.byObj[obj] = node
					}
					stack = append(stack, scope{node: node, end: nd.End()})
				case *ast.FuncLit:
					base, counter := baseName()
					n := 1
					if counter != nil {
						*counter++
						n = *counter
					} else {
						// Literal in a package-level initializer: count per file
						// via a synthetic scope entry below.
						n = fileInitCount(g, f) + 1
					}
					node := &FuncNode{
						Index: len(g.Nodes), Pkg: pkg, File: f,
						Lit: nd, body: nd.Body,
						Name: fmt.Sprintf("%s$%d", base, n),
					}
					g.Nodes = append(g.Nodes, node)
					g.byLit[nd] = node
					stack = append(stack, scope{node: node, end: nd.End()})
				}
				return true
			})
		}
	}
}

// fileInitCount counts literals already numbered under this file's
// package-initializer scope, to keep their names unique.
func fileInitCount(g *CallGraph, f *ast.File) int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.File == f && nd.Lit != nil && strings.Contains(nd.Name, "$init$") {
			n++
		}
	}
	return n
}

func declName(pkg *Package, d *ast.FuncDecl, obj *types.Func) string {
	name := pkg.Types.Name() + "." + d.Name.Name
	if d.Recv != nil && len(d.Recv.List) > 0 {
		recv := types.ExprString(d.Recv.List[0].Type)
		return fmt.Sprintf("(%s.%s).%s", pkg.Types.Name(), strings.TrimPrefix(recv, "*"), d.Name.Name)
	}
	_ = obj
	return name
}

// nodeFor maps a types.Func to its node (nil if external or bodyless).
func (g *CallGraph) nodeFor(fn *types.Func) *FuncNode { return g.byObj[fn.Origin()] }

// ---------------------------------------------------------------------
// Value flow
// ---------------------------------------------------------------------

// collectFlows walks every file recording how function values move
// between variables, fields and parameters.
func (g *CallGraph) collectFlows() {
	for _, node := range g.Nodes {
		g.flowWalk(node, node.body)
	}
	// Package-level initializer expressions (outside any node).
	for _, pkg := range g.Module.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							obj := pkg.Info.Defs[name]
							g.flowAssign(pkg, obj, vs.Values[i])
						}
					}
				}
			}
		}
	}
}

// flowWalk records flow facts from one node's own statements.
func (g *CallGraph) flowWalk(node *FuncNode, body *ast.BlockStmt) {
	pkg := node.Pkg
	ast.Inspect(body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.FuncLit:
			_ = nd
			return false // nested literal: its own node records its own flows
		case *ast.AssignStmt:
			for i, lhs := range nd.Lhs {
				if i < len(nd.Rhs) && len(nd.Lhs) == len(nd.Rhs) {
					g.flowAssign(pkg, g.lhsObject(pkg, lhs), nd.Rhs[i])
				}
				// Multi-value RHS (x, y := f()): function-typed results are
				// call results — untracked, mark the target escaped-in.
				if len(nd.Lhs) != len(nd.Rhs) {
					if obj := g.lhsObject(pkg, lhs); obj != nil && isFuncType(obj.Type()) {
						g.entry(obj).escaped = true
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := nd.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							g.flowAssign(pkg, pkg.Info.Defs[name], vs.Values[i])
						}
					}
				}
			}
		case *ast.CompositeLit:
			g.flowComposite(pkg, nd)
		case *ast.ReturnStmt:
			for _, r := range nd.Results {
				g.escape(pkg, r)
			}
		case *ast.SendStmt:
			g.escape(pkg, nd.Value)
		case *ast.CallExpr:
			g.flowCallArgs(node, nd)
		}
		return true
	})
}

// flowAssign records "obj may hold the value of rhs".
func (g *CallGraph) flowAssign(pkg *Package, obj types.Object, rhs ast.Expr) {
	if obj == nil || !isFuncType(obj.Type()) {
		// Function values can also hide inside assigned composite
		// literals; those are picked up by the CompositeLit case.
		return
	}
	e := g.entry(obj)
	switch v := g.valueOf(pkg, rhs); {
	case v != nil:
		e.vals = append(e.vals, *v)
	default:
		if src := g.exprObject(pkg, rhs); src != nil {
			e.vars = append(e.vars, src)
		} else {
			e.escaped = true
		}
	}
}

// flowComposite binds function-valued elements of a composite literal:
// struct fields flow to the field object, everything else escapes.
func (g *CallGraph) flowComposite(pkg *Package, cl *ast.CompositeLit) {
	tv, ok := pkg.Info.Types[cl]
	if !ok {
		return
	}
	st, isStruct := deref(tv.Type).Underlying().(*types.Struct)
	for i, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if isStruct {
				if id, ok := kv.Key.(*ast.Ident); ok {
					if fobj := fieldByName(st, id.Name); fobj != nil {
						g.flowAssign(pkg, fobj, kv.Value)
						continue
					}
				}
			}
			g.escape(pkg, kv.Value)
			continue
		}
		if isStruct && i < st.NumFields() {
			g.flowAssign(pkg, st.Field(i), el)
			continue
		}
		g.escape(pkg, el)
	}
}

// flowCallArgs binds function-valued arguments at a call site: to the
// callee's parameters when the callee is a statically known module
// function (or every implementer, for interface dispatch); into the
// escaped pool when the callee is itself a function value.  External
// callees are handled at edge-resolution time (the caller gets a direct
// edge to the argument instead).
func (g *CallGraph) flowCallArgs(node *FuncNode, call *ast.CallExpr) {
	pkg := node.Pkg
	callee, iface := g.staticCallee(pkg, call)
	switch {
	case callee == nil && g.isTypeConversion(pkg, call):
		return
	case callee == nil:
		// Dynamic call: arguments escape.
		for _, arg := range call.Args {
			g.escape(pkg, arg)
		}
	case iface != nil:
		for _, impl := range g.implementers(iface, callee) {
			g.bindParams(pkg, impl.obj, call)
		}
		// Implementations outside the module may also call the value.
		for _, arg := range call.Args {
			g.escape(pkg, arg)
		}
	case g.nodeFor(callee) != nil:
		g.bindParams(pkg, callee, call)
	default:
		// External callee: the caller is modelled as invoking the
		// argument itself (edge added in resolveCalls); the value also
		// escapes, since the callee may retain it.
		for _, arg := range call.Args {
			g.escape(pkg, arg)
		}
	}
}

// bindParams flows each argument into the matching parameter object.
func (g *CallGraph) bindParams(pkg *Package, callee *types.Func, call *ast.CallExpr) {
	sig, ok := callee.Origin().Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			g.escape(pkg, arg) // variadic func values: untracked
		case i < params.Len():
			g.flowAssign(pkg, params.At(i), arg)
		}
	}
}

// escape sends a function value (if expr is one) to the escaped pool.
// A variable holding function values that escapes sends its contents
// transitively (resolved lazily in escapedPool via poolVars).
func (g *CallGraph) escape(pkg *Package, expr ast.Expr) {
	if v := g.valueOf(pkg, expr); v != nil {
		g.escaped = append(g.escaped, *v)
		return
	}
	if obj := g.exprObject(pkg, expr); obj != nil && isFuncType(obj.Type()) {
		g.poolVars = append(g.poolVars, obj)
	}
}

// valueOf returns the function value an expression directly denotes: a
// function literal, a reference to a declared function, or a method
// value.  Nil when the expression is not a direct function value.
func (g *CallGraph) valueOf(pkg *Package, expr ast.Expr) *funcVal {
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.FuncLit:
		node := g.byLit[e]
		if node == nil {
			return nil
		}
		return &funcVal{node: node, sig: sigOf(pkg.Info.TypeOf(e))}
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
			return g.funcValFor(pkg, fn, pkg.Info.TypeOf(e))
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			// Method value or qualified function reference.
			return g.funcValFor(pkg, fn, pkg.Info.TypeOf(e))
		}
	}
	return nil
}

func (g *CallGraph) funcValFor(pkg *Package, fn *types.Func, t types.Type) *funcVal {
	sig := sigOf(t)
	if sig == nil {
		sig = sigOf(fn.Type())
	}
	if node := g.nodeFor(fn); node != nil {
		return &funcVal{node: node, sig: sig}
	}
	return &funcVal{ext: fn, sig: sig}
}

// exprObject resolves an expression to the variable object it reads:
// plain identifiers and field selectors.  Nil for anything else.
func (g *CallGraph) exprObject(pkg *Package, expr ast.Expr) types.Object {
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[e].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok {
			return v // package-qualified var
		}
	}
	return nil
}

// lhsObject resolves an assignment target to the variable that ends up
// holding the value; indexing/star targets return nil (untracked).
func (g *CallGraph) lhsObject(pkg *Package, lhs ast.Expr) types.Object {
	lhs = ast.Unparen(lhs)
	switch e := lhs.(type) {
	case *ast.Ident:
		if obj := pkg.Info.Defs[e]; obj != nil {
			return obj
		}
		return pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		return g.exprObject(pkg, e)
	}
	return nil
}

func (g *CallGraph) entry(obj types.Object) *flowEntry {
	e := g.flows[obj]
	if e == nil {
		e = &flowEntry{}
		g.flows[obj] = e
	}
	return e
}

// varValues resolves every function value a variable may hold,
// following variable-to-variable edges.  A visit of an escaped entry
// unions the signature-matching escaped pool.
func (g *CallGraph) varValues(obj types.Object, sig *types.Signature) []funcVal {
	var out []funcVal
	seen := make(map[types.Object]bool)
	var visit func(o types.Object)
	usePool := false
	visit = func(o types.Object) {
		if seen[o] {
			return
		}
		seen[o] = true
		e := g.flows[o]
		if e == nil {
			// Nothing ever assigned that we saw: parameters of functions
			// that are themselves called dynamically, struct fields set by
			// reflection, ...  Fall back to the pool.
			usePool = true
			return
		}
		if e.escaped {
			usePool = true
		}
		out = append(out, e.vals...)
		for _, v := range e.vars {
			visit(v)
		}
	}
	visit(obj)
	if usePool {
		out = append(out, g.escapedPool(sig)...)
	}
	return out
}

// escapedPool returns the escaped values whose signature is identical
// to sig (all of them when sig is nil).
func (g *CallGraph) escapedPool(sig *types.Signature) []funcVal {
	var out []funcVal
	for _, v := range g.escaped {
		if v.node == nil && v.ext == nil {
			continue
		}
		if sig == nil || v.sig == nil || types.Identical(v.sig, sig) {
			out = append(out, v)
		}
	}
	for _, obj := range g.poolVars {
		e := g.flows[obj]
		if e == nil {
			continue
		}
		for _, v := range e.vals {
			if sig == nil || v.sig == nil || types.Identical(v.sig, sig) {
				out = append(out, v)
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Call resolution
// ---------------------------------------------------------------------

// resolveCalls fills every node's call list.
func (g *CallGraph) resolveCalls() {
	for _, node := range g.Nodes {
		g.resolveNode(node)
	}
}

func (g *CallGraph) resolveNode(node *FuncNode) {
	pkg := node.Pkg
	ast.Inspect(node.body, func(nd ast.Node) bool {
		if lit, ok := nd.(*ast.FuncLit); ok && lit != node.Lit {
			return false // nested literal: its own node
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if g.isTypeConversion(pkg, call) || g.isBuiltin(pkg, call) {
			return true
		}
		cs := &CallSite{Site: call.Lparen, Expr: call}
		callee, iface := g.staticCallee(pkg, call)
		switch {
		case callee != nil && iface != nil:
			cs.Callee = callee
			cs.Interface = true
			for _, impl := range g.implementers(iface, callee) {
				if n := g.nodeFor(impl.obj); n != nil {
					cs.Targets = append(cs.Targets, n)
				}
			}
		case callee != nil:
			cs.Callee = callee
			if n := g.nodeFor(callee); n != nil {
				cs.Targets = append(cs.Targets, n)
			} else {
				// External callee: function-valued arguments are modelled
				// as invoked by this caller.
				for _, arg := range call.Args {
					g.argTargets(pkg, arg, cs)
				}
			}
		default:
			if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
				if n := g.byLit[lit]; n != nil {
					cs.Targets = append(cs.Targets, n)
					break
				}
			}
			cs.Dynamic = true
			sig := sigOf(pkg.Info.TypeOf(call.Fun))
			var vals []funcVal
			if obj := g.exprObject(pkg, call.Fun); obj != nil {
				vals = g.varValues(obj, sig)
			} else if v := g.valueOf(pkg, call.Fun); v != nil {
				vals = []funcVal{*v}
			} else {
				vals = g.escapedPool(sig)
			}
			for _, v := range vals {
				if v.node != nil {
					cs.Targets = append(cs.Targets, v.node)
				} else if v.ext != nil {
					cs.Ext = append(cs.Ext, v.ext)
				}
			}
		}
		cs.Targets = dedupeNodes(cs.Targets)
		cs.Ext = dedupeExt(cs.Ext)
		node.Calls = append(node.Calls, cs)
		return true
	})
	sort.SliceStable(node.Calls, func(i, j int) bool { return node.Calls[i].Site < node.Calls[j].Site })
}

// argTargets adds function values appearing in an argument expression
// as direct targets of the call site (external higher-order callee).
func (g *CallGraph) argTargets(pkg *Package, arg ast.Expr, cs *CallSite) {
	if v := g.valueOf(pkg, arg); v != nil {
		if v.node != nil {
			cs.Targets = append(cs.Targets, v.node)
		}
		return
	}
	if obj := g.exprObject(pkg, arg); obj != nil && isFuncType(obj.Type()) {
		sig, _ := obj.Type().Underlying().(*types.Signature)
		for _, v := range g.varValues(obj, sig) {
			if v.node != nil {
				cs.Targets = append(cs.Targets, v.node)
			}
		}
	}
}

// FuncValues resolves the module function nodes an expression may
// evaluate to, with the same machinery dynamic-call resolution uses:
// direct literals and function references resolve exactly; variables
// resolve through the flow graph; anything else falls back to the
// signature-matched escaped pool.
func (g *CallGraph) FuncValues(pkg *Package, expr ast.Expr) []*FuncNode {
	if v := g.valueOf(pkg, expr); v != nil {
		if v.node != nil {
			return []*FuncNode{v.node}
		}
		return nil
	}
	if obj := g.exprObject(pkg, expr); obj != nil && isFuncType(obj.Type()) {
		sig, _ := obj.Type().Underlying().(*types.Signature)
		var out []*FuncNode
		for _, v := range g.varValues(obj, sig) {
			if v.node != nil {
				out = append(out, v.node)
			}
		}
		return dedupeNodes(out)
	}
	return nil
}

// staticCallee resolves the statically named callee of a call.  For an
// interface-method call the interface type is returned alongside.
func (g *CallGraph) staticCallee(pkg *Package, call *ast.CallExpr) (*types.Func, *types.Interface) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn, nil
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn, _ := sel.Obj().(*types.Func)
			if fn == nil {
				return nil, nil
			}
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				return fn, iface
			}
			return fn, nil
		}
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn, nil // pkg-qualified function
		}
	}
	return nil, nil
}

func (g *CallGraph) isTypeConversion(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call.Fun]
	return ok && tv.IsType()
}

func (g *CallGraph) isBuiltin(pkg *Package, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		_, builtin := pkg.Info.Uses[id].(*types.Builtin)
		return builtin
	}
	return false
}

// implementer is one module method implementing an interface method.
type implementer struct {
	obj *types.Func
}

// implementers returns the methods of module types that implement the
// given interface method, in deterministic (package, type) order.
func (g *CallGraph) implementers(iface *types.Interface, method *types.Func) []implementer {
	var out []implementer
	for _, pkg := range g.Module.Packages {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			ms := types.NewMethodSet(ptr)
			sel := ms.Lookup(method.Pkg(), method.Name())
			if sel == nil {
				continue
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				out = append(out, implementer{obj: fn})
			}
		}
	}
	return out
}

func dedupeNodes(nodes []*FuncNode) []*FuncNode {
	if len(nodes) < 2 {
		return nodes
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Index < nodes[j].Index })
	out := nodes[:1]
	for _, n := range nodes[1:] {
		if n != out[len(out)-1] {
			out = append(out, n)
		}
	}
	return out
}

func dedupeExt(ext []*types.Func) []*types.Func {
	if len(ext) < 2 {
		return ext
	}
	sort.Slice(ext, func(i, j int) bool { return ext[i].FullName() < ext[j].FullName() })
	out := ext[:1]
	for _, e := range ext[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// SCC condensation
// ---------------------------------------------------------------------

// SCCs returns the strongly connected components of the call graph in
// bottom-up order: every component is emitted after all components it
// calls into, so a single pass over the result propagates per-function
// summaries from callees to callers.  The order is deterministic.
func (g *CallGraph) SCCs() [][]*FuncNode {
	if g.sccs != nil {
		return g.sccs
	}
	n := len(g.Nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var sccs [][]*FuncNode
	next := 0
	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, cs := range g.Nodes[v].Calls {
			for _, t := range cs.Targets {
				w := t.Index
				if index[w] == -1 {
					strongconnect(w)
					if low[w] < low[v] {
						low[v] = low[w]
					}
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
		}
		if low[v] == index[v] {
			var comp []*FuncNode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, g.Nodes[w])
				if w == v {
					break
				}
			}
			sort.Slice(comp, func(i, j int) bool { return comp[i].Index < comp[j].Index })
			sccs = append(sccs, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			strongconnect(v)
		}
	}
	g.sccs = sccs
	return sccs
}

// ---------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------

func isFuncType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// sigOf unwraps a type to its function signature.  A named function
// type (`type Filter func(string) bool`) carries the signature in its
// underlying type; asserting on the named type directly would yield
// nil, and a nil signature wildcard-matches the whole escaped pool —
// so every call through a named func type would conservatively reach
// every escaped function in the module.  Nil when t is not a function
// type at all.
func sigOf(t types.Type) *types.Signature {
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func fieldByName(st *types.Struct, name string) *types.Var {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
}
