// Package detlint enforces the repo's determinism contract in source:
// simulation results must be a pure function of (spec, mode, seed,
// noise, faults, config) — that is what makes the content-addressed run
// cache sound and lets studies reproduce bit-for-bit, even while the -j
// job pool runs several simulations in one process.  Four analyzers
// guard the ways Go code usually breaks that property:
//
//   - wallclock: references to time.Now or time.Since.  Real time must
//     never influence simulation state.  The sanctioned reads sit in the
//     cmd binaries, which use the host clock only for observe-only
//     reporting such as obs.NewProgress, and in the benchmark harnesses;
//     each carries a "//detlint:allow wallclock" directive.  No
//     simulation package reads the host clock.
//   - globalrand: calls through the process-global math/rand generator
//     (rand.Intn, rand.Float64, rand.Shuffle, …).  The global generator
//     is shared, unseeded (or racily reseeded) state; deterministic code
//     threads an explicit rand.New(rand.NewSource(seed)).
//   - maporder: map-range loops whose iteration order leaks into an
//     ordered sink — appending to storage declared outside the loop
//     without a later sort, serialising inside the loop (Fprintf,
//     Write…, Encode…, Add…), or adding to a float declared outside it
//     (float addition is not associative).  Go randomises map iteration
//     order per run; the fix is to iterate a sorted key slice.
//   - globalmut: writes to package-level variables from simulation code,
//     which concurrent jobs would share.
//
// Each of the first three finds its construct through one predicate
// and reports at two scopes:
//
//	scope   where                            what is reported
//	direct  anywhere in the module           the construct itself
//	helper  simulation-reachable code only   a call into a helper whose
//	                                         bottom-up summary reaches it
//
// The helper scope sees what no single function shows: a helper that
// wraps time.Now three calls deep is reported at its simulation-context
// call site.  A construct written directly in simulation code is
// reported once, by the direct scope.
//
// Simulation-reachable code is everything the module-wide call graph
// (internal/lint) reaches from a function value handed to the vtime
// kernel — Kernel.Spawn bodies and Post completion callbacks alike.
// The traversal is a deliberate over-approximation (interface dispatch
// fans out to every implementing type), so a clean run is a guarantee.
// The vtime package is exempt from the helper scope and from globalmut:
// it owns the scheduling order.
//
// Suppress a deliberate exception with "//detlint:allow <name>: why" on
// the offending line or the line above.
package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// Analyzers is the determinism suite in reporting order.
func Analyzers() []*lint.Analyzer {
	return []*lint.Analyzer{Wallclock, GlobalRand, MapOrder, GlobalMut}
}

// Wallclock flags references to time.Now and time.Since.
var Wallclock = &lint.Analyzer{
	Name: "wallclock",
	Doc:  "flags time.Now/time.Since: real time must not influence simulation state",
	RunModule: func(pass *lint.ModulePass) error {
		reportDirect(pass, wallclockRef,
			"time.%s reads the wall clock; inject a clock function (see obs.NewProgress) so simulation stays deterministic")
		reportHelperCalls(pass, reachesWallclock,
			"reaches the wall clock (%s); simulation code must take virtual time from the kernel")
		return nil
	},
}

// isWallclock is wallclock's predicate: whether the function name of
// package path reads the host clock.
func isWallclock(path, name string) bool {
	return path == "time" && (name == "Now" || name == "Since")
}

func wallclockRef(pkg *lint.Package, f *ast.File, nd ast.Node) string {
	if sel, ok := nd.(*ast.SelectorExpr); ok && isWallclock(pkgPathOf(pkg, f, sel), sel.Sel.Name) {
		return sel.Sel.Name
	}
	return ""
}

// reachesWallclock summarises one function: its own body references the
// wall clock, or calls a function value that resolves to it (a clock
// injected as time.Now).
func reachesWallclock(n *lint.FuncNode) bool {
	if ownHas(n, wallclockRef) {
		return true
	}
	for _, cs := range n.Calls {
		for _, ext := range cs.Ext {
			if ext.Pkg() != nil && isWallclock(ext.Pkg().Path(), ext.Name()) {
				return true
			}
		}
	}
	return false
}

// GlobalRand flags calls through the process-global math/rand generator.
var GlobalRand = &lint.Analyzer{
	Name: "globalrand",
	Doc:  "flags global math/rand calls: thread an explicit rand.New(rand.NewSource(seed))",
	RunModule: func(pass *lint.ModulePass) error {
		reportDirect(pass, globalRandCall,
			"rand.%s uses the process-global generator; use rand.New(rand.NewSource(seed)) for reproducible runs")
		reportHelperCalls(pass, func(n *lint.FuncNode) bool { return ownHas(n, globalRandCall) },
			"reaches the process-global math/rand generator (%s); thread an explicit seeded *rand.Rand instead")
		return nil
	},
}

// globalRandOK lists math/rand selectors that do not touch the global
// generator: constructors and types.
var globalRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"Source": true, "Rand": true, "Zipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2 constructors
	"PCG": true, "ChaCha8": true,
}

// globalRandCall is globalrand's predicate: it names the function a
// call through the process-global generator calls.
func globalRandCall(pkg *lint.Package, f *ast.File, nd ast.Node) string {
	call, ok := nd.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch pkgPathOf(pkg, f, sel) {
	case "math/rand", "math/rand/v2":
		if !globalRandOK[sel.Sel.Name] {
			return sel.Sel.Name
		}
	}
	return ""
}

// MapOrder flags map-range loops whose iteration order escapes into an
// ordered sink: directly in the loop body, or — in simulation code —
// through a helper the loop calls.  The collect-then-sort idiom (a
// sort.* or slices.* call after the loop) is honoured.
var MapOrder = &lint.Analyzer{
	Name: "maporder",
	Doc:  "flags map iteration flowing into appends/serialisation without an intervening sort",
	RunModule: func(pass *lint.ModulePass) error {
		sim := simulationCode(pass.Graph)
		emits := propagate(pass.Graph, func(n *lint.FuncNode) bool {
			return ownHas(n, func(pkg *lint.Package, f *ast.File, nd ast.Node) string {
				return emission(pkg, f, nd, n.Body())
			})
		})
		for _, n := range pass.Graph.Nodes {
			inspectOwn(n, func(nd ast.Node) bool {
				if rs, ok := nd.(*ast.RangeStmt); ok && rangesOverMap(n.Pkg, rs) {
					checkMapRange(pass, n, rs, sim.has(n), emits)
				}
				return true
			})
		}
		return nil
	},
}

func checkMapRange(pass *lint.ModulePass, n *lint.FuncNode, rs *ast.RangeStmt, simulated bool, emits map[*lint.FuncNode]bool) {
	sorted := sortFollows(n, rs)
	ast.Inspect(rs.Body, func(nd ast.Node) bool {
		if as, ok := nd.(*ast.AssignStmt); ok && floatSum(n.Pkg, as, rs) {
			pass.Report(nd.Pos(),
				"float %s inside map-range loop sums in random order, and float addition is not associative; iterate sorted keys", as.Tok)
		}
		switch what := emission(n.Pkg, n.File, nd, rs); what {
		case "":
		case "append":
			if !sorted {
				pass.Report(nd.Pos(),
					"append inside map-range loop collects keys/values in random order; sort the result or iterate sorted keys")
			}
		default:
			pass.Report(nd.Pos(),
				"%s called inside map-range loop emits in random order; iterate sorted keys instead", what)
		}
		return true
	})
	if !simulated || sorted {
		return
	}
	for _, cs := range n.Calls {
		if cs.Site < rs.Body.Pos() || cs.Site > rs.Body.End() {
			continue
		}
		if t := targetIn(cs, emits); t != nil {
			pass.Report(cs.Site,
				"%s emits to an ordered sink and is called inside a map-range loop; iterate sorted keys or sort afterwards",
				t.Name)
		}
	}
}

// emission is maporder's predicate.  It names what nd emits in call
// order: "append" for an append assigned to storage declared outside
// scope, the callee ("fmt.Fprintf", "sb.WriteString") for an fmt print
// or a method whose name carries an order-sensitive prefix, and ""
// for anything else.
func emission(pkg *lint.Package, f *ast.File, nd ast.Node, scope ast.Node) string {
	switch nd := nd.(type) {
	case *ast.AssignStmt:
		for i, rhs := range nd.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok && isAppend(pkg, call) && i < len(nd.Lhs) && declaredOutside(pkg, nd.Lhs[i], scope) {
				return "append"
			}
		}
	case *ast.CallExpr:
		if sel, ok := nd.Fun.(*ast.SelectorExpr); ok && isSinkCall(pkg, f, sel) {
			if id, ok := sel.X.(*ast.Ident); ok {
				return id.Name + "." + sel.Sel.Name
			}
			return "(...)." + sel.Sel.Name
		}
	}
	return ""
}

// floatSum reports whether as adds to or subtracts from a float
// variable or field declared outside scope.  A map element does not
// count: a loop that touches each key once adds to each in one order.
func floatSum(pkg *lint.Package, as *ast.AssignStmt, scope ast.Node) bool {
	if as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN {
		return false
	}
	switch lhs := ast.Unparen(as.Lhs[0]).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		t := pkg.Info.TypeOf(lhs)
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsFloat != 0 && declaredOutside(pkg, lhs, scope)
	}
	return false
}

// sinkPrefixes are method-name prefixes treated as order-sensitive:
// they accumulate, serialise or intern their arguments in call order.
var sinkPrefixes = []string{
	"Add", "Append", "Write", "Print", "Fprint", "Encode",
	"Push", "Record", "Intern", "Marshal",
}

// isSinkCall reports whether a selector call serialises or accumulates
// in argument order: an fmt print, or a method whose name carries an
// order-sensitive prefix (AddMetric, WriteString, EncodeEntry, …).
// Functions of other packages are not sinks (json.Marshal sorts map
// keys itself).
func isSinkCall(pkg *lint.Package, f *ast.File, sel *ast.SelectorExpr) bool {
	name := sel.Sel.Name
	switch p := pkgPathOf(pkg, f, sel); p {
	case "fmt":
		return strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")
	case "":
		for _, prefix := range sinkPrefixes {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
	}
	return false
}

func isAppend(pkg *lint.Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, builtin := pkg.Info.Uses[id].(*types.Builtin)
	return builtin
}

// declaredOutside reports whether an assignment target's storage is
// declared outside scope, so what is written survives it.  Selector and
// index targets always qualify.
func declaredOutside(pkg *lint.Package, lhs ast.Expr, scope ast.Node) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return true
	}
	obj := pkg.Info.Uses[id]
	if obj == nil {
		obj = pkg.Info.Defs[id]
	}
	return obj == nil || obj.Pos() < scope.Pos() || obj.Pos() > scope.End()
}

// rangesOverMap reports whether the range statement iterates a map.
// Unknown types (incomplete type-check) do NOT count: a lint pass must
// not punish code it cannot resolve.
func rangesOverMap(pkg *lint.Package, rs *ast.RangeStmt) bool {
	t := pkg.Info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// sortFollows reports whether a sort.* or slices.* call follows the
// range statement inside the enclosing function n.
func sortFollows(n *lint.FuncNode, rs *ast.RangeStmt) bool {
	found := false
	ast.Inspect(n.Body(), func(nd ast.Node) bool {
		if call, ok := nd.(*ast.CallExpr); ok && call.Pos() > rs.End() {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				switch pkgPathOf(n.Pkg, n.File, sel) {
				case "sort", "slices":
					found = true
				}
			}
		}
		return !found
	})
	return found
}
