package detlint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint"
)

// GlobalMut flags writes to package-level variables from
// simulation-reachable code.  The -j job pool runs several simulations
// at once in one process, so such a write is a data race between jobs
// and a leak of one job's state into another — a static pre-screen for
// what -race can only catch when the schedule happens to collide.
var GlobalMut = &lint.Analyzer{
	Name: "globalmut",
	Doc:  "flags writes to package-level state from simulation-reachable code",
	RunModule: func(pass *lint.ModulePass) error {
		sim := simulationCode(pass.Graph)
		report := func(n *lint.FuncNode, pos token.Pos, v *types.Var) {
			pass.Report(pos,
				"write to package-level %s.%s from simulation code (via %s); concurrent jobs share it, so move the state into the run",
				v.Pkg().Name(), v.Name(), sim.chain(n))
		}
		for _, n := range pass.Graph.Nodes {
			if !sim.has(n) {
				continue
			}
			inspectOwn(n, func(nd ast.Node) bool {
				switch nd := nd.(type) {
				case *ast.AssignStmt:
					for _, lhs := range nd.Lhs {
						if v := packageLevelTarget(n.Pkg, lhs); v != nil {
							report(n, lhs.Pos(), v)
						}
					}
				case *ast.IncDecStmt:
					if v := packageLevelTarget(n.Pkg, nd.X); v != nil {
						report(n, nd.Pos(), v)
					}
				}
				return true
			})
		}
		return nil
	},
}

// packageLevelTarget resolves an assignment target to the
// package-level variable whose storage it writes, or nil.  The walk
// peels selectors, indexing and derefs down to the root identifier:
// writing a field or element of a package-level variable mutates
// shared state just the same.
func packageLevelTarget(pkg *lint.Package, lhs ast.Expr) *types.Var {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			// Qualified reference to another package's variable: the
			// root identifier is the package name, the var is the Sel.
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
				if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
					if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
						return v
					}
					return nil
				}
			}
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.Ident:
			obj := pkg.Info.Uses[e]
			if obj == nil {
				obj = pkg.Info.Defs[e]
			}
			v, ok := obj.(*types.Var)
			if !ok || v.Pkg() == nil {
				return nil
			}
			// Package-level: declared directly in the package scope.
			if v.Parent() == v.Pkg().Scope() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}
