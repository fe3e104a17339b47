// Package lint is a small static-analysis framework built on the
// standard library's go/ast and go/types only, so the repo keeps zero
// external modules.  LoadModule parses and type-checks every package of
// one module, BuildCallGraph builds the module-wide call graph, and
// RunModuleAnalyzers applies a suite of analyzers to both at once,
// honouring //detlint:allow directives.  The determinism suite lives in
// internal/lint/detlint; internal/lint/linttest checks analyzers against
// `// want` comments in small corpus modules.
package lint

import (
	"fmt"
	"go/token"
	"strings"
)

// Analyzer is one static check, applied once to a whole module with
// the call graph built.
type Analyzer struct {
	// Name identifies the analyzer in output and in suppression
	// directives ("//detlint:allow <name>").
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// RunModule applies the check, reporting findings through
	// pass.Report.  Nil only for UnusedAllow, which the runner handles.
	RunModule func(pass *ModulePass) error
}

// ModulePass carries the whole loaded module and its call graph
// through an analyzer.
type ModulePass struct {
	Analyzer *Analyzer
	Module   *Module
	Graph    *CallGraph

	diags *[]Diagnostic
}

// Report records a finding.
func (p *ModulePass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Module.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Directive is the comment prefix that suppresses findings:
// "//detlint:allow <analyzer...>[: justification]" on the finding's
// line or the line above.  Everything after the first ':' following
// the analyzer names is a free-form justification and is not parsed.
const Directive = "//detlint:allow"

// parseDirective extracts the analyzer names of one allow directive.
// Returns nil when the comment is not a directive.
func parseDirective(text string) []string {
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, Directive) {
		return nil
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, Directive))
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		rest = rest[:i]
	}
	return strings.Fields(rest)
}
