package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"path/filepath"
	"sort"
)

// UnusedAllow is the meta-analyzer that reports //detlint:allow
// directive names suppressing nothing — stale ones and misspelt ones
// alike — so the allowlist cannot rot.  It has no RunModule of its own:
// the runner special-cases it, because it needs the suppression
// machinery's usage accounting.
var UnusedAllow = &Analyzer{
	Name: "unusedallow",
	Doc:  "report //detlint:allow directives that suppress no diagnostic",
}

// directiveSite is one parsed allow directive in the module.
type directiveSite struct {
	pos   token.Position
	names []string
	used  []bool // parallel to names
}

// RunModuleAnalyzers applies a suite to a loaded module: every
// analyzer gets the call graph, suppression is applied module-wide with
// usage accounting, and — if UnusedAllow is in the suite — directive
// names that suppressed nothing are reported.  The merged diagnostic
// stream is sorted by (analyzer, file, line, column, message) so output
// is byte-stable across runs and suitable for golden tests.
func RunModuleAnalyzers(m *Module, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	graph := BuildCallGraph(m)
	checkUnused := false
	for _, a := range analyzers {
		if a.Name == UnusedAllow.Name {
			checkUnused = true
			continue
		}
		mp := &ModulePass{Analyzer: a, Module: m, Graph: graph, diags: &diags}
		if err := a.RunModule(mp); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sites := collectDirectives(m)
	diags = suppress(sites, diags)
	if checkUnused {
		for _, s := range sites {
			for i, name := range s.names {
				if !s.used[i] {
					diags = append(diags, Diagnostic{
						Analyzer: UnusedAllow.Name,
						Pos:      s.pos,
						Message:  fmt.Sprintf("//detlint:allow %s suppresses no diagnostic; remove the stale directive", name),
					})
				}
			}
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// collectDirectives parses every allow directive in the module, in
// deterministic (package, file, position) order.
func collectDirectives(m *Module) []*directiveSite {
	var sites []*directiveSite
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names := parseDirective(c.Text)
					if len(names) == 0 {
						continue
					}
					sites = append(sites, &directiveSite{
						pos:   m.Fset.Position(c.Pos()),
						names: names,
						used:  make([]bool, len(names)),
					})
				}
			}
		}
	}
	return sites
}

// suppress drops diagnostics covered by a directive on the same line
// or the line above, marking each directive name that fired.
func suppress(sites []*directiveSite, diags []Diagnostic) []Diagnostic {
	type key struct {
		file string
		line int
		name string
	}
	type slot struct {
		site *directiveSite
		i    int
	}
	allowed := make(map[key][]slot)
	for _, s := range sites {
		for i, name := range s.names {
			allowed[key{s.pos.Filename, s.pos.Line, name}] = append(allowed[key{s.pos.Filename, s.pos.Line, name}], slot{s, i})
			allowed[key{s.pos.Filename, s.pos.Line + 1, name}] = append(allowed[key{s.pos.Filename, s.pos.Line + 1, name}], slot{s, i})
		}
	}
	if len(allowed) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		slots := allowed[key{d.Pos.Filename, d.Pos.Line, d.Analyzer}]
		if len(slots) == 0 {
			kept = append(kept, d)
			continue
		}
		for _, sl := range slots {
			sl.site.used[sl.i] = true
		}
	}
	return kept
}

// SortDiagnostics orders a merged cross-package diagnostic stream by
// (analyzer, file, line, column, message) — a total, content-only
// order, so two identical runs produce byte-identical output.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// RelativizePaths rewrites diagnostic file names relative to base
// (typically the module root), leaving unrelated paths alone.  Golden
// JSON output must not depend on where the checkout lives.
func RelativizePaths(diags []Diagnostic, base string) {
	for i := range diags {
		if rel, err := filepath.Rel(base, diags[i].Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			diags[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
}

// jsonDiag is the stable wire form of one diagnostic.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// WriteJSON emits the diagnostics as a JSON array, one object per
// finding, in the (already sorted) input order.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	out := make([]jsonDiag, len(diags))
	for i, d := range diags {
		out[i] = jsonDiag{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
