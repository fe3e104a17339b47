package lint

import (
	"go/token"
	"path/filepath"
	"sort"
)

// Module is every package of one Go module, parsed and type-checked
// through a single Loader (so cross-package type identities agree).  It
// is the unit every analyzer operates on: a module-wide call graph only
// makes sense when the whole dependency closure inside the module is
// loaded.
type Module struct {
	Dir  string
	Path string // module path from go.mod ("" for go.mod-less corpora)
	Fset *token.FileSet

	// Packages is sorted by import path, so every module-wide walk that
	// iterates it is deterministic by construction.
	Packages []*Package
}

// LoadModule parses and type-checks every package under dir (the
// "./..." expansion, minus testdata/vendor/hidden trees).  Intra-module
// imports are resolved recursively, so packages come out in a complete
// dependency closure regardless of walk order; the returned slice is
// sorted by import path.
func LoadModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	loader, err := NewLoader(abs)
	if err != nil {
		return nil, err
	}
	dirs, err := ModuleDirs(abs)
	if err != nil {
		return nil, err
	}
	m := &Module{Dir: abs, Path: loader.ModPath, Fset: loader.Fset}
	for _, d := range dirs {
		pkg, err := loader.LoadDir(d)
		if err != nil {
			return nil, err
		}
		m.Packages = append(m.Packages, pkg)
	}
	sort.Slice(m.Packages, func(i, j int) bool { return m.Packages[i].Path < m.Packages[j].Path })
	return m, nil
}
