// Command detlint runs the repo's static-analysis suites over the
// whole module, multichecker-style: findings print as file:line:col
// diagnostics (or JSON with -json), and any finding fails the run.
//
//	detlint                      # determinism suite (syntactic)
//	detlint -suite parlint       # interprocedural determinism suite
//	detlint -suite all -json     # everything, machine-readable
//
// Suites:
//
//	detlint  wallclock/globalrand/maporder, syntactic per-package pass
//	parlint  globalmut plus the interprocedural taint upgrades of the
//	         detlint analyzers (see internal/lint/parlint)
//	all      both suites plus the unusedallow meta-check, which reports
//	         //detlint:allow directives that no longer suppress anything
//
// Suppress a deliberate exception with a "//detlint:allow <analyzer>:
// why" comment on the offending line or the line above.
//
// -quick runs the full "all" suite under a wall-clock budget
// (-budget, default 60s) and fails if analysis alone exceeds it — the
// CI smoke that keeps the module-wide loader from silently blowing up
// CI time.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/lint"
	"repro/internal/lint/detlint"
	"repro/internal/lint/parlint"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("detlint: ")
	var (
		suite   = flag.String("suite", "detlint", "analyzer suite: detlint, parlint, or all")
		jsonOut = flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
		verbose = flag.Bool("v", false, "report module and analyzer progress on stderr")
		quick   = flag.Bool("quick", false, "run the full suite under a wall-clock budget (implies -suite all)")
		budget  = flag.Duration("budget", 60*time.Second, "wall-clock budget for -quick")
	)
	flag.Parse()

	modDir, err := findModuleRoot()
	if err != nil {
		log.Fatal(err)
	}
	if *quick {
		*suite = "all"
	}

	var analyzers []*lint.Analyzer
	switch *suite {
	case "detlint":
		analyzers = detlint.Analyzers()
	case "parlint":
		analyzers = parlint.Analyzers()
	case "all":
		analyzers = append(analyzers, detlint.Analyzers()...)
		analyzers = append(analyzers, parlint.Analyzers()...)
		analyzers = append(analyzers, lint.UnusedAllow)
	default:
		log.Fatalf("unknown suite %q (want detlint, parlint, or all)", *suite)
	}

	start := time.Now() //detlint:allow wallclock: -quick budget measurement
	if *verbose {
		fmt.Fprintf(os.Stderr, "loading module at %s\n", modDir)
	}
	m, err := lint.LoadModule(modDir)
	if err != nil {
		log.Fatal(err)
	}
	if *verbose {
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "running %s\n", a.Name)
		}
	}
	diags, err := lint.RunModuleAnalyzers(m, analyzers)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start) //detlint:allow wallclock: -quick budget measurement
	lint.RelativizePaths(diags, modDir)

	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
			log.Fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *quick {
		fmt.Fprintf(os.Stderr, "detlint: suite all over %d packages in %v (budget %v)\n",
			len(m.Packages), elapsed.Round(time.Millisecond), *budget)
		if elapsed > *budget {
			log.Fatalf("-quick budget exceeded: %v > %v", elapsed, *budget)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
