// Command detlint runs the determinism lint (internal/lint/detlint)
// over the whole module, multichecker-style: findings print as
// file:line:col diagnostics (or JSON with -json), and any finding fails
// the run.
//
//	detlint          # the whole suite, from anywhere inside the module
//	detlint -json    # the same, machine-readable
//	detlint -quick   # the same under a wall-clock budget (CI)
//
// The suite is wallclock, globalrand, maporder and globalmut, each
// reporting the construct anywhere in the module and, where it hides in
// a helper, the call from simulation code; plus unusedallow, which
// reports //detlint:allow directive names that suppress nothing, stale
// or misspelt.  Suppress a deliberate exception with a
// "//detlint:allow <analyzer>: why" comment on the offending line or
// the line above.
//
// -quick prints the run's timing on stderr and fails if analysis alone
// exceeds -budget (default 60s) — the CI smoke that keeps the
// module-wide loader from silently blowing up CI time.
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
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("detlint: ")
	var (
		jsonOut = flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
		verbose = flag.Bool("v", false, "report module and analyzer progress on stderr")
		quick   = flag.Bool("quick", false, "report the run's timing and fail if it exceeds -budget")
		budget  = flag.Duration("budget", 60*time.Second, "wall-clock budget for -quick")
	)
	flag.Parse()

	modDir, err := findModuleRoot()
	if err != nil {
		log.Fatal(err)
	}
	analyzers := append(detlint.Analyzers(), lint.UnusedAllow)

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
		fmt.Fprintf(os.Stderr, "detlint: %d packages in %v (budget %v)\n",
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
