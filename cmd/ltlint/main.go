// Command ltlint verifies trace invariants: it reconstructs the
// synchronisation skeleton of a recorded trace and checks the Lamport
// clock condition on its edges, per-location monotonicity, send/recv
// matching, collective and barrier consistency, fork/join nesting,
// piggyback synchronisation and causality cycles (see
// internal/tracecheck).
//
// It either reads binary LTRC trace files, as strictly as
// trace.ReadFile (a cut or corrupt file fails), or runs a benchmark spec
// in-process across clock modes:
//
//	ltlint trace1.ltrc trace2.ltrc
//	ltlint -spec MiniFE-1 -quick -mode all
//	ltlint -spec LULESH-2 -quick -mode lt_stmt,lt_hwctr -json
//
// Exit status is 1 when any trace cannot be read or fails verification.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/noise"
	"repro/internal/trace"
	"repro/internal/tracecheck"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ltlint: ")
	specName := flag.String("spec", "", "run this benchmark spec in-process instead of reading trace files")
	modeFlag := flag.String("mode", "all", "clock modes for -spec: 'all' or a comma-separated list")
	quick := flag.Bool("quick", false, "with -spec: shrink the problem for a fast run")
	seed := flag.Int64("seed", 1, "with -spec: simulation seed")
	withNoise := flag.Bool("noise", false, "with -spec: enable the cluster noise model")
	jsonOut := flag.Bool("json", false, "emit one JSON report per trace instead of text")
	limit := flag.Int("limit", 20, "violations to print per trace (text output)")
	flag.Parse()

	var failed bool
	switch {
	case *specName != "":
		if flag.NArg() != 0 {
			log.Fatal("-spec and trace files are mutually exclusive")
		}
		failed = runSpec(*specName, *modeFlag, *quick, *seed, *withNoise, *jsonOut, *limit)
	case flag.NArg() > 0:
		for _, path := range flag.Args() {
			if !checkFile(path, *jsonOut, *limit) {
				failed = true
			}
		}
	default:
		log.Fatal("need trace files or -spec NAME (see -h)")
	}
	if failed {
		os.Exit(1)
	}
}

func runSpec(name, modeFlag string, quick bool, seed int64, withNoise, jsonOut bool, limit int) bool {
	spec, err := experiment.SpecByName(name, experiment.Options{Quick: quick})
	if err != nil {
		log.Fatal(err)
	}
	var modes []core.Mode
	if modeFlag == "all" {
		modes = core.AllModes()
	} else {
		for _, m := range strings.Split(modeFlag, ",") {
			mode := core.Mode(strings.TrimSpace(m))
			if err := core.CheckMode(mode); err != nil {
				log.Fatal(err)
			}
			modes = append(modes, mode)
		}
	}
	np := noise.Params{}
	if withNoise {
		np = noise.Cluster()
	}
	failed := false
	for _, mode := range modes {
		res, err := experiment.Run(spec, mode, seed, np, false)
		if err != nil {
			log.Fatalf("%s/%s: %v", name, mode, err)
		}
		rep := tracecheck.Verify(res.Trace, tracecheck.Options{})
		emit(fmt.Sprintf("%s/%s", name, mode), rep, jsonOut, limit)
		if !rep.OK() {
			failed = true
		}
	}
	return failed
}

// checkFile verifies one trace file.  It reads the file as strictly as
// trace.ReadFile does: a file that does not prove itself complete or
// that has a chunk that does not decode fails.
func checkFile(path string, jsonOut bool, limit int) bool {
	tr, err := trace.ReadFile(path)
	if err != nil {
		log.Print(err) // ReadFile names the file, and the record when one is bad
		return false
	}
	rep := tracecheck.Verify(tr, tracecheck.Options{})
	emit(path, rep, jsonOut, limit)
	return rep.OK()
}

func emit(label string, rep *tracecheck.Report, jsonOut bool, limit int) {
	if jsonOut {
		out := struct {
			Label string `json:"label"`
			*tracecheck.Report
		}{label, rep}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	fmt.Printf("%s: ", label)
	rep.Render(os.Stdout, limit)
}
