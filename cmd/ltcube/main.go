// Command ltcube inspects analysis profiles written by ltrun — a text-mode
// stand-in for the Cube browser of the paper's workflow.
//
// Usage:
//
//	ltcube profile.cube.json                      # metric tree (%T view)
//	ltcube -metric comp profile.cube.json         # call paths by %M
//	ltcube -metric time -locs profile.cube.json   # per-location totals
//	ltcube -compare other.cube.json profile.cube.json  # Jaccard score
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sort"

	"repro/internal/cube"
	"repro/internal/jaccard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ltcube: ")
	metric := flag.String("metric", "", "show call paths of this metric (metric-selection-percent view)")
	locs := flag.Bool("locs", false, "show per-location totals of -metric")
	csv := flag.Bool("csv", false, "export -metric as CSV (path x location)")
	imbalance := flag.Bool("imbalance", false, "show per-path imbalance (max/mean over locations) of -metric")
	limit := flag.Int("limit", 20, "call paths to show")
	compare := flag.String("compare", "", "second profile; print the generalized Jaccard score J(M,C)")
	diff := flag.Int("diff", 0, "with -compare: show the N largest (metric, path) disagreements")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("need exactly one profile file")
	}
	prof := read(flag.Arg(0))
	if *compare != "" {
		other := read(*compare)
		a, b := prof.MCMap(), other.MCMap()
		fmt.Printf("J(M,C) = %.4f  (%s vs %s)\n", jaccard.Score(a, b), prof.Clock, other.Clock)
		if *diff > 0 {
			type d struct {
				key  string
				a, b float64
			}
			var ds []d
			seen := map[string]bool{}
			for k, av := range a {
				ds = append(ds, d{k, av, b[k]})
				seen[k] = true
			}
			for k, bv := range b {
				if !seen[k] {
					ds = append(ds, d{k, 0, bv})
				}
			}
			sort.Slice(ds, func(i, j int) bool {
				return math.Abs(ds[i].a-ds[i].b) > math.Abs(ds[j].a-ds[j].b)
			})
			fmt.Printf("largest disagreements (%%T): %-10s %-10s\n", prof.Clock, other.Clock)
			for i := 0; i < *diff && i < len(ds); i++ {
				fmt.Printf("  %7.2f vs %7.2f  %s\n", ds[i].a, ds[i].b, ds[i].key)
			}
		}
		return
	}
	switch {
	case *metric != "" && *csv:
		if err := prof.WriteCSV(os.Stdout, *metric); err != nil {
			log.Fatal(err)
		}
	case *metric != "" && *imbalance:
		for _, s := range prof.Imbalance(*metric, 0) {
			fmt.Printf("%8.2fx  mean %12.4g  %s\n", s.Ratio, s.Mean, s.Path)
		}
	case *metric != "" && *locs:
		prof.RenderLocations(os.Stdout, *metric)
	case *metric != "":
		prof.RenderCallTree(os.Stdout, *metric, *limit)
	default:
		fmt.Print(prof.Summary())
		fmt.Println()
		prof.RenderMetricTree(os.Stdout)
	}
}

func read(path string) *cube.Profile {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	p, err := cube.Read(f)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return p
}
