// Command lttrace inspects binary traces written by ltrun: summary
// statistics, per-region event counts, and the largest in-region
// timestamp gaps (useful for debugging clock behaviour).
//
// Every mode reads the file strictly: a trace cut off or damaged
// anywhere fails with an error naming the file and, when one is at
// fault, the offending record.
//
// Usage:
//
//	lttrace trace.ltrc
//	lttrace -gaps 20 trace.ltrc
//	lttrace -stat trace.ltrc
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/scalasca"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lttrace: ")
	gaps := flag.Int("gaps", 10, "largest in-region stamp gaps to show")
	events := flag.Int("events", 0, "dump the first N events of every location (otf2-print style)")
	loc := flag.Int("loc", -1, "with -events: restrict to one location index")
	critpath := flag.Bool("critpath", false, "run the critical-path analysis and show its top contributors")
	timeline := flag.Int("timeline", 0, "draw an ASCII timeline this many columns wide")
	tlRows := flag.Int("timeline-rows", 32, "with -timeline: locations to draw")
	stat := flag.Bool("stat", false, "print storage statistics (chunks, compression, vtime spans) and exit")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("need exactly one trace file")
	}
	if *stat {
		if err := statFile(flag.Arg(0)); err != nil {
			log.Fatal(err)
		}
		return
	}
	tr, err := trace.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clock %s, %d locations, %d regions, %d events\n",
		tr.Clock, len(tr.Locs), len(tr.Regions), tr.NumEvents())

	if *timeline > 0 {
		trace.RenderTimeline(os.Stdout, tr, *timeline, *tlRows)
		return
	}

	if *critpath {
		cp, err := scalasca.CriticalPathAnalysis(tr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ncritical path: %.4g ticks over %d segments\n", cp.Total, cp.Segments)
		for _, e := range cp.TopPaths(15) {
			fmt.Printf("  %6.2f%%  %s\n", e.Percent, e.Path)
		}
		return
	}

	if *events > 0 {
		for li, l := range tr.Locs {
			if *loc >= 0 && li != *loc {
				continue
			}
			fmt.Printf("\nlocation %d (rank %d thread %d):\n", li, l.Rank, l.Thread)
			for ei, e := range l.Events {
				if ei >= *events {
					fmt.Printf("  ... %d more\n", len(l.Events)-*events)
					break
				}
				switch e.Kind {
				case trace.EvEnter, trace.EvExit:
					fmt.Printf("  %12d %-8s %s\n", e.Time, e.Kind, tr.RegionName(e.Region))
				case trace.EvSend, trace.EvRecv:
					fmt.Printf("  %12d %-8s peer=%d tag=%d bytes=%d\n", e.Time, e.Kind, e.A, e.B, e.C)
				case trace.EvCollEnd:
					fmt.Printf("  %12d %-8s comm=%d seq=%d bytes=%d\n", e.Time, e.Kind, e.A, e.B, e.C)
				default:
					fmt.Printf("  %12d %-8s a=%d b=%d\n", e.Time, e.Kind, e.A, e.B)
				}
			}
		}
		return
	}

	// Events per region.
	perRegion := make([]int, len(tr.Regions))
	type gap struct {
		loc    int
		region string
		dt, at uint64
	}
	var found []gap
	for li, l := range tr.Locs {
		var stack []trace.RegionID
		var prev uint64
		for _, e := range l.Events {
			if e.Kind == trace.EvEnter || e.Kind == trace.EvExit {
				perRegion[e.Region]++
			}
			if dt := e.Time - prev; len(stack) > 0 && dt > 0 {
				found = append(found, gap{li, tr.RegionName(stack[len(stack)-1]), dt, e.Time})
			}
			prev = e.Time
			switch e.Kind {
			case trace.EvEnter:
				stack = append(stack, e.Region)
			case trace.EvExit:
				if len(stack) > 0 {
					stack = stack[:len(stack)-1]
				}
			}
		}
	}
	fmt.Println("\nevents per region:")
	order := make([]int, len(tr.Regions))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return perRegion[order[a]] > perRegion[order[b]] })
	for _, i := range order {
		if perRegion[i] == 0 {
			continue
		}
		fmt.Printf("  %-50s %8d  (%s)\n", tr.Regions[i].Name, perRegion[i], tr.Regions[i].Role)
	}
	sort.Slice(found, func(a, b int) bool { return found[a].dt > found[b].dt })
	fmt.Println("\nlargest in-region stamp gaps:")
	for i := 0; i < *gaps && i < len(found); i++ {
		g := found[i]
		fmt.Printf("  loc %-4d %-50s dt %-12d at %d\n", g.loc, g.region, g.dt, g.at)
	}
}

// statFile prints the storage-level anatomy of a trace file: per-location
// chunk counts, compressed versus raw bytes and the virtual-time span
// straight from the chunk headers — without decompressing a single
// event.  It reads as strictly as the other modes: a cut or damaged file
// fails.
func statFile(path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	cf, err := trace.OpenChunkFile(path)
	if err != nil {
		return err
	}
	chunks := cf.Chunks()
	locs := cf.Locs()
	type locStat struct {
		chunks   int
		raw      int64
		comp     int64
		events   int
		lo, hi   uint64
		haveSpan bool
	}
	stats := make([]locStat, len(locs))
	var totRaw, totComp int64
	for _, c := range chunks {
		s := &stats[c.Loc]
		s.chunks++
		s.raw += int64(c.RawLen)
		s.comp += int64(c.CompLen)
		s.events += c.Events
		if !s.haveSpan || c.FirstTime < s.lo {
			s.lo = c.FirstTime
		}
		if !s.haveSpan || c.LastTime > s.hi {
			s.hi = c.LastTime
		}
		s.haveSpan = true
		totRaw += int64(c.RawLen)
		totComp += int64(c.CompLen)
	}
	events := 0
	for _, s := range stats {
		events += s.events
	}
	fmt.Printf("%s: chunked v2, %d bytes on disk\n", path, fi.Size())
	fmt.Printf("clock %s, %d locations, %d regions, %d events, %d chunks\n",
		cf.Clock, len(locs), len(cf.Regions), events, len(chunks))
	ratio := func(raw, comp int64) float64 {
		if comp == 0 {
			return 0
		}
		return float64(raw) / float64(comp)
	}
	for li, s := range stats {
		fmt.Printf("  loc %-4d r%dt%d %10d events %6d chunks  %12d -> %-12d (%.2fx)  vtime [%d, %d]\n",
			li, locs[li].Rank, locs[li].Thread, s.events, s.chunks,
			s.raw, s.comp, ratio(s.raw, s.comp), s.lo, s.hi)
	}
	fmt.Printf("payload: %d raw -> %d compressed (%.2fx); %.2f bytes/event on disk\n",
		totRaw, totComp, ratio(totRaw, totComp), safeDiv(float64(fi.Size()), float64(events)))
	return nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
