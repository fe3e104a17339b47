package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/machine"
	"repro/internal/noise"
	"repro/internal/runcache"
	"repro/internal/scalasca"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/work"
)

// Workload is one named benchmark whose setup may be expensive; Make
// prepares an Instance that can be timed repeatedly.
type Workload struct {
	Name string
	Desc string
	Make func() (*Instance, error)
}

// contentionCost mirrors bench_test.go's benchCost: one memory-heavy
// work quantum that keeps 16 streams contending on a NUMA domain.
var contentionCost = work.Cost{Instr: 1e6, Flops: 1e6, Bytes: 1e6}

// Workloads returns the substrate and study benchmarks in reporting
// order.  The first two are the kernel-level micro-benchmarks whose
// ns/op and allocs/op are the scoreboard for scheduler optimisations
// (KernelMixedNeeds shares one resource among members of four distinct
// needs, MachineContention among members of one equal need); TraceRecord
// times the recorder; Analyzer and CriticalPath time the two trace
// analyses a report runs; TraceRoundTrip, TraceWrite, TraceDecode and
// TraceRange measure the chunked trace format; the study pair measures
// the end-to-end pipeline they multiply into; ReportWarmQuick measures
// a report served from the run cache.
func Workloads() []Workload {
	return []Workload{
		{
			Name: "KernelMixedNeeds",
			Desc: "16 actors x 100 contending actions at four rate caps through the vtime kernel",
			Make: kernelMixedNeeds,
		},
		{
			Name: "MachineContention",
			Desc: "16 streams x 50 quanta on one NUMA domain (fluid model)",
			Make: machineContention,
		},
		{
			Name: "TraceRecord",
			Desc: "record enter/exit event pairs into a trace stream",
			Make: traceRecord,
		},
		{
			Name: "Analyzer",
			Desc: "scalasca replay of a LULESH-1 quick trace",
			Make: analyzer,
		},
		{
			Name: "CriticalPath",
			Desc: "critical-path walk of a LULESH-1 quick tsc trace",
			Make: criticalPath,
		},
		{
			Name: "TraceRoundTrip",
			Desc: "chunked encode + strict decode of a MiniFE-1 quick trace",
			Make: traceRoundTrip,
		},
		{
			Name: "TraceWrite",
			Desc: "encode a 100k-event trace in the chunked format",
			Make: traceWrite,
		},
		{
			Name: "TraceDecode",
			Desc: "decode a 100k-event chunked trace into memory",
			Make: traceDecode,
		},
		{
			Name: "TraceRange",
			Desc: "decode a one-chunk vtime window, skipping the chunks it misses",
			Make: traceRange,
		},
		{
			Name: "StudySequential",
			Desc: "MiniFE-1 quick study (2 reps, all modes), 1 worker",
			Make: func() (*Instance, error) { return studyRunner(1) },
		},
		{
			Name: "StudyPooled4",
			Desc: "MiniFE-1 quick study (2 reps, all modes), 4 workers",
			Make: func() (*Instance, error) { return studyRunner(4) },
		},
		{
			Name: "ReportWarmQuick",
			Desc: "quick FullReport (2 reps, 2 workers) served from a filled run cache",
			Make: reportWarmQuick,
		},
	}
}

// ByName returns the named workload's prepared instance.
func ByName(name string) (*Instance, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w.Make()
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// mixedRateCaps are kernelMixedNeeds' per-actor rate caps, dealt round
// robin.  Sixteen actors on a capacity of 100 have a fair share of 6.25,
// so the first two caps bind below it and the last two above.  Distinct
// needs make Resource.attach insert each action inside the need-ordered
// member list instead of appending it, as the fluid model's memory
// streams do.
var mixedRateCaps = [...]float64{2, 5, 10, 40}

func kernelMixedNeeds() (*Instance, error) {
	const actors, actions = 16, 100
	return &Instance{
		Events: actors * actions,
		Op: func() error {
			k := vtime.NewKernel()
			bw := k.NewResource("bw", 100)
			for a := 0; a < actors; a++ {
				rateCap := mixedRateCaps[a%len(mixedRateCaps)]
				k.Spawn("s", func(ac *vtime.Actor) {
					for j := 0; j < actions; j++ {
						ac.Execute(vtime.Action{Work: 1, RateCap: rateCap, Res: bw, ResPerUnit: 1})
					}
				})
			}
			return k.Run()
		},
	}, nil
}

func machineContention() (*Instance, error) {
	const streams, quanta = 16, 50
	return &Instance{
		Events: streams * quanta,
		Op: func() error {
			k := vtime.NewKernel()
			m := machine.New(k, machine.Jureca(1))
			m.AddWorkingSet(0, 1e9)
			for c := 0; c < streams; c++ {
				core := machine.CoreID(c)
				k.Spawn("t", func(a *vtime.Actor) {
					for j := 0; j < quanta; j++ {
						m.Exec(a, core, contentionCost, nil)
					}
				})
			}
			return k.Run()
		},
	}, nil
}

func traceRecord() (*Instance, error) {
	const pairs = 4096
	tr := trace.New("bench")
	reg := tr.Region("region", trace.RoleUser)
	l := tr.AddLocation(0, 0)
	return &Instance{
		Events: 2 * pairs,
		Op: func() error {
			tr.ResetEvents()
			for i := uint64(0); i < pairs; i++ {
				tr.Record(l, trace.Event{Kind: trace.EvEnter, Time: 2 * i, Region: reg})
				tr.Record(l, trace.Event{Kind: trace.EvExit, Time: 2*i + 1, Region: reg})
			}
			return nil
		},
	}, nil
}

func analyzer() (*Instance, error) {
	spec, err := experiment.SpecByName("LULESH-1", experiment.Options{Quick: true})
	if err != nil {
		return nil, err
	}
	res, err := experiment.Run(spec, core.ModeStmt, 1, noise.Cluster(), false)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Events: int64(res.Trace.NumEvents()),
		Op: func() error {
			_, err := scalasca.Analyze(res.Trace)
			return err
		},
	}, nil
}

func criticalPath() (*Instance, error) {
	spec, err := experiment.SpecByName("LULESH-1", experiment.Options{Quick: true})
	if err != nil {
		return nil, err
	}
	res, err := experiment.Run(spec, core.ModeTSC, 1, noise.Cluster(), false)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Events: int64(res.Trace.NumEvents()),
		Op: func() error {
			_, err := scalasca.CriticalPathAnalysis(res.Trace)
			return err
		},
	}, nil
}

func traceRoundTrip() (*Instance, error) {
	spec, err := experiment.SpecByName("MiniFE-1", experiment.Options{Quick: true})
	if err != nil {
		return nil, err
	}
	res, err := experiment.Run(spec, core.ModeLt1, 1, noise.Params{}, false)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Events: int64(res.Trace.NumEvents()),
		Op: func() error {
			var buf bytes.Buffer
			if err := trace.WriteChunked(&buf, res.Trace); err != nil {
				return err
			}
			_, err := trace.Read(&buf)
			return err
		},
	}, nil
}

// The trace-file workloads exercise the chunked on-disk format on one
// synthetic 100k-event trace: TraceWrite encodes it, and the two decode
// workloads read its file whole and through a one-chunk vtime window —
// the allocation gap between them is the ranged-read claim the
// membudget test pins.  Two locations of 50,000 events each give every
// location 12 full default-size chunks and a partial tail: enough index
// granularity that a one-chunk range query measurably beats decoding
// the whole file.
const (
	traceFileEvents = 100_000
	traceFileLocs   = 2
)

// traceFixture builds the shared synthetic trace: per location, nested
// enter/exit pairs over a handful of regions with strictly increasing
// stamps, the shape (and entropy) of a real lt_stmt trace.
func traceFixture() *trace.Trace {
	tr := trace.New("lt_stmt")
	var regions []trace.RegionID
	for _, name := range []string{"main", "assemble", "solve", "exchange", "reduce"} {
		regions = append(regions, tr.Region(name, trace.RoleUser))
	}
	for li := 0; li < traceFileLocs; li++ {
		tr.AddLocation(li, 0)
		t := uint64(li + 1)
		depth := 0
		for i := 0; i < traceFileEvents/traceFileLocs; i++ {
			r := regions[(i/2+li)%len(regions)]
			var k trace.EvKind
			if depth == 0 || (i%2 == 0 && depth < 4) {
				k = trace.EvEnter
				depth++
			} else {
				k = trace.EvExit
				depth--
			}
			t += uint64(1 + (i*7+li)%5)
			tr.Record(li, trace.Event{Kind: k, Time: t, Region: r, A: int32(i % 97), C: int64(i)})
		}
	}
	return tr
}

func traceWrite() (*Instance, error) {
	tr := traceFixture()
	return &Instance{
		Events: traceFileEvents,
		Op:     func() error { return trace.WriteChunked(io.Discard, tr) },
	}, nil
}

// traceChunkFile parses the fixture's file for the decode workloads.
// Both decode from the same long-lived parsed image, so the measured
// difference is purely the chunks each one decodes.
func traceChunkFile() (*trace.ChunkFile, error) {
	var buf bytes.Buffer
	if err := trace.WriteChunked(&buf, traceFixture()); err != nil {
		return nil, err
	}
	return trace.NewChunkFile(buf.Bytes())
}

func traceDecode() (*Instance, error) {
	cf, err := traceChunkFile()
	if err != nil {
		return nil, err
	}
	return &Instance{
		Events: traceFileEvents,
		Op: func() error {
			tr, err := cf.Trace()
			if err != nil {
				return err
			}
			if n := tr.NumEvents(); n != traceFileEvents {
				return fmt.Errorf("decode saw %d events, want %d", n, traceFileEvents)
			}
			return nil
		},
	}, nil
}

// traceRange decodes one chunk-sized virtual-time window; every chunk
// whose header span misses the window is skipped.  The window is
// taken from a middle chunk of location 0 so it is deterministic and
// non-trivial.
func traceRange() (*Instance, error) {
	cf, err := traceChunkFile()
	if err != nil {
		return nil, err
	}
	var mine []trace.ChunkInfo
	for _, c := range cf.Chunks() {
		if c.Loc == 0 {
			mine = append(mine, c)
		}
	}
	if len(mine) < 3 {
		return nil, fmt.Errorf("range fixture needs >=3 chunks on loc 0, have %d", len(mine))
	}
	mid := mine[len(mine)/2]
	// The middle half of the chunk's span: locations are not chunk-aligned
	// with each other, so a full-span window would straddle two chunks on
	// most of them and decode twice the data the query needs.
	span := mid.LastTime - mid.FirstTime
	minT, maxT := mid.FirstTime+span/4, mid.LastTime-span/4
	replay := func() (int, error) {
		tr, err := cf.Range(minT, maxT)
		if err != nil {
			return 0, err
		}
		return tr.NumEvents(), nil
	}
	want, err := replay()
	if err != nil {
		return nil, err
	}
	if want == 0 {
		return nil, fmt.Errorf("range fixture window [%d, %d] matched no events", minT, maxT)
	}
	return &Instance{
		Events: int64(want),
		Op: func() error {
			n, err := replay()
			if err != nil {
				return err
			}
			if n != want {
				return fmt.Errorf("ranged decode saw %d events, want %d", n, want)
			}
			return nil
		},
	}, nil
}

func studyRunner(workers int) (*Instance, error) {
	spec, err := experiment.SpecByName("MiniFE-1", experiment.Options{Quick: true})
	if err != nil {
		return nil, err
	}
	opts := experiment.StudyOptions{Reps: 2, BaseSeed: 1, Workers: workers}
	return &Instance{
		Op: func() error {
			_, err := experiment.RunStudy(spec, opts)
			return err
		},
	}, nil
}

// reportWarmQuick fills a run cache in a temporary directory with one
// quick FullReport, then times the same report served from it.  An op
// fails if any of its lookups misses, so the row never times a
// simulation.
func reportWarmQuick() (*Instance, error) {
	dir, err := os.MkdirTemp("", "ltbench-report-")
	if err != nil {
		return nil, err
	}
	cache, err := runcache.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	opts := experiment.StudyOptions{Reps: 2, BaseSeed: 1, Workers: 2, Cache: cache}
	quick := experiment.Options{Quick: true}
	if err := experiment.FullReport(io.Discard, opts, quick); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	_, filled := cache.Stats()
	return &Instance{
		Op: func() error {
			if err := experiment.FullReport(io.Discard, opts, quick); err != nil {
				return err
			}
			if _, misses := cache.Stats(); misses != filled {
				return fmt.Errorf("warm report missed the cache %d times", misses-filled)
			}
			return nil
		},
		Close: func() { os.RemoveAll(dir) },
	}, nil
}
