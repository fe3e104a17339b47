package bench

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/machine"
	"repro/internal/noise"
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
// order.  The first five are the kernel-level micro-benchmarks whose
// ns/op and allocs/op are the scoreboard for scheduler optimisations;
// the TracePipe four measure the chunked trace pipeline; the study pair
// measures the end-to-end pipeline they multiply into.
func Workloads() []Workload {
	return []Workload{
		{
			Name: "KernelSharedResource",
			Desc: "16 actors x 100 contending actions through the vtime kernel",
			Make: kernelSharedResource,
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
			Name: "TraceRoundTrip",
			Desc: "binary serialise + parse of a MiniFE-1 quick trace",
			Make: traceRoundTrip,
		},
		{
			Name: "TracePipeRecord",
			Desc: "stream-record 100k events through the chunked writer",
			Make: tracePipeRecord,
		},
		{
			Name: "TracePipeReplayStream",
			Desc: "cursor replay of a 100k-event chunked trace (bounded memory)",
			Make: tracePipeReplayStream,
		},
		{
			Name: "TracePipeReplayMaterialized",
			Desc: "full-materialize replay of the same 100k-event chunked trace",
			Make: tracePipeReplayMaterialized,
		},
		{
			Name: "TracePipeRangeStream",
			Desc: "one-chunk vtime window replay through the chunk index",
			Make: tracePipeRangeStream,
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

func kernelSharedResource() (*Instance, error) {
	const actors, actions = 16, 100
	return &Instance{
		Events: actors * actions,
		Op: func() error {
			k := vtime.NewKernel()
			bw := k.NewResource("bw", 100)
			for a := 0; a < actors; a++ {
				k.Spawn("s", func(ac *vtime.Actor) {
					for j := 0; j < actions; j++ {
						ac.Execute(vtime.Action{Work: 1, Res: bw, ResPerUnit: 1})
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
			if err := res.Trace.Write(&buf); err != nil {
				return err
			}
			_, err := trace.Read(&buf)
			return err
		},
	}, nil
}

// The trace-pipeline workloads exercise the chunked on-disk format
// end to end: TracePipeRecord measures the spill-to-disk writer (the
// recording side holds one active chunk per location), and the two
// replay workloads measure the same 100k-event chunked trace consumed
// through cursors versus fully materialized — the allocation gap
// between them is the bounded-memory claim the membudget test pins.
// tracePipeChunkEvents deliberately sits below DefaultChunkEvents so
// the 100k-event fixture carries ~12 chunks per location: enough index
// granularity that a one-chunk range query measurably beats decoding
// the whole file, as it would on a million-event production trace.
const (
	tracePipeEvents      = 100_000
	tracePipeLocs        = 8
	tracePipeChunkEvents = 1024
)

// tracePipeAppend emits one location's share of a synthetic trace into
// sink: nested enter/exit pairs over a handful of regions with strictly
// increasing stamps, the shape (and entropy) of a real lt_stmt trace.
func tracePipeAppend(li, events int, regions []trace.RegionID, sink func(trace.Event)) {
	t := uint64(li + 1)
	depth := 0
	for i := 0; i < events; i++ {
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
		sink(trace.Event{Kind: k, Time: t, Region: r, A: int32(i % 97), C: int64(i)})
	}
}

func tracePipeRegions(def func(name string, role trace.Role) trace.RegionID) []trace.RegionID {
	names := []string{"main", "assemble", "solve", "exchange", "reduce"}
	out := make([]trace.RegionID, len(names))
	for i, n := range names {
		out[i] = def(n, trace.RoleUser)
	}
	return out
}

// tracePipeFile builds the shared chunked trace the replay workloads
// consume.
func tracePipeFile() ([]byte, error) {
	var buf bytes.Buffer
	cw := trace.NewChunkWriter(&buf, "lt_stmt")
	cw.ChunkEvents = tracePipeChunkEvents
	regions := tracePipeRegions(cw.Region)
	per := tracePipeEvents / tracePipeLocs
	for li := 0; li < tracePipeLocs; li++ {
		loc := cw.AddLocation(li, 0)
		tracePipeAppend(li, per, regions, func(e trace.Event) { cw.Record(loc, e) })
	}
	if err := cw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func tracePipeRecord() (*Instance, error) {
	return &Instance{
		Events: tracePipeEvents,
		Op: func() error {
			cw := trace.NewChunkWriter(io.Discard, "lt_stmt")
			regions := tracePipeRegions(cw.Region)
			per := tracePipeEvents / tracePipeLocs
			for li := 0; li < tracePipeLocs; li++ {
				loc := cw.AddLocation(li, 0)
				tracePipeAppend(li, per, regions, func(e trace.Event) { cw.Record(loc, e) })
			}
			return cw.Close()
		},
	}, nil
}

// tracePipeChunkFile opens the shared chunked trace for the replay
// workloads.  Both replay over the same long-lived open file — the
// steady state of a replay service — so the measured difference is
// purely cursor iteration versus materialization.
func tracePipeChunkFile() (*trace.ChunkFile, error) {
	data, err := tracePipeFile()
	if err != nil {
		return nil, err
	}
	return trace.NewChunkFile(bytes.NewReader(data), int64(len(data)))
}

func tracePipeReplayStream() (*Instance, error) {
	cf, err := tracePipeChunkFile()
	if err != nil {
		return nil, err
	}
	st := cf.Stream()
	return &Instance{
		Events: tracePipeEvents,
		Op: func() error {
			n := 0
			for li := 0; li < st.NumLocs(); li++ {
				cur := st.Cursor(li)
				for _, ok := cur.Next(); ok; _, ok = cur.Next() {
					n++
				}
				if err := cur.Err(); err != nil {
					return err
				}
			}
			if n != tracePipeEvents {
				return fmt.Errorf("streamed replay saw %d events, want %d", n, tracePipeEvents)
			}
			return nil
		},
	}, nil
}

func tracePipeReplayMaterialized() (*Instance, error) {
	cf, err := tracePipeChunkFile()
	if err != nil {
		return nil, err
	}
	st := cf.Stream()
	return &Instance{
		Events: tracePipeEvents,
		Op: func() error {
			tr, err := st.Materialize()
			if err != nil {
				return err
			}
			n := 0
			for li := range tr.Locs {
				n += len(tr.Locs[li].Events)
			}
			if n != tracePipeEvents {
				return fmt.Errorf("materialized replay saw %d events, want %d", n, tracePipeEvents)
			}
			return nil
		},
	}, nil
}

// tracePipeRangeStream replays one chunk-sized virtual-time window
// through the chunk index.  Before the index existed every windowed
// query (ltviz -range, wait-state inspection of one phase) had to
// materialize the entire trace and filter; with it the cursor decodes
// only the chunks overlapping the window.  The window is taken from a
// middle chunk of location 0 so it is deterministic and non-trivial.
func tracePipeRangeStream() (*Instance, error) {
	cf, err := tracePipeChunkFile()
	if err != nil {
		return nil, err
	}
	var minT, maxT uint64
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
	minT, maxT = mid.FirstTime+span/4, mid.LastTime-span/4
	replay := func() (int, error) {
		st := cf.Range(minT, maxT)
		n := 0
		for li := 0; li < st.NumLocs(); li++ {
			cur := st.Cursor(li)
			for _, ok := cur.Next(); ok; _, ok = cur.Next() {
				n++
			}
			if err := cur.Err(); err != nil {
				return 0, err
			}
		}
		return n, nil
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
				return fmt.Errorf("ranged replay saw %d events, want %d", n, want)
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
