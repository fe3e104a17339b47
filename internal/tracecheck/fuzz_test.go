package tracecheck

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// fuzzRegions are the regions a fuzzed trace's events name.
var fuzzRegions = []struct {
	name string
	role trace.Role
}{
	{"main", trace.RoleUser},
	{"MPI_Send", trace.RoleMPIP2P},
	{"MPI_Recv", trace.RoleMPIP2P},
	{"MPI_Allreduce", trace.RoleMPIColl},
	{"!$omp parallel", trace.RoleOmpParallel},
	{"!$omp ibarrier", trace.RoleOmpBarrier},
}

// decodeFuzzTrace turns fuzz input into a small trace: a clock byte (odd
// means tsc, even lt_stmt), a shape byte (1–4 ranks of 1–2 threads),
// then for each location an event count (0–16) and a first stamp, and
// for each event five bytes: its kind, its step past the previous stamp
// (0–2 ticks), its region and its A and B operands (signed).  Input that
// runs out reads as zeros.
func decodeFuzzTrace(data []byte) *trace.Trace {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	clock := "lt_stmt"
	if next()&1 == 1 {
		clock = "tsc"
	}
	tr := trace.New(clock)
	for _, r := range fuzzRegions {
		tr.Region(r.name, r.role)
	}
	shape := next()
	ranks, threads := 1+int(shape%4), 1+int(shape/4%2)
	for rank := 0; rank < ranks; rank++ {
		for thread := 0; thread < threads; thread++ {
			l := tr.AddLocation(rank, thread)
			n, t := int(next()%17), uint64(next())
			for i := 0; i < n; i++ {
				kind := trace.EvKind(next() % uint8(trace.EvBarrier+1))
				t += uint64(next() % 3)
				region := trace.RegionID(int(next()) % len(fuzzRegions))
				a, b := int32(int8(next())), int32(int8(next()))
				tr.Record(l, trace.Event{Kind: kind, Time: t, Region: region, A: a, B: b})
			}
		}
	}
	return tr
}

// FuzzVerify verifies small decoded traces, which must not panic.  It
// also pins the property that lets the verifier check the clock
// condition edge by edge: when a logical trace's report shows no
// monotonicity or clock-condition breach, every pair ordered by
// the transitive closure of program order and the skeleton's edges
// (matched messages, each collective or barrier member's source before
// every other location's member exit, fork/join) has strictly increasing
// stamps.  The committed corpus under testdata/fuzz/FuzzVerify holds the
// clean message trace, the clean OpenMP trace and the causality cycle,
// retimed to the decoder's steps.
func FuzzVerify(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := decodeFuzzTrace(data)
		r := Verify(tr, Options{})
		if !r.Logical || r.Counts[KindMonotonic] > 0 || r.Counts[KindClockCondition] > 0 {
			return
		}
		type stamped struct {
			loc, index int
			time       uint64
		}
		var events []stamped
		for l, lt := range tr.Locs {
			for i, e := range lt.Events {
				events = append(events, stamped{l, i, e.Time})
			}
		}
		for a, row := range happensBefore(t, tr) {
			for b, ordered := range row {
				if x, y := events[a], events[b]; ordered && x.time >= y.time {
					t.Fatalf("loc %d event %d (t=%d) happens before loc %d event %d (t=%d), yet the report %v holds no clock-condition breach",
						x.loc, x.index, x.time, y.loc, y.index, y.time, r.Counts)
				}
			}
		}
	})
}

// happensBefore returns the happens-before relation of a trace by brute
// force, over events numbered location by location: program order plus
// every edge of the trace's skeleton, closed transitively.
func happensBefore(t *testing.T, tr *trace.Trace) [][]bool {
	t.Helper()
	sk := vclock.Extract(tr)
	first := make([]int, len(tr.Locs)+1)
	for l, lt := range tr.Locs {
		first[l+1] = first[l] + len(lt.Events)
	}
	n := first[len(tr.Locs)]
	hb := make([][]bool, n)
	for i := range hb {
		hb[i] = make([]bool, n)
	}
	edge := func(from, to vclock.Event) { hb[first[from.Loc]+from.Index][first[to.Loc]+to.Index] = true }
	for l := range tr.Locs {
		for i := first[l]; i+1 < first[l+1]; i++ {
			hb[i][i+1] = true
		}
	}
	for i := 0; i < sk.Recvs.Len(); i++ {
		if r := sk.Recvs.At(i); r.Peer >= 0 {
			edge(sk.Sends.At(int(r.Peer)).Record(), r.Record())
		}
	}
	for _, set := range []struct {
		recs *vclock.Paged[vclock.Sync]
		ins  []vclock.Instance
	}{{&sk.Colls, sk.CollIns}, {&sk.Bars, sk.BarIns}} {
		for _, in := range set.ins {
			for _, a := range in.Members {
				for _, b := range in.Members {
					if a, b := set.recs.At(int(a)), set.recs.At(int(b)); a.Loc != b.Loc {
						edge(a.Source(), b.ExitEvent())
					}
				}
			}
		}
	}
	sk.ForkJoin(edge)
	for k := range hb {
		for i := range hb {
			if !hb[i][k] {
				continue
			}
			for j := range hb {
				hb[i][j] = hb[i][j] || hb[k][j]
			}
		}
	}
	return hb
}
