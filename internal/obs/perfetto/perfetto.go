// Package perfetto converts the simulator's traces into the Chrome
// trace-event JSON that Perfetto (ui.perfetto.dev) and chrome://tracing
// load directly, so a simulated run can be inspected on the same
// timeline UI used for real profiles.  Export reads an in-memory
// *trace.Trace: a run's own, or one decoded from a trace file (ltviz
// decodes a file, or a virtual-time window of it, with
// trace.ChunkFile.Range).
//
// The mapping follows the trace-event format's process/thread model:
// each MPI rank becomes a process (pid = rank) and each of its OpenMP
// threads a thread (tid = thread).  Region enter/exit pairs become
// duration events, point-to-point messages become flow arrows from the
// send to the matching receive, logical-clock piggyback synchronisations
// and collective completions become instant events, and an optional
// obs.Timeline contributes fault-injection instants plus counter tracks
// of the fluid model's resource capacities under a synthetic "machine"
// process.
//
// Timestamps: the trace-event ts field is in microseconds.  TSC traces
// tick at core.TSCTicksPerSecond (1e9/s), so one tick renders as 1e-3
// microseconds and the Perfetto timeline is real virtual time; logical
// clock modes mint logical ticks, which are exported one tick = one
// microsecond.  Timeline annotations are recorded in virtual seconds,
// so they align exactly with the event slices only on tsc traces — on
// logical traces the two axes are incommensurable, which is precisely
// the property of logical timers the paper studies.
//
// The output is deterministic byte-for-byte: events are emitted in
// location order and record order, JSON object keys are alphabetical
// (struct fields are declared sorted; args maps are sorted by
// encoding/json), and one event per line keeps goldens diffable.
package perfetto

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// MachinePID is the synthetic process id that carries the machine-level
// tracks (fault-injection instants, resource-capacity counters), far
// above any plausible rank number.
const MachinePID = 1 << 20

// event is one trace-event record.  Field declaration order is
// alphabetical by JSON key, so the rendered object keys are sorted —
// the goldens rely on it.
type event struct {
	Args map[string]any `json:"args,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	ID   int            `json:"id,omitempty"`
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	S    string         `json:"s,omitempty"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
}

// tickMicros returns the microseconds one trace tick of the given clock
// represents on the exported timeline.
func tickMicros(clock string) float64 {
	if clock == string(core.ModeTSC) {
		return 1e6 / core.TSCTicksPerSecond
	}
	return 1 // logical ticks: one tick = one microsecond
}

// TickSeconds returns the virtual seconds one trace tick of the given
// clock represents on the exported timeline — the converter overlay
// producers (ltviz's delay-front marks) use to place tick-denominated
// analysis results onto the timeline's seconds axis.
func TickSeconds(clock string) float64 { return tickMicros(clock) / 1e6 }

// Export writes a trace as trace-event JSON.  It extracts the
// synchronisation skeleton (vclock.Extract) first, then emits.  Flows
// are numbered from the skeleton: sends from 1 in (location, record)
// order, and a receive takes the id of the send it was FIFO-matched to;
// unmatched receives render as plain instants.
func Export(w io.Writer, tr *trace.Trace, tl *obs.Timeline) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(e event) error {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}

	// Metadata: name every rank process and thread, then the synthetic
	// machine process.
	for _, l := range tr.Locs {
		if l.Thread == 0 {
			if err := emit(event{
				Args: map[string]any{"name": fmt.Sprintf("rank %d", l.Rank)},
				Name: "process_name", Ph: "M", Pid: l.Rank,
			}); err != nil {
				return err
			}
		}
		if err := emit(event{
			Args: map[string]any{"name": fmt.Sprintf("thread %d", l.Thread)},
			Name: "thread_name", Ph: "M", Pid: l.Rank, Tid: l.Thread,
		}); err != nil {
			return err
		}
	}
	hasMachine := tl != nil && (len(tl.Marks()) > 0 || len(tl.Samples()) > 0)
	if hasMachine {
		if err := emit(event{
			Args: map[string]any{"name": "machine"},
			Name: "process_name", Ph: "M", Pid: MachinePID,
		}); err != nil {
			return err
		}
	}

	// Event streams, in location then record order.
	scale := tickMicros(tr.Clock)
	logical := strings.HasPrefix(tr.Clock, "lt_")
	sk := vclock.Extract(tr)
	sends, recvs := 0, 0 // the emission pass meets both in skeleton order
	for _, l := range tr.Locs {
		for _, e := range l.Events {
			ts := float64(e.Time) * scale
			base := event{Pid: l.Rank, Tid: l.Thread, Ts: ts}
			var out event
			switch e.Kind {
			case trace.EvEnter:
				out = base
				out.Ph = "B"
				out.Name = tr.Regions[e.Region].Name
				out.Cat = tr.Regions[e.Region].Role.String()
			case trace.EvExit:
				out = base
				out.Ph = "E"
				out.Name = tr.Regions[e.Region].Name
				out.Cat = tr.Regions[e.Region].Role.String()
			case trace.EvSend:
				out = base
				out.Ph = "s"
				out.Cat = "msg"
				sends++
				out.ID = sends
				out.Name = fmt.Sprintf("msg to %d tag %d", e.A, e.B)
				out.Args = map[string]any{"bytes": e.C}
			case trace.EvRecv:
				peer := sk.Recvs.At(recvs).Peer
				recvs++
				if peer >= 0 {
					out = base
					out.Ph = "f"
					out.Bp = "e"
					out.Cat = "msg"
					out.ID = int(peer) + 1
					out.Name = fmt.Sprintf("msg from %d tag %d", e.A, e.B)
				} else {
					out = base
					out.Ph = "i"
					out.S = "t"
					out.Name = fmt.Sprintf("unmatched recv from %d tag %d", e.A, e.B)
				}
				if logical {
					if err := emit(out); err != nil {
						return err
					}
					out = base
					out.Ph = "i"
					out.S = "t"
					out.Cat = "piggyback"
					out.Name = "piggyback sync"
				}
			case trace.EvCollEnd:
				out = base
				out.Ph = "i"
				out.S = "t"
				out.Cat = "mpi-coll"
				out.Name = fmt.Sprintf("collective end comm %d seq %d", e.A, e.B)
				out.Args = map[string]any{"bytes": e.C}
				if logical {
					if err := emit(out); err != nil {
						return err
					}
					out = base
					out.Ph = "i"
					out.S = "t"
					out.Cat = "piggyback"
					out.Name = "piggyback sync"
				}
			case trace.EvFork:
				out = base
				out.Ph = "i"
				out.S = "t"
				out.Cat = "omp"
				out.Name = fmt.Sprintf("fork team %d", e.A)
			case trace.EvJoin:
				out = base
				out.Ph = "i"
				out.S = "t"
				out.Cat = "omp"
				out.Name = "join"
			case trace.EvBarrier:
				out = base
				out.Ph = "i"
				out.S = "t"
				out.Cat = "omp"
				out.Name = fmt.Sprintf("barrier team %d", e.A)
			default:
				continue
			}
			if err := emit(out); err != nil {
				return err
			}
		}
	}

	// Machine tracks from the timeline: fault instants and capacity
	// counters, both recorded in virtual seconds.
	if tl != nil {
		for _, m := range tl.Marks() {
			if err := emit(event{
				Args: map[string]any{"detail": m.Detail},
				Cat:  "fault",
				Name: m.Name, Ph: "i", Pid: MachinePID, S: "g",
				Ts: m.T * 1e6,
			}); err != nil {
				return err
			}
		}
		for _, s := range tl.Samples() {
			if err := emit(event{
				Args: map[string]any{"value": s.Value},
				Name: s.Track, Ph: "C", Pid: MachinePID,
				Ts: s.T * 1e6,
			}); err != nil {
				return err
			}
		}
	}

	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
