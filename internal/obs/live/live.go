// Package live is the run observatory: a small HTTP surface that serves
// the metrics registry and the study progress while a run or a study
// executes.
//
// Observation is strictly read-only.  The registry and the progress
// reporter are written by the simulation and only read here, and
// nothing in this package hands a handle back to the simulation: a run
// with the observatory attached produces byte-identical traces,
// profiles and study JSON to a run without it (asserted by
// internal/experiment's identity tests).  Traces are not served: as in
// the paper's post-mortem workflow, a trace is analysed only after its
// run has ended (ltrun -trace, then lttrace, ltlint or ltviz).
package live

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
)

// sseInterval is the /progress event cadence.
const sseInterval = time.Second

// Options selects which observatory surfaces a Monitor serves.  Every
// field is optional; an endpoint whose backing component is absent
// answers 503 so probes can tell "not wired" from "broken".
type Options struct {
	// Registry backs /metrics.
	Registry *obs.Registry
	// Progress backs /progress.
	Progress *obs.Progress
}

// Monitor is the HTTP observatory: an http.Handler exposing
//
//	/healthz    liveness probe
//	/metrics    registry snapshot (expvar-style text; ?format=json)
//	/progress   study progress (SSE stream; ?format=json for one shot)
//
// All handlers are read-only with respect to the simulation.
type Monitor struct {
	opt Options
	mux *http.ServeMux
}

// NewMonitor builds the observatory handler for the given components.
func NewMonitor(opt Options) *Monitor {
	m := &Monitor{opt: opt, mux: http.NewServeMux()}
	m.mux.HandleFunc("/healthz", m.healthz)
	m.mux.HandleFunc("/metrics", m.metrics)
	m.mux.HandleFunc("/progress", m.progress)
	return m
}

// ServeHTTP dispatches to the observatory endpoints.
func (m *Monitor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mux.ServeHTTP(w, r)
}

func (m *Monitor) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (m *Monitor) metrics(w http.ResponseWriter, r *http.Request) {
	if m.opt.Registry == nil {
		http.Error(w, "metrics registry not attached", http.StatusServiceUnavailable)
		return
	}
	snap := m.opt.Registry.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = snap.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = snap.WriteText(w)
}

func (m *Monitor) progress(w http.ResponseWriter, r *http.Request) {
	if m.opt.Progress == nil {
		http.Error(w, "progress reporter not attached", http.StatusServiceUnavailable)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, m.opt.Progress.State())
		return
	}
	// SSE stream: one state event per tick until the study finishes or
	// the client goes away.
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	fl, _ := w.(http.Flusher)
	send := func() bool {
		st := m.opt.Progress.State()
		b, err := json.Marshal(st)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
			return false
		}
		if fl != nil {
			fl.Flush()
		}
		return !st.Finished
	}
	if !send() {
		return
	}
	tick := time.NewTicker(sseInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
			if !send() {
				return
			}
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a running observatory listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start serves the observatory on addr (host:port; port 0 picks a free
// one) and returns immediately; the accept loop runs in a goroutine.
func Start(addr string, opt Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewMonitor(opt)}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address ("127.0.0.1:8377").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener.
func (s *Server) Close() error { return s.srv.Close() }
