package live

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/perfetto"
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
	// Timeline annotates the /timeline export (may be nil even when
	// TracePath is set).
	Timeline *obs.Timeline
	// TracePath is the chunked trace file to tail for /timeline and
	// /waitstates.  The watcher opens lazily on first request, so the
	// monitor may start before the recorder has created the file.
	TracePath string
}

// Monitor is the HTTP observatory: an http.Handler exposing
//
//	/healthz    liveness probe
//	/metrics    registry snapshot (expvar-style text; ?format=json)
//	/progress   study progress (SSE stream; ?format=json for one shot)
//	/timeline   Perfetto trace-event JSON over the sealed trace prefix
//	/waitstates incremental wait-state and invariant summary
//
// All handlers are read-only with respect to the simulation.
type Monitor struct {
	opt Options
	mux *http.ServeMux

	mu      sync.Mutex
	watcher *Watcher
	watchEr error // sticky only while the file does not exist yet
}

// NewMonitor builds the observatory handler for the given components.
func NewMonitor(opt Options) *Monitor {
	m := &Monitor{opt: opt, mux: http.NewServeMux()}
	m.mux.HandleFunc("/healthz", m.healthz)
	m.mux.HandleFunc("/metrics", m.metrics)
	m.mux.HandleFunc("/progress", m.progress)
	m.mux.HandleFunc("/timeline", m.timeline)
	m.mux.HandleFunc("/waitstates", m.waitstates)
	return m
}

// ServeHTTP dispatches to the observatory endpoints.
func (m *Monitor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mux.ServeHTTP(w, r)
}

// watch returns the lazily opened trace watcher, retrying the open on
// every call until the recorder has created the file.
func (m *Monitor) watch() (*Watcher, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.watcher != nil {
		return m.watcher, nil
	}
	if m.opt.TracePath == "" {
		return nil, fmt.Errorf("no trace attached")
	}
	w, err := Watch(m.opt.TracePath)
	if err != nil {
		m.watchEr = err
		return nil, err
	}
	m.watcher, m.watchEr = w, nil
	return w, nil
}

// Close releases the trace watcher, if one was opened.
func (m *Monitor) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.watcher == nil {
		return nil
	}
	err := m.watcher.Close()
	m.watcher = nil
	return err
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

func (m *Monitor) timeline(w http.ResponseWriter, r *http.Request) {
	wa, err := m.watch()
	if err != nil {
		http.Error(w, "timeline unavailable: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	if _, _, err := wa.Poll(); err != nil {
		http.Error(w, "trace tail: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	tr, err := wa.Trace()
	if err != nil {
		http.Error(w, "trace decode: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = perfetto.Export(w, tr, m.opt.Timeline)
}

func (m *Monitor) waitstates(w http.ResponseWriter, r *http.Request) {
	wa, err := m.watch()
	if err != nil {
		http.Error(w, "waitstates unavailable: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	s, err := wa.WaitStates()
	if err != nil {
		http.Error(w, "trace tail: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, s)
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a running observatory listener.
type Server struct {
	mon *Monitor
	ln  net.Listener
	srv *http.Server
}

// Start serves the observatory on addr (host:port; port 0 picks a free
// one) and returns immediately; the accept loop runs in a goroutine.
func Start(addr string, opt Options) (*Server, error) {
	mon := NewMonitor(opt)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mon}
	go func() { _ = srv.Serve(ln) }()
	return &Server{mon: mon, ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address ("127.0.0.1:8377").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Monitor returns the handler, for direct (in-process) queries.
func (s *Server) Monitor() *Monitor { return s.mon }

// Close stops the listener and releases the trace watcher.
func (s *Server) Close() error {
	err := s.srv.Close()
	if cerr := s.mon.Close(); err == nil {
		err = cerr
	}
	return err
}
