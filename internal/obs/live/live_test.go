package live_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/live"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestMonitorEndpoints serves metrics and progress through the HTTP
// surface and checks every endpoint's contract.
func TestMonitorEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("demo_total").Add(7)
	clock := time.Unix(1000, 0)
	prog := obs.NewProgress(io.Discard, "test", func() time.Time { return clock })
	prog.Start(2, "jobs")
	prog.JobDone(1.5)

	srv := httptest.NewServer(live.NewMonitor(live.Options{Registry: reg, Progress: prog}))
	defer srv.Close()

	code, body := get(t, srv.URL+"/healthz")
	if code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = get(t, srv.URL+"/metrics")
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if string(body[:len("demo_total 7")]) != "demo_total 7" {
		t.Fatalf("/metrics text = %q", body)
	}
	code, body = get(t, srv.URL+"/metrics?format=json")
	var snap obs.Snapshot
	if code != http.StatusOK || json.Unmarshal(body, &snap) != nil {
		t.Fatalf("/metrics?format=json = %d %q", code, body)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 7 {
		t.Fatalf("snapshot = %+v", snap)
	}

	code, body = get(t, srv.URL+"/progress?format=json")
	var st obs.ProgressState
	if code != http.StatusOK || json.Unmarshal(body, &st) != nil {
		t.Fatalf("/progress = %d %q", code, body)
	}
	if st.Done != 1 || st.Total != 2 || st.Percent != 50 {
		t.Fatalf("progress state = %+v", st)
	}
}

// TestMonitorAbsentComponents asserts unwired endpoints answer 503, and
// that the trace endpoints the observatory no longer serves answer 404.
func TestMonitorAbsentComponents(t *testing.T) {
	srv := httptest.NewServer(live.NewMonitor(live.Options{}))
	defer srv.Close()

	for _, ep := range []string{"/metrics", "/progress"} {
		if code, _ := get(t, srv.URL+ep); code != http.StatusServiceUnavailable {
			t.Fatalf("%s = %d before wiring, want 503", ep, code)
		}
	}
	for _, ep := range []string{"/waitstates", "/timeline"} {
		if code, _ := get(t, srv.URL+ep); code != http.StatusNotFound {
			t.Fatalf("%s = %d, want 404", ep, code)
		}
	}
}

// TestServerStart exercises the real listener path used by the -live
// flags (port 0 picks a free port).
func TestServerStart(t *testing.T) {
	srv, err := live.Start("127.0.0.1:0", live.Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, "http://"+srv.Addr()+"/healthz")
	if code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
}
