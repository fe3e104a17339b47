package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fakeClock is an injectable, manually advanced wall clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestProgressFinalLine pins the throttle bug: when every job finishes
// inside the one-second print window, the study must still end with a
// 100 % line before the done summary.
func TestProgressFinalLine(t *testing.T) {
	clock := &fakeClock{t: time.Unix(100, 0)}
	var sb strings.Builder
	p := NewProgress(&sb, "study", clock.now)
	p.Start(3, "jobs")
	clock.advance(200 * time.Millisecond) // all inside the throttle window
	p.JobDone(1)
	p.JobDone(1)
	p.JobDone(1)
	p.Finish()
	out := sb.String()
	if !strings.Contains(out, "3/3 jobs (100%)") {
		t.Fatalf("no 100%% line in output:\n%s", out)
	}
	if !strings.Contains(out, "done: 3/3 jobs") {
		t.Fatalf("no done summary in output:\n%s", out)
	}
	// The 100 % line printed exactly once: at p.done == p.total, not
	// again from Finish.
	if n := strings.Count(out, "(100%)"); n != 1 {
		t.Fatalf("100%% line printed %d times:\n%s", n, out)
	}
}

// TestProgressFinalLineAfterThrottledFinish covers the Finish-side fix:
// the last print the throttle let through predates the final jobs, so
// Finish itself must emit the catch-up line.
func TestProgressFinalLineAfterThrottledFinish(t *testing.T) {
	clock := &fakeClock{t: time.Unix(100, 0)}
	var sb strings.Builder
	p := NewProgress(&sb, "study", clock.now)
	p.Start(4, "jobs")
	clock.advance(2 * time.Second)
	p.JobDone(1) // prints 1/4 (throttle elapsed)
	clock.advance(100 * time.Millisecond)
	p.JobDone(1) // silent
	p.JobRetried()
	p.JobDropped() // silent (3/4 done)
	// The grid never reaches total (one job lost elsewhere): Finish must
	// still surface the final state.
	p.Finish()
	out := sb.String()
	if !strings.Contains(out, "3/4 jobs (75%)") {
		t.Fatalf("no catch-up line for the final state:\n%s", out)
	}
	if !strings.Contains(out, "1 retried, 1 dropped") {
		t.Fatalf("final line lacks retry/drop counts:\n%s", out)
	}
}

// TestProgressDroppedCompletesGrid asserts a grid whose last job drops
// still prints its 100 % line from JobDropped.
func TestProgressDroppedCompletesGrid(t *testing.T) {
	clock := &fakeClock{t: time.Unix(100, 0)}
	var sb strings.Builder
	p := NewProgress(&sb, "study", clock.now)
	p.Start(2, "jobs")
	clock.advance(10 * time.Millisecond)
	p.JobDone(1)
	p.JobDropped()
	if !strings.Contains(sb.String(), "2/2 jobs (100%)") {
		t.Fatalf("dropped last job did not print completion:\n%s", sb.String())
	}
}

// TestProgressState covers the observatory snapshot.
func TestProgressState(t *testing.T) {
	var nilP *Progress
	if s := nilP.State(); s != (ProgressState{}) {
		t.Fatalf("nil progress state = %+v", s)
	}
	clock := &fakeClock{t: time.Unix(100, 0)}
	var sb strings.Builder
	p := NewProgress(&sb, "study", clock.now)
	p.Start(4, "grid")
	clock.advance(10 * time.Second)
	p.JobDone(5)
	p.JobDone(5)
	p.CacheHit()
	s := p.State()
	if s.Label != "study" || s.What != "grid" {
		t.Fatalf("state identity = %+v", s)
	}
	if s.Done != 2 || s.Total != 4 || s.Percent != 50 || s.CacheHits != 1 {
		t.Fatalf("state counters = %+v", s)
	}
	if s.ElapsedSec != 10 {
		t.Fatalf("elapsed = %g, want 10", s.ElapsedSec)
	}
	// 2 of 4 jobs in 10s at uniform virtual cost: 10s remain.
	if s.ETASec != 10 {
		t.Fatalf("eta = %g, want 10", s.ETASec)
	}
	if s.Finished {
		t.Fatal("finished before Finish")
	}
	p.JobDone(5)
	p.JobDone(5)
	p.Finish()
	if s := p.State(); !s.Finished || s.Percent != 100 {
		t.Fatalf("post-finish state = %+v", s)
	}
}

// TestProgressReporting drives the reporter with a fake clock and
// checks the cadence, the counts and the virtual-cost ETA.
func TestProgressReporting(t *testing.T) {
	var buf bytes.Buffer
	now := time.Date(2026, 8, 6, 9, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	p := NewProgress(&buf, "study", clock)
	p.Start(4, "MiniFE-1 grid")
	p.CacheHit()
	p.JobDone(1.0)
	now = now.Add(2 * time.Second) // past the 1s cadence
	p.JobDone(1.0)
	p.JobRetried()
	p.JobDropped()
	now = now.Add(time.Second)
	p.JobDone(1.0)
	p.Finish()
	out := buf.String()
	for _, want := range []string{
		"study: MiniFE-1 grid: 4 jobs queued",
		"study: 2/4 jobs (50%)",
		"1 cache hits",
		"eta 2s", // 2s elapsed for 2.0 virtual s done, 2 jobs left at mean 1.0 virtual s
		"study: done: 4/4 jobs",
		"1 retried, 1 dropped",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress output missing %q:\n%s", want, out)
		}
	}
}
