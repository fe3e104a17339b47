package vtime

import (
	"errors"
	"strings"
	"testing"
)

// Satellite: the deadlock diagnostic must list the blocked actors and the
// wait-graph edges from each condition to its waiters.
func TestDeadlockWaitGraph(t *testing.T) {
	k := NewKernel()
	c1 := k.NewCond("first-lock")
	c2 := k.NewCond("second-lock")
	k.Spawn("alice", func(a *Actor) {
		a.Sleep(1)
		c1.Wait(a) // nobody ever signals
	})
	k.Spawn("bob", func(a *Actor) {
		c2.Wait(a)
	})
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %T: %v", err, err)
	}
	if de.Blocked != 2 {
		t.Fatalf("Blocked = %d, want 2", de.Blocked)
	}
	msg := err.Error()
	for _, want := range []string{
		"deadlock",
		`"alice": waiting on first-lock`,
		`"bob": waiting on second-lock`,
		"blocked since t=1",
		"blocked since t=0",
		`cond "first-lock" <- waiters [alice]`,
		`cond "second-lock" <- waiters [bob]`,
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock diagnostic missing %q:\n%s", want, msg)
		}
	}
}
