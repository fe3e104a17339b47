package vtime

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// resumeOrderSHA256 pins the resume log of resumeScenario(15).  Every
// kernel change that keeps the schedule — queue order, flush points,
// completion order — keeps this hash.
const resumeOrderSHA256 = "32e00d73ddd84f5bc434a0e43da9b4bc910c11e1af89329f0042d53be62746b6"

// resumeScenario runs a seeded mixed workload and returns its resume
// log: one "id time" line appended by an actor after each of its
// blocking calls returns, so the log is the order in which the kernel
// resumed actors.  Post callbacks log under id -1.  The scenario covers
// contention on one resource, FIFO Cond Wait/Signal/Broadcast, a Post
// chain, Spawn from actor context, zero-cost Execute and several
// completions at one instant.
func resumeScenario(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	bw := k.NewResource("bw", 8)
	mailbox := k.NewCond("mailbox")
	gate := k.NewCond("gate")
	var log strings.Builder
	note := func(id int) { fmt.Fprintf(&log, "%d %v\n", id, k.Now()) }

	// Producers contend for bw, sleep on a quarter-second grid (so
	// several complete at one instant) and drop a token in the mailbox
	// every fourth step.
	const producers, steps = 6, 12
	tokens := 0
	for i := 0; i < producers; i++ {
		work := make([]float64, steps)
		sleep := make([]float64, steps)
		for j := range work {
			work[j] = float64(1 + rng.Intn(4))
			sleep[j] = 0.25 * float64(rng.Intn(3))
		}
		k.Spawn(fmt.Sprintf("producer%d", i), func(a *Actor) {
			for j := range work {
				a.Execute(Action{Work: work[j], RateCap: 2, Res: bw, ResPerUnit: 1})
				note(a.ID())
				a.Execute(Action{})
				if sleep[j] > 0 {
					a.Sleep(sleep[j])
					note(a.ID())
				}
				if j%4 == 3 {
					tokens++
					mailbox.Signal()
				}
			}
		})
	}
	// Consumers take the producers' tokens in FIFO wake order.
	const consumers = 3
	for i := 0; i < consumers; i++ {
		k.Spawn(fmt.Sprintf("consumer%d", i), func(a *Actor) {
			for n := 0; n < producers*steps/4/consumers; n++ {
				for tokens == 0 {
					mailbox.Wait(a)
					note(a.ID())
				}
				tokens--
				a.Compute(0.5)
				note(a.ID())
			}
		})
	}
	// A Post chain ticks every 0.75 s and broadcasts the gate; watchers
	// wait for their tick and wake together.
	ticks := 0
	var tick func(left int)
	tick = func(left int) {
		if left == 0 {
			return
		}
		k.Post(Action{Delay: 0.75}, func() {
			ticks++
			note(-1)
			gate.Broadcast()
			tick(left - 1)
		})
	}
	for i := 0; i < 4; i++ {
		want := 1 + rng.Intn(6)
		k.Spawn(fmt.Sprintf("watcher%d", i), func(a *Actor) {
			if a.ID()%2 == 0 {
				tick(6)
			}
			for ticks < want {
				gate.Wait(a)
				note(a.ID())
			}
			a.Compute(0.25)
			note(a.ID())
		})
	}
	// A spawner starts children from actor context at seeded times.
	delays := make([]float64, 4)
	for i := range delays {
		delays[i] = 0.25 * float64(rng.Intn(8))
	}
	k.Spawn("spawner", func(a *Actor) {
		for i, d := range delays {
			a.Sleep(d)
			note(a.ID())
			work := float64(1 + i)
			k.Spawn(fmt.Sprintf("child%d", i), func(c *Actor) {
				c.Execute(Action{Work: work, RateCap: 4, Res: bw, ResPerUnit: 1})
				note(c.ID())
				c.Execute(Action{Delay: 0.5})
				note(c.ID())
			})
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	return log.String()
}

// TestResumeOrder pins the order in which the kernel resumes actors and
// then runs the scenario on four goroutines at once: each kernel's
// state is written by its actors' goroutines in turn, ordered only by
// the handoffs of the execution slot, so concurrent kernels (and -race)
// must see the same log.
func TestResumeOrder(t *testing.T) {
	want := resumeScenario(15)
	sum := sha256.Sum256([]byte(want))
	if got := hex.EncodeToString(sum[:]); got != resumeOrderSHA256 {
		t.Fatalf("resume log sha256 = %s, want %s\n%s", got, resumeOrderSHA256, want)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := resumeScenario(15); got != want {
					errs <- fmt.Sprintf("run %d diverged:\n%s", i, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
