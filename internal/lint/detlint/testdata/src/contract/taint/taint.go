// Package taint exercises the helper scope of wallclock, globalrand and
// maporder: the offending construct sits in a helper (two levels deep
// for the wall clock), and the report lands on the call edge in
// simulation-reachable code.  The direct scope reports each construct
// where it is written, and a construct written in simulation code
// itself is reported there once, never again as a helper call.
package taint

import (
	"math/rand"
	"sort"
	"time"
)

import "contract.example/vtime"

func Run(k *vtime.Kernel, m map[string]int) {
	k.Spawn("t", func(a *vtime.Actor) {
		_ = time.Now() // want `time\.Now reads the wall clock`
		stamp()        // want `call to taint\.stamp reaches the wall clock \(taint\.stamp → taint\.wrap\)`
		pick()         // want `call to taint\.pick reaches the process-global math/rand generator`
		s := &sink{}
		collect(s, m)
		collectSorted(s, m)
	})
}

// stamp is one helper level above the wall clock; wrap holds the
// actual reference.  Taint flows bottom-up through both.
func stamp() float64 { return wrap() } // want `call to taint\.wrap reaches the wall clock \(taint\.wrap\)`

func wrap() float64 { return float64(time.Now().UnixNano()) } // want `time\.Now reads the wall clock`

// pick draws from the process-global generator.
func pick() int { return rand.Intn(3) } // want `rand\.Intn uses the process-global generator`

// sink accumulates keys in call order.
type sink struct{ keys []string }

func (s *sink) add(k string) { s.keys = append(s.keys, k) }

// collect hides the ordered sink one call below the map range: the
// direct maporder scope sees only an innocent method call here.
func collect(s *sink, m map[string]int) {
	for k := range m {
		s.add(k) // want `\(taint\.sink\)\.add emits to an ordered sink and is called inside a map-range loop`
	}
}

// collectSorted uses the collect-then-sort idiom the analyzer honours.
func collectSorted(s *sink, m map[string]int) {
	for k := range m {
		s.add(k)
	}
	sort.Strings(s.keys)
}
