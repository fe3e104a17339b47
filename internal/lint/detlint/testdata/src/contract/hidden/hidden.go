// Package hidden is the seeded acceptance case: a map-range loop that
// feeds an ordered sink, two helper calls below a turn body.  The
// helper scope follows turn → level1 → level2 and reports the sink
// call; the direct scope finds nothing here (the corpus test fails on
// any diagnostic without a // want), because the loop calls a method
// whose name carries no sink prefix and the append that makes it a
// sink sits in another function.
package hidden

import "contract.example/vtime"

// journal keeps names in call order.
type journal struct{ names []string }

func (j *journal) note(name string) { j.names = append(j.names, name) }

func Run(k *vtime.Kernel, m map[string]int) {
	j := &journal{}
	k.Spawn("t", func(a *vtime.Actor) {
		level1(j, m)
	})
	setup(j, m)
}

func level1(j *journal, m map[string]int) { level2(j, m) }

func level2(j *journal, m map[string]int) {
	for name := range m {
		j.note(name) // want `\(hidden\.journal\)\.note emits to an ordered sink and is called inside a map-range loop`
	}
}

// setup runs the same loop outside simulation code, where iteration
// order cannot reach a simulated result: clean.
func setup(j *journal, m map[string]int) {
	for name := range m {
		j.note(name)
	}
}
