// Package global exercises globalmut: package-level writes from
// simulation-reachable code — a Spawn body, a helper below one, a Post
// completion callback — against the same writes from set-up code.
package global

import "contract.example/vtime"

var counter int

var table = map[string]int{}

func Run(k *vtime.Kernel) {
	k.Spawn("direct", func(a *vtime.Actor) {
		counter++ // want `write to package-level global\.counter from simulation code \(via global\.Run\$1\)`
	})

	k.Spawn("helper", func(a *vtime.Actor) {
		bump("x")
	})

	k.Post(vtime.Action{Delay: 1}, func() {
		counter = 0 // want `write to package-level global\.counter from simulation code \(via global\.Run\$3\)`
	})

	// Set-up context: Run is not simulation code, so writing here is
	// legal.
	counter = 0
	table["init"] = 1
}

// bump is one helper level below a turn body: the report lands here
// with a witness chain.
func bump(key string) {
	table[key]++ // want `write to package-level global\.table from simulation code \(via global\.Run\$2 → global\.bump\)`
}
