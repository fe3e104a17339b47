// Package vtime is a stub of the real kernel API (internal/vtime) for
// the contract corpus: detlint matches the API by package-path suffix,
// so the corpus exercises the analyzers without depending on the repo's
// packages.
package vtime

// Action mirrors the fluid work request of the real kernel.
type Action struct {
	Delay float64
	Work  float64
}

// Kernel is the stub scheduler.
type Kernel struct{}

func (k *Kernel) Spawn(name string, fn func(*Actor)) *Actor { return &Actor{k: k} }
func (k *Kernel) Post(a Action, fn func())                  {}

// Actor is one simulated thread of control.
type Actor struct{ k *Kernel }
