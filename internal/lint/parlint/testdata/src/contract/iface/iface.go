// Package iface exercises the interface-dispatch over-approximation:
// a call through an interface inside a turn body reaches every
// implementing type in the module, so an order-keeping implementation
// is flagged even though the dynamic type at run time might be the
// order-free one — soundness over precision.
package iface

import "contract.example/vtime"

// Visitor is dispatched from inside a turn body.
type Visitor interface{ Visit(key string) }

// Ordered keeps keys in call order.
type Ordered struct{ keys []string }

func (o *Ordered) Visit(key string) { o.keys = append(o.keys, key) }

// Counter only counts, which no visiting order can change.
type Counter struct{ n int }

func (c *Counter) Visit(string) { c.n++ }

func Run(k *vtime.Kernel, v Visitor, m map[string]int) {
	k.Spawn("t", func(a *vtime.Actor) {
		for key := range m {
			v.Visit(key) // want `\(iface\.Ordered\)\.Visit emits to an ordered sink and is called inside a map-range loop`
		}
	})
}
