package faults

import (
	"reflect"
	"testing"
)

// FuzzParseSpec feeds arbitrary strings to the command-line fault
// grammar.  ParseSpec must never panic, and every plan it accepts that
// also validates against a 16-rank, 1-node, 8-domain job must survive a
// String round trip unchanged — String is how plans are echoed in
// reports and error messages, so it must say exactly what will run.
// The committed corpus under testdata/fuzz/FuzzParseSpec holds the
// documented examples plus malformed kinds, keys and numbers.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec)
		if err != nil || p.Validate(16, 1, 8) != nil {
			return
		}
		again, err := ParseSpec(p.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its String %q does not re-parse: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("ParseSpec(%q) = %#v, but re-parsing its String %q gives %#v", spec, p.Faults, p.String(), again.Faults)
		}
	})
}
