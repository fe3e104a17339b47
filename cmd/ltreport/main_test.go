package main

import (
	"fmt"
	"testing"
)

// TestSection: -table 1 or 2 selects its table whatever -fig says;
// otherwise -fig 2 to 9 selects its figure, and anything else selects
// nothing.
func TestSection(t *testing.T) {
	for table := 0; table <= 3; table++ {
		for fig := 0; fig <= 10; fig++ {
			want := ""
			switch {
			case table == 1 || table == 2:
				want = fmt.Sprintf("table%d", table)
			case fig >= 2 && fig <= 9:
				want = fmt.Sprintf("fig%d", fig)
			}
			sec, ok := section(table, fig)
			if got := sec.Name; got != want || ok != (want != "") {
				t.Errorf("-table %d -fig %d: section %q (found %v), want %q", table, fig, got, ok, want)
			}
		}
	}
}
