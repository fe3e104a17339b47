// Package maporder seeds violations for the maporder analyzer: map
// iteration order is randomised per run, so it must never reach an
// ordered sink unsorted.
package maporder

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append inside map-range loop"
	}
	return keys
}

func badPrint(w io.Writer, m map[string]float64) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%g\n", k, v) // want "fmt.Fprintf called inside map-range loop"
	}
}

func badMethodSink(m map[string]int) string {
	var sb strings.Builder
	for k := range m {
		sb.WriteString(k) // want "sb.WriteString called inside map-range loop"
	}
	return sb.String()
}

// The collect-then-sort idiom is the accepted fix.
func okSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Commutative reductions never observe the order.
func okReduce(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Float addition is not associative: a sum in map order moves in its
// last bits from run to run.
func badFloatSum(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want `float \+= inside map-range loop`
	}
	return total
}

// Each key's sum adds that key's values in slice order.
func okFloatPerKey(m map[string][]float64) map[string]float64 {
	sums := make(map[string]float64, len(m))
	for k, vs := range m {
		for _, v := range vs {
			sums[k] += v
		}
	}
	return sums
}

// Slice ranges are ordered; nothing to flag.
func okSliceRange(w io.Writer, xs []string) {
	for _, x := range xs {
		fmt.Fprintln(w, x)
	}
}

func okAllowed(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) //detlint:allow maporder
	}
	return keys
}
