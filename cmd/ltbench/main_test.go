package main

import (
	"testing"

	"repro/internal/bench"
)

// The kernel rows of BENCH_pr23.json and its pr23-parent baseline: code
// that did not change reads 1.00x although its ns/op ratio was 1.27x.
func TestDelta(t *testing.T) {
	base := &File{Label: "pr23-parent", Results: []bench.Measurement{
		{Name: "KernelSharedResource", NsPerOp: 1184052.568627451, BytesPerOp: 7653.472, AllocsPerOp: 89.04645476772616},
		{Name: "TraceRecord", NsPerOp: 101634.9869},
		{Name: "Halved", NsPerOp: 1000, BytesPerOp: 4096, AllocsPerOp: 200},
	}}
	for _, tc := range []struct {
		name string
		base *File
		m    bench.Measurement
		want string
	}{
		{"no baseline", nil, bench.Measurement{Name: "KernelSharedResource", NsPerOp: 1}, ""},
		{"not in baseline", base, bench.Measurement{Name: "Analyzer", NsPerOp: 1, BytesPerOp: 1, AllocsPerOp: 1}, ""},
		{"unchanged code, faster machine", base,
			bench.Measurement{Name: "KernelSharedResource", NsPerOp: 933020.9667422525, BytesPerOp: 7648.417391304348, AllocsPerOp: 89.00434782608696},
			"   [allocs/op 1.00x, B/op 1.00x vs pr23-parent]"},
		{"allocation-free", base, bench.Measurement{Name: "TraceRecord", NsPerOp: 107992.8156},
			"   [allocs/op -, B/op - vs pr23-parent]"},
		{"half the allocations", base, bench.Measurement{Name: "Halved", NsPerOp: 2000, BytesPerOp: 1024, AllocsPerOp: 100},
			"   [allocs/op 2.00x, B/op 4.00x vs pr23-parent]"},
	} {
		if got := delta(tc.base, tc.m); got != tc.want {
			t.Errorf("%s: delta = %q, want %q", tc.name, got, tc.want)
		}
	}
}
