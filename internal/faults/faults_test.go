package faults

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/noise"
	"repro/internal/vtime"
	"repro/internal/work"
)

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "oneoff:rank=3,at=0.002,delay=0.001;straggler:rank=0,factor=1.5;" +
		"linkdown:node=0,at=0.001,dur=0.004,factor=0.1;" +
		"membw:domain=2,at=0,dur=0.01,factor=0.25;ctrglitch:rank=1,factor=0.5"
	p, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Faults) != 5 {
		t.Fatalf("parsed %d faults, want 5", len(p.Faults))
	}
	if f := p.Faults[0]; f.Kind != OneOffDelay || f.Rank != 3 || f.At != 0.002 || f.Delay != 0.001 {
		t.Fatalf("oneoff parsed wrong: %+v", f)
	}
	if f := p.Faults[2]; f.Kind != LinkDegrade || f.Node != 0 || f.Duration != 0.004 || f.Factor != 0.1 {
		t.Fatalf("linkdown parsed wrong: %+v", f)
	}
	// String must re-parse to the same plan.
	p2, err := ParseSpec(p.String())
	if err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if len(p2.Faults) != len(p.Faults) {
		t.Fatalf("round trip lost faults: %s", p.String())
	}
	for i := range p.Faults {
		if p.Faults[i] != p2.Faults[i] {
			t.Fatalf("fault %d changed in round trip: %+v vs %+v", i, p.Faults[i], p2.Faults[i])
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"frobnicate:rank=0",      // unknown kind
		"oneoff",                 // missing args
		"oneoff:rank",            // missing value
		"oneoff:rank=x",          // non-numeric
		"oneoff:rank=0,cheese=1", // unknown key
		"oneoff:rank=0 delay=1e", // malformed float
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", bad)
		}
	}
}

func TestValidate(t *testing.T) {
	ok := Plan{Faults: []Fault{
		{Kind: OneOffDelay, Rank: 3, At: 0.1, Delay: 0.01},
		{Kind: Straggler, Rank: 0, Factor: 2},
		{Kind: LinkDegrade, Node: 1, At: 0, Duration: 0.5, Factor: 0.5},
		{Kind: MemDegrade, Domain: 7, At: 0, Duration: 0.5, Factor: 0.5},
		{Kind: CtrGlitch, Rank: 2, Factor: 0.3},
	}}
	if err := ok.Validate(4, 2, 8); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	for name, bad := range map[string]Fault{
		"rank out of range":   {Kind: OneOffDelay, Rank: 4, Delay: 0.01},
		"zero delay":          {Kind: OneOffDelay, Rank: 0},
		"negative start":      {Kind: OneOffDelay, Rank: 0, At: -1, Delay: 0.01},
		"straggler factor":    {Kind: Straggler, Rank: 0, Factor: 0.5},
		"node out of range":   {Kind: LinkDegrade, Node: 2, Duration: 1, Factor: 0.5},
		"link fraction":       {Kind: LinkDegrade, Node: 0, Duration: 1, Factor: 1.5},
		"link without window": {Kind: LinkDegrade, Node: 0, Factor: 0.5},
		"domain out of range": {Kind: MemDegrade, Domain: 8, Duration: 1, Factor: 0.5},
		"glitch factor":       {Kind: CtrGlitch, Rank: 0},
		"unknown kind":        {Kind: Kind("nope")},
	} {
		p := Plan{Faults: []Fault{bad}}
		if err := p.Validate(4, 2, 8); err == nil {
			t.Errorf("%s: plan %+v accepted", name, bad)
		}
	}
}

// TestValidateStructuredErrors is the table-driven sweep of the Arm-time
// plan validation: every malformed plan must be rejected with a
// *PlanError that names the offending entry (index and rendered fault),
// and the reason must mention the failing quantity.
func TestValidateStructuredErrors(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name   string
		plan   Plan
		index  int    // expected PlanError.Index
		reason string // substring of PlanError.Reason
	}{
		{"nan start time", Plan{Faults: []Fault{{Kind: OneOffDelay, Rank: 0, At: nan, Delay: 0.01}}}, 0, "finite"},
		{"inf start time", Plan{Faults: []Fault{{Kind: Straggler, Rank: 0, At: inf, Factor: 2}}}, 0, "finite"},
		{"nan duration", Plan{Faults: []Fault{{Kind: LinkDegrade, Node: 0, Duration: nan, Factor: 0.5}}}, 0, "finite"},
		{"nan delay", Plan{Faults: []Fault{{Kind: OneOffDelay, Rank: 0, Delay: nan}}}, 0, "finite"},
		{"nan factor", Plan{Faults: []Fault{{Kind: MemDegrade, Domain: 0, Duration: 1, Factor: nan}}}, 0, "finite"},
		{"negative start", Plan{Faults: []Fault{{Kind: OneOffDelay, Rank: 0, At: -1, Delay: 0.01}}}, 0, "non-negative"},
		{"negative duration", Plan{Faults: []Fault{{Kind: Straggler, Rank: 0, Duration: -1, Factor: 2}}}, 0, "non-negative"},
		{"empty window", Plan{Faults: []Fault{{Kind: LinkDegrade, Node: 0, At: 1, Factor: 0.5}}}, 0, "positive duration"},
		{"fraction above one", Plan{Faults: []Fault{{Kind: LinkDegrade, Node: 0, Duration: 1, Factor: 1.5}}}, 0, "out of (0,1]"},
		{"fraction zero", Plan{Faults: []Fault{{Kind: MemDegrade, Domain: 0, Duration: 1, Factor: 0}}}, 0, "out of (0,1]"},
		{"rank out of range", Plan{Faults: []Fault{
			{Kind: OneOffDelay, Rank: 0, Delay: 0.01},
			{Kind: CtrGlitch, Rank: 17, Factor: 0.5},
		}}, 1, "out of range"},
		{"node out of range", Plan{Faults: []Fault{{Kind: LinkDegrade, Node: 9, Duration: 1, Factor: 0.5}}}, 0, "out of range"},
		{"domain out of range", Plan{Faults: []Fault{{Kind: MemDegrade, Domain: 99, Duration: 1, Factor: 0.5}}}, 0, "out of range"},
		{"unknown kind", Plan{Faults: []Fault{{Kind: Kind("gremlin")}}}, 0, "unknown fault kind"},
		{"overlapping link windows", Plan{Faults: []Fault{
			{Kind: LinkDegrade, Node: 0, At: 0.001, Duration: 0.01, Factor: 0.5},
			{Kind: LinkDegrade, Node: 0, At: 0.005, Duration: 0.01, Factor: 0.25},
		}}, 1, "overlaps"},
		{"overlapping membw windows", Plan{Faults: []Fault{
			{Kind: MemDegrade, Domain: 2, At: 0, Duration: 1, Factor: 0.5},
			{Kind: MemDegrade, Domain: 2, At: 0.5, Duration: 1, Factor: 0.5},
		}}, 1, "overlaps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate(4, 2, 8)
			if err == nil {
				t.Fatalf("plan accepted: %+v", tc.plan)
			}
			var pe *PlanError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T, want *PlanError: %v", err, err)
			}
			if pe.Index != tc.index {
				t.Errorf("PlanError.Index = %d, want %d (%v)", pe.Index, tc.index, err)
			}
			if !strings.Contains(pe.Reason, tc.reason) {
				t.Errorf("PlanError.Reason %q does not mention %q", pe.Reason, tc.reason)
			}
			if pe.Index >= 0 && !strings.Contains(err.Error(), pe.Fault.String()) {
				t.Errorf("error %q does not render the offending entry %q", err, pe.Fault.String())
			}
		})
	}
}

// Capacity windows on different resources, or adjacent (non-overlapping)
// windows on one resource, must stay accepted.
func TestValidateAcceptsDisjointCapacityWindows(t *testing.T) {
	ok := Plan{Faults: []Fault{
		{Kind: LinkDegrade, Node: 0, At: 0, Duration: 0.01, Factor: 0.5},
		{Kind: LinkDegrade, Node: 1, At: 0, Duration: 0.01, Factor: 0.5},    // other node
		{Kind: LinkDegrade, Node: 0, At: 0.01, Duration: 0.01, Factor: 0.5}, // back-to-back
		{Kind: MemDegrade, Domain: 0, At: 0, Duration: 0.01, Factor: 0.5},   // other resource kind
	}}
	if err := ok.Validate(4, 2, 8); err != nil {
		t.Fatalf("disjoint windows rejected: %v", err)
	}
}

// smallJob builds a 1-node machine with a 4-rank placement for injector
// tests.
func smallJob(t *testing.T) (*vtime.Kernel, *machine.Machine, machine.Placement) {
	t.Helper()
	k := vtime.NewKernel()
	m := machine.New(k, machine.Jureca(1))
	place, err := machine.PlaceBlock(m, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return k, m, place
}

func TestArmEmptyPlanIsNoop(t *testing.T) {
	k, m, place := smallJob(t)
	inj, err := Arm(k, m, place, Plan{})
	if err != nil || inj != nil {
		t.Fatalf("empty plan: inj=%v err=%v, want nil/nil", inj, err)
	}
	if m.Faults() != nil {
		t.Fatal("empty plan installed an injector")
	}
}

func TestArmRejectsInvalidPlan(t *testing.T) {
	k, m, place := smallJob(t)
	_, err := Arm(k, m, place, Plan{Faults: []Fault{{Kind: OneOffDelay, Rank: 99, Delay: 0.01}}})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("invalid plan not rejected: %v", err)
	}
}

func TestOneOffDelayFiresExactlyOnce(t *testing.T) {
	k, m, place := smallJob(t)
	inj, err := Arm(k, m, place, Plan{Faults: []Fault{
		{Kind: OneOffDelay, Rank: 1, At: 0.5, Delay: 0.25},
	}})
	if err != nil {
		t.Fatal(err)
	}
	victim := place.Core(1, 0)
	if d, _ := inj.ComputeFault(victim, 0.4, 1e-3); d != 0 {
		t.Fatalf("fired before At: %g", d)
	}
	if d, _ := inj.ComputeFault(victim, 0.6, 1e-3); d != 0.25 {
		t.Fatalf("first quantum past At got delay %g, want 0.25", d)
	}
	if d, _ := inj.ComputeFault(victim, 0.7, 1e-3); d != 0 {
		t.Fatalf("one-off fired twice: %g", d)
	}
	other := place.Core(0, 0)
	if d, _ := inj.ComputeFault(other, 0.6, 1e-3); d != 0 {
		t.Fatalf("delay leaked to untargeted core: %g", d)
	}
}

func TestStragglerWindowSlowdown(t *testing.T) {
	k, m, place := smallJob(t)
	inj, err := Arm(k, m, place, Plan{Faults: []Fault{
		{Kind: Straggler, Rank: 0, At: 1, Duration: 2, Factor: 1.5},
		{Kind: Straggler, Rank: 2, Factor: 3}, // open-ended
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The rank-0 straggler covers both of its cores within the window.
	for th := 0; th < place.ThreadsPerRank; th++ {
		c := place.Core(0, th)
		if _, s := inj.ComputeFault(c, 2, 1e-3); s != 1.5 {
			t.Fatalf("thread %d: slowdown %g inside window, want 1.5", th, s)
		}
		if _, s := inj.ComputeFault(c, 3.5, 1e-3); s != 1 {
			t.Fatalf("thread %d: slowdown %g after window, want 1", th, s)
		}
	}
	// The open-ended straggler never expires.
	if _, s := inj.ComputeFault(place.Core(2, 1), 1e6, 1e-3); s != 3 {
		t.Fatalf("open-ended straggler expired: %g", s)
	}
}

func TestCounterGlitchInflatesReadout(t *testing.T) {
	k, m, place := smallJob(t)
	inj, err := Arm(k, m, place, Plan{Faults: []Fault{
		{Kind: CtrGlitch, Rank: 3, At: 0, Duration: 10, Factor: 0.5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := place.Core(3, 0)
	if g := inj.CounterGlitch(c, 5, 1000); g != 500 {
		t.Fatalf("glitch %g, want 500", g)
	}
	if g := inj.CounterGlitch(c, 11, 1000); g != 0 {
		t.Fatalf("glitch outside window: %g", g)
	}
	if g := inj.CounterGlitch(place.Core(0, 0), 5, 1000); g != 0 {
		t.Fatalf("glitch leaked to untargeted rank: %g", g)
	}
}

// A membw collapse window must slow a DRAM-bound quantum that overlaps it
// and leave one that runs after recovery untouched.
func TestMemDegradeWindowThroughSimulation(t *testing.T) {
	elapsed := func(plan Plan) float64 {
		k, m, place := smallJob(t)
		if _, err := Arm(k, m, place, plan); err != nil {
			t.Fatal(err)
		}
		// A working set far beyond L3 drives the miss ratio to one, making
		// the quantum DRAM-bound so the collapse window must bite.
		m.AddWorkingSet(place.Core(0, 0), 100*m.Cfg.L3PerDomain)
		var dt float64
		k.Spawn("streamer", func(a *vtime.Actor) {
			t0 := a.Now()
			m.Exec(a, place.Core(0, 0), work.Cost{Bytes: m.Cfg.DRAMBWPerDomain / 100}, nil)
			dt = a.Now() - t0
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return dt
	}
	clean := elapsed(Plan{})
	collapsed := elapsed(Plan{Faults: []Fault{{Kind: MemDegrade, Domain: 0, At: 0, Duration: 10, Factor: 0.02}}})
	if !(collapsed > 2*clean) {
		t.Fatalf("membw collapse did not slow the stream: clean %g, collapsed %g", clean, collapsed)
	}
	after := elapsed(Plan{Faults: []Fault{{Kind: MemDegrade, Domain: 0, At: 100, Duration: 10, Factor: 0.02}}})
	if math.Abs(after-clean) > 1e-12 {
		t.Fatalf("future window changed present timing: clean %g, after %g", clean, after)
	}
}

// The applied-fault log must record each fault class as it takes effect,
// with the victim coordinates and magnitude, and be identical across two
// identical runs.
func TestAppliedLogRecordsAndRepeats(t *testing.T) {
	run := func() []AppliedFault {
		k, m, place := smallJob(t)
		inj, err := Arm(k, m, place, Plan{Faults: []Fault{
			{Kind: OneOffDelay, Rank: 1, At: 0.5, Delay: 0.25},
			{Kind: Straggler, Rank: 0, At: 0, Factor: 2},
			{Kind: CtrGlitch, Rank: 2, Factor: 0.5},
			{Kind: MemDegrade, Domain: 0, At: 0.1, Duration: 0.2, Factor: 0.5},
		}})
		if err != nil {
			t.Fatal(err)
		}
		k.Spawn("driver", func(a *vtime.Actor) {
			for i := 0; i < 4; i++ {
				m.Exec(a, place.Core(0, 0), work.Cost{Flops: 1e9}, nil)
				m.Exec(a, place.Core(1, 0), work.Cost{Flops: 1e9}, nil)
			}
			inj.CounterGlitch(place.Core(2, 0), a.Now(), 100)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return inj.Applied()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("applied log differs between identical runs:\n%v\nvs\n%v", a, b)
	}
	byKind := map[Kind]int{}
	for _, e := range a {
		byKind[e.Kind]++
	}
	if byKind[OneOffDelay] != 1 {
		t.Errorf("oneoff applied %d times, want 1 (%v)", byKind[OneOffDelay], a)
	}
	if byKind[Straggler] != 1 {
		t.Errorf("straggler first activation logged %d times, want 1 (%v)", byKind[Straggler], a)
	}
	if byKind[CtrGlitch] != 1 {
		t.Errorf("ctrglitch first activation logged %d times, want 1 (%v)", byKind[CtrGlitch], a)
	}
	if byKind[MemDegrade] != 2 {
		t.Errorf("membw window logged %d events, want collapse+recovery (%v)", byKind[MemDegrade], a)
	}
	for _, e := range a {
		switch e.Kind {
		case OneOffDelay:
			if e.Rank != 1 || e.Magnitude != 0.25 || e.At < 0.5 {
				t.Errorf("oneoff applied event wrong: %+v", e)
			}
		case MemDegrade:
			if e.Rank != -1 || e.Core != -1 || e.Resource == "" {
				t.Errorf("capacity applied event must carry a resource, not a rank: %+v", e)
			}
		}
	}
	if (*Injector)(nil).Applied() != nil {
		t.Error("nil injector must yield a nil applied log")
	}
}

// Injected faults must not consume or shift any noise randomness: the
// same seed with and without a plan draws identical noise sequences.
func TestFaultsDoNotPerturbNoiseStreams(t *testing.T) {
	run := func(plan Plan) float64 {
		k, m, place := smallJob(t)
		if _, err := Arm(k, m, place, plan); err != nil {
			t.Fatal(err)
		}
		nm := noise.NewModel(42, noise.Cluster())
		src := nm.Source(0, 0)
		var sum float64
		k.Spawn("worker", func(a *vtime.Actor) {
			for i := 0; i < 50; i++ {
				m.Exec(a, place.Core(0, 0), work.Cost{Flops: 1e6}, src)
			}
			// The post-run draw exposes any divergence in stream position.
			sum = src.NetLatency(1e-6)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return sum
	}
	clean := run(Plan{})
	faulted := run(Plan{Faults: []Fault{
		{Kind: OneOffDelay, Rank: 0, At: 0, Delay: 0.001},
		{Kind: Straggler, Rank: 0, Factor: 2},
	}})
	if clean != faulted {
		t.Fatalf("fault plan shifted the noise stream: %g vs %g", clean, faulted)
	}
}
