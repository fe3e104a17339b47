package experiment

import (
	"bytes"
	"math"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/scalasca"
)

// ltverifyGolden is ltverify's stdout at -reps 2: one "running" line per
// claim study, a blank line, then CheckClaims' block.
const ltverifyGolden = "../../cmd/testdata/ltverify.stdout"

var claimGrid struct {
	once sync.Once
	sts  []*Study
	err  error
}

// claimStudies runs ltverify's grid as CI runs it (quick specs, two
// repetitions, base seed 0, every trace verified), once per test
// binary, and returns its studies in ClaimSpecs order.
func claimStudies(t *testing.T) []*Study {
	t.Helper()
	claimGrid.once.Do(func() {
		specs := make([]Spec, len(ClaimSpecs))
		for i, name := range ClaimSpecs {
			spec, err := SpecByName(name, Options{Quick: true})
			if err != nil {
				claimGrid.err = err
				return
			}
			specs[i] = spec
		}
		claimGrid.sts, claimGrid.err = RunStudies(specs, StudyOptions{Reps: 2, VerifyTraces: true})
	})
	if claimGrid.err != nil {
		t.Fatal(claimGrid.err)
	}
	return claimGrid.sts
}

// requireSection fails t unless every claim of the paper section holds
// on the claim grid.
func requireSection(t *testing.T, sts []*Study, section string) {
	t.Helper()
	studies := make(map[string]*Study, len(sts))
	for _, st := range sts {
		studies[st.Spec.Name] = st
	}
	n := 0
	for _, c := range Claims() {
		if c.Section != section {
			continue
		}
		n++
		if detail, ok := c.Check(studies); !ok {
			t.Errorf("%s %s: %s", c.Section, c.Text, detail)
		}
	}
	if n == 0 {
		t.Fatalf("no claim of %s", section)
	}
}

// within fails t unless min <= v <= max.
func within(t *testing.T, what string, v, min, max float64) {
	t.Helper()
	if v < min || v > max {
		t.Errorf("%s = %.1f, want within [%g, %g]", what, v, min, max)
	}
}

// TestClaims: every claim passes on ltverify's grid and renders exactly
// as the golden records it.  The TestStory tests below check one paper
// section each, plus the findings of §V that no claim states, or states
// more loosely, on the same studies.
func TestClaims(t *testing.T) {
	sts := claimStudies(t)
	var got bytes.Buffer
	if failed := CheckClaims(&got, sts); failed > 0 {
		t.Errorf("%d claims failed:\n%s", failed, got.Bytes())
	}
	golden, err := os.ReadFile(ltverifyGolden)
	if err != nil {
		t.Fatal(err)
	}
	if _, want, ok := bytes.Cut(golden, []byte("\n\n")); !ok || !bytes.Equal(got.Bytes(), want) {
		t.Errorf("claims render as\n%s\nwant the claim block of %s:\n%s", got.Bytes(), ltverifyGolden, want)
	}
}

// §V-A / Fig 2: light instrumentation speeds the MiniFE init phase up,
// the counting clocks roughly double it (lt_hwctr too), and the CG solve
// hides lt_bb's counting in bandwidth stalls.
func TestStoryMiniFEInitOverheads(t *testing.T) {
	sts := claimStudies(t)
	requireSection(t, sts, "§V-A")
	mf2 := sts[1]
	within(t, "MiniFE-2 lt_hwctr structgen overhead (%)", mf2.PhaseOverhead(core.ModeHwctr, "structgen"), 40, math.Inf(1))
	within(t, "MiniFE-2 lt_bb solve overhead (%)", mf2.PhaseOverhead(core.ModeBB, "solve"), math.Inf(-1), 8)
}

// §V-B: lt_1 scores lowest against tsc, and the pure logical modes
// repeat exactly while tsc does not.
func TestStoryJaccardOrdering(t *testing.T) {
	requireSection(t, claimStudies(t), "§V-B")
}

// §V-C1: lt_loop over-weights each cheap vector kernel; lt_1 over-weights
// the call-dense assembly and sees no matvec loop, which makes no calls.
func TestStoryMiniFEAttributionFailures(t *testing.T) {
	sts := claimStudies(t)
	requireSection(t, sts, "§V-C1")
	mf1 := sts[0]
	within(t, "MiniFE-1 lt_loop waxpby share (%M)", groupShare(mf1, core.ModeLoop, scalasca.MComp, "waxpby"), 25, math.Inf(1))
	within(t, "MiniFE-1 lt_1 assemble share (%M)", groupShare(mf1, core.ModeLt1, scalasca.MComp, "assemble"), 40, math.Inf(1))
	within(t, "MiniFE-1 lt_1 matvec_loop share (%M)", groupShare(mf1, core.ModeLt1, scalasca.MComp, "matvec_loop"), math.Inf(-1), 5)
}

// §V-C2: MiniFE-2's serial regions surface as idle threads; the memory
// contention leaves the logical comp distribution unchanged, within 1
// point per path where the claim allows 1.5.
func TestStoryMiniFE2IdleAndContention(t *testing.T) {
	sts := claimStudies(t)
	requireSection(t, sts, "§V-C2")
	a := sts[0].MeanProfile(core.ModeStmt).PathPercents(scalasca.MComp)
	b := sts[1].MeanProfile(core.ModeStmt).PathPercents(scalasca.MComp)
	for _, path := range sortedKeys(a) {
		if d := a[path] - b[path]; math.Abs(d) > 1 {
			t.Errorf("lt_stmt comp share of %q differs between MiniFE-1 (%.2f) and MiniFE-2 (%.2f)", path, a[path], b[path])
		}
	}
}

// §V-C3: delay costs point at the artificially imbalanced material
// update in every effort-model mode, lt_hwctr included.
func TestStoryLULESHDelayCosts(t *testing.T) {
	sts := claimStudies(t)
	requireSection(t, sts, "§V-C3")
	within(t, "LULESH-1 lt_hwctr material update delay share (%M)", groupShare(sts[2], core.ModeHwctr, scalasca.MDelayNxN,
		"EvalEOSForElems", "ApplyMaterialProperties"), 50, math.Inf(1))
}

// §V-C4: LULESH-2's NUMA late senders appear under tsc but not under the
// counting clocks.
func TestStoryLULESH2LateSender(t *testing.T) {
	requireSection(t, claimStudies(t), "§V-C4")
}

// §V-C5: at 128 ranks tsc shows TeaLeaf's all-to-all wait, and lt_hwctr
// is the logical mode that shows it.
func TestStoryTeaLeaf4AllToAll(t *testing.T) {
	requireSection(t, claimStudies(t), "§V-C5")
}
