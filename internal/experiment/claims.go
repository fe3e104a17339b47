package experiment

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/scalasca"
)

// A Claim is one qualitative finding of the paper, stated as a test of
// the shape (sign, ordering, dominance) of study results rather than of
// absolute numbers.
type Claim struct {
	Section string // the paper section it comes from: §II, §V-A …
	Text    string
	// Check returns the claim's detail line and whether the finding
	// holds on the studies, keyed by spec name.
	Check func(s map[string]*Study) (string, bool)
}

// ClaimSpecs names the studies the claims read, in grid order.
var ClaimSpecs = []string{"MiniFE-1", "MiniFE-2", "LULESH-1", "LULESH-2", "TeaLeaf-2", "TeaLeaf-4"}

// CheckClaims checks every claim on the studies and writes a PASS or
// FAIL line per claim, its detail line below it, then a blank line and
// the summary.  It returns the number of claims that failed.
func CheckClaims(w io.Writer, sts []*Study) int {
	studies := make(map[string]*Study, len(sts))
	for _, st := range sts {
		studies[st.Spec.Name] = st
	}
	claims := Claims()
	failed := 0
	for _, c := range claims {
		detail, ok := c.Check(studies)
		status := "PASS"
		if !ok {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "[%s] %-8s %s\n         %s\n", status, c.Section, c.Text, detail)
	}
	fmt.Fprintf(w, "\n%d claims checked, %d failed\n", len(claims), failed)
	return failed
}

// Claims lists the paper's claims in the order ltverify prints them.
// They read the studies of ClaimSpecs, run with VerifyTraces.
func Claims() []Claim {
	return []Claim{
		{"§II", "every recorded trace satisfies the checked causality invariants", func(s map[string]*Study) (string, bool) {
			// The paper's replay correctness rests on the Lamport clock
			// condition; tracecheck verifies it (plus matching, ordering
			// and nesting invariants) for every completed repetition of
			// every study in the grid (see internal/tracecheck).
			verified, violations := 0, 0
			first := ""
			for _, name := range sortedKeys(s) {
				for _, tc := range s[name].TraceChecks {
					verified++
					if n := tc.Report.NumViolations(); n > 0 {
						violations += n
						if first == "" {
							first = fmt.Sprintf("%s/%s rep %d", name, tc.Mode, tc.Rep)
						}
					}
				}
			}
			if violations > 0 {
				return fmt.Sprintf("%d violations across %d traces (first: %s)", violations, verified, first), false
			}
			return fmt.Sprintf("%d traces verified, zero violations", verified), verified > 0
		}},
		{"§V-A", "light clocks show negative overhead in MiniFE init", func(s map[string]*Study) (string, bool) {
			oh := s["MiniFE-2"].PhaseOverhead(core.ModeTSC, "structgen")
			return fmt.Sprintf("tsc structgen overhead %.1f%%", oh), oh < -5
		}},
		{"§V-A", "counting clocks roughly double MiniFE init", func(s map[string]*Study) (string, bool) {
			bb := s["MiniFE-2"].PhaseOverhead(core.ModeBB, "structgen")
			st := s["MiniFE-2"].PhaseOverhead(core.ModeStmt, "structgen")
			return fmt.Sprintf("lt_bb %.1f%%, lt_stmt %.1f%%", bb, st), bb > 50 && st > 50
		}},
		{"§V-A", "no mode has significant overhead in the CG solve phase", func(s map[string]*Study) (string, bool) {
			worst := 0.0
			for _, m := range core.AllModes() {
				if oh := s["MiniFE-2"].PhaseOverhead(m, "solve"); oh > worst {
					worst = oh
				}
			}
			return fmt.Sprintf("worst solve overhead %.1f%%", worst), worst < 10
		}},
		{"§V-A", "TeaLeaf instrumentation overhead is large for every clock", func(s map[string]*Study) (string, bool) {
			least := 1e9
			for _, m := range core.AllModes() {
				if oh := s["TeaLeaf-2"].Overhead(m); oh < least {
					least = oh
				}
			}
			return fmt.Sprintf("smallest TeaLeaf-2 overhead %.1f%%", least), least > 10
		}},
		{"§V-B", "lt_1 scores lowest against tsc", func(s map[string]*Study) (string, bool) {
			for _, cfg := range []string{"MiniFE-1", "MiniFE-2", "LULESH-1", "LULESH-2"} {
				j1 := s[cfg].JaccardVsTsc(core.ModeLt1)
				for _, m := range []core.Mode{core.ModeBB, core.ModeStmt, core.ModeHwctr} {
					if s[cfg].JaccardVsTsc(m) <= j1 {
						return fmt.Sprintf("%s: %s <= lt_1", cfg, m), false
					}
				}
			}
			return "lt_1 lowest in all four configurations", true
		}},
		{"§V-B", "pure logical analyses repeat bit-for-bit across noisy runs", func(s map[string]*Study) (string, bool) {
			for _, cfg := range []string{"MiniFE-1", "LULESH-1", "TeaLeaf-2"} {
				for _, m := range []core.Mode{core.ModeLt1, core.ModeLoop, core.ModeBB, core.ModeStmt} {
					if j := s[cfg].MinRepJaccard(m); j != 1 {
						return fmt.Sprintf("%s/%s rep-to-rep J = %g", cfg, m, j), false
					}
				}
			}
			return "rep-to-rep J = 1.000 exactly", true
		}},
		{"§V-B", "tsc analyses vary run to run", func(s map[string]*Study) (string, bool) {
			j := s["MiniFE-1"].MinRepJaccard(core.ModeTSC)
			return fmt.Sprintf("MiniFE-1 tsc rep-to-rep J = %.3f", j), j < 1 && j > 0.8
		}},
		{"§V-C1", "lt_loop over-weights MiniFE's cheap vector loops", func(s map[string]*Study) (string, bool) {
			v := groupShare(s["MiniFE-1"], core.ModeLoop, scalasca.MComp, "waxpby", "dot")
			return fmt.Sprintf("waxpby+dot = %.1f%%M under lt_loop", v), v > 50
		}},
		{"§V-C1", "lt_1 over-weights the call-dense assembly", func(s map[string]*Study) (string, bool) {
			v := groupShare(s["MiniFE-1"], core.ModeLt1, scalasca.MComp, "assemble", "generate_matrix_structure", "operator()")
			return fmt.Sprintf("assembly = %.1f%%M under lt_1", v), v > 60
		}},
		{"§V-C2", "logical clocks cannot see MiniFE-2's memory contention", func(s map[string]*Study) (string, bool) {
			// Identical lt_stmt comp distributions in MiniFE-1 and MiniFE-2.
			a := s["MiniFE-1"].MeanProfile(core.ModeStmt).PathPercents(scalasca.MComp)
			b := s["MiniFE-2"].MeanProfile(core.ModeStmt).PathPercents(scalasca.MComp)
			for _, path := range sortedKeys(a) {
				if d := a[path] - b[path]; d > 1.5 || d < -1.5 {
					return fmt.Sprintf("lt_stmt share of %q differs: %.1f vs %.1f", path, a[path], b[path]), false
				}
			}
			return "lt_stmt comp distribution identical across configurations", true
		}},
		{"§V-C2", "serial regions surface as idle threads in MiniFE-2", func(s map[string]*Study) (string, bool) {
			idle := s["MiniFE-2"].MeanProfile(core.ModeTSC).PercentOfTime(scalasca.MIdleThreads)
			return fmt.Sprintf("tsc idle threads %.1f%%T", idle), idle > 25
		}},
		{"§V-C3", "delay costs blame the imbalanced material update, not the MPI call", func(s map[string]*Study) (string, bool) {
			for _, m := range []core.Mode{core.ModeTSC, core.ModeStmt} {
				v := groupShare(s["LULESH-1"], m, scalasca.MDelayNxN, "EvalEOSForElems", "ApplyMaterialProperties")
				if v < 50 {
					return fmt.Sprintf("%s: material delay share %.1f%%M", m, v), false
				}
			}
			return "material update dominates delay costs under tsc and lt_stmt", true
		}},
		{"§V-C3", "only lt_hwctr among logical clocks shows effort inside MPI", func(s map[string]*Study) (string, bool) {
			hw := s["LULESH-1"].MeanProfile(core.ModeHwctr).PercentOfTime(scalasca.MMPI)
			bb := s["LULESH-1"].MeanProfile(core.ModeBB).PercentOfTime(scalasca.MMPI)
			return fmt.Sprintf("mpi %%T: lt_hwctr %.2f vs lt_bb %.2f", hw, bb), hw > 1.5*bb
		}},
		{"§V-C4", "LULESH-2's NUMA late senders invisible to counting clocks", func(s map[string]*Study) (string, bool) {
			tsc := s["LULESH-2"].MeanProfile(core.ModeTSC).PercentOfTime(scalasca.MLateSender)
			st := s["LULESH-2"].MeanProfile(core.ModeStmt).PercentOfTime(scalasca.MLateSender)
			return fmt.Sprintf("latesender %%T: tsc %.2f vs lt_stmt %.2f", tsc, st), tsc > 0.05 && st < tsc/4
		}},
		{"§V-C5", "TeaLeaf-4's all-to-all waits: tsc and lt_hwctr see them, lt_bb/lt_stmt do not", func(s map[string]*Study) (string, bool) {
			tsc := s["TeaLeaf-4"].MeanProfile(core.ModeTSC).PercentOfTime(scalasca.MWaitNxN)
			hw := s["TeaLeaf-4"].MeanProfile(core.ModeHwctr).PercentOfTime(scalasca.MWaitNxN)
			st := s["TeaLeaf-4"].MeanProfile(core.ModeStmt).PercentOfTime(scalasca.MWaitNxN)
			return fmt.Sprintf("wait_nxn %%T: tsc %.2f, lt_hwctr %.2f, lt_stmt %.2f", tsc, hw, st),
				tsc > 0.1 && hw > st
		}},
	}
}

// groupShare returns the %M of the mode's mean profile in metric that
// the call paths containing any fragment carry, 0 without a profile.
func groupShare(st *Study, mode core.Mode, metric string, frags ...string) float64 {
	p := st.MeanProfile(mode)
	if p == nil {
		return 0
	}
	pcts := p.PathPercents(metric)
	return sumMatching(pcts, sortedKeys(pcts), frags)
}
