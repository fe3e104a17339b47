package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/scalasca"
)

// modeLabel renders a mode the way the paper prints it.
func modeLabel(m core.Mode) string { return string(m) }

// TableI writes the measurement-overhead table (paper Table I): overhead
// percent per clock for MiniFE-2 (init/solve/total), LULESH-1 and
// TeaLeaf-2.
func TableI(w io.Writer, minife2, lulesh1, tealeaf2 *Study) {
	fmt.Fprintln(w, "TABLE I: Measurement overheads for selected configurations and the various clocks.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\tMiniFE-2\t\t\tLULESH-1\tTeaLeaf-2")
	fmt.Fprintln(tw, "Mode\tinit\tsolve\ttotal\t\t")
	for _, m := range core.AllModes() {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
			modeLabel(m),
			minife2.PhaseOverhead(m, "init"),
			minife2.PhaseOverhead(m, "solve"),
			minife2.Overhead(m),
			lulesh1.Overhead(m),
			tealeaf2.Overhead(m))
	}
	tw.Flush()
}

// TableII writes the TeaLeaf run-time table (paper Table II): reference
// and tsc-instrumented times plus overhead for the four configurations.
func TableII(w io.Writer, teas []*Study) {
	fmt.Fprintln(w, "TABLE II: Run times and tsc measurement overheads for TeaLeaf.")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Name\tRanks\tRef/s\ttsc/s\toverhead/%")
	for _, st := range teas {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.1f\n",
			st.Spec.Name, st.Spec.Ranks, st.RefWall(), st.ModeWall(core.ModeTSC), st.Overhead(core.ModeTSC))
	}
	tw.Flush()
}

// Fig2 writes the MiniFE-2 matrix-structure-generation run times (paper
// Fig. 2): each repetition and the mean, per measurement method, with the
// uninstrumented reference first.
func Fig2(w io.Writer, minife2 *Study) {
	fmt.Fprintln(w, "FIG 2: MiniFE-2 run time for matrix structure generation (seconds per repetition).")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	row := func(label string, rs []*RunResult) {
		fmt.Fprintf(tw, "%s", label)
		var sum float64
		for _, r := range rs {
			fmt.Fprintf(tw, "\t%.3f", r.Phases["structgen"])
			sum += r.Phases["structgen"]
		}
		fmt.Fprintf(tw, "\tmean %.3f\n", sum/float64(len(rs)))
	}
	row("reference", minife2.Refs)
	for _, m := range core.AllModes() {
		row(modeLabel(m), minife2.Runs[m])
	}
	tw.Flush()
}

// FigJaccard writes the Jaccard similarity of each logical measurement to
// tsc for a set of studies (paper Fig. 3 for MiniFE/LULESH, Fig. 4 for
// TeaLeaf), plus the minimal repetition-to-repetition scores for tsc and
// lt_hwctr.
func FigJaccard(w io.Writer, title string, studies []*Study) {
	fmt.Fprintf(w, "%s: J(M,C) of each logical measurement vs tsc.\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Mode")
	for _, st := range studies {
		fmt.Fprintf(tw, "\t%s", st.Spec.Name)
	}
	fmt.Fprintln(tw)
	for _, m := range core.LogicalModes() {
		fmt.Fprintf(tw, "%s", modeLabel(m))
		for _, st := range studies {
			fmt.Fprintf(tw, "\t%.3f", st.JaccardVsTsc(m))
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "min rep-to-rep tsc")
	for _, st := range studies {
		fmt.Fprintf(tw, "\t%.3f", st.MinRepJaccard(core.ModeTSC))
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "min rep-to-rep lt_hwctr")
	for _, st := range studies {
		fmt.Fprintf(tw, "\t%.3f", st.MinRepJaccard(core.ModeHwctr))
	}
	fmt.Fprintln(tw)
	tw.Flush()
}

// pathBreakdown prints, for each mode, the share of selected call paths in
// a metric (%M) — the stacked-bar content of Figs. 5, 6 and 9.
func pathBreakdown(w io.Writer, st *Study, metric string, groups map[string][]string) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)
	fmt.Fprint(tw, "Mode")
	for _, g := range names {
		fmt.Fprintf(tw, "\t%s", g)
	}
	fmt.Fprintln(tw, "\tother\tJ_C")
	for _, m := range core.AllModes() {
		p := st.MeanProfile(m)
		if p == nil {
			continue
		}
		pcts := p.PathPercents(metric)
		paths := make([]string, 0, len(pcts))
		for path := range pcts {
			paths = append(paths, path)
		}
		sort.Strings(paths) // sum in a fixed order: float addition is not associative
		fmt.Fprintf(tw, "%s", modeLabel(m))
		var covered float64
		for _, g := range names {
			var v float64
			for _, path := range paths {
				for _, frag := range groups[g] {
					if strings.Contains(path, frag) {
						v += pcts[path]
						break
					}
				}
			}
			covered += v
			fmt.Fprintf(tw, "\t%.1f", v)
		}
		fmt.Fprintf(tw, "\t%.1f\t%.3f\n", 100-covered, st.JaccardCallMap(m, metric))
	}
	tw.Flush()
}

// Fig5 writes the contributions of MiniFE's call paths to computation
// time (%M) for MiniFE-1 (a) and MiniFE-2 (b).
func Fig5(w io.Writer, minife1, minife2 *Study) {
	groups := map[string][]string{
		"struct_gen": {"generate_matrix_structure", "operator()"},
		"assemble":   {"assemble_FE_matrix"},
		"local_mat":  {"make_local_matrix"},
		"matvec":     {"matvec"},
		"dot":        {"dot"},
		"waxpby":     {"waxpby"},
	}
	fmt.Fprintln(w, "FIG 5a: MiniFE-1 contributions of call paths to comp (%M).")
	pathBreakdown(w, minife1, scalasca.MComp, groups)
	fmt.Fprintln(w, "FIG 5b: MiniFE-2 contributions of call paths to comp (%M).")
	pathBreakdown(w, minife2, scalasca.MComp, groups)
}

// Fig6 writes the contributions of MiniFE's call paths to the all-to-all
// wait time (%M).
func Fig6(w io.Writer, minife1, minife2 *Study) {
	groups := map[string][]string{
		"struct_gen": {"generate_matrix_structure"},
		"local_mat":  {"make_local_matrix"},
		"dot":        {"dot"},
		"timeinc":    {"TimeIncrement"},
	}
	fmt.Fprintln(w, "FIG 6a: MiniFE-1 contributions of call paths to wait_nxn (%M).")
	pathBreakdown(w, minife1, scalasca.MWaitNxN, groups)
	fmt.Fprintln(w, "FIG 6b: MiniFE-2 contributions of call paths to wait_nxn (%M).")
	pathBreakdown(w, minife2, scalasca.MWaitNxN, groups)
}

// paradigms writes the %T split into computation, OpenMP, MPI and idle
// threads per mode (paper Figs. 7 and 8).
func paradigms(w io.Writer, st *Study) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Mode\tcomp\tomp\tmpi\tidle_threads")
	for _, m := range core.AllModes() {
		p := st.MeanProfile(m)
		if p == nil {
			continue
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.1f\n",
			modeLabel(m),
			p.PercentOfTime(scalasca.MComp),
			p.PercentOfTime(scalasca.MOmp),
			p.PercentOfTime(scalasca.MMPI),
			p.PercentOfTime(scalasca.MIdleThreads))
	}
	tw.Flush()
}

// Fig7 writes the MiniFE-2 paradigm breakdown (%T).
func Fig7(w io.Writer, minife2 *Study) {
	fmt.Fprintln(w, "FIG 7: MiniFE-2 time in computation, OpenMP, MPI and idle threads (pct of total time).")
	paradigms(w, minife2)
}

// Fig8 writes the LULESH-1 paradigm breakdown (%T).
func Fig8(w io.Writer, lulesh1 *Study) {
	fmt.Fprintln(w, "FIG 8: LULESH-1 time in computation, OpenMP, MPI and idle threads (pct of total time).")
	paradigms(w, lulesh1)
}

// Fig9 writes LULESH-1's call-path contributions to computation (a) and
// to the delay costs of MPI all-to-all wait states (b).
func Fig9(w io.Writer, lulesh1 *Study) {
	groups := map[string][]string{
		"CalcForceForNodes": {"CalcForceForNodes"},
		"material_update":   {"ApplyMaterialPropertiesForElems", "EvalEOSForElems"},
		"kinematics":        {"CalcKinematicsForElems", "CalcQForElems"},
		"nodal_update":      {"CalcAccelAndVelForNodes", "CalcPositionForNodes"},
		"timeincrement":     {"TimeIncrement"},
	}
	fmt.Fprintln(w, "FIG 9a: LULESH-1 contributions of call paths to comp (%M).")
	pathBreakdown(w, lulesh1, scalasca.MComp, groups)
	fmt.Fprintln(w, "FIG 9b: LULESH-1 contributions of call paths to delay costs for MPI all-to-all wait states (%M).")
	pathBreakdown(w, lulesh1, scalasca.MDelayNxN, groups)
}

// A Section is one table or figure of the report: the studies it reads,
// named in render order, and how it renders them from those studies.
type Section struct {
	Name   string // table1, table2, fig2 … fig9, hybrid or critpath
	Specs  []string
	Render func(w io.Writer, sts []*Study)
}

// Sections lists the report's sections in FullReport's order.
func Sections() []Section {
	teaLeafs := []string{"TeaLeaf-1", "TeaLeaf-2", "TeaLeaf-3", "TeaLeaf-4"}
	return []Section{
		{"table1", []string{"MiniFE-2", "LULESH-1", "TeaLeaf-2"}, func(w io.Writer, s []*Study) { TableI(w, s[0], s[1], s[2]) }},
		{"table2", teaLeafs, TableII},
		{"fig2", []string{"MiniFE-2"}, func(w io.Writer, s []*Study) { Fig2(w, s[0]) }},
		{"fig3", []string{"MiniFE-1", "MiniFE-2", "LULESH-1", "LULESH-2"}, func(w io.Writer, s []*Study) {
			FigJaccard(w, "FIG 3 (MiniFE, LULESH)", s)
		}},
		{"fig4", teaLeafs, func(w io.Writer, s []*Study) { FigJaccard(w, "FIG 4 (TeaLeaf)", s) }},
		{"fig5", []string{"MiniFE-1", "MiniFE-2"}, func(w io.Writer, s []*Study) { Fig5(w, s[0], s[1]) }},
		{"fig6", []string{"MiniFE-1", "MiniFE-2"}, func(w io.Writer, s []*Study) { Fig6(w, s[0], s[1]) }},
		{"fig7", []string{"MiniFE-2"}, func(w io.Writer, s []*Study) { Fig7(w, s[0]) }},
		{"fig8", []string{"LULESH-1"}, func(w io.Writer, s []*Study) { Fig8(w, s[0]) }},
		{"fig9", []string{"LULESH-1"}, func(w io.Writer, s []*Study) { Fig9(w, s[0]) }},
		{"hybrid", []string{"MiniFE-1", "LULESH-2"}, func(w io.Writer, s []*Study) { HybridSection(w, s[0], s[1]) }},
		{"critpath", []string{critPathSpec}, func(w io.Writer, s []*Study) { CritPathSection(w, s[0]) }},
	}
}

// FullReport runs every study and renders each section of the report
// in order, one blank line before each.  It prints a "running" line per
// study, then runs all of them as one grid that keeps no trace: the
// tables and figures read profiles, walls and phases, and the critical
// path of LULESH-1's tsc repetition 0 is derived on the worker that
// holds that run.  If that repetition is dropped, the critical-path
// section is left out.
func FullReport(w io.Writer, opts StudyOptions, specOpts Options) error {
	studies, err := reportStudies(w, Specs(specOpts), opts)
	if err != nil {
		return err
	}
	for _, sec := range Sections() {
		sts := make([]*Study, len(sec.Specs))
		for i, name := range sec.Specs {
			sts[i] = studies[name]
		}
		fmt.Fprintln(w)
		sec.Render(w, sts)
	}
	return nil
}

// critPathSpec names the study whose tsc repetition 0 gives the report's
// critical-path section.
const critPathSpec = "LULESH-1"

// reportStudies prints FullReport's "running" line per spec, then runs
// the specs' studies as one grid, keyed by spec name.
func reportStudies(w io.Writer, specs []Spec, opts StudyOptions) (map[string]*Study, error) {
	grid := make([]gridStudy, len(specs))
	for i, spec := range specs {
		fmt.Fprintf(w, "running %s (%s)...\n", spec.Name, spec.Description)
		grid[i] = gridStudy{spec: spec, opts: opts, critPath: spec.Name == critPathSpec}
	}
	sts, err := firstErr(runGrid(grid))
	if err != nil {
		return nil, err
	}
	studies := make(map[string]*Study, len(sts))
	for _, st := range sts {
		studies[st.Spec.Name] = st
	}
	return studies, nil
}

// CritPathSection prints the critical-path profile of a study's first
// tsc run — the Scalasca-style view of what actually bounds the run.  It
// prints the path the run's pool worker derived; a run that carries none
// has it derived from its trace here, and a run with neither prints
// nothing.
func CritPathSection(w io.Writer, st *Study) {
	runs := st.Runs[core.ModeTSC]
	if len(runs) == 0 {
		return
	}
	r := runs[0]
	cp, err := r.critPath, r.critPathErr
	if cp == nil && err == nil {
		if r.Trace == nil {
			return
		}
		cp, err = scalasca.CriticalPathAnalysis(r.Trace)
	}
	if err != nil {
		fmt.Fprintf(w, "critical path: %v\n", err)
		return
	}
	fmt.Fprintf(w, "CRITICAL PATH (%s, tsc): %.4g ticks over %d segments\n",
		st.Spec.Name, cp.Total, cp.Segments)
	for _, e := range cp.TopPaths(8) {
		fmt.Fprintf(w, "  %6.2f%%  %s\n", e.Percent, e.Path)
	}
}

// HybridSection demonstrates the combined physical+logical analysis the
// paper proposes in §VI on the two instructive configurations: MiniFE-1's
// waits are intrinsic (artificial imbalance), LULESH-2's are extrinsic
// (uneven NUMA occupancy).
func HybridSection(w io.Writer, minife1, lulesh2 *Study) {
	fmt.Fprintln(w, "HYBRID (paper §VI future work): intrinsic vs extrinsic wait states.")
	for _, st := range []*Study{minife1, lulesh2} {
		phys := st.MeanProfile(core.ModeTSC)
		logi := st.MeanProfile(core.ModeStmt)
		if phys == nil || logi == nil {
			continue
		}
		rep := hybrid.Compare(phys, logi, 0.2)
		fmt.Fprintf(w, "\n%s:\n", st.Spec.Name)
		rep.Render(w, 6)
	}
}
