package lint_test

import (
	"bytes"
	"fmt"
	"go/token"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/detlint"
)

// TestUnusedAllow checks the meta-analyzer both ways on the stale
// corpus: the live wallclock directive suppresses its finding and is
// not reported; the stale maporder directive suppresses nothing and
// is.
func TestUnusedAllow(t *testing.T) {
	m, err := lint.LoadModule("testdata/stale")
	if err != nil {
		t.Fatal(err)
	}
	suite := append(detlint.Analyzers(), lint.UnusedAllow)
	diags, err := lint.RunModuleAnalyzers(m, suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly the stale-directive diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "unusedallow" || d.Pos.Line != 10 {
		t.Errorf("got %s at line %d, want unusedallow at line 10: %s", d.Analyzer, d.Pos.Line, d)
	}
}

// TestUnusedAllowReportsTypo: a directive naming no analyzer suppresses
// nothing, so it is reported like a stale one, and the finding it was
// meant to cover still fires.
func TestUnusedAllowReportsTypo(t *testing.T) {
	m, err := lint.LoadModule("testdata/typo")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunModuleAnalyzers(m, append(detlint.Analyzers(), lint.UnusedAllow))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d %s %s", d.Pos.Line, d.Analyzer, d.Message))
	}
	want := []string{
		"8 unusedallow //detlint:allow wallclok suppresses no diagnostic; remove the stale directive",
		"8 wallclock time.Now reads the wall clock; inject a clock function (see obs.NewProgress) so simulation stays deterministic",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestMergedSortAndJSONStability: the merged stream sorts by
// (analyzer, file, line, column, message) and serialises to identical
// bytes across runs.
func TestMergedSortAndJSONStability(t *testing.T) {
	mk := func(an, file string, line int, msg string) lint.Diagnostic {
		return lint.Diagnostic{Analyzer: an, Pos: token.Position{Filename: file, Line: line}, Message: msg}
	}
	diags := []lint.Diagnostic{
		mk("wallclock", "b.go", 3, "zzz"),
		mk("maporder", "b.go", 9, "aaa"),
		mk("wallclock", "a.go", 7, "mmm"),
		mk("maporder", "b.go", 9, "ZZZ"),
	}
	lint.SortDiagnostics(diags)
	want := []string{"maporder|b.go|9|ZZZ", "maporder|b.go|9|aaa", "wallclock|a.go|7|mmm", "wallclock|b.go|3|zzz"}
	for i, d := range diags {
		got := d.Analyzer + "|" + d.Pos.Filename + "|" + itoa(d.Pos.Line) + "|" + d.Message
		if got != want[i] {
			t.Errorf("sorted[%d] = %s, want %s", i, got, want[i])
		}
	}

	var b1, b2 bytes.Buffer
	if err := lint.WriteJSON(&b1, diags); err != nil {
		t.Fatal(err)
	}
	if err := lint.WriteJSON(&b2, diags); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("WriteJSON is not byte-stable across calls")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
