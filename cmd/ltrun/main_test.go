package main

import (
	"strings"
	"testing"
)

// TestCheckOutputs: an uninstrumented reference run records no trace and
// computes no profile, so asking it for either is an error that names
// the flag, raised before anything is simulated.
func TestCheckOutputs(t *testing.T) {
	for _, tc := range []struct {
		mode, trace, profile string
		want                 string // substring of the error; "" = accepted
	}{
		{"lt_stmt", "", "", ""},
		{"lt_stmt", "out.ltrc", "out.json", ""},
		{"tsc", "out.ltrc", "", ""},
		{"", "", "", ""},
		{"", "out.ltrc", "", "-trace requires an instrumented run"},
		{"", "", "out.json", "-profile requires an instrumented run"},
		{"", "out.ltrc", "out.json", "-trace requires an instrumented run"},
	} {
		err := checkOutputs(tc.mode, tc.trace, tc.profile)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("mode %q -trace %q -profile %q: rejected: %v", tc.mode, tc.trace, tc.profile, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("mode %q -trace %q -profile %q: got %v, want an error containing %q",
				tc.mode, tc.trace, tc.profile, err, tc.want)
		case err != nil && strings.Contains(err.Error(), "\n"):
			t.Errorf("error spans several lines: %q", err)
		}
	}
}
