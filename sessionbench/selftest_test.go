package main

import (
	"bytes"
	"testing"
)

// TestSelftest runs the benchmark's self-test: every workload at a reduced
// task count, timed and traced, and the perturbed-tree check.
func TestSelftest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var out bytes.Buffer
	if err := selftest(&out, "../BENCHMARK.json"); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
}

// TestQuietSessions checks which sessions a run times: all of them when
// the host stayed quiet, the quiet ones when more than half were, and
// otherwise the least-stolen half; a session whose steal is unknown
// counts as quiet.
func TestQuietSessions(t *testing.T) {
	mk := func(steals ...float64) []*session {
		var out []*session
		for _, v := range steals {
			out = append(out, &session{steal: v, stealKnown: v >= 0})
		}
		return out
	}
	for _, tc := range []struct {
		steals []float64
		want   []float64
	}{
		{[]float64{0.01, 0, 0.02, -1}, []float64{0.01, 0, 0.02, -1}},
		{[]float64{0.01, 0.09, 0, 0.005, 0.03}, []float64{0, 0.005, 0.01}},
		{[]float64{0.01, 0.09, 0.2, 0.05}, []float64{0.01, 0.05}},
		{[]float64{0.2, 0.1, 0.3}, []float64{0.1, 0.2}},
	} {
		got, note := quietSessions(mk(tc.steals...))
		var steals []float64
		for _, s := range got {
			if !s.stealKnown {
				steals = append(steals, -1)
			} else {
				steals = append(steals, s.steal)
			}
		}
		if len(steals) != len(tc.want) {
			t.Fatalf("steals %v: timed %v, want %v", tc.steals, steals, tc.want)
		}
		for i := range steals {
			if steals[i] != tc.want[i] {
				t.Fatalf("steals %v: timed %v, want %v", tc.steals, steals, tc.want)
			}
		}
		if (note == "") != (len(tc.want) == len(tc.steals)) {
			t.Errorf("steals %v: note %q", tc.steals, note)
		}
	}
}
