package main

import (
	"strings"
	"testing"
)

// The quick report must print every paper reproduction and characterisation
// section, and none of the throughput/latency/checker-scaling sections that
// benchmark/ measures on the wall clock.
func TestQuickReport(t *testing.T) {
	if testing.Short() {
		t.Skip("report generation")
	}
	var out strings.Builder
	run(&out, 1, true)
	report := out.String()
	for _, header := range []string{"F1-F5 ", "F6 ", "F7 ", "T2 ", "T3 ", "P1 "} {
		if !strings.Contains(report, "\n"+header) {
			t.Errorf("report lacks the %q section", header)
		}
	}
	for _, header := range []string{"T1 ", "T1b", "S1 "} {
		if strings.Contains(report, "\n"+header) {
			t.Errorf("report still has a %q section", header)
		}
	}
}
