package determinism_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/determinism"
)

func TestZoneFixture(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "testdata/zone", "repro/internal/sim/fixture")
}

// TestOutOfZone: the same construct classes outside the deterministic
// zone produce nothing — AppliesTo gates the analyzer entirely.
func TestOutOfZone(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "testdata/outofzone", "repro/internal/analysis/fixture")
}

func TestInZone(t *testing.T) {
	for _, p := range []string{
		"repro/internal/sim",
		"repro/internal/spec/refcheck",
		"repro/internal/totem",
		"repro/internal/experiments",
	} {
		if !determinism.InZone(p) {
			t.Errorf("InZone(%q) = false, want true", p)
		}
	}
	for _, p := range []string{
		"repro", "repro/internal/obs",
		"repro/cmd/evschaos", "repro/internal/simulator",
	} {
		if determinism.InZone(p) {
			t.Errorf("InZone(%q) = true, want false", p)
		}
	}
}
