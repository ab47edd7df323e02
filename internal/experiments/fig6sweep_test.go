package experiments

import (
	"testing"

	evs "repro"
)

// TestFig6Sweep runs the Figure 6 scenario across many seeds (p, q, r, s
// and t are p01-p05). Every run must be specification-clean, end in the
// paper's final configuration, and leave s and t outside {p,q,r}'s
// transitional configurations; the exact single-step merge shape
// (transitional {q,r} directly into {q,r,s,t}) reproduces in the vast
// majority of runs, but a membership race can legally split the merge into
// several rounds (e.g. q meets s and t before r), which is churn, not a
// violation.
func TestFig6Sweep(t *testing.T) {
	exact := 0
	const seeds = 28
	for seed := int64(1); seed <= seeds; seed++ {
		res := Figure6(seed)
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: violations %v", seed, res.Violations)
		}
		if !res.PIsolated {
			t.Fatalf("seed %d: p not isolated via singleton transitional: %v", seed, res.ConfigSeqs["p01"])
		}
		if !res.STOutside {
			t.Fatalf("seed %d: s or t installed a transitional configuration of {p,q,r}: %v %v",
				seed, res.ConfigSeqs["p04"], res.ConfigSeqs["p05"])
		}
		// Every run must converge on the merged configuration.
		for _, id := range []evs.ProcessID{"p02", "p03", "p04", "p05"} {
			seq := res.ConfigSeqs[id]
			if len(seq) == 0 {
				t.Fatalf("seed %d: %s installed nothing", seed, id)
			}
			last := seq[len(seq)-1]
			if !last.ID.IsRegular() || !last.Members.Equal(evs.NewProcessSet("p02", "p03", "p04", "p05")) {
				t.Fatalf("seed %d: %s final configuration %s", seed, id, last)
			}
		}
		if res.QRTransitional {
			exact++
		}
	}
	if exact*10 < seeds*9 {
		t.Fatalf("exact single-step merges %d/%d, want >= 90%%", exact, seeds)
	}
}
