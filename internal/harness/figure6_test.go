package harness

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/model"
)

// TestFigure6PartitionAndMerge checks the paper's Figure 6 at seed 6
// configuration by configuration: a regular configuration {p,q,r}
// partitions; p becomes isolated while q and r merge with {s,t}. q and r
// must deliver two configuration changes, one initiating the transitional
// configuration {q,r} and one installing the new regular configuration
// {q,r,s,t}. The scenario is the corpus file figure6.json, whose p01-p05
// are p, q, r, s and t.
func TestFigure6PartitionAndMerge(t *testing.T) {
	res := experiments.Figure6(6)
	if len(res.Violations) != 0 {
		t.Fatalf("violations %v", res.Violations)
	}
	p, q, r, s, tt := model.ProcessID("p01"), model.ProcessID("p02"), model.ProcessID("p03"), model.ProcessID("p04"), model.ProcessID("p05")

	// q's configuration sequence must end with, in order: the old
	// regular configuration {p,q,r}, the transitional {q,r}, and the
	// new regular {q,r,s,t}.
	for _, id := range []model.ProcessID{q, r} {
		seq := res.ConfigSeqs[id]
		if len(seq) < 3 {
			t.Fatalf("%s installed %v, want old regular, transitional, new regular", id, seq)
		}
		last, trans, old := seq[len(seq)-1], seq[len(seq)-2], seq[len(seq)-3]
		if !old.Members.Equal(model.NewProcessSet(p, q, r)) || !old.ID.IsRegular() {
			t.Fatalf("%s old configuration %v, want regular {p,q,r} (sequence %v)", id, old, seq)
		}
		if !trans.ID.IsTransitional() || !trans.Members.Equal(model.NewProcessSet(q, r)) {
			t.Fatalf("%s transitional configuration %v, want transitional {q,r}", id, trans)
		}
		if trans.ID.Prev() != old.ID {
			t.Fatalf("%s transitional %v does not follow old regular %v", id, trans, old)
		}
		if !last.ID.IsRegular() || !last.Members.Equal(model.NewProcessSet(q, r, s, tt)) {
			t.Fatalf("%s final configuration %v, want regular {q,r,s,t}", id, last)
		}
	}

	// p ends alone: transitional {p} then regular {p}.
	pseq := res.ConfigSeqs[p]
	if len(pseq) < 3 {
		t.Fatalf("p installed %v", pseq)
	}
	pl, pt := pseq[len(pseq)-1], pseq[len(pseq)-2]
	if !pl.Members.Equal(model.NewProcessSet(p)) || !pl.ID.IsRegular() {
		t.Fatalf("p's final configuration %v, want regular {p}", pl)
	}
	if !pt.ID.IsTransitional() || !pt.Members.Equal(model.NewProcessSet(p)) {
		t.Fatalf("p's transitional configuration %v, want transitional {p}", pt)
	}

	// s and t join q,r's new configuration but never see a transitional
	// configuration rooted in {p,q,r}.
	for _, id := range []model.ProcessID{s, tt} {
		for _, cf := range res.ConfigSeqs[id] {
			if cf.ID.IsTransitional() && cf.Members.Contains(q) {
				t.Fatalf("%s installed transitional %v of a configuration it was never in", id, cf)
			}
		}
	}
	if !res.QRTransitional || !res.PIsolated || !res.STOutside {
		t.Fatalf("Figure6 summary QRTransitional=%v PIsolated=%v STOutside=%v disagrees with the sequences above",
			res.QRTransitional, res.PIsolated, res.STOutside)
	}
}
