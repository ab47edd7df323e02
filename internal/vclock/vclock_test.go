package vclock

import (
	"testing"

	"repro/internal/model"
)

func TestUniverseDeterministicIndexing(t *testing.T) {
	u := NewUniverse([]model.ProcessID{"q", "p", "r", "p", "q"})
	if u.Len() != 3 {
		t.Fatalf("Len = %d, want 3 after dedup", u.Len())
	}
	for i, want := range []model.ProcessID{"p", "q", "r"} {
		if u.ID(i) != want || u.Index(want) != i {
			t.Fatalf("universe order wrong at %d: ID=%s Index(%s)=%d", i, u.ID(i), want, u.Index(want))
		}
	}
	if u.Index("z") != -1 {
		t.Fatal("unknown process must index to -1")
	}
}

func TestDenseMergeCovers(t *testing.T) {
	u := NewUniverse([]model.ProcessID{"p", "q", "r"})
	a, b := u.NewDense(), u.NewDense()
	a[0], a[1] = 3, 1
	b[1], b[2] = 5, 2
	a.Merge(b)
	if a[0] != 3 || a[1] != 5 || a[2] != 2 {
		t.Fatalf("Merge = %v, want [3 5 2]", a)
	}
	if !a.Covers(b) || b.Covers(a) {
		t.Fatal("merged timestamp must cover both inputs, not vice versa")
	}
	if !b.HappenedBefore(a) || a.HappenedBefore(a) {
		t.Fatal("HappenedBefore must be strict")
	}
}
