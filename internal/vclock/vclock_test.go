package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func TestVCBasics(t *testing.T) {
	v := New()
	v.Tick("p")
	v.Tick("p")
	v.Tick("q")
	if v.Get("p") != 2 || v.Get("q") != 1 || v.Get("r") != 0 {
		t.Fatalf("unexpected components: %v", v)
	}
	if got := v.String(); got != "[p:2 q:1]" {
		t.Fatalf("String() = %q", got)
	}
}

func TestVCClone(t *testing.T) {
	v := New().Tick("p")
	w := v.Clone()
	w.Tick("p")
	if v.Get("p") != 1 || w.Get("p") != 2 {
		t.Fatal("Clone must be independent")
	}
}

func TestVCCompare(t *testing.T) {
	mk := func(p, q uint64) VC {
		v := New()
		v["p"] = p
		v["q"] = q
		return v
	}
	tests := []struct {
		name string
		a, b VC
		want Ordering
	}{
		{"equal", mk(1, 2), mk(1, 2), Equal},
		{"before", mk(1, 2), mk(1, 3), Before},
		{"after", mk(2, 2), mk(1, 2), After},
		{"concurrent", mk(2, 1), mk(1, 2), Concurrent},
		{"empty vs nonempty", New(), mk(1, 0), Before},
		{"both empty", New(), New(), Equal},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Compare(tt.b); got != tt.want {
				t.Fatalf("Compare = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVCCompareMissingEntryTreatedAsZero(t *testing.T) {
	a := VC{"p": 1, "q": 0}
	b := VC{"p": 1}
	if got := a.Compare(b); got != Equal {
		t.Fatalf("explicit zero should equal missing entry, got %v", got)
	}
}

func TestVCMerge(t *testing.T) {
	a := VC{"p": 3, "q": 1}
	b := VC{"q": 5, "r": 2}
	a.Merge(b)
	want := VC{"p": 3, "q": 5, "r": 2}
	if a.Compare(want) != Equal {
		t.Fatalf("Merge = %v, want %v", a, want)
	}
}

func TestHappenedBefore(t *testing.T) {
	a := New().Tick("p")
	b := a.Clone().Tick("q")
	if !a.HappenedBefore(b) {
		t.Error("a should happen before b")
	}
	if b.HappenedBefore(a) {
		t.Error("b should not happen before a")
	}
	if a.HappenedBefore(a) {
		t.Error("a clock does not happen before itself")
	}
}

func TestOrderingString(t *testing.T) {
	for o, want := range map[Ordering]string{
		Equal: "equal", Before: "before", After: "after", Concurrent: "concurrent",
	} {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
}

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

// TestDenseAgreesWithVC: Dense over a universe behaves exactly like the
// sparse VC on Merge and happened-before, for random timestamps.
func TestDenseAgreesWithVC(t *testing.T) {
	procs := []model.ProcessID{"p", "q", "r", "s"}
	u := NewUniverse(procs)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		a, b := u.NewDense(), u.NewDense()
		for i := range a {
			a[i], b[i] = int32(rng.Intn(4)), int32(rng.Intn(4))
		}
		va, vb := u.ToVC(a), u.ToVC(b)
		if got, want := a.HappenedBefore(b), va.HappenedBefore(vb); got != want {
			t.Fatalf("HappenedBefore(%v,%v): dense=%v sparse=%v", a, b, got, want)
		}
		m := u.NewDense()
		copy(m, a)
		m.Merge(b)
		vm := va.Clone().Merge(vb)
		if u.ToVC(m).Compare(vm) != Equal {
			t.Fatalf("Merge disagrees: dense=%v sparse=%v", u.ToVC(m), vm)
		}
	}
}

// genVC builds a random vector clock over a small universe.
func genVC(r *rand.Rand) VC {
	v := New()
	for _, p := range []model.ProcessID{"p", "q", "r", "s"} {
		if r.Intn(2) == 1 {
			v[p] = uint64(r.Intn(4))
		}
	}
	return v
}

func TestVCProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400}

	t.Run("compare antisymmetry", func(t *testing.T) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a, b := genVC(r), genVC(r)
			x, y := a.Compare(b), b.Compare(a)
			switch x {
			case Equal:
				return y == Equal
			case Before:
				return y == After
			case After:
				return y == Before
			case Concurrent:
				return y == Concurrent
			}
			return false
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})

	t.Run("merge is upper bound", func(t *testing.T) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a, b := genVC(r), genVC(r)
			m := a.Clone().Merge(b)
			ra, rb := a.Compare(m), b.Compare(m)
			return (ra == Before || ra == Equal) && (rb == Before || rb == Equal)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})

	t.Run("tick advances strictly", func(t *testing.T) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a := genVC(r)
			before := a.Clone()
			a.Tick("p")
			return before.HappenedBefore(a)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
}
