package model

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewProcessSetSortsAndDedups(t *testing.T) {
	s := NewProcessSet("c", "a", "b", "a", "c")
	want := []ProcessID{"a", "b", "c"}
	if got := s.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Members() = %v, want %v", got, want)
	}
	if s.Size() != 3 {
		t.Fatalf("Size() = %d, want 3", s.Size())
	}
}

func TestProcessSetZeroValue(t *testing.T) {
	var s ProcessSet
	if !s.IsEmpty() {
		t.Fatal("zero ProcessSet should be empty")
	}
	if s.Contains("a") {
		t.Fatal("zero ProcessSet should contain nothing")
	}
	if _, ok := s.Min(); ok {
		t.Fatal("zero ProcessSet should have no minimum")
	}
	if s.String() != "{}" {
		t.Fatalf("String() = %q, want {}", s.String())
	}
}

func TestProcessSetContains(t *testing.T) {
	s := NewProcessSet("p", "q", "r")
	for _, id := range []ProcessID{"p", "q", "r"} {
		if !s.Contains(id) {
			t.Errorf("Contains(%q) = false, want true", id)
		}
	}
	for _, id := range []ProcessID{"a", "s", ""} {
		if s.Contains(id) {
			t.Errorf("Contains(%q) = true, want false", id)
		}
	}
}

func TestProcessSetMin(t *testing.T) {
	s := NewProcessSet("q", "p", "t")
	min, ok := s.Min()
	if !ok || min != "p" {
		t.Fatalf("Min() = %q,%v, want p,true", min, ok)
	}
}

func TestProcessSetNextWrapsAndDoesNotAllocate(t *testing.T) {
	s := NewProcessSet("q", "p", "t")
	for id, want := range map[ProcessID]ProcessID{"p": "q", "q": "t", "t": "p"} {
		if next, ok := s.Next(id); !ok || next != want {
			t.Errorf("Next(%q) = %q,%v, want %q,true", id, next, ok, want)
		}
	}
	if next, ok := s.Next("r"); ok || next != "" {
		t.Errorf("Next of a non-member = %q,%v, want \"\",false", next, ok)
	}
	if next, ok := NewProcessSet("p").Next("p"); !ok || next != "p" {
		t.Errorf("singleton Next = %q,%v, want p,true", next, ok)
	}
	// The token handler resolves the ring successor per token at every
	// process: it must not copy the member list.
	if n := testing.AllocsPerRun(100, func() { s.Next("t") }); n != 0 {
		t.Errorf("Next allocates %v per call, want 0", n)
	}
}

func TestProcessSetOperations(t *testing.T) {
	pqr := NewProcessSet("p", "q", "r")
	qrs := NewProcessSet("q", "r", "s")

	tests := []struct {
		name string
		got  ProcessSet
		want ProcessSet
	}{
		{"union", pqr.Union(qrs), NewProcessSet("p", "q", "r", "s")},
		{"intersect", pqr.Intersect(qrs), NewProcessSet("q", "r")},
		{"subtract", pqr.Subtract(qrs), NewProcessSet("p")},
		{"add new", pqr.Add("z"), NewProcessSet("p", "q", "r", "z")},
		{"add existing", pqr.Add("q"), pqr},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !tt.got.Equal(tt.want) {
				t.Fatalf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestProcessSetRelations(t *testing.T) {
	pq := NewProcessSet("p", "q")
	pqr := NewProcessSet("p", "q", "r")
	st := NewProcessSet("s", "t")

	if !pq.IsSubsetOf(pqr) {
		t.Error("pq should be a subset of pqr")
	}
	if pqr.IsSubsetOf(pq) {
		t.Error("pqr should not be a subset of pq")
	}
	if !pq.Intersects(pqr) {
		t.Error("pq should intersect pqr")
	}
	if pq.Intersects(st) {
		t.Error("pq should not intersect st")
	}
	if pq.Equal(pqr) {
		t.Error("pq should not equal pqr")
	}
}

func TestProcessSetMembersIsACopy(t *testing.T) {
	s := NewProcessSet("p", "q")
	m := s.Members()
	m[0] = "zzz"
	if !s.Contains("p") {
		t.Fatal("mutating Members() result must not affect the set")
	}
}

func TestProcessSetViewDoesNotCopy(t *testing.T) {
	s := NewProcessSet("q", "p", "t")
	if got := s.View(); !reflect.DeepEqual(got, s.Members()) {
		t.Fatalf("View() = %v, want %v", got, s.Members())
	}
	// The specification checker ranges over a membership per delivery.
	n := testing.AllocsPerRun(100, func() {
		for _, id := range s.View() {
			_ = id
		}
	})
	if n != 0 {
		t.Errorf("ranging over View allocates %v per call, want 0", n)
	}
}

func TestProcessSetString(t *testing.T) {
	s := NewProcessSet("q", "p")
	if got := s.String(); got != "{p,q}" {
		t.Fatalf("String() = %q, want {p,q}", got)
	}
}

// genSet produces a random small process set for property tests.
func genSet(r *rand.Rand) ProcessSet {
	n := r.Intn(6)
	ids := make([]ProcessID, n)
	for i := range ids {
		ids[i] = ProcessID('a' + rune(r.Intn(8)))
	}
	return NewProcessSet(ids...)
}

func TestProcessSetAlgebraProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}

	t.Run("union commutative", func(t *testing.T) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a, b := genSet(r), genSet(r)
			return a.Union(b).Equal(b.Union(a))
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})

	t.Run("intersect subset of both", func(t *testing.T) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a, b := genSet(r), genSet(r)
			i := a.Intersect(b)
			return i.IsSubsetOf(a) && i.IsSubsetOf(b)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})

	t.Run("subtract disjoint from subtrahend", func(t *testing.T) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a, b := genSet(r), genSet(r)
			return !a.Subtract(b).Intersects(b)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})

	t.Run("partition identity", func(t *testing.T) {
		// (a∩b) ∪ (a\b) == a
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a, b := genSet(r), genSet(r)
			return a.Intersect(b).Union(a.Subtract(b)).Equal(a)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})

	t.Run("members sorted unique", func(t *testing.T) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a := genSet(r)
			m := a.Members()
			for i := 1; i < len(m); i++ {
				if m[i-1] >= m[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
}

func TestMessageID(t *testing.T) {
	var zero MessageID
	if !zero.IsZero() {
		t.Error("zero MessageID should report IsZero")
	}
	m := MessageID{Sender: "p", SenderSeq: 3}
	if m.IsZero() {
		t.Error("non-zero MessageID should not report IsZero")
	}
	if m.String() != "p:3" {
		t.Errorf("String() = %q, want p:3", m.String())
	}
}

func TestServiceString(t *testing.T) {
	if Agreed.String() != "agreed" || Safe.String() != "safe" {
		t.Errorf("unexpected service names: %v %v", Agreed, Safe)
	}
	if Service(99).String() != "service(99)" {
		t.Errorf("unexpected fallback: %v", Service(99))
	}
}
