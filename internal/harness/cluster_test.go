package harness

import (
	"fmt"
	"testing"
	"time"

	evs "repro"
	"repro/internal/model"
	"repro/internal/node"
)

// payloads extracts delivered payloads.
func payloads(ds []evs.Delivery) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = string(d.Payload)
	}
	return out
}

// requireClean fails the test on any specification violation in g's
// history; settled also checks the properties that need a quiet end.
func requireClean(t *testing.T, g *evs.Group, settled bool) {
	t.Helper()
	if vs := g.Check(settled); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("violation: %v", v)
		}
		t.Fatalf("%d specification violations", len(vs))
	}
}

func TestClusterFormsSingleConfiguration(t *testing.T) {
	c := evs.NewGroup(evs.Options{NumProcesses: 4, Seed: 1})
	c.Run(500 * time.Millisecond)
	ops := c.Operational()
	if len(ops) != 1 {
		t.Fatalf("operational configurations %v, want exactly one", ops)
	}
	for cfg, members := range ops {
		if members.Size() != 4 {
			t.Fatalf("configuration %v has %d operational members, want 4", cfg, members.Size())
		}
	}
	requireClean(t, c, true)
}

func TestSteadyStateAgreedDelivery(t *testing.T) {
	c := evs.NewGroup(evs.Options{NumProcesses: 3, Seed: 2})
	for i := 0; i < 10; i++ {
		c.Send(time.Duration(100+i*5)*time.Millisecond, c.IDs()[i%3], []byte(fmt.Sprintf("m%d", i)), model.Agreed)
	}
	c.Run(time.Second)
	ref := payloads(c.Deliveries(c.IDs()[0]))
	if len(ref) != 10 {
		t.Fatalf("delivered %v, want all 10", ref)
	}
	for _, id := range c.IDs()[1:] {
		if fmt.Sprint(payloads(c.Deliveries(id))) != fmt.Sprint(ref) {
			t.Fatalf("%s delivered %v, want %v", id, payloads(c.Deliveries(id)), ref)
		}
	}
	requireClean(t, c, true)
}

func TestSteadyStateSafeDelivery(t *testing.T) {
	c := evs.NewGroup(evs.Options{NumProcesses: 5, Seed: 3})
	for i := 0; i < 10; i++ {
		c.Send(time.Duration(100+i*7)*time.Millisecond, c.IDs()[i%5], []byte(fmt.Sprintf("s%d", i)), model.Safe)
	}
	c.Run(time.Second)
	for _, id := range c.IDs() {
		if got := len(c.Deliveries(id)); got != 10 {
			t.Fatalf("%s delivered %d safe messages, want 10", id, got)
		}
	}
	requireClean(t, c, true)
}

func TestLossyNetworkStillDeliversConsistently(t *testing.T) {
	c := evs.NewGroup(evs.Options{NumProcesses: 3, Seed: 4, DropRate: 0.05, DupRate: 0.02})
	for i := 0; i < 20; i++ {
		c.Send(time.Duration(150+i*4)*time.Millisecond, c.IDs()[i%3], []byte(fmt.Sprintf("m%d", i)), model.Safe)
	}
	c.Run(2 * time.Second)
	ref := payloads(c.Deliveries(c.IDs()[0]))
	if len(ref) != 20 {
		t.Fatalf("delivered %d, want 20", len(ref))
	}
	for _, id := range c.IDs()[1:] {
		if fmt.Sprint(payloads(c.Deliveries(id))) != fmt.Sprint(ref) {
			t.Fatalf("%s diverged under loss", id)
		}
	}
	requireClean(t, c, true)
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		c := evs.NewGroup(evs.Options{NumProcesses: 3, Seed: 42})
		for i := 0; i < 6; i++ {
			c.Send(time.Duration(100+i*10)*time.Millisecond, c.IDs()[i%3], []byte(fmt.Sprintf("m%d", i)), model.Safe)
		}
		c.Partition(200*time.Millisecond, []model.ProcessID{c.IDs()[0]}, []model.ProcessID{c.IDs()[1], c.IDs()[2]})
		c.Merge(400 * time.Millisecond)
		c.Run(time.Second)
		var out []string
		for _, e := range c.History() {
			out = append(out, e.String())
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at %d:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestBackpressureShedsIntoBackloggedStat bounds a node's send backlog and
// floods one process in a single instant: the excess is rejected with
// ErrBacklog, counted separately from down-process rejections, and the
// accepted prefix still delivers everywhere without violations.
func TestBackpressureShedsIntoBackloggedStat(t *testing.T) {
	cfg := node.DefaultConfig()
	cfg.MaxPending = 8
	c := evs.NewGroup(evs.Options{NumProcesses: 3, Seed: 1, Node: &cfg})
	ids := c.IDs()
	for i := 0; i < 40; i++ {
		c.Send(500*time.Millisecond, ids[0], []byte(fmt.Sprintf("m%d", i)), model.Safe)
	}
	c.Run(2 * time.Second)
	st := c.Stats()
	if st.Backlogged == 0 {
		t.Fatal("no submissions shed: backpressure bound not enforced")
	}
	if st.Rejected != 0 {
		t.Fatalf("Rejected = %d, want backlog shedding counted separately", st.Rejected)
	}
	if st.Submitted+st.Backlogged != 40 {
		t.Fatalf("submitted %d + backlogged %d, want 40 total", st.Submitted, st.Backlogged)
	}
	want := payloads(c.Deliveries(ids[0]))
	if len(want) == 0 {
		t.Fatal("accepted prefix not delivered")
	}
	for _, id := range ids[1:] {
		if fmt.Sprint(payloads(c.Deliveries(id))) != fmt.Sprint(want) {
			t.Fatalf("%s delivered %v, want %v", id, payloads(c.Deliveries(id)), want)
		}
	}
	requireClean(t, c, false)
}
