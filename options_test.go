package evs

import (
	"errors"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/node"
	"repro/internal/spine"
)

// fastNetConfig scales the deployment timing profile down for loopback
// tests (same profile the daemon package's own tests use).
func fastNetConfig() node.Config {
	cfg := daemon.DefaultNetConfig()
	cfg.TokenLoss = 150 * time.Millisecond
	cfg.TokenRetrans = 25 * time.Millisecond
	cfg.JoinRetry = 40 * time.Millisecond
	cfg.CommitTimeout = 100 * time.Millisecond
	cfg.RecoveryRetry = 30 * time.Millisecond
	cfg.RecoveryTimeout = 500 * time.Millisecond
	return cfg
}

func TestNewDefaultsToSim(t *testing.T) {
	c, err := New(WithNumProcesses(4), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, ok := c.(*Group)
	if !ok {
		t.Fatalf("New() = %T, want *Group", c)
	}
	if len(g.IDs()) != 4 {
		t.Fatalf("IDs = %v", g.IDs())
	}
	// The seed reached the simulator: a short run is deterministic.
	g.Send(100*time.Millisecond, g.IDs()[0], []byte("x"), Safe)
	g.Run(time.Second)
	if len(g.Deliveries(g.IDs()[0])) == 0 {
		t.Fatal("no deliveries in sim runtime")
	}
}

func TestNewSimOptionsPassThrough(t *testing.T) {
	c, err := New(WithSimOptions(Options{NumProcesses: 2, Seed: 9, EnableVS: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(*Group); !ok {
		t.Fatalf("New() = %T, want *Group", c)
	}
	if n := len(c.IDs()); n != 2 {
		t.Fatalf("got %d processes, want 2", n)
	}
}

func TestNewExplicitProcesses(t *testing.T) {
	c, err := New(WithProcesses("alpha", "beta"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids := c.IDs()
	if len(ids) != 2 || ids[0] != "alpha" || ids[1] != "beta" {
		t.Fatalf("IDs = %v", ids)
	}
	// Named processes are sim-only; the socket runtimes reject them.
	if _, err := New(WithProcesses("alpha"), WithRuntime(RuntimeUDP)); err == nil {
		t.Fatal("UDP runtime accepted explicit process names")
	}
	if _, err := New(WithProcesses("alpha"), WithRuntime(RuntimeLive)); err == nil {
		t.Fatal("live runtime accepted explicit process names")
	}
}

func TestNewLiveRuntime(t *testing.T) {
	c, err := New(WithRuntime(RuntimeLive), WithNumProcesses(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, ok := c.(*LiveGroup)
	if !ok {
		t.Fatalf("New() = %T, want *LiveGroup", c)
	}
	if !g.WaitOperational(10 * time.Second) {
		t.Fatal("live group never formed")
	}
	if err := c.Submit(g.IDs()[0], []byte("hi"), Agreed); err != nil {
		t.Fatal(err)
	}
	if !g.WaitDeliveries(g.IDs()[1], 1, 10*time.Second) {
		t.Fatal("live delivery never arrived")
	}
}

// TestNewUDPRuntime covers what the UDP runtime adds to the parity table
// (TestClusterParity forms, orders and checks a ring on every runtime):
// traffic really crosses the wire codec, a kill without a goodbye shrinks
// the membership everywhere, the trace still passes the specification
// checker, and the sockets cannot be partitioned.
func TestNewUDPRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second socket ring test")
	}
	c, err := New(WithRuntime(RuntimeUDP), WithNumProcesses(4),
		WithNodeConfig(fastNetConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, ok := c.(*LiveGroup)
	if !ok {
		t.Fatalf("New() = %T, want *LiveGroup", c)
	}
	ids := g.IDs()
	if !g.WaitOperational(20 * time.Second) {
		t.Fatalf("ring never formed; p01 is %s", g.Mode(ids[0]))
	}
	if err := g.Partition(ids[:2], ids[2:]); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("Partition over sockets = %v, want ErrNoPartition", err)
	}
	if err := g.Merge(); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("Merge over sockets = %v, want ErrNoPartition", err)
	}

	// Kill p04; the survivors deliver a 3-member configuration.
	if err := g.Kill(ids[3]); err != nil {
		t.Fatal(err)
	}
	if err := g.Submit(ids[3], []byte("late"), Agreed); err == nil {
		t.Fatal("submit at a killed process succeeded")
	}
	installed := func() bool {
		for _, id := range ids[:3] {
			ccs := g.ConfigChanges(id)
			if last := ccs[len(ccs)-1].Config; !last.ID.IsRegular() || last.Members.Size() != 3 {
				return false
			}
		}
		return true
	}
	if !spine.Poll(30*time.Second, installed) || !g.WaitOperational(10*time.Second) {
		t.Fatal("survivors never installed the 3-member ring")
	}

	if vs := g.Check(false); len(vs) > 0 {
		t.Fatalf("spec violations: %v", vs)
	}
	if g.Metrics().Total.Counters["wire_packets_out_total"] == 0 {
		t.Fatal("no wire packets counted — traffic did not cross the codec path")
	}
}

// TestNewRejectsSimOnlyOptions: the wall-clock runtimes take the Options
// every runtime shares and refuse the ones that configure the simulated
// network, instead of silently ignoring them.
func TestNewRejectsSimOnlyOptions(t *testing.T) {
	for name, o := range map[string]Options{
		"Seed":         {Seed: 7},
		"DropRate":     {DropRate: 0.1},
		"DupRate":      {DupRate: 0.1},
		"Codec":        {Codec: true},
		"CorruptRate":  {CorruptRate: 0.1},
		"TruncateRate": {TruncateRate: 0.1},
		"MinDelay":     {MinDelay: time.Millisecond},
		"MaxDelay":     {MaxDelay: time.Millisecond},
	} {
		for _, rt := range []Runtime{RuntimeLive, RuntimeUDP, RuntimeTCP} {
			if c, err := New(WithRuntime(rt), WithSimOptions(o)); err == nil {
				c.Close()
				t.Errorf("%v runtime accepted Options.%s", rt, name)
			}
		}
	}
	// The shared part passes through.
	c, err := New(WithRuntime(RuntimeLive), WithSimOptions(Options{NumProcesses: 2, DiscardHistory: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g := c.(*LiveGroup)
	if !g.WaitOperational(10 * time.Second) {
		t.Fatal("live group never formed")
	}
	if err := c.Submit(c.IDs()[0], []byte("x"), Agreed); err != nil {
		t.Fatal(err)
	}
	if !g.WaitDeliveries(c.IDs()[1], 1, 10*time.Second) {
		t.Fatal("delivery never counted")
	}
	if ds := c.Deliveries(c.IDs()[1]); ds != nil {
		t.Fatalf("DiscardHistory retained %d deliveries", len(ds))
	}
}

func TestNewRejectsUnknownRuntime(t *testing.T) {
	if _, err := New(WithRuntime(Runtime(99))); err == nil {
		t.Fatal("unknown runtime accepted")
	}
}
