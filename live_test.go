package evs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/spine"
)

// The live runtime runs the same stack under real concurrency; these tests
// are timing-dependent by nature, so they use generous timeouts and assert
// semantic properties (ordering, conformance), not schedules.

// newHubGroup starts n processes over the in-process hub.
func newHubGroup(t *testing.T, n int) *LiveGroup {
	t.Helper()
	g, err := NewLiveGroup(RuntimeLive, Options{NumProcesses: n})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLiveGroupFormsAndDelivers(t *testing.T) {
	g := newHubGroup(t, 3)
	defer g.Close()
	if !g.WaitOperational(5 * time.Second) {
		t.Fatal("live group did not become operational")
	}
	ids := g.IDs()
	if err := g.Submit(ids[0], []byte("hello"), Safe); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if !g.WaitDeliveries(id, 1, 5*time.Second) {
			t.Fatalf("%s did not deliver", id)
		}
	}
	for _, id := range ids {
		ds := g.Deliveries(id)
		if string(ds[0].Payload) != "hello" || ds[0].Service != Safe {
			t.Fatalf("%s delivery %+v", id, ds[0])
		}
	}
	if vs := g.Check(false); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestLiveGroupTotalOrderUnderConcurrentSenders(t *testing.T) {
	g := newHubGroup(t, 4)
	defer g.Close()
	if !g.WaitOperational(5 * time.Second) {
		t.Fatal("live group did not become operational")
	}
	ids := g.IDs()
	const perSender = 25
	done := make(chan error, len(ids))
	for _, id := range ids {
		id := id
		go func() {
			for i := 0; i < perSender; i++ {
				if err := g.Submit(id, []byte(fmt.Sprintf("%s/%d", id, i)), Agreed); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for range ids {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	total := perSender * len(ids)
	for _, id := range ids {
		if !g.WaitDeliveries(id, total, 10*time.Second) {
			t.Fatalf("%s delivered %d of %d", id, len(g.Deliveries(id)), total)
		}
	}
	// Identical delivery order everywhere.
	ref := g.Deliveries(ids[0])
	for _, id := range ids[1:] {
		ds := g.Deliveries(id)
		for i := range ref {
			if ds[i].Msg != ref[i].Msg {
				t.Fatalf("%s diverges at %d: %v vs %v", id, i, ds[i].Msg, ref[i].Msg)
			}
		}
	}
	if vs := g.Check(false); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

// TestLiveGroupPartitionAndMerge runs on every wall-clock medium: each
// side of a 2|2 cut forms its own ring and delivers only its own traffic,
// and the merge finds the other ring through its beacon.
func TestLiveGroupPartitionAndMerge(t *testing.T) {
	forEachLiveRuntime(t, Options{NumProcesses: 4}, testLiveGroupPartitionAndMerge)
}

func testLiveGroupPartitionAndMerge(t *testing.T, g *LiveGroup) {
	ids := g.IDs()
	g.Partition(ids[:2], ids[2:])
	// Both components keep operating: sends succeed and deliver within
	// each side.
	deadline := time.Now().Add(5 * time.Second)
	leftOK, rightOK := false, false
	for time.Now().Before(deadline) && (!leftOK || !rightOK) {
		_ = g.Submit(ids[0], []byte("L"), Agreed)
		_ = g.Submit(ids[2], []byte("R"), Agreed)
		time.Sleep(20 * time.Millisecond)
		leftOK = hasPayload(g.Deliveries(ids[1]), "L")
		rightOK = hasPayload(g.Deliveries(ids[3]), "R")
	}
	if !leftOK || !rightOK {
		t.Fatalf("partitioned progress: left=%v right=%v", leftOK, rightOK)
	}
	// No cross-component leakage.
	if hasPayload(g.Deliveries(ids[0]), "R") || hasPayload(g.Deliveries(ids[3]), "L") {
		t.Fatal("messages leaked across the partition")
	}
	// Merge only once each side is operational in its own 2-member
	// regular configuration: a side still gathering after the cut would
	// merge through that open gather, not by detecting the other ring.
	settled := func() bool {
		for _, side := range [][]ProcessID{ids[:2], ids[2:]} {
			_, first, _ := g.Proc(side[0]).State()
			for _, id := range side {
				mode, cfg, _ := g.Proc(id).State()
				if mode != node.Operational || cfg.ID != first.ID || !cfg.ID.IsRegular() || cfg.Members.Size() != len(side) {
					return false
				}
			}
		}
		return true
	}
	if !spine.Poll(10*time.Second, settled) {
		t.Fatal("a side never settled into its own 2-member configuration")
	}
	// No submit follows the merge, so the rings are idle: each side can
	// learn of the other only from the representative's beacon, the one
	// token per rotation every medium still broadcasts.
	before := g.Metrics().Total.Counters
	g.Merge()
	if !g.WaitOperational(10 * time.Second) {
		t.Fatal("merge did not converge")
	}
	after := g.Metrics().Total.Counters
	if after["node_gather_foreign_total"] <= before["node_gather_foreign_total"] {
		t.Fatalf("merge without foreign detection: node_gather_foreign_total %d -> %d",
			before["node_gather_foreign_total"], after["node_gather_foreign_total"])
	}
	if after["node_gather_token_loss_total"] != before["node_gather_token_loss_total"] {
		t.Fatalf("merge lost a token: node_gather_token_loss_total %d -> %d",
			before["node_gather_token_loss_total"], after["node_gather_token_loss_total"])
	}
	if vs := g.Check(false); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

// TestLiveGroupCrashRecover runs on every wall-clock medium: a crashed
// node ignores what still arrives, so Crash and Recover need no help from
// the transport.
func TestLiveGroupCrashRecover(t *testing.T) {
	forEachLiveRuntime(t, Options{NumProcesses: 3}, func(t *testing.T, g *LiveGroup) {
		ids := g.IDs()
		g.Crash(ids[2])
		if err := g.Submit(ids[2], nil, Safe); err == nil {
			t.Fatal("send at crashed process should fail")
		}
		// Survivors reconfigure and keep delivering.
		deadline := time.Now().Add(10 * time.Second)
		ok := false
		for time.Now().Before(deadline) && !ok {
			_ = g.Submit(ids[0], []byte("while-down"), Safe)
			time.Sleep(20 * time.Millisecond)
			ok = hasPayload(g.Deliveries(ids[1]), "while-down")
		}
		if !ok {
			t.Fatal("survivors made no progress after the crash")
		}
		g.Recover(ids[2])
		if !g.WaitOperational(20 * time.Second) {
			t.Fatalf("recovered process did not rejoin (mode %s)", g.Mode(ids[2]))
		}
		if vs := g.Check(false); len(vs) != 0 {
			t.Fatalf("violations: %v", vs)
		}
	})
}

// TestLiveGroupPrimaryUnderPartition runs Section 5 on the wall clock, on
// every medium: a 5-process cluster with the primary component algorithm,
// partitioned 3|2. The majority side is announced primary, the minority
// non-primary, and the trace passes the EVS and primary-component checks.
func TestLiveGroupPrimaryUnderPartition(t *testing.T) {
	forEachLiveRuntime(t, Options{NumProcesses: 5, EnablePrimary: true}, testLiveGroupPrimaryUnderPartition)
}

func testLiveGroupPrimaryUnderPartition(t *testing.T, g *LiveGroup) {
	ids := g.IDs()
	// verdict reports the primary verdict at id for a configuration of
	// exactly n members, once one has been decided.
	verdict := func(id ProcessID, n int) (primary, decided bool) {
		evs := g.PrimaryEvents(id)
		if len(evs) == 0 {
			return false, false
		}
		last := evs[len(evs)-1]
		return last.Primary, last.Config.Members.Size() == n
	}
	all := func(side []ProcessID, want bool) func() bool {
		return func() bool {
			for _, id := range side {
				if p, ok := verdict(id, len(side)); !ok || p != want {
					return false
				}
			}
			return true
		}
	}
	if !spine.Poll(10*time.Second, all(ids, true)) {
		t.Fatal("the full configuration was never announced primary")
	}
	g.Partition(ids[:3], ids[3:])
	if !spine.Poll(10*time.Second, all(ids[:3], true)) {
		t.Errorf("majority side not announced primary")
	}
	if !spine.Poll(10*time.Second, all(ids[3:], false)) {
		t.Errorf("minority side not announced non-primary")
	}
	if vs := g.Check(false); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestLiveGroupCloseIdempotent(t *testing.T) {
	g := newHubGroup(t, 2)
	if !g.WaitOperational(5 * time.Second) {
		t.Fatal("formation failed")
	}
	g.Close()
	g.Close() // must not panic or deadlock
}

// forEachLiveRuntime runs test as one subtest per wall-clock medium, on
// an operational group built from opts; the socket runtimes get the test
// timing profile.
func forEachLiveRuntime(t *testing.T, opts Options, test func(*testing.T, *LiveGroup)) {
	for _, rt := range []Runtime{RuntimeLive, RuntimeUDP, RuntimeTCP} {
		t.Run(rt.String(), func(t *testing.T) {
			opts := opts
			if rt != RuntimeLive {
				cfg := fastNetConfig()
				opts.Node = &cfg
			}
			g, err := NewLiveGroup(rt, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			if !g.WaitOperational(10 * time.Second) {
				t.Fatal("initial formation failed")
			}
			test(t, g)
		})
	}
}

func hasPayload(ds []Delivery, want string) bool {
	for _, d := range ds {
		if string(d.Payload) == want {
			return true
		}
	}
	return false
}
