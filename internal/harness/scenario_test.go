package harness

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	evs "repro"
	"repro/internal/model"
)

// TestSelfDeliveryAcrossPartition: a process isolated right after sending
// still delivers its own messages, in a transitional configuration
// containing only itself if need be (Specification 3, Figure 3).
func TestSelfDeliveryAcrossPartition(t *testing.T) {
	c := evs.NewGroup(evs.Options{NumProcesses: 3, Seed: 7})
	ids := c.IDs()
	// Send just before partitioning; the message may not be sequenced
	// or acknowledged before the network splits.
	c.Send(199*time.Millisecond, ids[0], []byte("mine"), model.Safe)
	c.Partition(200*time.Millisecond, []model.ProcessID{ids[0]}, ids[1:])
	c.Run(time.Second)

	found := false
	for _, d := range c.Deliveries(ids[0]) {
		if string(d.Payload) == "mine" {
			found = true
		}
	}
	if !found {
		t.Fatalf("%s never delivered its own message; deliveries %v", ids[0], payloads(c.Deliveries(ids[0])))
	}
	requireClean(t, c, true)
}

// TestPartitionedComponentsBothMakeProgress: unlike virtual synchrony's
// primary-component model, every component continues to order and deliver
// new messages.
func TestPartitionedComponentsBothMakeProgress(t *testing.T) {
	c := evs.NewGroup(evs.Options{NumProcesses: 4, Seed: 8})
	ids := c.IDs()
	c.Partition(200*time.Millisecond, ids[:2], ids[2:])
	// Traffic in both components after the split.
	c.Send(500*time.Millisecond, ids[0], []byte("left"), model.Safe)
	c.Send(500*time.Millisecond, ids[2], []byte("right"), model.Safe)
	c.Run(time.Second)

	if got := payloads(c.Deliveries(ids[1])); fmt.Sprint(got) != "[left]" {
		t.Fatalf("left component delivered %v, want [left]", got)
	}
	if got := payloads(c.Deliveries(ids[3])); fmt.Sprint(got) != "[right]" {
		t.Fatalf("right component delivered %v, want [right]", got)
	}
	requireClean(t, c, true)
}

// TestMergeAfterPartition: components remerge into one configuration and
// continue with a consistent total order.
func TestMergeAfterPartition(t *testing.T) {
	c := evs.NewGroup(evs.Options{NumProcesses: 4, Seed: 9})
	ids := c.IDs()
	c.Partition(200*time.Millisecond, ids[:2], ids[2:])
	c.Send(400*time.Millisecond, ids[0], []byte("during-left"), model.Agreed)
	c.Send(400*time.Millisecond, ids[3], []byte("during-right"), model.Agreed)
	c.Merge(600 * time.Millisecond)
	c.Send(900*time.Millisecond, ids[1], []byte("after"), model.Safe)
	c.Run(1500 * time.Millisecond)

	ops := c.Operational()
	if len(ops) != 1 {
		t.Fatalf("after merge: operational configurations %v, want one", ops)
	}
	for _, id := range ids {
		last := payloads(c.Deliveries(id))
		if len(last) == 0 || last[len(last)-1] != "after" {
			t.Fatalf("%s deliveries %v, want trailing post-merge message", id, last)
		}
	}
	// The pre-merge messages stay component-local: the merged
	// configuration does not transfer old-component messages.
	for _, d := range c.Deliveries(ids[0]) {
		if string(d.Payload) == "during-right" {
			t.Fatal("message from the other component leaked across the merge")
		}
	}
	requireClean(t, c, true)
}

// TestCrashAndRecoverSameIdentifier: a crashed process recovers with
// stable storage intact and rejoins under the same identifier.
func TestCrashAndRecoverSameIdentifier(t *testing.T) {
	c := evs.NewGroup(evs.Options{NumProcesses: 3, Seed: 10})
	ids := c.IDs()
	c.Send(150*time.Millisecond, ids[0], []byte("before"), model.Safe)
	c.Crash(250*time.Millisecond, ids[2])
	c.Send(400*time.Millisecond, ids[0], []byte("while-down"), model.Safe)
	c.Recover(500*time.Millisecond, ids[2])
	c.Send(900*time.Millisecond, ids[2], []byte("after-recovery"), model.Safe)
	c.Run(1500 * time.Millisecond)

	ops := c.Operational()
	if len(ops) != 1 {
		t.Fatalf("operational configurations %v, want one (all merged)", ops)
	}
	for cfg, members := range ops {
		if members.Size() != 3 {
			t.Fatalf("configuration %v has %v, want all three", cfg, members)
		}
	}
	// The recovered process must deliver its own post-recovery message
	// and must NOT have re-delivered "before" twice.
	count := 0
	for _, d := range c.Deliveries(ids[2]) {
		if string(d.Payload) == "before" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("recovered process delivered 'before' %d times, want exactly once", count)
	}
	requireClean(t, c, true)
}

// TestCascadedPartitions: repeated reconfiguration under churn stays
// consistent.
func TestCascadedPartitions(t *testing.T) {
	c := evs.NewGroup(evs.Options{NumProcesses: 5, Seed: 11})
	ids := c.IDs()
	for i := 0; i < 30; i++ {
		c.Send(time.Duration(100+i*20)*time.Millisecond, ids[i%5], []byte(fmt.Sprintf("m%d", i)), model.Safe)
	}
	c.Partition(250*time.Millisecond, ids[:2], ids[2:])
	c.Partition(450*time.Millisecond, ids[:2], ids[2:4], ids[4:])
	c.Merge(650 * time.Millisecond)
	c.Partition(850*time.Millisecond, ids[:4], ids[4:])
	c.Merge(1050 * time.Millisecond)
	c.Run(2 * time.Second)

	ops := c.Operational()
	if len(ops) != 1 {
		t.Fatalf("final operational configurations %v, want one", ops)
	}
	requireClean(t, c, true)
}

// TestRandomAdversarialSchedules is the workhorse conformance test: random
// partitions, merges, crashes, recoveries and client traffic, then a settle
// period, then the full specification check.
func TestRandomAdversarialSchedules(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runAdversarial(t, seed, 4, 1500*time.Millisecond)
		})
	}
}

func runAdversarial(t *testing.T, seed int64, procs int, horizon time.Duration) {
	runAdversarialLossy(t, seed, procs, horizon, 0, 0)
}

// runAdversarialLossy is the adversarial schedule over a lossy medium.
func runAdversarialLossy(t *testing.T, seed int64, procs int, horizon time.Duration, drop, dup float64) {
	rng := rand.New(rand.NewSource(seed))
	c := evs.NewGroup(evs.Options{NumProcesses: procs, Seed: seed, DropRate: drop, DupRate: dup})
	ids := c.IDs()
	down := make(map[model.ProcessID]bool)

	at := 150 * time.Millisecond
	for at < horizon {
		switch rng.Intn(10) {
		case 0: // partition into two random groups
			k := 1 + rng.Intn(procs-1)
			perm := rng.Perm(procs)
			var a, b []model.ProcessID
			for i, pi := range perm {
				if i < k {
					a = append(a, ids[pi])
				} else {
					b = append(b, ids[pi])
				}
			}
			c.Partition(at, a, b)
		case 1:
			c.Merge(at)
		case 2: // crash one live process (keep majority-ish alive)
			live := 0
			for _, id := range ids {
				if !down[id] {
					live++
				}
			}
			if live > 2 {
				id := ids[rng.Intn(procs)]
				if !down[id] {
					down[id] = true
					c.Crash(at, id)
				}
			}
		case 3: // recover one down process
			for _, id := range ids {
				if down[id] {
					down[id] = false
					c.Recover(at, id)
					break
				}
			}
		default: // client traffic
			id := ids[rng.Intn(procs)]
			svc := model.Safe
			if rng.Intn(2) == 0 {
				svc = model.Agreed
			}
			c.Send(at, id, []byte(fmt.Sprintf("m-%d-%d", seed, at/time.Millisecond)), svc)
		}
		at += time.Duration(20+rng.Intn(60)) * time.Millisecond
	}
	// Settle: recover everyone, merge, and give the system quiet time.
	c.At(horizon, func() {
		for _, id := range ids {
			if down[id] {
				c.Network().SetDown(id, false)
				c.Proc(id).Node().Recover()
			}
		}
		c.Network().Merge()
	})
	c.Run(horizon + time.Second)

	ops := c.Operational()
	if len(ops) != 1 {
		t.Fatalf("after settling: operational configurations %v, want one", ops)
	}
	requireClean(t, c, true)
}
