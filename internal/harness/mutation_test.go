package harness

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	evs "repro"
	"repro/internal/model"
	"repro/internal/spec"
)

// Mutation testing of the specification checker: take a conforming
// execution of the real protocol, apply a mutation that provably breaks
// one of the specifications, and require the checker to flag it. This
// guards against the checker silently checking nothing.

// conformingHistory produces a settled, checker-clean execution with
// enough structure (partition + merge, safe traffic) to mutate.
func conformingHistory(t *testing.T, seed int64) []model.Event {
	t.Helper()
	c := evs.NewGroup(evs.Options{NumProcesses: 4, Seed: seed})
	ids := c.IDs()
	for i := 0; i < 10; i++ {
		c.Send(time.Duration(150+i*15)*time.Millisecond, ids[i%4], []byte(fmt.Sprintf("m%d", i)), model.Safe)
	}
	c.Partition(280*time.Millisecond, ids[:2], ids[2:])
	c.Merge(500 * time.Millisecond)
	c.Run(1200 * time.Millisecond)
	events := c.History()
	if vs := spec.NewChecker(events, spec.Options{Settled: true}).CheckAll(); len(vs) != 0 {
		t.Fatalf("base execution not conforming: %v", vs)
	}
	out := make([]model.Event, len(events))
	copy(out, events)
	return out
}

// flagged reports whether the checker finds any violation.
func flagged(events []model.Event) bool {
	return len(spec.NewChecker(events, spec.Options{Settled: true}).CheckAll()) > 0
}

// deliverIndices returns indices of deliver events, optionally restricted
// to messages delivered by at least minProcs processes.
func deliverIndices(events []model.Event, minProcs int) []int {
	count := make(map[model.MessageID]int)
	for _, e := range events {
		if e.Type == model.EventDeliver {
			count[e.Msg]++
		}
	}
	var out []int
	for i, e := range events {
		if e.Type == model.EventDeliver && count[e.Msg] >= minProcs {
			out = append(out, i)
		}
	}
	return out
}

func TestMutationDuplicateDeliveryFlagged(t *testing.T) {
	events := conformingHistory(t, 31)
	rng := rand.New(rand.NewSource(1))
	dels := deliverIndices(events, 1)
	for trial := 0; trial < 10; trial++ {
		i := dels[rng.Intn(len(dels))]
		mutated := append(append([]model.Event{}, events...), events[i])
		if !flagged(mutated) {
			t.Fatalf("duplicated delivery of %v not flagged", events[i])
		}
	}
}

func TestMutationDroppedSafeDeliveryFlagged(t *testing.T) {
	events := conformingHistory(t, 32)
	dropped := 0
	for i, e := range events {
		if e.Type != model.EventDeliver || e.Service != model.Safe {
			continue
		}
		// Only messages delivered by several processes make the drop
		// provably illegal (7.1 at the others, 4 for joint movers).
		n := 0
		for _, e2 := range events {
			if e2.Type == model.EventDeliver && e2.Msg == e.Msg {
				n++
			}
		}
		if n < 3 {
			continue
		}
		mutated := append(append([]model.Event{}, events[:i]...), events[i+1:]...)
		if !flagged(mutated) {
			t.Fatalf("dropped safe delivery %v not flagged", e)
		}
		if dropped++; dropped >= 8 {
			break
		}
	}
	if dropped == 0 {
		t.Fatal("no safe deliveries with enough replication to mutate")
	}
}

func TestMutationSwappedDeliveriesFlagged(t *testing.T) {
	events := conformingHistory(t, 33)
	// Swap two deliveries that are consecutive in one process's event
	// sequence: conflicting total orders → the condensation becomes
	// cyclic (or the displaced delivery precedes its send, 1.3).
	byProc := make(map[model.ProcessID][]int)
	for i, e := range events {
		if e.Type == model.EventDeliver {
			byProc[e.Proc] = append(byProc[e.Proc], i)
		}
	}
	var pairs [][2]int
	for _, idxs := range byProc {
		for k := 0; k+1 < len(idxs); k++ {
			pairs = append(pairs, [2]int{idxs[k], idxs[k+1]})
		}
	}
	swapped := 0
	for _, pr := range pairs {
		i, j := pr[0], pr[1]
		a, b := events[i], events[j]
		if a.Msg == b.Msg || a.Config != b.Config {
			continue
		}
		// Some other process must deliver BOTH messages, so the swap
		// creates genuinely conflicting orders; without a common
		// second deliverer the reordering can be legal.
		hasA := make(map[model.ProcessID]bool)
		hasB := make(map[model.ProcessID]bool)
		for _, e := range events {
			if e.Type == model.EventDeliver && e.Msg == a.Msg {
				hasA[e.Proc] = true
			}
			if e.Type == model.EventDeliver && e.Msg == b.Msg {
				hasB[e.Proc] = true
			}
		}
		common := false
		for w := range hasA {
			if w != a.Proc && hasB[w] {
				common = true
			}
		}
		if !common {
			continue
		}
		mutated := append([]model.Event{}, events...)
		mutated[i], mutated[j] = mutated[j], mutated[i]
		if !flagged(mutated) {
			t.Fatalf("swapped deliveries %v / %v not flagged", a, b)
		}
		if swapped++; swapped >= 8 {
			break
		}
	}
	if swapped == 0 {
		t.Fatal("no adjacent delivery pairs to swap")
	}
}

func TestMutationRetaggedConfigFlagged(t *testing.T) {
	events := conformingHistory(t, 34)
	rng := rand.New(rand.NewSource(2))
	dels := deliverIndices(events, 1)
	bogus := model.RegularID(999, "zz")
	for trial := 0; trial < 10; trial++ {
		i := dels[rng.Intn(len(dels))]
		mutated := append([]model.Event{}, events...)
		mutated[i].Config = bogus
		if !flagged(mutated) {
			t.Fatalf("retagged delivery %v not flagged", events[i])
		}
	}
}

func TestMutationForgedSendFlagged(t *testing.T) {
	events := conformingHistory(t, 35)
	// A second send of an existing message violates 1.4.
	for _, e := range events {
		if e.Type == model.EventSend {
			mutated := append(append([]model.Event{}, events...), e)
			if !flagged(mutated) {
				t.Fatalf("forged duplicate send %v not flagged", e)
			}
			return
		}
	}
	t.Fatal("no send events in base history")
}

func TestMutationDroppedConfChangeFlagged(t *testing.T) {
	events := conformingHistory(t, 36)
	// Removing a process's configuration change strands its subsequent
	// events outside any installed configuration (2.2).
	for i, e := range events {
		if e.Type != model.EventDeliverConf {
			continue
		}
		// Only if the process has later events in that configuration.
		hasLater := false
		for _, e2 := range events[i+1:] {
			if e2.Proc == e.Proc && e2.Type == model.EventDeliver && e2.Config == e.Config {
				hasLater = true
				break
			}
		}
		if !hasLater {
			continue
		}
		mutated := append(append([]model.Event{}, events[:i]...), events[i+1:]...)
		if !flagged(mutated) {
			t.Fatalf("dropped configuration change %v not flagged", e)
		}
		return
	}
	t.Fatal("no droppable configuration change found")
}
