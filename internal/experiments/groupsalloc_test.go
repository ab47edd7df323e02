package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	evs "repro"
)

// groupsAllocBudget is the pinned allocation budget per group-layer
// member delivery in the loaded cluster scenario — the acceptance bound
// of the lightweight-group work ("allocs/group-delivery at members is a
// small constant (≤ 2)"). The measured value is ~0.04 (amortised arena
// chunk refills plus the transport's own amortised costs underneath);
// the budget sits far above that so host jitter cannot flake it, while
// one stray per-delivery allocation in the decode→filter→fan-out path
// (≥1.0 here) still trips the gate immediately.
const groupsAllocBudget = 2.0

// TestGroupsAllocBudget is the dynamic half of the group-layer
// zero-alloc enforcement pair (the "Groups alloc gate" CI step): the
// //evs:noalloc analyzer run by the "Invariant lint" step proves the
// annotated encode/peek/deliver functions avoid allocating construct
// classes, and this gate measures the end-to-end truth the analyzer
// cannot see — a mid-sized cluster scenario with clients, filtering,
// and Zipf traffic, charged per member delivery.
func TestGroupsAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loaded steady-state measurement")
	}
	cfg := groupsConfig{
		Procs: 8, Groups: 500, Clients: 5000, Seed: 1,
		Window: 150 * time.Millisecond, BatchOps: 256, ZipfS: 1.2,
	}
	row, err := groupsCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.MemberDeliveries == 0 {
		t.Fatal("no group deliveries in measurement window")
	}
	if row.Filtered == 0 {
		t.Fatal("scenario produced no filtered drops; the gate must cover the fast path")
	}
	// Every ordered data message produces exactly one routing decision per
	// host: a member delivery or a filtered drop.
	decisions := row.MemberDeliveries + row.Filtered
	t.Logf("%d procs, %d groups, %d clients: %.0f group msgs/s (virtual time), %.3f allocs/group-delivery (budget %.2f), %.0f B/group-delivery, %.0f%% filtered",
		cfg.Procs, cfg.Groups, cfg.Clients, float64(decisions/cfg.Procs)/cfg.Window.Seconds(),
		row.AllocsPerGroupDelivery, groupsAllocBudget, row.BytesPerGroupDelivery,
		100*float64(row.Filtered)/float64(decisions))
	if row.AllocsPerGroupDelivery > groupsAllocBudget {
		t.Errorf("allocs per group delivery %.3f exceeds pinned budget %.2f",
			row.AllocsPerGroupDelivery, groupsAllocBudget)
	}
}

// groupsConfig sizes the loaded group-layer scenario.
type groupsConfig struct {
	Procs   int
	Groups  int
	Clients int
	Seed    int64
	// Window is the loaded measurement window (virtual time).
	Window time.Duration
	// BatchOps is how many client subscription ops ride one safe
	// message during the join phase.
	BatchOps int
	// ZipfS is the skew of the topic-traffic distribution.
	ZipfS float64
}

// groupsRow is the scenario's result over the loaded window.
type groupsRow struct {
	// MemberDeliveries counts host-level group deliveries (ordered
	// message × subscribed host); Filtered counts messages dropped on the
	// header peek at non-member hosts.
	MemberDeliveries int
	Filtered         int
	// Bytes / Allocs charge the whole loaded steady-state window
	// (transport included — this is the full stack) to member deliveries.
	BytesPerGroupDelivery  float64
	AllocsPerGroupDelivery float64
}

// groupsCluster runs the full-stack scenario: clients spread round-robin
// over the ring's hosts, every group covered, surplus clients subscribed
// uniformly at random (so each group's subscribers scatter across hosts,
// exercising member delivery and the filtered fast path on every
// message), traffic Zipf-skewed over groups, the whole thing in discard
// mode with costs anchored at steady state after ring formation and the
// join storm.
func groupsCluster(cfg groupsConfig) (groupsRow, error) {
	g := evs.NewGroup(evs.Options{
		NumProcesses:   cfg.Procs,
		Seed:           cfg.Seed,
		Node:           benchNodeConfig(),
		DiscardHistory: true,
	})
	top, err := evs.NewTopicsWith(g, evs.TopicsOptions{DiscardHistory: true})
	if err != nil {
		return groupsRow{}, err
	}
	ids := g.IDs()
	rng := rand.New(rand.NewSource(cfg.Seed))

	names := make([]string, cfg.Groups)
	for i := range names {
		names[i] = fmt.Sprintf("g%06d", i)
	}
	hostClients := make([][]evs.ClientID, cfg.Procs)
	ops := make([][]evs.ClientOp, cfg.Procs)
	for c := 1; c <= cfg.Clients; c++ {
		h := (c - 1) % cfg.Procs
		gi := c - 1
		if gi >= cfg.Groups {
			gi = rng.Intn(cfg.Groups)
		}
		hostClients[h] = append(hostClients[h], evs.ClientID(c))
		ops[h] = append(ops[h], evs.ClientOp{Client: evs.ClientID(c), Group: names[gi]})
	}

	// Join phase: batches of BatchOps subscription ops per safe message,
	// spaced so the send backlog never sheds a join.
	joinStart := 350 * time.Millisecond
	joinEnd := joinStart
	for h := range ops {
		at := joinStart
		for lo := 0; lo < len(ops[h]); lo += cfg.BatchOps {
			hi := lo + cfg.BatchOps
			if hi > len(ops[h]) {
				hi = len(ops[h])
			}
			top.ClientBatch(at, ids[h], ops[h][lo:hi])
			at += 2 * time.Millisecond
		}
		if at > joinEnd {
			joinEnd = at
		}
	}
	settle := joinEnd + 300*time.Millisecond
	g.Run(settle)

	// Every client must be joined before measurement starts; a shed join
	// would silently skew the row.
	totalClients := 0
	for _, name := range names {
		totalClients += top.View(ids[0], name).Clients
	}
	if totalClients != cfg.Clients {
		return groupsRow{}, fmt.Errorf("join phase incomplete: %d of %d clients joined", totalClients, cfg.Clients)
	}

	// Pre-resolve the traffic schedule: per host, a cycle of (sender
	// client, target GroupID) pairs with Zipf-skewed targets, so the
	// loaded loop does no name hashing and no allocation.
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Groups-1))
	type sendSlot struct {
		client evs.ClientID
		gid    evs.GroupID
	}
	const scheduleLen = 4096
	sched := make([][]sendSlot, cfg.Procs)
	for h := 0; h < cfg.Procs; h++ {
		sched[h] = make([]sendSlot, scheduleLen)
		for k := range sched[h] {
			gi := int(zipf.Uint64())
			gid, ok := top.Resolve(ids[h], names[gi])
			if !ok {
				return groupsRow{}, fmt.Errorf("group %s not interned at %s", names[gi], ids[h])
			}
			sched[h][k] = sendSlot{
				client: hostClients[h][k%len(hostClients[h])],
				gid:    gid,
			}
		}
	}

	counts := func() (delivered, filtered int) {
		for _, id := range ids {
			delivered += int(top.DeliveryCount(id))
			filtered += int(top.Filtered(id))
		}
		return delivered, filtered
	}

	// Steady-state anchor, then the same fixed aggregate offered load the
	// ordering gate uses (backpressure sheds the excess).
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	startDelivered, startFiltered := counts()

	payload := make([]byte, 64)
	per := (aggregateOffered + cfg.Procs - 1) / cfg.Procs
	cursor := make([]int, cfg.Procs)
	windowEnd := settle + cfg.Window
	var refill func()
	refill = func() {
		if g.Now() >= windowEnd {
			return
		}
		for h, id := range ids {
			for k := 0; k < per; k++ {
				s := sched[h][cursor[h]%scheduleLen]
				cursor[h]++
				_ = top.SubmitClientSend(id, s.client, s.gid, payload)
			}
		}
		g.At(g.Now()+5*time.Millisecond, refill)
	}
	g.At(settle, refill)
	g.Run(windowEnd)

	runtime.ReadMemStats(&m1)

	delivered, filtered := counts()
	row := groupsRow{MemberDeliveries: delivered - startDelivered, Filtered: filtered - startFiltered}
	if row.MemberDeliveries > 0 {
		n := float64(row.MemberDeliveries)
		row.BytesPerGroupDelivery = float64(m1.TotalAlloc-m0.TotalAlloc) / n
		row.AllocsPerGroupDelivery = float64(m1.Mallocs-m0.Mallocs) / n
	}
	return row, nil
}
