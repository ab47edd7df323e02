package evs

import (
	"testing"
	"time"
)

func TestTopicsJoinSendDeliver(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 4, Seed: 41})
	top, _ := NewTopics(g, TopicsOptions{})
	ids := g.IDs()

	top.Join(200*time.Millisecond, ids[0], "chat")
	top.Join(210*time.Millisecond, ids[1], "chat")
	top.Join(220*time.Millisecond, ids[2], "news")
	top.Send(400*time.Millisecond, ids[0], "chat", []byte("hello chat"))
	top.Send(420*time.Millisecond, ids[2], "news", []byte("hello news"))
	g.Run(time.Second)

	// chat members see the chat message; the news subscriber does not.
	for _, id := range ids[:2] {
		ds := top.Deliveries(id, "chat")
		if len(ds) != 1 || string(ds[0].Payload) != "hello chat" {
			t.Fatalf("%s chat deliveries %+v", id, ds)
		}
	}
	if ds := top.Deliveries(ids[2], "chat"); len(ds) != 0 {
		t.Fatalf("news subscriber received chat traffic: %+v", ds)
	}
	if ds := top.Deliveries(ids[3], "chat"); len(ds) != 0 {
		t.Fatalf("non-subscriber received chat traffic: %+v", ds)
	}
	// Views converged identically at chat members.
	va := top.View(ids[0], "chat")
	vb := top.View(ids[1], "chat")
	if !va.Members.Equal(NewProcessSet(ids[0], ids[1])) || !va.Members.Equal(vb.Members) {
		t.Fatalf("chat views %v / %v", va, vb)
	}
	requireCleanGroup(t, g, true)
}

func TestTopicsPartitionShrinksViews(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 4, Seed: 42})
	top, _ := NewTopics(g, TopicsOptions{})
	ids := g.IDs()
	for i, id := range ids {
		top.Join(time.Duration(200+10*i)*time.Millisecond, id, "g")
	}
	g.Partition(500*time.Millisecond, ids[:2], ids[2:])
	g.Run(1200 * time.Millisecond)

	left := top.View(ids[0], "g")
	right := top.View(ids[2], "g")
	if !left.Members.Equal(NewProcessSet(ids[0], ids[1])) {
		t.Fatalf("left view %v, want {p01,p02}", left)
	}
	if !right.Members.Equal(NewProcessSet(ids[2], ids[3])) {
		t.Fatalf("right view %v, want {p03,p04}", right)
	}

	// Remerge: views grow back to all four.
	g.Merge(1300 * time.Millisecond)
	g.Run(2 * time.Second)
	if v := top.View(ids[0], "g"); !v.Members.Equal(NewProcessSet(ids...)) {
		t.Fatalf("post-merge view %v, want all four", v)
	}
	requireCleanGroup(t, g, true)
}

func TestTopicsLeave(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 3, Seed: 43})
	top, _ := NewTopics(g, TopicsOptions{})
	ids := g.IDs()
	top.Join(200*time.Millisecond, ids[0], "g")
	top.Join(210*time.Millisecond, ids[1], "g")
	top.Leave(400*time.Millisecond, ids[1], "g")
	top.Send(600*time.Millisecond, ids[0], "g", []byte("after-leave"))
	g.Run(1200 * time.Millisecond)

	if ds := top.Deliveries(ids[1], "g"); len(ds) != 0 {
		t.Fatalf("left member received %+v", ds)
	}
	if ds := top.Deliveries(ids[0], "g"); len(ds) != 1 {
		t.Fatalf("remaining member deliveries %+v", ds)
	}
	if v := top.View(ids[0], "g"); !v.Members.Equal(NewProcessSet(ids[0])) {
		t.Fatalf("view after leave %v, want {p01}", v)
	}
	requireCleanGroup(t, g, true)
}

func TestTopicsViewsOrderedIdentically(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 3, Seed: 44})
	top, _ := NewTopics(g, TopicsOptions{})
	ids := g.IDs()
	// Everyone joins and leaves in a scramble; views derive from the
	// safe total order, so each member's view sequence for the group
	// must be identical (restricted to views both observed).
	top.Join(200*time.Millisecond, ids[0], "g")
	top.Join(205*time.Millisecond, ids[1], "g")
	top.Join(210*time.Millisecond, ids[2], "g")
	top.Leave(300*time.Millisecond, ids[1], "g")
	top.Join(350*time.Millisecond, ids[1], "g")
	g.Run(time.Second)

	a := top.Views(ids[0], "g")
	c := top.Views(ids[2], "g")
	// Compare the view membership sequences from the point both were
	// members (skip leading views before each joined).
	tailA := a[len(a)-3:]
	tailC := c[len(c)-3:]
	for i := range tailA {
		if !tailA[i].Members.Equal(tailC[i].Members) {
			t.Fatalf("view sequences diverge at %d: %v vs %v", i, tailA[i], tailC[i])
		}
	}
	requireCleanGroup(t, g, true)
}

func TestTopicsClientMultiplexing(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 3, Seed: 45})
	top, _ := NewTopics(g, TopicsOptions{RetainClientQueues: true})
	ids := g.IDs()

	// Clients 1,2 live on p01; client 3 on p02. All subscribe to "m";
	// client 3 also subscribes to "other" via a batch.
	top.ClientJoin(200*time.Millisecond, ids[0], 1, "m")
	top.ClientJoin(210*time.Millisecond, ids[0], 2, "m")
	top.ClientBatch(220*time.Millisecond, ids[1], []ClientOp{
		{Client: 3, Group: "m"},
		{Client: 3, Group: "other"},
	})
	top.ClientSend(400*time.Millisecond, ids[1], 3, "m", []byte("from-3"))
	g.Run(time.Second)

	// The host view counts hosts as members and clients in total.
	v := top.View(ids[0], "m")
	if !v.Members.Equal(NewProcessSet(ids[0], ids[1])) || v.Clients != 3 {
		t.Fatalf("client group view %+v, want hosts {p01,p02} clients 3", v)
	}
	// Every subscribed client received the message; the delivery names
	// the sending endpoint.
	for _, c := range []ClientID{1, 2} {
		q := top.ClientQueue(ids[0], c)
		if len(q) != 1 || string(q[0].Payload) != "from-3" || q[0].Client != 3 || q[0].Sender != ids[1] {
			t.Fatalf("client %d queue %+v", c, q)
		}
	}
	if n := top.ClientDeliveries(ids[1], 3); n != 1 {
		t.Fatalf("sender's own client deliveries %d, want 1", n)
	}
	// p03 hosts no subscriber: the data message was dropped on the
	// header peek, and the drop is visible in the metric catalog.
	if f := top.Filtered(ids[2]); f == 0 {
		t.Fatal("non-member host filtered nothing")
	}
	snap := g.Metrics()
	if got := snap.Procs[string(ids[2])].Counters["groups_filtered_total"]; got != top.Filtered(ids[2]) {
		t.Fatalf("groups_filtered_total %d, want %d", got, top.Filtered(ids[2]))
	}
	requireCleanGroup(t, g, true)
}

func TestTopicsDiscardHistoryCountsOnly(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 3, Seed: 46})
	top, _ := NewTopics(g, TopicsOptions{DiscardHistory: true})
	ids := g.IDs()
	top.Join(200*time.Millisecond, ids[0], "g")
	top.Join(210*time.Millisecond, ids[1], "g")
	top.Send(400*time.Millisecond, ids[0], "g", []byte("x"))
	top.Send(420*time.Millisecond, ids[1], "g", []byte("y"))
	g.Run(time.Second)

	if evs := top.Events(ids[0]); evs != nil {
		t.Fatalf("discard mode retained %d events", len(evs))
	}
	if ds := top.Deliveries(ids[0], "g"); ds != nil {
		t.Fatalf("discard mode retained deliveries %+v", ds)
	}
	if n := top.DeliveryCount(ids[0]); n != 2 {
		t.Fatalf("delivery count %d, want 2", n)
	}
	// Live views still work: they come from mux state, not history.
	if v := top.View(ids[0], "g"); !v.Members.Equal(NewProcessSet(ids[0], ids[1])) {
		t.Fatalf("discard-mode view %+v", v)
	}
	requireCleanGroup(t, g, true)
}

func TestTopicsSymbolTablesConvergeAcrossPartition(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 4, Seed: 47})
	top, _ := NewTopics(g, TopicsOptions{})
	ids := g.IDs()
	for i, id := range ids {
		top.Join(time.Duration(200+5*i)*time.Millisecond, id, "shared")
	}
	top.Join(230*time.Millisecond, ids[0], "left-only")
	g.Partition(400*time.Millisecond, ids[:2], ids[2:])
	// Each side interns fresh names while partitioned.
	top.Join(700*time.Millisecond, ids[0], "east")
	top.Join(710*time.Millisecond, ids[2], "west")
	g.Run(1200 * time.Millisecond)
	if a, b := top.SymbolFingerprint(ids[0]), top.SymbolFingerprint(ids[1]); a != b {
		t.Fatalf("left component symbol tables diverged: %x vs %x", a, b)
	}
	if c, d := top.SymbolFingerprint(ids[2]), top.SymbolFingerprint(ids[3]); c != d {
		t.Fatalf("right component symbol tables diverged: %x vs %x", c, d)
	}
	// After the merge every process re-announces into one epoch: all
	// four tables must be byte-identical again.
	g.Merge(1300 * time.Millisecond)
	g.Run(2200 * time.Millisecond)
	want := top.SymbolFingerprint(ids[0])
	for _, id := range ids[1:] {
		if got := top.SymbolFingerprint(id); got != want {
			t.Fatalf("post-merge symbol table at %s: %x != %x", id, got, want)
		}
	}
	// And the shared group's view regrew to all four hosts.
	if v := top.View(ids[3], "shared"); !v.Members.Equal(NewProcessSet(ids...)) {
		t.Fatalf("post-merge shared view %+v", v)
	}
	requireCleanGroup(t, g, true)
}

func TestTopicsTransitionalViewShrinks(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 4, Seed: 48})
	top, _ := NewTopics(g, TopicsOptions{})
	ids := g.IDs()
	for i, id := range ids {
		top.Join(time.Duration(200+5*i)*time.Millisecond, id, "g")
	}
	g.Partition(500*time.Millisecond, ids[:2], ids[2:])
	g.Run(1500 * time.Millisecond)
	// Among the views p01 observed there must be one tagged with a
	// transitional configuration whose membership already shrank: the
	// group-level rendering of the transitional configuration, emitted
	// by OnConfig before the new regular epoch installs.
	var sawTransitional bool
	for _, v := range top.Views(ids[0], "g") {
		if v.Config.IsTransitional() && v.Members.Equal(NewProcessSet(ids[0], ids[1])) {
			sawTransitional = true
		}
	}
	if !sawTransitional {
		t.Fatalf("no shrunken transitional view at p01; views: %+v", top.Views(ids[0], "g"))
	}
	requireCleanGroup(t, g, true)
}
