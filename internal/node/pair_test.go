package node

import (
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/stable"
	"repro/internal/wire"
)

// pairWorld connects two (or more) nodes through synchronous loopback
// broadcast, exercising the full lifecycle — gather, commit, install,
// recovery, operational — without the simulation harness, so this package
// covers its own composition logic.
type pairWorld struct {
	t     *testing.T
	ids   []model.ProcessID
	nodes map[model.ProcessID]*Node
	envs  map[model.ProcessID]*mockEnv
	// cut(from,to) drops the message when true.
	cut func(from, to model.ProcessID) bool
	// onSend, when set, observes each transmission as it is pumped; to
	// is "" for a broadcast.
	onSend func(from, to model.ProcessID, msg wire.Message)
}

// newPairWorld connects nodes over a broadcast-only medium.
func newPairWorld(t *testing.T, ids ...model.ProcessID) *pairWorld {
	return newWorld(t, false, ids...)
}

// newWorld connects nodes over a medium that can also address one
// process when unicast is set.
func newWorld(t *testing.T, unicast bool, ids ...model.ProcessID) *pairWorld {
	w := &pairWorld{
		t:     t,
		ids:   ids,
		nodes: make(map[model.ProcessID]*Node),
		envs:  make(map[model.ProcessID]*mockEnv),
	}
	for _, id := range ids {
		env := newMockEnv()
		w.envs[id] = env
		var tr Transport = env
		if unicast {
			tr = unicastEnv{env}
		}
		w.nodes[id] = New(id, DefaultConfig(), tr, env, &stable.Store{})
	}
	return w
}

// pump delivers queued broadcasts for a bounded number of rounds. It
// cannot wait for quiescence: once a ring is operational the token
// circulates forever by design.
func (w *pairWorld) pump() { w.pumpUntil(nil) }

// pumpUntil is pump that stops right after the first delivery for which
// stop (when non-nil) returns true, leaving the rest of the round's
// traffic undelivered. It reports whether it stopped.
func (w *pairWorld) pumpUntil(stop func(from, to model.ProcessID, msg wire.Message) bool) bool {
	for round := 0; round < 50; round++ {
		moved := false
		for _, from := range w.ids {
			msgs, dests := w.envs[from].takeRouted()
			for i, msg := range msgs {
				moved = true
				if w.onSend != nil {
					w.onSend(from, dests[i], msg)
				}
				for _, to := range w.ids {
					if w.cut != nil && w.cut(from, to) || dests[i] != "" && dests[i] != to {
						continue
					}
					w.nodes[to].OnMessage(from, msg)
					if stop != nil && stop(from, to, msg) {
						return true
					}
				}
			}
		}
		if !moved {
			return false
		}
	}
	return false
}

// fireJoinTimeouts triggers gather timeouts where armed.
func (w *pairWorld) fireJoinTimeouts() {
	for _, id := range w.ids {
		if _, ok := w.envs[id].timers[TimerJoin]; ok {
			w.nodes[id].OnTimer(TimerJoin)
		}
	}
	w.pump()
}

// rotateTokens processes pending token traffic a few rounds (tokens are in
// the broadcast stream already; this just pumps).
func (w *pairWorld) spin(n int) {
	for i := 0; i < n; i++ {
		w.pump()
	}
}

func (w *pairWorld) startAll() {
	for _, id := range w.ids {
		w.nodes[id].Start()
	}
	w.pump()
	w.fireJoinTimeouts()
	w.spin(4)
}

func TestPairFormsSharedRing(t *testing.T) {
	w := newPairWorld(t, "a", "b")
	w.startAll()
	for _, id := range w.ids {
		n := w.nodes[id]
		if n.Mode() != Operational {
			t.Fatalf("%s mode %v, want operational", id, n.Mode())
		}
		if !n.CurrentConfig().Members.Equal(model.NewProcessSet("a", "b")) {
			t.Fatalf("%s config %v", id, n.CurrentConfig())
		}
	}
	if w.nodes["a"].CurrentConfig().ID != w.nodes["b"].CurrentConfig().ID {
		t.Fatal("nodes installed different rings")
	}
}

func TestPairSafeDeliveryBothSides(t *testing.T) {
	w := newPairWorld(t, "a", "b")
	w.startAll()
	if err := w.nodes["a"].Submit([]byte("x"), model.Safe); err != nil {
		t.Fatal(err)
	}
	w.spin(8)
	for _, id := range w.ids {
		ds := w.envs[id].deliver
		if len(ds) != 1 || string(ds[0].Payload) != "x" {
			t.Fatalf("%s deliveries %v", id, ds)
		}
	}
}

func TestPairRecoveryDeliversTransitionalConfigs(t *testing.T) {
	w := newPairWorld(t, "a", "b")
	w.startAll()
	// Partition: all cross traffic cut; both should reform singletons
	// after token loss and join timeout.
	w.cut = func(from, to model.ProcessID) bool { return from != to }
	w.nodes["a"].OnTimer(TimerTokenLoss)
	w.nodes["b"].OnTimer(TimerTokenLoss)
	w.pump()
	for i := 0; i < 4; i++ {
		w.fireJoinTimeouts()
		w.spin(2)
	}
	for _, id := range w.ids {
		n := w.nodes[id]
		if n.Mode() != Operational {
			t.Fatalf("%s mode %v after partition, want operational singleton", id, n.Mode())
		}
		if !n.CurrentConfig().Members.Equal(model.NewProcessSet(id)) {
			t.Fatalf("%s config %v, want singleton", id, n.CurrentConfig())
		}
	}
	// The configuration stream at a must contain a transitional config
	// whose membership is {a} bridging the pair ring to the singleton.
	foundTrans := false
	for _, cc := range w.envs["a"].confs {
		if cc.Config.ID.IsTransitional() && cc.Config.Members.Equal(model.NewProcessSet("a")) {
			foundTrans = true
		}
	}
	if !foundTrans {
		t.Fatalf("no singleton transitional configuration at a: %v", w.envs["a"].confs)
	}

	// Heal: foreign traffic triggers remerge into a shared ring.
	w.cut = nil
	// b's next token broadcast will reach a as foreign traffic; force
	// some activity.
	_ = w.nodes["b"].Submit([]byte("wake"), model.Agreed)
	for i := 0; i < 6; i++ {
		w.fireJoinTimeouts()
		w.spin(3)
	}
	if w.nodes["a"].CurrentConfig().ID != w.nodes["b"].CurrentConfig().ID {
		t.Fatalf("remerge failed: %v vs %v",
			w.nodes["a"].CurrentConfig(), w.nodes["b"].CurrentConfig())
	}
	if !w.nodes["a"].CurrentConfig().Members.Equal(model.NewProcessSet("a", "b")) {
		t.Fatalf("merged config %v", w.nodes["a"].CurrentConfig())
	}
}

func TestPairPendingMessagesCarriedAcrossReconfiguration(t *testing.T) {
	w := newPairWorld(t, "a", "b")
	w.startAll()
	// Submit while operational but suppress token processing by cutting
	// everything, then reconfigure: the message must be re-sequenced in
	// the next configuration and delivered (self-delivery).
	w.cut = func(from, to model.ProcessID) bool { return true }
	if err := w.nodes["a"].Submit([]byte("carried"), model.Safe); err != nil {
		t.Fatal(err)
	}
	w.envs["a"].take() // drop whatever was broadcast
	w.nodes["a"].OnTimer(TimerTokenLoss)
	w.cut = func(from, to model.ProcessID) bool { return from != to }
	for i := 0; i < 4; i++ {
		w.fireJoinTimeouts()
		w.spin(2)
	}
	found := false
	for _, d := range w.envs["a"].deliver {
		if string(d.Payload) == "carried" {
			found = true
		}
	}
	if !found {
		t.Fatalf("pending message lost across reconfiguration: %v", w.envs["a"].deliver)
	}
}

func TestPairCrashRecoverRejoins(t *testing.T) {
	w := newPairWorld(t, "a", "b")
	w.startAll()
	_ = w.nodes["a"].Submit([]byte("pre"), model.Safe)
	w.spin(8)
	w.nodes["b"].Crash()
	w.envs["b"].take()
	// b recovers; joins flow; they reform a shared ring.
	w.nodes["b"].Recover()
	for i := 0; i < 6; i++ {
		w.fireJoinTimeouts()
		w.spin(3)
	}
	if w.nodes["a"].CurrentConfig().ID != w.nodes["b"].CurrentConfig().ID {
		t.Fatalf("rejoin failed: %v vs %v",
			w.nodes["a"].CurrentConfig(), w.nodes["b"].CurrentConfig())
	}
	// b must not re-deliver "pre" after recovery (watermark persisted).
	count := 0
	for _, d := range w.envs["b"].deliver {
		if string(d.Payload) == "pre" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("b delivered 'pre' %d times, want once", count)
	}
}

func TestPairStateMachineTraceConforms(t *testing.T) {
	w := newPairWorld(t, "a", "b")
	w.startAll()
	_ = w.nodes["a"].Submit([]byte("m1"), model.Safe)
	_ = w.nodes["b"].Submit([]byte("m2"), model.Agreed)
	w.spin(8)
	var events []model.Event
	// Interleave the two traces by replaying env traces in rough
	// causal order: alternate small batches. The checker's generating
	// edges only need per-process order and send-before-deliver, which
	// loopback pumping preserved in each env's slice; merge by simple
	// round-robin while keeping per-process order (take from the env
	// whose next event is a send/conf first).
	a, b := w.envs["a"].trace, w.envs["b"].trace
	// Conservative merge: all of a's events before b's would break
	// send/deliver ordering, so interleave by type priority per step.
	ai, bi := 0, 0
	for ai < len(a) || bi < len(b) {
		takeA := ai < len(a)
		if takeA && bi < len(b) {
			// Prefer the event that is a send or conf, they come
			// earliest in protocol order; otherwise alternate.
			if b[bi].Type == model.EventSend && a[ai].Type == model.EventDeliver {
				takeA = false
			}
		}
		if takeA {
			events = append(events, a[ai])
			ai++
		} else {
			events = append(events, b[bi])
			bi++
		}
	}
	_ = events
	// The merged trace ordering above is heuristic; assert only
	// per-process invariants via the per-env traces instead.
	for _, id := range w.ids {
		var sends int
		for _, e := range w.envs[id].trace {
			if e.Type == model.EventSend {
				sends++
			}
		}
		delivers := len(w.envs[id].deliver) // the deliver events, derived by the host
		if sends != 1 {
			t.Fatalf("%s traced %d sends, want 1", id, sends)
		}
		if delivers != 2 {
			t.Fatalf("%s traced %d deliveries, want 2", id, delivers)
		}
	}
}

// TestRecoveryAllocBoundedByWindow runs a two-process ring until both
// members' receipt watermarks pass 100,000 with trimming active, then
// forces a reconfiguration. The bytes allocated from the token loss to the
// new ring's installation must be bounded by the retained window — the
// entries the old ring still held — not by the watermark: a recovery that
// enumerated 1..MyAru would allocate for every message the configuration
// ever ordered.
func TestRecoveryAllocBoundedByWindow(t *testing.T) {
	w := newPairWorld(t, "a", "b")
	w.startAll()
	const target = 100_000
	payload := make([]byte, 16)
	low := func() uint64 {
		return min(w.nodes["a"].ring.Watermarks().MyAru, w.nodes["b"].ring.Watermarks().MyAru)
	}
	for low() < target {
		for _, id := range w.ids {
			n := w.nodes[id]
			for n.PendingDepth() < 512 {
				if err := n.Submit(payload, model.Agreed); err != nil {
					t.Fatalf("%s: %v", id, err)
				}
			}
			w.envs[id].deliver, w.envs[id].trace = nil, nil
		}
		w.pump()
	}
	w.spin(4) // drain the backlog
	window := 0
	for _, id := range w.ids {
		r := w.nodes[id].ring
		if r.Trimmed() == 0 {
			t.Fatalf("%s: no trim after %d messages", id, r.Watermarks().MyAru)
		}
		window += r.Len()
		w.envs[id].deliver, w.envs[id].trace, w.envs[id].confs = nil, nil, nil
	}
	old, aru := w.nodes["a"].CurrentConfig().ID, low()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, id := range w.ids {
		w.nodes[id].OnTimer(TimerTokenLoss)
	}
	w.pump()
	w.fireJoinTimeouts()
	w.spin(4)
	runtime.ReadMemStats(&after)

	for _, id := range w.ids {
		if n := w.nodes[id]; n.Mode() != Operational || n.CurrentConfig().ID == old {
			t.Fatalf("%s did not reconfigure: mode %v config %v", id, n.Mode(), n.CurrentConfig().ID)
		}
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	// A seqlog.Entry is under 256 B; the fixed part covers membership,
	// the exchange and the new ring.
	if bound := uint64(256*window + 512<<10); bytes > bound {
		t.Fatalf("reconfiguration at MyAru %d allocated %d B over a retained window of %d entries (bound %d B)", aru, bytes, window, bound)
	}
	t.Logf("reconfiguration at MyAru %d: %d B allocated over a retained window of %d entries", aru, bytes, window)
}

// TestOneHostCallPerDelivery counts the node's host calls. Every delivered
// message reaches the host through exactly one Deliver and no deliver
// Trace: on the ring, and through the Step 6 deliveries of a partition's
// recovery. Sends and configuration changes are still traced.
func TestOneHostCallPerDelivery(t *testing.T) {
	w := newPairWorld(t, "a", "b")
	w.startAll()
	submitted := map[model.ProcessID]int{}
	submit := func(id model.ProcessID, k int, svc model.Service) {
		for i := 0; i < k; i++ {
			if err := w.nodes[id].Submit([]byte{byte(i)}, svc); err != nil {
				t.Fatalf("%s: Submit: %v", id, err)
			}
			submitted[id]++
		}
	}
	submit("a", 4, model.Agreed)
	submit("b", 4, model.Safe)
	w.spin(4)
	// Safe messages that reach b but cannot become safe before the
	// partition: the recovery delivers them in the transitional
	// configuration.
	submit("a", 3, model.Safe)
	w.pumpUntil(func(from, to model.ProcessID, msg wire.Message) bool {
		_, batch := msg.(wire.DataBatch)
		return from == "a" && to == "b" && batch
	})
	w.cut = func(from, to model.ProcessID) bool { return from != to }
	w.nodes["a"].OnTimer(TimerTokenLoss)
	w.nodes["b"].OnTimer(TimerTokenLoss)
	w.pump()
	for i := 0; i < 4; i++ {
		w.fireJoinTimeouts()
		w.spin(2)
	}
	transitional := 0
	for _, id := range w.ids {
		env := w.envs[id]
		seen := map[model.MessageID]bool{}
		for _, d := range env.deliver {
			if seen[d.Msg] {
				t.Fatalf("%s: %v handed to the host twice", id, d.Msg)
			}
			seen[d.Msg] = true
			if d.Config.ID.IsTransitional() {
				transitional++
			}
		}
		var sends, confs int
		for _, e := range env.trace {
			switch e.Type {
			case model.EventDeliver:
				t.Fatalf("%s: the node traced a deliver event (%v); Deliver is the one host call", id, e.Msg)
			case model.EventSend:
				sends++
			case model.EventDeliverConf:
				confs++
			}
		}
		if sends != submitted[id] || confs != len(env.confs) || confs == 0 {
			t.Fatalf("%s: traced %d sends and %d configuration changes, want %d and %d", id, sends, confs, submitted[id], len(env.confs))
		}
		if !seen[model.MessageID{Sender: id, SenderSeq: uint64(submitted[id])}] {
			t.Fatalf("%s never delivered its own last message: %v", id, env.deliver)
		}
	}
	if transitional == 0 {
		t.Fatal("no delivery in a transitional configuration: the Step 6 path went untested")
	}
}

// TestTokenRouting pins where each token goes. On a medium that can
// address one process, a non-representative sends its forwards and
// re-sends to its ring successor alone, and the representative
// broadcasts its first token and every forward: one beacon per
// rotation. On a broadcast-only medium every token is broadcast.
func TestTokenRouting(t *testing.T) {
	ids := []model.ProcessID{"p1", "p2", "p3", "p4"}
	const rep = "p1"
	for _, unicast := range []bool{true, false} {
		w := newWorld(t, unicast, ids...)
		routes := make(map[model.ProcessID][]model.ProcessID) // token addressees per sender
		var first []model.ProcessID                           // addressees of TokenID 1
		w.onSend = func(from, to model.ProcessID, msg wire.Message) {
			if tok, ok := msg.(wire.Token); ok {
				routes[from] = append(routes[from], to)
				if tok.TokenID == 1 {
					first = append(first, to)
				}
			}
		}
		w.startAll()
		w.spin(3)
		want := model.NewProcessSet(ids...)
		for _, id := range ids {
			if n := w.nodes[id]; n.Mode() != Operational || !n.CurrentConfig().Members.Equal(want) {
				t.Fatalf("unicast=%v: %s mode %v config %v", unicast, id, n.Mode(), n.CurrentConfig())
			}
		}
		// A re-send at a non-representative and at the representative.
		for _, id := range []model.ProcessID{"p3", rep} {
			w.nodes[id].OnTimer(TimerTokenRetrans)
			env := w.envs[id]
			if k := len(env.sent); k == 0 {
				t.Fatalf("unicast=%v: %s re-sent nothing", unicast, id)
			} else if _, ok := env.sent[k-1].(wire.Token); !ok {
				t.Fatalf("unicast=%v: %s re-sent %T, want a token", unicast, id, env.sent[k-1])
			}
		}
		w.pump()

		if len(first) != 1 || first[0] != "" {
			t.Fatalf("unicast=%v: first token addressees %q, want one broadcast", unicast, first)
		}
		for _, id := range ids {
			if n := len(routes[id]); n < 4 {
				t.Fatalf("unicast=%v: %s sent %d tokens, want at least 3 rotations' worth", unicast, id, n)
			}
			next, _ := want.Next(id)
			for i, to := range routes[id] {
				wantTo := model.ProcessID("")
				if unicast && id != rep {
					wantTo = next
				}
				if to != wantTo {
					t.Fatalf("unicast=%v: %s token %d addressed to %q, want %q", unicast, id, i, to, wantTo)
				}
			}
		}
		// The ring still orders over the routed tokens.
		if err := w.nodes["p3"].Submit([]byte("x"), model.Safe); err != nil {
			t.Fatal(err)
		}
		w.spin(4)
		for _, id := range ids {
			if ds := w.envs[id].deliver; len(ds) != 1 || string(ds[0].Payload) != "x" {
				t.Fatalf("unicast=%v: %s deliveries %v", unicast, id, ds)
			}
		}
	}
}
