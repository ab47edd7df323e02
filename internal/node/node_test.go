package node

import (
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/stable"
	"repro/internal/wire"
)

// mockEnv records the node's outputs and lets tests fire timers manually.
type mockEnv struct {
	sent    []wire.Message
	to      []model.ProcessID // per sent message: its addressee, "" for a broadcast
	timers  map[TimerKind]time.Duration
	deliver []Delivery
	confs   []ConfigChange
	trace   []model.Event
}

var (
	_ Transport = (*mockEnv)(nil)
	_ Host      = (*mockEnv)(nil)
)

func newMockEnv() *mockEnv {
	return &mockEnv{timers: make(map[TimerKind]time.Duration)}
}

func (m *mockEnv) Broadcast(msg wire.Message)            { m.send("", msg) }
func (m *mockEnv) SetTimer(k TimerKind, d time.Duration) { m.timers[k] = d }
func (m *mockEnv) CancelTimer(k TimerKind)               { delete(m.timers, k) }
func (m *mockEnv) Deliver(d Delivery)                    { m.deliver = append(m.deliver, d) }
func (m *mockEnv) DeliverConfig(c ConfigChange)          { m.confs = append(m.confs, c) }
func (m *mockEnv) Trace(e model.Event)                   { m.trace = append(m.trace, e) }

func (m *mockEnv) send(to model.ProcessID, msg wire.Message) {
	m.sent = append(m.sent, msg)
	m.to = append(m.to, to)
}

func (m *mockEnv) take() []wire.Message {
	out, _ := m.takeRouted()
	return out
}

// takeRouted is take with each message's addressee ("" for a broadcast).
func (m *mockEnv) takeRouted() ([]wire.Message, []model.ProcessID) {
	out, to := m.sent, m.to
	m.sent, m.to = nil, nil
	return out, to
}

// unicastEnv is a mockEnv whose medium can also address one process.
type unicastEnv struct{ *mockEnv }

func (u unicastEnv) Unicast(to model.ProcessID, msg wire.Message) { u.send(to, msg) }

func newNode(id model.ProcessID) (*Node, *mockEnv, *stable.Store) {
	env := newMockEnv()
	store := &stable.Store{}
	n := New(id, DefaultConfig(), env, env, store)
	return n, env, store
}

func TestStartBeginsGathering(t *testing.T) {
	n, env, _ := newNode("p")
	n.Start()
	if n.Mode() != Gathering {
		t.Fatalf("mode %v, want gathering", n.Mode())
	}
	msgs := env.take()
	if len(msgs) == 0 {
		t.Fatal("start should broadcast a join")
	}
	if _, ok := msgs[0].(wire.Join); !ok {
		t.Fatalf("first message %T, want join", msgs[0])
	}
	if _, ok := env.timers[TimerJoin]; !ok {
		t.Fatal("join timer should be armed")
	}
}

func TestSubmitWhileDownFails(t *testing.T) {
	n, _, _ := newNode("p")
	n.Start()
	n.Crash()
	if err := n.Submit([]byte("x"), model.Safe); err != ErrDown {
		t.Fatalf("Submit on down node: %v, want ErrDown", err)
	}
}

func TestCrashEmitsFailEventAndClearsTimers(t *testing.T) {
	n, env, _ := newNode("p")
	n.Start()
	n.Crash()
	if n.Mode() != Down {
		t.Fatalf("mode %v, want down", n.Mode())
	}
	found := false
	for _, e := range env.trace {
		if e.Type == model.EventFail && e.Proc == "p" {
			found = true
		}
	}
	if !found {
		t.Fatal("crash should emit a fail event")
	}
	if len(env.timers) != 0 {
		t.Fatalf("timers after crash: %v", env.timers)
	}
	// Idempotent: a second crash emits nothing new.
	before := len(env.trace)
	n.Crash()
	if len(env.trace) != before {
		t.Fatal("double crash should be a no-op")
	}
}

func TestSenderSeqSurvivesCrash(t *testing.T) {
	n, _, store := newNode("p")
	n.Start()
	_ = n.Submit([]byte("a"), model.Agreed)
	_ = n.Submit([]byte("b"), model.Agreed)
	if store.Load().SenderSeq != 2 {
		t.Fatalf("persisted sender seq %d, want 2", store.Load().SenderSeq)
	}
	n.Crash()
	n.Recover()
	_ = n.Submit([]byte("c"), model.Agreed)
	if store.Load().SenderSeq != 3 {
		t.Fatalf("post-recovery sender seq %d, want 3 (no reuse)", store.Load().SenderSeq)
	}
}

func TestDownNodeIgnoresMessagesAndTimers(t *testing.T) {
	n, env, _ := newNode("p")
	n.Start()
	n.Crash()
	env.take()
	n.OnMessage("q", wire.Join{Sender: "q", Alive: []model.ProcessID{"p", "q"}, Attempt: 1})
	n.OnTimer(TimerJoin)
	if len(env.take()) != 0 {
		t.Fatal("down node must not transmit")
	}
}

// driveToSingleton pushes a lone node through gather timeout to a singleton
// ring, looping messages back to it (loopback of the broadcast medium).
func driveToSingleton(t *testing.T, n *Node, env *mockEnv) {
	t.Helper()
	loop := func() {
		for _, msg := range env.take() {
			n.OnMessage(n.ID(), msg)
		}
	}
	loop()
	// Join timeout authorises singleton consensus.
	for i := 0; i < 5 && n.Mode() != Operational; i++ {
		n.OnTimer(TimerJoin)
		loop()
		loop()
		loop()
	}
	if n.Mode() != Operational {
		t.Fatalf("singleton did not form: mode %v", n.Mode())
	}
}

func TestSingletonFormsAndDeliversOwnSafeMessage(t *testing.T) {
	n, env, _ := newNode("p")
	n.Start()
	driveToSingleton(t, n, env)
	cfg := n.CurrentConfig()
	if !cfg.Members.Equal(model.NewProcessSet("p")) {
		t.Fatalf("singleton config %v", cfg)
	}
	if len(env.confs) == 0 {
		t.Fatal("configuration change should reach the application")
	}

	_ = n.Submit([]byte("mine"), model.Safe)
	// Loop tokens and data back (singleton ring: self-successor).
	for i := 0; i < 6 && len(env.deliver) == 0; i++ {
		for _, msg := range env.take() {
			n.OnMessage("p", msg)
		}
	}
	if len(env.deliver) != 1 || string(env.deliver[0].Payload) != "mine" {
		t.Fatalf("deliveries %v", env.deliver)
	}
	if env.deliver[0].Service != model.Safe {
		t.Fatal("service level lost")
	}
}

func TestTraceSendEmittedAtSequencing(t *testing.T) {
	n, env, _ := newNode("p")
	n.Start()
	driveToSingleton(t, n, env)
	_ = n.Submit([]byte("x"), model.Agreed)
	for i := 0; i < 6; i++ {
		for _, msg := range env.take() {
			n.OnMessage("p", msg)
		}
	}
	var sends int
	for _, e := range env.trace {
		if e.Type == model.EventSend {
			sends++
			if e.Config != n.CurrentConfig().ID {
				t.Fatalf("send traced in %v, want %v", e.Config, n.CurrentConfig().ID)
			}
		}
	}
	delivers := len(env.deliver) // the deliver events, derived by the host
	if sends != 1 || delivers != 1 {
		t.Fatalf("trace sends=%d delivers=%d, want 1/1", sends, delivers)
	}
}

func TestRecoveredNodeRedeliversNothing(t *testing.T) {
	n, env, _ := newNode("p")
	n.Start()
	driveToSingleton(t, n, env)
	_ = n.Submit([]byte("once"), model.Safe)
	for i := 0; i < 6; i++ {
		for _, msg := range env.take() {
			n.OnMessage("p", msg)
		}
	}
	if len(env.deliver) != 1 {
		t.Fatalf("deliveries before crash: %d", len(env.deliver))
	}
	n.Crash()
	n.Recover()
	driveToSingleton(t, n, env)
	for i := 0; i < 6; i++ {
		for _, msg := range env.take() {
			n.OnMessage("p", msg)
		}
	}
	if len(env.deliver) != 1 {
		t.Fatalf("recovered node re-delivered: %v", env.deliver)
	}
}

func TestTokenLossTriggersGather(t *testing.T) {
	n, env, _ := newNode("p")
	n.Start()
	driveToSingleton(t, n, env)
	env.take()
	n.OnTimer(TimerTokenLoss)
	if n.Mode() != Gathering {
		t.Fatalf("mode %v after token loss, want gathering", n.Mode())
	}
	joins := 0
	for _, m := range env.take() {
		if _, ok := m.(wire.Join); ok {
			joins++
		}
	}
	if joins == 0 {
		t.Fatal("token loss should broadcast a join")
	}
}

func TestForeignTrafficTriggersGather(t *testing.T) {
	n, env, _ := newNode("p")
	n.Start()
	driveToSingleton(t, n, env)
	env.take()
	foreign := wire.Token{Ring: model.RegularID(9, "z"), TokenID: 3}
	n.OnMessage("z", foreign)
	if n.Mode() != Gathering {
		t.Fatalf("mode %v after foreign token, want gathering", n.Mode())
	}
}

func TestStaleJoinFromMemberIgnored(t *testing.T) {
	n, env, _ := newNode("p")
	n.Start()
	driveToSingleton(t, n, env)
	env.take()
	// A stale join from p itself (member, old ring knowledge).
	n.OnMessage("p", wire.Join{Sender: "p", Alive: []model.ProcessID{"p"}, MaxRingSeq: 0, Attempt: 999})
	if n.Mode() != Operational {
		t.Fatalf("mode %v, stale join must not disturb the ring", n.Mode())
	}
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{
		Operational: "operational", Gathering: "gathering",
		Recovering: "recovering", Down: "down",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}

func TestMembershipPhaseVisibleThroughMode(t *testing.T) {
	n, _, _ := newNode("p")
	n.Start()
	// Another process joins: consensus on {p,q} reaches commit, p being
	// the representative broadcasts Commit.
	n.OnMessage("q", wire.Join{Sender: "q", Alive: []model.ProcessID{"p", "q"}, Attempt: 1})
	if n.Mode() != Gathering {
		t.Fatalf("mode %v, want gathering while commit pending", n.Mode())
	}
	if n.mem.Phase() != membership.Commit {
		t.Fatalf("membership phase %v, want commit", n.mem.Phase())
	}
}

func TestBroadcastDataChunksIntoBatches(t *testing.T) {
	env := newMockEnv()
	cfg := DefaultConfig()
	cfg.MaxBatch = 2
	n := New("p", cfg, env, env, &stable.Store{})
	ds := make([]wire.Data, 5)
	for i := range ds {
		ds[i] = wire.Data{Seq: uint64(i + 1)}
	}
	n.broadcastData(ds)
	msgs := env.take()
	if len(msgs) != 3 {
		t.Fatalf("sent %d packets, want 3 (2+2+1)", len(msgs))
	}
	for i, want := range []int{2, 2} {
		b, ok := msgs[i].(wire.DataBatch)
		if !ok || len(b.Msgs) != want {
			t.Fatalf("packet %d = %v, want batch of %d", i, msgs[i], want)
		}
	}
	if d, ok := msgs[2].(wire.Data); !ok || d.Seq != 5 {
		t.Fatalf("trailing packet = %v, want single data seq 5", msgs[2])
	}

	// A full chunk at the end stays one batch; a lone message is sent bare.
	n.broadcastData(ds[:2])
	if msgs = env.take(); len(msgs) != 1 {
		t.Fatalf("sent %d packets for exact chunk, want 1", len(msgs))
	}
	if b, ok := msgs[0].(wire.DataBatch); !ok || len(b.Msgs) != 2 {
		t.Fatalf("packet = %v, want batch of 2", msgs[0])
	}
	n.broadcastData(ds[:1])
	if msgs = env.take(); len(msgs) != 1 {
		t.Fatalf("sent %d packets for one message, want 1", len(msgs))
	}
	if _, ok := msgs[0].(wire.Data); !ok {
		t.Fatalf("packet = %T, want bare data", msgs[0])
	}
}

func TestBroadcastDataDisabledBatchingSendsSingles(t *testing.T) {
	env := newMockEnv()
	cfg := DefaultConfig()
	cfg.MaxBatch = 1
	n := New("p", cfg, env, env, &stable.Store{})
	n.broadcastData([]wire.Data{{Seq: 1}, {Seq: 2}, {Seq: 3}})
	msgs := env.take()
	if len(msgs) != 3 {
		t.Fatalf("sent %d packets, want 3 singles", len(msgs))
	}
	for i, m := range msgs {
		if _, ok := m.(wire.Data); !ok {
			t.Fatalf("packet %d = %T, want bare data", i, m)
		}
	}
}

func TestSubmitBacklogBounded(t *testing.T) {
	env := newMockEnv()
	cfg := DefaultConfig()
	cfg.MaxPending = 2
	n := New("p", cfg, env, env, &stable.Store{})
	n.Start()
	for i := 0; i < 2; i++ {
		if err := n.Submit([]byte("x"), model.Safe); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := n.Submit([]byte("x"), model.Safe); err != ErrBacklog {
		t.Fatalf("submit over bound returned %v, want ErrBacklog", err)
	}
	if got := n.PendingDepth(); got != 2 {
		t.Fatalf("PendingDepth = %d, want 2", got)
	}
}
