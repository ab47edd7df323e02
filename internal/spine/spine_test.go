package spine

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/primary"
	"repro/internal/seqlog"
	"repro/internal/sim"
	"repro/internal/stable"
	"repro/internal/transport"
	"repro/internal/wire"
)

// loop is a one-process medium: every broadcast comes back to the sender
// on its own goroutine, as a real transport's self-delivery does.
type loop struct {
	mu     sync.Mutex
	sent   []wire.Message
	in     chan wire.Message
	closed bool
	wg     sync.WaitGroup
}

func newLoop(self model.ProcessID, h Handler) *loop {
	l := &loop{in: make(chan wire.Message, 1024)}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for msg := range l.in {
			h(self, msg)
		}
	}()
	return l
}

func (l *loop) Broadcast(msg wire.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sent = append(l.sent, msg)
	if !l.closed {
		l.in <- msg
	}
}

func (l *loop) Close() error {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.in)
	}
	l.mu.Unlock()
	l.wg.Wait()
	return nil
}

func (l *loop) broadcasts() []wire.Message {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]wire.Message(nil), l.sent...)
}

// fastConfig shortens the timers so a singleton ring forms in milliseconds.
func fastConfig() node.Config {
	cfg := node.DefaultConfig()
	cfg.JoinRetry = 2 * time.Millisecond
	cfg.CommitTimeout = 5 * time.Millisecond
	return cfg
}

// TestStartHoldsLockUntilNodeStarted is the regression test for the
// construction-order bug daemon.New had: it started its transport before
// its node existed, so a peer's packet arriving in between dereferenced a
// nil node on a transport goroutine. Here the transport's handler fires
// from another goroutine before the dial function has even returned; the
// call must wait, not panic, and be processed once the node has started.
func TestStartHoldsLockUntilNodeStarted(t *testing.T) {
	rec := NewRecorder(Wall(), []model.ProcessID{"p01"}, Options{})
	var (
		l       *loop
		handled = make(chan struct{})
	)
	p, err := Start(rec, "p01", fastConfig(), func(_ model.ProcessID, h Handler, _ *obs.Metrics) (Medium, error) {
		l = newLoop("p01", h)
		calling := make(chan struct{})
		go func() {
			defer close(handled)
			close(calling)
			h("p02", wire.Join{Sender: "p02", Alive: []model.ProcessID{"p02"}, Attempt: 1})
		}()
		<-calling
		time.Sleep(20 * time.Millisecond) // let the early call reach the process lock
		select {
		case <-handled:
			t.Error("the handler ran before the node existed")
		default:
		}
		return l, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	select {
	case <-handled:
	case <-time.After(5 * time.Second):
		t.Fatal("the early message was never processed")
	}
	// Start's own join went out first; the early join was processed after
	// it and answered with a join that names its sender.
	sent := l.broadcasts()
	if len(sent) < 2 {
		t.Fatalf("broadcasts = %v, want the boot join then the answer", sent)
	}
	first, ok := sent[0].(wire.Join)
	if !ok || len(first.Alive) != 1 || first.Alive[0] != "p01" {
		t.Fatalf("first broadcast = %#v, want the boot join of p01 alone", sent[0])
	}
	answered := false
	for _, m := range sent[1:] {
		if j, ok := m.(wire.Join); ok && model.NewProcessSet(j.Alive...).Contains("p02") {
			answered = true
		}
	}
	if !answered {
		t.Fatalf("no join after boot names p02: %v", sent)
	}
}

// TestDialErrorFailsStart: a transport that cannot open fails the process,
// and nothing is registered.
func TestDialErrorFailsStart(t *testing.T) {
	rec := NewRecorder(Wall(), []model.ProcessID{"p01"}, Options{})
	boom := errors.New("no socket")
	if _, err := Start(rec, "p01", fastConfig(), func(model.ProcessID, Handler, *obs.Metrics) (Medium, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Start = %v, want the dial error", err)
	}
	if rec.Proc("p01") != nil {
		t.Fatal("a process that never started was registered")
	}
}

// TestDiscardHistoryKeepsCountsTapsAndConfigs drives a singleton ring on
// the wall clock with DiscardHistory: nothing is retained per message,
// but counts, configuration changes, observers and the raw taps all keep
// working — what the daemon runs on.
func TestDiscardHistoryKeepsCountsTapsAndConfigs(t *testing.T) {
	rec := NewRecorder(Wall(), []model.ProcessID{"p01"}, Options{DiscardHistory: true})
	var (
		mu     sync.Mutex
		tapped []string
		traced int
		seen   []string
	)
	rec.OnDeliver = func(id model.ProcessID, d node.Delivery) {
		mu.Lock()
		tapped = append(tapped, string(d.Payload))
		mu.Unlock()
	}
	rec.OnTrace = func(model.Event) {
		mu.Lock()
		traced++
		mu.Unlock()
	}
	rec.AddObserver(observerFunc(func(id model.ProcessID, d Delivery) {
		mu.Lock()
		seen = append(seen, string(d.Payload))
		mu.Unlock()
	}))
	p, err := Start(rec, "p01", fastConfig(), func(_ model.ProcessID, h Handler, _ *obs.Metrics) (Medium, error) {
		return newLoop("p01", h), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !rec.WaitOperational(5 * time.Second) {
		t.Fatalf("singleton ring never formed (mode %s)", rec.Mode("p01"))
	}
	for _, m := range []string{"a", "b", "c"} {
		if err := rec.Submit("p01", []byte(m), model.Agreed); err != nil {
			t.Fatal(err)
		}
	}
	if !rec.WaitDeliveries("p01", 3, 5*time.Second) {
		t.Fatalf("delivered %d of 3", rec.DeliveryCount("p01"))
	}
	if ds := rec.Deliveries("p01"); ds != nil {
		t.Errorf("retained %d deliveries", len(ds))
	}
	if h := rec.History(); len(h) != 0 {
		t.Errorf("retained %d trace events", len(h))
	}
	if cs := rec.Configs("p01"); len(cs) == 0 || !cs[len(cs)-1].ID.IsRegular() {
		t.Errorf("configuration changes = %v, want a regular one last", cs)
	}
	mu.Lock()
	defer mu.Unlock()
	want := "abc"
	if got := join(tapped); got != want {
		t.Errorf("tap saw %q, want %q", got, want)
	}
	if got := join(seen); got != want {
		t.Errorf("observer saw %q, want %q", got, want)
	}
	if traced == 0 {
		t.Error("trace tap saw nothing")
	}
	if st := rec.Stats(); st.Submitted != 3 {
		t.Errorf("stats = %+v, want 3 submitted", st)
	}
}

// TestCloseSilencesAndIsIdempotent: a closed process refuses submissions,
// reports itself closed, drops out of WaitOperational, and closes twice.
func TestCloseSilencesAndIsIdempotent(t *testing.T) {
	rec := NewRecorder(Wall(), []model.ProcessID{"p01"}, Options{})
	p, err := Start(rec, "p01", fastConfig(), func(_ model.ProcessID, h Handler, _ *obs.Metrics) (Medium, error) {
		return newLoop("p01", h), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.WaitOperational(5 * time.Second) {
		t.Fatal("singleton ring never formed")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := p.Submit([]byte("late"), model.Agreed); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if _, _, closed := p.State(); !closed {
		t.Error("State does not report the process closed")
	}
	if rec.WaitOperational(10 * time.Millisecond) {
		t.Error("a cluster with no live process counts as operational")
	}
	if st := rec.Stats(); st.Rejected != 1 {
		t.Errorf("stats = %+v, want the late submit counted as rejected", st)
	}
}

type observerFunc func(model.ProcessID, Delivery)

func (f observerFunc) OnDelivery(id model.ProcessID, d Delivery) { f(id, d) }
func (observerFunc) OnConfigChange(model.ProcessID, ConfigEvent) {}

func join(ss []string) string {
	out := ""
	for _, s := range ss {
		out += s
	}
	return out
}

// nowhere is a medium that drops everything.
type nowhere struct{}

func (nowhere) Broadcast(wire.Message) {}
func (nowhere) Close() error           { return nil }

// TestPrimaryPersistenceLeavesTheLogAlone runs the primary layer's two
// record writes — an attempt, then an installed primary — at a process
// that restarted from a stored log and then merged an old-ring straggler
// into it, and crashes the process. The writes replace the primary
// records and nothing else: the log the crash stores is the restart's
// window plus the straggler, and a torn write destroys the straggler, the
// last entry the process put, alone.
func TestPrimaryPersistenceLeavesTheLogAlone(t *testing.T) {
	rec := NewRecorder(Virtual(&sim.Scheduler{}), []model.ProcessID{"p01"}, Options{Envelope: true, Primary: true})
	p, err := Start(rec, "p01", fastConfig(), func(model.ProcessID, Handler, *obs.Metrics) (Medium, error) {
		return nowhere{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Store()
	ring := model.RegularID(1, "p01")
	cfg := model.Configuration{ID: ring, Members: model.NewProcessSet("p01")}
	data := func(seq uint64) wire.Data {
		return wire.Data{ID: model.MessageID{Sender: "p01", SenderSeq: seq}, Ring: ring, Seq: seq, Service: model.Agreed, Payload: []byte{byte(seq)}}
	}
	// What an earlier failure of a member of cfg left: five entries.
	rec.Crash("p01")
	var earlier seqlog.Log
	for seq := uint64(1); seq <= 5; seq++ {
		d := data(seq)
		e, _ := earlier.Put(seq)
		e.Set(&d)
	}
	st.Save(stable.Record{LastRegular: cfg, MaxRingSeq: 1, HighestSeen: 5})
	st.SaveLog(ring, &earlier, 5)
	rec.Recover("p01")
	p.OnMessage("p02", data(6))

	rec.applyPrimary(p, []primary.Action{primary.PersistAttempt{Cfg: cfg}, primary.PersistPrimary{Cfg: cfg}})
	rec.Crash("p01")

	got, after, errs := st.LoadChecked()
	if len(errs) != 0 || after.Base() != 0 || after.Len() != 6 {
		t.Fatalf("the crash stored base %d, %d entries, errors %v; want the six the process held", after.Base(), after.Len(), errs)
	}
	for seq := uint64(1); seq <= 6; seq++ {
		if e := after.Get(seq); e == nil || !reflect.DeepEqual(e.Data(ring), data(seq)) {
			t.Fatalf("entry %d stored as %+v, want %+v", seq, e, data(seq))
		}
	}
	if got.LastPrimary.ID != ring || !got.PrimaryAttempt.ID.IsZero() {
		t.Fatalf("primary records = %v / %v, want the installed primary and no attempt", got.LastPrimary.ID, got.PrimaryAttempt.ID)
	}
	if !st.TearLastWrite() {
		t.Fatal("the torn write found no last-put entry")
	}
	if _, torn, _ := st.LoadChecked(); torn.Get(6) != nil || torn.Len() != 5 {
		t.Fatalf("the torn write must destroy seq 6 alone, left Len %d", torn.Len())
	}
}

// TestWallTimerStaleFireDropped: a wall-clock timer that expires while
// the process lock is held, and is re-armed or cancelled before the
// expiry gets the lock, must not run. Here the token-loss timer of an
// operational singleton expires under the test's hold of p.mu; had the
// stale expiry run, the process would have left its ring and counted a
// token-loss gather.
func TestWallTimerStaleFireDropped(t *testing.T) {
	for _, tc := range []struct {
		name  string
		after func(p *Proc)
	}{
		{"rearmed", func(p *Proc) { p.SetTimer(node.TimerTokenLoss, time.Hour) }},
		{"cancelled", func(p *Proc) { p.CancelTimer(node.TimerTokenLoss) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := NewRecorder(Wall(), []model.ProcessID{"p01"}, Options{})
			p, err := Start(rec, "p01", fastConfig(), func(_ model.ProcessID, h Handler, _ *obs.Metrics) (Medium, error) {
				return newLoop("p01", h), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if !rec.WaitOperational(5 * time.Second) {
				t.Fatalf("singleton ring never formed (mode %s)", rec.Mode("p01"))
			}
			p.mu.Lock()
			p.SetTimer(node.TimerTokenLoss, time.Millisecond)
			time.Sleep(30 * time.Millisecond) // the expiry is now waiting for p.mu
			tc.after(p)
			p.mu.Unlock()
			time.Sleep(30 * time.Millisecond) // let the stale expiry take the lock
			if n := p.Metrics().Counter(obs.CGatherTokenLoss); n != 0 {
				t.Fatalf("the stale expiry ran: %d token-loss gathers", n)
			}
			if mode, _, _ := p.State(); mode != node.Operational {
				t.Fatalf("mode %s after the stale expiry, want operational", mode)
			}
		})
	}
}
