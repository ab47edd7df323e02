package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/spine"
	"repro/internal/transport"
)

// testNetConfig is the deployment timing profile with its membership and
// recovery timers scaled down for tests, so a kill is recovered from
// quickly, and its token-loss deadline widened to 150 ms, so scheduler
// hiccups under -race don't read as token loss.
func testNetConfig() *node.Config {
	cfg := DefaultNetConfig()
	cfg.TokenLoss = 150 * time.Millisecond
	cfg.TokenRetrans = 25 * time.Millisecond
	cfg.JoinRetry = 40 * time.Millisecond
	cfg.CommitTimeout = 100 * time.Millisecond
	cfg.RecoveryRetry = 30 * time.Millisecond
	cfg.RecoveryTimeout = 500 * time.Millisecond
	return &cfg
}

// reserveAddrs picks free loopback ports for each process.
func reserveAddrs(t *testing.T, ids []model.ProcessID, network string) map[model.ProcessID]string {
	t.Helper()
	addrs, err := transport.ReserveLoopback(ids, network)
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

func startCluster(t *testing.T, network string, n int, traceDir string) ([]model.ProcessID, map[model.ProcessID]*Daemon, []string) {
	t.Helper()
	ids := spine.ProcNames(n)
	addrs := reserveAddrs(t, ids, network)
	daemons := make(map[model.ProcessID]*Daemon, n)
	var traces []string
	for _, id := range ids {
		trace := ""
		if traceDir != "" {
			trace = filepath.Join(traceDir, string(id)+".jsonl")
			traces = append(traces, trace)
		}
		d, err := New(Config{
			Self: id, Peers: addrs, Network: network,
			Node: testNetConfig(), TracePath: trace,
		})
		if err != nil {
			t.Fatalf("start %s: %v", id, err)
		}
		daemons[id] = d
	}
	return ids, daemons, traces
}

func waitAllOperational(t *testing.T, daemons map[model.ProcessID]*Daemon, want []model.ProcessID, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for id, d := range daemons {
		left := time.Until(deadline)
		if left <= 0 || !spine.Poll(left, func() bool { return d.Operational(want) }) {
			t.Fatalf("%s never became operational with members %v; status %+v",
				id, want, d.Status())
		}
	}
}

func waitDeliveries(t *testing.T, daemons map[model.ProcessID]*Daemon, min uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, d := range daemons {
			if d.Deliveries() < min {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for id, d := range daemons {
				t.Logf("%s: %d deliveries, status %+v", id, d.Deliveries(), d.Status())
			}
			t.Fatalf("timed out waiting for %d deliveries everywhere", min)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFourDaemonKillCertified is the deployment scenario from the issue:
// a 4-daemon ring over loopback UDP carries agreed and safe traffic, one
// process is killed (transport torn down, no Fail event — as SIGKILL
// would leave it), the survivors deliver a configuration change and keep
// delivering traffic, and the merged per-process traces certify against
// the EVS specifications.
func TestFourDaemonKillCertified(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second ring timing test")
	}
	dir := t.TempDir()
	ids, daemons, traces := startCluster(t, "udp", 4, dir)
	defer func() {
		for _, d := range daemons {
			d.Close()
		}
	}()

	waitAllOperational(t, daemons, ids, 20*time.Second)

	// Traffic in the full ring: one agreed and one safe message per
	// process; every process delivers all eight.
	for i, id := range ids {
		if err := daemons[id].Submit([]byte(fmt.Sprintf("agreed-%d", i)), model.Agreed); err != nil {
			t.Fatalf("%s submit agreed: %v", id, err)
		}
		if err := daemons[id].Submit([]byte(fmt.Sprintf("safe-%d", i)), model.Safe); err != nil {
			t.Fatalf("%s submit safe: %v", id, err)
		}
	}
	waitDeliveries(t, daemons, 8, 20*time.Second)

	// Kill p04: transport down, no protocol goodbye, no Fail event.
	victim := ids[3]
	daemons[victim].Close()
	survivors := make(map[model.ProcessID]*Daemon)
	for _, id := range ids[:3] {
		survivors[id] = daemons[id]
	}
	waitAllOperational(t, survivors, ids[:3], 30*time.Second)

	// Every survivor saw a configuration change to the 3-member ring.
	want := model.NewProcessSet(ids[:3]...)
	for id, d := range survivors {
		confs := d.Configs()
		found := false
		for _, c := range confs {
			if c.ID.IsRegular() && c.Members.Equal(want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s never delivered the 3-member regular configuration; saw %v", id, confs)
		}
	}

	// Traffic still flows in the shrunken ring.
	before := map[model.ProcessID]uint64{}
	for id, d := range survivors {
		before[id] = d.Deliveries()
	}
	for _, id := range ids[:3] {
		if err := daemons[id].Submit([]byte("after-kill-"+string(id)), model.Agreed); err != nil {
			t.Fatalf("%s submit after kill: %v", id, err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		ok := true
		for id, d := range survivors {
			if d.Deliveries() < before[id]+3 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors never delivered post-kill traffic")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Stop everything, merge the traces, certify.
	for _, d := range daemons {
		d.Close()
	}
	events, err := MergeTraces(traces...)
	if err != nil {
		t.Fatalf("merge traces: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("merged trace is empty")
	}
	if vs := Certify(events); len(vs) > 0 {
		for _, v := range vs {
			t.Errorf("spec violation %s: %s", v.Spec, v.Msg)
		}
	}
}

// TestTCPRingFormsAndDelivers runs the same stack over the TCP mesh:
// ring forms, traffic delivers, trace certifies.
func TestTCPRingFormsAndDelivers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second ring timing test")
	}
	dir := t.TempDir()
	ids, daemons, traces := startCluster(t, "tcp", 3, dir)
	defer func() {
		for _, d := range daemons {
			d.Close()
		}
	}()
	waitAllOperational(t, daemons, ids, 20*time.Second)
	for i, id := range ids {
		if err := daemons[id].Submit([]byte(fmt.Sprintf("m-%d", i)), model.Agreed); err != nil {
			t.Fatalf("%s submit: %v", id, err)
		}
	}
	waitDeliveries(t, daemons, 3, 20*time.Second)
	for _, d := range daemons {
		d.Close()
	}
	events, err := MergeTraces(traces...)
	if err != nil {
		t.Fatalf("merge traces: %v", err)
	}
	if vs := Certify(events); len(vs) > 0 {
		for _, v := range vs {
			t.Errorf("spec violation %s: %s", v.Spec, v.Msg)
		}
	}
}

// TestStatusEndpoint checks the HTTP surface: /status, /metrics and
// /debug/pprof/ all answer while the daemon runs.
func TestStatusEndpoint(t *testing.T) {
	ids, daemons, _ := startCluster(t, "udp", 1, "")
	defer daemons[ids[0]].Close()
	addr, err := daemons[ids[0]].Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID != string(ids[0]) {
		t.Fatalf("status ID = %q, want %q", st.ID, ids[0])
	}
	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, resp.StatusCode)
		}
	}
}

// TestTraceRoundTrip checks the JSONL codec for every event shape.
func TestTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	w, err := NewTraceWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	members := model.NewProcessSet("p01", "p02")
	events := []model.Event{
		{Type: model.EventSend, Proc: "p01",
			Config:  model.ConfigID{Kind: model.Regular, Seq: 4, Rep: "p01"},
			Members: members,
			Msg:     model.MessageID{Sender: "p01", SenderSeq: 9},
			Service: model.Agreed},
		{Type: model.EventDeliver, Proc: "p02",
			Config:  model.ConfigID{Kind: model.Transitional, Seq: 5, Rep: "p01", PrevSeq: 4, PrevRep: "p01"},
			Members: members,
			Msg:     model.MessageID{Sender: "p01", SenderSeq: 9},
			Service: model.Safe},
		{Type: model.EventDeliverConf, Proc: "p01",
			Config:  model.ConfigID{Kind: model.Regular, Seq: 6, Rep: "p01"},
			Members: members, Primary: true},
		{Type: model.EventFail, Proc: "p02",
			Config: model.ConfigID{Kind: model.Regular, Seq: 6, Rep: "p01"}},
	}
	for i, e := range events {
		if err := w.Append(int64(i+1), e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := MergeTraces(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range events {
		e, g := events[i], got[i]
		if e.Type != g.Type || e.Proc != g.Proc || e.Config != g.Config ||
			!e.Members.Equal(g.Members) || e.Msg != g.Msg ||
			e.Service != g.Service || e.Primary != g.Primary {
			t.Errorf("event %d: got %+v, want %+v", i, g, e)
		}
	}
}

// TestMergeOrdersByTimestamp interleaves two files.
func TestMergeOrdersByTimestamp(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	wa, err := NewTraceWriter(a)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := NewTraceWriter(b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.ConfigID{Kind: model.Regular, Seq: 1, Rep: "pa"}
	mk := func(p model.ProcessID, seq uint64) model.Event {
		return model.Event{Type: model.EventSend, Proc: p, Config: cfg,
			Members: model.NewProcessSet("pa", "pb"),
			Msg:     model.MessageID{Sender: p, SenderSeq: seq}, Service: model.Agreed}
	}
	wa.Append(10, mk("pa", 1))
	wa.Append(30, mk("pa", 2))
	wb.Append(20, mk("pb", 1))
	wb.Append(40, mk("pb", 2))
	wa.Close()
	wb.Close()
	got, err := MergeTraces(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []string
	for _, e := range got {
		seqs = append(seqs, e.Msg.String())
	}
	want := []string{"pa:1", "pb:1", "pa:2", "pb:2"}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("merged order %v, want %v", seqs, want)
		}
	}
}

// staller is an OnDeliver hook that, when armed, sleeps through one
// delivery. The hook runs under the daemon's lock, so the sleep stalls
// the daemon's whole event path, as a descheduled VM would.
type staller struct {
	mu   sync.Mutex
	d    time.Duration
	done chan struct{}
}

func (s *staller) arm(d time.Duration) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.d, s.done = d, make(chan struct{})
	return s.done
}

func (s *staller) onDeliver(node.Delivery) {
	s.mu.Lock()
	d, done := s.d, s.done
	s.d = 0
	s.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
		close(done)
	}
}

// TestTokenLossDeadlineAgainstStalls holds the deployment profile's
// token-loss deadline (DefaultNetConfig) against stalls of one daemon's
// event path in a 4-daemon UDP ring. A 40 ms stall is a token gap the
// ring rides out: no token-loss gather, no configuration change, and the
// gap shows in node_token_gap_us. A 300 ms stall outlasts the deadline:
// the ring reconfigures, and once the stalled daemon resumes all four
// are back in one regular configuration.
func TestTokenLossDeadlineAgainstStalls(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second ring timing test")
	}
	ids := spine.ProcNames(4)
	addrs := reserveAddrs(t, ids, "udp")
	daemons := make(map[model.ProcessID]*Daemon, len(ids))
	defer func() {
		for _, d := range daemons {
			d.Close()
		}
	}()
	var st staller
	victim := ids[1]
	for _, id := range ids {
		cfg := Config{Self: id, Peers: addrs, Network: "udp"}
		if id == victim {
			cfg.OnDeliver = st.onDeliver
		}
		d, err := New(cfg)
		if err != nil {
			t.Fatalf("start %s: %v", id, err)
		}
		daemons[id] = d
	}
	waitAllOperational(t, daemons, ids, 20*time.Second)

	tokenLoss := func() (n uint64) {
		for _, d := range daemons {
			n += d.Metrics().Counter(obs.CGatherTokenLoss)
		}
		return n
	}
	longGaps := func() (n uint64) {
		for _, d := range daemons {
			h := d.Metrics().Snapshot().Histograms[obs.HistName(obs.HTokenGapUs)]
			for i := 16; i < len(h.Buckets); i++ { // bucket 16 holds [32.8, 65.5) ms
				n += h.Buckets[i]
			}
		}
		return n
	}
	stall := func(d time.Duration) {
		t.Helper()
		done := st.arm(d)
		if err := daemons[ids[0]].Submit([]byte(d.String()), model.Agreed); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never delivered the stalling message", victim)
		}
	}

	_, before, _ := daemons[victim].State()
	losses, configs := tokenLoss(), len(daemons[victim].Configs())
	stall(40 * time.Millisecond)
	time.Sleep(300 * time.Millisecond) // three deadlines: time for a spurious gather to show
	if n := tokenLoss(); n != losses {
		t.Fatalf("a 40 ms stall caused %d token-loss gathers", n-losses)
	}
	for id, d := range daemons {
		if _, cfg, _ := d.State(); cfg.ID != before.ID || !d.Operational(ids) {
			t.Fatalf("%s left configuration %v for %v after a 40 ms stall", id, before.ID, cfg.ID)
		}
	}
	if n := len(daemons[victim].Configs()); n != configs {
		t.Fatalf("%s delivered %d configuration changes during a 40 ms stall", victim, n-configs)
	}
	if longGaps() == 0 {
		t.Fatal("node_token_gap_us recorded no gap of 32 ms or more across a 40 ms stall")
	}

	stall(300 * time.Millisecond)
	if tokenLoss() == losses {
		t.Fatal("a 300 ms stall caused no token-loss gather")
	}
	var after model.Configuration
	rejoined := spine.Poll(20*time.Second, func() bool {
		_, after, _ = daemons[victim].State()
		for _, d := range daemons {
			if _, cfg, _ := d.State(); !d.Operational(ids) || cfg.ID != after.ID || cfg.ID == before.ID {
				return false
			}
		}
		return true
	})
	if !rejoined {
		for id, d := range daemons {
			t.Logf("%s: %+v", id, d.Status())
		}
		t.Fatalf("the four daemons are not back in one new configuration after a 300 ms stall of %s", victim)
	}
}

// TestTokenRetransFitsTheDeadline: on both timing profiles every token
// re-send fits inside the token-loss deadline, so a lost token is
// re-sent TokenRetransMax times before its loss is declared.
func TestTokenRetransFitsTheDeadline(t *testing.T) {
	for name, cfg := range map[string]node.Config{
		"simulator": node.DefaultConfig(),
		"net":       DefaultNetConfig(),
	} {
		if budget := time.Duration(node.TokenRetransMax) * cfg.TokenRetrans; budget >= cfg.TokenLoss {
			t.Errorf("%s: %d re-sends × %v = %v, not inside TokenLoss %v", name, node.TokenRetransMax, cfg.TokenRetrans, budget, cfg.TokenLoss)
		}
	}
}
