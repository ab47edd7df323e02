package transport

import (
	"encoding/binary"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wire"
)

// sink collects delivered messages from a transport's receive goroutines.
type sink struct {
	mu   sync.Mutex
	msgs []wire.Message
	from []model.ProcessID
}

func (s *sink) handle(from model.ProcessID, msg wire.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.from = append(s.from, from)
	s.msgs = append(s.msgs, msg)
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

// waitCount polls until the sink holds at least n messages.
func waitCount(t *testing.T, s *sink, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d messages, have %d", n, s.count())
		}
		time.Sleep(time.Millisecond)
	}
}

func testData(payload string) wire.Data {
	return wire.Data{
		ID:      model.MessageID{Sender: "p1", SenderSeq: 7},
		Ring:    model.ConfigID{Kind: model.Regular, Seq: 3, Rep: "p1"},
		Seq:     42,
		Service: model.Agreed,
		Payload: []byte(payload),
	}
}

// maker abstracts the transports for the shared conformance tests.
type maker func(t *testing.T, self model.ProcessID, peers map[model.ProcessID]string,
	h Handler, met *obs.Metrics) (Transport, string)

func makeUDP(t *testing.T, self model.ProcessID, peers map[model.ProcessID]string,
	h Handler, met *obs.Metrics) (Transport, string) {
	t.Helper()
	tr, err := NewUDP(UDPConfig{Self: self, Peers: peers, Handler: h, Met: met})
	if err != nil {
		t.Fatalf("NewUDP(%s): %v", self, err)
	}
	return tr, tr.Addr()
}

func makeTCP(t *testing.T, self model.ProcessID, peers map[model.ProcessID]string,
	h Handler, met *obs.Metrics) (Transport, string) {
	t.Helper()
	tr, err := NewTCP(TCPConfig{Self: self, Peers: peers, Handler: h, Met: met})
	if err != nil {
		t.Fatalf("NewTCP(%s): %v", self, err)
	}
	return tr, tr.Addr()
}

// makeHub returns a maker whose transports share one hub, created from the
// first call's peer set.
func makeHub() maker {
	var h *Hub
	return func(t *testing.T, self model.ProcessID, peers map[model.ProcessID]string,
		handler Handler, met *obs.Metrics) (Transport, string) {
		if h == nil {
			h = NewHub(sortedPeers(peers), nil)
		}
		return h.Join(self, handler, met), ""
	}
}

// reserveAddrs picks a free loopback address per process for the socket
// transports; the hub needs none, only the peer set.
func reserveAddrs(t *testing.T, ids []model.ProcessID, network string) map[model.ProcessID]string {
	t.Helper()
	if network == "hub" {
		addrs := make(map[model.ProcessID]string, len(ids))
		for _, id := range ids {
			addrs[id] = ""
		}
		return addrs
	}
	addrs, err := ReserveLoopback(ids, network)
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

func testBroadcastReachesAll(t *testing.T, network string, mk maker) {
	ids := []model.ProcessID{"p1", "p2", "p3"}
	addrs := reserveAddrs(t, ids, network)
	sinks := make(map[model.ProcessID]*sink, len(ids))
	trs := make(map[model.ProcessID]Transport, len(ids))
	for _, id := range ids {
		s := &sink{}
		sinks[id] = s
		tr, _ := mk(t, id, addrs, s.handle, obs.New(string(id), nil))
		trs[id] = tr
		defer tr.Close()
	}
	trs["p1"].Broadcast(testData("hello"))
	for _, id := range ids {
		waitCount(t, sinks[id], 1)
	}
	for _, id := range ids {
		s := sinks[id]
		s.mu.Lock()
		if s.from[0] != "p1" {
			t.Errorf("%s: got sender %q, want p1", id, s.from[0])
		}
		d, ok := s.msgs[0].(wire.Data)
		if !ok || string(d.Payload) != "hello" || d.Seq != 42 {
			t.Errorf("%s: got %#v", id, s.msgs[0])
		}
		s.mu.Unlock()
	}
}

func testUnicastReachesOne(t *testing.T, network string, mk maker) {
	ids := []model.ProcessID{"p1", "p2", "p3"}
	addrs := reserveAddrs(t, ids, network)
	sinks := make(map[model.ProcessID]*sink, len(ids))
	trs := make(map[model.ProcessID]Transport, len(ids))
	for _, id := range ids {
		s := &sink{}
		sinks[id] = s
		tr, _ := mk(t, id, addrs, s.handle, obs.New(string(id), nil))
		trs[id] = tr
		defer tr.Close()
	}
	trs["p1"].Unicast("p2", testData("direct"))
	waitCount(t, sinks["p2"], 1)
	// Give stray fan-out (a bug) a moment to surface.
	time.Sleep(50 * time.Millisecond)
	if n := sinks["p1"].count(); n != 0 {
		t.Errorf("p1 received %d messages from a unicast to p2", n)
	}
	if n := sinks["p3"].count(); n != 0 {
		t.Errorf("p3 received %d messages from a unicast to p2", n)
	}
}

func testCloseIdempotent(t *testing.T, network string, mk maker) {
	ids := []model.ProcessID{"p1"}
	addrs := reserveAddrs(t, ids, network)
	met := obs.New("p1", nil)
	s := &sink{}
	tr, _ := mk(t, "p1", addrs, s.handle, met)
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Sends after close drop and count, never panic.
	tr.Broadcast(testData("late"))
	if met.Counter(obs.CWireDrops) == 0 {
		t.Errorf("post-close broadcast was not counted as a drop")
	}
}

func TestUDPBroadcastReachesAll(t *testing.T) { testBroadcastReachesAll(t, "udp", makeUDP) }
func TestTCPBroadcastReachesAll(t *testing.T) { testBroadcastReachesAll(t, "tcp", makeTCP) }
func TestHubBroadcastReachesAll(t *testing.T) { testBroadcastReachesAll(t, "hub", makeHub()) }
func TestUDPUnicastReachesOne(t *testing.T)   { testUnicastReachesOne(t, "udp", makeUDP) }
func TestTCPUnicastReachesOne(t *testing.T)   { testUnicastReachesOne(t, "tcp", makeTCP) }
func TestHubUnicastReachesOne(t *testing.T)   { testUnicastReachesOne(t, "hub", makeHub()) }
func TestUDPCloseIdempotent(t *testing.T)     { testCloseIdempotent(t, "udp", makeUDP) }
func TestTCPCloseIdempotent(t *testing.T)     { testCloseIdempotent(t, "tcp", makeTCP) }
func TestHubCloseIdempotent(t *testing.T)     { testCloseIdempotent(t, "hub", makeHub()) }

// testCutPartitionsAndMergeHeals wraps every receiver in one Cut: a
// broadcast and a unicast stay inside the sender's component, a process
// always receives its own messages, every cut copy is counted on the
// cut's scope, and Merge reunites everyone.
func testCutPartitionsAndMergeHeals(t *testing.T, network string, mk maker) {
	ids := []model.ProcessID{"p1", "p2", "p3"}
	addrs := reserveAddrs(t, ids, network)
	met := obs.New("net", nil)
	cut := NewCut(met)
	sinks := make(map[model.ProcessID]*sink, len(ids))
	trs := make(map[model.ProcessID]Transport, len(ids))
	for _, id := range ids {
		sinks[id] = &sink{}
		trs[id], _ = mk(t, id, addrs, cut.Handler(id, sinks[id].handle), nil)
		defer trs[id].Close()
	}
	waitCut := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for met.Counter(obs.CNetCut) < n {
			if time.Now().After(deadline) {
				t.Fatalf("net_cut = %d, want %d", met.Counter(obs.CNetCut), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	cut.Partition(ids[:2]) // p3 is isolated
	trs["p1"].Broadcast(testData("left"))
	waitCount(t, sinks["p1"], 1)
	waitCount(t, sinks["p2"], 1)
	waitCut(1) // p3's copy
	trs["p3"].Unicast("p1", testData("across"))
	trs["p1"].Unicast("p2", testData("direct"))
	waitCount(t, sinks["p2"], 2)
	waitCut(2)
	trs["p3"].Broadcast(testData("self"))
	waitCount(t, sinks["p3"], 1)
	waitCut(4) // p1's and p2's copies
	cut.Merge()
	trs["p1"].Broadcast(testData("all"))
	want := map[model.ProcessID][]string{"p1": {"all", "left"}, "p2": {"all", "direct", "left"}, "p3": {"all", "self"}}
	for _, id := range ids {
		waitCount(t, sinks[id], len(want[id]))
	}
	time.Sleep(20 * time.Millisecond) // let a stray copy (a bug) surface
	for _, id := range ids {
		s := sinks[id]
		s.mu.Lock()
		var got []string
		for _, m := range s.msgs {
			got = append(got, string(m.(wire.Data).Payload))
		}
		s.mu.Unlock()
		slices.Sort(got)
		if !slices.Equal(got, want[id]) {
			t.Errorf("%s received %v, want %v", id, got, want[id])
		}
	}
	if n := met.Counter(obs.CNetCut); n != 4 {
		t.Errorf("net_cut = %d, want 4", n)
	}
}

func TestHubCutPartitionsAndMergeHeals(t *testing.T) {
	testCutPartitionsAndMergeHeals(t, "hub", makeHub())
}
func TestUDPCutPartitionsAndMergeHeals(t *testing.T) {
	testCutPartitionsAndMergeHeals(t, "udp", makeUDP)
}
func TestTCPCutPartitionsAndMergeHeals(t *testing.T) {
	testCutPartitionsAndMergeHeals(t, "tcp", makeTCP)
}

// TestUDPCorruptFrameCounted fires raw garbage and corrupted real frames
// at a UDP transport's socket: every one must be counted as a decode
// error and dropped, none may panic or reach the handler.
func TestUDPCorruptFrameCounted(t *testing.T) {
	ids := []model.ProcessID{"p1"}
	addrs := reserveAddrs(t, ids, "udp")
	met := obs.New("p1", nil)
	s := &sink{}
	tr, addr := makeUDP(t, "p1", addrs, s.handle, met)
	defer tr.Close()

	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	good, err := appendFrame(nil, "px", testData("x"))
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		{0xff, 0xff, 0xff},            // garbage
		good[:len(good)-3],            // truncated
		append([]byte{0x80}, good...), // mangled sender length
	}
	flip := append([]byte(nil), good...)
	flip[len(flip)/2] ^= 0x40
	bad = append(bad, flip)

	sent := 0
	for _, b := range bad {
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	// A flipped bit mid-frame may still decode (payload bytes); require
	// every frame to be either delivered or counted, and the guaranteed
	// corruptions to be counted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		errs := met.Counter(obs.CWireDecodeErrors)
		if int(errs)+s.count() >= sent && errs >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("decode errors %d + delivered %d, want %d total with >= 3 errors",
				errs, s.count(), sent)
		}
		time.Sleep(time.Millisecond)
	}
	// A good frame still gets through afterwards. The count is read
	// before the write: read after it, it races the receive goroutine.
	before := s.count()
	if _, err := conn.Write(good); err != nil {
		t.Fatal(err)
	}
	waitCount(t, s, before+1)
}

// TestTCPCorruptFrameCounted writes a corrupt length-prefixed frame to a
// TCP transport's listener: counted, dropped, no panic — and the
// connection keeps working for subsequent well-formed frames.
func TestTCPCorruptFrameCounted(t *testing.T) {
	ids := []model.ProcessID{"p1"}
	addrs := reserveAddrs(t, ids, "tcp")
	met := obs.New("p1", nil)
	s := &sink{}
	tr, addr := makeTCP(t, "p1", addrs, s.handle, met)
	defer tr.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Well-formed length prefix, corrupt frame body.
	junk := []byte{0xff, 0xfe, 0xfd, 0xfc}
	buf := binary.AppendUvarint(nil, uint64(len(junk)))
	buf = append(buf, junk...)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for met.Counter(obs.CWireDecodeErrors) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("corrupt frame never counted as decode error")
		}
		time.Sleep(time.Millisecond)
	}
	// Framing survived: a good frame on the same connection delivers.
	good, err := appendFrame(nil, "px", testData("after"))
	if err != nil {
		t.Fatal(err)
	}
	buf = binary.AppendUvarint(buf[:0], uint64(len(good)))
	buf = append(buf, good...)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	waitCount(t, s, 1)
	if s.count() != 1 {
		t.Fatalf("delivered %d messages, want 1", s.count())
	}
}

// TestUDPOversizeBatchSplits broadcasts a batch whose encoding exceeds
// the datagram ceiling: it must arrive as multiple smaller batches
// covering the same messages, in order.
func TestUDPOversizeBatchSplits(t *testing.T) {
	ids := []model.ProcessID{"p1"}
	addrs := reserveAddrs(t, ids, "udp")
	met := obs.New("p1", nil)
	s := &sink{}
	tr, err := NewUDP(UDPConfig{
		Self: "p1", Peers: addrs, Handler: s.handle, Met: met, MaxDatagram: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	ring := model.ConfigID{Kind: model.Regular, Seq: 1, Rep: "p1"}
	var msgs []wire.Data
	for i := 0; i < 8; i++ {
		d := testData("0123456789012345678901234567890123456789012345678901234567890123")
		d.Seq = uint64(i + 1)
		d.Ring = ring
		msgs = append(msgs, d)
	}
	tr.Broadcast(wire.DataBatch{Ring: ring, Msgs: msgs})

	// Count the Data messages across however many batches arrive.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		total := 0
		batches := len(s.msgs)
		for _, m := range s.msgs {
			if b, ok := m.(wire.DataBatch); ok {
				total += len(b.Msgs)
			}
		}
		s.mu.Unlock()
		if total == len(msgs) {
			if batches < 2 {
				t.Fatalf("oversize batch arrived in %d datagrams, want >= 2", batches)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d of %d batched messages", total, len(msgs))
		}
		time.Sleep(time.Millisecond)
	}
	// Reassemble and check order.
	s.mu.Lock()
	var got []uint64
	for _, m := range s.msgs {
		for _, d := range m.(wire.DataBatch).Msgs {
			got = append(got, d.Seq)
		}
	}
	s.mu.Unlock()
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("reassembled seqs %v out of order", got)
		}
	}
}

// TestUDPOversizeSingleDropped broadcasts one unsplittable oversize
// message: dropped and counted, not sent.
func TestUDPOversizeSingleDropped(t *testing.T) {
	ids := []model.ProcessID{"p1"}
	addrs := reserveAddrs(t, ids, "udp")
	met := obs.New("p1", nil)
	s := &sink{}
	tr, err := NewUDP(UDPConfig{
		Self: "p1", Peers: addrs, Handler: s.handle, Met: met, MaxDatagram: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	big := testData(string(make([]byte, 4096)))
	tr.Broadcast(big)
	if met.Counter(obs.CWireDrops) == 0 {
		t.Fatal("oversize single message not counted as a drop")
	}
	time.Sleep(20 * time.Millisecond)
	if s.count() != 0 {
		t.Fatalf("oversize message was delivered")
	}
}

// TestCountersMove sanity-checks the obs plumbing: bytes/packets in and
// out advance on a delivered broadcast.
func TestCountersMove(t *testing.T) {
	ids := []model.ProcessID{"p1", "p2"}
	addrs := reserveAddrs(t, ids, "udp")
	mets := map[model.ProcessID]*obs.Metrics{}
	sinks := map[model.ProcessID]*sink{}
	for _, id := range ids {
		mets[id] = obs.New(string(id), nil)
		sinks[id] = &sink{}
	}
	var trs []Transport
	for _, id := range ids {
		tr, err := NewUDP(UDPConfig{Self: id, Peers: addrs, Handler: sinks[id].handle, Met: mets[id]})
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
		defer tr.Close()
	}
	trs[0].Broadcast(testData("count me"))
	waitCount(t, sinks["p2"], 1)
	m1, m2 := mets["p1"], mets["p2"]
	if m1.Counter(obs.CWirePacketsOut) != 2 { // self + p2
		t.Errorf("p1 packets out = %d, want 2", m1.Counter(obs.CWirePacketsOut))
	}
	if m1.Counter(obs.CWireBytesOut) == 0 {
		t.Error("p1 bytes out = 0")
	}
	if m2.Counter(obs.CWirePacketsIn) != 1 {
		t.Errorf("p2 packets in = %d, want 1", m2.Counter(obs.CWirePacketsIn))
	}
	if m2.Counter(obs.CWireBytesIn) != m1.Counter(obs.CWireBytesOut)/2 {
		t.Errorf("p2 bytes in = %d, p1 bytes out = %d (want half)",
			m2.Counter(obs.CWireBytesIn), m1.Counter(obs.CWireBytesOut))
	}
}

// TestFrameRoundTrip exercises the frame helpers directly.
func TestFrameRoundTrip(t *testing.T) {
	msg := testData("frame me")
	b, err := appendFrame(nil, "proc-with-a-long-name", msg)
	if err != nil {
		t.Fatal(err)
	}
	from, body, err := splitFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if from != "proc-with-a-long-name" {
		t.Fatalf("sender = %q", from)
	}
	got, err := wire.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	d := got.(wire.Data)
	if string(d.Payload) != "frame me" {
		t.Fatalf("payload = %q", d.Payload)
	}
	// Truncations never succeed with stray state.
	for i := 0; i < len(b); i++ {
		if _, _, err := splitFrame(b[:i]); err == nil {
			if _, err := wire.Decode(body[:0]); err == nil {
				t.Fatalf("truncated frame at %d decoded", i)
			}
		}
	}
}
