package transport

import (
	"bufio"
	"encoding/binary"
	"io"
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

// seqData is the i-th frame of a TCP stream test: Seq i and a payload
// of the given size whose bytes depend on i, so a torn or spliced frame
// fails patternOK even when it still decodes.
func seqData(i uint64, size int) wire.Data {
	d := testData("")
	d.Seq = i
	d.Payload = make([]byte, size)
	for j := range d.Payload {
		d.Payload[j] = byte(i*31 + uint64(j))
	}
	return d
}

func patternOK(d wire.Data) bool {
	for j, b := range d.Payload {
		if b != byte(d.Seq*31+uint64(j)) {
			return false
		}
	}
	return true
}

// seqSink records the Seq of every frame it receives, in arrival order,
// and counts frames that are not an intact seqData.
type seqSink struct {
	mu   sync.Mutex
	seqs []uint64
	bad  int
}

func (s *seqSink) handle(_ model.ProcessID, msg wire.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := msg.(wire.Data)
	if !ok || !patternOK(d) {
		s.bad++
		return
	}
	s.seqs = append(s.seqs, d.Seq)
}

func (s *seqSink) snapshot() ([]uint64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.seqs), s.bad
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkSeqs fails unless got is exactly want, in order, with no bad frame.
func checkSeqs(t *testing.T, who string, s *seqSink, want []uint64) {
	t.Helper()
	got, bad := s.snapshot()
	if bad != 0 {
		t.Errorf("%s: %d torn or foreign frames", who, bad)
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: received %d frames %v…, want %d in send order", who, len(got), got[:min(len(got), 8)], len(want))
	}
}

// TestTCPSendOrderUnderHandoff streams alternating token-sized and
// 256 KiB frames without pause to a peer that reads slowly, so its socket
// keeps filling and draining: large direct writes go partial, and later
// frames queue behind their remainders while the socket has room again.
// The peer must receive every frame whole and in send order, the small
// ones never overtaking the large ones, with nothing dropped.
func TestTCPSendOrderUnderHandoff(t *testing.T) {
	ids := []model.ProcessID{"p1", "p2"}
	addrs := reserveAddrs(t, ids, "tcp")
	met := obs.New("p1", nil)
	sender, _ := makeTCP(t, "p1", addrs, func(model.ProcessID, wire.Message) {}, met)
	defer sender.Close()
	recv := &seqSink{}
	rmet := obs.New("p2", nil)
	slow := func(from model.ProcessID, msg wire.Message) {
		time.Sleep(100 * time.Microsecond)
		recv.handle(from, msg)
	}
	receiver, _ := makeTCP(t, "p2", addrs, slow, rmet)
	defer receiver.Close()

	const n = 256
	var want []uint64
	for i := uint64(1); i <= n; i++ {
		size := 64
		if i%2 == 1 {
			size = 256 << 10
		}
		sender.Unicast("p2", seqData(i, size))
		want = append(want, i)
	}
	waitFor(t, "every frame at p2", func() bool { got, bad := recv.snapshot(); return len(got)+bad >= n })
	checkSeqs(t, "p2", recv, want)
	if d := met.Counter(obs.CWireDrops); d != 0 {
		t.Errorf("%d frames dropped to a reading peer", d)
	}
	if e := rmet.Counter(obs.CWireDecodeErrors); e != 0 {
		t.Errorf("p2 counted %d decode errors", e)
	}
}

// TestTCPStalledPeerBound holds the TCP mesh at its per-peer queue bound.
// Peer p3 accepts its connection and stops reading, while p1 keeps
// sending 256 KiB frames, broadcast and unicast. Every call returns
// promptly; once p3's socket buffers and queue are full, frames to it
// are dropped whole and each is counted; p1 and p2 still receive every
// broadcast. When p3 reads again it decodes an unbroken prefix of the
// stream — the partial write that filled its socket was finished, not
// cut short — with no decode error.
func TestTCPStalledPeerBound(t *testing.T) {
	const (
		frameSize = 256 << 10
		queueLen  = 8
		maxFrames = 400
		wantDrops = 3
	)
	addrs := reserveAddrs(t, []model.ProcessID{"p1", "p2"}, "tcp")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addrs["p3"] = ln.Addr().String()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()

	met := obs.New("p1", nil)
	self := &seqSink{}
	sender, err := NewTCP(TCPConfig{Self: "p1", Peers: addrs, Handler: self.handle, Met: met, QueueLen: queueLen})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	peer := &seqSink{}
	pmet := obs.New("p2", nil)
	receiver, _ := makeTCP(t, "p2", addrs, peer.handle, pmet)
	defer receiver.Close()

	var stalled net.Conn
	var sent, broadcast []uint64
	for i := uint64(1); met.Counter(obs.CWireDrops) < wantDrops; i++ {
		if i > maxFrames {
			t.Fatalf("no frame to the stalled peer dropped after %d frames", maxFrames)
		}
		d := seqData(i, frameSize)
		start := time.Now()
		if i%4 == 0 {
			sender.Unicast("p3", d)
		} else {
			sender.Broadcast(d)
			broadcast = append(broadcast, i)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("send %d blocked for %v", i, el)
		}
		sent = append(sent, i)
		// Pace on the readers, so only p3's queue can fill.
		waitFor(t, "p1 and p2 to keep up", func() bool {
			a, _ := self.snapshot()
			b, _ := peer.snapshot()
			return len(a) == len(broadcast) && len(b) == len(broadcast)
		})
		if stalled == nil {
			select {
			case stalled = <-accepted:
				defer stalled.Close()
			default:
			}
		}
	}
	if stalled == nil {
		t.Fatal("p3's connection was never accepted")
	}
	checkSeqs(t, "p1", self, broadcast)
	checkSeqs(t, "p2", peer, broadcast)

	// Resume p3's reader: it must decode a prefix 1..m of what was sent,
	// every frame past it dropped and counted.
	got := &seqSink{}
	decodeErrs := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		dec := wire.NewDecoder()
		br := bufio.NewReader(stalled)
		for {
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return
			}
			if n == 0 || n > 2*frameSize {
				decodeErrs++ // framing lost: the stream was torn
				return
			}
			frame := make([]byte, n)
			if _, err := io.ReadFull(br, frame); err != nil {
				return
			}
			from, body, err := splitFrame(frame)
			var msg wire.Message
			if err == nil {
				msg, err = dec.Decode(body)
			}
			if err != nil {
				decodeErrs++
				continue
			}
			got.handle(from, msg)
		}
	}()
	drops := met.Counter(obs.CWireDrops)
	waitFor(t, "p3 to read everything not dropped", func() bool {
		select {
		case <-done: // the stream ended early or lost its framing
			return true
		default:
		}
		seqs, bad := got.snapshot()
		return uint64(len(seqs)+bad) >= uint64(len(sent))-drops
	})
	stalled.Close()
	<-done
	if decodeErrs != 0 {
		t.Errorf("p3 counted %d decode errors", decodeErrs)
	}
	checkSeqs(t, "p3", got, sent[:uint64(len(sent))-drops])
	if d := met.Counter(obs.CWireDrops); d != drops {
		t.Errorf("drops moved from %d to %d after the sends", drops, d)
	}
	if e := pmet.Counter(obs.CWireDecodeErrors) + met.Counter(obs.CWireDecodeErrors); e != 0 {
		t.Errorf("p1 and p2 counted %d decode errors", e)
	}
}
