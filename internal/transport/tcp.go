package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TCPConfig configures a TCP mesh transport.
type TCPConfig struct {
	// Self is the local process; Peers maps every cluster member —
	// including Self — to its TCP address ("host:port").
	Self  model.ProcessID
	Peers map[model.ProcessID]string
	// Handler receives decoded messages (required). It runs on
	// per-connection receive goroutines.
	Handler Handler
	// Met is the transport's observability scope (nil disables).
	Met *obs.Metrics
	// QueueLen bounds each peer's outbound queue; a full queue drops
	// (and counts) the frame, keeping the mesh as lossy as UDP so slow
	// peers can't stall the ring. Defaults to 256.
	QueueLen int
	// MaxFrame bounds an encoded frame on the stream; defaults to 16 MiB.
	MaxFrame int
}

// TCP is the mesh fallback for networks that eat UDP: one lazily dialed
// connection per peer, frames length-prefixed on the stream. It remains
// deliberately lossy — a full peer queue or dead connection drops the
// frame and lets the protocol's retransmission machinery recover —
// because EVS assumes an unreliable medium, and faking reliability here
// would only hide partitions from the failure detector. Self-delivery
// dials the local listener over loopback like any other peer.
type TCP struct {
	self    model.ProcessID
	peers   []model.ProcessID
	handler Handler
	met     *obs.Metrics
	maxFr   int
	ln      net.Listener

	mu      sync.Mutex // guards senders, conns, sendBuf, closed
	senders map[model.ProcessID]*tcpSender
	addrs   map[model.ProcessID]string
	// conns is every live connection, inbound readers and outbound
	// sender dials alike. Close severs them all, which is what unblocks
	// a reader parked in Read or a drain goroutine parked in Write.
	conns   map[net.Conn]struct{}
	sendBuf []byte
	closed  bool
	wg      sync.WaitGroup
}

// tcpSender owns one peer's outbound side: a bounded frame queue drained
// by a goroutine that dials on demand and redials after errors.
type tcpSender struct {
	queue chan []byte
	done  chan struct{}
}

var _ Transport = (*TCP)(nil)

// NewTCP binds the local process's listener and prepares (but does not
// yet dial) every peer. The local address is Peers[Self]; use a ":0"
// port to let the OS pick and read the bound address back with Addr.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	self, ok := cfg.Peers[cfg.Self]
	if !ok {
		return nil, fmt.Errorf("transport: no address for self %q", cfg.Self)
	}
	ln, err := net.Listen("tcp", self)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", self, err)
	}
	t := &TCP{
		self:    cfg.Self,
		peers:   sortedPeers(cfg.Peers),
		handler: cfg.Handler,
		met:     cfg.Met,
		maxFr:   cfg.MaxFrame,
		ln:      ln,
		senders: make(map[model.ProcessID]*tcpSender, len(cfg.Peers)),
		addrs:   make(map[model.ProcessID]string, len(cfg.Peers)),
		conns:   make(map[net.Conn]struct{}),
		sendBuf: make([]byte, 0, 4096),
	}
	if t.maxFr <= 0 {
		t.maxFr = 16 << 20
	}
	qlen := cfg.QueueLen
	if qlen <= 0 {
		qlen = 256
	}
	for id, addr := range cfg.Peers {
		if id == cfg.Self {
			// Dial the listener actually bound (the configured port may
			// have been ":0").
			addr = ln.Addr().String()
		}
		t.addrs[id] = addr
		s := &tcpSender{queue: make(chan []byte, qlen), done: make(chan struct{})}
		t.senders[id] = s
		t.wg.Add(1)
		go t.drain(id, s)
	}
	t.wg.Add(1)
	go t.accept()
	return t, nil
}

// Addr returns the bound local address.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Broadcast implements Transport: encode once, enqueue on every peer's
// sender (including self, whose sender dials the local listener).
func (t *TCP) Broadcast(msg wire.Message) {
	t.send(msg, "")
}

// Unicast implements Transport.
func (t *TCP) Unicast(to model.ProcessID, msg wire.Message) {
	t.mu.Lock()
	_, ok := t.senders[to]
	t.mu.Unlock()
	if !ok {
		t.met.Inc(obs.CWireDrops)
		return
	}
	t.send(msg, to)
}

// send encodes msg with its stream length prefix and enqueues the frame
// on one peer's sender (to != "") or on all of them. Enqueued frames are
// freshly allocated — the senders consume them asynchronously.
func (t *TCP) send(msg wire.Message, to model.ProcessID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		t.met.Inc(obs.CWireDrops)
		return
	}
	// Reserve room for the length prefix, then patch it in front of the
	// frame once its size is known.
	body, err := appendFrame(t.sendBuf[:0], t.self, msg)
	if err != nil {
		t.met.Inc(obs.CWireEncodeErrors)
		return
	}
	t.sendBuf = body[:0]
	if len(body) > t.maxFr {
		t.met.Inc(obs.CWireDrops)
		return
	}
	prefixed := binary.AppendUvarint(make([]byte, 0, len(body)+binary.MaxVarintLen64), uint64(len(body)))
	prefixed = append(prefixed, body...)
	if to != "" {
		t.enqueue(to, prefixed)
		return
	}
	for _, id := range t.peers {
		t.enqueue(id, prefixed)
	}
}

// enqueue hands one prepared frame to a peer's sender, dropping if the
// queue is full. Callers hold t.mu, so senders cannot be closed out from
// under us; the frame buffer is shared across peers and never mutated.
func (t *TCP) enqueue(to model.ProcessID, frame []byte) {
	s := t.senders[to]
	select {
	case s.queue <- frame:
	default:
		t.met.Inc(obs.CWireDrops)
	}
}

// drain is a peer's sender goroutine: dial on first frame, write frames
// until an error, drop the connection and redial on the next frame.
func (t *TCP) drain(to model.ProcessID, s *tcpSender) {
	defer t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			t.untrack(conn)
			conn.Close()
		}
	}()
	for {
		select {
		case <-s.done:
			return
		case frame := <-s.queue:
			if conn == nil {
				c, err := net.Dial("tcp", t.addrs[to])
				if err != nil {
					t.met.Inc(obs.CWireDrops)
					continue
				}
				if !t.track(c) {
					// Close raced the dial; the connection was never
					// registered, so sever it here and exit.
					c.Close()
					return
				}
				conn = c
			}
			if _, err := conn.Write(frame); err != nil {
				t.untrack(conn)
				conn.Close()
				conn = nil
				t.met.Inc(obs.CWireDrops)
				continue
			}
			countOut(t.met, len(frame))
		}
	}
}

// track registers a live outbound connection so Close can sever it; it
// reports false when the transport is already closed, in which case the
// caller owns the connection and must close it itself.
func (t *TCP) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

// untrack forgets a connection the owner is about to close.
func (t *TCP) untrack(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// accept admits inbound connections; each gets its own reader goroutine.
func (t *TCP) accept() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.read(conn)
	}
}

// read drains one inbound connection: uvarint length prefix, then the
// frame into a fresh buffer (decoded payloads alias it and may be
// retained), decode, hand to the handler. A malformed length or corrupt
// frame beyond repair closes the connection — stream framing is lost —
// while a frame that merely fails message decode is counted and skipped.
func (t *TCP) read(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	dec := wire.NewDecoder()
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return // EOF or peer reset
		}
		if n == 0 || n > uint64(t.maxFr) {
			t.met.Inc(obs.CWireDecodeErrors)
			return
		}
		frame := make([]byte, n)
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		receiveFrame(frame, dec, t.handler, t.met)
	}
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, s := range t.senders {
		close(s.done)
	}
	// Snapshot under the lock, sever outside it: conn.Close is I/O, and
	// for outbound senders it is the only thing that unblocks a drain
	// goroutine parked in conn.Write on a peer that stopped reading.
	open := make([]net.Conn, 0, len(t.conns))
	for conn := range t.conns {
		//lint:allow determinism teardown order is irrelevant; every snapshot entry is closed
		open = append(open, conn)
	}
	t.mu.Unlock()
	for _, conn := range open {
		conn.Close()
	}
	err := t.ln.Close()
	t.wg.Wait()
	return err
}
