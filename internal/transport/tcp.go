package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"

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
// connection per peer, frames length-prefixed on the stream. The
// goroutine that calls Broadcast or Unicast writes each frame itself,
// with one non-blocking write attempt per peer, so every peer's stream
// carries frames in send order — a token never overtakes the data it
// announces, as on the broadcast LAN Totem ran on. A peer's sender
// goroutine takes over only what the socket would not take at once: it
// dials, writes a partial write's remainder, and writes every later frame
// to that peer until its queue is empty again. A frame is therefore
// written whole, queued whole or as its unwritten remainder, or its
// connection is reset; it is never torn on a live stream.
//
// The mesh remains deliberately lossy — a full peer queue or dead
// connection drops the frame and lets the protocol's retransmission
// machinery recover — because EVS assumes an unreliable medium, and
// faking reliability here would only hide partitions from the failure
// detector. Self-delivery dials the local listener over loopback like any
// other peer.
type TCP struct {
	self    model.ProcessID
	peers   []model.ProcessID
	handler Handler
	met     *obs.Metrics
	maxFr   int
	ln      net.Listener

	// mu guards senders (and each sender's raw, queued, out and wrote),
	// conns, sendBuf and closed.
	mu      sync.Mutex
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

// tcpSender owns one peer's outbound side: the connection the caller
// writes to directly, and a bounded queue of what it could not write,
// drained by a goroutine that dials on demand and redials after errors.
type tcpSender struct {
	queue chan tcpFrame
	done  chan struct{}
	// raw is the dialed connection, nil until the drain has dialed it
	// and again after a write error closed it.
	raw syscall.RawConn
	// queued counts frames handed to the drain and not yet written by
	// it; the caller writes directly only while it is zero.
	queued int
	// out and wrote are writeOut's argument and result, kept here so
	// that a direct write allocates nothing.
	out      []byte
	wrote    int
	writeOut func(fd uintptr) bool
}

// tcpFrame is one queued frame: the bytes still to write and the size of
// the whole frame, counted as sent once its last byte is written.
type tcpFrame struct {
	b    []byte
	size int
}

// tcpPrefixLen is the room sendBuf reserves for a frame's length prefix.
const tcpPrefixLen = binary.MaxVarintLen64

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
		s := &tcpSender{queue: make(chan tcpFrame, qlen), done: make(chan struct{})}
		s.writeOut = s.writeOnce
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

// Broadcast implements Transport: encode once, write to every peer
// (including self, whose sender dials the local listener).
func (t *TCP) Broadcast(msg wire.Message) {
	t.send(msg, "")
}

// Unicast implements Transport.
func (t *TCP) Unicast(to model.ProcessID, msg wire.Message) {
	t.send(msg, to)
}

// send encodes msg with its stream length prefix into sendBuf and writes
// the frame to one peer (to != "") or to all of them. The frame is copied
// only if some peer must queue it, and then once for all of them.
func (t *TCP) send(msg wire.Message, to model.ProcessID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		t.met.Inc(obs.CWireDrops)
		return
	}
	if _, ok := t.senders[to]; to != "" && !ok {
		t.met.Inc(obs.CWireDrops)
		return
	}
	// Encode after room for the longest prefix, then put the prefix
	// right in front of the frame once its size is known.
	buf, err := appendFrame(t.sendBuf[:tcpPrefixLen], t.self, msg)
	if err != nil {
		t.met.Inc(obs.CWireEncodeErrors)
		return
	}
	t.sendBuf = buf[:0]
	bodyLen := len(buf) - tcpPrefixLen
	if bodyLen > t.maxFr {
		t.met.Inc(obs.CWireDrops)
		return
	}
	var prefix [tcpPrefixLen]byte
	k := binary.PutUvarint(prefix[:], uint64(bodyLen))
	frame := buf[tcpPrefixLen-k:]
	copy(frame, prefix[:k])
	var copied []byte
	if to != "" {
		t.write(t.senders[to], frame, &copied)
		return
	}
	for _, id := range t.peers {
		t.write(t.senders[id], frame, &copied)
	}
}

// write sends one frame to one peer. While nothing is queued ahead of it
// on a dialed connection, the caller makes one non-blocking write
// attempt; whatever the socket did not take — the whole frame, or a
// partial write's remainder — goes to the peer's queue, in a copy of the
// frame that *copied shares across peers. A full queue drops the frame
// whole: a remainder always fits, because it is queued only behind an
// empty queue. Callers hold t.mu.
func (t *TCP) write(s *tcpSender, frame []byte, copied *[]byte) {
	n := 0
	if s.raw != nil && s.queued == 0 {
		s.out, s.wrote = frame, 0
		// One non-blocking attempt under the lock, as UDP writes: the
		// lock is what keeps this peer's stream in send order. A failed
		// attempt wrote nothing (s.wrote stays 0), so the frame queues
		// and the drain's own write reports the error.
		_ = s.raw.Write(s.writeOut)
		n, s.out = s.wrote, nil
		if n == len(frame) {
			countOut(t.met, len(frame))
			return
		}
	}
	if *copied == nil {
		*copied = bytes.Clone(frame)
	}
	select {
	case s.queue <- tcpFrame{b: (*copied)[n:], size: len(frame)}:
		s.queued++
	default:
		t.met.Inc(obs.CWireDrops)
	}
}

// writeOnce is the direct write's callback: one write(2) of s.out on the
// non-blocking socket. Returning true tells the runtime not to wait for
// the socket to become writable. Any error — EAGAIN on a full socket, or
// a dead connection — counts as nothing written: the frame then queues,
// and the drain's blocking write waits for room or resets the connection.
func (s *tcpSender) writeOnce(fd uintptr) bool {
	n, err := syscall.Write(int(fd), s.out)
	if err != nil {
		n = 0
	}
	s.wrote = n
	return true
}

// drain is a peer's sender goroutine: dial on the first queued frame,
// write queued frames until an error, drop the connection and redial on
// the next one. Each frame stays counted in s.queued until it is written
// or dropped, so the caller cannot write past it.
func (t *TCP) drain(to model.ProcessID, s *tcpSender) {
	defer t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			t.reset(s, conn)
		}
	}()
	for {
		select {
		case <-s.done:
			return
		case f := <-s.queue:
			if conn == nil {
				c, err := t.dial(to, s)
				if err != nil {
					t.met.Inc(obs.CWireDrops)
					t.dequeue(s)
					if errors.Is(err, ErrClosed) {
						return
					}
					continue
				}
				conn = c
			}
			if _, err := conn.Write(f.b); err != nil {
				t.reset(s, conn)
				conn = nil
				t.met.Inc(obs.CWireDrops)
			} else {
				countOut(t.met, f.size)
			}
			t.dequeue(s)
		}
	}
}

// dial connects to a peer and publishes the connection for direct
// writes. It returns ErrClosed, having closed the connection, when Close
// raced the dial.
func (t *TCP) dial(to model.ProcessID, s *tcpSender) (net.Conn, error) {
	c, err := net.Dial("tcp", t.addrs[to])
	if err != nil {
		return nil, err
	}
	raw, err := c.(*net.TCPConn).SyscallConn()
	if err != nil {
		c.Close()
		return nil, err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return nil, ErrClosed
	}
	t.conns[c] = struct{}{}
	s.raw = raw
	t.mu.Unlock()
	return c, nil
}

// reset withdraws a peer's connection from direct writes and closes it:
// after a write error that may have torn a frame on it, or at shutdown.
func (t *TCP) reset(s *tcpSender, conn net.Conn) {
	t.mu.Lock()
	s.raw = nil
	delete(t.conns, conn)
	t.mu.Unlock()
	conn.Close()
}

// dequeue marks one queued frame written or dropped.
func (t *TCP) dequeue(s *tcpSender) {
	t.mu.Lock()
	s.queued--
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
