package transport

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wire"
)

// UDPConfig configures a UDP transport.
type UDPConfig struct {
	// Self is the local process; Peers maps every cluster member —
	// including Self — to its UDP address ("host:port").
	Self  model.ProcessID
	Peers map[model.ProcessID]string
	// Handler receives decoded messages (required). It runs on the
	// receive goroutine.
	Handler Handler
	// Met is the transport's observability scope (nil disables).
	Met *obs.Metrics
	// MaxDatagram bounds an encoded frame; defaults to 60000 bytes
	// (inside the 65507-byte UDP payload ceiling). Batches beyond it
	// are split and re-sent; single messages beyond it are dropped and
	// counted.
	MaxDatagram int
}

// UDP is the LAN-profile transport: every broadcast is encoded once and
// fanned out as unicast datagrams to the peer list, the real-Totem
// substitute for hardware multicast on networks without it.
// Self-delivery goes through the loopback socket like any other receipt,
// never by a synchronous handler call. The medium is exactly as lossy as
// UDP: drops, reorders and duplicates are the protocol's problem, which
// is the point.
type UDP struct {
	self    model.ProcessID
	peers   []model.ProcessID
	addrs   map[model.ProcessID]*net.UDPAddr
	conn    *net.UDPConn
	handler Handler
	met     *obs.Metrics
	maxDG   int

	mu      sync.Mutex // guards sendBuf and closed
	sendBuf []byte
	closed  bool
	wg      sync.WaitGroup
}

var _ Transport = (*UDP)(nil)

// NewUDP binds the local process's socket and resolves every peer. The
// local address is Peers[Self]; use a ":0" port to let the OS pick and
// read the bound address back with Addr.
func NewUDP(cfg UDPConfig) (*UDP, error) {
	self, ok := cfg.Peers[cfg.Self]
	if !ok {
		return nil, fmt.Errorf("transport: no address for self %q", cfg.Self)
	}
	laddr, err := net.ResolveUDPAddr("udp", self)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %s: %w", self, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", self, err)
	}
	t := &UDP{
		self:    cfg.Self,
		peers:   sortedPeers(cfg.Peers),
		addrs:   make(map[model.ProcessID]*net.UDPAddr, len(cfg.Peers)),
		conn:    conn,
		handler: cfg.Handler,
		met:     cfg.Met,
		maxDG:   cfg.MaxDatagram,
		sendBuf: make([]byte, 0, 4096),
	}
	if t.maxDG <= 0 {
		t.maxDG = 60000
	}
	for id, addr := range cfg.Peers {
		if id == cfg.Self {
			// Send self-deliveries to the socket actually bound (the
			// configured port may have been ":0").
			t.addrs[id] = conn.LocalAddr().(*net.UDPAddr)
			continue
		}
		a, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: resolve %s for %s: %w", addr, id, err)
		}
		t.addrs[id] = a
	}
	t.wg.Add(1)
	go t.receive()
	return t, nil
}

// Addr returns the bound local address.
func (t *UDP) Addr() string { return t.conn.LocalAddr().String() }

// Broadcast implements Transport: encode once, one datagram per peer
// (including self, through the loopback socket).
func (t *UDP) Broadcast(msg wire.Message) {
	t.send(msg, "")
}

// Unicast implements Transport.
func (t *UDP) Unicast(to model.ProcessID, msg wire.Message) {
	if _, ok := t.addrs[to]; !ok {
		t.met.Inc(obs.CWireDrops)
		return
	}
	t.send(msg, to)
}

// send encodes msg and writes it to one peer (to != "") or all peers.
// An encoded batch larger than the datagram ceiling is split in half and
// re-sent — batching is pure packing, so the split preserves semantics.
func (t *UDP) send(msg wire.Message, to model.ProcessID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	//lint:allow lockheld UDP datagram writes drop on a full socket buffer rather than block; the lock serializes sendBuf reuse
	t.sendLocked(msg, to)
}

func (t *UDP) sendLocked(msg wire.Message, to model.ProcessID) {
	if t.closed {
		t.met.Inc(obs.CWireDrops)
		return
	}
	frame, err := appendFrame(t.sendBuf[:0], t.self, msg)
	if err != nil {
		t.met.Inc(obs.CWireEncodeErrors)
		return
	}
	t.sendBuf = frame[:0]
	if len(frame) > t.maxDG {
		if batch, ok := msg.(wire.DataBatch); ok && len(batch.Msgs) > 1 {
			half := len(batch.Msgs) / 2
			t.sendLocked(wire.DataBatch{Ring: batch.Ring, Msgs: batch.Msgs[:half]}, to) //lint:allow wireown half-split sub-batches are encoded immediately and never retained
			t.sendLocked(wire.DataBatch{Ring: batch.Ring, Msgs: batch.Msgs[half:]}, to) //lint:allow wireown half-split sub-batches are encoded immediately and never retained
			return
		}
		t.met.Inc(obs.CWireDrops)
		return
	}
	if to != "" {
		t.write(frame, to)
		return
	}
	for _, id := range t.peers {
		t.write(frame, id)
	}
}

// write sends one prepared frame to one peer.
func (t *UDP) write(frame []byte, to model.ProcessID) {
	if _, err := t.conn.WriteToUDP(frame, t.addrs[to]); err != nil {
		t.met.Inc(obs.CWireDrops)
		return
	}
	countOut(t.met, len(frame))
}

// receive drains the socket: each datagram is copied into a fresh
// right-sized buffer (decoded payloads alias it and may be retained),
// decoded, and handed to the handler. Corrupt frames are counted and
// dropped.
func (t *UDP) receive() {
	defer t.wg.Done()
	dec := wire.NewDecoder()
	readBuf := make([]byte, 65536)
	for {
		n, _, err := t.conn.ReadFromUDP(readBuf)
		if err != nil {
			return // socket closed
		}
		frame := make([]byte, n)
		copy(frame, readBuf[:n])
		receiveFrame(frame, dec, t.handler, t.met)
	}
}

// Close implements Transport.
func (t *UDP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	err := t.conn.Close()
	t.wg.Wait()
	return err
}
