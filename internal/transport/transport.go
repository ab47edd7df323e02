// Package transport holds the wall-clock media a process can run over.
// The in-process Hub (hub.go) hands shared Go structs to every receiver,
// as the simulator does; the socket transports cross the boundary it
// never does: they serialise each broadcast through the internal/wire
// binary codec and move bytes through real sockets — UDP unicast fan-out
// (the LAN profile, lossy like the hardware broadcast Totem ran on) or a
// TCP mesh fallback (for networks that eat UDP).
//
// A Transport implements the medium half of the node's environment
// (node.Transport) plus unicast and shutdown. Unicast is what carries the
// ring's token: the node sends each token to its ring successor alone and
// broadcasts only the representative's, once per rotation (see
// node.Transport). The ownership contract is the one documented on
// node.Transport — messages are immutable after handoff — which is what
// lets a transport encode a broadcast once and write the same buffer to
// every peer, and lets decoded messages alias their receive buffers.
//
// No medium partitions itself. A Cut (cut.go), wrapped around each
// receiver's Handler, splits any of them into components the same way.
//
// Every socket implementation is instrumented through internal/obs:
// frames and bytes in/out, encode/decode errors, and transport-level drops
// (oversize datagrams, full peer queues). Decode failures are counted
// and dropped, never panicked: a corrupt frame is the network's
// prerogative, and the protocol's retransmission machinery recovers.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"

	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Handler receives one decoded message at the local process. Handlers
// run on the transport's receive goroutines: they must synchronise their
// own state and must not block indefinitely. The message aliases a
// receive buffer owned by the transport's decoder; per the wire
// ownership contract it is immutable and may be retained.
type Handler func(from model.ProcessID, msg wire.Message)

// Transport is a medium for one process of the cluster: the node's
// Broadcast plus unicast and lifecycle. Implementations deliver the
// sender's own broadcasts back to it through the medium (never by
// calling the handler synchronously from Broadcast — the caller may
// hold the node lock).
type Transport interface {
	node.Transport
	// Unicast sends a message to one peer: the token hop to the ring
	// successor, which would be wasted on the rest of the component.
	Unicast(to model.ProcessID, msg wire.Message)
	// Close stops the transport: sockets close, goroutines drain, and
	// subsequent sends are dropped (counted).
	Close() error
}

// ErrClosed reports an operation on a closed transport.
var ErrClosed = errors.New("transport: closed")

// Open binds the named socket transport for process self: "udp" (also the
// default for "") or "tcp". Handler and met are as in UDPConfig.
func Open(network string, self model.ProcessID, peers map[model.ProcessID]string, h Handler, met *obs.Metrics) (Transport, error) {
	switch network {
	case "", "udp":
		t, err := NewUDP(UDPConfig{Self: self, Peers: peers, Handler: h, Met: met})
		if err != nil {
			return nil, err
		}
		return t, nil
	case "tcp":
		t, err := NewTCP(TCPConfig{Self: self, Peers: peers, Handler: h, Met: met})
		if err != nil {
			return nil, err
		}
		return t, nil
	default:
		return nil, fmt.Errorf("transport: unknown network %q", network)
	}
}

// ReserveLoopback picks a free loopback address per process for an
// in-process cluster on the named socket transport, by binding and
// releasing one port each.
func ReserveLoopback(ids []model.ProcessID, network string) (map[model.ProcessID]string, error) {
	addrs := make(map[model.ProcessID]string, len(ids))
	for _, id := range ids {
		switch network {
		case "", "udp":
			conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				return nil, fmt.Errorf("reserve udp port: %w", err)
			}
			addrs[id] = conn.LocalAddr().String()
			conn.Close()
		case "tcp":
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("reserve tcp port: %w", err)
			}
			addrs[id] = ln.Addr().String()
			ln.Close()
		default:
			return nil, fmt.Errorf("transport: unknown network %q", network)
		}
	}
	return addrs, nil
}

// A frame is one message on the medium:
//
//	len(sender) sender | encoded message
//
// (TCP additionally length-prefixes each frame on the stream.)

// appendFrame encodes a frame into dst.
func appendFrame(dst []byte, from model.ProcessID, msg wire.Message) ([]byte, error) {
	if len(from) > wire.MaxProcIDLen {
		return nil, wire.ErrUnencodable
	}
	dst = binary.AppendUvarint(dst, uint64(len(from)))
	dst = append(dst, from...)
	return wire.AppendMessage(dst, msg)
}

// splitFrame separates a frame's sender from its message bytes.
func splitFrame(b []byte) (model.ProcessID, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > wire.MaxProcIDLen || n > uint64(len(b)-k) {
		return "", nil, wire.ErrTruncated
	}
	return model.ProcessID(b[k : k+int(n)]), b[k+int(n):], nil
}

// sortedPeers copies and sorts a peer map's keys.
func sortedPeers(peers map[model.ProcessID]string) []model.ProcessID {
	out := make([]model.ProcessID, 0, len(peers))
	for id := range peers {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// countOut records one sent frame of the given size.
func countOut(met *obs.Metrics, n int) {
	met.Inc(obs.CWirePacketsOut)
	met.Add(obs.CWireBytesOut, uint64(n))
}

// receiveFrame counts one received frame, decodes it and hands the
// message to h: the receive tail of both socket transports. A frame that
// fails to split or decode is counted and dropped.
func receiveFrame(frame []byte, dec *wire.Decoder, h Handler, met *obs.Metrics) {
	met.Inc(obs.CWirePacketsIn)
	met.Add(obs.CWireBytesIn, uint64(len(frame)))
	from, body, err := splitFrame(frame)
	if err == nil {
		var msg wire.Message
		if msg, err = dec.Decode(body); err == nil {
			h(from, msg)
			return
		}
	}
	met.Inc(obs.CWireDecodeErrors)
}
