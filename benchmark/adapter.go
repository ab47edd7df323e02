package main

// adapter.go is the one place the benchmark constructs the program's
// rings, so its compile-time surface on the program is listed here:
// daemon.New (the deployable unit, as cmd/evsd assembles it), node.New +
// transport.NewUDP/NewTCP + stable.Store (the same stack with the
// benchmark's recording host and transport in between, for the traced
// pass), and evs.NewGroup (the deterministic simulator). The isolated
// rigs in rigs.go additionally call totem, stable, wire and groups
// functions directly. A refactor of the program that moves one of these
// constructors is repaired here and nowhere else.

import (
	"errors"
	"fmt"
	"net"
	"syscall"
	"time"

	evs "repro"
	"repro/internal/daemon"
	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/stable"
	"repro/internal/transport"
)

type (
	procID     = model.ProcessID
	configID   = model.ConfigID
	service    = model.Service
	delivery   = node.Delivery
	modelEvent = model.Event
	violation  = spec.Violation
	simGroup   = evs.Group
	snapshot   = obs.Snapshot
)

const (
	agreed = model.Agreed
	safe   = model.Safe
)

var errBacklog = node.ErrBacklog

// procName is the naming scheme every ring here uses; procIndex inverts
// it without a map lookup on the delivery path.
func procName(i int) procID { return procID(fmt.Sprintf("p%02d", i+1)) }

func procIndex(id procID) int {
	if len(id) != 3 || id[0] != 'p' {
		return -1
	}
	return int(id[1]-'0')*10 + int(id[2]-'0') - 1
}

func procNames(n int) []procID {
	ids := make([]procID, n)
	for i := range ids {
		ids[i] = procName(i)
	}
	return ids
}

// wallProc is one process of a wall-clock ring. *daemon.Daemon satisfies
// it as is; tracedProc is the benchmark's own assembly of the same stack.
type wallProc interface {
	Submit(payload []byte, svc service) error
	Operational(want []procID) bool
	Metrics() *obs.Metrics
	Close() error
}

// ringHooks are the benchmark's taps on a wall-clock ring. They run on
// the program's protocol path under the owning process's lock: each
// process's calls are serial, different processes' calls are concurrent.
type ringHooks struct {
	onDeliver func(i int, d delivery)
	// traceSink, when set, turns the formal-model trace on (udp4_kill
	// certifies from it); t is unix nanoseconds.
	traceSink func(i int, t int64, e modelEvent)
}

// wallRing is n processes over loopback sockets in this OS process.
type wallRing struct {
	ids   []procID
	procs []wallProc
}

// reserveLoopback binds and releases one loopback port per process, as
// the program's own in-process clusters do.
func reserveLoopback(ids []procID, network string) (map[procID]string, error) {
	addrs := make(map[procID]string, len(ids))
	for _, id := range ids {
		if network == "tcp" {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("reserve tcp port: %w", err)
			}
			addrs[id] = ln.Addr().String()
			ln.Close()
			continue
		}
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, fmt.Errorf("reserve udp port: %w", err)
		}
		addrs[id] = conn.LocalAddr().String()
		conn.Close()
	}
	return addrs, nil
}

// newWallRing starts an n-process ring on loopback under
// daemon.DefaultNetConfig. With rec nil each process is a daemon.Daemon;
// otherwise each is a tracedProc recording spans into rec.
func newWallRing(n int, network string, hooks ringHooks, rec *recorder) (*wallRing, error) {
	ids := procNames(n)
	// A reserved port can be taken (by an outgoing connection of a ring
	// just closed) between its release and the process's own bind; such a
	// build is started over with fresh ports.
	for attempt := 0; ; attempt++ {
		addrs, err := reserveLoopback(ids, network)
		if err != nil {
			return nil, err
		}
		r := &wallRing{ids: ids}
		if rec == nil {
			announcePhase(phaseConstructing) // runChild: a crash from here ...
		}
		for i, id := range ids {
			var p wallProc
			if rec == nil {
				p, err = newDaemonProc(i, id, addrs, network, hooks)
			} else {
				p, err = newTracedProc(i, id, addrs, network, hooks, rec)
			}
			if err != nil {
				_ = r.Close()
				err = fmt.Errorf("start %s: %w", id, err)
				break
			}
			r.procs = append(r.procs, p)
		}
		announcePhase(phaseConstructed) // ... to here is daemon.New's set-up race
		if err == nil {
			return r, nil
		}
		if attempt == 4 || !errors.Is(err, syscall.EADDRINUSE) {
			return nil, err
		}
	}
}

func newDaemonProc(i int, id procID, addrs map[procID]string, network string, hooks ringHooks) (wallProc, error) {
	cfg := daemon.Config{Self: id, Peers: addrs, Network: network}
	if hooks.onDeliver != nil {
		cfg.OnDeliver = func(d node.Delivery) { hooks.onDeliver(i, d) }
	}
	if hooks.traceSink != nil {
		cfg.TraceSink = func(t int64, e model.Event) { hooks.traceSink(i, t, e) }
	}
	return daemon.New(cfg)
}

// newTracedProc assembles what daemon.New assembles — node over a socket
// transport over an empty stable store, metrics attached, started under
// the lock — with the tracedProc as the node's Host and Transport. Unlike
// daemon.New it holds the lock from before the transport exists until the
// node has started, so a message that arrives in between waits in
// onMessage instead of finding no node.
func newTracedProc(i int, id procID, addrs map[procID]string, network string, hooks ringHooks, rec *recorder) (wallProc, error) {
	p := &tracedProc{
		idx: i, id: id, hooks: hooks, rec: rec,
		timers: make(map[node.TimerKind]*time.Timer),
	}
	start := time.Now()
	p.met = obs.New(string(id), func() time.Duration { return time.Since(start) })
	p.mu.Lock()
	var err error
	switch network {
	case "udp":
		p.tr, err = transport.NewUDP(transport.UDPConfig{Self: id, Peers: addrs, Handler: p.onMessage, Met: p.met})
	case "tcp":
		p.tr, err = transport.NewTCP(transport.TCPConfig{Self: id, Peers: addrs, Handler: p.onMessage, Met: p.met})
	default:
		err = fmt.Errorf("unknown network %q", network)
	}
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	p.n = node.New(id, daemon.DefaultNetConfig(), p, p, &stable.Store{})
	p.n.SetMetrics(p.met)
	rec.register(p)
	p.open(spanOnTimer, nowNs())
	p.n.Start()
	p.exit()
	return p, nil
}

// Submit submits at process i.
func (r *wallRing) Submit(i int, payload []byte, svc service) error {
	return r.procs[i].Submit(payload, svc)
}

// Kill closes process i with no protocol goodbye, as SIGKILL would.
func (r *wallRing) Kill(i int) error { return r.procs[i].Close() }

// WaitOperational blocks until every listed process is operational in a
// regular configuration of exactly those processes.
func (r *wallRing) WaitOperational(members []int, timeout time.Duration) bool {
	want := make([]procID, len(members))
	for k, i := range members {
		want[k] = r.ids[i]
	}
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, i := range members {
			if !r.procs[i].Operational(want) {
				ok = false
				break
			}
		}
		if ok || time.Now().After(deadline) {
			return ok
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Obs reads the obs instruments of the listed processes, summed.
func (r *wallRing) Obs(members []int) obsReading {
	scopes := make([]*obs.Metrics, len(members))
	for k, i := range members {
		scopes[k] = r.procs[i].Metrics()
	}
	return readObs(scopes...)
}

// Close stops every process and joins its goroutines. Idempotent.
func (r *wallRing) Close() error {
	var errs []error
	for _, p := range r.procs {
		errs = append(errs, p.Close())
	}
	return errors.Join(errs...)
}

// certify runs the program's specification checker over a merged trace
// the way evsd -check does (safety clauses only: a killed process leaves
// no fail event).
func certify(events []modelEvent) []violation { return daemon.Certify(events) }

// simSatConfig is the protocol configuration T1's throughput rows run
// under (internal/experiments.benchNodeConfig): flow-control ceiling and
// backlog raised so the ring reaches its ordering capacity.
func simSatConfig() *node.Config {
	cfg := node.DefaultConfig()
	cfg.Totem.AdaptiveMax = 256
	cfg.MaxPending = 8192
	return &cfg
}

// newSimGroup builds the deterministic simulator under netsim.Default
// (50-300 µs uniform packet delay, no loss). discard selects the
// measurement-rig mode that retains no history.
func newSimGroup(n int, seed int64, nodeCfg *node.Config, discard bool) *simGroup {
	return evs.NewGroup(evs.Options{NumProcesses: n, Seed: seed, Node: nodeCfg, DiscardHistory: discard})
}

// onSimDelivery registers fn for every application delivery in g.
func onSimDelivery(g *simGroup, fn func(i int, sender procID, seq uint64, payload []byte, cfg configID, at time.Duration)) {
	g.AddObserver(evs.ObserverFuncs{Delivery: func(id evs.ProcessID, d evs.Delivery) {
		fn(procIndex(id), d.Msg.Sender, d.Msg.SenderSeq, d.Payload, d.Config.ID, d.Time)
	}})
}

// simSettled reports whether every process of every component is
// operational in a regular configuration whose membership is exactly
// that component.
func simSettled(g *simGroup, components [][]int) bool {
	for _, comp := range components {
		ids := make([]procID, len(comp))
		for k, i := range comp {
			ids[k] = procName(i)
		}
		want := model.NewProcessSet(ids...)
		for _, id := range ids {
			if g.Mode(id) != "operational" {
				return false
			}
			confs := g.ConfigEvents(id)
			if len(confs) == 0 {
				return false
			}
			last := confs[len(confs)-1].Config
			if !last.ID.IsRegular() || !last.Members.Equal(want) {
				return false
			}
		}
	}
	return true
}

// simPartition cuts the simulated network into the given components at
// virtual time t.
func simPartition(g *simGroup, t time.Duration, components [][]int) {
	groups := make([][]evs.ProcessID, len(components))
	for k, comp := range components {
		for _, i := range comp {
			groups[k] = append(groups[k], procName(i))
		}
	}
	g.Partition(t, groups...)
}
