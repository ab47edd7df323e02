package evs

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/daemon"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/spine"
	"repro/internal/transport"
)

// LiveGroup is the wall-clock cluster: the same processes as Group — the
// Section 5 layers included — on real goroutines and wall-clock timers,
// over one of three media: the in-process hub (shared-memory handoff, a
// mutable partition map) or loopback UDP or TCP sockets, where every
// message crosses the wire codec and the kernel's network stack.
//
// The simulator remains the right tool for reproducible experiments and
// adversarial schedules; LiveGroup exists to exercise the stack under real
// concurrency (the race detector runs over it in the tests) and to host
// interactive examples. The embedded recorder is the cluster's
// runtime-independent surface — Submit, Deliveries, ConfigChanges,
// History, Metrics, AddObserver, Check, WaitOperational, WaitDeliveries,
// Crash, Recover — and is safe to use while the group runs.
type LiveGroup struct {
	*spine.Recorder
	hub  *transport.Hub // nil over sockets
	http spine.Server
}

// ErrNoPartition is returned by Partition and Merge on a medium that
// cannot cut itself (the socket runtimes).
var ErrNoPartition = errors.New("evs: this runtime's medium cannot be partitioned")

// NewLiveGroup starts n processes named p01..pNN over the in-process hub.
// Call Close when done.
func NewLiveGroup(n int, cfg *node.Config) *LiveGroup {
	// The hub cannot fail to attach a process, so there is no error.
	g, _ := newLiveGroup(RuntimeLive, Options{NumProcesses: n, Node: cfg})
	return g
}

// newLiveGroup starts a wall-clock cluster on the medium rt selects.
func newLiveGroup(rt Runtime, opts Options) (*LiveGroup, error) {
	if len(opts.Processes) > 0 {
		return nil, fmt.Errorf("evs.New: the %s runtime names processes p01..pNN; use WithNumProcesses", rt)
	}
	if opts.Seed != 0 || opts.DropRate != 0 || opts.DupRate != 0 || opts.Codec ||
		opts.CorruptRate != 0 || opts.TruncateRate != 0 || opts.MinDelay != 0 || opts.MaxDelay != 0 {
		return nil, fmt.Errorf("evs.New: Seed, the fault rates, Codec and the delay bounds configure the simulated network; the %s runtime has none", rt)
	}
	ids := spine.ProcNames(opts.NumProcesses)
	clock := spine.Wall()
	g := &LiveGroup{Recorder: spine.NewRecorder(clock, ids, opts.record())}

	// Each runtime has its own default timing profile: simulated-network
	// timings on the hub, the deployment profile on sockets.
	cfg := node.DefaultConfig()
	var dial spine.Dial
	if rt == RuntimeLive {
		g.MediumScope = obs.New("net", clock.Now)
		g.hub = transport.NewHub(ids, g.MediumScope)
		dial = func(id ProcessID, h spine.Handler, met *obs.Metrics) (spine.Medium, error) {
			return g.hub.Join(id, h, met), nil
		}
	} else {
		cfg = daemon.DefaultNetConfig()
		addrs, err := transport.ReserveLoopback(ids, rt.String())
		if err != nil {
			return nil, err
		}
		dial = func(id ProcessID, h spine.Handler, met *obs.Metrics) (spine.Medium, error) {
			return transport.Open(rt.String(), id, addrs, h, met)
		}
	}
	if opts.Node != nil {
		cfg = *opts.Node
	}
	for _, id := range ids {
		if _, err := spine.Start(g.Recorder, id, cfg, dial); err != nil {
			g.Close()
			return nil, err
		}
	}
	return g, nil
}

// Partition splits the medium into the given components; unmentioned
// processes are isolated. Only the hub can cut itself: on sockets it
// returns ErrNoPartition.
func (g *LiveGroup) Partition(groups ...[]ProcessID) error {
	if g.hub == nil {
		return ErrNoPartition
	}
	g.hub.Partition(groups...)
	return nil
}

// Merge reunites all processes (ErrNoPartition on sockets).
func (g *LiveGroup) Merge() error {
	if g.hub == nil {
		return ErrNoPartition
	}
	g.hub.Merge()
	return nil
}

// Kill abruptly stops one process: its transport closes and it goes
// silent, with no protocol goodbye and no Fail event — the in-process
// equivalent of SIGKILL. The survivors detect the loss and reform.
func (g *LiveGroup) Kill(id ProcessID) error {
	p := g.Proc(id)
	if p == nil {
		return fmt.Errorf("unknown process %s", id)
	}
	return p.Close()
}

// MetricsHandler returns an HTTP handler exposing the group's metrics: the
// Prometheus text exposition format by default, or the expvar-style nested
// JSON document when the request has format=json (or a path ending in
// ".json").
func (g *LiveGroup) MetricsHandler() http.Handler { return spine.MetricsHandler(g.Metrics) }

// ServeMetrics starts an HTTP server exposing MetricsHandler on addr
// (":0" picks a free port) and returns the bound address. The server stops
// when the group is closed. At most one metrics server per group.
func (g *LiveGroup) ServeMetrics(addr string) (string, error) {
	return g.http.Serve(addr, g.MetricsHandler())
}

// Close stops the metrics server (if one was started) and every process:
// timers, transports and their goroutines. It is idempotent.
func (g *LiveGroup) Close() error {
	g.http.Close()
	return g.Recorder.Close()
}
