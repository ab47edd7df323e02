package evs

import (
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
// over one of three media: the in-process hub (shared-memory handoff) or
// loopback UDP or TCP sockets, where every message crosses the wire codec
// and the kernel's network stack. Every medium partitions the same way,
// through one receive-side cut around each process's handler.
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
	cut  *transport.Cut
	http spine.Server
}

// NewLiveGroup starts a wall-clock cluster of opts.NumProcesses processes
// named p01..pNN on the medium rt selects: RuntimeLive, RuntimeUDP or
// RuntimeTCP. It takes the Options every runtime shares and rejects the
// ones that configure the simulated network (Processes, Seed, the fault
// rates, Codec, the delay bounds). Call Close when done.
func NewLiveGroup(rt Runtime, opts Options) (*LiveGroup, error) {
	if rt != RuntimeLive && rt != RuntimeUDP && rt != RuntimeTCP {
		return nil, fmt.Errorf("evs: %v is not a wall-clock runtime", rt)
	}
	if len(opts.Processes) > 0 {
		return nil, fmt.Errorf("evs: the %s runtime names processes p01..pNN; use NumProcesses", rt)
	}
	if opts.Seed != 0 || opts.DropRate != 0 || opts.DupRate != 0 || opts.Codec ||
		opts.CorruptRate != 0 || opts.TruncateRate != 0 || opts.MinDelay != 0 || opts.MaxDelay != 0 {
		return nil, fmt.Errorf("evs: Seed, the fault rates, Codec and the delay bounds configure the simulated network; the %s runtime has none", rt)
	}
	ids := spine.ProcNames(opts.NumProcesses)
	clock := spine.Wall()
	g := &LiveGroup{Recorder: spine.NewRecorder(clock, ids, opts.record())}

	// Each runtime has its own default timing profile: simulated-network
	// timings on the hub, the deployment profile on sockets.
	cfg := node.DefaultConfig()
	var hub *transport.Hub
	var addrs map[ProcessID]string
	if rt == RuntimeLive {
		g.MediumScope = obs.New("net", clock.Now)
		hub = transport.NewHub(ids, g.MediumScope)
	} else {
		cfg = daemon.DefaultNetConfig()
		var err error
		if addrs, err = transport.ReserveLoopback(ids, rt.String()); err != nil {
			return nil, err
		}
	}
	g.cut = transport.NewCut(g.MediumScope)
	dial := func(id ProcessID, h spine.Handler, met *obs.Metrics) (spine.Medium, error) {
		h = g.cut.Handler(id, h)
		if hub != nil {
			return hub.Join(id, h, met), nil
		}
		return transport.Open(rt.String(), id, addrs, h, met)
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
// processes are isolated. It works the same on every medium.
func (g *LiveGroup) Partition(groups ...[]ProcessID) { g.cut.Partition(groups...) }

// Merge reunites all processes.
func (g *LiveGroup) Merge() { g.cut.Merge() }

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
