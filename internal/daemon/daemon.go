// Package daemon runs one EVS ring process over a real network
// transport: the deployable unit behind cmd/evsd. A Daemon is one
// internal/spine process — the protocol state machine (internal/node) on
// the wall clock over a UDP or TCP transport (internal/transport) — that
// additionally exposes the process's metrics over HTTP and persists the
// formal-model event trace to disk as JSONL — so a multi-process run can be certified
// post-hoc by merging every process's trace and running the
// specification checker over the interleaving (Certify).
//
// The package is importable so deployments can be assembled in-process
// for tests (a 4-daemon cluster over loopback sockets) exactly as
// cmd/evsd assembles one per OS process.
package daemon

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/spine"
	"repro/internal/transport"
)

// Config assembles one daemon.
type Config struct {
	// Self is this process; Peers maps every ring member — including
	// Self — to its transport address.
	Self  model.ProcessID
	Peers map[model.ProcessID]string
	// Network selects the medium: "udp" (default) or "tcp".
	Network string
	// Node overrides protocol timing; nil uses DefaultNetConfig.
	Node *node.Config
	// TracePath, when non-empty, persists the formal-model event trace
	// as JSONL for post-hoc certification.
	TracePath string

	// OnDeliver, OnConfig and TraceSink are in-process hooks for
	// embedding the daemon (a benchmark, or a test). They run on the
	// protocol path under the daemon's lock:
	// don't block, don't call back into the daemon. TraceSink receives
	// each formal-model event with its unix-nano timestamp, in addition
	// to (and independent of) TracePath.
	OnDeliver func(node.Delivery)
	OnConfig  func(node.ConfigChange)
	TraceSink func(int64, model.Event)
}

// DefaultNetConfig returns protocol timing suited to real sockets on a
// possibly loaded machine: an order of magnitude slower than the
// simulator profile, so scheduling hiccups don't masquerade as token
// loss and trigger spurious membership changes.
func DefaultNetConfig() node.Config {
	cfg := node.DefaultConfig()
	cfg.TokenLoss = 400 * time.Millisecond
	cfg.TokenRetrans = 60 * time.Millisecond
	cfg.JoinRetry = 100 * time.Millisecond
	cfg.CommitTimeout = 250 * time.Millisecond
	cfg.RecoveryRetry = 80 * time.Millisecond
	cfg.RecoveryTimeout = 1200 * time.Millisecond
	return cfg
}

// Daemon is one ring process over a real transport: a spine process on
// the wall clock, plus the HTTP endpoint and the trace file. Its recorder
// retains no history (a daemon runs for days); counts, configuration
// changes and the hooks keep working.
type Daemon struct {
	*spine.Proc
	rec   *spine.Recorder
	trace *TraceWriter
	sink  func(int64, model.Event)
	http  spine.Server
}

// New assembles and starts a daemon: transport bound, node started, ring
// formation under way.
func New(cfg Config) (*Daemon, error) {
	d := &Daemon{sink: cfg.TraceSink}
	d.rec = spine.NewRecorder(spine.Wall(), []model.ProcessID{cfg.Self}, spine.Options{DiscardHistory: true})
	if cfg.OnDeliver != nil {
		d.rec.OnDeliver = func(_ model.ProcessID, del node.Delivery) { cfg.OnDeliver(del) }
	}
	if cfg.OnConfig != nil {
		d.rec.OnConfig = func(_ model.ProcessID, c node.ConfigChange) { cfg.OnConfig(c) }
	}
	if cfg.TracePath != "" {
		tw, err := NewTraceWriter(cfg.TracePath)
		if err != nil {
			return nil, err
		}
		d.trace = tw
	}
	if d.trace != nil || d.sink != nil {
		d.rec.OnTrace = d.onTrace
	}
	nodeCfg := DefaultNetConfig()
	if cfg.Node != nil {
		nodeCfg = *cfg.Node
	}
	p, err := spine.Start(d.rec, cfg.Self, nodeCfg, func(id model.ProcessID, h spine.Handler, met *obs.Metrics) (spine.Medium, error) {
		return transport.Open(cfg.Network, id, cfg.Peers, h, met)
	})
	if err != nil {
		if d.trace != nil {
			d.trace.Close()
		}
		return nil, err
	}
	d.Proc = p
	return d, nil
}

// Addr returns the transport's bound address.
func (d *Daemon) Addr() string {
	type addresser interface{ Addr() string }
	if a, ok := d.Transport().(addresser); ok {
		return a.Addr()
	}
	return ""
}

// onTrace sends each formal-model event to the JSONL trace file stamped
// with wall-clock time, for post-hoc merge and certification, and to the
// in-process sink when one is registered.
func (d *Daemon) onTrace(e model.Event) {
	t := time.Now().UnixNano() //lint:allow determinism trace timestamps exist for post-hoc cross-daemon merge, not protocol decisions
	if d.trace != nil {
		_ = d.trace.Append(t, e)
	}
	if d.sink != nil {
		d.sink(t, e)
	}
}

// Status is a point-in-time view of the daemon, also served as JSON on
// the HTTP endpoint.
type Status struct {
	ID         string   `json:"id"`
	Mode       string   `json:"mode"`
	Config     string   `json:"config"`
	Members    []string `json:"members"`
	Deliveries uint64   `json:"deliveries"`
	Configs    int      `json:"configs"`
}

// Status snapshots the daemon's protocol state.
func (d *Daemon) Status() Status {
	mode, cfg, _ := d.State()
	st := Status{
		ID:         string(d.ID()),
		Mode:       mode.String(),
		Config:     cfg.ID.String(),
		Deliveries: d.Deliveries(),
		Configs:    len(d.rec.ConfigChanges(d.ID())),
	}
	for _, m := range cfg.Members.View() {
		st.Members = append(st.Members, string(m))
	}
	return st
}

// Operational reports whether the daemon has a regular configuration
// installed whose membership is exactly want (nil: any membership).
func (d *Daemon) Operational(want []model.ProcessID) bool {
	mode, cfg, _ := d.State()
	if mode != node.Operational {
		return false
	}
	return want == nil || cfg.Members.Equal(model.NewProcessSet(want...))
}

// Deliveries returns how many application messages the daemon has
// delivered.
func (d *Daemon) Deliveries() uint64 { return d.rec.DeliveryCount(d.ID()) }

// Configs snapshots the configuration changes delivered so far.
func (d *Daemon) Configs() []model.Configuration { return d.rec.Configs(d.ID()) }

// Handler returns the daemon's HTTP handler: Prometheus metrics on
// /metrics (JSON with ?format=json or /metrics.json), status on /status,
// and the Go runtime's profiles on /debug/pprof/.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	metrics := spine.MetricsHandler(d.rec.Metrics)
	mux.Handle("/metrics", metrics)
	mux.Handle("/metrics.json", metrics)
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(d.Status())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the HTTP endpoint on addr (":0" picks a port) and returns
// the bound address. The server stops when the daemon closes.
func (d *Daemon) Serve(addr string) (string, error) { return d.http.Serve(addr, d.Handler()) }

// Close stops the daemon: protocol silenced, timers stopped, transport
// and HTTP endpoint closed, trace flushed. Idempotent.
func (d *Daemon) Close() error {
	d.http.Close()
	err := d.Proc.Close()
	if d.trace != nil {
		if terr := d.trace.Close(); err == nil {
			err = terr
		}
	}
	return err
}
