package daemon

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/model"
	"repro/internal/spec"
)

// traceRecord is one formal-model event on disk: a flat JSON line with a
// wall-clock timestamp, so traces from separate processes on one machine
// can be merged into a plausible global order post-hoc. model.Event
// itself is not JSON-marshalable (ProcessSet hides its members), and the
// on-disk form should stay stable even if the in-memory types move.
type traceRecord struct {
	T       int64    `json:"t"` // unix nanoseconds
	Type    int      `json:"type"`
	Proc    string   `json:"proc"`
	CfgKind int      `json:"cfg_kind,omitempty"`
	CfgSeq  uint64   `json:"cfg_seq,omitempty"`
	CfgRep  string   `json:"cfg_rep,omitempty"`
	PrevSeq uint64   `json:"prev_seq,omitempty"`
	PrevRep string   `json:"prev_rep,omitempty"`
	Members []string `json:"members,omitempty"`
	Sender  string   `json:"sender,omitempty"`
	SendSeq uint64   `json:"send_seq,omitempty"`
	Service int      `json:"service,omitempty"`
	Primary bool     `json:"primary,omitempty"`
}

func toRecord(t int64, e model.Event) traceRecord {
	rec := traceRecord{
		T:       t,
		Type:    int(e.Type),
		Proc:    string(e.Proc),
		CfgKind: int(e.Config.Kind),
		CfgSeq:  e.Config.Seq,
		CfgRep:  string(e.Config.Rep),
		PrevSeq: e.Config.PrevSeq,
		PrevRep: string(e.Config.PrevRep),
		Sender:  string(e.Msg.Sender),
		SendSeq: e.Msg.SenderSeq,
		Service: int(e.Service),
		Primary: e.Primary,
	}
	for _, m := range e.Members.View() {
		rec.Members = append(rec.Members, string(m))
	}
	return rec
}

func (rec traceRecord) event() model.Event {
	members := make([]model.ProcessID, len(rec.Members))
	for i, m := range rec.Members {
		members[i] = model.ProcessID(m)
	}
	return model.Event{
		Type: model.EventType(rec.Type),
		Proc: model.ProcessID(rec.Proc),
		Config: model.ConfigID{
			Kind:    model.ConfigKind(rec.CfgKind),
			Seq:     rec.CfgSeq,
			Rep:     model.ProcessID(rec.CfgRep),
			PrevSeq: rec.PrevSeq,
			PrevRep: model.ProcessID(rec.PrevRep),
		},
		Members: model.NewProcessSet(members...),
		Msg:     model.MessageID{Sender: model.ProcessID(rec.Sender), SenderSeq: rec.SendSeq},
		Service: model.Service(rec.Service),
		Primary: rec.Primary,
	}
}

// TraceWriter appends formal-model events to a JSONL file. Safe for
// concurrent use; Close flushes.
type TraceWriter struct {
	mu  sync.Mutex
	f   *os.File
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewTraceWriter creates (truncating) the trace file.
func NewTraceWriter(path string) (*TraceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("daemon: create trace %s: %w", path, err)
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	return &TraceWriter{f: f, bw: bw, enc: json.NewEncoder(bw)}, nil
}

// Append records one event at the given wall-clock time (unix nanos).
func (w *TraceWriter) Append(t int64, e model.Event) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.enc.Encode(toRecord(t, e))
}

// Close flushes and closes the file. Idempotent.
func (w *TraceWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	f := w.f
	w.f = nil
	if err := w.bw.Flush(); err != nil {
		f.Close() //lint:allow lockheld teardown must serialize with concurrent Append writers; Close is the final write
		return err
	}
	return f.Close() //lint:allow lockheld teardown must serialize with concurrent Append writers; Close is the final write
}

// timedEvent pairs an event with its on-disk timestamp for merging.
type timedEvent struct {
	t int64
	e model.Event
}

// readTrace loads one trace file.
func readTrace(path string) ([]timedEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("daemon: open trace %s: %w", path, err)
	}
	defer f.Close()
	var out []timedEvent
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec traceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("daemon: trace %s line %d: %w", path, line, err)
		}
		out = append(out, timedEvent{t: rec.T, e: rec.event()})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("daemon: read trace %s: %w", path, err)
	}
	return out, nil
}

// MergeTraces loads per-process trace files and interleaves them by
// wall-clock timestamp (stable, so each file's own order is preserved on
// ties). On one machine — the loopback deployment — timestamps give a
// plausible global order; the EVS specifications themselves are
// order-robust per process, which is what the checker verifies.
func MergeTraces(paths ...string) ([]model.Event, error) {
	var all []timedEvent
	for _, p := range paths {
		evs, err := readTrace(p)
		if err != nil {
			return nil, err
		}
		all = append(all, evs...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].t < all[j].t })
	out := make([]model.Event, len(all))
	for i, te := range all {
		out[i] = te.e
	}
	return out, nil
}

// Certify runs the specification checker over a merged multi-process
// trace. Settledness is off: a deployment trace ends whenever the
// operator stopped collecting (or SIGKILLed a daemon, which records no
// Fail event), so only the safety clauses — the ones a partial history
// can witness — are checked.
func Certify(events []model.Event) []spec.Violation {
	return spec.NewChecker(events, spec.Options{Settled: false}).CheckAll()
}
