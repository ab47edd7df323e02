// Legacy JSON group layer, preserved verbatim (modulo renames) from the
// pre-binary-codec implementation, as a test-only differential oracle
// (TestLegacyDifferential) for the process-level semantics the rewrite
// must preserve (joins/leaves/announces/data at process granularity —
// LegacyMux predates lightweight clients). The shipped package has one
// codec, codec.go.
package groups

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/model"
)

// LegacyKind tags legacy group-layer payloads.
type LegacyKind string

const (
	// LegacyJoin subscribes the sender to a group.
	LegacyJoin LegacyKind = "join"
	// LegacyLeave unsubscribes the sender.
	LegacyLeave LegacyKind = "leave"
	// LegacyAnnounce re-declares the sender's full subscription set
	// (sent on configuration changes).
	LegacyAnnounce LegacyKind = "announce"
	// LegacyData is an application message addressed to a group.
	LegacyData LegacyKind = "data"
)

// LegacyEnvelope is the legacy JSON wire format.
type LegacyEnvelope struct {
	Kind   LegacyKind `json:"kind"`
	Group  string     `json:"group,omitempty"`
	Groups []string   `json:"groups,omitempty"` // LegacyAnnounce
	Data   []byte     `json:"data,omitempty"`   // LegacyData
}

// EncodeLegacy serialises a legacy envelope. Marshal failures are
// propagated, not panicked.
func EncodeLegacy(e LegacyEnvelope) ([]byte, error) {
	b, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("groups: marshal: %w", err)
	}
	return b, nil
}

// DecodeLegacy parses a legacy envelope.
func DecodeLegacy(b []byte) (LegacyEnvelope, error) {
	var e LegacyEnvelope
	if err := json.Unmarshal(b, &e); err != nil {
		return LegacyEnvelope{}, fmt.Errorf("groups: unmarshal: %w", err)
	}
	return e, nil
}

// LegacyMux is the pre-rewrite per-process group multiplexer: JSON
// envelopes, string-keyed tables, full decode at every process, views
// rebuilt by filtering on every change.
type LegacyMux struct {
	self model.ProcessID
	// mine is this process's own subscription set (survives
	// configuration changes; the application's intent).
	mine map[string]bool
	// subs is the replicated subscription table for the current
	// configuration: group -> subscribers heard from.
	subs map[string]map[model.ProcessID]bool
	// cfg is the current regular configuration.
	cfg model.Configuration
}

// NewLegacy creates a legacy multiplexer.
func NewLegacy(self model.ProcessID) *LegacyMux {
	return &LegacyMux{
		self: self,
		mine: make(map[string]bool),
		subs: make(map[string]map[model.ProcessID]bool),
	}
}

// Join returns the payload to broadcast (safe) to subscribe this
// process to a group. Idempotent at the table level.
func (m *LegacyMux) Join(group string) ([]byte, error) {
	m.mine[group] = true
	return EncodeLegacy(LegacyEnvelope{Kind: LegacyJoin, Group: group})
}

// Leave returns the payload to broadcast (safe) to unsubscribe.
func (m *LegacyMux) Leave(group string) ([]byte, error) {
	delete(m.mine, group)
	return EncodeLegacy(LegacyEnvelope{Kind: LegacyLeave, Group: group})
}

// Send returns the payload to broadcast carrying data to a group.
func (m *LegacyMux) Send(group string, data []byte) ([]byte, error) {
	//lint:allow wireown the envelope is serialised to JSON before this call returns; the alias never escapes
	return EncodeLegacy(LegacyEnvelope{Kind: LegacyData, Group: group, Data: data})
}

// Member reports whether this process currently belongs to the group.
func (m *LegacyMux) Member(group string) bool { return m.mine[group] }

// Groups returns this process's subscriptions, sorted.
func (m *LegacyMux) Groups() []string {
	out := make([]string, 0, len(m.mine))
	for g := range m.mine {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// View returns the current view of a group.
func (m *LegacyMux) View(group string) ViewChange {
	return m.view(group)
}

func (m *LegacyMux) view(group string) ViewChange {
	var ids []model.ProcessID
	for p := range m.subs[group] {
		if m.cfg.Members.Contains(p) {
			ids = append(ids, p)
		}
	}
	return ViewChange{
		Group:   group,
		Members: model.NewProcessSet(ids...),
		Config:  m.cfg.ID,
	}
}

// OnConfig ingests a transport configuration change. For a regular
// configuration it resets the table and returns the announcement
// payload to broadcast (safe). The legacy implementation returned no
// view events here; the rewritten Mux fixes that contract.
func (m *LegacyMux) OnConfig(cfg model.Configuration) ([]byte, []Event, error) {
	if cfg.ID.IsTransitional() {
		return nil, nil, nil
	}
	m.cfg = cfg
	m.subs = make(map[string]map[model.ProcessID]bool)
	var announce []byte
	if len(m.mine) > 0 {
		var err error
		announce, err = EncodeLegacy(LegacyEnvelope{Kind: LegacyAnnounce, Groups: m.Groups()})
		if err != nil {
			return nil, nil, err
		}
	}
	return announce, nil, nil
}

// OnDeliver ingests a group-layer payload delivered by the transport
// (in total order) and returns the resulting events at this process.
func (m *LegacyMux) OnDeliver(sender model.ProcessID, payload []byte) []Event {
	env, err := DecodeLegacy(payload)
	if err != nil {
		return nil
	}
	switch env.Kind {
	case LegacyJoin:
		return m.subscribe(sender, env.Group)
	case LegacyLeave:
		return m.unsubscribe(sender, env.Group)
	case LegacyAnnounce:
		var out []Event
		for _, g := range env.Groups {
			out = append(out, m.subscribe(sender, g)...)
		}
		return out
	case LegacyData:
		if !m.mine[env.Group] {
			return nil
		}
		return []Event{Deliver{Group: env.Group, Sender: sender, Payload: env.Data}}
	default:
		return nil
	}
}

// subscribe records a subscription and emits a view change if the
// visible membership changed and this process cares about the group.
func (m *LegacyMux) subscribe(p model.ProcessID, group string) []Event {
	if m.subs[group] == nil {
		m.subs[group] = make(map[model.ProcessID]bool)
	}
	if m.subs[group][p] {
		return nil
	}
	m.subs[group][p] = true
	if !m.mine[group] && p != m.self {
		return nil
	}
	if !m.cfg.Members.Contains(p) {
		return nil
	}
	return []Event{m.view(group)}
}

// unsubscribe removes a subscription, emitting a view change likewise.
func (m *LegacyMux) unsubscribe(p model.ProcessID, group string) []Event {
	if m.subs[group] == nil || !m.subs[group][p] {
		return nil
	}
	delete(m.subs[group], p)
	if p == m.self {
		delete(m.mine, group)
	}
	if !m.mine[group] && p != m.self {
		return nil
	}
	if !m.cfg.Members.Contains(p) {
		return nil
	}
	return []Event{m.view(group)}
}
