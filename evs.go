// Package evs is a Go reproduction of "Extended Virtual Synchrony" (Moser,
// Amir, Melliar-Smith, Agarwal; ICDCS 1994): a group communication
// transport for multicast and broadcast communication that keeps the
// delivery of messages and the delivery of configuration changes in a
// consistent relationship across ALL processes of a distributed system —
// including processes in non-primary components of a partitioned network
// and processes that fail and recover with stable storage intact.
//
// The package exposes three layers:
//
//   - The extended virtual synchrony service itself: totally ordered
//     (agreed) and all-stable (safe) delivery within regular and
//     transitional configurations, over a Totem-style token ring,
//     membership consensus and the EVS recovery algorithm.
//   - The primary component algorithm of Section 5: each regular
//     configuration is asynchronously announced primary or non-primary,
//     with the Section 2.2 Uniqueness and Continuity guarantees.
//   - The virtual synchrony filter of Section 5 (Rules 1-4): a process
//     group abstraction in Birman's model, in which only the primary
//     component makes progress.
//
// A Group runs a complete cluster on a deterministic discrete-event
// simulation of a broadcast LAN: partitions, merges, crashes and
// recoveries are scheduled at virtual times and every execution replays
// exactly from its seed. A LiveGroup runs the same processes, layers
// included, on the wall clock over an in-process hub or loopback sockets.
// The specification checker (Check, CheckVS) verifies executions against
// the paper's formal model.
package evs

import (
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/spine"
	"repro/internal/vsfilter"
)

// Re-exported vocabulary. These aliases make the public API self-contained
// while the internal packages share the same types.
type (
	// ProcessID identifies a process; recovered processes keep theirs.
	ProcessID = model.ProcessID
	// MessageID identifies a message system-wide.
	MessageID = model.MessageID
	// Service is the delivery service level.
	Service = model.Service
	// ConfigID identifies a regular or transitional configuration.
	ConfigID = model.ConfigID
	// Configuration is a configuration with its membership.
	Configuration = model.Configuration
	// ProcessSet is a sorted set of process identifiers.
	ProcessSet = model.ProcessSet
	// Event is a formal-model trace event.
	Event = model.Event
	// Violation is a specification breach found by the checker.
	Violation = spec.Violation
	// View is a virtual synchrony view (VS layer).
	View = vsfilter.View
	// ViewID identifies a virtual synchrony view.
	ViewID = vsfilter.ViewID
	// VSViolation is a virtual synchrony model breach.
	VSViolation = vsfilter.Violation
)

// Service levels.
const (
	// Agreed requests totally ordered delivery within each component.
	Agreed = model.Agreed
	// Safe requests all-stable totally ordered delivery: if any process
	// in a component delivers the message, every process in that
	// component has received it and will deliver it unless it fails.
	Safe = model.Safe
)

// NewProcessSet builds a process set.
func NewProcessSet(ids ...ProcessID) ProcessSet { return model.NewProcessSet(ids...) }

// What a cluster records, shared by every runtime (see internal/spine).
type (
	// Delivery is a message delivered to the application by the EVS
	// layer: Msg, Payload, Service, the Config it was delivered in, and
	// the Time on the cluster's clock (virtual in the simulator).
	Delivery = spine.Delivery
	// ConfigEvent is a configuration change delivered to the application.
	ConfigEvent = spine.ConfigEvent
	// PrimaryEvent reports the primary component algorithm's verdict for
	// a regular configuration.
	PrimaryEvent = spine.PrimaryEvent
	// VSEvent is an output of the virtual synchrony filter at one
	// process: either a view change or a delivery within a view.
	VSEvent = spine.VSEvent
)
