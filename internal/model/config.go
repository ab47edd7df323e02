package model

import "fmt"

// ConfigKind distinguishes the two kinds of configuration the EVS algorithm
// presents to the application (Section 2): in a regular configuration new
// messages are broadcast and delivered; in a transitional configuration no
// new messages are broadcast but the remaining messages of the prior regular
// configuration are delivered.
type ConfigKind int

const (
	// Regular marks a regular configuration.
	Regular ConfigKind = iota + 1
	// Transitional marks a transitional configuration.
	Transitional
)

// String returns "regular" or "transitional".
func (k ConfigKind) String() string {
	switch k {
	case Regular:
		return "regular"
	case Transitional:
		return "transitional"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ConfigID uniquely identifies a configuration.
//
// A regular configuration is identified by the pair (Seq, Rep): Seq is the
// ring sequence number chosen by the membership algorithm (strictly larger
// than any ring sequence known to any member) and Rep is the representative
// (lowest member ID). This is the standard Totem ring identifier.
//
// A transitional configuration follows exactly one regular configuration and
// precedes exactly one regular configuration, so it is identified by the
// regular configuration it leads to (Seq, Rep) plus the regular
// configuration it comes from (PrevSeq, PrevRep). Two transitional
// configurations formed out of different prior regular configurations during
// the same merge therefore receive distinct identifiers, as the model
// requires: trans_p(c) need not equal trans_q(c).
type ConfigID struct {
	Kind ConfigKind
	Seq  uint64
	Rep  ProcessID
	// PrevSeq and PrevRep identify the preceding regular configuration
	// and are set only when Kind == Transitional.
	PrevSeq uint64
	PrevRep ProcessID
}

// IsZero reports whether the ID is the zero value (no configuration).
func (c ConfigID) IsZero() bool { return c.Kind == 0 }

// IsRegular reports whether the configuration is regular.
func (c ConfigID) IsRegular() bool { return c.Kind == Regular }

// IsTransitional reports whether the configuration is transitional.
func (c ConfigID) IsTransitional() bool { return c.Kind == Transitional }

// Prev returns the identifier of the regular configuration preceding a
// transitional configuration. Calling Prev on a regular configuration
// returns the configuration itself: reg_p(c) = c when c is regular.
func (c ConfigID) Prev() ConfigID {
	if c.Kind != Transitional {
		return c
	}
	return ConfigID{Kind: Regular, Seq: c.PrevSeq, Rep: c.PrevRep}
}

// String renders the identifier, e.g. "reg(7@a)" or "trans(9@a<-7@c)".
func (c ConfigID) String() string {
	switch c.Kind {
	case Regular:
		return fmt.Sprintf("reg(%d@%s)", c.Seq, c.Rep)
	case Transitional:
		return fmt.Sprintf("trans(%d@%s<-%d@%s)", c.Seq, c.Rep, c.PrevSeq, c.PrevRep)
	default:
		return "config(?)"
	}
}

// RegularID constructs the identifier of a regular configuration.
func RegularID(seq uint64, rep ProcessID) ConfigID {
	return ConfigID{Kind: Regular, Seq: seq, Rep: rep}
}

// TransitionalID constructs the identifier of the transitional configuration
// that bridges from the regular configuration prev to the regular
// configuration next.
func TransitionalID(next, prev ConfigID) ConfigID {
	return ConfigID{
		Kind:    Transitional,
		Seq:     next.Seq,
		Rep:     next.Rep,
		PrevSeq: prev.Seq,
		PrevRep: prev.Rep,
	}
}

// Configuration is a configuration identifier together with its agreed
// membership. The membership algorithm guarantees that all processes in a
// configuration agree on the membership of that configuration.
type Configuration struct {
	ID      ConfigID
	Members ProcessSet
}

// String renders the configuration with its membership.
func (c Configuration) String() string {
	return fmt.Sprintf("%s%s", c.ID, c.Members)
}
