package model

import "testing"

func TestConfigIDKinds(t *testing.T) {
	reg := RegularID(7, "a")
	if !reg.IsRegular() || reg.IsTransitional() || reg.IsZero() {
		t.Fatalf("RegularID misclassified: %+v", reg)
	}
	tr := TransitionalID(RegularID(9, "a"), reg)
	if !tr.IsTransitional() || tr.IsRegular() {
		t.Fatalf("TransitionalID misclassified: %+v", tr)
	}
	var zero ConfigID
	if !zero.IsZero() {
		t.Fatal("zero ConfigID should report IsZero")
	}
}

func TestConfigIDPrev(t *testing.T) {
	reg := RegularID(7, "a")
	// reg_p(c) = c for a regular configuration.
	if reg.Prev() != reg {
		t.Fatalf("Prev of regular = %v, want itself", reg.Prev())
	}
	next := RegularID(9, "a")
	tr := TransitionalID(next, reg)
	if tr.Prev() != reg {
		t.Fatalf("Prev of transitional = %v, want %v", tr.Prev(), reg)
	}
}

func TestTransitionalIDsDistinctPerOrigin(t *testing.T) {
	// Two components with different prior regular configurations merging
	// into the same next regular configuration must produce distinct
	// transitional configuration identifiers (trans_p(c) != trans_q(c)).
	next := RegularID(12, "a")
	t1 := TransitionalID(next, RegularID(7, "a"))
	t2 := TransitionalID(next, RegularID(8, "s"))
	if t1 == t2 {
		t.Fatal("transitional IDs from different origins must differ")
	}
}

func TestConfigIDString(t *testing.T) {
	reg := RegularID(7, "a")
	if got := reg.String(); got != "reg(7@a)" {
		t.Errorf("String() = %q", got)
	}
	tr := TransitionalID(RegularID(9, "b"), reg)
	if got := tr.String(); got != "trans(9@b<-7@a)" {
		t.Errorf("String() = %q", got)
	}
}

func TestConfigurationString(t *testing.T) {
	c := Configuration{ID: RegularID(1, "p"), Members: NewProcessSet("p", "q")}
	if got := c.String(); got != "reg(1@p){p,q}" {
		t.Errorf("String() = %q", got)
	}
}

func TestEventString(t *testing.T) {
	tests := []struct {
		e    Event
		want string
	}{
		{
			Event{Type: EventSend, Proc: "p", Msg: MessageID{"p", 1}, Config: RegularID(1, "p")},
			"send_p(p:1, reg(1@p))",
		},
		{
			Event{Type: EventDeliver, Proc: "q", Msg: MessageID{"p", 1}, Config: RegularID(1, "p")},
			"deliver_q(p:1, reg(1@p))",
		},
		{
			Event{Type: EventDeliverConf, Proc: "q", Config: RegularID(1, "p"), Members: NewProcessSet("p", "q")},
			"deliver_conf_q(reg(1@p){p,q})",
		},
		{
			Event{Type: EventDeliverConf, Proc: "q", Config: RegularID(1, "p"), Members: NewProcessSet("q"), Primary: true},
			"deliver_conf_q(reg(1@p){q} primary)",
		},
		{
			Event{Type: EventFail, Proc: "r", Config: RegularID(2, "p")},
			"fail_r(reg(2@p))",
		},
	}
	for _, tt := range tests {
		if got := tt.e.String(); got != tt.want {
			t.Errorf("Event.String() = %q, want %q", got, tt.want)
		}
	}
}

func TestEventTypeString(t *testing.T) {
	if EventSend.String() != "send" || EventDeliver.String() != "deliver" ||
		EventDeliverConf.String() != "deliver_conf" || EventFail.String() != "fail" {
		t.Error("unexpected event type names")
	}
}
