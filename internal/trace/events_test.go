package trace

import (
	"reflect"
	"testing"
)

func TestNilTracerEmitsNothing(t *testing.T) {
	var tr *Tracer
	tr.Emit(SevWarn, HeartbeatDeath, 3, "provider %d dead", 3)
	if got := tr.Events(); got != nil {
		t.Fatalf("nil tracer returned events: %v", got)
	}
	if tail := tr.Tail(0, SevInfo); !reflect.DeepEqual(tail, EventTail{}) {
		t.Fatalf("nil tracer tail = %+v", tail)
	}
}

func TestEmitAndFilter(t *testing.T) {
	tr := newSized("n1", 16, 0)
	tr.Emit(SevInfo, RepairStart, 2, "sweep of %d blobs", 2)
	tr.Emit(SevWarn, HeartbeatDeath, 7, "provider 7 silent")
	tr.Emit(SevError, Unrepairable, 1, "1 page lost")

	all := tr.Events()
	if len(all) != 3 {
		t.Fatalf("got %d events, want 3", len(all))
	}
	for i, e := range all {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d has Seq %d", i, e.Seq)
		}
		if e.Node != "n1" {
			t.Errorf("event %d node = %q", i, e.Node)
		}
	}
	if all[0].Msg != "sweep of 2 blobs" || all[0].Val != 2 {
		t.Errorf("formatting lost: %+v", all[0])
	}

	warns := tr.Tail(0, SevWarn).Events
	if len(warns) != 2 || warns[0].Type != HeartbeatDeath || warns[1].Type != Unrepairable {
		t.Fatalf("severity filter wrong: %+v", warns)
	}
	tail := tr.Tail(2, SevInfo).Events
	if len(tail) != 1 || tail[0].Type != Unrepairable {
		t.Fatalf("since-seq filter wrong: %+v", tail)
	}
	// Events land in their own ring: recording spans does not evict them.
	for i := 0; i < 20; i++ {
		_, op := tr.ForceRoot(t.Context(), "op")
		op.End()
	}
	if n := len(tr.Events()); n != 3 {
		t.Fatalf("spans evicted events: %d left", n)
	}
}

// TestEventRingOverwrite: a full event ring keeps the newest events,
// with the sequence numbers they were emitted under.
func TestEventRingOverwrite(t *testing.T) {
	tr := newSized("n", 4, 0)
	for i := 0; i < 10; i++ {
		tr.Emit(SevInfo, CompactionDone, int64(i), "c%d", i)
	}
	got := tr.Events()
	if len(got) != 4 {
		t.Fatalf("ring of 4 holds %d", len(got))
	}
	for i, e := range got {
		if want := uint64(7 + i); e.Seq != want || e.Val != int64(want-1) {
			t.Errorf("slot %d = Seq %d Val %d, want Seq %d Val %d", i, e.Seq, e.Val, want, want-1)
		}
	}
}

func TestEventsWireRoundTrip(t *testing.T) {
	tr := newSized("node-2", 8, 0)
	tr.Emit(SevWarn, DialFailure, 5, "dial 10.0.0.1:99: %v", "refused")
	tr.Emit(SevInfo, MembershipRefresh, 3, "epoch 3")
	want := tr.Tail(0, SevInfo)

	got, err := DecodeEvents(EncodeEvents(want))
	if err != nil {
		t.Fatalf("DecodeEvents: %v", err)
	}
	if got.Latest != 2 || got.Incarnation != tr.seed {
		t.Errorf("latest %d, incarnation %#x; want 2, %#x", got.Latest, got.Incarnation, tr.seed)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}

	// An empty set round-trips to empty; the latest sequence and the
	// incarnation still travel (how a poller tells a filtered-out tail
	// from a restarted process).
	got, err = DecodeEvents(EncodeEvents(EventTail{Incarnation: 9, Latest: 7}))
	if err != nil || len(got.Events) != 0 || got.Latest != 7 || got.Incarnation != 9 {
		t.Fatalf("empty round trip: %+v %v", got, err)
	}

	// A corrupt count must be rejected before allocation.
	if _, err := DecodeEvents([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0x00, 0xff, 0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Fatal("oversized count accepted")
	}
}

func TestEventsQueryWire(t *testing.T) {
	since, sev, err := DecodeEventsQuery(EncodeEventsQuery(42, SevError))
	if err != nil || since != 42 || sev != SevError {
		t.Fatalf("query round trip: %d %v %v", since, sev, err)
	}
	since, sev, err = DecodeEventsQuery(nil)
	if err != nil || since != 0 || sev != SevInfo {
		t.Fatalf("empty query: %d %v %v", since, sev, err)
	}
}

func TestSeverityParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Severity
	}{{"info", SevInfo}, {"WARN", SevWarn}, {"error", SevError}} {
		got, err := ParseSeverity(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSeverity(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseSeverity("loud"); err == nil {
		t.Error("ParseSeverity accepted junk")
	}
}
