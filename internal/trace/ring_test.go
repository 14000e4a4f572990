package trace

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"
)

// TestRingOverwrite pins the ring both record types share: it keeps the
// newest records once it wraps, the since-cursor and the filters select
// from what is live, and the latest sequence never trails the records
// returned.
func TestRingOverwrite(t *testing.T) {
	all := func(uint64, *int) bool { return true }
	r := ring[int]{size: 4}
	if got, latest := r.since(0, all); got != nil || latest != 0 {
		t.Fatalf("empty ring: %v, latest %d", got, latest)
	}
	for i := 1; i <= 10; i++ {
		r.push(10 * i)
	}
	for _, tc := range []struct {
		since uint64
		want  []int
	}{
		{0, []int{70, 80, 90, 100}}, // wrapped: the newest four
		{2, []int{70, 80, 90, 100}}, // a cursor older than the window
		{8, []int{90, 100}},         // a cursor inside it
		{10, nil},                   // a cursor at the newest
		{math.MaxUint64, nil},       // a cursor from another incarnation
	} {
		got, latest := r.since(tc.since, all)
		if latest != 10 || !slices.Equal(got, tc.want) {
			t.Errorf("since(%d) = %v, latest %d; want %v, 10", tc.since, got, latest, tc.want)
		}
	}
	got, _ := r.since(0, func(seq uint64, v *int) bool { *v = int(seq); return seq%2 == 0 })
	if !slices.Equal(got, []int{8, 10}) {
		t.Errorf("keep saw record numbers %v, want [8 10]", got)
	}

	// The filters the two record types put on it: severity (on a
	// wrapped event ring, with Seq stamped) and trace id.
	tr := newSized("n", 4, 1)
	for i, sev := range []Severity{SevError, SevInfo, SevWarn, SevInfo, SevError, SevWarn} {
		tr.Emit(sev, CompactionDone, int64(i), "c%d", i)
	}
	tail := tr.Tail(3, SevWarn)
	if tail.Latest != 6 || tail.Incarnation == 0 || len(tail.Events) != 2 ||
		tail.Events[0].Seq != 5 || tail.Events[0].Val != 4 || tail.Events[1].Seq != 6 {
		t.Errorf("Tail(3, warn) = %+v, want events 5 and 6 of 6", tail)
	}
	ctx, a := tr.ForceRoot(context.Background(), "a")
	_, child := Start(ctx, "a.child")
	child.End()
	a.End()
	_, b := tr.ForceRoot(context.Background(), "b")
	b.End()
	if spans := tr.SpansFor(a.TraceID()); len(spans) != 2 || spans[0].Name != "a.child" || spans[1].Name != "a" {
		t.Errorf("SpansFor(a) = %+v", spans)
	}
	if spans := tr.Spans(); len(spans) != 3 {
		t.Errorf("Spans() holds %d, want 3", len(spans))
	}

	// Under concurrent pushes every read ends exactly at the latest
	// sequence it reports.
	r = ring[int]{size: 64}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20000; i++ {
			r.push(i)
		}
	}()
	for i := 0; i < 2000; i++ {
		got, latest := r.since(0, func(seq uint64, v *int) bool { *v = int(seq); return true })
		if n := len(got); n > 0 && uint64(got[n-1]) != latest {
			t.Fatalf("read ends at record %d, but reports latest %d", got[n-1], latest)
		}
	}
	wg.Wait()
}
