package trace

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzTraceDecoders feeds arbitrary bodies to the recorder's four
// network decoders: the MSpans reply and query and the MEvents reply and
// query (which = 0..3). No body panics or sizes an allocation from a
// count its bytes cannot hold, and whatever decodes survives a re-encode
// unchanged.
func FuzzTraceDecoders(f *testing.F) {
	tailHead := EncodeEvents(EventTail{Incarnation: 1, Latest: 2})
	tailHead = tailHead[:len(tailHead)-1] // drop the zero count
	f.Add(uint8(0), EncodeSpans([]Span{{TraceID: 1, ID: 2, Name: "a", Node: "n", Start: 5, Dur: 3, Note: "x"}}))
	f.Add(uint8(1), EncodeEvents(EventTail{Incarnation: 3, Latest: 1, Events: []Event{{Seq: 1, Time: 9, Sev: SevWarn, Type: HeartbeatDeath, Node: "pm", Msg: "m", Val: 2}}}))
	f.Add(uint8(2), EncodeSpansQuery(7))
	f.Add(uint8(3), EncodeEventsQuery(4, SevError))
	for _, n := range []uint64{1 << 40, 1 << 63} {
		f.Add(uint8(0), binary.AppendUvarint(nil, n))
		f.Add(uint8(1), binary.AppendUvarint(slices.Clone(tailHead), n))
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		switch which % 4 {
		case 0:
			spans, err := DecodeSpans(body)
			if err != nil {
				return
			}
			if len(spans) > len(body)/minSpanBytes {
				t.Fatalf("%d spans from %d bytes", len(spans), len(body))
			}
			if again, err := DecodeSpans(EncodeSpans(spans)); err != nil || !slices.Equal(again, spans) {
				t.Fatalf("spans do not survive a re-encode: %v", err)
			}
		case 1:
			tail, err := DecodeEvents(body)
			if err != nil {
				return
			}
			if len(tail.Events) > len(body)/minEventBytes {
				t.Fatalf("%d events from %d bytes", len(tail.Events), len(body))
			}
			again, err := DecodeEvents(EncodeEvents(tail))
			if err != nil || again.Incarnation != tail.Incarnation || again.Latest != tail.Latest || !slices.Equal(again.Events, tail.Events) {
				t.Fatalf("event tail does not survive a re-encode: %v", err)
			}
		case 2:
			id, err := DecodeSpansQuery(body)
			if err != nil {
				return
			}
			if again, err := DecodeSpansQuery(EncodeSpansQuery(id)); err != nil || again != id {
				t.Fatalf("spans query %d re-decodes as %d, %v", id, again, err)
			}
		case 3:
			since, sev, err := DecodeEventsQuery(body)
			if err != nil {
				return
			}
			if s2, sev2, err := DecodeEventsQuery(EncodeEventsQuery(since, sev)); err != nil || s2 != since || sev2 != sev {
				t.Fatalf("events query (%d, %v) re-decodes as (%d, %v), %v", since, sev, s2, sev2, err)
			}
		}
	})
}
