package trace

import (
	"fmt"

	"blob/internal/wire"
)

// The two methods every process serves from its tracer (the rpc server
// registers them in SetTracer).
//
// MSpans returns the span ring, optionally filtered to one trace:
//
//	request:  u64 traceID (0 = all)
//	response: uvarint n | n × span (see EncodeSpans)
//
// MEvents returns an event tail (see EventTail):
//
//	request:  uvarint sinceSeq | u8 minSeverity (empty body = everything)
//	response: u64 incarnation | uvarint latestSeq | uvarint n | n × event
const (
	MSpans  = 0x0601
	MEvents = 0x0701
)

// The least bytes one record takes on the wire: three u64 ids, three
// string lengths and three varints for a span; one byte for each of an
// event's seven fields.
const (
	minSpanBytes  = 3*8 + 3 + 3
	minEventBytes = 7
)

// EncodeSpansQuery builds an MSpans request body.
func EncodeSpansQuery(traceID uint64) []byte {
	w := wire.NewWriter(8)
	w.Uint64(traceID)
	return w.Bytes()
}

// DecodeSpansQuery parses an MSpans request body. An empty body asks
// for everything.
func DecodeSpansQuery(body []byte) (uint64, error) {
	if len(body) == 0 {
		return 0, nil
	}
	r := wire.NewReader(body)
	id := r.Uint64()
	return id, r.Err()
}

// EncodeSpans serializes spans as an MSpans response.
func EncodeSpans(spans []Span) []byte {
	w := wire.NewWriter(64 * (1 + len(spans)))
	w.Uvarint(uint64(len(spans)))
	for _, sp := range spans {
		w.Uint64(sp.TraceID)
		w.Uint64(sp.ID)
		w.Uint64(sp.Parent)
		w.String(sp.Name)
		w.String(sp.Node)
		w.Varint(sp.Start)
		w.Varint(sp.Dur)
		w.Varint(sp.Bytes)
		w.String(sp.Note)
	}
	return w.Bytes()
}

// DecodeSpans parses an MSpans response.
func DecodeSpans(body []byte) ([]Span, error) {
	r := wire.NewReader(body)
	out := make([]Span, r.Count(minSpanBytes))
	for i := range out {
		out[i] = Span{
			TraceID: r.Uint64(),
			ID:      r.Uint64(),
			Parent:  r.Uint64(),
			Name:    r.String(),
			Node:    r.String(),
			Start:   r.Varint(),
			Dur:     r.Varint(),
			Bytes:   r.Varint(),
			Note:    r.String(),
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("trace: decode spans: %w", err)
	}
	return out, nil
}

// EncodeEventsQuery builds an MEvents request body.
func EncodeEventsQuery(sinceSeq uint64, minSev Severity) []byte {
	w := wire.NewWriter(12)
	w.Uvarint(sinceSeq)
	w.Uint8(uint8(minSev))
	return w.Bytes()
}

// DecodeEventsQuery parses an MEvents request body. An empty body asks
// for everything.
func DecodeEventsQuery(body []byte) (uint64, Severity, error) {
	if len(body) == 0 {
		return 0, SevInfo, nil
	}
	r := wire.NewReader(body)
	since := r.Uvarint()
	sev := Severity(r.Uint8())
	return since, sev, r.Err()
}

// EncodeEvents serializes an event tail as an MEvents response.
func EncodeEvents(tail EventTail) []byte {
	w := wire.NewWriter(48 * (1 + len(tail.Events)))
	w.Uint64(tail.Incarnation)
	w.Uvarint(tail.Latest)
	w.Uvarint(uint64(len(tail.Events)))
	for _, e := range tail.Events {
		w.Uvarint(e.Seq)
		w.Varint(e.Time)
		w.Uint8(uint8(e.Sev))
		w.Uvarint(uint64(e.Type))
		w.String(e.Node)
		w.String(e.Msg)
		w.Varint(e.Val)
	}
	return w.Bytes()
}

// DecodeEvents parses an MEvents response.
func DecodeEvents(body []byte) (EventTail, error) {
	r := wire.NewReader(body)
	tail := EventTail{Incarnation: r.Uint64(), Latest: r.Uvarint()}
	tail.Events = make([]Event, r.Count(minEventBytes))
	for i := range tail.Events {
		tail.Events[i] = Event{
			Seq:  r.Uvarint(),
			Time: r.Varint(),
			Sev:  Severity(r.Uint8()),
			Type: Type(r.Uvarint()),
			Node: r.String(),
			Msg:  r.String(),
			Val:  r.Varint(),
		}
	}
	if err := r.Err(); err != nil {
		return EventTail{}, fmt.Errorf("trace: decode events: %w", err)
	}
	return tail, nil
}
