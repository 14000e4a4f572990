package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"blob/internal/netsim"
	"blob/internal/trace"
)

func readerOver(data []byte) *frameReader {
	return newFrameReader(bytes.NewReader(data))
}

// reqHeader builds a request header by hand, independently of the
// client's encoder: kind | id | method | flags | optional fields.
func reqHeader(kind byte, id uint64, method uint32, flags byte, tc trace.Ctx, dlMS uint64) []byte {
	b := []byte{kind}
	b = binary.LittleEndian.AppendUint64(b, id)
	b = binary.LittleEndian.AppendUint32(b, method)
	b = append(b, flags)
	if flags&flagTraced != 0 {
		b = binary.LittleEndian.AppendUint64(b, tc.TraceID)
		b = binary.LittleEndian.AppendUint64(b, tc.SpanID)
	}
	if flags&flagDeadline != 0 {
		b = binary.AppendUvarint(b, dlMS)
	}
	return b
}

// TestRequestHeaderLayout pins the one request frame:
//
//	0x05 | u64 id | u32 method | u8 flags | [u64 traceID | u64 spanID] | [uvarint deadlineMS] | uvarint len | body
//
// for each of the four flag combinations, byte for byte as the client
// emits it and field for field as the server parses it; then what the
// server refuses (unknown flags, out-of-range budgets, the retired
// kinds) and what the client never sends (an expired call).
func TestRequestHeaderLayout(t *testing.T) {
	tc := trace.Ctx{TraceID: 0x1122334455667788, SpanID: 0x99aabbccddeeff00}
	// A 100 ms budget always encodes as a one-byte uvarint, which keeps
	// the frame length fixed while the value itself depends on timing.
	const budget = 100 * time.Millisecond
	for _, tt := range []struct {
		name     string
		tc       trace.Ctx
		deadline bool
		flags    byte
	}{
		{"plain", trace.Ctx{}, false, 0},
		{"traced", tc, false, flagTraced},
		{"deadline", trace.Ctx{}, true, flagDeadline},
		{"traced+deadline", tc, true, flagTraced | flagDeadline},
	} {
		t.Run(tt.name, func(t *testing.T) {
			conn := newCaptureConn()
			c := NewClient(conn)
			defer c.Close()
			ctx := trace.ContextWith(context.Background(), nil, tt.tc)
			if tt.deadline {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, budget)
				defer cancel()
			}
			// Segments go out back to back; empty ones leave no trace.
			c.Go(ctx, 7, [][]byte{nil, []byte("h"), {}, []byte("i")}, nil)

			// The fixed part, then (separately, its value being timing
			// dependent) the budget byte, then length and body.
			fixed := reqHeader(kindRequest, 1, 7, tt.flags, tt.tc, 0)
			if tt.deadline {
				fixed = fixed[:len(fixed)-1]
			}
			tail := []byte{2, 'h', 'i'}
			n := len(fixed) + len(tail)
			if tt.deadline {
				n++
			}
			got := waitCaptured(t, conn, n)
			if len(got) != n {
				t.Fatalf("frame is %d bytes, want %d: %x", len(got), n, got)
			}
			if !bytes.Equal(got[:len(fixed)], fixed) {
				t.Fatalf("header:\n got %x\nwant %x", got[:len(fixed)], fixed)
			}
			if tt.deadline {
				if ms := got[len(fixed)]; ms < 1 || ms > 100 {
					t.Errorf("deadlineMS = %d, want 1..100", ms)
				}
			}
			if !bytes.Equal(got[n-len(tail):], tail) {
				t.Fatalf("length+body: got %x want %x", got[n-len(tail):], tail)
			}

			// The server's parser reads the same fields back.
			fr := readerOver(got)
			h, err := fr.readRequestHeader()
			if err != nil {
				t.Fatal(err)
			}
			if h.id != 1 || h.method != 7 || h.tc != tt.tc {
				t.Errorf("parsed %+v, want id=1 method=7 tc=%+v", h, tt.tc)
			}
			if tt.deadline != (h.budget > 0) || h.budget > budget {
				t.Errorf("parsed budget %v, deadline=%v", h.budget, tt.deadline)
			}
			body, err := fr.readBody()
			if err != nil || string(body.Bytes()) != "hi" {
				t.Errorf("body = %v, %v; want hi", body, err)
			}
		})
	}

	for _, tt := range []struct {
		name string
		hdr  []byte
	}{
		{"unknown flag", reqHeader(kindRequest, 1, 7, 0x04, trace.Ctx{}, 0)},
		{"unknown flag beside known ones", reqHeader(kindRequest, 1, 7, 0x83, tc, 5)},
		{"zero budget", reqHeader(kindRequest, 1, 7, flagDeadline, trace.Ctx{}, 0)},
		{"budget over the bound", reqHeader(kindRequest, 1, 7, flagDeadline, trace.Ctx{}, maxDeadlineMS+1)},
		// 1<<63 ms used to overflow time.Duration into an arbitrary deadline.
		{"budget overflowing Duration", reqHeader(kindRequest, 1, 7, flagDeadline, trace.Ctx{}, 1<<63)},
		{"retired kind 0x01", reqHeader(0x01, 1, 7, 0, trace.Ctx{}, 0)},
		{"retired kind 0x03", reqHeader(0x03, 1, 7, 0, trace.Ctx{}, 0)},
		{"retired kind 0x04", reqHeader(0x04, 1, 7, 0, trace.Ctx{}, 0)},
		{"response kind", reqHeader(kindResponse, 1, 7, 0, trace.Ctx{}, 0)},
	} {
		t.Run("rejects "+tt.name, func(t *testing.T) {
			frame := append(tt.hdr, 0) // empty body
			if _, err := readerOver(frame).readRequestHeader(); !errors.Is(err, errBadRequest) {
				t.Fatalf("parse err = %v, want errBadRequest", err)
			}
			// Over a live connection the server answers by closing it.
			n, addr := newTestServer(t, netsim.Fast())
			raw, err := n.Host("cli").Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			if _, err := raw.Write(frame); err != nil {
				t.Fatal(err)
			}
			raw.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := raw.Read(make([]byte, 1)); err == nil {
				t.Fatal("server answered a malformed request; want connection closed")
			} else if ne, ok := err.(interface{ Timeout() bool }); ok && ne.Timeout() {
				t.Fatal("connection still open 2s after a malformed request")
			}
		})
	}

	t.Run("bound budget accepted", func(t *testing.T) {
		h, err := readerOver(reqHeader(kindRequest, 1, 7, flagDeadline, trace.Ctx{}, maxDeadlineMS)).readRequestHeader()
		if err != nil || h.budget != 24*time.Hour {
			t.Fatalf("budget = %v, %v; want 24h", h.budget, err)
		}
	})

	t.Run("budget clamped by the client", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*24*time.Hour)
		defer cancel()
		if ms, expired := deadlineBudget(ctx); ms != maxDeadlineMS || expired {
			t.Fatalf("budget = %d ms (expired %v), want %d", ms, expired, maxDeadlineMS)
		}
	})

	// A call whose deadline already passed fails with
	// context.DeadlineExceeded without touching the wire.
	t.Run("expired locally", func(t *testing.T) {
		conn := newCaptureConn()
		c := NewClient(conn)
		defer c.Close()
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		sent := M.CallsSent.Value()
		if _, err := c.Go(ctx, mEcho, [][]byte{[]byte("x")}, nil).Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
		if got := M.CallsSent.Value(); got != sent {
			t.Errorf("expired call was sent (CallsSent %d -> %d)", sent, got)
		}
		if b := conn.bytes(); len(b) != 0 {
			t.Errorf("expired call wrote %x", b)
		}
	})
}

// FuzzRequestHeader feeds arbitrary bytes to the server's request parse
// (header, then body, as serveConn runs them). Whatever the input, it
// must not panic, must only accept a deadline budget that converts to a
// Duration without overflow, and must never hand out a body larger than
// MaxBody or than the input itself. The committed corpus
// (testdata/fuzz/FuzzRequestHeader) holds the malformed shapes: torn
// frames, unknown flags, out-of-range budgets, oversized body claims and
// the retired kinds.
func FuzzRequestHeader(f *testing.F) {
	tc := trace.Ctx{TraceID: 1, SpanID: 2}
	for _, flags := range []byte{0, flagTraced, flagDeadline, flagTraced | flagDeadline} {
		f.Add(append(reqHeader(kindRequest, 9, 0x0301, flags, tc, 250), 2, 'h', 'i'))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := readerOver(data)
		h, err := fr.readRequestHeader()
		if err != nil {
			return
		}
		if h.budget < 0 || h.budget > maxDeadlineMS*time.Millisecond {
			t.Fatalf("accepted budget %v outside [0, 24h]", h.budget)
		}
		body, err := fr.readBody()
		if err != nil {
			return
		}
		if body.Len() > MaxBody || body.Len() > len(data) {
			t.Fatalf("body of %d bytes from %d input bytes", body.Len(), len(data))
		}
		body.Release()
	})
}
