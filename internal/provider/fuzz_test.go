package provider

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"testing"

	"blob/internal/rpc"
	"blob/internal/wire"
)

// FuzzProviderRequests feeds arbitrary bodies to the request decoders of
// the page path on a RAM service: MPutPages, MGetPages, MListWrites and
// MDeletePages (which = 0..3). No body panics or sizes an allocation
// from a count its bytes cannot hold; whatever a handler accepts it
// answers with a response the client half parses. which = 2 also
// decodes the body as an MListWrites answer. which = 4 feeds the body to
// the client half itself, as an MGetPages answer: decoded in memory
// (DecodeGetPagesInto) and read off a connection (PagesInto), the two
// agree on the error, the statuses and the destination bytes, and
// neither writes outside its destinations.
func FuzzProviderRequests(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzProviderRequests) holds a
	// well-formed body per handler and the oversized counts that used to
	// crash put, list and the retired pull method, whose pull-* seeds
	// now feed MDeletePages. The answer seeds are here: well-formed
	// (two pages served, one missing, one of the wrong size), truncated
	// mid-payload, and 2^40 and 2^63 counts and lengths.
	answer := []byte{4, 1, 2, 1, 2, 0, 1, 3, 'a', 'b', 'c', 'd', 'x', 'y', 'z'}
	for _, body := range [][]byte{
		answer,
		answer[:len(answer)-2],
		binary.AppendUvarint(nil, 1<<40),
		binary.AppendUvarint(nil, 1<<63),
		append(binary.AppendUvarint([]byte{4, 1}, 1<<40), answer[3:]...),
		append(binary.AppendUvarint([]byte{4, 1}, 1<<63), answer[3:]...),
	} {
		f.Add(uint8(4), body)
	}
	// Holdings answers: one write holding rels 0 and 3, then the same
	// write claiming 2^40 and 2^63 rels, and rels overflowing u32.
	holding := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64([]byte{1}, 1), 1)
	for _, rels := range [][]byte{
		{2, 0, 3},
		binary.AppendUvarint(nil, 1<<40),
		binary.AppendUvarint(nil, 1<<63),
		binary.AppendUvarint([]byte{2}, 1<<32),
		binary.AppendUvarint([]byte{2, 9}, 1<<64-1),
	} {
		f.Add(uint8(2), append(slices.Clip(holding), append(rels, 0, 0, 0)...))
	}
	held := NewStore(0)
	for rel := uint32(0); rel < 4; rel++ {
		if err := held.PutPages([]Page{{Blob: 1, Write: 1, RelPage: rel, Data: []byte{byte(rel), 7}}}); err != nil {
			f.Fatal(err)
		}
	}
	sv := NewService(held)
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		switch which % 5 {
		case 0:
			// A fresh store per input, so accepted puts cannot pile up.
			st := NewStore(0)
			if _, err := NewService(st).handlePutPages(ctx, body); err == nil && st.PageCount.Value() > int64(len(body)/5) {
				t.Fatalf("put stored %d pages from %d bytes", st.PageCount.Value(), len(body))
			}
		case 1:
			segs, bufs, err := sv.handleGetPages(ctx, body)
			releaseAll(bufs)
			if err != nil {
				return
			}
			n := wire.NewReader(body).Count(20)
			if _, err := DecodeGetPages(joinSegs(segs), n); err != nil {
				t.Fatalf("client cannot parse the answer to %d refs: %v", n, err)
			}
		case 2:
			if h, err := DecodeListWrites(body); err == nil {
				n := 0
				for _, rels := range h {
					n += len(rels)
				}
				if n > len(body) {
					t.Fatalf("%d rels decoded from %d bytes", n, len(body))
				}
			}
			resp, err := sv.handleListWrites(ctx, body)
			if err != nil {
				return
			}
			if _, err := DecodeListWrites(resp); err != nil {
				t.Fatalf("client cannot parse the holdings answer: %v", err)
			}
		case 3:
			// A fresh store per input, so accepted deletes cannot empty
			// the shared one.
			if resp, err := NewService(NewStore(0)).handleDeletePages(ctx, body); err == nil {
				if r := wire.NewReader(resp); r.Uvarint() != 0 || r.Err() != nil {
					t.Fatalf("delete from an empty store answered %x", resp)
				}
			}
		case 4:
			mem, memSt, memBack := answerDsts()
			memErr := DecodeGetPagesInto(body, mem, memSt)
			str, strSt, strBack := answerDsts()
			strErr := streamAnswer(body, &PagesInto{Dsts: str, Status: strSt})
			if fmt.Sprint(memErr) != fmt.Sprint(strErr) {
				t.Fatalf("decoded in memory: %v; off a connection: %v", memErr, strErr)
			}
			if !slices.Equal(memSt, strSt) || !bytes.Equal(memBack, strBack) {
				t.Fatalf("statuses %v / %v, destinations %x / %x", memSt, strSt, memBack, strBack)
			}
			for i, c := range memBack {
				if !inAnswerDst(i) && c != answerGuard {
					t.Fatalf("byte %d outside the destinations was written", i)
				}
			}
		}
	})
}

// The answer case decodes four answerPage-byte pages into one backing
// array, each destination between answerGap guard bytes.
const (
	answerPage  = 2
	answerGap   = 3
	answerGuard = 0xA5
)

func inAnswerDst(i int) bool {
	return i >= answerGap && (i-answerGap)%(answerPage+answerGap) < answerPage
}

// answerDsts returns the four destinations, their statuses (an
// out-of-range sentinel, so a status left unset shows) and the backing
// array.
func answerDsts() ([][]byte, []PageStatus, []byte) {
	back := bytes.Repeat([]byte{answerGuard}, answerGap+4*(answerPage+answerGap))
	dsts := make([][]byte, 4)
	for i := range dsts {
		off := answerGap + i*(answerPage+answerGap)
		dsts[i] = back[off : off+answerPage : off+answerPage]
	}
	return dsts, []PageStatus{0xFF, 0xFF, 0xFF, 0xFF}, back
}

// streamAnswer sends body as the answer to one MGetPages call over an
// in-memory connection, in two writes split mid-body, and returns the
// call's error: sink reads the body off the socket as it would a
// provider's answer.
func streamAnswer(body []byte, sink rpc.Sink) error {
	cli, srv := net.Pipe()
	c := rpc.NewClient(cli)
	defer c.Close()
	defer srv.Close()
	// A response frame (internal/rpc's package doc): kind 0x02 | u64 id,
	// 1 for a fresh client's first call | u8 status OK | uvarint len.
	frame := binary.LittleEndian.AppendUint64([]byte{0x02}, 1)
	frame = binary.AppendUvarint(append(frame, 0), uint64(len(body)))
	frame = append(frame, body...)
	go func() {
		// Answer once the request starts arriving: the call is
		// registered by then.
		var b [1]byte
		if _, err := srv.Read(b[:]); err != nil {
			return
		}
		split := len(frame) - len(body)/2
		for _, part := range [][]byte{frame[:split], frame[split:]} {
			if len(part) == 0 {
				continue
			}
			if _, err := srv.Write(part); err != nil {
				return
			}
		}
		io.Copy(io.Discard, srv) // the rest of the request
	}()
	_, err := c.Go(context.Background(), MGetPages, [][]byte{EncodeGetPages(nil)}, sink).Wait(context.Background())
	return err
}
