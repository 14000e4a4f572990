package provider

import (
	"context"
	"testing"

	"blob/internal/wire"
)

// FuzzProviderRequests feeds arbitrary bodies to the request decoders of
// the page path on a RAM service: MPutPages, MGetPages, MListWrites and
// MPullPages (which = 0..3). No body panics or sizes an allocation from
// a count its bytes cannot hold; whatever a handler accepts it answers
// with a response the client half parses. The pull handler's repair
// pool stays disabled, so it must refuse every body — after decoding.
func FuzzProviderRequests(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzProviderRequests) holds a
	// well-formed body per handler and the oversized counts that used to
	// crash put, pull and list.
	held := NewStore(0)
	for rel := uint32(0); rel < 4; rel++ {
		if err := held.PutPages([]Page{{Blob: 1, Write: 1, RelPage: rel, Data: []byte{byte(rel), 7}}}); err != nil {
			f.Fatal(err)
		}
	}
	sv := NewService(held)
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		switch which % 4 {
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
			n := int(wire.NewReader(body).Uvarint())
			if _, err := DecodeGetPages(joinSegs(segs), n); err != nil {
				t.Fatalf("client cannot parse the answer to %d refs: %v", n, err)
			}
		case 2:
			resp, err := sv.handleListWrites(ctx, body)
			if err != nil {
				return
			}
			if _, err := DecodeListWrites(resp); err != nil {
				t.Fatalf("client cannot parse the holdings answer: %v", err)
			}
		case 3:
			if _, err := sv.handlePullPages(ctx, body); err == nil {
				t.Fatal("pull accepted with repair disabled")
			}
		}
	})
}
