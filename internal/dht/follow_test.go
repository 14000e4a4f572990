package dht

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"blob/internal/stats"
	"blob/internal/wire"
)

// poisonByte fills the rpc buffers released under test (testFabric).
const poisonByte = 0xEE

// chainFollow is a toy follow hook: a value names the keys that come
// after it as consecutive little-endian u64s following a one-byte tag.
func chainFollow(dst []uint64, value []byte, _, _ uint64) []uint64 {
	for p := value[1:]; len(p) >= 8; p = p[8:] {
		dst = append(dst, binary.LittleEndian.Uint64(p))
	}
	return dst
}

func chainValue(tag byte, next ...uint64) []byte {
	v := []byte{tag}
	for _, k := range next {
		v = binary.LittleEndian.AppendUint64(v, k)
	}
	return v
}

// serveMultiGet runs an MMultiGet body through the store's handler and
// joins the answer's segments.
func serveMultiGet(s *Store, body []byte) ([]byte, error) {
	segs, _, err := s.handleMultiGet(context.Background(), body)
	return bytes.Join(segs, nil), err
}

// ask runs one MMultiGet through the handler and the client's decoder.
func ask(t *testing.T, s *Store, keys []uint64, h Hint) (got map[uint64][]byte, missed []uint64) {
	t.Helper()
	w := wire.NewWriter(64)
	appendMultiGetRequest(w, keys, h)
	resp, err := serveMultiGet(s, w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var vs Values
	missed, err = decodeMultiGetResponse(resp, keys, "", &vs)
	if err != nil {
		t.Fatal(err)
	}
	got = make(map[uint64][]byte, vs.Len())
	for k, v := range vs.m {
		got[k] = v.body
	}
	return got, missed
}

// TestFollowServesWhatTheStoreHolds: with a hook and a range, a served
// value brings along the values it leads to that this store holds, each
// once, followed in turn; keys held elsewhere are skipped; without a
// range, or without a hook, only what was asked is answered.
func TestFollowServesWhatTheStoreHolds(t *testing.T) {
	s := NewStore()
	s.Follow = chainFollow
	s.Put(1, chainValue('a', 2, 3, 2)) // names 2 twice
	s.Put(2, chainValue('b', 4))
	s.Put(4, chainValue('d', 1)) // leads back to an asked key
	// 3 lives on another node.
	s.Put(9, chainValue('z'))

	got, missed := ask(t, s, []uint64{1, 7}, Hint{First: 10, Count: 1, Used: 5})
	if !reflect.DeepEqual(missed, []uint64{7}) {
		t.Errorf("missed = %v, want [7]", missed)
	}
	if len(got) != 3 || got[1] == nil || got[2] == nil || got[4] == nil {
		t.Errorf("got keys %v, want 1 with extras 2 and 4", keysOf(got))
	}
	if s.FollowServed.Value() != 2 || s.FollowUsed.Value() != 5 || s.FollowCapHits.Value() != 0 {
		t.Errorf("served %d used %d cap hits %d, want 2/5/0",
			s.FollowServed.Value(), s.FollowUsed.Value(), s.FollowCapHits.Value())
	}
	// 1 asked; 2, 3 and 4 looked up once each by the walk.
	if s.Gets.Value() != 5 || s.Misses.Value() != 2 {
		t.Errorf("gets %d misses %d, want 5 and 2 (7 and 3)", s.Gets.Value(), s.Misses.Value())
	}

	if got, _ := ask(t, s, []uint64{1}, Hint{}); len(got) != 1 {
		t.Errorf("no range: got keys %v, want only 1", keysOf(got))
	}
	s.Follow = nil
	if got, _ := ask(t, s, []uint64{1}, Hint{First: 10, Count: 1}); len(got) != 1 {
		t.Errorf("no hook: got keys %v, want only 1", keysOf(got))
	}
}

func keysOf(m map[uint64][]byte) []uint64 {
	var ks []uint64
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// TestFollowCaps: a chain longer than MaxFollowBlocks, and values that
// together exceed MaxFollowBytes, are cut at the cap and counted; the
// asked keys are answered regardless.
func TestFollowCaps(t *testing.T) {
	s := NewStore()
	s.Follow = chainFollow
	const chain = 3 * MaxFollowBlocks
	for k := uint64(1); k <= chain; k++ {
		s.Put(k, chainValue('c', k+1))
	}
	got, _ := ask(t, s, []uint64{1}, Hint{Count: 1})
	if len(got) != 1+MaxFollowBlocks || s.FollowCapHits.Value() != 1 {
		t.Errorf("long chain: %d values, %d cap hits; want %d and 1", len(got), s.FollowCapHits.Value(), 1+MaxFollowBlocks)
	}
	if _, ok := got[1+MaxFollowBlocks]; !ok || got[2+MaxFollowBlocks] != nil {
		t.Error("the walk should serve the chain in order up to the cap")
	}

	big := NewStore()
	big.Follow = chainFollow
	fat := make([]byte, MaxFollowBytes/2+1)
	big.Put(1, chainValue('r', 2, 3, 4))
	for k := uint64(2); k <= 4; k++ {
		big.Put(k, fat)
	}
	got, _ = ask(t, big, []uint64{1, 4}, Hint{Count: 1})
	if len(got) != 3 || big.FollowServed.Value() != 1 || big.FollowCapHits.Value() != 1 {
		t.Errorf("fat values: got keys %v, served %d, cap hits %d; want asked 1 and 4, extra 2, one cap hit",
			keysOf(got), big.FollowServed.Value(), big.FollowCapHits.Value())
	}
}

// TestHandlersBoundWireCounts: every count and range a handler reads off
// the wire is checked against the body before it sizes a loop or an
// allocation.
func TestHandlersBoundWireCounts(t *testing.T) {
	s := NewStore()
	s.Follow = chainFollow
	ctx := context.Background()
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	entry := append(binary.LittleEndian.AppendUint64(nil, 7), 0) // key 7, empty value

	for name, body := range map[string][]byte{
		"count beyond the body":  append(uv(1<<40), entry...),
		"count one too many":     append(uv(2), entry...),
		"count alone":            uv(1 << 62),
		"count varint cut short": {0x80},
	} {
		if _, err := s.handleMultiPut(ctx, body); err == nil {
			t.Errorf("multiput %s: accepted", name)
		}
	}
	if s.Len() != 0 {
		t.Errorf("a rejected multiput stored %d entries", s.Len())
	}

	key := binary.LittleEndian.AppendUint64(nil, 7)
	for name, body := range map[string][]byte{
		"key count beyond the body": append(uv(1<<40), key...),
		"range overflows":           bytes.Join([][]byte{uv(1), key, uv(1<<63, 1<<63, 0)}, nil),
		"hint cut short":            bytes.Join([][]byte{uv(1), key, uv(0, 1)}, nil),
		"trailing byte":             bytes.Join([][]byte{uv(1), key, uv(0, 1, 0), {0}}, nil),
		"padded varint":             bytes.Join([][]byte{uv(1), key, {0x80, 0x00}, uv(1, 0)}, nil),
	} {
		if _, err := serveMultiGet(s, body); err == nil {
			t.Errorf("multiget %s: accepted", name)
		}
	}
	if _, err := serveMultiGet(s, bytes.Join([][]byte{uv(1), key, uv(1<<63, 1<<63-1, 0)}, nil)); err != nil {
		t.Errorf("multiget with the widest range that does not overflow: %v", err)
	}
	if _, err := s.handleDelete(ctx, key[:7]); err == nil {
		t.Error("delete with a short key: accepted")
	}
}

// TestTornMultiPutStoresNothing: a multiput body torn after its first
// entry holds a count the body can carry, so only decoding the second
// entry finds the tear — and by then nothing may have been stored.
func TestTornMultiPutStoresNothing(t *testing.T) {
	s := NewStore()
	w := wire.NewWriter(64)
	w.Uvarint(2)
	w.Uint64(7)
	w.BytesField([]byte("seven"))
	w.Uint64(8)
	w.BytesField([]byte("eight"))
	body := w.Bytes()
	torn := body[:len(body)-3]
	if _, err := s.handleMultiPut(context.Background(), torn); err == nil {
		t.Fatal("torn multiput accepted")
	}
	if n := s.Snapshot().Entries; n != 0 {
		t.Fatalf("a rejected multiput left %d entries stored", n)
	}
	if _, err := s.handleMultiPut(context.Background(), body); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(8); !ok || string(v) != "eight" {
		t.Fatalf("whole multiput: key 8 = %q, %v", v, ok)
	}
}

// TestMultiGetResponseRejects: the client half refuses a response that
// is cut anywhere, carries a wrong count or has bytes left over.
func TestMultiGetResponseRejects(t *testing.T) {
	s := NewStore()
	s.Follow = chainFollow
	s.Put(1, chainValue('a', 2))
	s.Put(2, chainValue('b'))
	keys := []uint64{1, 5}
	w := wire.NewWriter(32)
	appendMultiGetRequest(w, keys, Hint{Count: 1})
	resp, err := serveMultiGet(s, w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(resp); cut++ {
		if _, err := decodeMultiGetResponse(resp[:cut], keys, "", &Values{}); err == nil {
			t.Errorf("response cut to %d of %d bytes accepted", cut, len(resp))
		}
	}
	if _, err := decodeMultiGetResponse(append(bytes.Clone(resp), 0), keys, "", &Values{}); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := decodeMultiGetResponse(resp, keys[:1], "", &Values{}); err == nil {
		t.Error("response for another key count accepted")
	}
	// An extra never displaces a value the caller already holds.
	var out Values
	out.put(2, value{body: []byte("mine")})
	if _, err := decodeMultiGetResponse(resp, keys, "", &out); err != nil {
		t.Errorf("extra over a held value: %v", err)
	} else if v, _ := out.Get(2); string(v) != "mine" {
		t.Errorf("extra over a held value: %q", v)
	}
}

// TestStoreStatsTableCoversStruct is the drift gate of the store's one
// field table: every StoreStats field appears in it exactly once, so the
// MStats wire, /metrics and blobctl's table carry all of them.
func TestStoreStatsTableCoversStruct(t *testing.T) {
	rt := reflect.TypeOf(StoreStats{})
	if len(storeStatFields) != rt.NumField() {
		t.Fatalf("storeStatFields has %d entries, StoreStats has %d fields", len(storeStatFields), rt.NumField())
	}
	var st StoreStats
	seen := map[*uint64]bool{}
	series := map[string]bool{}
	for i, f := range storeStatFields {
		p := f.at(&st)
		if seen[p] || series[f.series] {
			t.Errorf("entry %d (%s) repeats a field or a series name", i, f.series)
		}
		seen[p], series[f.series] = true, true
		*p = uint64(1000 + i)
	}
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Uint() == 0 {
			t.Errorf("StoreStats field %s is in no table entry", rt.Field(i).Name)
		}
	}
	twice := st
	twice.Add(st)
	for i, f := range storeStatFields {
		if got := *f.at(&twice); got != 2*uint64(1000+i) {
			t.Errorf("Add: %s = %d, want %d", f.series, got, 2*(1000+i))
		}
	}

	// Wire round trip and exposition of a live store.
	s := NewStore()
	s.Follow = chainFollow
	s.Put(1, chainValue('a', 2))
	s.Put(2, chainValue('b'))
	ask(t, s, []uint64{1}, Hint{Count: 1, Used: 3})
	body, _ := s.handleStats(context.Background(), nil)
	got, err := DecodeStoreStats(body)
	if err != nil || got != s.Snapshot() || got.FollowServed != 1 || got.FollowUsed != 3 || got.Entries != 2 {
		t.Errorf("stats over the wire = %+v, %v; snapshot %+v", got, err, s.Snapshot())
	}
	reg := stats.NewRegistry()
	s.RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, f := range storeStatFields {
		if !strings.Contains(sb.String(), "\n"+f.series+" ") && !strings.HasPrefix(sb.String(), f.series+" ") {
			t.Errorf("series %s missing from exposition:\n%s", f.series, sb.String())
		}
	}
	if !strings.Contains(sb.String(), "dht_follow_served_total 1\n") {
		t.Errorf("dht_follow_served_total should read 1:\n%s", sb.String())
	}
}

// TestFollowUsedCreditsTheSender: an extra a reader takes is reported to
// the node that sent it, with the next request that goes to that node —
// never to whichever node the reader happens to ask next.
func TestFollowUsedCreditsTheSender(t *testing.T) {
	cli, stores, cleanup := testFabric(t, 2, 1)
	defer cleanup()
	ctx := context.Background()
	store := map[string]*Store{}
	for i, s := range stores {
		s.Follow = chainFollow
		store[fmt.Sprintf("meta%d:rpc", i)] = s
	}
	ring := cli.Ring()
	primary := func(k uint64) string { n, _ := ring.Primary(k); return n.Addr }
	// Two keys on one node, A, and one on the other, B.
	var a []uint64
	var b uint64
	for i := uint64(0); len(a) < 2 || b == 0; i++ {
		k := wire.HashFields(i)
		switch {
		case len(a) == 0 || primary(k) == primary(a[0]):
			if len(a) < 2 {
				a = append(a, k)
			}
		case b == 0:
			b = k
		}
	}
	A, B := store[primary(a[0])], store[primary(b)]
	A.Put(a[0], chainValue('a', a[1])) // leads to a[1], which A sends ahead
	A.Put(a[1], chainValue('b'))
	B.Put(b, chainValue('c'))

	var vs Values
	defer vs.Release()
	if err := cli.MultiGet(ctx, []uint64{a[0]}, Hint{First: 0, Count: 1}, &vs); err != nil {
		t.Fatal(err)
	}
	for _, k := range a {
		if _, ok := vs.Take(k); !ok {
			t.Fatalf("key %d not received (asked %d)", k, a[0])
		}
	}
	if err := cli.MultiGet(ctx, []uint64{b}, Hint{}, &vs); err != nil {
		t.Fatal(err)
	}
	if A.FollowUsed.Value() != 0 || B.FollowUsed.Value() != 0 {
		t.Fatalf("before A is asked again: A told of %d used, B of %d; want 0 and 0", A.FollowUsed.Value(), B.FollowUsed.Value())
	}
	if err := cli.MultiGet(ctx, []uint64{a[0]}, Hint{}, &vs); err != nil {
		t.Fatal(err)
	}
	if A.FollowServed.Value() != 1 || A.FollowUsed.Value() != 1 || B.FollowUsed.Value() != 0 {
		t.Fatalf("A served %d and was told of %d used, B told of %d; want 1, 1 and 0",
			A.FollowServed.Value(), A.FollowUsed.Value(), B.FollowUsed.Value())
	}
}
