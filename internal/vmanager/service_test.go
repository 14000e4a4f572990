package vmanager

import (
	"fmt"
	"testing"

	"blob/internal/wire"
)

// TestForgedCountsFail: a list count no message could hold — in an
// MAssign or MHistory reply, or a snapshot's history or pending set —
// is a decode error, never an allocation or loop that size.
func TestForgedCountsFail(t *testing.T) {
	// snapshot is a one-blob checkpoint stream that stops at a forged
	// history count or, with honest history, a forged pending count.
	snapshot := func(forgeHistory bool, count uint64) []byte {
		w := wire.NewWriter(128)
		w.Uint64(checkpointMagic)
		w.Uint64(2) // nextID
		w.Uvarint(1)
		w.Uint64(1)        // id
		w.Uint64(pageSize) // page size
		w.Uint64(64)       // total pages
		w.Uint8(0)         // K
		w.Uint8(0)         // M
		w.Uint64(0)        // latest assigned
		w.Uint64(0)        // latest published
		w.Uint64Slice([]uint64{0})
		if !forgeHistory {
			w.Uvarint(0)
		}
		w.Uvarint(count)
		w.Raw(make([]byte, 64))
		return w.Bytes()
	}
	for _, count := range []uint64{1 << 40, 1 << 63} {
		reply := wire.NewWriter(96)
		reply.Uint64(1) // version
		reply.Uint64(0) // offset
		reply.Uvarint(count)
		reply.Raw(make([]byte, 64))
		history := wire.NewWriter(96)
		history.Uvarint(count)
		history.Raw(make([]byte, 64))
		for _, c := range []struct {
			name   string
			decode func() error
		}{
			{"DecodeAssignment", func() error { _, err := DecodeAssignment(reply.Bytes()); return err }},
			{"DecodeHistory", func() error { _, err := DecodeHistory(history.Bytes()); return err }},
			{"RestoreHistory", func() error { return restoreErr(snapshot(true, count)) }},
			{"RestorePending", func() error { return restoreErr(snapshot(false, count)) }},
		} {
			t.Run(fmt.Sprintf("%s/%#x", c.name, count), func(t *testing.T) {
				if err := c.decode(); err == nil {
					t.Fatalf("count %d accepted", count)
				}
			})
		}
	}
}

func restoreErr(ckpt []byte) error {
	m, err := Restore(ckpt, Config{})
	if err == nil {
		m.Close()
	}
	return err
}
