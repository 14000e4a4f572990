package vmanager

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"blob/internal/erasure"
	"blob/internal/meta"
)

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	ctx := context.Background()
	blob := newBlob(t, m)

	// Build interesting state: two published versions, one pending,
	// one committed-but-unpublished (blocked behind the pending one).
	a1, _ := m.AssignVersion(blob, 11, 0, 4*pageSize, false)
	m.Commit(ctx, blob, a1.Version, true)
	a2, _ := m.AssignVersion(blob, 22, 2*pageSize, 2*pageSize, false)
	m.Commit(ctx, blob, a2.Version, true)
	a3, _ := m.AssignVersion(blob, 33, 4*pageSize, 2*pageSize, false) // pending, uncommitted
	a4, _ := m.AssignVersion(blob, 44, 0, pageSize, false)
	m.Commit(ctx, blob, a4.Version, false) // committed, blocked behind v3

	r, err := Restore(m.Checkpoint(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Published state survives.
	v, size, err := r.Latest(blob)
	if err != nil || v != 2 || size != 4*pageSize {
		t.Fatalf("restored latest = v%d size %d err %v", v, size, err)
	}
	info, err := r.Info(blob)
	if err != nil || info.PageSize != pageSize || info.TotalPages != 64 {
		t.Fatalf("restored info = %+v err %v", info, err)
	}

	// History survives, including all four records.
	recs, err := r.History(blob, 0, 10)
	if err != nil || len(recs) != 4 {
		t.Fatalf("restored history = %d records, err %v", len(recs), err)
	}

	// The pending write can still commit and unblocks v4.
	if _, err := r.Commit(ctx, blob, a3.Version, true); err != nil {
		t.Fatalf("commit pending after restore: %v", err)
	}
	v, _, _ = r.Latest(blob)
	if v != 4 {
		t.Fatalf("latest after draining pending = %d, want 4", v)
	}

	// Border resolution continues correctly: a new write over pages
	// [0,8) must see v4 on [0,1), v3 on [4,6), etc. Check one border.
	a5, err := r.AssignVersion(blob, 55, 8*pageSize, 8*pageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range a5.Borders {
		if b.Child == (meta.NodeRange{Start: 4, Size: 2}) && b.Ver != 3 {
			t.Errorf("border (4,2) = v%d, want 3", b.Ver)
		}
		if b.Child == (meta.NodeRange{Start: 0, Size: 8}) && b.Ver != 4 {
			t.Errorf("border (0,8) = v%d, want 4", b.Ver)
		}
	}
	if a5.Version != 5 {
		t.Errorf("next version after restore = %d, want 5", a5.Version)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore([]byte("not a checkpoint"), Config{}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Restore(nil, Config{}); err == nil {
		t.Fatal("empty stream accepted")
	}
	// The snapshot never outlives the build that wrote it, so the
	// pre-erasure "BLOBVMG1" layout is as foreign as any other magic.
	m := New(Config{})
	defer m.Close()
	newBlob(t, m)
	g1 := m.Checkpoint()
	g1[0] = '1'
	if _, err := Restore(g1, Config{}); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("retired G1 magic: err = %v, want bad magic", err)
	}
}

func TestRestorePreservesBlobIDSequence(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	id1, _ := m.CreateBlob(pageSize, capBytes, erasure.Redundancy{}, nil)
	r, err := Restore(m.Checkpoint(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	id2, err := r.CreateBlob(pageSize, capBytes, erasure.Redundancy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id1 {
		t.Fatalf("restored manager reissued blob id %d", id1)
	}
}

func TestRestoreWithRepairCompletesDeadWriters(t *testing.T) {
	// A writer dies, the manager crashes and restarts from checkpoint:
	// the restored manager must repair the orphan and make progress.
	store := newFakeStore()
	m := New(Config{RepairTimeout: time.Hour, RepairScan: time.Hour, Store: store})
	blob := newBlob(t, m)
	ctx := context.Background()

	a1, _ := m.AssignVersion(blob, 11, 0, 2*pageSize, false) // writer dies
	_ = a1
	ckpt := m.Checkpoint()
	m.Close()

	r, err := Restore(ckpt, Config{
		RepairTimeout: 30 * time.Millisecond,
		RepairScan:    10 * time.Millisecond,
		Store:         store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// A new write after the dead one must eventually publish.
	a2, err := r.AssignVersion(blob, 22, 4*pageSize, 2*pageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	store.storeBuilt(t, r, blob, a2, meta.PageRange{First: 4, Count: 2}, 22)
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := r.Commit(cctx, blob, a2.Version, true); err != nil {
		t.Fatalf("commit after restore+repair: %v", err)
	}
	if _, err := r.Commit(ctx, blob, a1.Version, false); !errors.Is(err, ErrAborted) {
		t.Errorf("dead writer's commit after restore = %v, want ErrAborted", err)
	}
}

func TestCheckpointMultipleBlobs(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	ctx := context.Background()
	ids := make([]uint64, 3)
	for i := range ids {
		ids[i], _ = m.CreateBlob(pageSize, capBytes, erasure.Redundancy{}, nil)
		a, _ := m.AssignVersion(ids[i], uint64(i+1), 0, pageSize*uint64(i+1), false)
		m.Commit(ctx, ids[i], a.Version, true)
	}
	r, err := Restore(m.Checkpoint(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, id := range ids {
		_, size, err := r.Latest(id)
		if err != nil || size != pageSize*uint64(i+1) {
			t.Errorf("blob %d: size %d err %v", id, size, err)
		}
	}
}
