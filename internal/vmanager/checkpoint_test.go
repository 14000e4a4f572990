package vmanager

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"blob/internal/erasure"
	"blob/internal/meta"
)

// restoreLone boots a lone replica whose state is the checkpoint ckpt,
// installed the way a lagging follower installs a leader's snapshot.
func restoreLone(t *testing.T, ckpt []byte, cfg Config) *Replica {
	t.Helper()
	r := newLone(t, cfg)
	r.mu.Lock()
	err := r.installLocked(0, ckpt)
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	m := newLone(t, Config{})
	ctx := context.Background()
	blob := newBlob(t, m)

	// Build interesting state: two published versions, one pending,
	// one committed-but-unpublished (blocked behind the pending one).
	a1, _ := m.AssignVersion(ctx, blob, 11, 0, 4*pageSize, false)
	m.Commit(ctx, blob, a1.Version, true)
	a2, _ := m.AssignVersion(ctx, blob, 22, 2*pageSize, 2*pageSize, false)
	m.Commit(ctx, blob, a2.Version, true)
	a3, _ := m.AssignVersion(ctx, blob, 33, 4*pageSize, 2*pageSize, false) // pending, uncommitted
	a4, _ := m.AssignVersion(ctx, blob, 44, 0, pageSize, false)
	m.Commit(ctx, blob, a4.Version, false) // committed, blocked behind v3

	r := restoreLone(t, m.Manager().Checkpoint(), Config{})
	rm := r.Manager()

	// Published state survives.
	v, size, err := rm.Latest(blob)
	if err != nil || v != 2 || size != 4*pageSize {
		t.Fatalf("restored latest = v%d size %d err %v", v, size, err)
	}
	info, err := rm.Info(blob)
	if err != nil || info.PageSize != pageSize || info.TotalPages != 64 {
		t.Fatalf("restored info = %+v err %v", info, err)
	}

	// History survives, including all four records.
	recs, err := rm.History(blob, 0, 10)
	if err != nil || len(recs) != 4 {
		t.Fatalf("restored history = %d records, err %v", len(recs), err)
	}

	// The pending write can still commit and unblocks v4.
	if _, err := r.Commit(ctx, blob, a3.Version, true); err != nil {
		t.Fatalf("commit pending after restore: %v", err)
	}
	v, _, _ = rm.Latest(blob)
	if v != 4 {
		t.Fatalf("latest after draining pending = %d, want 4", v)
	}

	// Border resolution continues correctly: a new write over pages
	// [0,8) must see v4 on [0,1), v3 on [4,6), etc. Check one border.
	a5, err := r.AssignVersion(ctx, blob, 55, 8*pageSize, 8*pageSize, false)
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
	m := newLone(t, Config{})
	newBlob(t, m)
	g1 := m.Manager().Checkpoint()
	g1[0] = '1'
	if _, err := Restore(g1, Config{}); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("retired G1 magic: err = %v, want bad magic", err)
	}
}

func TestRestorePreservesBlobIDSequence(t *testing.T) {
	m := newLone(t, Config{})
	id1 := newBlob(t, m)
	r := restoreLone(t, m.Manager().Checkpoint(), Config{})
	if id2 := newBlob(t, r); id2 == id1 {
		t.Fatalf("restored manager reissued blob id %d", id1)
	}
}

func TestRestoreWithRepairCompletesDeadWriters(t *testing.T) {
	// A writer dies, the manager crashes and restarts from checkpoint:
	// the restored manager must repair the orphan and make progress.
	store := newFakeStore()
	m := newLone(t, Config{RepairTimeout: time.Hour, Store: store})
	blob := newBlob(t, m)
	ctx := context.Background()

	a1, _ := m.AssignVersion(ctx, blob, 11, 0, 2*pageSize, false) // writer dies
	ckpt := m.Manager().Checkpoint()
	m.Close()

	r := restoreLone(t, ckpt, Config{
		RepairTimeout: 30 * time.Millisecond,
		Store:         store,
	})

	// A new write after the dead one must eventually publish.
	a2, err := r.AssignVersion(ctx, blob, 22, 4*pageSize, 2*pageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	store.storeBuilt(t, blob, a2, meta.PageRange{First: 4, Count: 2}, 22)
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
	m := newLone(t, Config{})
	ctx := context.Background()
	ids := make([]uint64, 3)
	for i := range ids {
		ids[i] = newBlob(t, m)
		a, _ := m.AssignVersion(ctx, ids[i], uint64(i+1), 0, pageSize*uint64(i+1), false)
		m.Commit(ctx, ids[i], a.Version, true)
	}
	r, err := Restore(m.Manager().Checkpoint(), Config{})
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

// TestCheckpointDeterministic: a checkpoint is a function of state alone.
// Two managers fed the same log write identical bytes, equal to the
// leader's that wrote the log, and after a storm of creates, assigns,
// commits and aborts every caught-up follower's checkpoint is the
// leader's.
func TestCheckpointDeterministic(t *testing.T) {
	ts := newTestGroup(t, 3, nil)
	g := ts.client()
	ctx := context.Background()

	blobs := make([]uint64, 4)
	for i := range blobs {
		id, err := g.CreateBlob(ctx, pageSize, capBytes, erasure.Redundancy{})
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = id
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				blob := blobs[(w+i)%len(blobs)]
				a, err := g.AssignVersion(ctx, blob, uint64(100*w+i), uint64(i%4)*pageSize, pageSize, i%3 == 0)
				if err != nil {
					t.Error(err)
					return
				}
				if (w+i)%4 == 0 {
					err = g.Abort(ctx, blob, a.Version)
				} else {
					_, err = g.Commit(ctx, blob, a.Version, false)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	lead := ts.rep(0)
	want := lead.Manager().Checkpoint()
	log := recordedLog(lead)
	for i := 0; i < 2; i++ {
		m := New(Config{})
		for _, rec := range log {
			if err := m.ApplyRecord(rec); err != nil {
				t.Fatalf("replay seq %d: %v", rec.Seq, err)
			}
		}
		if got := m.Checkpoint(); !bytes.Equal(got, want) {
			t.Errorf("replay %d: checkpoint differs from the leader's (%d vs %d bytes)", i, len(got), len(want))
		}
		m.Close()
	}

	logLen := lead.Status().LogLen
	for j := 1; j < 3; j++ {
		deadline := time.Now().Add(5 * time.Second)
		for ts.rep(j).Status().LogLen != logLen {
			if time.Now().After(deadline) {
				t.Fatalf("follower %d stuck at %+v (leader log %d)", j, ts.rep(j).Status(), logLen)
			}
			time.Sleep(time.Millisecond)
		}
		if got := ts.rep(j).Manager().Checkpoint(); !bytes.Equal(got, want) {
			t.Errorf("follower %d: checkpoint differs from the leader's", j)
		}
	}
}
