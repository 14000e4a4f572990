package diskstore

// Tests of the background seal: a full segment's fsync and sidecar write
// run off the writer lock, one seal at a time. syncFile is swapped to
// hold or fail the fsync of one chosen segment file.

import (
	"bytes"
	"errors"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncGate holds every fsync of one file until opened.
type syncGate struct {
	path        string
	entered     chan struct{} // closed once a held fsync has started
	release     chan struct{}
	enterOnce   sync.Once
	releaseOnce sync.Once
}

// holdSyncOf swaps syncFile for one that blocks on the file at path
// until the gate opens. Call it before openTest, so the original is
// restored only after the store is closed; the gate opens before that.
func holdSyncOf(t *testing.T, path string) *syncGate {
	t.Helper()
	g := &syncGate{path: path, entered: make(chan struct{}), release: make(chan struct{})}
	swapSyncFile(t, func(f *os.File) error {
		if f.Name() == g.path {
			g.enterOnce.Do(func() { close(g.entered) })
			<-g.release
		}
		return nil
	})
	return g
}

func (g *syncGate) open() { g.releaseOnce.Do(func() { close(g.release) }) }

// swapSyncFile installs fn as syncFile for the rest of the test.
func swapSyncFile(t *testing.T, fn func(*os.File) error) {
	orig := syncFile
	syncFile = fn
	t.Cleanup(func() { syncFile = orig })
}

// async runs fn on its own goroutine and returns a channel closed when
// it returns.
func async(fn func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	return done
}

// returnsWithin reports whether done closes within d.
func returnsWithin(done <-chan struct{}, d time.Duration) bool {
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

const (
	settle  = 100 * time.Millisecond // how long a blocked call is watched
	timeout = 5 * time.Second        // how long a call that must finish gets
)

// fill is a page that fills a 128-byte segment by itself.
var fill = bytes.Repeat([]byte("f"), 120)

// TestSealDoesNotBlockPutsOrReads holds segment 1's seal fsync: the put
// that rolled past it, a put into the next segment and a read of a page
// in the sealing segment all complete while it is held.
func TestSealDoesNotBlockPutsOrReads(t *testing.T) {
	dir := t.TempDir()
	g := holdSyncOf(t, segmentPath(dir, 1))
	s := openTest(t, dir, Options{SegmentSize: 128})
	t.Cleanup(g.open)

	mustPut(t, s, 1, 1, 0, fill) // fills segment 1
	if !returnsWithin(async(func() { mustPut(t, s, 1, 2, 0, []byte("rolls")) }), timeout) {
		t.Fatal("the put that rolled waited for the seal's fsync")
	}
	if !returnsWithin(g.entered, timeout) {
		t.Fatal("segment 1 was never synced")
	}
	if !returnsWithin(async(func() { mustPut(t, s, 1, 3, 0, []byte("next")) }), timeout) {
		t.Fatal("a put into the next segment waited for the seal's fsync")
	}
	var got []byte
	if !returnsWithin(async(func() { got, _ = s.GetPage(1, 1, 0) }), timeout) {
		t.Fatal("a read of the sealing segment waited for its fsync")
	}
	if !bytes.Equal(got, fill) {
		t.Errorf("page in the sealing segment = %q", got)
	}
	if _, err := os.Stat(sidecarPath(dir, 1)); !os.IsNotExist(err) {
		t.Error("sidecar written before the segment's fsync returned")
	}

	g.open()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sidecarPath(dir, 1)); err != nil {
		t.Errorf("no sidecar after the seal finished: %v", err)
	}
}

// TestSealSyncPutWaits: under Options.Sync, a batch that spills out of
// a segment must not be acked before that segment's seal fsync returns.
func TestSealSyncPutWaits(t *testing.T) {
	dir := t.TempDir()
	g := holdSyncOf(t, segmentPath(dir, 1))
	s := openTest(t, dir, Options{SegmentSize: 128, Sync: true})
	t.Cleanup(g.open)

	var n int
	var err error
	done := async(func() {
		n, err = s.PutPages([]Page{
			{Blob: 1, Write: 1, Rel: 0, Data: fill}, // segment 1
			{Blob: 1, Write: 1, Rel: 1, Data: []byte("spill")},
		})
	})
	if !returnsWithin(g.entered, timeout) {
		t.Fatal("segment 1 was never synced")
	}
	if returnsWithin(done, settle) {
		t.Fatal("a Sync put was acked while the segment holding its first page was unsynced")
	}
	g.open()
	if !returnsWithin(done, timeout) {
		t.Fatal("the Sync put never returned after the seal finished")
	}
	if err != nil || n != 2 {
		t.Errorf("Sync put = %d, %v", n, err)
	}
}

// TestSealCompactionWaits: compaction must not unlink its candidate
// while a seal is in flight, since its relocated records may sit in the
// sealing segment.
func TestSealCompactionWaits(t *testing.T) {
	dir := t.TempDir()
	g := holdSyncOf(t, segmentPath(dir, 3))
	s := openTest(t, dir, Options{SegmentSize: 128})
	t.Cleanup(g.open)

	mustPut(t, s, 1, 1, 0, fill)                   // segment 1
	mustPut(t, s, 1, 2, 0, fill)                   // segment 2
	if _, err := s.DeleteWrite(1, 1); err != nil { // segment 1 is now all dead
		t.Fatal(err)
	}
	mustPut(t, s, 1, 3, 0, fill)             // fills segment 3
	mustPut(t, s, 1, 4, 0, []byte("sealer")) // rolls: segment 3's seal is held
	if !returnsWithin(g.entered, timeout) {
		t.Fatal("segment 3 was never synced")
	}

	var compacted bool
	var err error
	done := async(func() { compacted, err = s.CompactOnce() })
	if returnsWithin(done, settle) {
		t.Fatalf("compaction finished (%v, %v) while a seal was in flight", compacted, err)
	}
	if _, err := os.Stat(segmentPath(dir, 1)); err != nil {
		t.Fatalf("candidate unlinked while a seal was in flight: %v", err)
	}
	g.open()
	if !returnsWithin(done, timeout) {
		t.Fatal("compaction never finished after the seal did")
	}
	if !compacted || err != nil {
		t.Fatalf("CompactOnce = %v, %v", compacted, err)
	}
	if _, err := os.Stat(segmentPath(dir, 1)); !os.IsNotExist(err) {
		t.Errorf("candidate survived its compaction: %v", err)
	}
}

// TestSealFailureReported: a failed seal fsync writes no sidecar and is
// reported once — to the next roll, or to Close — and the segment
// replays on the next open.
func TestSealFailureReported(t *testing.T) {
	errSync := errors.New("injected fsync failure")
	failSyncOf := func(t *testing.T, path string) {
		swapSyncFile(t, func(f *os.File) error {
			if f.Name() == path {
				return errSync
			}
			return nil
		})
	}

	t.Run("next roll", func(t *testing.T) {
		dir := t.TempDir()
		failSyncOf(t, segmentPath(dir, 1))
		s := openTest(t, dir, Options{SegmentSize: 128})
		mustPut(t, s, 1, 1, 0, fill) // segment 1
		mustPut(t, s, 1, 2, 0, fill) // rolls (segment 1's seal fails), fills segment 2
		page := []Page{{Blob: 1, Write: 3, Rel: 0, Data: []byte("late")}}
		if _, err := s.PutPages(page); !errors.Is(err, errSync) {
			t.Fatalf("next roll: err = %v, want the seal's fsync failure", err)
		}
		if _, err := s.PutPages(page); err != nil {
			t.Fatalf("the failure was reported twice: %v", err)
		}
		if _, err := os.Stat(sidecarPath(dir, 1)); !os.IsNotExist(err) {
			t.Error("sidecar written for a segment whose fsync failed")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		r := openTest(t, dir, Options{SegmentSize: 128})
		if st := r.Stats(); st.SegmentsReplayed != 2 || st.SidecarsLoaded != 1 {
			t.Errorf("replayed %d, loaded %d; want 2 (segment 1 and the tail) and 1",
				st.SegmentsReplayed, st.SidecarsLoaded)
		}
		for w := uint64(1); w <= 3; w++ {
			if _, ok := r.GetPage(1, w, 0); !ok {
				t.Errorf("write %d lost", w)
			}
		}
	})

	t.Run("close", func(t *testing.T) {
		dir := t.TempDir()
		failSyncOf(t, segmentPath(dir, 1))
		s := openTest(t, dir, Options{SegmentSize: 128})
		mustPut(t, s, 1, 1, 0, fill)
		mustPut(t, s, 1, 2, 0, []byte("rolls"))
		if err := s.Close(); !errors.Is(err, errSync) {
			t.Errorf("Close: err = %v, want the seal's fsync failure", err)
		}
		if _, err := os.Stat(sidecarPath(dir, 1)); !os.IsNotExist(err) {
			t.Error("sidecar written for a segment whose fsync failed")
		}
	})
}

// TestSealTornSegmentBelowTail pins the recovery rule the background
// seal needs: the segment below the tail may have been cut short
// mid-seal, so without a sidecar its torn record is truncated like a
// torn tail. The same tear one segment further down still fails Open.
func TestSealTornSegmentBelowTail(t *testing.T) {
	build := func(t *testing.T, victim uint64) string {
		dir := t.TempDir()
		s := openTest(t, dir, Options{SegmentSize: 128})
		mustPut(t, s, 1, 1, 0, fill)                           // segment 1
		mustPut(t, s, 1, 2, 0, []byte("keep"))                 // segment 2
		mustPut(t, s, 1, 2, 1, bytes.Repeat([]byte("t"), 100)) // segment 2, full
		mustPut(t, s, 1, 3, 0, []byte("tail"))                 // segment 3
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(sidecarPath(dir, victim)); err != nil {
			t.Fatal(err)
		}
		path := segmentPath(dir, victim)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-5); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	r := openTest(t, build(t, 2), Options{SegmentSize: 128})
	if r.Stats().TruncatedBytes == 0 {
		t.Error("no truncation reported for the torn segment below the tail")
	}
	if _, ok := r.GetPage(1, 2, 1); ok {
		t.Error("torn record served")
	}
	for w := uint64(1); w <= 3; w++ {
		if _, ok := r.GetPage(1, w, 0); !ok {
			t.Errorf("write %d lost", w)
		}
	}

	if _, err := Open(Options{Dir: build(t, 1), SegmentSize: 128}); err == nil {
		t.Error("Open accepted a torn segment two below the tail")
	}
}

// TestBackgroundGoroutinesCarryLabels: the seal goroutine runs under
// the profiler label diskstore=seal and the compaction loop under
// diskstore=compact, so a CPU profile of a provider names their time.
func TestBackgroundGoroutinesCarryLabels(t *testing.T) {
	dir := t.TempDir()
	g := holdSyncOf(t, segmentPath(dir, 1))
	s := openTest(t, dir, Options{SegmentSize: 128})
	t.Cleanup(g.open)
	mustPut(t, s, 1, 1, 0, fill)
	mustPut(t, s, 1, 2, 0, []byte("rolls")) // segment 1's seal starts and holds
	if !returnsWithin(g.entered, timeout) {
		t.Fatal("segment 1 was never synced")
	}
	for _, label := range []string{`"diskstore":"seal"`, `"diskstore":"compact"`} {
		// The compaction loop may not have run its first line yet.
		for deadline := time.Now().Add(timeout); ; time.Sleep(time.Millisecond) {
			var dump strings.Builder
			if err := pprof.Lookup("goroutine").WriteTo(&dump, 1); err != nil {
				t.Fatal(err)
			}
			if strings.Contains(dump.String(), label) {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("no goroutine carries the label %s", label)
				break
			}
		}
	}
}
