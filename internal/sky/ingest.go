package sky

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"blob/internal/meta"
	"blob/internal/wire"
)

// Streaming ingestion: an LSST-style survey never stops observing, so
// epochs arrive as a continuous append stream of new blob versions while
// analysis keeps reading pinned older snapshots. Ingestor is the write
// side of that pipeline; PinnedReader is the read side, with built-in
// byte-stability verification (the snapshot-isolation invariant as a
// runtime check, not just a test).

// Ingestor captures epochs in a background loop until stopped.
type Ingestor struct {
	sv       *Survey
	cancel   context.CancelFunc
	done     chan struct{}
	captured atomic.Int64
	err      error
}

// IngestOptions configures the continuous-capture loop.
type IngestOptions struct {
	// MaxEpochs bounds the number of epochs captured (0 = until Stop).
	MaxEpochs int
	// Cadence is the survey's observation cadence — the pause between
	// consecutive epoch captures (0 = capture back to back). Real
	// surveys expose on a fixed cadence (LSST: one visit every ~40 s per
	// field); the knob also sets the ingestion duty cycle benchmarks
	// contend readers against.
	Cadence time.Duration
	// Prerender renders this many upcoming epochs' bands synchronously
	// in StartIngest, before the loop starts, so the loop's steady state
	// is pure write-out. Real pipelines overlap exposure with write-out
	// the same way; for benchmarks on small hosts it also keeps pixel
	// synthesis (pure CPU) from being timed as storage behavior. Epochs
	// past the prerendered stock fall back to inline rendering.
	Prerender int
}

// StartIngest begins continuous epoch capture on the survey. Any
// Prerender work happens before it returns; the capture loop runs in
// the background until MaxEpochs or Stop. The loop stops on the first
// capture error; Stop returns it.
func StartIngest(ctx context.Context, sv *Survey, opts IngestOptions) *Ingestor {
	ctx, cancel := context.WithCancel(ctx)
	ing := &Ingestor{sv: sv, cancel: cancel, done: make(chan struct{})}
	base := sv.Epochs()
	pre := make([][][]byte, 0, opts.Prerender)
	for i := 0; i < opts.Prerender; i++ {
		bands, err := sv.RenderEpochBands(base + i)
		if err != nil {
			ing.err = err
			cancel()
			close(ing.done)
			return ing
		}
		pre = append(pre, bands)
	}
	go func() {
		defer close(ing.done)
		for n := 0; opts.MaxEpochs <= 0 || n < opts.MaxEpochs; n++ {
			if ctx.Err() != nil {
				return
			}
			var err error
			if n < len(pre) {
				_, err = sv.CaptureEpochBands(ctx, base+n, pre[n])
				pre[n] = nil
			} else {
				_, err = sv.CaptureEpoch(ctx)
			}
			if err != nil {
				if ctx.Err() == nil {
					ing.err = err
				}
				return
			}
			ing.captured.Add(1)
			if opts.Cadence > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(opts.Cadence):
				}
			}
		}
	}()
	return ing
}

// Captured returns how many epochs the ingestor has published so far.
func (ing *Ingestor) Captured() int { return int(ing.captured.Load()) }

// Stop halts ingestion and waits for the loop to exit. It returns the
// number of epochs captured and the first capture error, if any.
func (ing *Ingestor) Stop() (int, error) {
	ing.cancel()
	<-ing.done
	return ing.Captured(), ing.err
}

// PinnedReader reads tiles of one pinned epoch version, verifying every
// read against the checksum of the first: a pinned snapshot must be
// byte-stable no matter how much ingestion happens after the pin.
type PinnedReader struct {
	sv      *Survey
	epoch   int
	version meta.Version
	buf     []byte
	// sums[tileIndex] is the checksum of the tile's first observation;
	// sumSeen marks which tiles have one. Single-goroutine use; create
	// one PinnedReader per concurrent reader.
	sums    []uint64
	sumSeen []bool
	reads   int
}

// PinReader pins epoch e's version and returns a verifying reader for
// it. The pin is a client-side fact — nothing is communicated to the
// cluster, which is the point: the snapshot needs no server-side lease
// or lock to stay stable.
func (s *Survey) PinReader(epoch int) (*PinnedReader, error) {
	v, err := s.VersionForEpoch(epoch)
	if err != nil {
		return nil, err
	}
	tiles := s.geo.TilesX * s.geo.TilesY
	return &PinnedReader{
		sv:      s,
		epoch:   epoch,
		version: v,
		buf:     make([]byte, s.geo.TileBytes()),
		sums:    make([]uint64, tiles),
		sumSeen: make([]bool, tiles),
	}, nil
}

// Version returns the pinned blob version.
func (r *PinnedReader) Version() meta.Version { return r.version }

// Reads returns how many tile reads the reader has performed.
func (r *PinnedReader) Reads() int { return r.reads }

// ReadTile reads one tile of the pinned snapshot (lock-free: no
// version-manager interaction) and fails if its bytes differ from the
// first time this reader observed the tile.
func (r *PinnedReader) ReadTile(ctx context.Context, tx, ty int) error {
	geo := r.sv.geo
	if err := r.sv.blob.ReadPinned(ctx, r.buf, geo.TileOffset(tx, ty), r.version); err != nil {
		return err
	}
	r.reads++
	idx := ty*geo.TilesX + tx
	sum := wire.Checksum64(r.buf)
	if !r.sumSeen[idx] {
		r.sums[idx], r.sumSeen[idx] = sum, true
		return nil
	}
	if sum != r.sums[idx] {
		return fmt.Errorf("sky: snapshot violation: tile (%d,%d) of epoch %d (v%d) changed bytes across reads",
			tx, ty, r.epoch, r.version)
	}
	return nil
}

// VerifyAgainstCatalog re-renders the tile from the catalog and checks
// the pinned snapshot matches it bit for bit — end-to-end ground truth
// on top of the cross-read stability check.
func (r *PinnedReader) VerifyAgainstCatalog(ctx context.Context, tx, ty int) error {
	if err := r.ReadTile(ctx, tx, ty); err != nil {
		return err
	}
	want := make([]byte, r.sv.geo.TileBytes())
	if err := r.sv.cat.RenderTileBytes(tx, ty, r.epoch, want); err != nil {
		return err
	}
	if wire.Checksum64(want) != r.sums[ty*r.sv.geo.TilesX+tx] {
		return fmt.Errorf("sky: tile (%d,%d) of epoch %d does not match its catalog rendering", tx, ty, r.epoch)
	}
	return nil
}
