package sky

import (
	"context"
	"fmt"
	"sync"

	"blob/internal/core"
	"blob/internal/meta"
)

// Survey drives the full application pipeline of the paper's case study
// against a versioned blob:
//
//   - ALLOC one blob for the whole sky (TB-scale in the paper;
//     allocate-on-write means only touched tiles cost memory);
//   - each epoch, several telescopes concurrently WRITE their bands of
//     the sky — write/write concurrency across disjoint segments;
//   - analysis READs tiles of older epochs while new epochs are being
//     written — read/write concurrency;
//   - tiles are analyzed in parallel — read/read concurrency
//     ("as there is no dependency between different regions of space,
//     the analysis itself is an embarrassingly parallel problem").
type Survey struct {
	blob *core.Blob
	cat  *Catalog
	geo  Geometry

	// telescopes is the number of concurrent writers per epoch; each
	// owns a contiguous band of tile rows.
	telescopes int

	mu        sync.Mutex
	epochVers []meta.Version // epochVers[e] = version capturing epoch e
}

// NewSurvey binds a catalog to a blob. The blob must be large enough for
// one full sky view and its page size must divide the tile size.
func NewSurvey(blob *core.Blob, cat *Catalog, telescopes int) (*Survey, error) {
	geo := cat.Geometry()
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if geo.SkyBytes() > blob.CapacityBytes() {
		return nil, fmt.Errorf("sky: blob capacity %d < sky size %d", blob.CapacityBytes(), geo.SkyBytes())
	}
	if geo.TileBytes()%blob.PageSize() != 0 {
		return nil, fmt.Errorf("sky: tile size %d not a multiple of page size %d", geo.TileBytes(), blob.PageSize())
	}
	if telescopes < 1 {
		telescopes = 1
	}
	if telescopes > geo.TilesY {
		telescopes = geo.TilesY
	}
	return &Survey{blob: blob, cat: cat, geo: geo, telescopes: telescopes}, nil
}

// Geometry returns the survey tiling.
func (s *Survey) Geometry() Geometry { return s.geo }

// Epochs returns how many epochs have been captured.
func (s *Survey) Epochs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.epochVers)
}

// VersionForEpoch returns the blob version that contains epoch e's
// complete sky view.
func (s *Survey) VersionForEpoch(e int) (meta.Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e < 0 || e >= len(s.epochVers) {
		return 0, fmt.Errorf("sky: epoch %d not captured (have %d)", e, len(s.epochVers))
	}
	return s.epochVers[e], nil
}

// bandRows splits the tile rows into the telescope bands.
func (s *Survey) bandRows(telescope int) (fromRow, toRow int) {
	per := (s.geo.TilesY + s.telescopes - 1) / s.telescopes
	fromRow = telescope * per
	toRow = fromRow + per
	if toRow > s.geo.TilesY {
		toRow = s.geo.TilesY
	}
	return fromRow, toRow
}

// CaptureEpoch renders and writes the next epoch: each telescope writes
// its band as one contiguous segment, all telescopes concurrently. It
// returns the version at which the epoch's full view is visible.
func (s *Survey) CaptureEpoch(ctx context.Context) (meta.Version, error) {
	s.mu.Lock()
	epoch := len(s.epochVers)
	s.mu.Unlock()
	bands, err := s.RenderEpochBands(epoch)
	if err != nil {
		return 0, err
	}
	return s.CaptureEpochBands(ctx, epoch, bands)
}

// RenderEpochBands renders every telescope's band of an epoch without
// writing anything: bands[t] is telescope t's contiguous slice of the
// sky (nil for a telescope with no rows). Rendering is the camera's
// job, not the store's; splitting it out lets an ingest pipeline
// prepare exposures ahead of the write-out (sky.IngestOptions.Prerender)
// so storage benchmarks do not time the pixel synthesis.
func (s *Survey) RenderEpochBands(epoch int) ([][]byte, error) {
	bands := make([][]byte, s.telescopes)
	errs := make([]error, s.telescopes)
	var wg sync.WaitGroup
	for tscope := 0; tscope < s.telescopes; tscope++ {
		fromRow, toRow := s.bandRows(tscope)
		if fromRow >= toRow {
			continue
		}
		wg.Add(1)
		go func(tscope, fromRow, toRow int) {
			defer wg.Done()
			tileBytes := s.geo.TileBytes()
			band := make([]byte, uint64(toRow-fromRow)*uint64(s.geo.TilesX)*tileBytes)
			for ty := fromRow; ty < toRow; ty++ {
				for tx := 0; tx < s.geo.TilesX; tx++ {
					off := (uint64(ty-fromRow)*uint64(s.geo.TilesX) + uint64(tx)) * tileBytes
					if err := s.cat.RenderTileBytes(tx, ty, epoch, band[off:off+tileBytes]); err != nil {
						errs[tscope] = err
						return
					}
				}
			}
			bands[tscope] = band
		}(tscope, fromRow, toRow)
	}
	wg.Wait()
	for t, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sky: telescope %d epoch %d render: %w", t, epoch, err)
		}
	}
	return bands, nil
}

// CaptureEpochBands writes pre-rendered telescope bands (from
// RenderEpochBands) as epoch `epoch`, all telescopes concurrently. The
// epoch number must be the next uncaptured one — bands render
// epoch-dependent pixels, so writing them under any other epoch would
// break the catalog ground truth every test leans on.
func (s *Survey) CaptureEpochBands(ctx context.Context, epoch int, bands [][]byte) (meta.Version, error) {
	s.mu.Lock()
	next := len(s.epochVers)
	s.mu.Unlock()
	if epoch != next {
		return 0, fmt.Errorf("sky: capture of epoch %d out of order (next is %d)", epoch, next)
	}
	if len(bands) != s.telescopes {
		return 0, fmt.Errorf("sky: %d bands for %d telescopes", len(bands), s.telescopes)
	}
	vers := make([]meta.Version, s.telescopes)
	errs := make([]error, s.telescopes)
	var wg sync.WaitGroup
	for tscope := 0; tscope < s.telescopes; tscope++ {
		fromRow, toRow := s.bandRows(tscope)
		if fromRow >= toRow {
			continue
		}
		wg.Add(1)
		go func(tscope, fromRow int) {
			defer wg.Done()
			v, err := s.blob.Write(ctx, bands[tscope], s.geo.TileOffset(0, fromRow))
			vers[tscope], errs[tscope] = v, err
		}(tscope, fromRow)
	}
	wg.Wait()
	var maxVer meta.Version
	for t := 0; t < s.telescopes; t++ {
		if errs[t] != nil {
			return 0, fmt.Errorf("sky: telescope %d epoch %d: %w", t, epoch, errs[t])
		}
		if vers[t] > maxVer {
			maxVer = vers[t]
		}
	}
	s.mu.Lock()
	s.epochVers = append(s.epochVers, maxVer)
	s.mu.Unlock()
	return maxVer, nil
}

// ReadTile fetches and decodes one tile at an epoch.
func (s *Survey) ReadTile(ctx context.Context, tx, ty, epoch int) (*Image, error) {
	v, err := s.VersionForEpoch(epoch)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, s.geo.TileBytes())
	if _, err := s.blob.Read(ctx, buf, s.geo.TileOffset(tx, ty), v); err != nil {
		return nil, err
	}
	return DecodeImage(buf, s.geo.TileW, s.geo.TileH)
}

// Detection is one variable-object candidate located on the sky.
type Detection struct {
	TileX, TileY int
	Candidate
	Epoch int
}

// DetectEpoch difference-images every tile of epoch e against e-1, in
// parallel, and returns all candidates. threshold is in noise sigmas.
func (s *Survey) DetectEpoch(ctx context.Context, epoch int, threshold float64, workers int) ([]Detection, error) {
	if epoch < 1 {
		return nil, fmt.Errorf("sky: need two epochs to difference, got epoch %d", epoch)
	}
	if workers < 1 {
		workers = 4
	}
	type tileJob struct{ tx, ty int }
	jobs := make(chan tileJob)
	var mu sync.Mutex
	var out []Detection
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				prev, err := s.ReadTile(ctx, j.tx, j.ty, epoch-1)
				if err == nil {
					var cur *Image
					cur, err = s.ReadTile(ctx, j.tx, j.ty, epoch)
					if err == nil {
						for _, c := range DiffDetect(prev, cur, threshold, s.cat.noiseSigma) {
							mu.Lock()
							out = append(out, Detection{TileX: j.tx, TileY: j.ty, Candidate: c, Epoch: epoch})
							mu.Unlock()
						}
						continue
					}
				}
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for ty := 0; ty < s.geo.TilesY; ty++ {
		for tx := 0; tx < s.geo.TilesX; tx++ {
			jobs <- tileJob{tx, ty}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// LightCurve extracts the aperture flux of a detection across epochs
// [from, to] by reading the tile at every captured epoch version —
// exactly the paper's "analyze the light curve of each potential
// candidate".
func (s *Survey) LightCurve(ctx context.Context, d Detection, from, to int) (LightCurve, error) {
	if from < 0 || to < from {
		return nil, fmt.Errorf("sky: bad epoch range [%d,%d]", from, to)
	}
	lc := make(LightCurve, 0, to-from+1)
	for e := from; e <= to; e++ {
		im, err := s.ReadTile(ctx, d.TileX, d.TileY, e)
		if err != nil {
			return nil, err
		}
		lc = append(lc, ApertureFlux(im, d.X, d.Y, 3, s.cat.background))
	}
	return lc, nil
}

// ClassifyDetection extracts the full light curve of a detection and
// classifies it.
func (s *Survey) ClassifyDetection(ctx context.Context, d Detection) (Class, LightCurve, error) {
	last := s.Epochs() - 1
	lc, err := s.LightCurve(ctx, d, 0, last)
	if err != nil {
		return ClassNoise, nil, err
	}
	// Amplitude floor: several sigma of aperture noise (7x7 box).
	minAmp := 8 * s.cat.noiseSigma * 7
	return Classify(lc, minAmp), lc, nil
}
