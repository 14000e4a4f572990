package sky

import (
	"context"
	"fmt"
	"math"
	"sync"

	"blob/internal/meta"
)

// Time-travel analytics: difference any two captured epochs, however far
// apart, by reading both at their pinned blob versions. Nothing here
// touches the version manager — both versions were published when their
// epochs were captured, so the whole query runs lock-free against
// immutable snapshots (core.Blob.ReadPinned), no matter how many newer
// epochs writers publish meanwhile. This is the paper's versioning put
// to work as a query primitive: "what changed in the sky between night
// i and night j?"

// EpochDiff is the result of differencing two epochs of the whole sky.
type EpochDiff struct {
	// VersionA, VersionB are the blob versions the tiles were read at.
	VersionA, VersionB meta.Version
	// Candidates are all significant-change components found, brightest
	// first within each tile.
	Candidates []Detection
	// TilesDiffed counts tiles compared; BytesRead the tile bytes
	// fetched from the blob (both epochs).
	TilesDiffed int
	BytesRead   uint64
}

// DiffEpochs difference-images every tile of epoch b against epoch a —
// the epochs need not be adjacent — and returns the candidates. Tiles
// are processed by `workers` goroutines in parallel; threshold is in
// noise sigmas, as for DetectEpoch. Both epochs are read at their
// pinned versions via ReadPinned, so the query never interacts with the
// version manager.
func (s *Survey) DiffEpochs(ctx context.Context, epochA, epochB int, threshold float64, workers int) (EpochDiff, error) {
	var d EpochDiff
	if epochA == epochB {
		return d, fmt.Errorf("sky: diff of epoch %d against itself", epochA)
	}
	va, err := s.VersionForEpoch(epochA)
	if err != nil {
		return d, err
	}
	vb, err := s.VersionForEpoch(epochB)
	if err != nil {
		return d, err
	}
	d.VersionA, d.VersionB = va, vb
	if workers < 1 {
		workers = 4
	}

	type tileJob struct{ tx, ty int }
	jobs := make(chan tileJob)
	tileBytes := s.geo.TileBytes()
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bufA := make([]byte, tileBytes)
			bufB := make([]byte, tileBytes)
			for j := range jobs {
				off := s.geo.TileOffset(j.tx, j.ty)
				err := s.blob.ReadPinned(ctx, bufA, off, va)
				if err == nil {
					err = s.blob.ReadPinned(ctx, bufB, off, vb)
				}
				var prev, cur *Image
				if err == nil {
					prev, err = DecodeImage(bufA, s.geo.TileW, s.geo.TileH)
				}
				if err == nil {
					cur, err = DecodeImage(bufB, s.geo.TileW, s.geo.TileH)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("sky: diff tile (%d,%d): %w", j.tx, j.ty, err)
					}
					mu.Unlock()
					continue
				}
				cands := DiffDetect(prev, cur, threshold, s.cat.noiseSigma)
				mu.Lock()
				for _, c := range cands {
					d.Candidates = append(d.Candidates, Detection{
						TileX: j.tx, TileY: j.ty, Candidate: c, Epoch: epochB,
					})
				}
				d.TilesDiffed++
				d.BytesRead += 2 * tileBytes
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
		return d, firstErr
	}
	return d, nil
}

// DiffOutcome classifies, from ground truth, whether an injected
// transient must, may, or must not show up in a diff of two epochs.
type DiffOutcome int

// Ground-truth diff outcomes.
const (
	// DiffAbsent — the flux change is too small for even one pixel to
	// cross the detection cut (noise margin included): the diff must not
	// report the transient.
	DiffAbsent DiffOutcome = iota
	// DiffAmbiguous — the change is within the noise margin of the cut;
	// detection legitimately depends on the realized noise. Property
	// tests skip these pairs.
	DiffAmbiguous
	// DiffExpected — the change is so large that at least two connected
	// pixels clear the cut under any noise realization: the diff must
	// report the transient.
	DiffExpected
)

// String names the outcome.
func (o DiffOutcome) String() string {
	switch o {
	case DiffExpected:
		return "expected"
	case DiffAmbiguous:
		return "ambiguous"
	default:
		return "absent"
	}
}

// ExpectedOutcome predicts a transient's fate in DiffEpochs(epochA,
// epochB, threshold, ...) from the catalog's analytic light curve.
//
// The decision compares the transient's flux change against the
// per-pixel detection cut. A PSF splat at sigma 1 puts 1/(2*pi) of the
// flux on the center pixel and exp(-1/2)/(2*pi) on each 4-neighbour;
// DiffDetect keeps components of >= 2 connected hot pixels, so
// detection hinges on the *second-brightest* pixel crossing the cut.
// The margin term keeps both verdicts robust to any plausible noise
// realization (the difference of two frames carries noise sigma*sqrt2;
// quantization adds at most 1 count per frame).
func (c *Catalog) ExpectedOutcome(tr Transient, epochA, epochB int, threshold float64) DiffOutcome {
	delta := math.Abs(tr.TransientFlux(epochB) - tr.TransientFlux(epochA))
	cut := threshold * c.noiseSigma * math.Sqrt2
	// 8 sigma of difference noise + quantization slack: the chance of a
	// violating realization over a whole survey is negligible.
	margin := 8*c.noiseSigma*math.Sqrt2 + 2
	second := delta * math.Exp(-0.5) / (2 * math.Pi)
	center := delta / (2 * math.Pi)
	switch {
	case second > cut+margin:
		return DiffExpected
	case center < cut-margin:
		return DiffAbsent
	default:
		return DiffAmbiguous
	}
}

// ExpectedDiff splits the catalog's transients into those a
// DiffEpochs(epochA, epochB, threshold, ...) run must find and those
// whose outcome is noise-dependent. Transients in neither slice must
// not be found. Ground truth for the time-travel property tests.
func (c *Catalog) ExpectedDiff(epochA, epochB int, threshold float64) (expected, ambiguous []Transient) {
	for _, tr := range c.transients {
		switch c.ExpectedOutcome(tr, epochA, epochB, threshold) {
		case DiffExpected:
			expected = append(expected, tr)
		case DiffAmbiguous:
			ambiguous = append(ambiguous, tr)
		}
	}
	return expected, ambiguous
}
