package sky_test

import (
	"context"
	"math/rand"
	"testing"

	"blob/internal/cluster"
	"blob/internal/erasure"
	"blob/internal/sky"
)

// checkDiffAgainstCatalog runs the time-travel diff property for one
// epoch pair: every transient the catalog says MUST appear has a
// candidate on its tile near its position, and no candidate lands on a
// tile without an expected-or-ambiguous transient. Returns how many
// must-appear transients the pair carried, so callers can assert the
// test wasn't vacuous.
func checkDiffAgainstCatalog(t *testing.T, sv *sky.Survey, cat *sky.Catalog, a, b int, threshold float64) int {
	t.Helper()
	d, err := sv.DiffEpochs(context.Background(), a, b, threshold, 4)
	if err != nil {
		t.Fatalf("diff(%d,%d): %v", a, b, err)
	}
	geo := sv.Geometry()
	if d.TilesDiffed != geo.TilesX*geo.TilesY {
		t.Fatalf("diff(%d,%d) covered %d tiles, want %d", a, b, d.TilesDiffed, geo.TilesX*geo.TilesY)
	}
	if want := 2 * uint64(d.TilesDiffed) * geo.TileBytes(); d.BytesRead != want {
		t.Fatalf("diff(%d,%d) read %d bytes, want %d", a, b, d.BytesRead, want)
	}

	expected, ambiguous := cat.ExpectedDiff(a, b, threshold)
	type tile struct{ x, y int }
	allowed := map[tile]bool{}
	for _, tr := range expected {
		allowed[tile{tr.TileX, tr.TileY}] = true
	}
	for _, tr := range ambiguous {
		allowed[tile{tr.TileX, tr.TileY}] = true
	}
	for _, tr := range expected {
		found := false
		for _, c := range d.Candidates {
			if c.TileX == tr.TileX && c.TileY == tr.TileY {
				if dx, dy := c.X-tr.X, c.Y-tr.Y; dx*dx+dy*dy <= 9 {
					found = true
					break
				}
			}
		}
		if !found {
			t.Fatalf("diff(%d,%d): expected transient on tile (%d,%d) at (%d,%d) not found among %d candidates",
				a, b, tr.TileX, tr.TileY, tr.X, tr.Y, len(d.Candidates))
		}
	}
	for _, c := range d.Candidates {
		if !allowed[tile{c.TileX, c.TileY}] {
			t.Fatalf("diff(%d,%d): spurious candidate on quiet tile (%d,%d) at (%d,%d)",
				a, b, c.TileX, c.TileY, c.X, c.Y)
		}
	}
	return len(expected)
}

// TestDiffEpochsPropertyRandomPairs is the time-travel property test:
// for random epoch pairs of a survey with injected transients, the diff
// result must round-trip the catalog's analytically predicted delta
// exactly — must-appear transients found, quiet tiles silent — with
// ambiguous (noise-straddling) cases excluded by construction.
func TestDiffEpochsPropertyRandomPairs(t *testing.T) {
	geo := sky.Geometry{TilesX: 3, TilesY: 3, TileW: 32, TileH: 32}
	_, cat, sv := surveyFixture(t, geo, 2, 1717)
	cat.AddTransient(sky.Transient{
		TileX: 0, TileY: 1, X: 10, Y: 12,
		PeakFlux: 50000, PeakEpoch: 2, RiseEpochs: 1, DecayTau: 2,
	})
	cat.AddTransient(sky.Transient{
		TileX: 2, TileY: 2, X: 20, Y: 8,
		PeakFlux: 60000, PeakEpoch: 5, RiseEpochs: 2, DecayTau: 3,
	})
	cat.AddTransient(sky.Transient{
		TileX: 1, TileY: 0, X: 16, Y: 24,
		PeakFlux: 40000, PeakEpoch: 7, RiseEpochs: 1, DecayTau: 2,
	})

	ctx := context.Background()
	const epochs = 9
	for e := 0; e < epochs; e++ {
		if _, err := sv.CaptureEpoch(ctx); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(99))
	const threshold = 6.0
	decisivePairs := 0
	for i := 0; i < 12; i++ {
		a, b := rng.Intn(epochs), rng.Intn(epochs)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		decisivePairs += checkDiffAgainstCatalog(t, sv, cat, a, b, threshold)
	}
	if decisivePairs == 0 {
		t.Fatal("no random pair carried a must-appear transient; property test was vacuous")
	}
}

// TestDiffEpochsErasureDegraded runs the same property on an rs(3,2)
// erasure-coded deployment, then stops one data provider and proves the
// time-travel diff still round-trips exactly through inline stripe
// reconstruction — historical epochs stay first-class even degraded.
func TestDiffEpochsErasureDegraded(t *testing.T) {
	cl, err := cluster.Launch(cluster.Config{
		DataProviders: 6,
		MetaProviders: 6,
		Redundancy:    erasure.Redundancy{K: 3, M: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Shutdown)
	ctx := context.Background()
	c, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	geo := sky.Geometry{TilesX: 2, TilesY: 2, TileW: 32, TileH: 32}
	cat := sky.NewCatalog(geo, 33)
	cat.AddTransient(sky.Transient{
		TileX: 1, TileY: 0, X: 14, Y: 14,
		PeakFlux: 50000, PeakEpoch: 2, RiseEpochs: 1, DecayTau: 2,
	})
	b, err := c.CreateBlob(ctx, 1024, 16*geo.SkyBytes())
	if err != nil {
		t.Fatal(err)
	}
	if b.Redundancy() != (erasure.Redundancy{K: 3, M: 2}) {
		t.Fatal("blob did not adopt the deployment's rs(3,2) mode")
	}
	sv, err := sky.NewSurvey(b, cat, 2)
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 5
	for e := 0; e < epochs; e++ {
		if _, err := sv.CaptureEpoch(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// Healthy pass over the peak pair.
	if n := checkDiffAgainstCatalog(t, sv, cat, 0, 2, 6.0); n == 0 {
		t.Fatal("peak pair carried no must-appear transient; fixture is miscalibrated")
	}

	// Degrade: one provider of every stripe group goes away for good (RAM
	// providers lose their shards on close). rs(3,2) tolerates it inline.
	cl.DataServers[1].Close()

	if n := checkDiffAgainstCatalog(t, sv, cat, 0, 2, 6.0); n == 0 {
		t.Fatal("degraded peak pair lost its must-appear transient")
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		a, b := rng.Intn(epochs), rng.Intn(epochs)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		checkDiffAgainstCatalog(t, sv, cat, a, b, 6.0)
	}

	// The pinned-reader invariant holds degraded too: epoch 0 rereads
	// byte-identical to the catalog rendering via reconstruction.
	pr, err := sv.PinReader(0)
	if err != nil {
		t.Fatal(err)
	}
	for ty := 0; ty < geo.TilesY; ty++ {
		for tx := 0; tx < geo.TilesX; tx++ {
			if err := pr.VerifyAgainstCatalog(ctx, tx, ty); err != nil {
				t.Fatal(err)
			}
		}
	}
}
