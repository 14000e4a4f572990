package sky

import (
	"math"

	"blob/internal/wire"
)

// Catalog deterministically generates the synthetic sky: a fixed star
// field per tile, per-epoch photon noise, optional periodic variable
// stars, and injected supernova transients. Determinism (everything is a
// hash of seed, tile, epoch and pixel) means any process can re-render
// any tile at any epoch bit-identically — which stands in for "the
// telescope took this picture" without storing source imagery.
type Catalog struct {
	geo  Geometry
	seed uint64

	// background is the mean sky level in counts.
	background float64
	// noiseSigma is the per-pixel Gaussian noise amplitude.
	noiseSigma float64
	// starsPerTile is the number of static stars rendered per tile.
	starsPerTile int

	transients []Transient
	variables  []VariableStar
	asteroids  []Asteroid
}

// Transient is an injected supernova: it brightens quickly around
// PeakEpoch and decays exponentially — the light-curve shape the
// classifier keys on.
type Transient struct {
	TileX, TileY int
	X, Y         int
	PeakFlux     float64
	PeakEpoch    int
	// RiseEpochs is the linear rise duration; DecayTau the exponential
	// decay constant (in epochs).
	RiseEpochs int
	DecayTau   float64
}

// VariableStar is a periodic variable: a sinusoidal brightness
// modulation, the classic false-positive the analysis must reject.
type VariableStar struct {
	TileX, TileY int
	X, Y         int
	MeanFlux     float64
	Amplitude    float64
	PeriodEpochs float64
}

// NewCatalog creates a catalog with sensible survey-like defaults.
func NewCatalog(geo Geometry, seed uint64) *Catalog {
	return &Catalog{
		geo:          geo,
		seed:         seed,
		background:   1000,
		noiseSigma:   12,
		starsPerTile: 12,
	}
}

// Geometry returns the catalog's tiling.
func (c *Catalog) Geometry() Geometry { return c.geo }

// AddTransient injects a supernova.
func (c *Catalog) AddTransient(tr Transient) { c.transients = append(c.transients, tr) }

// AddVariable injects a periodic variable star.
func (c *Catalog) AddVariable(v VariableStar) { c.variables = append(c.variables, v) }

// rng is a splitmix64 sequence generator for deterministic noise.
type rng struct{ state uint64 }

func newRng(parts ...uint64) *rng {
	return &rng{state: wire.HashFields(parts...)}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return wire.Mix64(r.state)
}

// float returns a uniform float in [0,1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// gaussian returns a standard normal deviate (Box-Muller).
func (r *rng) gaussian() float64 {
	u1 := r.float()
	for u1 == 0 {
		u1 = r.float()
	}
	u2 := r.float()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// starField returns the tile's static stars: position, peak flux, PSF
// width. Deterministic per (seed, tile).
type star struct {
	x, y  int
	flux  float64
	sigma float64
}

func (c *Catalog) starField(tx, ty int) []star {
	r := newRng(c.seed, uint64(tx), uint64(ty), 0xdeadbeef)
	stars := make([]star, c.starsPerTile)
	for i := range stars {
		stars[i] = star{
			x:     int(r.next() % uint64(c.geo.TileW)),
			y:     int(r.next() % uint64(c.geo.TileH)),
			flux:  2000 + r.float()*20000,
			sigma: 0.8 + r.float()*1.2,
		}
	}
	return stars
}

// TransientFlux returns the supernova's brightness at an epoch.
func (tr Transient) TransientFlux(epoch int) float64 {
	rise := tr.RiseEpochs
	if rise < 1 {
		rise = 1
	}
	start := tr.PeakEpoch - rise
	switch {
	case epoch <= start:
		return 0
	case epoch <= tr.PeakEpoch:
		return tr.PeakFlux * float64(epoch-start) / float64(rise)
	default:
		tau := tr.DecayTau
		if tau <= 0 {
			tau = 4
		}
		return tr.PeakFlux * math.Exp(-float64(epoch-tr.PeakEpoch)/tau)
	}
}

// variableFlux returns a variable star's brightness at an epoch.
func (v VariableStar) variableFlux(epoch int) float64 {
	return v.MeanFlux + v.Amplitude*math.Sin(2*math.Pi*float64(epoch)/v.PeriodEpochs)
}

// splat renders a Gaussian point-spread function around (cx, cy).
func splat(im *Image, cx, cy int, flux, sigma float64) {
	radius := int(3*sigma) + 1
	norm := flux / (2 * math.Pi * sigma * sigma)
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			x, y := cx+dx, cy+dy
			if x < 0 || y < 0 || x >= im.W || y >= im.H {
				continue
			}
			d2 := float64(dx*dx + dy*dy)
			im.Add(x, y, norm*math.Exp(-d2/(2*sigma*sigma)))
		}
	}
}

// RenderTile produces the tile's image at an epoch: background + noise +
// static stars + any variables and transients that live on the tile.
func (c *Catalog) RenderTile(tx, ty, epoch int) *Image {
	im := NewImage(c.geo.TileW, c.geo.TileH)
	noise := newRng(c.seed, uint64(tx), uint64(ty), uint64(epoch), 0xabcdef)
	for i := range im.Pix {
		v := c.background + c.noiseSigma*noise.gaussian()
		if v < 0 {
			v = 0
		}
		im.Pix[i] = uint16(v)
	}
	for _, s := range c.starField(tx, ty) {
		splat(im, s.x, s.y, s.flux, s.sigma)
	}
	for _, v := range c.variables {
		if v.TileX == tx && v.TileY == ty {
			splat(im, v.X, v.Y, v.variableFlux(epoch), 1.0)
		}
	}
	for _, tr := range c.transients {
		if tr.TileX == tx && tr.TileY == ty {
			if f := tr.TransientFlux(epoch); f > 0 {
				splat(im, tr.X, tr.Y, f, 1.0)
			}
		}
	}
	for _, a := range c.asteroids {
		if a.TileX == tx && a.TileY == ty {
			x, y := a.positionAt(epoch)
			xi, yi := int(x+0.5), int(y+0.5)
			if xi >= 0 && yi >= 0 && xi < im.W && yi < im.H {
				splat(im, xi, yi, a.Flux, 1.0)
			}
		}
	}
	return im
}

// RenderTileBytes renders straight into the wire encoding.
func (c *Catalog) RenderTileBytes(tx, ty, epoch int, buf []byte) error {
	return c.RenderTile(tx, ty, epoch).Encode(buf)
}
