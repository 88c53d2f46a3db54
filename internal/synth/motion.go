package synth

import (
	"math"
	"math/rand"
	"sync"

	"picoprobe/internal/emd"
	"picoprobe/internal/geom"
	"picoprobe/internal/metadata"
	"picoprobe/internal/tensor"
)

// SpatiotemporalConfig parameterizes a synthetic in-situ acquisition: gold
// nanoparticles undergoing Brownian motion (with optional drift) on a noisy
// carbon background, imaged as a (T, H, W) series.
type SpatiotemporalConfig struct {
	Frames, Height, Width int
	Particles             int
	MinRadius, MaxRadius  float64 // blob radius in pixels
	Seed                  int64
}

// The generator's image physics.
const (
	stepSigma     = 1.5 // Brownian step per frame, pixels
	background    = 20  // carbon film mean level
	peakIntensity = 120 // blob peak above background
	noiseSigma    = 6
)

func (c SpatiotemporalConfig) withDefaults() SpatiotemporalConfig {
	if c.Frames == 0 {
		c.Frames = 60
	}
	if c.Height == 0 {
		c.Height = 128
	}
	if c.Width == 0 {
		c.Width = 128
	}
	if c.Particles == 0 {
		c.Particles = 8
	}
	if c.MinRadius == 0 {
		c.MinRadius = 3
	}
	if c.MaxRadius == 0 {
		c.MaxRadius = 7
	}
	return c
}

// PaperSpatiotemporal returns the configuration matching the paper's
// spatiotemporal use case: 600 frames of 512 x 512 float64 (~1200 MB), 600
// time steps showing gold nanoparticles on a carbon background.
func PaperSpatiotemporal() SpatiotemporalConfig {
	return SpatiotemporalConfig{Frames: 600, Height: 512, Width: 512, Particles: 14, Seed: 2}.withDefaults()
}

// SpatiotemporalSample is a generated series with per-frame ground truth.
type SpatiotemporalSample struct {
	Config SpatiotemporalConfig
	Series *tensor.Dense // (T, H, W)
	Truth  [][]geom.Box  // Truth[t] = boxes of every particle in frame t
}

// GenerateSpatiotemporal builds a deterministic synthetic series. Particle
// trajectories are generated first (sequentially, from the seed), then
// frames are rendered in parallel with per-frame RNG streams.
func GenerateSpatiotemporal(cfg SpatiotemporalConfig) *SpatiotemporalSample {
	cfg = cfg.withDefaults()
	T, H, W := cfg.Frames, cfg.Height, cfg.Width

	type particle struct{ r float64 }
	rng := rand.New(rand.NewSource(cfg.Seed))
	parts := make([]particle, cfg.Particles)
	xs := make([][]float64, cfg.Particles) // xs[p][t]
	ys := make([][]float64, cfg.Particles)
	for p := range parts {
		parts[p].r = cfg.MinRadius + rng.Float64()*(cfg.MaxRadius-cfg.MinRadius)
		xs[p] = make([]float64, T)
		ys[p] = make([]float64, T)
		x := cfg.MaxRadius + rng.Float64()*(float64(W)-2*cfg.MaxRadius)
		y := cfg.MaxRadius + rng.Float64()*(float64(H)-2*cfg.MaxRadius)
		for t := 0; t < T; t++ {
			xs[p][t], ys[p][t] = x, y
			x += rng.NormFloat64() * stepSigma
			y += rng.NormFloat64() * stepSigma
			// Reflect at the borders so particles stay in frame.
			x = reflect(x, cfg.MaxRadius, float64(W)-cfg.MaxRadius)
			y = reflect(y, cfg.MaxRadius, float64(H)-cfg.MaxRadius)
		}
	}

	series := tensor.New(T, H, W)
	truth := make([][]geom.Box, T)
	var wg sync.WaitGroup
	for t := 0; t < T; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			frameRng := rand.New(rand.NewSource(cfg.Seed*2_000_003 + int64(t)))
			frame := series.Frame(t).Data()
			for i := range frame {
				frame[i] = background + frameRng.NormFloat64()*noiseSigma
			}
			boxes := make([]geom.Box, 0, len(parts))
			for p, part := range parts {
				cx, cy := xs[p][t], ys[p][t]
				sigma := part.r / 2
				// Render within +/- 3 sigma.
				ext := 3 * sigma
				x0, x1 := int(math.Max(0, cx-ext)), int(math.Min(float64(W-1), cx+ext))
				y0, y1 := int(math.Max(0, cy-ext)), int(math.Min(float64(H-1), cy+ext))
				for yy := y0; yy <= y1; yy++ {
					for xx := x0; xx <= x1; xx++ {
						dx, dy := float64(xx)-cx, float64(yy)-cy
						frame[yy*W+xx] += peakIntensity * math.Exp(-(dx*dx+dy*dy)/(2*sigma*sigma))
					}
				}
				// Ground-truth box spans +/- 2 sigma (where the blob is
				// clearly above the noise floor).
				boxes = append(boxes, geom.FromCenter(cx, cy, 4*sigma, 4*sigma).Clamp(float64(W), float64(H)))
			}
			truth[t] = boxes
		}(t)
	}
	wg.Wait()

	return &SpatiotemporalSample{Config: cfg, Series: series, Truth: truth}
}

// reflect folds v back into [lo, hi].
func reflect(v, lo, hi float64) float64 {
	for v < lo || v > hi {
		if v < lo {
			v = 2*lo - v
		}
		if v > hi {
			v = 2*hi - v
		}
	}
	return v
}

// WriteEMD stores the series as an EMD container at path. The data is
// written as float64 — the paper calls out the fp64 storage explicitly as
// the source of the slow fp64→uint8 cast during video conversion — in
// per-frame chunks so the analysis stage can stream it.
func (s *SpatiotemporalSample) WriteEMD(path string, mic *metadata.Microscope, acq *metadata.Acquisition) error {
	w, err := emd.Create(path)
	if err != nil {
		return err
	}
	grp := w.Root().CreateGroup("data").CreateGroup("spatiotemporal")
	grp.SetAttr("emd_group_type", int64(1))
	grp.SetAttr("units", []string{"frame", "px", "px"})

	ds, err := w.CreateDataset(grp, "data", tensor.Float64, s.Series.Shape(), emd.DatasetOptions{})
	if err != nil {
		w.Close()
		return err
	}
	ds.SetAttr("signal", "HAADF")
	batch := 16
	T := s.Config.Frames
	for lo := 0; lo < T; lo += batch {
		hi := lo + batch
		if hi > T {
			hi = T
		}
		stride := s.Config.Height * s.Config.Width
		frames := tensor.FromData(s.Series.Data()[lo*stride:hi*stride], hi-lo, s.Config.Height, s.Config.Width)
		if err := ds.WriteFrames(frames); err != nil {
			w.Close()
			return err
		}
	}

	mic.WriteTo(w.Root().CreateGroup("metadata").CreateGroup("microscope"))
	acqCopy := *acq
	acqCopy.Kind = metadata.KindSpatiotemporal
	if acqCopy.Signal == "" {
		acqCopy.Signal = "HAADF"
	}
	acqCopy.Elements = []string{"Au", "C"}
	acqCopy.WriteTo(w.Root().CreateGroup("metadata").CreateGroup("acquisition"))
	return w.Close()
}

// DefaultMicroscope returns PicoProbe-like instrument settings used by the
// generators and examples.
func DefaultMicroscope() *metadata.Microscope {
	return &metadata.Microscope{
		InstrumentName:      "Dynamic PicoProbe (synthetic)",
		BeamEnergyKeV:       300,
		MagnificationX:      1_800_000,
		EnergyResolutionMeV: 28,
		ProbeSizePM:         50,
		Detector:            "XPAD hyperspectral X-ray detector array",
		CollectionSR:        4.5,
		StageXYZUm:          [3]float64{12.5, -3.25, 0.8},
		AberrationCorrected: true,
		Environment:         "high-vacuum",
		SoftwareVersion:     "picoprobe-synth 1.0.0",
		DwellTimeUS:         12,
	}
}
