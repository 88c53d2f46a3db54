// Package synth is the synthetic instrument: it generates the hyperspectral
// cubes and spatiotemporal nanoparticle series that the real Dynamic
// PicoProbe would produce, with known ground truth, and writes them as EMD
// containers carrying realistic microscope metadata. It substitutes for the
// proprietary instrument and its detectors while exercising exactly the
// data shapes, sizes and content statistics the paper's flows consume.
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"picoprobe/internal/emd"
	"picoprobe/internal/metadata"
	"picoprobe/internal/tensor"
)

// ParticleSpec describes a population of embedded particles of one element.
type ParticleSpec struct {
	Element       string
	Count         int
	MinRadius     float64 // pixels
	MaxRadius     float64 // pixels
	Concentration float64 // spectral weight relative to the film
}

// HyperspectralConfig parameterizes a synthetic hyperspectral acquisition:
// a film of light elements with embedded heavy-metal particles, imaged as
// an (H, W, C) cube of EDS counts.
type HyperspectralConfig struct {
	Height, Width, Channels int
	Film                    map[string]float64 // element -> fraction
	Particles               []ParticleSpec
	Seed                    int64
}

// The generator's detector physics.
const (
	maxEnergyKeV     = 20.0 // spectral axis upper bound
	detectorSigmaKeV = 0.07 // line broadening
	countsScale      = 100  // overall intensity
)

// withDefaults fills zero fields with sensible values.
func (c HyperspectralConfig) withDefaults() HyperspectralConfig {
	if c.Height == 0 {
		c.Height = 64
	}
	if c.Width == 0 {
		c.Width = 64
	}
	if c.Channels == 0 {
		c.Channels = 256
	}
	if c.Film == nil {
		// Polyamide-like organic film (paper Fig 2 shows a polyamide film
		// treated to capture heavy metals from water).
		c.Film = map[string]float64{"C": 0.6, "N": 0.2, "O": 0.2}
	}
	if c.Particles == nil {
		c.Particles = []ParticleSpec{
			{Element: "Pb", Count: 6, MinRadius: 2, MaxRadius: 6, Concentration: 3},
			{Element: "Au", Count: 3, MinRadius: 2, MaxRadius: 5, Concentration: 3},
		}
	}
	return c
}

// PaperHyperspectral returns the configuration matching the paper's
// hyperspectral use case: a float32 cube of ~91 MB (256 x 256 x 350 x 4 B).
func PaperHyperspectral() HyperspectralConfig {
	return HyperspectralConfig{Height: 256, Width: 256, Channels: 350, Seed: 1}.withDefaults()
}

// PlacedParticle is the ground-truth location of one embedded particle.
type PlacedParticle struct {
	X, Y, R float64
	Element string
}

// HyperspectralSample is a generated cube with its ground truth.
type HyperspectralSample struct {
	Config    HyperspectralConfig
	Cube      *tensor.Dense // (H, W, C)
	Elements  []string      // all elements present, sorted
	Particles []PlacedParticle
}

// GenerateHyperspectral builds a deterministic synthetic cube. Per-element
// spectral templates are precomputed once; per-pixel spectra are a weighted
// sum of templates plus a bremsstrahlung continuum and approximately
// Poisson noise. Rows are generated in parallel with per-row RNG streams so
// the output is independent of scheduling.
func GenerateHyperspectral(cfg HyperspectralConfig) (*HyperspectralSample, error) {
	cfg = cfg.withDefaults()
	for sym := range cfg.Film {
		if _, ok := metadata.Library[sym]; !ok {
			return nil, fmt.Errorf("synth: unknown film element %q", sym)
		}
	}
	for _, p := range cfg.Particles {
		if _, ok := metadata.Library[p.Element]; !ok {
			return nil, fmt.Errorf("synth: unknown particle element %q", p.Element)
		}
	}

	H, W, C := cfg.Height, cfg.Width, cfg.Channels
	// Element spectral templates.
	elements := map[string][]float64{}
	addTemplate := func(sym string) {
		if _, done := elements[sym]; done {
			return
		}
		tpl := make([]float64, C)
		for _, line := range metadata.Library[sym].Lines {
			for c := 0; c < C; c++ {
				e := (float64(c) + 0.5) * maxEnergyKeV / float64(C)
				d := (e - line.KeV) / detectorSigmaKeV
				tpl[c] += line.Weight * math.Exp(-0.5*d*d)
			}
		}
		elements[sym] = tpl
	}
	for sym := range cfg.Film {
		addTemplate(sym)
	}
	for _, p := range cfg.Particles {
		addTemplate(p.Element)
	}

	// Continuum (bremsstrahlung-like) shared by all pixels.
	continuum := make([]float64, C)
	for c := 0; c < C; c++ {
		e := (float64(c) + 0.5) * maxEnergyKeV / float64(C)
		continuum[c] = 0.08 * (1 - e/maxEnergyKeV) * math.Exp(-e/6)
	}

	// Place particles deterministically.
	placer := rand.New(rand.NewSource(cfg.Seed))
	var placed []PlacedParticle
	for _, spec := range cfg.Particles {
		for i := 0; i < spec.Count; i++ {
			r := spec.MinRadius + placer.Float64()*(spec.MaxRadius-spec.MinRadius)
			placed = append(placed, PlacedParticle{
				X:       r + placer.Float64()*(float64(W)-2*r),
				Y:       r + placer.Float64()*(float64(H)-2*r),
				R:       r,
				Element: spec.Element,
			})
		}
	}
	concOf := map[string]float64{}
	for _, spec := range cfg.Particles {
		concOf[spec.Element] = spec.Concentration
	}

	// Film composition in deterministic order.
	filmSyms := make([]string, 0, len(cfg.Film))
	for s := range cfg.Film {
		filmSyms = append(filmSyms, s)
	}
	sort.Strings(filmSyms)

	cube := tensor.New(H, W, C)
	data := cube.Data()
	var wg sync.WaitGroup
	for y := 0; y < H; y++ {
		wg.Add(1)
		go func(y int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(y)))
			mix := make([]float64, C)
			for x := 0; x < W; x++ {
				for c := range mix {
					mix[c] = continuum[c]
				}
				for _, sym := range filmSyms {
					frac := cfg.Film[sym]
					tpl := elements[sym]
					for c := range mix {
						mix[c] += frac * tpl[c]
					}
				}
				for _, p := range placed {
					dx, dy := float64(x)-p.X, float64(y)-p.Y
					if dx*dx+dy*dy <= p.R*p.R {
						tpl := elements[p.Element]
						conc := concOf[p.Element]
						for c := range mix {
							mix[c] += conc * tpl[c]
						}
					}
				}
				base := (y*W + x) * C
				for c := 0; c < C; c++ {
					mean := mix[c] * countsScale
					v := mean + math.Sqrt(math.Max(mean, 0.05))*rng.NormFloat64()
					if v < 0 {
						v = 0
					}
					data[base+c] = math.Round(v) // detector counts are integral
				}
			}
		}(y)
	}
	wg.Wait()

	present := map[string]bool{}
	for s := range cfg.Film {
		present[s] = true
	}
	for _, p := range cfg.Particles {
		present[p.Element] = true
	}
	var syms []string
	for s := range present {
		syms = append(syms, s)
	}
	sort.Strings(syms)

	return &HyperspectralSample{Config: cfg, Cube: cube, Elements: syms, Particles: placed}, nil
}

// WriteEMD stores the sample as an EMD container at path, with instrument
// and acquisition metadata. The cube is written as float32 (matching the
// paper's 91 MB file size at the paper-scale configuration), in
// row-batched chunks.
func (s *HyperspectralSample) WriteEMD(path string, mic *metadata.Microscope, acq *metadata.Acquisition) error {
	w, err := emd.Create(path)
	if err != nil {
		return err
	}
	grp := w.Root().CreateGroup("data").CreateGroup("hyperspectral")
	grp.SetAttr("emd_group_type", int64(1))
	grp.SetAttr("units", []string{"px", "px", "keV"})
	grp.SetAttr("max_energy_kev", maxEnergyKeV)

	ds, err := w.CreateDataset(grp, "data", tensor.Float32, s.Cube.Shape(), emd.DatasetOptions{})
	if err != nil {
		w.Close()
		return err
	}
	ds.SetAttr("signal", "EDS")
	// Write in batches of rows to exercise chunked storage.
	H := s.Config.Height
	batch := 32
	for lo := 0; lo < H; lo += batch {
		hi := lo + batch
		if hi > H {
			hi = H
		}
		rows := tensor.FromData(
			s.Cube.Data()[lo*s.Config.Width*s.Config.Channels:hi*s.Config.Width*s.Config.Channels],
			hi-lo, s.Config.Width, s.Config.Channels)
		if err := ds.WriteFrames(rows); err != nil {
			w.Close()
			return err
		}
	}

	mic.WriteTo(w.Root().CreateGroup("metadata").CreateGroup("microscope"))
	acqCopy := *acq
	acqCopy.Kind = metadata.KindHyperspectral
	if acqCopy.Signal == "" {
		acqCopy.Signal = "EDS"
	}
	acqCopy.Elements = s.Elements
	acqCopy.WriteTo(w.Root().CreateGroup("metadata").CreateGroup("acquisition"))
	return w.Close()
}
