package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"path/filepath"
	"testing"
	"time"

	"picoprobe/internal/emd"
	"picoprobe/internal/metadata"
)

func testAcquisition(kind string) *metadata.Acquisition {
	return &metadata.Acquisition{
		SampleName: "polyamide-film-007",
		Operator:   "N. Zaluzec",
		Collected:  time.Date(2023, 6, 5, 14, 30, 0, 0, time.UTC),
		Kind:       kind,
	}
}

func TestGenerateHyperspectralDeterministic(t *testing.T) {
	cfg := HyperspectralConfig{Height: 16, Width: 16, Channels: 64, Seed: 7}
	a, err := GenerateHyperspectral(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateHyperspectral(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cube.Data() {
		if a.Cube.Data()[i] != b.Cube.Data()[i] {
			t.Fatalf("generation not deterministic at %d", i)
		}
	}
	if a.Cube.Shape().Elems() != 16*16*64 {
		t.Errorf("shape = %v", a.Cube.Shape())
	}
}

func TestHyperspectralHasElementPeaks(t *testing.T) {
	cfg := HyperspectralConfig{Height: 24, Width: 24, Channels: 256, Seed: 3}
	s, err := GenerateHyperspectral(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The aggregate spectrum should peak near the carbon K-alpha line
	// (0.28 keV) relative to a line-free window (e.g. ~4-5 keV).
	spectrum := s.Cube.SumAxis(0).SumAxis(0)
	chanOf := func(keV float64) int {
		return int(keV / maxEnergyKeV * float64(s.Config.Channels))
	}
	carbon := spectrum.At(chanOf(0.28))
	quiet := spectrum.At(chanOf(4.6))
	if carbon < 3*quiet {
		t.Errorf("carbon peak %v not prominent over continuum %v", carbon, quiet)
	}
	// Lead particles should produce a visible 10.55 keV L-alpha peak.
	lead := spectrum.At(chanOf(10.55))
	if lead < 1.2*quiet {
		t.Errorf("lead L-alpha %v not above continuum %v", lead, quiet)
	}
}

func TestHyperspectralValuesNonNegative(t *testing.T) {
	s, err := GenerateHyperspectral(HyperspectralConfig{Height: 8, Width: 8, Channels: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	min, _ := s.Cube.MinMax()
	if min < 0 {
		t.Errorf("negative counts: %v", min)
	}
}

func TestHyperspectralUnknownElementRejected(t *testing.T) {
	_, err := GenerateHyperspectral(HyperspectralConfig{Film: map[string]float64{"Xx": 1}})
	if err == nil {
		t.Error("unknown film element should be rejected")
	}
	_, err = GenerateHyperspectral(HyperspectralConfig{
		Particles: []ParticleSpec{{Element: "Zz", Count: 1, MinRadius: 1, MaxRadius: 2, Concentration: 1}},
	})
	if err == nil {
		t.Error("unknown particle element should be rejected")
	}
}

func TestHyperspectralWriteAndExtract(t *testing.T) {
	s, err := GenerateHyperspectral(HyperspectralConfig{Height: 16, Width: 16, Channels: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hs.emdg")
	if err := s.WriteEMD(path, DefaultMicroscope(), testAcquisition(metadata.KindHyperspectral)); err != nil {
		t.Fatal(err)
	}
	f, err := emd.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	exp, err := metadata.Extract(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Validate(); err != nil {
		t.Fatal(err)
	}
	if exp.Microscope.BeamEnergyKeV != 300 {
		t.Errorf("beam energy = %v", exp.Microscope.BeamEnergyKeV)
	}
	if exp.Acquisition.Kind != metadata.KindHyperspectral {
		t.Errorf("kind = %q", exp.Acquisition.Kind)
	}
	if len(exp.Acquisition.Shape) != 3 {
		t.Errorf("shape = %v", exp.Acquisition.Shape)
	}
	if exp.Acquisition.DTypeName != "float32" {
		t.Errorf("dtype = %q", exp.Acquisition.DTypeName)
	}
	// Round-trip of the data itself.
	ds, err := f.Dataset("data/hyperspectral/data")
	if err != nil {
		t.Fatal(err)
	}
	cube, err := ds.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if cube.Shape().Elems() != s.Cube.Shape().Elems() {
		t.Error("cube size mismatch")
	}
}

func TestGenerateSpatiotemporalTruth(t *testing.T) {
	cfg := SpatiotemporalConfig{Frames: 12, Height: 64, Width: 64, Particles: 5, Seed: 11}
	s := GenerateSpatiotemporal(cfg)
	if len(s.Truth) != 12 {
		t.Fatalf("truth frames = %d", len(s.Truth))
	}
	for ti, boxes := range s.Truth {
		if len(boxes) != 5 {
			t.Fatalf("frame %d has %d boxes", ti, len(boxes))
		}
		for _, b := range boxes {
			if b.X0 < 0 || b.Y0 < 0 || b.X1 > 64 || b.Y1 > 64 {
				t.Errorf("frame %d box out of bounds: %+v", ti, b)
			}
			if b.Area() <= 0 {
				t.Errorf("degenerate truth box: %+v", b)
			}
		}
	}
	// Particles should actually brighten their box centers.
	fr := s.Series.Frame(0)
	for _, b := range s.Truth[0] {
		cx, cy := b.Center()
		v := fr.At(int(cy), int(cx))
		if v < background+peakIntensity/2 {
			t.Errorf("particle at (%v,%v) not bright: %v", cx, cy, v)
		}
	}
}

func TestSpatiotemporalDeterministic(t *testing.T) {
	cfg := SpatiotemporalConfig{Frames: 6, Height: 32, Width: 32, Particles: 3, Seed: 4}
	a := GenerateSpatiotemporal(cfg)
	b := GenerateSpatiotemporal(cfg)
	for i := range a.Series.Data() {
		if a.Series.Data()[i] != b.Series.Data()[i] {
			t.Fatal("series not deterministic")
		}
	}
}

func TestSpatiotemporalMotion(t *testing.T) {
	cfg := SpatiotemporalConfig{Frames: 30, Height: 64, Width: 64, Particles: 4, Seed: 9}
	s := GenerateSpatiotemporal(cfg)
	// Particles should move: total displacement over the series must be
	// nonzero for most particles.
	moved := 0
	for p := 0; p < 4; p++ {
		x0, y0 := s.Truth[0][p].Center()
		x1, y1 := s.Truth[29][p].Center()
		if (x1-x0)*(x1-x0)+(y1-y0)*(y1-y0) > 1 {
			moved++
		}
	}
	if moved < 3 {
		t.Errorf("only %d of 4 particles moved", moved)
	}
}

func TestSpatiotemporalWriteAndStream(t *testing.T) {
	cfg := SpatiotemporalConfig{Frames: 10, Height: 32, Width: 32, Particles: 3, Seed: 6}
	s := GenerateSpatiotemporal(cfg)
	path := filepath.Join(t.TempDir(), "st.emdg")
	if err := s.WriteEMD(path, DefaultMicroscope(), testAcquisition(metadata.KindSpatiotemporal)); err != nil {
		t.Fatal(err)
	}
	f, err := emd.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := f.Dataset("data/spatiotemporal/data")
	if err != nil {
		t.Fatal(err)
	}
	// Stream frames 4..7 and compare to the in-memory series (float64
	// round-trips exactly).
	got, err := ds.ReadFrames(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < 3; ti++ {
		want := s.Series.Frame(4 + ti)
		for i, v := range got.Frame(ti).Data() {
			if v != want.Data()[i] {
				t.Fatalf("frame %d mismatch at %d", 4+ti, i)
			}
		}
	}
	exp, err := metadata.Extract(f)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Acquisition.Kind != metadata.KindSpatiotemporal {
		t.Errorf("kind = %q", exp.Acquisition.Kind)
	}
}

func TestPaperConfigsMatchPaperSizes(t *testing.T) {
	hs := PaperHyperspectral()
	hsBytes := int64(hs.Height) * int64(hs.Width) * int64(hs.Channels) * 4 // float32
	if hsBytes < 85_000_000 || hsBytes > 100_000_000 {
		t.Errorf("paper hyperspectral size = %d bytes, want ~91 MB", hsBytes)
	}
	st := PaperSpatiotemporal()
	stBytes := int64(st.Frames) * int64(st.Height) * int64(st.Width) * 8 // float64
	if stBytes < 1_150_000_000 || stBytes > 1_350_000_000 {
		t.Errorf("paper spatiotemporal size = %d bytes, want ~1200 MB", stBytes)
	}
	if st.Frames != 600 {
		t.Errorf("paper series frames = %d, want 600", st.Frames)
	}
}

func TestReflectStaysInRange(t *testing.T) {
	for _, v := range []float64{-10, 0, 5, 99, 150, 230} {
		got := reflect(v, 10, 90)
		if got < 10 || got > 90 {
			t.Errorf("reflect(%v) = %v out of [10,90]", v, got)
		}
	}
}

// sumOf is the SHA-256 of a tensor's values as little-endian float64 bits.
func sumOf(data []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSynthDefaultsPinned: the generator physics that used to be defaulted
// option fields are constants; these digests were computed before they
// became constants, from shape and seed alone, and every fixture in the
// repository rests on them not moving.
func TestSynthDefaultsPinned(t *testing.T) {
	cube, err := GenerateHyperspectral(HyperspectralConfig{Height: 16, Width: 16, Channels: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sumOf(cube.Cube.Data()), "3fd5103860aabb545779346cbfcb229c02c0114e1c13a00725d2b81b1109eb48"; got != want {
		t.Errorf("hyperspectral cube digest = %s, want %s", got, want)
	}
	series := GenerateSpatiotemporal(SpatiotemporalConfig{Frames: 8, Height: 32, Width: 32, Seed: 7})
	if got, want := sumOf(series.Series.Data()), "dc97efa677d6bf0384293e6ad5a16254e46a6f1150b78198fca74f99bd8cf952"; got != want {
		t.Errorf("spatiotemporal series digest = %s, want %s", got, want)
	}
}
