package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"image"
	"image/png"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"picoprobe/internal/detect"
	"picoprobe/internal/imaging"
	"picoprobe/internal/metadata"
	"picoprobe/internal/synth"
	"picoprobe/internal/tensor"
)

// productHashes analyses one synthetic series — a frame size that is a
// multiple of neither the 8-pixel JPEG block nor the 16-pixel MCU — and
// returns the record directory and the SHA-256 of each file in it.
func productHashes(t *testing.T, outDir string) (recDir string, hashes map[string]string, err error) {
	t.Helper()
	s := synth.GenerateSpatiotemporal(synth.SpatiotemporalConfig{Frames: 12, Height: 72, Width: 100, Particles: 5, Seed: 19})
	acq := &metadata.Acquisition{
		SampleName: "au-on-carbon-pinned",
		Operator:   "A. Brace",
		Collected:  time.Date(2023, 6, 6, 9, 0, 0, 0, time.UTC),
	}
	path := filepath.Join(t.TempDir(), "pinned.emdg")
	if err := s.WriteEMD(path, synth.DefaultMicroscope(), acq); err != nil {
		t.Fatal(err)
	}
	out, err := AnalyzeSpatiotemporal(path, outDir, detect.DefaultParams())
	recDir, hashes = recordHashes(t, outDir)
	if err == nil && out.Experiment.ID != filepath.Base(recDir) {
		t.Fatalf("record %s written under %s", out.Experiment.ID, recDir)
	}
	return recDir, hashes, err
}

// recordHashes returns the one record directory under outDir and the
// SHA-256 of each file in it.
func recordHashes(t *testing.T, outDir string) (recDir string, hashes map[string]string) {
	t.Helper()
	entries, _ := os.ReadDir(outDir)
	if len(entries) != 1 {
		t.Fatalf("%d record directories under %s", len(entries), outDir)
	}
	recDir = filepath.Join(outDir, entries[0].Name())
	files, err := os.ReadDir(recDir)
	if err != nil {
		t.Fatal(err)
	}
	hashes = map[string]string{}
	for _, f := range files {
		if f.IsDir() {
			hashes[f.Name()] = "directory"
			continue
		}
		raw, err := os.ReadFile(filepath.Join(recDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		hashes[f.Name()] = hex.EncodeToString(sum[:])
	}
	return recDir, hashes
}

// TestSpatiotemporalProductsPinned pins every byte the spatiotemporal
// analysis publishes. The constants were computed with the code as it was
// before AppendJPEG and the histogram median existed (image/jpeg.Encode,
// two quickselects), so this passes there and here: the kernels got
// cheaper, the products did not change.
func TestSpatiotemporalProductsPinned(t *testing.T) {
	want := map[string]string{
		"series.avi":    pinnedSeriesAVI,
		"annotated.avi": pinnedAnnotatedAVI,
		"counts.csv":    pinnedCountsCSV,
	}
	_, got, err := productHashes(t, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Errorf("%s: sha256 %s, pinned %s", name, got[name], sum)
		}
	}
	if len(got) != len(want) {
		t.Errorf("record directory holds %v, want exactly the three products", sortedNames(got))
	}
}

const (
	pinnedSeriesAVI    = "a575904f31b51ca094d1f5c3535df60224f982a9ffaa8dfdb948fbeedeebd97c"
	pinnedAnnotatedAVI = "12c13e6c21f4dcd857923a8535ab30a0131dae4cbbfe3a086a24838bfa4532b3"
	pinnedCountsCSV    = "ccc02b6e4d74c99f5d0fd10bf81ab1dd51ef70fbadcf81ecd272fdea8630c9cd"
)

// TestHyperspectralProductsPinned pins every byte the hyperspectral
// analysis publishes, at the cube shapes of the steady-small and
// portal-churn benchmark workloads and at one whose rows are odd. The constants were computed with the
// code as it was before the palette PNG writer and the reused plot canvas
// existed (png.Encoder of a palettized image, a fresh canvas per plot), so
// this passes there and here.
func TestHyperspectralProductsPinned(t *testing.T) {
	for _, tc := range []struct {
		h, w, c int
		want    map[string]string
	}{
		{64, 64, 256, map[string]string{
			"intensity.png": pinnedIntensity64,
			"spectrum.png":  pinnedSpectrum64,
			"spectrum.csv":  pinnedSpectrumCSV64,
		}},
		{16, 16, 64, map[string]string{
			"intensity.png": pinnedIntensity16,
			"spectrum.png":  pinnedSpectrum16,
			"spectrum.csv":  pinnedSpectrumCSV16,
		}},
		{33, 17, 100, map[string]string{
			"intensity.png": pinnedIntensity33,
			"spectrum.png":  pinnedSpectrum33,
			"spectrum.csv":  pinnedSpectrumCSV33,
		}},
	} {
		t.Run(fmt.Sprintf("%dx%dx%d", tc.h, tc.w, tc.c), func(t *testing.T) {
			path := writePinnedCube(t, tc.h, tc.w, tc.c, nil)
			outDir := t.TempDir()
			if _, err := AnalyzeHyperspectral(path, outDir); err != nil {
				t.Fatal(err)
			}
			_, got := recordHashes(t, outDir)
			for name, sum := range tc.want {
				if got[name] != sum {
					t.Errorf("%s: sha256 %s, pinned %s", name, got[name], sum)
				}
			}
			if len(got) != len(tc.want) {
				t.Errorf("record directory holds %v, want exactly the three products", sortedNames(got))
			}
		})
	}
}

const (
	pinnedIntensity64   = "ba8a3f3a23ad3701994988d9927216017a9d5483a39993c08cdd06d5fe14d6ea"
	pinnedSpectrum64    = "46a96e57eab6a939e68a50f40f63f159834b4d370648aba8746ba220eb9f50c9"
	pinnedSpectrumCSV64 = "acc31d65081301d01580454d3dcbbcb397a1ee9908a82e74fedd9d423e85555b"
	pinnedIntensity16   = "a6d0efe9e876945afe27d71c040cc8d3680076ffa1c6d7d48c98c7679ef0afde"
	pinnedSpectrum16    = "e6b6397b4e0b088c960adc48302d200509fde1979383655da513dbc92c53b538"
	pinnedSpectrumCSV16 = "ff66aab7eac7df628e0067cb4fe1c7d09d4fb788ea33bb4c75300403be37f257"
	pinnedIntensity33   = "50dab4f54e62cddc942147b763c06ddf7c15fd49d7cc3278e7406e4728f0086a"
	pinnedSpectrum33    = "284126bd24b55e6467b46acafd7259e623bebcb9ebfe6ca1e9588fa4791d9c08"
	pinnedSpectrumCSV33 = "6ea51526b5a44622eaaa65486bd91ef057ff6372a8360150c463aed954f18b3b"
)

// writePinnedCube writes the synthetic cube of the given shape that
// TestHyperspectralProductsPinned analyses, after edit (if any) has changed
// its samples, and returns the file's path.
func writePinnedCube(t *testing.T, h, w, c int, edit func(cube *tensor.Dense)) string {
	t.Helper()
	s, err := synth.GenerateHyperspectral(synth.HyperspectralConfig{Height: h, Width: w, Channels: c, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(s.Cube)
	}
	acq := &metadata.Acquisition{
		SampleName: "polyamide-pinned",
		Operator:   "A. Brace",
		Collected:  time.Date(2023, 6, 6, 9, 0, 0, 0, time.UTC),
	}
	path := filepath.Join(t.TempDir(), "pinned.emdg")
	if err := s.WriteEMD(path, synth.DefaultMicroscope(), acq); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestHyperspectralDeadPixel analyses a cube with one NaN sample: its
// pixel's intensity and its channel's aggregate are NaN. The record must
// still be published — the intensity map shows the dead pixel at the low
// end of the colormap and the spectrum plot breaks its line at the NaN
// channel — and the thumbnail must render. A NaN used to index the
// colormap at −2⁶³ and panic.
func TestHyperspectralDeadPixel(t *testing.T) {
	path := writePinnedCube(t, 16, 16, 64, func(cube *tensor.Dense) { cube.Set(math.NaN(), 5, 9, 20) })
	outDir := t.TempDir()
	out, err := AnalyzeHyperspectral(path, outDir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(outDir, out.Experiment.ID, "intensity.png"))
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	low := imaging.Viridis(0)
	if r, g, b, _ := img.At(9, 5).RGBA(); uint8(r>>8) != low.R || uint8(g>>8) != low.G || uint8(b>>8) != low.B {
		t.Errorf("dead pixel drawn as %d,%d,%d, want the colormap's low end %v", r>>8, g>>8, b>>8, low)
	}
	if _, err := os.Stat(filepath.Join(outDir, out.Experiment.ID, "spectrum.png")); err != nil {
		t.Error(err)
	}
	if _, err := RenderThumbnail(path, t.TempDir()); err != nil {
		t.Errorf("thumbnail: %v", err)
	}
}

// TestFailedReanalysisLeavesArtifactsWhole re-analyses a record whose
// annotated.avi cannot be replaced (a directory sits at that name): the
// call must fail, the other artifacts must still hold the first run's
// bytes, and no temporary file may remain. Writing products in place
// truncated series.avi before the failure was noticed.
func TestFailedReanalysisLeavesArtifactsWhole(t *testing.T) {
	outDir := t.TempDir()
	recDir, first, err := productHashes(t, outDir)
	if err != nil {
		t.Fatal(err)
	}
	blocked := filepath.Join(recDir, "annotated.avi")
	if err := os.Remove(blocked); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	_, second, err := productHashes(t, outDir)
	if err == nil {
		t.Fatal("re-analysis over a blocked annotated.avi succeeded")
	}
	for _, name := range []string{"series.avi", "counts.csv"} {
		if second[name] != first[name] {
			t.Errorf("%s changed under a failed re-analysis: sha256 %s, was %s", name, second[name], first[name])
		}
	}
	if len(second) != 3 {
		t.Errorf("record directory holds %v after the failure, want the three artifacts only", sortedNames(second))
	}
}

// TestProductWriteFailureLeavesNothing covers the helper every product goes
// through: a product whose directory is missing or whose writer fails is an
// error, leaves no temporary behind and does not touch the previous
// artifact.
func TestProductWriteFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	img := image.NewRGBA(image.Rect(0, 0, 4, 4))
	if err := writePNG(filepath.Join(dir, "missing", "x.png"), img); err == nil {
		t.Error("a product in a missing directory should error")
	}
	path := filepath.Join(dir, "spectrum.csv")
	if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	failed := errors.New("render failed")
	err := writeProduct(path, func(w *bufio.Writer) error {
		w.WriteString("half a prod")
		return failed
	})
	if !errors.Is(err, failed) {
		t.Fatalf("err = %v, want the writer's", err)
	}
	if raw, _ := os.ReadFile(path); string(raw) != "previous" {
		t.Errorf("previous artifact now holds %q", raw)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("%d entries left in the directory, want the previous artifact only", len(entries))
	}
	if err := writePNG(path, img); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(path); len(raw) < 8 || string(raw[1:4]) != "PNG" {
		t.Error("a completed product did not replace the previous artifact")
	}
}

func sortedNames(m map[string]string) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
