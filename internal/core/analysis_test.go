package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"image"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"picoprobe/internal/detect"
	"picoprobe/internal/metadata"
	"picoprobe/internal/synth"
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
	entries, _ := os.ReadDir(outDir)
	if len(entries) != 1 {
		t.Fatalf("%d record directories under %s", len(entries), outDir)
	}
	recDir = filepath.Join(outDir, entries[0].Name())
	if err == nil && out.Experiment.ID != entries[0].Name() {
		t.Fatalf("record %s written under %s", out.Experiment.ID, recDir)
	}
	files, rerr := os.ReadDir(recDir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	hashes = map[string]string{}
	for _, f := range files {
		if f.IsDir() {
			hashes[f.Name()] = "directory"
			continue
		}
		raw, rerr := os.ReadFile(filepath.Join(recDir, f.Name()))
		if rerr != nil {
			t.Fatal(rerr)
		}
		sum := sha256.Sum256(raw)
		hashes[f.Name()] = hex.EncodeToString(sum[:])
	}
	return recDir, hashes, err
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
