package core

import (
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"picoprobe/internal/detect"
	"picoprobe/internal/flows"
	"picoprobe/internal/metadata"
	"picoprobe/internal/search"
	"picoprobe/internal/synth"
	"picoprobe/internal/transfer"
	"picoprobe/internal/video"
)

func writeHyperspectralFile(t *testing.T, dir, name string) string {
	t.Helper()
	s, err := synth.GenerateHyperspectral(synth.HyperspectralConfig{Height: 24, Width: 24, Channels: 128, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	acq := &metadata.Acquisition{
		SampleName: "polyamide-film-007",
		Operator:   "N. Zaluzec",
		Collected:  time.Date(2023, 6, 5, 14, 30, 0, 0, time.UTC),
	}
	path := filepath.Join(dir, name)
	if err := s.WriteEMD(path, synth.DefaultMicroscope(), acq); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeSpatiotemporalFile(t *testing.T, dir, name string) string {
	t.Helper()
	s := synth.GenerateSpatiotemporal(synth.SpatiotemporalConfig{Frames: 8, Height: 48, Width: 48, Particles: 4, Seed: 9})
	acq := &metadata.Acquisition{
		SampleName: "au-on-carbon-3",
		Operator:   "A. Brace",
		Collected:  time.Date(2023, 6, 6, 9, 0, 0, 0, time.UTC),
	}
	path := filepath.Join(dir, name)
	if err := s.WriteEMD(path, synth.DefaultMicroscope(), acq); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAnalyzeHyperspectralProducts(t *testing.T) {
	dir := t.TempDir()
	path := writeHyperspectralFile(t, dir, "hs.emdg")
	outDir := t.TempDir()
	out, err := AnalyzeHyperspectral(path, outDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Experiment.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(out.Experiment.Products) != 3 {
		t.Errorf("products = %d", len(out.Experiment.Products))
	}
	for _, p := range out.Experiment.Products {
		full := filepath.Join(outDir, p.Path)
		st, err := os.Stat(full)
		if err != nil {
			t.Errorf("product %s missing: %v", p.Path, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("product %s is empty", p.Path)
		}
	}
	// Composition should include the film's carbon and at least one heavy
	// metal from the embedded particles.
	if _, ok := out.Composition["C"]; !ok {
		t.Errorf("composition %v missing carbon", out.Composition)
	}
	_, hasPb := out.Composition["Pb"]
	_, hasAu := out.Composition["Au"]
	if !hasPb && !hasAu {
		t.Errorf("composition %v missing heavy metals", out.Composition)
	}
	// The peak→element assignment reads internal/metadata's line table;
	// the keys are what it assigned when the table lived in synth.
	if got := sortedCompositionKeys(out.Composition); !slices.Equal(got, []string{"Au", "C", "Pb"}) {
		t.Errorf("composition keys = %v, want [Au C Pb]", got)
	}
}

func TestAnalyzeSpatiotemporalProducts(t *testing.T) {
	dir := t.TempDir()
	path := writeSpatiotemporalFile(t, dir, "st.emdg")
	outDir := t.TempDir()
	out, err := AnalyzeSpatiotemporal(path, outDir, detect.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Detections) != 8 {
		t.Fatalf("per-frame detections = %d", len(out.Detections))
	}
	// Most frames should see most of the 4 particles.
	hit := 0
	for _, n := range out.Detections {
		if n >= 3 {
			hit++
		}
	}
	if hit < 6 {
		t.Errorf("only %d/8 frames detected >=3 particles: %v", hit, out.Detections)
	}
	if out.CastElements != 8*48*48 {
		t.Errorf("cast elements = %d", out.CastElements)
	}
	// The annotated video must parse and hold every frame.
	r, err := video.Open(filepath.Join(outDir, out.Experiment.ID, "annotated.avi"))
	if err != nil {
		t.Fatal(err)
	}
	if r.FrameCount() != 8 {
		t.Errorf("annotated frames = %d", r.FrameCount())
	}
}

func TestLiveEndToEndFlows(t *testing.T) {
	instrument := t.TempDir()
	eagle := t.TempDir()
	outDir := t.TempDir()
	writeHyperspectralFile(t, instrument, "hs.emdg")
	writeSpatiotemporalFile(t, instrument, "st.emdg")

	dep, err := NewLiveDeployment(LiveOptions{
		InstrumentRoot: instrument,
		EagleRoot:      eagle,
		OutDir:         outDir,
	})
	if err != nil {
		t.Fatal(err)
	}

	rec, err := dep.RunFile("hyperspectral", "hs.emdg")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.States) != 3 {
		t.Fatalf("states = %d", len(rec.States))
	}
	// The file must have landed on Eagle.
	if _, err := os.Stat(filepath.Join(eagle, "hs.emdg")); err != nil {
		t.Error("file not transferred to Eagle root")
	}
	// The record must be searchable.
	hits, total, err := dep.Index.Search(search.Query{Text: "polyamide"})
	if err != nil || total != 1 {
		t.Fatalf("search total = %d, err = %v", total, err)
	}
	if hits[0].Entry.Fields["kind"] != metadata.KindHyperspectral {
		t.Errorf("indexed kind = %q", hits[0].Entry.Fields["kind"])
	}

	rec2, err := dep.RunFile("spatiotemporal", "st.emdg")
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Status != flows.StateSucceeded {
		t.Fatal(rec2.Error)
	}
	if dep.Index.Count() != 2 {
		t.Errorf("index count = %d", dep.Index.Count())
	}
}

func TestLiveDeploymentValidation(t *testing.T) {
	if _, err := NewLiveDeployment(LiveOptions{}); err == nil {
		t.Error("empty options accepted")
	}
}

// TestDefaultLiveFraming: a deployment that names no framing gets the
// shipped default (DefaultTransferChunkBytes × DefaultTransferStreams), not
// one frame per file — a sparse 65 MiB file moves as two chunks.
func TestDefaultLiveFraming(t *testing.T) {
	instrument := t.TempDir()
	f, err := os.Create(filepath.Join(instrument, "big.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(65 << 20); err != nil {
		t.Fatal(err)
	}
	f.Close()
	dep, err := NewLiveDeployment(LiveOptions{InstrumentRoot: instrument, EagleRoot: t.TempDir(), OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	id, err := dep.Transfer.Submit(dep.Token, EndpointInstrument, EndpointEagle, []transfer.FileSpec{{RelPath: "big.bin"}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		view, err := dep.Transfer.Status(dep.Token, id)
		if err != nil {
			t.Fatal(err)
		}
		if view.Status == transfer.StatusSucceeded {
			if view.ChunksTotal != 2 {
				t.Errorf("65 MiB under the default framing moved as %d chunk(s), want 2", view.ChunksTotal)
			}
			return
		}
		if view.Status == transfer.StatusFailed || time.Now().After(deadline) {
			t.Fatalf("transfer %s: %s", view.Status, view.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWireDeploymentRefusesOversizedChunk: one chunk rides in one frame, so
// a chunk size no frame can carry is refused when the deployment is built
// — not discovered as a dropped session on the first big file.
func TestWireDeploymentRefusesOversizedChunk(t *testing.T) {
	_, err := NewWireDeployment(WireOptions{InstrumentRoot: t.TempDir(), DaemonAddr: "127.0.0.1:1", TransferChunkBytes: 512 << 20})
	if err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("512 MiB wire chunk: err = %v, want a refusal naming the frame limit", err)
	}
	// The framing a deployment resolved is the framing it reports
	// (picoprobe-watch's banner prints it).
	dep, err := NewWireDeployment(WireOptions{InstrumentRoot: t.TempDir(), DaemonAddr: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if dep.Options.TransferChunkBytes != DefaultTransferChunkBytes || dep.Options.TransferStreams != DefaultTransferStreams {
		t.Errorf("default wire framing recorded as %d bytes × %d streams, want %d × %d",
			dep.Options.TransferChunkBytes, dep.Options.TransferStreams, DefaultTransferChunkBytes, DefaultTransferStreams)
	}
}

// countedConn takes itself off the open count when it is closed.
type countedConn struct {
	net.Conn
	open *atomic.Int64
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

// TestWireDeploymentCloseDropsSessions: a wire deployment's mover and
// compute backend pool their sessions to the daemon, and Close is what
// drops them — a closed deployment must not sit on the daemon's
// -max-sessions until the clients' idle eviction.
func TestWireDeploymentCloseDropsSessions(t *testing.T) {
	root := t.TempDir()
	srv, err := NewFacilityDaemon("close-test", root, filepath.Join(root, "analysis-out"), WireSecretDefault, 1)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var open atomic.Int64
	instrument := t.TempDir()
	writeHyperspectralFile(t, instrument, "hs.emdg")
	dep, err := NewWireDeployment(WireOptions{
		InstrumentRoot: instrument,
		DaemonAddr:     addr,
		Dial: func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			open.Add(1)
			return &countedConn{Conn: c, open: &open}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.RunBatch("hyperspectral", []string{"hs.emdg"}); err != nil {
		t.Fatal(err)
	}
	if open.Load() == 0 {
		t.Fatal("no session is pooled after a batch: Close has nothing to prove")
	}
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}
	if n := open.Load(); n != 0 {
		t.Errorf("%d connection(s) to the daemon still open after Close", n)
	}
}

func TestRenderThumbnailProducts(t *testing.T) {
	dir := t.TempDir()
	outDir := t.TempDir()
	hs := writeHyperspectralFile(t, dir, "hs.emdg")
	rel, err := RenderThumbnail(hs, outDir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(outDir, rel))
	if err != nil || st.Size() == 0 {
		t.Errorf("hyperspectral thumbnail: %v", err)
	}
	sp := writeSpatiotemporalFile(t, dir, "st.emdg")
	rel, err = RenderThumbnail(sp, outDir)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(outDir, rel)); err != nil || st.Size() == 0 {
		t.Errorf("spatiotemporal thumbnail: %v", err)
	}
	if _, err := RenderThumbnail(filepath.Join(dir, "missing.emdg"), outDir); err == nil {
		t.Error("missing file accepted")
	}
}

// TestLiveFanOutFlow runs the DAG flow end to end on real files: the
// thumbnail PNG and the full analysis products both land, and the fan-in
// publication sees both branch results.
func TestLiveFanOutFlow(t *testing.T) {
	instrument := t.TempDir()
	eagle := t.TempDir()
	outDir := t.TempDir()
	writeHyperspectralFile(t, instrument, "hs.emdg")
	dep, err := NewLiveDeployment(LiveOptions{
		InstrumentRoot: instrument,
		EagleRoot:      eagle,
		OutDir:         outDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := dep.RunDefinition(dep.FanOutDefinition("hyperspectral"), "hs.emdg")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.States) != 4 {
		t.Fatalf("states = %d", len(rec.States))
	}
	var thumbRel string
	for _, st := range rec.States {
		if st.Name != "Thumbnail" {
			continue
		}
		if len(st.After) != 1 || st.After[0] != "Transfer" {
			t.Errorf("thumbnail deps = %v", st.After)
		}
	}
	runRec, _ := dep.Engine.Record(rec.RunID)
	if runRec.Status != flows.StateSucceeded {
		t.Fatal(runRec.Error)
	}
	// The thumbnail product is on disk where its result says.
	hits, total, err := dep.Index.Search(search.Query{Text: "polyamide"})
	if err != nil || total != 1 {
		t.Fatalf("search total = %d, err = %v", total, err)
	}
	id := hits[0].Entry.ID
	thumbRel = filepath.Join(id, "thumbnail.png")
	if st, err := os.Stat(filepath.Join(outDir, thumbRel)); err != nil || st.Size() == 0 {
		t.Errorf("thumbnail missing: %v", err)
	}
}

// TestDurableRebootKeepsRunsOnTheWallClock: a live deployment stamps its
// runs with the wall clock, so a deployment reopened on the same durable
// directory journals runs after — never before — the previous boot's, and
// a state's engine-side and provider-side stamps read on one clock.
func TestDurableRebootKeepsRunsOnTheWallClock(t *testing.T) {
	instrument, durableDir := t.TempDir(), t.TempDir()
	writeHyperspectralFile(t, instrument, "hs.emdg")
	boot := func() flows.RunRecord {
		t.Helper()
		dep, err := NewLiveDeployment(LiveOptions{
			InstrumentRoot: instrument, EagleRoot: t.TempDir(), OutDir: t.TempDir(), DurableDir: durableDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer dep.Close()
		rec, err := dep.RunFile("hyperspectral", "hs.emdg")
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	first := boot()
	second := boot()
	if second.StartedAt.Before(first.EndedAt) {
		t.Errorf("second boot's run started %v, before the first boot's ended %v", second.StartedAt, first.EndedAt)
	}
	if off := time.Since(second.StartedAt); off < 0 || off > 30*time.Second {
		t.Errorf("run stamped %v, %v away from the wall clock", second.StartedAt, off)
	}
	for _, st := range second.States {
		if d := st.Started.Sub(st.EnteredAt); d < -time.Second || d > time.Second {
			t.Errorf("state %s: engine entered %v, provider started %v — two clocks", st.Name, st.EnteredAt, st.Started)
		}
	}
}
