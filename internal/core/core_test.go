package core

import (
	"os"
	"path/filepath"
	"strings"
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

func TestRunExperimentValidation(t *testing.T) {
	if _, err := RunExperiment(ExperimentConfig{Kind: "bogus"}); err == nil {
		t.Error("bogus kind accepted")
	}
	cfg := HyperspectralExperiment()
	cfg.Duration = 0
	if _, err := RunExperiment(cfg); err == nil {
		t.Error("zero duration accepted")
	}
}

// shortExperiment shrinks the window so unit tests stay fast while the
// full 1-hour runs live in the benchmarks.
func shortExperiment(base ExperimentConfig, d time.Duration) ExperimentConfig {
	base.Duration = d
	return base
}

func TestExperimentShapeHyperspectral(t *testing.T) {
	res, err := RunExperiment(HyperspectralExperiment())
	if err != nil {
		t.Fatal(err)
	}
	row := res.Table1()
	paper := PaperTable1Hyperspectral
	// Exact protocol-derived values.
	if row.TotalRuns != paper.TotalRuns {
		t.Errorf("total runs = %d, paper %d", row.TotalRuns, paper.TotalRuns)
	}
	// Shape bands (±30% of the paper's measurements).
	within := func(name string, got, want, tol float64) {
		if got < want*(1-tol) || got > want*(1+tol) {
			t.Errorf("%s = %.1f, paper %.1f (tolerance %.0f%%)", name, got, want, tol*100)
		}
	}
	within("median overhead s", row.MedianOverheadS, paper.MedianOverheadS, 0.30)
	within("median overhead pct", row.MedianOverheadPct, paper.MedianOverheadPct, 0.30)
	within("mean runtime", row.MeanRuntimeS, paper.MeanRuntimeS, 0.30)
	within("max runtime", row.MaxRuntimeS, paper.MaxRuntimeS, 0.30)
	within("total GB", row.TotalDataGB, paper.TotalDataGB, 0.10)
	// Ordering claims: the max (first flows, provisioning) must far exceed
	// the mean, and overhead must be roughly half the median runtime.
	if row.MaxRuntimeS < 2*row.MeanRuntimeS {
		t.Errorf("first-flow penalty missing: max %.0f vs mean %.0f", row.MaxRuntimeS, row.MeanRuntimeS)
	}
	// Transfer dominates active time.
	stages := res.Stages()
	if stages[0].Name != "Transfer" || stages[0].ActiveMedS < stages[1].ActiveMedS {
		t.Errorf("transfer does not dominate: %+v", stages)
	}
	if res.IndexedRecords != row.TotalRuns {
		t.Errorf("indexed %d records for %d runs", res.IndexedRecords, row.TotalRuns)
	}
}

func TestExperimentShapeSpatiotemporal(t *testing.T) {
	res, err := RunExperiment(SpatiotemporalExperiment())
	if err != nil {
		t.Fatal(err)
	}
	row := res.Table1()
	paper := PaperTable1Spatiotemporal
	if row.TotalRuns != paper.TotalRuns {
		t.Errorf("total runs = %d, paper %d", row.TotalRuns, paper.TotalRuns)
	}
	within := func(name string, got, want, tol float64) {
		if got < want*(1-tol) || got > want*(1+tol) {
			t.Errorf("%s = %.1f, paper %.1f (tolerance %.0f%%)", name, got, want, tol*100)
		}
	}
	within("median overhead s", row.MedianOverheadS, paper.MedianOverheadS, 0.30)
	within("median overhead pct", row.MedianOverheadPct, paper.MedianOverheadPct, 0.30)
	within("mean runtime", row.MeanRuntimeS, paper.MeanRuntimeS, 0.15)
	within("min runtime", row.MinRuntimeS, paper.MinRuntimeS, 0.15)
	within("max runtime", row.MaxRuntimeS, paper.MaxRuntimeS, 0.15)
	// The big-file flow's overhead share must be well below the
	// small-file flow's (the paper's central Fig 4 contrast).
	if row.MedianOverheadPct >= PaperTable1Hyperspectral.MedianOverheadPct {
		t.Errorf("spatiotemporal overhead pct %.1f should be below hyperspectral's ~49%%", row.MedianOverheadPct)
	}
}

func TestExperimentDeterministic(t *testing.T) {
	cfg := shortExperiment(HyperspectralExperiment(), 10*time.Minute)
	a, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs) != len(b.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(a.Runs), len(b.Runs))
	}
	for i := range a.Runs {
		if a.Runs[i].Runtime() != b.Runs[i].Runtime() {
			t.Fatalf("run %d runtime differs: %v vs %v", i, a.Runs[i].Runtime(), b.Runs[i].Runtime())
		}
	}
}

func TestAblationPushPolicyRemovesOverhead(t *testing.T) {
	cfg := shortExperiment(HyperspectralExperiment(), 15*time.Minute)
	base, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = flows.Push{Latency: 100 * time.Millisecond}
	push, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, p := base.Table1(), push.Table1()
	// Push eliminates detection lag; only the modeled state overhead
	// remains, so overhead must drop sharply.
	if p.MedianOverheadS > b.MedianOverheadS*0.85 {
		t.Errorf("push overhead %.1fs not much below exponential %.1fs", p.MedianOverheadS, b.MedianOverheadS)
	}
	if p.MeanRuntimeS >= b.MeanRuntimeS {
		t.Errorf("push mean runtime %.1f should beat exponential %.1f", p.MeanRuntimeS, b.MeanRuntimeS)
	}
}

func TestAblationSplitComputeCostsMore(t *testing.T) {
	cfg := shortExperiment(HyperspectralExperiment(), 15*time.Minute)
	fused, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SplitCompute = true
	split, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, s := fused.Table1(), split.Table1()
	if s.MeanRuntimeS <= f.MeanRuntimeS {
		t.Errorf("split mean %.1f should exceed fused %.1f", s.MeanRuntimeS, f.MeanRuntimeS)
	}
	// The split flow has four states.
	if got := len(split.Runs[0].States); got != 4 {
		t.Errorf("split flow states = %d", got)
	}
}

func TestAblationNoNodeReuse(t *testing.T) {
	cfg := shortExperiment(HyperspectralExperiment(), 15*time.Minute)
	reuse, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisableNodeReuse = true
	cold, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, c := reuse.Table1(), cold.Table1()
	if c.MeanRuntimeS <= r.MeanRuntimeS*1.5 {
		t.Errorf("no-reuse mean %.1f should far exceed reuse %.1f", c.MeanRuntimeS, r.MeanRuntimeS)
	}
	if cold.SchedulerStats.Provisions <= reuse.SchedulerStats.Provisions {
		t.Errorf("no-reuse provisions %d should exceed reuse %d",
			cold.SchedulerStats.Provisions, reuse.SchedulerStats.Provisions)
	}
}

func TestFormatters(t *testing.T) {
	res, err := RunExperiment(shortExperiment(HyperspectralExperiment(), 5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	table := FormatTable1(res.Table1(), PaperTable1Hyperspectral)
	for _, want := range []string{"Start period", "Median overhead", "Total flow runs"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	stageText := FormatStages("hyperspectral", res.Stages())
	for _, want := range []string{"Transfer", "Analysis", "Publication"} {
		if !strings.Contains(stageText, want) {
			t.Errorf("stages missing %q:\n%s", want, stageText)
		}
	}
}

func TestAblationCompressionReducesTransferTime(t *testing.T) {
	cfg := shortExperiment(SpatiotemporalExperiment(), 15*time.Minute)
	base, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CompressionRatio = 0.25
	compressed, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, c := base.Table1(), compressed.Table1()
	if c.MeanRuntimeS >= b.MeanRuntimeS {
		t.Errorf("compressed mean %.1f should beat uncompressed %.1f", c.MeanRuntimeS, b.MeanRuntimeS)
	}
	// The compression pass lengthens the generation cycle, so the window
	// fits no more flows than before.
	if c.TotalRuns > b.TotalRuns {
		t.Errorf("compression should not increase runs: %d vs %d", c.TotalRuns, b.TotalRuns)
	}
}

func TestAblationParallelStreamsSpeedTransfer(t *testing.T) {
	cfg := shortExperiment(SpatiotemporalExperiment(), 15*time.Minute)
	one, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ParallelStreams = 4
	four, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := one.Table1(), four.Table1()
	if b.MeanRuntimeS >= a.MeanRuntimeS {
		t.Errorf("4-stream mean %.1f should beat 1-stream %.1f", b.MeanRuntimeS, a.MeanRuntimeS)
	}
	// Transfer stage specifically must shrink.
	s1, s4 := one.Stages(), four.Stages()
	if s4[0].ActiveMedS >= s1[0].ActiveMedS {
		t.Errorf("4-stream transfer active %.1f should beat %.1f", s4[0].ActiveMedS, s1[0].ActiveMedS)
	}
}

// TestFanOutExperimentOverlaps is the scenario the v1 ordered-list API
// could not express, run through the full simulated facility: the
// analysis and thumbnail states execute concurrently after each transfer
// (overlap visible in the StateRecord timings) and the publication fans
// both results in.
func TestFanOutExperimentOverlaps(t *testing.T) {
	cfg := shortExperiment(HyperspectralExperiment(), 15*time.Minute)
	cfg.FanOut = true
	res, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) == 0 {
		t.Fatal("no runs")
	}
	overlapped := 0
	for _, run := range res.Runs {
		if run.Status != flows.StateSucceeded {
			t.Fatalf("run %s: %s", run.RunID, run.Error)
		}
		byName := map[string]flows.StateRecord{}
		for _, st := range run.States {
			byName[st.Name] = st
		}
		an, th, pub := byName["Analysis"], byName["Thumbnail"], byName["Publication"]
		if an.Name == "" || th.Name == "" || pub.Name == "" {
			t.Fatalf("run %s missing DAG states: %+v", run.RunID, run.States)
		}
		// Fan-out: both branches enter at the same instant, right after
		// the transfer is detected.
		if !an.EnteredAt.Equal(th.EnteredAt) {
			t.Errorf("run %s branches not concurrent: %v vs %v", run.RunID, an.EnteredAt, th.EnteredAt)
		}
		// Provider-side active windows overlap when both branches got a
		// node (2-node Polaris pool; count rather than require all).
		if an.Started.Before(th.Completed) && th.Started.Before(an.Completed) {
			overlapped++
		}
		// Fan-in: publication waits for the slower branch.
		slower := an.DetectedAt
		if th.DetectedAt.After(slower) {
			slower = th.DetectedAt
		}
		if pub.EnteredAt.Before(slower) {
			t.Errorf("run %s published before both branches: %v < %v", run.RunID, pub.EnteredAt, slower)
		}
	}
	if overlapped == 0 {
		t.Error("no run overlapped its analysis and thumbnail active windows")
	}
	// The fan-out flow must not be slower than the same work in a line.
	line := cfg
	line.FanOut = false
	base, err := RunExperiment(line)
	if err != nil {
		t.Fatal(err)
	}
	if fo, lin := res.Table1(), base.Table1(); fo.MeanRuntimeS >= lin.MeanRuntimeS+5 {
		t.Errorf("fan-out mean %.1fs much slower than linear %.1fs", fo.MeanRuntimeS, lin.MeanRuntimeS)
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
