package core_test

import (
	"strings"
	"testing"
	"time"

	"picoprobe/internal/flows"
	"picoprobe/internal/lab"
)

func TestRunExperimentValidation(t *testing.T) {
	if _, err := lab.RunExperiment(lab.ExperimentConfig{Kind: "bogus"}); err == nil {
		t.Error("bogus kind accepted")
	}
	cfg := lab.HyperspectralExperiment()
	cfg.Duration = 0
	if _, err := lab.RunExperiment(cfg); err == nil {
		t.Error("zero duration accepted")
	}
}

// shortExperiment shrinks the window so unit tests stay fast while the
// full 1-hour runs live in the benchmarks.
func shortExperiment(base lab.ExperimentConfig, d time.Duration) lab.ExperimentConfig {
	base.Duration = d
	return base
}

func TestExperimentShapeHyperspectral(t *testing.T) {
	res, err := lab.RunExperiment(lab.HyperspectralExperiment())
	if err != nil {
		t.Fatal(err)
	}
	row := res.Table1()
	paper := lab.PaperTable1Hyperspectral
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
	res, err := lab.RunExperiment(lab.SpatiotemporalExperiment())
	if err != nil {
		t.Fatal(err)
	}
	row := res.Table1()
	paper := lab.PaperTable1Spatiotemporal
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
	if row.MedianOverheadPct >= lab.PaperTable1Hyperspectral.MedianOverheadPct {
		t.Errorf("spatiotemporal overhead pct %.1f should be below hyperspectral's ~49%%", row.MedianOverheadPct)
	}
}

func TestExperimentDeterministic(t *testing.T) {
	cfg := shortExperiment(lab.HyperspectralExperiment(), 10*time.Minute)
	a, err := lab.RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lab.RunExperiment(cfg)
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
	cfg := shortExperiment(lab.HyperspectralExperiment(), 15*time.Minute)
	base, err := lab.RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = flows.Push{Latency: 100 * time.Millisecond}
	push, err := lab.RunExperiment(cfg)
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
	cfg := shortExperiment(lab.HyperspectralExperiment(), 15*time.Minute)
	fused, err := lab.RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SplitCompute = true
	split, err := lab.RunExperiment(cfg)
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
	cfg := shortExperiment(lab.HyperspectralExperiment(), 15*time.Minute)
	reuse, err := lab.RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisableNodeReuse = true
	cold, err := lab.RunExperiment(cfg)
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
	res, err := lab.RunExperiment(shortExperiment(lab.HyperspectralExperiment(), 5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	table := lab.FormatTable1(res.Table1(), lab.PaperTable1Hyperspectral)
	for _, want := range []string{"Start period", "Median overhead", "Total flow runs"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	stageText := lab.FormatStages("hyperspectral", res.Stages())
	for _, want := range []string{"Transfer", "Analysis", "Publication"} {
		if !strings.Contains(stageText, want) {
			t.Errorf("stages missing %q:\n%s", want, stageText)
		}
	}
}

func TestAblationCompressionReducesTransferTime(t *testing.T) {
	cfg := shortExperiment(lab.SpatiotemporalExperiment(), 15*time.Minute)
	base, err := lab.RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CompressionRatio = 0.25
	compressed, err := lab.RunExperiment(cfg)
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
	cfg := shortExperiment(lab.SpatiotemporalExperiment(), 15*time.Minute)
	one, err := lab.RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ParallelStreams = 4
	four, err := lab.RunExperiment(cfg)
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
	cfg := shortExperiment(lab.HyperspectralExperiment(), 15*time.Minute)
	cfg.FanOut = true
	res, err := lab.RunExperiment(cfg)
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
	base, err := lab.RunExperiment(line)
	if err != nil {
		t.Fatal(err)
	}
	if fo, lin := res.Table1(), base.Table1(); fo.MeanRuntimeS >= lin.MeanRuntimeS+5 {
		t.Errorf("fan-out mean %.1fs much slower than linear %.1fs", fo.MeanRuntimeS, lin.MeanRuntimeS)
	}
}
