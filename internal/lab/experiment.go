package lab

import (
	"fmt"
	"math/rand"
	"time"

	"picoprobe/internal/core"
	"picoprobe/internal/flows"
	"picoprobe/internal/scheduler"
	"picoprobe/internal/stats"
)

// ExperimentConfig parameterizes one simulated 1-hour evaluation run (the
// paper's Sec 3.3 protocol: an application periodically copies a file into
// the instrument's transfer directory, and each settled file starts a
// flow).
type ExperimentConfig struct {
	// Kind selects the flow: metadata.KindHyperspectral or
	// metadata.KindSpatiotemporal.
	Kind string
	// Duration is the experiment window during which new flows start.
	Duration time.Duration
	// StartPeriod is the nominal sleep between generation cycles (paper:
	// 30 s hyperspectral, 120 s spatiotemporal).
	StartPeriod time.Duration
	// FileBytes is the staged file size (paper: 91 MB / 1200 MB).
	FileBytes int64
	// Profile is the deployment calibration.
	Profile Profile
	// Policy overrides the polling backoff (default: the paper's
	// exponential policy).
	Policy flows.Policy
	// SplitCompute runs metadata extraction and image processing as two
	// compute states instead of the paper's fused single function
	// (ablation).
	SplitCompute bool
	// FanOut runs the DAG flow instead of the paper's straight line:
	// Transfer → {Analysis ∥ Thumbnail} → Publication, the overlap shape
	// the v1 ordered-list API could not express. Incompatible with
	// SplitCompute.
	FanOut bool
	// DisableNodeReuse releases compute nodes after every task (ablation).
	DisableNodeReuse bool
	// CompressionRatio enables on-instrument compression before transfer
	// (the paper's future-work item 2): the staged file shrinks to
	// bytes*ratio on the wire at the cost of a compression pass on the
	// user machine. 0 disables compression.
	CompressionRatio float64
	// ParallelStreams splits each transfer across this many GridFTP-style
	// streams (the paper's future-work item 3). 0 means 1.
	ParallelStreams int
	// TransferChunkBytes switches transfers to chunked framing: each task
	// becomes a flat list of fixed-size chunks pipelined through a window
	// of ParallelStreams concurrent flows, with chunk-level resume on
	// retry (the ingest data plane, DESIGN.md §8). 0 keeps whole-file
	// framing — the configuration the Table 1 reproductions pin.
	TransferChunkBytes int64
}

// HyperspectralExperiment returns the paper's hyperspectral Table 1
// configuration.
func HyperspectralExperiment() ExperimentConfig {
	return ExperimentConfig{
		Kind:        "hyperspectral",
		Duration:    time.Hour,
		StartPeriod: 30 * time.Second,
		FileBytes:   HyperspectralFileBytes,
		Profile:     DefaultProfile(),
	}
}

// SpatiotemporalExperiment returns the paper's spatiotemporal Table 1
// configuration.
func SpatiotemporalExperiment() ExperimentConfig {
	return ExperimentConfig{
		Kind:        "spatiotemporal",
		Duration:    time.Hour,
		StartPeriod: 120 * time.Second,
		FileBytes:   SpatiotemporalFileBytes,
		Profile:     DefaultProfile(),
	}
}

// ExperimentResult is the outcome of a simulated evaluation run.
type ExperimentResult struct {
	Config ExperimentConfig
	// Runs are the completed flow records in start order.
	Runs []flows.RunRecord
	// IndexedRecords is how many records the search index holds afterward.
	IndexedRecords int
	// SchedulerStats summarizes node provisioning activity.
	SchedulerStats scheduler.Stats
	// PollStats is the engine's completion-detection effort (batched
	// sweeps vs status round trips).
	PollStats flows.PollStats
}

// Table1Row is one column of the paper's Table 1.
type Table1Row struct {
	Label             string
	StartPeriodS      float64
	TransferVolumeMB  float64
	TotalDataGB       float64
	MinRuntimeS       float64
	MeanRuntimeS      float64
	MaxRuntimeS       float64
	MedianOverheadS   float64
	MedianOverheadPct float64
	TotalRuns         int
}

// Table1 aggregates the run records into the paper's Table 1 metrics.
func (r *ExperimentResult) Table1() Table1Row {
	runtimes := stats.NewDurationStats()
	overheads := stats.NewDurationStats()
	totals := stats.NewDurationStats()
	var bytes int64
	for _, run := range r.Runs {
		if run.Status != flows.StateSucceeded {
			continue
		}
		runtimes.Add(run.Runtime())
		overheads.Add(run.TotalOverhead())
		totals.Add(run.Runtime())
		bytes += r.Config.FileBytes
	}
	row := Table1Row{
		Label:            r.Config.Kind,
		StartPeriodS:     r.Config.StartPeriod.Seconds(),
		TransferVolumeMB: float64(r.Config.FileBytes) / 1e6,
		TotalDataGB:      float64(bytes) / 1e9,
		MinRuntimeS:      runtimes.Min().Seconds(),
		MeanRuntimeS:     runtimes.Mean().Seconds(),
		MaxRuntimeS:      runtimes.Max().Seconds(),
		MedianOverheadS:  overheads.Median().Seconds(),
		TotalRuns:        runtimes.Count(),
	}
	if med := totals.Median().Seconds(); med > 0 {
		row.MedianOverheadPct = row.MedianOverheadS / med * 100
	}
	return row
}

// StageRow summarizes one flow step across runs (the paper's Fig 4 bars).
type StageRow struct {
	Name                               string
	ActiveMinS, ActiveMedS, ActiveMaxS float64
	OverheadMedS                       float64
	MeanPolls                          float64
}

// Stages returns the per-step active/overhead decomposition plus a total
// row, in flow order.
func (r *ExperimentResult) Stages() []StageRow {
	type acc struct {
		active   stats.DurationStats
		overhead stats.DurationStats
		polls    int
		n        int
	}
	var order []string
	byName := map[string]*acc{}
	for _, run := range r.Runs {
		if run.Status != flows.StateSucceeded {
			continue
		}
		for _, st := range run.States {
			a := byName[st.Name]
			if a == nil {
				a = &acc{active: stats.NewDurationStats(), overhead: stats.NewDurationStats()}
				byName[st.Name] = a
				order = append(order, st.Name)
			}
			a.active.Add(st.Active())
			a.overhead.Add(st.Overhead())
			a.polls += st.Polls
			a.n++
		}
	}
	var out []StageRow
	for _, name := range order {
		a := byName[name]
		out = append(out, StageRow{
			Name:         name,
			ActiveMinS:   a.active.Min().Seconds(),
			ActiveMedS:   a.active.Median().Seconds(),
			ActiveMaxS:   a.active.Max().Seconds(),
			OverheadMedS: a.overhead.Median().Seconds(),
			MeanPolls:    float64(a.polls) / float64(a.n),
		})
	}
	return out
}

// jitterSource yields deterministic multiplicative perturbations in
// [1-width, 1+width].
type jitterSource struct {
	rng   *rand.Rand
	width float64
}

func (j *jitterSource) factor() float64 {
	if j.width <= 0 {
		return 1
	}
	return 1 + (j.rng.Float64()*2-1)*j.width
}

// RunExperiment executes one simulated evaluation run and returns its
// records. The entire virtual hour completes in milliseconds of real
// time. It is the N=1 degenerate case of the federation harness: the
// federated experiment with exactly the paper's single facility produces
// a bit-identical event timeline (same run counts, per-run runtimes and
// per-state timings), so the Table 1 / Fig 4 reproductions are served by
// the same code path that scales to multi-facility placement.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	res, err := RunFederatedExperiment(FederatedConfig{
		ExperimentConfig: cfg,
		Facilities:       DefaultFederationSpecs(1),
	})
	if err != nil {
		return nil, err
	}
	return &res.ExperimentResult, nil
}

// simPublishState is the shared Data Publication step.
func simPublishState(kind string, after ...string) flows.StateDef {
	return flows.StateDef{
		Name:     "Publication",
		Provider: "search",
		After:    after,
		Params: func(input map[string]any, _ flows.Results) map[string]any {
			entry := fmt.Sprintf(`{"id":"sim-%s-%v","text":"%s simulated run","date":%q,"fields":{"kind":%q}}`,
				kind, input["run_idx"], kind, input["started"], kind)
			return flows.Pack(core.SearchParams{EntryJSON: entry})
		},
	}
}
