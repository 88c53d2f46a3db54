// Package picoprobe is the public API of the PicoProbe data-flow library —
// a from-scratch Go reproduction of "Linking the Dynamic PicoProbe
// Analytical Electron-Optical Beam Line / Microscope to Supercomputers"
// (SC 2023).
//
// The library provides, end to end, the architecture the paper describes:
// a watcher that triggers flows when the instrument writes EMD files,
// coalescing bursts into multi-file batches under a bytes-in-flight
// budget; a managed transfer service that moves them to a storage
// endpoint as a chunked, resumable, multi-stream pipeline (per-chunk
// SHA-256 that no option turns off and the facility daemon re-checks at
// the door, manifest-based resume, O(remaining chunks) retries); a
// federated compute service that runs the fused analysis+metadata
// functions on batch-scheduled nodes; a search index and portal that make
// the results FAIR; and a flow-orchestration engine that drives the
// stages with the polling-backoff client whose overhead the paper
// measures.
//
// Flows are typed DAGs: states declare explicit After dependencies,
// independent states run concurrently with fan-in of results, and
// params/results move through generics-based typed providers instead of
// hand-cast maps. The paper's straight-line flows are built with
// FlowDefinition.Linear, while DAG shapes —
// like the fan-out example's Transfer → {Analysis ∥ Thumbnail} →
// Publication — overlap their states on the facility. Completion
// detection is batched engine-wide: one poll sweep services every due
// action across all runs per tick, so thousands of concurrent runs cost
// wake-ups proportional to distinct poll instants, not runs.
//
// Two execution modes share all orchestration code:
//
//   - Live mode (NewLiveDeployment) moves real files, runs the real
//     analysis code (intensity maps, spectra, nanoYOLO detection,
//     MJPEG-AVI conversion) and serves a real portal.
//   - Simulation mode (RunExperiment) reproduces the paper's 1-hour
//     facility evaluations in milliseconds on a deterministic
//     discrete-event kernel with a calibrated deployment profile,
//     regenerating Table 1 and Fig 4.
//
// The simulated deployment is federated (RunFederatedExperiment): N
// facilities, each with its own batch-scheduled node pool and network
// path, share the flow load through queue-wait-aware least-estimated-
// completion-time placement with sticky runs, outage/budget failover and
// re-stage accounting. RunExperiment is the N=1 degenerate case, so the
// paper reproductions run through the identical placement machinery.
//
// The live analysis functions run on a streaming zero-copy data plane
// sized for detector-rate ingest: EMD datasets are consumed one stored
// chunk at a time (emd.Dataset.Chunks / ReadFramesInto decode into pooled
// buffers), the hyperspectral reductions are fused into a single
// chunk-parallel pass, spatiotemporal inference is a bounded worker
// pipeline (read → cast → detect → annotate → JPEG-encode) with
// order-preserving output, and the AVI writer flushes frames incrementally
// to seekable destinations — so memory stays bounded by chunk size, not
// file size, and no per-frame hot loop allocates. See BENCHMARKS.md for
// how these paths are measured against the paper's bottleneck analysis.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package picoprobe

import (
	"picoprobe/internal/core"
	"picoprobe/internal/detect"
	"picoprobe/internal/flows"
	"picoprobe/internal/lab"
	"picoprobe/internal/metadata"
	"picoprobe/internal/synth"
)

// Laboratory (internal/lab) — deployment profile and experiment harness
// (simulation mode).
type (
	// Profile holds the facility calibration constants (network rates,
	// PBS delays, analysis cost models, orchestration overheads).
	Profile = lab.Profile
	// ExperimentConfig parameterizes one simulated 1-hour evaluation.
	ExperimentConfig = lab.ExperimentConfig
	// ExperimentResult carries the run records and aggregations.
	ExperimentResult = lab.ExperimentResult
	// Table1Row is one column of the paper's Table 1.
	Table1Row = lab.Table1Row
	// StageRow is one bar group of the paper's Fig 4.
	StageRow = lab.StageRow
)

// Laboratory (internal/lab) — federation (multi-facility placement).
type (
	// FacilitySpec describes one simulated facility of a federation.
	FacilitySpec = lab.FacilitySpec
	// FederatedConfig parameterizes a federated evaluation run.
	FederatedConfig = lab.FederatedConfig
	// FederatedResult carries run records plus placement telemetry.
	FederatedResult = lab.FederatedResult
)

// Production (internal/core) — live deployment (real files, real
// analysis).
type (
	// LiveOptions configures an in-process live deployment.
	LiveOptions = core.LiveOptions
	// LiveDeployment is a fully wired live pipeline.
	LiveDeployment = core.LiveDeployment
	// AnalysisOutput is the product set of one analysis invocation.
	AnalysisOutput = core.AnalysisOutput
)

// Synthetic instrument and detector.
type (
	// HyperspectralConfig parameterizes synthetic hyperspectral cubes.
	HyperspectralConfig = synth.HyperspectralConfig
	// SpatiotemporalConfig parameterizes synthetic nanoparticle series.
	SpatiotemporalConfig = synth.SpatiotemporalConfig
	// DetectorParams are nanoYOLO's tunables.
	DetectorParams = detect.Params
	// Experiment is the DataCite-flavoured metadata record.
	Experiment = metadata.Experiment
)

// Flow orchestration (the typed DAG API).
type (
	// FlowDefinition is a named DAG of action states; it runs exactly the
	// dependencies it declares (Linear chains an ordered list).
	FlowDefinition = flows.Definition
	// FlowState is one node of a flow definition, with per-state policy,
	// timeout and retry overrides.
	FlowState = flows.StateDef
	// RunRecord is the full timing account of one flow run.
	RunRecord = flows.RunRecord
	// StateRecord is the engine's timing account of one executed state
	// (the paper's Fig 4 active-vs-overhead decomposition inputs).
	StateRecord = flows.StateRecord
	// FlowPollStats is the engine's completion-detection effort.
	FlowPollStats = flows.PollStats
)

// Backoff policies for the flows engine (the paper's exponential default
// plus the ablation alternatives).
type (
	// ExponentialBackoff is the paper's deployed policy.
	ExponentialBackoff = flows.Exponential
	// ConstantBackoff polls at a fixed interval.
	ConstantBackoff = flows.Constant
	// LinearBackoff grows the interval linearly.
	LinearBackoff = flows.Linear
	// PushPolicy idealizes event-driven completion notification.
	PushPolicy = flows.Push
)

// DefaultProfile returns the paper-calibrated deployment profile.
func DefaultProfile() Profile { return lab.DefaultProfile() }

// HyperspectralExperiment returns the paper's hyperspectral Table 1
// configuration (30 s start period, 91 MB files, 1 hour).
func HyperspectralExperiment() ExperimentConfig { return lab.HyperspectralExperiment() }

// SpatiotemporalExperiment returns the paper's spatiotemporal Table 1
// configuration (120 s start period, 1200 MB files, 1 hour).
func SpatiotemporalExperiment() ExperimentConfig { return lab.SpatiotemporalExperiment() }

// RunExperiment executes one simulated evaluation run; a full virtual hour
// completes in milliseconds and is fully deterministic.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	return lab.RunExperiment(cfg)
}

// RunFederatedExperiment executes a simulated evaluation across N
// facilities with queue-wait-aware placement and failover; N=1 matches
// RunExperiment bit for bit.
func RunFederatedExperiment(cfg FederatedConfig) (*FederatedResult, error) {
	return lab.RunFederatedExperiment(cfg)
}

// FederatedScenario returns the showcase federated configuration: three
// asymmetric facilities with a mid-experiment outage of the primary.
func FederatedScenario() FederatedConfig { return lab.FederatedScenario() }

// DefaultFederationSpecs returns the first n stock simulated facilities.
func DefaultFederationSpecs(n int) []FacilitySpec { return lab.DefaultFederationSpecs(n) }

// FederationContentionScenario returns the queue-wait benchmark workload
// (pin=true gives the pinned single-backend baseline over the same
// facilities).
func FederationContentionScenario(pin bool) FederatedConfig {
	return lab.FederationContentionScenario(pin)
}

// FormatFacilities renders a federated result's per-facility summary.
func FormatFacilities(res *FederatedResult) string { return lab.FormatFacilities(res) }

// FormatTable1 renders experiment rows the way the paper's Table 1 does.
func FormatTable1(rows ...Table1Row) string { return lab.FormatTable1(rows...) }

// FormatStages renders a per-step decomposition like the paper's Fig 4.
func FormatStages(label string, stages []StageRow) string { return lab.FormatStages(label, stages) }

// PaperTable1Hyperspectral and PaperTable1Spatiotemporal are the published
// Table 1 values, for side-by-side comparison.
var (
	PaperTable1Hyperspectral  = lab.PaperTable1Hyperspectral
	PaperTable1Spatiotemporal = lab.PaperTable1Spatiotemporal
)

// NewLiveDeployment wires a live in-process deployment against local
// directories.
func NewLiveDeployment(opts LiveOptions) (*LiveDeployment, error) {
	return core.NewLiveDeployment(opts)
}

// AnalyzeHyperspectral runs the fused hyperspectral analysis+metadata
// function on an EMD file, writing Fig 2's artifacts into outDir.
func AnalyzeHyperspectral(emdPath, outDir string) (*AnalysisOutput, error) {
	return core.AnalyzeHyperspectral(emdPath, outDir)
}

// AnalyzeSpatiotemporal runs the fused spatiotemporal inference function
// (video conversion + nanoYOLO detection + annotation) on an EMD file.
func AnalyzeSpatiotemporal(emdPath, outDir string, params DetectorParams) (*AnalysisOutput, error) {
	return core.AnalyzeSpatiotemporal(emdPath, outDir, params)
}

// DefaultDetectorParams returns nanoYOLO's uncalibrated defaults.
func DefaultDetectorParams() DetectorParams { return detect.DefaultParams() }
