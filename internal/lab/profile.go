// Package lab is the laboratory side of the tree: everything that
// evaluates the production assembly (internal/core) instead of being it.
// It holds the discrete-event experiment harness that regenerates the
// paper's evaluation (Table 1 and Fig 4) with its calibrated deployment
// profile, the simulated movers and executors it runs on (SimMover,
// SchedExecutor), the placement wrapper only multi-facility deployments
// construct, and the wire campaign over localhost daemons. The simulated
// harness is federated (RunFederatedExperiment): N facilities share the
// flow load through queue-wait-aware placement with sticky runs, failover
// and re-stage accounting, and RunExperiment is its bit-identical N=1
// degenerate case. Only picoprobe-experiment and picoprobe-portal link
// this package; picoprobe-watch and picoprobe-facilityd must not
// (`make depcheck`).
package lab

import "time"

// Profile holds the deployment calibration: the constants that stand in
// for the physical facility. Values are fitted to the paper's own
// measurements (Table 1 and Fig 4); DESIGN.md §4 documents the fit. They
// are deliberately centralized so the ablation benchmarks can perturb one
// knob at a time.
type Profile struct {
	// --- network ---

	// SiteSwitchBps is the user machines' shared switch (paper: 1 Gbps
	// today, with upgrades toward the 200 Gbps lab backbone underway).
	SiteSwitchBps float64
	// BackboneBps is the laboratory backbone toward ALCF.
	BackboneBps float64
	// EagleIngestBps is the Eagle filesystem ingest capacity.
	EagleIngestBps float64
	// StreamCapBps is the effective per-transfer throughput (single
	// GridFTP session over the shared infrastructure). Fitted from the
	// paper's medians: 91 MB ≈ 11 s and 1200 MB ≈ 125 s of transfer time.
	StreamCapBps float64
	// TransferSetup is per-task fixed cost (endpoint activation, listing,
	// session establishment), counted as active transfer time.
	TransferSetup time.Duration

	// --- compute (Polaris via PBS) ---

	// PolarisNodes bounds the compute endpoint's node pool.
	PolarisNodes int
	// ProvisionDelay is the PBS queue wait plus node startup paid by cold
	// nodes (the paper's first-flow penalty).
	ProvisionDelay time.Duration
	// CacheWarmup is the per-node, per-environment Python-library cache
	// cost the paper attributes to the first flows.
	CacheWarmup time.Duration
	// NodeIdleTimeout releases idle nodes (longer than the flow start
	// period, so steady-state flows reuse warm nodes).
	NodeIdleTimeout time.Duration

	// --- analysis cost models ---

	// AnalysisBase is fixed per-invocation cost (interpreter start,
	// imports on a warm cache).
	AnalysisBase time.Duration
	// HyperspectralBps is the effective processing rate of the fused
	// hyperspectral analysis+metadata function (bytes of EMD per second).
	HyperspectralBps float64
	// SpatiotemporalBps is the effective processing rate of the
	// spatiotemporal function; it is lower because the fp64→uint8 cast
	// and video encode dominate (the paper's stated bottleneck).
	SpatiotemporalBps float64
	// MetadataOnly is the cost of a standalone metadata-extraction pass
	// (used by the fused-vs-split ablation; it re-reads the EMD file).
	MetadataOnlyBps float64
	// ThumbnailBps is the processing rate of the lightweight thumbnail
	// render that the fan-out flow runs concurrently with the full
	// analysis (it reads the file once and renders one small image).
	ThumbnailBps float64
	// PublishCost is the search-ingest action's service-side time.
	PublishCost time.Duration

	// --- federation (multi-facility placement) ---

	// InterFacilityBps is the effective facility-to-facility transfer rate
	// used to charge re-staging when a run fails over after its data
	// landed elsewhere (an ESnet-class path shared with production
	// traffic, so well below the 200 Gbps backbone).
	InterFacilityBps float64

	// --- orchestration ---

	// StateOverhead is per-state flow-service cost (state evaluation,
	// auth, action-invocation round trips).
	StateOverhead time.Duration
	// StatusLatency is the service round trip added to each status poll.
	StatusLatency time.Duration

	// --- data generation app (Sec 3.3's periodic copy application) ---

	// StagingBps is the user-machine disk/share rate at which the copy
	// application stages a file into the watched transfer directory.
	StagingBps float64
	// CycleFixed is the fixed per-cycle cost (watcher poll + settle
	// detection + flow-start API round trips). Together with StagingBps it
	// reproduces the paper's observed inter-start gaps (3600 s/72 runs =
	// 50 s against the 30 s nominal period; 3600/18 = 200 s against 120).
	CycleFixed time.Duration

	// --- stochastic realism ---

	// TransferJitter and ComputeJitter are the relative half-widths of the
	// deterministic per-run perturbations applied to transfer rate and
	// compute cost (real deployments show run-to-run spread; the paper's
	// min/mean/max rows quantify it).
	TransferJitter float64
	ComputeJitter  float64
	// JitterSeed drives the perturbation sequence.
	JitterSeed int64
}

// DefaultProfile returns the paper-calibrated deployment.
func DefaultProfile() Profile {
	return Profile{
		SiteSwitchBps:  1e9,   // 1 Gbps user-machine switch (Sec 2.1)
		BackboneBps:    200e9, // 200 Gbps ANL backbone (Sec 2.1)
		EagleIngestBps: 800e9, // O(100PB) Lustre ingest, effectively unconstrained here
		StreamCapBps:   82e6,
		TransferSetup:  2 * time.Second,

		PolarisNodes:    2,
		ProvisionDelay:  45 * time.Second,
		CacheWarmup:     30 * time.Second,
		NodeIdleTimeout: 10 * time.Minute,

		AnalysisBase:      2 * time.Second,
		HyperspectralBps:  20e6,
		SpatiotemporalBps: 28e6,
		MetadataOnlyBps:   150e6,
		ThumbnailBps:      120e6,
		PublishCost:       time.Second,

		InterFacilityBps: 400e6,

		StateOverhead: 4500 * time.Millisecond,
		StatusLatency: 100 * time.Millisecond,

		StagingBps: 18.5e6,
		CycleFixed: 15 * time.Second,

		TransferJitter: 0.03,
		ComputeJitter:  0.10,
		JitterSeed:     1,
	}
}

// HyperspectralFileBytes is the paper's hyperspectral EMD file size
// (Table 1: 91 MB).
const HyperspectralFileBytes = 91_000_000

// SpatiotemporalFileBytes is the paper's spatiotemporal EMD file size
// (Table 1: 1200 MB).
const SpatiotemporalFileBytes = 1_200_000_000
