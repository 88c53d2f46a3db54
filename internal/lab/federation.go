package lab

import (
	"fmt"
	"math/rand"
	"strings"
	"text/tabwriter"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/compute"
	"picoprobe/internal/core"
	"picoprobe/internal/facility"
	"picoprobe/internal/flows"
	"picoprobe/internal/netprobe"
	"picoprobe/internal/netsim"
	"picoprobe/internal/scheduler"
	"picoprobe/internal/search"
	"picoprobe/internal/sim"
	"picoprobe/internal/stats"
	"picoprobe/internal/transfer"
)

// The federation harness generalizes the paper's single-facility
// deployment to N simulated facilities. Each facility owns a scheduler
// pool and a network path (internal/facility); the providers below take a
// facility registry handle instead of a single global backend, so every
// flow state is placed — least-estimated-completion-time on first
// contact, sticky afterwards, with automatic failover on outages and
// queue-wait-budget violations. RunExperiment is the N=1 degenerate case:
// it delegates here with one facility and reproduces the paper's Table 1
// and Fig 4 numbers unchanged.

// FacilitySpec describes one simulated facility of a federated
// evaluation. Zero fields inherit the deployment profile's paper-fitted
// values, so DefaultFederationSpecs(1) is exactly the paper's facility.
type FacilitySpec struct {
	// ID uniquely names the facility and its transfer endpoint.
	ID string
	// Name is the display label.
	Name string
	// Nodes sizes the compute pool (0 = Profile.PolarisNodes).
	Nodes int
	// WanBps adds a dedicated wide-area link between the lab backbone and
	// the facility's ingest (0 = reached through the shared backbone
	// alone, the single-facility paper topology).
	WanBps float64
	// StreamCapBps caps per-transfer throughput toward this facility
	// (0 = Profile.StreamCapBps).
	StreamCapBps float64
	// OutageStart/OutageEnd bound a planned outage window relative to the
	// experiment start; OutageEnd <= OutageStart means no outage.
	OutageStart, OutageEnd time.Duration
	// BaseRTT is the propagation delay probes observe on this facility's
	// ingest link. It is probe-observable state only — netsim transfer
	// timelines are RTT-free — so it cannot perturb a probe-disabled run.
	BaseRTT time.Duration
	// Squalls lists time-varying degradation episodes on the facility's
	// wide-area link (the WAN link when WanBps > 0, the ingest link
	// otherwise). Unlike an outage the facility stays up: transfers crawl
	// instead of failing, which is exactly the regime quality-aware
	// shedding is for.
	Squalls []SquallSpec
}

// DefaultFederationSpecs returns the first n of the three stock simulated
// facilities: the paper's ALCF Eagle/Polaris deployment plus two remote
// facilities with asymmetric wide-area links and stream caps. n is
// clamped to [1, 3].
func DefaultFederationSpecs(n int) []FacilitySpec {
	specs := []FacilitySpec{
		{ID: core.EndpointEagle, Name: "ALCF Eagle/Polaris"},
		{ID: "olcf-orion", Name: "OLCF Orion", WanBps: 400e6, StreamCapBps: 60e6},
		{ID: "nersc-pscratch", Name: "NERSC Perlmutter", WanBps: 250e6, StreamCapBps: 40e6},
	}
	if n < 1 {
		n = 1
	}
	if n > len(specs) {
		n = len(specs)
	}
	return specs[:n]
}

// FederatedConfig parameterizes one federated evaluation run: the base
// experiment protocol plus the facility set and placement policy knobs.
type FederatedConfig struct {
	ExperimentConfig
	// Facilities lists the simulated facilities (nil = the single paper
	// facility, i.e. DefaultFederationSpecs(1)).
	Facilities []FacilitySpec
	// QueueWaitBudget triggers failover when a run's placed facility
	// accumulates a queue-wait estimate beyond it (0 = no budget
	// failover).
	QueueWaitBudget time.Duration
	// PinTo constrains every transfer and compute state to the named
	// facility — the single-implicit-backend baseline the federation
	// layer replaces, kept as an ablation.
	PinTo string
	// Probe enables link-quality probing (nil = disabled; placement and
	// timelines are then bit-identical to a build without the subsystem).
	Probe *ProbeConfig
	// TransferTimeout bounds one transfer attempt; an attempt still
	// active at the deadline fails and retries (0 = no timeout). Under a
	// squall this is what turns a crawling transfer into a visible
	// timeout instead of an unbounded stall.
	TransferTimeout time.Duration
	// TransferRetries overrides the engine's per-state retry budget for
	// the transfer state (0 inherits the default of 2).
	TransferRetries int
}

// FederatedScenario returns the showcase federated evaluation: the
// paper's hyperspectral protocol over three facilities with asymmetric
// links, a mid-experiment outage of the primary facility (minutes
// 20:30–40:00, timed so at least one run's transfer lands at the primary
// right before the window and its analysis must fail over and re-stage),
// and a five-minute queue-wait budget. See DESIGN.md §6.
func FederatedScenario() FederatedConfig {
	specs := DefaultFederationSpecs(3)
	specs[0].OutageStart, specs[0].OutageEnd = 20*time.Minute+30*time.Second, 40*time.Minute
	return FederatedConfig{
		ExperimentConfig: HyperspectralExperiment(),
		Facilities:       specs,
		QueueWaitBudget:  5 * time.Minute,
	}
}

// FederationContentionScenario returns the queue-wait benchmark workload:
// flows arrive roughly every 12 s while one analysis occupies a node for
// ~32 s, so a single pinned facility saturates (utilization ≈ 2.7) while
// queue-wait-aware placement across three symmetric single-node
// facilities keeps aggregate utilization below one. pin=true yields the
// pinned single-backend baseline over the identical facility set (equal
// total capacity).
func FederationContentionScenario(pin bool) FederatedConfig {
	base := HyperspectralExperiment()
	base.Duration = 20 * time.Minute
	base.StartPeriod = 10 * time.Second
	p := base.Profile
	p.HyperspectralBps = 3e6 // ~32 s of analysis per 91 MB file
	p.StagingBps = 1e9       // fast staging: arrivals pace at ~12 s
	p.CycleFixed = 2 * time.Second
	base.Profile = p
	specs := []FacilitySpec{
		{ID: core.EndpointEagle, Name: "ALCF Eagle/Polaris", Nodes: 1},
		{ID: "olcf-orion", Name: "OLCF Orion", Nodes: 1},
		{ID: "nersc-pscratch", Name: "NERSC Perlmutter", Nodes: 1},
	}
	cfg := FederatedConfig{ExperimentConfig: base, Facilities: specs}
	if pin {
		cfg.PinTo = specs[0].ID
	}
	return cfg
}

// FederatedDegradedScenario returns the WAN-squall evaluation: the
// contention-style workload over three symmetric two-node facilities,
// each behind its own fast wide-area link, with the primary facility's
// WAN link collapsing to ~0.4% capacity (plus loss, jitter and
// bufferbloat the probes can see) for the middle ten minutes of a
// twenty-minute run. Transfers are chunked with a two-minute per-attempt
// deadline and a deep retry budget, so a transfer caught in the squall
// times out and retries rather than stalling forever.
//
// probe=false is the static arm: placement keeps herding runs toward the
// crawling primary (its static ECT never learns about the squall), every
// such transfer burns deadline after deadline, and the backlog flushes
// into the primary's compute queue when the squall lifts — a p95
// queue-wait spike. probe=true attaches quality-aware shedding (low
// water 50) plus BDP-adaptive transfer framing: fresh runs avoid the
// degraded path within one EWMA settle, sticky runs fail over with
// ReasonFailoverDegraded, and nothing times out.
func FederatedDegradedScenario(probe bool) FederatedConfig {
	base := HyperspectralExperiment()
	base.Duration = 20 * time.Minute
	base.StartPeriod = 10 * time.Second
	p := base.Profile
	p.HyperspectralBps = 3e6 // ~32 s of analysis per 91 MB file
	p.StagingBps = 1e9       // fast staging: arrivals pace at ~12 s
	p.CycleFixed = 2 * time.Second
	base.Profile = p
	base.TransferChunkBytes = 8_000_000
	base.ParallelStreams = 2
	squall := SquallSpec{
		Start:          5 * time.Minute,
		End:            15 * time.Minute,
		Ramp:           2 * time.Minute,
		CapacityFactor: 0.004, // 1 Gbps -> 4 Mbps at peak: ~3 min per file
		Loss:           0.08,
		Jitter:         60 * time.Millisecond,
		ExtraRTT:       150 * time.Millisecond,
	}
	specs := []FacilitySpec{
		{ID: core.EndpointEagle, Name: "ALCF Eagle/Polaris", Nodes: 2, WanBps: 1e9,
			BaseRTT: 2 * time.Millisecond, Squalls: []SquallSpec{squall}},
		{ID: "olcf-orion", Name: "OLCF Orion", Nodes: 2, WanBps: 1e9,
			BaseRTT: 14 * time.Millisecond},
		{ID: "nersc-pscratch", Name: "NERSC Perlmutter", Nodes: 2, WanBps: 1e9,
			BaseRTT: 23 * time.Millisecond},
	}
	cfg := FederatedConfig{
		ExperimentConfig: base,
		Facilities:       specs,
		TransferTimeout:  2 * time.Minute,
		TransferRetries:  12,
	}
	if probe {
		cfg.Probe = &ProbeConfig{LowWater: 50, AdaptiveTransfer: true}
	}
	return cfg
}

// FederatedResult extends the experiment result with the federation
// telemetry: per-facility end-state snapshots, placement/failover
// counters, and the pooled compute queue-wait distribution.
type FederatedResult struct {
	ExperimentResult
	// Facilities are end-of-run snapshots in registration order.
	Facilities []facility.Status
	// Placement aggregates the registry's decisions and failovers.
	Placement facility.Stats
	// QueueWaitP50/P95 summarize compute queue waits pooled across all
	// facilities.
	QueueWaitP50, QueueWaitP95 time.Duration
	// TransferTimeouts counts transfer attempts that hit the per-attempt
	// deadline (Σ retries over Transfer states; 0 when no TransferTimeout
	// was configured — without a deadline a retry can only mean an
	// injected fault).
	TransferTimeouts int
	// Registry is the live federation registry, kept so portals can serve
	// /facilities from the finished run.
	Registry *facility.Registry
}

// --- federated flow definitions --------------------------------------

// fedTransferState is the Data Transfer step with registry placement; pin
// optionally constrains it to one facility, timeout bounds one attempt
// and retries overrides the engine's retry budget (0 inherits).
func fedTransferState(pin string, timeout time.Duration, retries int) flows.StateDef {
	st := core.TransferState()
	st.Facility, st.Timeout, st.Retries = pin, timeout, retries
	return st
}

// fedComputeState builds one placed compute step invoking fn on the
// staged file's (uncompressed) byte count.
func fedComputeState(name, fn, pin string, after ...string) flows.StateDef {
	return flows.StateDef{
		Name:     name,
		Provider: "compute",
		Facility: pin,
		After:    after,
		Params: func(input map[string]any, _ flows.Results) map[string]any {
			rel, _ := input["rel_path"].(string)
			bytes := input["bytes"]
			if ab, ok := input["analysis_bytes"]; ok {
				bytes = ab
			}
			// staged_bytes is what the transfer actually moved (wire
			// bytes, post-compression) — the volume a re-stage would copy.
			return core.WithPlacement(flows.Pack(core.ComputeParams{
				Function: fn,
				Args:     compute.Args{"bytes": bytes, "rel_path": rel, "staged_bytes": input["bytes"]},
			}), input)
		},
	}
}

// fedDefinition builds the simulated flow for one configuration: the
// paper's straight line, the split-compute ablation, or the fan-out DAG —
// all over placed (federated) transfer and compute states. The shapes and
// state names match the single-facility definitions exactly.
func fedDefinition(cfg FederatedConfig) flows.Definition {
	flowName, fn := core.FlowName(cfg.Kind)
	pin := cfg.PinTo
	switch {
	case cfg.FanOut:
		return flows.Definition{
			Name: flowName + "-fanout",
			States: []flows.StateDef{
				fedTransferState(pin, cfg.TransferTimeout, cfg.TransferRetries),
				fedComputeState("Analysis", fn, pin, "Transfer"),
				fedComputeState("Thumbnail", core.FnThumbnail, pin, "Transfer"),
				simPublishState(cfg.Kind, "Analysis", "Thumbnail"),
			},
		}
	case cfg.SplitCompute:
		imageFn := core.FnImageOnlyHS
		if cfg.Kind == "spatiotemporal" {
			imageFn = core.FnSpatiotemporal
		}
		return flows.Definition{
			Name: flowName + "-split",
			States: []flows.StateDef{
				fedTransferState(pin, cfg.TransferTimeout, cfg.TransferRetries),
				fedComputeState("MetadataExtraction", core.FnMetadataOnly, pin),
				fedComputeState("Analysis", imageFn, pin),
				simPublishState(cfg.Kind),
			},
		}.Linear()
	default:
		return flows.Definition{
			Name: flowName,
			States: []flows.StateDef{
				fedTransferState(pin, cfg.TransferTimeout, cfg.TransferRetries),
				fedComputeState("Analysis", fn, pin),
				simPublishState(cfg.Kind),
			},
		}.Linear()
	}
}

// --- harness ----------------------------------------------------------

// compressionBps is the user machine's compression throughput when
// CompressionRatio turns on-instrument compression on: a typical
// single-core lz-class compressor.
const compressionBps = 60e6

// RunFederatedExperiment executes one simulated federated evaluation run.
// With a single facility and no pin it is exactly the paper's deployment
// (RunExperiment delegates here); with several it exercises the placement
// policy and failover machinery. The entire virtual experiment completes
// in milliseconds of real time and is fully deterministic.
func RunFederatedExperiment(cfg FederatedConfig) (*FederatedResult, error) {
	if cfg.Kind != "hyperspectral" && cfg.Kind != "spatiotemporal" {
		return nil, fmt.Errorf("core: unknown experiment kind %q", cfg.Kind)
	}
	if cfg.Duration <= 0 || cfg.StartPeriod <= 0 || cfg.FileBytes <= 0 {
		return nil, fmt.Errorf("core: experiment needs positive duration, period and file size")
	}
	if cfg.FanOut && cfg.SplitCompute {
		return nil, fmt.Errorf("core: FanOut and SplitCompute are mutually exclusive")
	}
	if len(cfg.Facilities) == 0 {
		cfg.Facilities = DefaultFederationSpecs(1)
	}
	p := cfg.Profile

	k := sim.NewKernel()
	issuer := auth.NewIssuer([]byte("sim-deployment"), k.Now)
	token, err := issuer.Issue("flows@picoprobe", []string{
		auth.ScopeTransfer, auth.ScopeCompute, auth.ScopeSearchIngest, auth.ScopeFlowsRun,
	}, cfg.Duration*4+time.Hour)
	if err != nil {
		return nil, err
	}

	// Shared network front: user switch -> lab backbone; each facility
	// hangs its (optional) wide-area link and its ingest off the backbone.
	net := netsim.New(k)
	siteSwitch := net.AddLink("site-switch", p.SiteSwitchBps)
	backbone := net.AddLink("anl-backbone", p.BackboneBps)

	reg := facility.NewRegistry(k, cfg.QueueWaitBudget)
	epoch := k.Now()
	byEndpoint := map[string]*facility.Facility{}
	var probed []probedFacility
	for _, spec := range cfg.Facilities {
		path := []*netsim.Link{siteSwitch, backbone}
		var wan *netsim.Link
		if spec.WanBps > 0 {
			wan = net.AddLink("wan-"+spec.ID, spec.WanBps)
			path = append(path, wan)
		}
		ingest := net.AddLink(spec.ID+"-ingest", p.EagleIngestBps)
		ingest.BaseRTT = spec.BaseRTT
		path = append(path, ingest)
		// Squalls hit the facility's wide-area bottleneck: the dedicated
		// WAN link when it has one, the ingest link otherwise.
		squallLink := wan
		if squallLink == nil {
			squallLink = ingest
		}
		for _, s := range spec.Squalls {
			net.Degrade(squallLink, s.degradation(epoch))
		}
		nodes := spec.Nodes
		if nodes <= 0 {
			nodes = p.PolarisNodes
		}
		streamCap := spec.StreamCapBps
		if streamCap <= 0 {
			streamCap = p.StreamCapBps
		}
		var outages []facility.Window
		if spec.OutageEnd > spec.OutageStart {
			outages = append(outages, facility.Window{
				Start: epoch.Add(spec.OutageStart),
				End:   epoch.Add(spec.OutageEnd),
			})
		}
		fac, err := facility.New(k, facility.Config{
			ID:   spec.ID,
			Name: spec.Name,
			Sched: scheduler.Config{
				Nodes:          nodes,
				ProvisionDelay: p.ProvisionDelay,
				CacheWarmup:    p.CacheWarmup,
				IdleTimeout:    p.NodeIdleTimeout,
				ReuseNodes:     !cfg.DisableNodeReuse,
			},
			Path:          path,
			StreamCapBps:  streamCap,
			TransferSetup: p.TransferSetup,
			Outages:       outages,
		})
		if err != nil {
			return nil, err
		}
		if err := reg.Add(fac); err != nil {
			return nil, err
		}
		byEndpoint[fac.Endpoint()] = fac
		probed = append(probed, probedFacility{
			pathID:          fac.PathID(),
			endpoint:        fac.Endpoint(),
			path:            path,
			streamCap:       streamCap,
			fallbackStreams: cfg.ParallelStreams,
			fallbackChunk:   cfg.TransferChunkBytes,
		})
	}
	if cfg.PinTo != "" {
		if _, ok := reg.Get(cfg.PinTo); !ok {
			return nil, fmt.Errorf("core: PinTo names unknown facility %q", cfg.PinTo)
		}
	}

	// Link-quality probing (nil Probe = the subsystem does not exist:
	// no prober events on the kernel, no quality in the registry, every
	// decision and timeline bit-identical to the pre-probe harness).
	var tuners map[string]*netprobe.Tuner
	if cfg.Probe != nil {
		prober, tn, err := cfg.Probe.buildProber(k, probed)
		if err != nil {
			return nil, err
		}
		tuners = tn
		reg.AttachQuality(prober, cfg.Probe.LowWater)
		// The until bound keeps the kernel's event queue finite: probing
		// stops once every flow the experiment can start has long drained.
		prober.Start(epoch.Add(4 * cfg.Duration))
	}

	txJitter := &jitterSource{rng: rand.New(rand.NewSource(p.JitterSeed)), width: p.TransferJitter}
	mover := &SimMover{
		Kernel:  k,
		Network: net,
		RouteFor: func(src, dst *transfer.Endpoint) Route {
			fac := byEndpoint[dst.ID]
			route := Route{
				Path:       fac.Path(),
				StreamCap:  fac.StreamCap() * txJitter.factor(),
				SetupTime:  fac.TransferSetup(),
				Streams:    cfg.ParallelStreams,
				ChunkBytes: cfg.TransferChunkBytes,
			}
			if t, ok := tuners[dst.ID]; ok {
				route.Tuner = t
			}
			return route
		},
	}
	tsvc := transfer.NewService(issuer, mover, k.Now, transfer.Options{})
	tsvc.RegisterEndpoint(transfer.Endpoint{ID: core.EndpointInstrument, Name: "PicoProbe user machine"})
	for _, fac := range reg.Facilities() {
		tsvc.RegisterEndpoint(transfer.Endpoint{ID: fac.Endpoint(), Name: fac.Name()})
	}

	cmpJitter := &jitterSource{rng: rand.New(rand.NewSource(p.JitterSeed + 1)), width: p.ComputeJitter}
	registry := compute.NewRegistry()
	costFor := func(rate float64) func(compute.Args) time.Duration {
		return func(args compute.Args) time.Duration {
			bytes, _ := args["bytes"].(float64)
			d := p.AnalysisBase + time.Duration(bytes/rate*float64(time.Second))
			if restage, _ := args["restage_bytes"].(float64); restage > 0 && p.InterFacilityBps > 0 {
				d += time.Duration(restage * 8 / p.InterFacilityBps * float64(time.Second))
			}
			return time.Duration(float64(d) * cmpJitter.factor())
		}
	}
	registry.Register(compute.Function{Name: core.FnHyperspectral, Env: core.ComputeEnv, Cost: costFor(p.HyperspectralBps)})
	registry.Register(compute.Function{Name: core.FnSpatiotemporal, Env: core.ComputeEnv, Cost: costFor(p.SpatiotemporalBps)})
	registry.Register(compute.Function{Name: core.FnMetadataOnly, Env: core.ComputeEnv, Cost: costFor(p.MetadataOnlyBps)})
	registry.Register(compute.Function{Name: core.FnImageOnlyHS, Env: core.ComputeEnv, Cost: costFor(p.HyperspectralBps)})
	registry.Register(compute.Function{Name: core.FnThumbnail, Env: core.ComputeEnv, Cost: costFor(p.ThumbnailBps)})
	csvcs := map[string]core.ComputeBackend{}
	for _, fac := range reg.Facilities() {
		csvcs[fac.ID()] = compute.NewService(issuer, registry, &SchedExecutor{Sched: fac.Sched}, k.Now)
	}

	index := search.NewIndex()
	// The simulated flows service learns of completion only by polling,
	// under every policy: the placement wrappers do not pass a provider's
	// completion signal (flows.Watcher) through, and the embedding hides
	// the publication provider's.
	sprov := struct{ flows.ActionProvider }{core.NewSearchProvider(k, issuer, index, p.PublishCost)}

	engine := flows.NewEngine(k, flows.Options{
		Policy:          cfg.Policy,
		StateOverhead:   p.StateOverhead,
		StatusLatency:   p.StatusLatency,
		MaxStateRetries: 2,
	})
	tprov, cprov := placedProviders(core.NewTransferProvider(tsvc), csvcs, reg)
	engine.RegisterProvider(tprov)
	engine.RegisterProvider(cprov)
	engine.RegisterProvider(sprov)

	def := fedDefinition(cfg)

	// Wire bytes shrink when on-instrument compression is enabled (paper
	// future work); the compression pass itself costs user-machine time
	// in each generation cycle.
	wireBytes := float64(cfg.FileBytes)
	var compressTime time.Duration
	if cfg.CompressionRatio > 0 {
		wireBytes *= cfg.CompressionRatio
		compressTime = time.Duration(float64(cfg.FileBytes) / compressionBps * float64(time.Second))
	}

	// The periodic copy application (paper Sec 3.3): each cycle stages a
	// file into the watched transfer directory (size/StagingBps), pays the
	// fixed watcher-settle and flow-start costs, launches the flow, then
	// sleeps the nominal start period.
	start := k.Now()
	k.Spawn("copy-app", func(ctx sim.Context) {
		runIdx := 0
		for {
			staging := time.Duration(float64(cfg.FileBytes)/p.StagingBps*float64(time.Second)) + p.CycleFixed
			ctx.Sleep(staging + compressTime)
			if ctx.Now().Sub(start) > cfg.Duration {
				return
			}
			input := map[string]any{
				"rel_path": fmt.Sprintf("%s-%04d.emdg", cfg.Kind, runIdx),
				// bytes on the wire (post-compression) vs bytes the
				// analysis must still chew through.
				"bytes":          wireBytes,
				"analysis_bytes": float64(cfg.FileBytes),
				"run_idx":        runIdx,
				"started":        ctx.Now().Format(time.RFC3339Nano),
			}
			if _, err := engine.Run(token, def, input, nil); err != nil {
				panic(err) // configuration error; surfaced via kernel.Err
			}
			runIdx++
			ctx.Sleep(cfg.StartPeriod)
		}
	})

	k.Run()
	if err := k.Err(); err != nil {
		return nil, err
	}
	runs := engine.Runs()
	for _, run := range runs {
		if run.Status == flows.StateActive {
			return nil, fmt.Errorf("core: run %s never completed", run.RunID)
		}
	}

	var sched scheduler.Stats
	waits := stats.NewSummary()
	for _, fac := range reg.Facilities() {
		st := fac.Sched.Stats()
		sched.JobsRun += st.JobsRun
		sched.Provisions += st.Provisions
		sched.Warmups += st.Warmups
		sched.Queued += st.Queued
		sched.Busy += st.Busy
		sched.Idle += st.Idle
		sched.Cold += st.Cold
		sched.Provisioning += st.Provisioning
		for _, s := range fac.Sched.QueueWaits().S.Samples() {
			waits.Add(s)
		}
	}
	timeouts := 0
	if cfg.TransferTimeout > 0 {
		for _, run := range runs {
			for _, st := range run.States {
				if st.Name == "Transfer" && st.Attempts > 1 {
					timeouts += st.Attempts - 1
				}
			}
		}
	}
	res := &FederatedResult{
		ExperimentResult: ExperimentResult{
			Config:         cfg.ExperimentConfig,
			Runs:           runs,
			IndexedRecords: index.Count(),
			SchedulerStats: sched,
			PollStats:      engine.PollStats(),
		},
		Facilities:       reg.Snapshot(),
		Placement:        reg.Stats(),
		QueueWaitP50:     time.Duration(waits.Percentile(50) * float64(time.Second)),
		QueueWaitP95:     time.Duration(waits.Percentile(95) * float64(time.Second)),
		TransferTimeouts: timeouts,
		Registry:         reg,
	}
	return res, nil
}

// FormatFacilities renders the per-facility federation summary the way
// FormatTable1 renders the paper's table. Failed runs (for example flows
// launched while every facility was down) are called out explicitly:
// Table 1 aggregates only successes, so silence here would hide them.
func FormatFacilities(res *FederatedResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Federated placement — %d facilit(ies), %d decisions, %d failover(s) (%d outage, %d budget, %d degraded), %d re-stage(s)\n",
		len(res.Facilities), res.Placement.Decisions, res.Placement.Failovers,
		res.Placement.OutageFailovers, res.Placement.BudgetFailovers,
		res.Placement.DegradedFailovers, res.Placement.Restages)
	if res.Config.Kind != "" && res.TransferTimeouts > 0 {
		fmt.Fprintf(&sb, "Transfer attempts timed out: %d\n", res.TransferTimeouts)
	}
	failed := 0
	for _, run := range res.Runs {
		if run.Status != flows.StateSucceeded {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(&sb, "WARNING: %d of %d runs FAILED (excluded from Table 1 aggregates)\n", failed, len(res.Runs))
	}
	hasQuality := false
	for _, f := range res.Facilities {
		if f.Quality != nil {
			hasQuality = true
			break
		}
	}
	w := tabwriter.NewWriter(&sb, 0, 4, 2, ' ', 0)
	header := "Facility\tnodes\truns placed\tjobs\tqueue p50 (s)\tqueue p95 (s)\tfailovers from"
	if hasQuality {
		header += "\tlink score\tgoodput (Mbps)"
	}
	fmt.Fprintln(w, header)
	for _, f := range res.Facilities {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f\t%.1f\t%d",
			f.ID, f.Nodes, f.Placed, f.JobsRun, f.Waits.P50S, f.Waits.P95S, f.Failed)
		if hasQuality {
			if q := f.Quality; q != nil {
				mark := ""
				if q.Degraded {
					mark = " (degraded)"
				}
				fmt.Fprintf(w, "\t%.1f%s\t%.1f", q.Score, mark, q.GoodputBps/1e6)
			} else {
				fmt.Fprintf(w, "\t-\t-")
			}
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Fprintf(&sb, "Pooled compute queue wait: p50 %.1f s, p95 %.1f s\n",
		res.QueueWaitP50.Seconds(), res.QueueWaitP95.Seconds())
	return sb.String()
}
