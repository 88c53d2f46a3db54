package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/compute"
	"picoprobe/internal/detect"
	"picoprobe/internal/durable"
	"picoprobe/internal/flows"
	"picoprobe/internal/search"
	"picoprobe/internal/sim"
	"picoprobe/internal/transfer"
)

// LiveOptions configures an in-process live deployment: real file
// movement, real analysis code, real search ingest — the paper's full
// pipeline on local endpoints, used by the examples, the CLI tools and
// the end-to-end integration tests.
type LiveOptions struct {
	// InstrumentRoot is the user-machine transfer directory (source
	// endpoint root).
	InstrumentRoot string
	// EagleRoot is the destination storage root.
	EagleRoot string
	// OutDir receives analysis artifacts (plots, annotated video).
	OutDir string
	// TransferChunkBytes splits each transfer into fixed-size chunks moved
	// over TransferStreams concurrent streams with per-chunk verification
	// and manifest-based resume (DESIGN.md §8). <= 0 means
	// DefaultTransferChunkBytes; a file no bigger than one chunk moves as
	// one.
	TransferChunkBytes int64
	// TransferStreams bounds the concurrent chunk-copy workers per
	// transfer task (<= 0 means DefaultTransferStreams).
	TransferStreams int
	// DurableDir, when set, journals the catalog and run records under
	// this directory (DESIGN.md §9): every publication is WAL-journaled
	// before it becomes visible, terminal run records are appended to a
	// run log, and a deployment reopened on the same directory recovers
	// both. Empty keeps the original memory-only behavior, bit for bit.
	DurableDir string
}

// DefaultTransferChunkBytes and DefaultTransferStreams are the framing a
// live or wire deployment uses when its options name none — what
// picoprobe-watch ships.
const (
	DefaultTransferChunkBytes int64 = 64 << 20
	DefaultTransferStreams          = 4
)

// framing resolves a deployment's framing options against the defaults.
func framing(chunkBytes int64, streams int) (int64, int) {
	if chunkBytes <= 0 {
		chunkBytes = DefaultTransferChunkBytes
	}
	if streams <= 0 {
		streams = DefaultTransferStreams
	}
	return chunkBytes, streams
}

// LiveDeployment is a fully wired in-process deployment of the PicoProbe
// data-flow architecture.
type LiveDeployment struct {
	Runtime  *sim.LiveRuntime
	Issuer   *auth.Issuer
	Token    string
	Transfer *transfer.Service
	Compute  *compute.Service
	Index    *search.Index
	Engine   *flows.Engine
	Options  LiveOptions

	// Catalog and RunLog are the durable wrappers (nil without
	// DurableDir). Index always points at the queryable in-memory index —
	// the durable catalog's inner index when journaling is on.
	Catalog *search.DurableIndex
	RunLog  *flows.RunLog
	// Recovery describes what boot recovered from DurableDir.
	Recovery DurableRecovery

	restoredRuns []flows.RunRecord

	// wirePaths marks a wire-backed deployment: compute states then
	// address landed files by bare relative path (the daemon resolves
	// them under its own root) instead of by local absolute path.
	wirePaths bool
	// conns are a wire deployment's pooled connections — the mover's and
	// the compute backends' — which Close drops.
	conns []io.Closer
}

// computePath is how a compute state addresses a landed file: the
// absolute destination path in-process, the relative path over the
// wire.
func (d *LiveDeployment) computePath(rel string) string {
	if d.wirePaths {
		return rel
	}
	return d.Options.EagleRoot + string(os.PathSeparator) + rel
}

// DurableRecovery reports what a durable deployment replayed at boot.
type DurableRecovery struct {
	Catalog durable.RecoveryStats
	Runs    durable.RecoveryStats
	// RestoredRuns is how many terminal run records came back.
	RestoredRuns int
}

// Close flushes and closes the deployment's durable journals and drops a
// wire deployment's pooled sessions (no-op for a memory-only in-process
// deployment).
func (d *LiveDeployment) Close() error {
	for _, c := range d.conns {
		c.Close()
	}
	var err error
	if d.Catalog != nil {
		err = d.Catalog.Close()
	}
	if d.RunLog != nil {
		if cerr := d.RunLog.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// NewLiveDeployment wires up services against the local filesystem.
func NewLiveDeployment(opts LiveOptions) (*LiveDeployment, error) {
	for _, dir := range []string{opts.InstrumentRoot, opts.EagleRoot, opts.OutDir} {
		if dir == "" {
			return nil, fmt.Errorf("core: live deployment needs InstrumentRoot, EagleRoot and OutDir")
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	opts.TransferChunkBytes, opts.TransferStreams = framing(opts.TransferChunkBytes, opts.TransferStreams)

	var csvc *compute.Service
	dep, err := assemble(assembly{
		secret:  "picoprobe-live",
		options: opts,
		mover: func(string) transfer.Mover {
			return &transfer.ChunkMover{
				ChunkBytes: opts.TransferChunkBytes,
				Streams:    opts.TransferStreams,
				// Manifests live beside the destination root so a redeployed
				// service resumes partial transfers.
				ManifestDir: filepath.Join(opts.EagleRoot, ".picoprobe-manifests"),
			}
		},
		sites: []site{{
			endpoint: transfer.Endpoint{ID: EndpointEagle, Name: "ALCF Eagle", Root: opts.EagleRoot},
			backend: func(issuer *auth.Issuer, _ string) ComputeBackend {
				registry := compute.NewRegistry()
				RegisterAnalysisFunctions(registry, opts.OutDir, detect.DefaultParams())
				csvc = compute.NewService(issuer, registry, compute.NewLocalExecutor(2, nil), time.Now)
				return csvc
			},
		}},
	})
	if err != nil {
		return nil, err
	}
	dep.Compute = csvc
	return dep, nil
}

// site is one facility as a deployment reaches it: the transfer endpoint
// its data lands on (Root is a directory for a local landing, a
// daemon's host:port for a wire landing) and the backend its compute
// runs on. The endpoint ID doubles as the facility ID.
type site struct {
	endpoint transfer.Endpoint
	backend  func(issuer *auth.Issuer, token string) ComputeBackend
}

// Placement wraps the plain transfer provider and the per-facility
// compute backends of a multi-facility deployment with providers that
// decide where each state runs (internal/lab builds one over a facility
// registry — DESIGN.md §6).
type Placement func(transfer flows.ActionProvider, backends map[string]ComputeBackend) (flows.ActionProvider, flows.ActionProvider)

// assembly is everything that differs between deployments; assemble
// supplies the rest. mover and each site's backend are built from the
// operator credentials because the wire landing and the wire clients
// authenticate with the token.
type assembly struct {
	// secret keys the token issuer (a daemon verifies with the same one).
	secret string
	// options is kept on the deployment; InstrumentRoot and DurableDir are
	// read here.
	options LiveOptions
	// policy is the engine's completion-detection policy (nil = 20 ms
	// push: providers that signal completion are read at once, the rest —
	// behind a placement wrapper, which passes no signal through — polled
	// every 20 ms).
	policy flows.Policy
	mover  func(token string) transfer.Mover
	sites  []site
	// place wraps the plain providers with placement across sites; nil —
	// the one-facility deployments — registers the plain providers, and a
	// facility registry's sticky/landed maps, which never forget a run,
	// stay off the long-running watcher's path.
	place Placement
	// wirePaths: see LiveDeployment.wirePaths.
	wirePaths bool
}

// assemble is the one place a live pipeline is wired: operator token,
// transfer service over the instrument and facility endpoints, one
// compute backend per facility, catalog, and an engine driving the
// transfer, compute and search providers.
func assemble(a assembly) (*LiveDeployment, error) {
	opts := a.options
	rt := sim.NewLiveRuntime(1)
	issuer := auth.NewIssuer([]byte(a.secret), nil)
	token, err := issuer.Issue("operator@picoprobe", []string{
		auth.ScopeTransfer, auth.ScopeCompute, auth.ScopeSearchIngest,
		auth.ScopeSearchQuery, auth.ScopeFlowsRun, auth.ScopePortal,
	}, 24*time.Hour)
	if err != nil {
		return nil, err
	}

	tsvc := transfer.NewService(issuer, a.mover(token), time.Now, transfer.Options{})
	if err := tsvc.RegisterEndpoint(transfer.Endpoint{ID: EndpointInstrument, Name: "PicoProbe user machine", Root: opts.InstrumentRoot}); err != nil {
		return nil, err
	}
	backends := make(map[string]ComputeBackend, len(a.sites))
	for _, s := range a.sites {
		if err := tsvc.RegisterEndpoint(s.endpoint); err != nil {
			return nil, err
		}
		backends[s.endpoint.ID] = s.backend(issuer, token)
	}

	dep := &LiveDeployment{
		Runtime:   rt,
		Issuer:    issuer,
		Token:     token,
		Transfer:  tsvc,
		Options:   opts,
		wirePaths: a.wirePaths,
	}

	// The catalog the publication provider writes through: plain index in
	// memory-only mode, journaled DurableIndex otherwise. Recovery folds
	// the whole journal into one IngestBatch (one publish per shard).
	var catalog Catalog
	engineOpts := flows.Options{Policy: a.policy, MaxStateRetries: 2}
	if engineOpts.Policy == nil {
		// Push: the providers signal completion — the wire compute proxy
		// through held Jobs — and are read at once; 20 ms is the poll for
		// a provider that cannot signal (one behind placement).
		engineOpts.Policy = flows.Push{Latency: 20 * time.Millisecond}
	}
	if opts.DurableDir == "" {
		dep.Index = search.NewIndex()
		catalog = dep.Index
	} else {
		dix, cstats, err := search.OpenDurable(filepath.Join(opts.DurableDir, "catalog"), search.DurableOptions{})
		if err != nil {
			return nil, fmt.Errorf("core: open durable catalog: %w", err)
		}
		runlog, recs, rstats, err := flows.OpenRunLog(filepath.Join(opts.DurableDir, "runs"), durable.Options{})
		if err != nil {
			dix.Close()
			return nil, fmt.Errorf("core: open run log: %w", err)
		}
		dep.Catalog = dix
		dep.Index = dix.Index()
		dep.RunLog = runlog
		dep.Recovery = DurableRecovery{Catalog: cstats, Runs: rstats, RestoredRuns: len(recs)}
		catalog = dix
		engineOpts.RunLog = runlog
		dep.restoredRuns = recs
	}

	tprov := NewTransferProvider(tsvc)
	cprov := NewComputeProvider(backends[a.sites[0].endpoint.ID])
	if a.place != nil {
		tprov, cprov = a.place(tprov, backends)
	}
	engine := flows.NewEngine(rt, engineOpts)
	engine.Restore(dep.restoredRuns)
	engine.RegisterProvider(tprov)
	engine.RegisterProvider(cprov)
	engine.RegisterProvider(NewSearchProvider(rt, issuer, catalog, 0))
	dep.Engine = engine
	return dep, nil
}

// RegisterAnalysisFunctions registers the real analysis functions —
// fused hyperspectral, fused spatiotemporal, thumbnail render — into a
// compute registry, writing artifacts under outDir. The in-process
// deployment and the facility daemon both build their pools through
// this one function, which is half of the cross-path equivalence
// argument: the wire changes where the code runs, never what runs.
func RegisterAnalysisFunctions(registry *compute.Registry, outDir string, params detect.Params) {
	registry.Register(compute.Function{
		Name: FnHyperspectral,
		Env:  ComputeEnv,
		Run: func(args compute.Args) (compute.Result, error) {
			path, _ := args["path"].(string)
			out, err := AnalyzeHyperspectral(path, outDir)
			if err != nil {
				return nil, err
			}
			return analysisResult(out)
		},
	})
	registry.Register(compute.Function{
		Name: FnSpatiotemporal,
		Env:  ComputeEnv,
		Run: func(args compute.Args) (compute.Result, error) {
			path, _ := args["path"].(string)
			out, err := AnalyzeSpatiotemporal(path, outDir, params)
			if err != nil {
				return nil, err
			}
			return analysisResult(out)
		},
	})
	registry.Register(compute.Function{
		Name: FnThumbnail,
		Env:  ComputeEnv,
		Run: func(args compute.Args) (compute.Result, error) {
			path, _ := args["path"].(string)
			rel, err := RenderThumbnail(path, outDir)
			if err != nil {
				return nil, err
			}
			return compute.Result{"thumbnail": rel}, nil
		},
	})
}

// analysisResult packages an AnalysisOutput for transport through the
// compute service's JSON-able result map.
func analysisResult(out *AnalysisOutput) (compute.Result, error) {
	entryJSON, err := SearchEntry(out.Experiment)
	if err != nil {
		return nil, err
	}
	return compute.Result{
		"record_id":  out.Experiment.ID,
		"entry_json": string(entryJSON),
		"products":   len(out.Experiment.Products),
	}, nil
}

// WithPlacement adds the keys a placement wrapper reads to a state's
// params: run — the placement key, the run's file — and the input's
// optional facility pin. The plain providers ignore both, so every flow
// definition emits them whether or not a registry is underneath.
func WithPlacement(params, input map[string]any) map[string]any {
	params["run"] = input["rel_path"]
	if pin, _ := input["facility"].(string); pin != "" {
		params["facility"] = pin
	}
	return params
}

// TransferState moves the input file from the instrument root to the
// Eagle root (under a registry: to wherever placement sends the run).
func TransferState() flows.StateDef {
	return flows.StateDef{
		Name:     "Transfer",
		Provider: "transfer",
		Params: func(input map[string]any, _ flows.Results) map[string]any {
			rel, _ := input["rel_path"].(string)
			// bytes, when the input sizes the file, feeds the placement
			// estimate and the simulated mover; the chunk mover stats the file.
			bytes, _ := input["bytes"].(float64)
			return WithPlacement(flows.Pack(TransferParams{
				Src: EndpointInstrument, Dst: EndpointEagle, RelPath: rel, Bytes: int64(bytes),
			}), input)
		},
	}
}

// liveComputeState invokes fn on the landed copy of the input file.
func (d *LiveDeployment) liveComputeState(name, fn string, after ...string) flows.StateDef {
	return flows.StateDef{
		Name:     name,
		Provider: "compute",
		After:    after,
		Params: func(input map[string]any, _ flows.Results) map[string]any {
			rel, _ := input["rel_path"].(string)
			args := compute.Args{"path": d.computePath(rel)}
			if staged, ok := input["bytes"]; ok {
				// What a re-stage would copy, should placement move the run.
				args["staged_bytes"] = staged
			}
			return WithPlacement(flows.Pack(ComputeParams{Function: fn, Args: args}), input)
		},
	}
}

// livePublishState publishes the entry produced by the Analysis state.
func livePublishState(after ...string) flows.StateDef {
	return flows.StateDef{
		Name:     "Publication",
		Provider: "search",
		After:    after,
		Params: func(_ map[string]any, results flows.Results) map[string]any {
			entry, _ := results["Analysis"]["entry_json"].(string)
			return flows.Pack(SearchParams{EntryJSON: entry})
		},
	}
}

// LiveDefinition builds the live flow for one use case: Transfer the file
// from the instrument root to the Eagle root, run the fused analysis
// function on the landed file, publish the resulting record.
func (d *LiveDeployment) LiveDefinition(kind string) flows.Definition {
	name, fn := FlowName(kind)
	return flows.Definition{
		Name: name,
		States: []flows.StateDef{
			TransferState(),
			d.liveComputeState("Analysis", fn),
			livePublishState(),
		},
	}.Linear()
}

// FanOutDefinition builds the live DAG flow: after the transfer lands,
// the fused analysis and a thumbnail render run concurrently on the same
// landed file, and the publication fans both results back in.
//
//	Transfer → {Analysis ∥ Thumbnail} → Publication
func (d *LiveDeployment) FanOutDefinition(kind string) flows.Definition {
	name, fn := FlowName(kind)
	return flows.Definition{
		Name: name + "-fanout",
		States: []flows.StateDef{
			TransferState(),
			d.liveComputeState("Analysis", fn, "Transfer"),
			d.liveComputeState("Thumbnail", FnThumbnail, "Transfer"),
			livePublishState("Analysis", "Thumbnail"),
		},
	}
}

// RunDefinition executes one flow definition for a file already present
// in the instrument root, blocking until the run completes.
func (d *LiveDeployment) RunDefinition(def flows.Definition, relPath string) (flows.RunRecord, error) {
	done := make(chan flows.RunRecord, 1)
	_, err := d.Engine.Run(d.Token, def, map[string]any{"rel_path": relPath}, func(r flows.RunRecord) {
		done <- r
	})
	if err != nil {
		return flows.RunRecord{}, err
	}
	rec := <-done
	if rec.Status != flows.StateSucceeded {
		return rec, fmt.Errorf("core: flow %s failed: %s", rec.RunID, rec.Error)
	}
	return rec, nil
}

// RunFile executes the full straight-line flow for one file already
// present in the instrument root (relative path), blocking until the run
// completes.
func (d *LiveDeployment) RunFile(kind, relPath string) (flows.RunRecord, error) {
	return d.RunDefinition(d.LiveDefinition(kind), relPath)
}

// BatchDefinition builds the multi-file DAG flow the watcher's batcher
// feeds: one chunked transfer task moves every file of the batch, the
// per-file analyses run concurrently on the landed copies, and a single
// publication state ingests all their records through one IngestBatch —
// the batched catalog publication of the ingest data plane.
//
//	Transfer(all files) → {Analysis-00 ∥ Analysis-01 ∥ …} → Publication
func (d *LiveDeployment) BatchDefinition(kind string, relPaths []string) flows.Definition {
	name, fn := FlowName(kind)
	rels := append([]string(nil), relPaths...)

	states := []flows.StateDef{{
		Name:     "Transfer",
		Provider: "transfer",
		Params: func(input map[string]any, _ flows.Results) map[string]any {
			return WithPlacement(flows.Pack(TransferParams{Src: EndpointInstrument, Dst: EndpointEagle, RelPaths: rels}), input)
		},
	}}
	analyses := make([]string, len(rels))
	for i, rel := range rels {
		stateName := fmt.Sprintf("Analysis-%02d", i)
		analyses[i] = stateName
		path := d.computePath(rel)
		states = append(states, flows.StateDef{
			Name:     stateName,
			Provider: "compute",
			After:    []string{"Transfer"},
			Params: func(input map[string]any, _ flows.Results) map[string]any {
				return WithPlacement(flows.Pack(ComputeParams{Function: fn, Args: compute.Args{"path": path}}), input)
			},
		})
	}
	states = append(states, flows.StateDef{
		Name:     "Publication",
		Provider: "search",
		After:    analyses,
		Params: func(_ map[string]any, results flows.Results) map[string]any {
			entries := make([]string, 0, len(analyses))
			for _, a := range analyses {
				if entry, _ := results[a]["entry_json"].(string); entry != "" {
					entries = append(entries, entry)
				}
			}
			return flows.Pack(SearchParams{EntriesJSON: entries})
		},
	})
	return flows.Definition{Name: name + "-batch", States: states}
}

// RunBatch executes the batch flow for files already present in the
// instrument root, blocking until the run completes.
func (d *LiveDeployment) RunBatch(kind string, relPaths []string) (flows.RunRecord, error) {
	if len(relPaths) == 0 {
		return flows.RunRecord{}, fmt.Errorf("core: batch needs at least one file")
	}
	return d.RunDefinition(d.BatchDefinition(kind, relPaths), relPaths[0])
}
