// Command picoprobe-portal serves the DGPF-like data portal over a search
// index snapshot and an artifact directory. With -demo it first generates
// synthetic hyperspectral and spatiotemporal acquisitions and runs them
// through live flows (the hyperspectral one as the fan-out DAG), so the
// portal has records to show and /flows has run DAGs to render. With
// -federation it additionally runs the simulated federated scenario
// (three facilities, mid-experiment outage) and serves the resulting
// per-facility load and placements under /facilities. With -pprof it
// additionally serves net/http/pprof on a localhost side port, so the
// catalog serving paths can be profiled against the live binary.
//
// With -durable DIR the catalog and the flow run records are journaled
// under DIR (DESIGN.md §9): every publication hits the WAL before it
// becomes visible, and a portal restarted on the same DIR — cleanly or
// after kill -9 — recovers the catalog and lists the prior runs under
// /flows. The simulated -federation scenario is re-derived each boot
// (it is deterministic), not restored; live embedders journal their
// registry with facility.Registry.OpenJournal.
//
// The production serving layer (DESIGN.md §13) is on by default — the
// configuration the benchmark measures: -cache is epoch-keyed response
// caching (strong ETags, 304 revalidation, bounded memoization), -events
// serves live run transitions over SSE at /api/events (the simulated
// -federation run is finished before serving starts and pushes nothing),
// -metrics serves Prometheus text at /metrics; each turns off with
// -cache=false and so on. Admission control stays opt-in:
// -limit-rps/-max-inflight (429 + Retry-After per principal, 503 shed
// past the in-flight cap).
//
// Usage:
//
//	picoprobe-portal -demo -federation -addr :8080
//	picoprobe-portal -index index.jsonl -artifacts ./artifacts -addr :8080
//	picoprobe-portal -demo -durable ./picoprobe-work/durable
//	picoprobe-portal -durable ./picoprobe-work/durable   # recover and serve
//	picoprobe-portal -demo -pprof localhost:6060
//	picoprobe-portal -demo -limit-rps 50 -max-inflight 256
//	picoprobe-portal -demo -cache=false -events=false -metrics=false   # the bare seed portal
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof side port
	"os"
	"path/filepath"
	"time"

	"picoprobe/internal/core"
	"picoprobe/internal/durable"
	"picoprobe/internal/flows"
	"picoprobe/internal/lab"
	"picoprobe/internal/metadata"
	"picoprobe/internal/obs"
	"picoprobe/internal/portal"
	"picoprobe/internal/search"
	"picoprobe/internal/sim"
	"picoprobe/internal/synth"
)

// reportRecovery prints what the durable layer replayed at boot.
func reportRecovery(rec core.DurableRecovery) {
	c, r := rec.Catalog, rec.Runs
	fmt.Printf("durable: catalog recovered %d journaled record(s) + snapshot@%d, %d run record(s)\n",
		c.Records, c.SnapshotLSN, rec.RestoredRuns)
	if c.TornTail || r.TornTail {
		fmt.Printf("durable: torn WAL tail truncated (crash mid-write detected)\n")
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	indexPath := flag.String("index", "", "search index snapshot (JSON lines, from a previous run)")
	artifacts := flag.String("artifacts", "picoprobe-work/artifacts", "artifact directory to serve")
	demo := flag.Bool("demo", false, "generate demo data and run it through live flows first")
	federation := flag.Bool("federation", false, "run the simulated federated scenario and serve /facilities")
	durableDir := flag.String("durable", "", "journal the catalog and run records under this directory and recover them at boot")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060); empty disables")
	cache := flag.Bool("cache", true, "epoch-keyed response caching (ETag/304 + memoization) on the catalog routes")
	events := flag.Bool("events", true, "serve live run transitions over SSE at /api/events")
	metrics := flag.Bool("metrics", true, "serve Prometheus text metrics at /metrics")
	limitRPS := flag.Float64("limit-rps", 0, "per-principal admission rate in requests/sec (0 disables rate limiting)")
	limitBurst := flag.Float64("limit-burst", 0, "admission burst capacity (default: rate)")
	maxInFlight := flag.Int("max-inflight", 0, "global in-flight request cap; excess sheds with 503 (0 disables)")
	flag.Parse()

	if *pprofAddr != "" {
		// The profiler rides the DefaultServeMux on its own listener, so
		// profiling the live serving benchmarks never exposes /debug/pprof
		// through the portal itself. Bind it to localhost.
		go func() {
			log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	index := search.NewIndex()
	var engine *flows.Engine
	var facilities http.Handler
	if *indexPath != "" {
		f, err := os.Open(*indexPath)
		if err != nil {
			log.Fatal(err)
		}
		loaded, err := search.Load(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		index = loaded
	}
	if *demo {
		dep, err := seedDemo(*artifacts, *durableDir)
		if err != nil {
			log.Fatal(err)
		}
		index = dep.Index
		engine = dep.Engine
		reportRecovery(dep.Recovery)
	} else if *durableDir != "" {
		// Recover a previously journaled portal: the catalog comes back as
		// one IngestBatch, the run records repopulate /flows. The engine has
		// no providers — it only lists recovered runs.
		catalog, cstats, err := search.OpenDurable(filepath.Join(*durableDir, "catalog"), search.DurableOptions{})
		if err != nil {
			log.Fatal(err)
		}
		runlog, recs, rstats, err := flows.OpenRunLog(filepath.Join(*durableDir, "runs"), durable.Options{})
		if err != nil {
			log.Fatal(err)
		}
		defer catalog.Close()
		defer runlog.Close()
		index = catalog.Index()
		engine = flows.NewEngine(sim.NewLiveRuntime(1), flows.Options{})
		engine.Restore(recs)
		reportRecovery(core.DurableRecovery{Catalog: cstats, Runs: rstats, RestoredRuns: len(recs)})
	}
	if *federation {
		res, err := lab.RunFederatedExperiment(lab.FederatedScenario())
		if err != nil {
			log.Fatal(err)
		}
		facilities = res.Registry.View(portal.Title)
		fmt.Printf("federated scenario: %d runs, %d failover(s), %d re-stage(s)\n",
			len(res.Runs), res.Placement.Failovers, res.Placement.Restages)
	}

	cfg := portal.Config{Index: index, ArtifactRoot: *artifacts, Flows: engine, Facilities: facilities}
	if *cache {
		cfg.Cache = &portal.CacheConfig{}
	}
	if *limitRPS > 0 || *maxInFlight > 0 {
		cfg.Limits = &portal.LimitConfig{RatePerSec: *limitRPS, Burst: *limitBurst, MaxInFlight: *maxInFlight}
	}
	if *metrics {
		cfg.Metrics = obs.NewRegistry()
	}
	if *events {
		hub := portal.NewHub()
		cfg.Events = hub
		if engine != nil {
			engine.SetEventSink(hub.FlowSink())
		}
	}
	srv, err := portal.NewServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("portal with %d record(s) listening on %s\n", index.Count(), *addr)
	if engine != nil {
		fmt.Printf("flow runs under /flows\n")
	}
	if facilities != nil {
		fmt.Printf("facilities under /facilities\n")
	}
	if *events {
		fmt.Printf("live events under /api/events\n")
	}
	if *metrics {
		fmt.Printf("metrics under /metrics\n")
	}
	log.Fatal(http.ListenAndServe(*addr, srv))
}

// seedDemo stages two synthetic acquisitions and runs them through the
// live engine: the hyperspectral file through the fan-out DAG
// (Transfer → {Analysis ∥ Thumbnail} → Publication), the spatiotemporal
// one through the straight line. With durableDir set, the deployment
// journals the catalog and run records there, on top of whatever a prior
// boot journaled.
func seedDemo(artifacts, durableDir string) (*core.LiveDeployment, error) {
	work, err := os.MkdirTemp("", "picoprobe-demo")
	if err != nil {
		return nil, err
	}
	// The staged EMD copies and the eagle landing zone are only needed
	// while the flows run (the portal serves from artifacts); clean up on
	// every path, including seed failures.
	defer os.RemoveAll(work)
	instrument := filepath.Join(work, "instrument")
	if err := os.MkdirAll(instrument, 0o755); err != nil {
		return nil, err
	}
	mic := synth.DefaultMicroscope()

	hs, err := synth.GenerateHyperspectral(synth.HyperspectralConfig{Height: 64, Width: 64, Channels: 256, Seed: 4})
	if err != nil {
		return nil, err
	}
	if err := hs.WriteEMD(filepath.Join(instrument, "hs.emdg"), mic, &metadata.Acquisition{
		SampleName: "polyamide-film-demo", Operator: "demo", Collected: time.Now().UTC(),
	}); err != nil {
		return nil, err
	}
	st := synth.GenerateSpatiotemporal(synth.SpatiotemporalConfig{Frames: 24, Height: 96, Width: 96, Particles: 6, Seed: 5})
	if err := st.WriteEMD(filepath.Join(instrument, "st.emdg"), mic, &metadata.Acquisition{
		SampleName: "au-on-carbon-demo", Operator: "demo", Collected: time.Now().UTC(),
	}); err != nil {
		return nil, err
	}

	dep, err := core.NewLiveDeployment(core.LiveOptions{
		InstrumentRoot: instrument,
		EagleRoot:      filepath.Join(work, "eagle"),
		OutDir:         artifacts,
		DurableDir:     durableDir,
	})
	if err != nil {
		return nil, err
	}
	if _, err := dep.RunDefinition(dep.FanOutDefinition("hyperspectral"), "hs.emdg"); err != nil {
		return nil, err
	}
	if _, err := dep.RunFile("spatiotemporal", "st.emdg"); err != nil {
		return nil, err
	}
	return dep, nil
}
