package lab

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"

	"picoprobe/internal/core"
	"picoprobe/internal/facility"
	"picoprobe/internal/flows"
	"picoprobe/internal/health"
	"picoprobe/internal/metadata"
	"picoprobe/internal/netfault"
	"picoprobe/internal/netprobe"
	"picoprobe/internal/scheduler"
	"picoprobe/internal/sim"
	"picoprobe/internal/synth"
	"picoprobe/internal/transfer"
	"picoprobe/internal/wire"
)

// WireCampaignConfig parameterizes a federated campaign over real
// sockets: N in-process facility daemons on localhost loopback, a
// facility registry placing runs across them, and every byte and every
// compute dispatch crossing a TCP connection — the federated scenarios
// of the simulation harness, but on the wire data plane.
type WireCampaignConfig struct {
	// Facilities is how many localhost daemons to spawn (default 2).
	Facilities int
	// Files is the campaign size (default 6).
	Files int
	// Kind selects the analysis ("hyperspectral" default).
	Kind string
	// Probe attaches a link-quality prober to every daemon's status
	// endpoint (observe-only: scores are reported, placement unchanged).
	Probe bool
	// Health attaches a heartbeat monitor to every daemon's status
	// endpoint and wires its Up/Suspect/Down verdicts into placement: a
	// daemon declared Down sheds fresh placements and fails over sticky
	// runs exactly like a planned outage window.
	Health bool
	// Degrade, with Probe, injects this read delay into facility 0's
	// listener before the campaign and records the probe-visible
	// baseline → degraded → recovered scores.
	Degrade time.Duration
	// Dir is the scratch root (default: a fresh temp dir the caller
	// should remove; its path is reported in the result).
	Dir string
}

// WireProbeDemo records the induced-latency probe demonstration.
type WireProbeDemo struct {
	Baseline, Degraded, Recovered float64
}

// WireCampaignResult is what a wire campaign produced.
type WireCampaignResult struct {
	// Dir is the scratch root holding instrument and facility trees.
	Dir string
	// Runs are the completed flow records.
	Runs []flows.RunRecord
	// IndexedRecords counts catalog entries published.
	IndexedRecords int
	// BytesMoved sums transfer volume over the wire.
	BytesMoved int64
	// Facilities/Placement mirror FederatedResult's registry telemetry.
	Facilities []facility.Status
	Placement  facility.Stats
	// Jobs counts compute dispatches each daemon reported serving.
	Jobs map[string]int
	// HealthChecks counts completed heartbeat checks per facility (Health
	// campaigns only).
	HealthChecks map[string]uint64
	// ProbeDemo is set when Probe and Degrade were both requested.
	ProbeDemo *WireProbeDemo
}

// RunWireCampaign spawns the daemons, stages synthetic acquisitions,
// runs one placed flow per file over real sockets, and tears everything
// down. Every facility daemon is a full wire.Server with its own
// storage root and compute pool running the real analysis functions.
func RunWireCampaign(cfg WireCampaignConfig) (*WireCampaignResult, error) {
	if cfg.Facilities <= 0 {
		cfg.Facilities = 2
	}
	if cfg.Files <= 0 {
		cfg.Files = 6
	}
	if cfg.Kind == "" {
		cfg.Kind = "hyperspectral"
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "picoprobe-wire-"); err != nil {
			return nil, err
		}
	}
	instrument := filepath.Join(dir, "instrument")

	// Spawn the facility daemons: in-process wire.Servers on real
	// loopback sockets (the separate-process discipline is exercised by
	// the SIGKILL end-to-end test; here the point is the wire itself).
	// They share only the secret with the acquisition side, as separate
	// processes would. rt is the federation's clock: registry, heartbeat
	// monitor and prober read it.
	rt := sim.NewLiveRuntime(1)
	reg := facility.NewRegistry(rt, 0)
	var daemons []transfer.Endpoint
	var faults *netfault.Faults
	for i := 0; i < cfg.Facilities; i++ {
		id := fmt.Sprintf("facility-%02d", i)
		root := filepath.Join(dir, id)
		srv, err := core.NewFacilityDaemon(id, root, filepath.Join(root, "analysis-out"), core.WireSecretDefault, 2)
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		if i == 0 && cfg.Probe && cfg.Degrade > 0 {
			faults = &netfault.Faults{}
			ln = faults.Listener(ln)
		}
		go srv.Serve(ln)
		defer srv.Close()
		daemons = append(daemons, transfer.Endpoint{ID: id, Name: id, Root: ln.Addr().String()})

		fac, err := facility.New(rt, facility.Config{ID: id, Sched: scheduler.Config{Nodes: 2}})
		if err != nil {
			return nil, err
		}
		if err := reg.Add(fac); err != nil {
			return nil, err
		}
	}

	// The acquisition side: a wire deployment over every daemon, with the
	// registry placing each transfer and compute state. The synthetic
	// acquisitions are small, so the campaign frames them small too: a
	// file still crosses the wire as several chunks over two sessions.
	dep, err := core.NewWireFederation(core.WireOptions{
		InstrumentRoot:     instrument,
		Policy:             flows.Push{Latency: 5 * time.Millisecond},
		TransferChunkBytes: 256 << 10,
		TransferStreams:    2,
	}, daemons, func(t flows.ActionProvider, backends map[string]core.ComputeBackend) (flows.ActionProvider, flows.ActionProvider) {
		return placedProviders(t, backends, reg)
	})
	if err != nil {
		return nil, err
	}
	defer dep.Close()
	token := dep.Token

	res := &WireCampaignResult{Dir: dir}

	// Heartbeat monitoring against the daemons' status endpoints: short
	// checks on a tight interval, verdicts wired into placement. On a
	// healthy loopback federation every verdict stays Up, so decisions —
	// and the wire timeline — are identical to a monitor-less campaign;
	// the verdicts and check counters still surface in the report.
	var mon *health.Monitor
	if cfg.Health {
		mon = health.NewMonitor(rt, health.Config{Interval: 100 * time.Millisecond})
		for _, d := range daemons {
			ht := wire.NewHealthTarget(d.Root, token)
			defer ht.Close()
			if err := mon.Register(d.ID, ht); err != nil {
				return nil, err
			}
		}
		reg.AttachHealth(mon)
		mon.Start(time.Time{})
		defer mon.Stop()
	}

	// Link-quality probing against the daemons' real status endpoints,
	// attached observe-only (low water 0): scores surface in the
	// facility snapshot without perturbing placement.
	var prober *netprobe.Prober
	if cfg.Probe {
		prober = netprobe.New(rt, netprobe.Config{Interval: 100 * time.Millisecond, WindowSamples: 3})
		for _, d := range daemons {
			if _, err := prober.Register(d.ID, NewProbeTarget(d.Root, token)); err != nil {
				return nil, err
			}
		}
		reg.AttachQuality(prober, 0)
		prober.Start(time.Time{})
		defer prober.Stop()

		if cfg.Degrade > 0 && faults != nil {
			demo := &WireProbeDemo{}
			settle := func() float64 {
				time.Sleep(12 * 100 * time.Millisecond)
				q, _ := prober.Quality(daemons[0].ID)
				return q.Score
			}
			demo.Baseline = settle()
			faults.SetReadDelay(cfg.Degrade)
			demo.Degraded = settle()
			faults.SetReadDelay(0)
			demo.Recovered = settle()
			res.ProbeDemo = demo
		}
	}

	// Stage the synthetic campaign — a distinct sample per file, so every
	// record is distinguishable in the catalog — starting each file's flow
	// as soon as it is staged.
	def := dep.LiveDefinition(cfg.Kind)
	done := make(chan flows.RunRecord, cfg.Files)
	for i := range cfg.Files {
		rel := fmt.Sprintf("%s-%04d.emdg", cfg.Kind, i)
		if err := WriteSyntheticAcquisition(filepath.Join(instrument, rel), cfg.Kind, i); err != nil {
			return nil, err
		}
		st, err := os.Stat(filepath.Join(instrument, rel))
		if err != nil {
			return nil, err
		}
		res.BytesMoved += st.Size()
		// The campaign's facilities are identical and idle, so unconstrained
		// least-ECT placement degenerates to the first one; pinning run i to
		// facility i mod N keeps every daemon exercised.
		input := map[string]any{"rel_path": rel, "bytes": float64(st.Size()), "facility": daemons[i%len(daemons)].ID}
		if _, err := dep.Engine.Run(token, def, input, func(r flows.RunRecord) { done <- r }); err != nil {
			return nil, err
		}
	}
	for range cfg.Files {
		rec := <-done
		if rec.Status != flows.StateSucceeded {
			return nil, fmt.Errorf("core: wire run %s failed: %s", rec.RunID, rec.Error)
		}
		res.Runs = append(res.Runs, rec)
	}

	// A short campaign can outrun the first heartbeat interval, which
	// would report "up" off zero completed checks, and the prober's first
	// window (interval × WindowSamples), which would snapshot the
	// optimistic score-100 default with zeroed dimensions; wait for every
	// daemon to complete one of each so the report carries measurements.
	awaitEach := func(measured func(pathID string) bool) {
		deadline := time.Now().Add(3 * time.Second)
		for _, d := range daemons {
			for !measured(d.ID) && time.Now().Before(deadline) {
				time.Sleep(20 * time.Millisecond)
			}
		}
	}
	if mon != nil {
		awaitEach(func(id string) bool {
			st, ok := mon.Health(id)
			return ok && st.Checks > 0
		})
		res.HealthChecks = map[string]uint64{}
		for _, d := range daemons {
			if st, ok := mon.Health(d.ID); ok {
				res.HealthChecks[d.ID] = st.Checks
			}
		}
	}
	if prober != nil {
		awaitEach(func(id string) bool {
			q, ok := prober.Quality(id)
			return ok && q.Windows > 0
		})
	}

	res.IndexedRecords = dep.Index.Count()
	res.Facilities = reg.Snapshot()
	res.Placement = reg.Stats()
	// The registry's scheduler never ran a job — compute happened on the
	// daemons — so ask each daemon how many dispatches it served.
	res.Jobs = map[string]int{}
	for _, d := range daemons {
		cl := &wire.Client{Addr: d.Root, Token: token, Timeout: 5 * time.Second}
		if st, _, err := cl.Status(0); err == nil {
			res.Jobs[d.ID] = st.Jobs
		}
		cl.Close()
	}
	return res, nil
}

// WriteSyntheticAcquisition stages one synthetic acquisition file of the
// given kind, seeded by idx so every file's content — and therefore its
// checksum and its catalog record — is distinct.
func WriteSyntheticAcquisition(path, kind string, idx int) error {
	acq := &metadata.Acquisition{
		SampleName: fmt.Sprintf("wire-sample-%03d", idx),
		Operator:   "N. Zaluzec",
		Collected:  time.Date(2023, 6, 5, 14, 30, 0, 0, time.UTC).Add(time.Duration(idx) * time.Minute),
	}
	if kind == "spatiotemporal" {
		s := synth.GenerateSpatiotemporal(synth.SpatiotemporalConfig{
			Frames: 8, Height: 48, Width: 48, Particles: 4, Seed: int64(idx + 1),
		})
		return s.WriteEMD(path, synth.DefaultMicroscope(), acq)
	}
	s, err := synth.GenerateHyperspectral(synth.HyperspectralConfig{
		Height: 24, Width: 24, Channels: 128, Seed: int64(idx + 1),
	})
	if err != nil {
		return err
	}
	return s.WriteEMD(path, synth.DefaultMicroscope(), acq)
}

// FormatWireCampaign renders a wire campaign result for the CLI.
func FormatWireCampaign(res *WireCampaignResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Wire campaign — %d run(s) over %d facility daemon(s), %.1f MB on the wire, %d record(s) published\n",
		len(res.Runs), len(res.Facilities), float64(res.BytesMoved)/1e6, res.IndexedRecords)
	fmt.Fprintf(&sb, "Placement: %d decision(s), %d failover(s)\n", res.Placement.Decisions, res.Placement.Failovers)
	w := tabwriter.NewWriter(&sb, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Facility\truns placed\tjobs\thealth\tlink score\trtt (ms)\tgoodput (Mbps)")
	for _, f := range res.Facilities {
		fmt.Fprintf(w, "%s\t%d\t%d", f.ID, f.Placed, res.Jobs[f.ID])
		if h := f.Health; h != nil {
			fmt.Fprintf(w, "\t%s (%d checks)", h.State, h.Checks)
		} else {
			fmt.Fprintf(w, "\t-")
		}
		if q := f.Quality; q != nil {
			fmt.Fprintf(w, "\t%.1f\t%.2f\t%.0f", q.Score, q.RTTMs, q.GoodputBps/1e6)
		} else {
			fmt.Fprintf(w, "\t-\t-\t-")
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	if d := res.ProbeDemo; d != nil {
		fmt.Fprintf(&sb, "Induced-latency probe demo (facility-00): baseline %.1f → degraded %.1f → recovered %.1f\n",
			d.Baseline, d.Degraded, d.Recovered)
	}
	return sb.String()
}
