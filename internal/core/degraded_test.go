package core_test

import (
	"testing"

	"picoprobe/internal/core"
	"picoprobe/internal/flows"
	"picoprobe/internal/lab"
)

// TestFederatedDegradedSheddingBeatsStatic drives the WAN-squall
// scenario in both arms. The static arm keeps herding transfers onto the
// crawling primary — attempts burn their two-minute deadlines and the
// backlog flushes into the primary's queue when the squall lifts. The
// probe arm sheds the degraded path: every run completes with zero
// transfer timeouts and a far lower p95 queue wait.
func TestFederatedDegradedSheddingBeatsStatic(t *testing.T) {
	static, err := lab.RunFederatedExperiment(lab.FederatedDegradedScenario(false))
	if err != nil {
		t.Fatal(err)
	}
	probe, err := lab.RunFederatedExperiment(lab.FederatedDegradedScenario(true))
	if err != nil {
		t.Fatal(err)
	}

	countFailed := func(res *lab.FederatedResult) int {
		n := 0
		for _, r := range res.Runs {
			if r.Status != flows.StateSucceeded {
				n++
			}
		}
		return n
	}
	// The copy application is open-loop: both arms must pace identically.
	if len(probe.Runs) != len(static.Runs) || len(probe.Runs) == 0 {
		t.Fatalf("run counts differ: probe %d vs static %d", len(probe.Runs), len(static.Runs))
	}
	if f := countFailed(probe); f != 0 {
		t.Errorf("probe arm: %d of %d runs failed", f, len(probe.Runs))
	}
	if f := countFailed(static); f != 0 {
		// The deep retry budget must carry even the static arm through.
		t.Errorf("static arm: %d of %d runs failed", f, len(static.Runs))
	}

	// The squall must actually bite the static arm...
	if static.TransferTimeouts == 0 {
		t.Error("static arm saw no transfer timeouts; the squall is toothless")
	}
	// ...while quality-aware shedding avoids every deadline.
	if probe.TransferTimeouts != 0 {
		t.Errorf("probe arm hit %d transfer timeouts, want 0", probe.TransferTimeouts)
	}
	if probe.Placement.DegradedFailovers < 1 {
		t.Errorf("probe arm recorded %d degraded failovers, want >= 1 (sticky runs must re-route)",
			probe.Placement.DegradedFailovers)
	}
	if static.Placement.DegradedFailovers != 0 {
		t.Errorf("static arm recorded %d degraded failovers with no probe attached",
			static.Placement.DegradedFailovers)
	}

	// Shedding beats static placement on p95 queue wait by a wide margin
	// (observed ~45 s vs ~8 min 50 s; the 2x bound leaves headroom).
	if probe.QueueWaitP95*2 >= static.QueueWaitP95 {
		t.Errorf("p95 queue wait: probe %v vs static %v — shedding should win by > 2x",
			probe.QueueWaitP95, static.QueueWaitP95)
	}
	// Fewer runs land on the squalled primary when its path is scored.
	if probe.Placement.RunsByFacility[core.EndpointEagle] >= static.Placement.RunsByFacility[core.EndpointEagle] {
		t.Errorf("primary placements: probe %d vs static %d — shedding should reduce them",
			probe.Placement.RunsByFacility[core.EndpointEagle], static.Placement.RunsByFacility[core.EndpointEagle])
	}

	// Quality blocks surface in the probe arm's snapshots and stay nil in
	// the static arm's.
	for i, f := range probe.Facilities {
		if f.Quality == nil {
			t.Errorf("probe arm facility %d (%s) has no quality block", i, f.ID)
		}
	}
	for i, f := range static.Facilities {
		if f.Quality != nil {
			t.Errorf("static arm facility %d (%s) has a quality block: %+v", i, f.ID, f.Quality)
		}
	}
}

// TestFederatedDegradedDeterministic pins determinism through the
// degradation, probe, shedding and adaptive-transfer machinery: two
// identical probe-arm runs produce identical timelines.
func TestFederatedDegradedDeterministic(t *testing.T) {
	a, err := lab.RunFederatedExperiment(lab.FederatedDegradedScenario(true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := lab.RunFederatedExperiment(lab.FederatedDegradedScenario(true))
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
	if a.QueueWaitP95 != b.QueueWaitP95 || a.TransferTimeouts != b.TransferTimeouts {
		t.Errorf("telemetry differs: p95 %v/%v timeouts %d/%d",
			a.QueueWaitP95, b.QueueWaitP95, a.TransferTimeouts, b.TransferTimeouts)
	}
}

// TestFederatedObserveOnlyProbingKeepsTimelines is the harness-level
// degeneracy gate: over a healthy network, attaching an observe-only
// prober (low water 0, no adaptive transfer) must leave every run's
// timeline bit-identical to the probe-disabled build — the prober's
// kernel events and measured-goodput ECT refinement (goodput capped by
// the stream cap on a healthy path) must be invisible.
func TestFederatedObserveOnlyProbingKeepsTimelines(t *testing.T) {
	cfg := lab.FederationContentionScenario(false)
	base, err := lab.RunFederatedExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Probe = &lab.ProbeConfig{} // observe-only: LowWater 0, no tuners
	probed, err := lab.RunFederatedExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(probed.Runs) != len(base.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(probed.Runs), len(base.Runs))
	}
	for i := range base.Runs {
		br, pr := base.Runs[i], probed.Runs[i]
		if pr.Runtime() != br.Runtime() {
			t.Fatalf("run %d runtime differs: probed %v vs base %v", i, pr.Runtime(), br.Runtime())
		}
		if len(pr.States) != len(br.States) {
			t.Fatalf("run %d state counts differ", i)
		}
		for j := range br.States {
			bs, ps := br.States[j], pr.States[j]
			if ps.Name != bs.Name || !ps.DetectedAt.Equal(bs.DetectedAt) || ps.Active() != bs.Active() {
				t.Fatalf("run %d state %s differs: %+v vs %+v", i, bs.Name, ps, bs)
			}
		}
	}
	if probed.Placement.Decisions != base.Placement.Decisions ||
		probed.Placement.Failovers != base.Placement.Failovers {
		t.Errorf("placement stats differ: probed %+v vs base %+v", probed.Placement, base.Placement)
	}
	// Observe-only still surfaces quality in the snapshots.
	quality := 0
	for _, f := range probed.Facilities {
		if f.Quality != nil {
			quality++
		}
	}
	if quality != len(probed.Facilities) {
		t.Errorf("observe-only run measured %d of %d facilities", quality, len(probed.Facilities))
	}
	// Per-run placements must also match facility-for-facility.
	for fac, n := range base.Placement.RunsByFacility {
		if probed.Placement.RunsByFacility[fac] != n {
			t.Errorf("placements at %s differ: probed %d vs base %d",
				fac, probed.Placement.RunsByFacility[fac], n)
		}
	}
}

// TestDegradedScenarioSquallIsProbeVisible sanity-checks the scenario
// wiring itself: mid-squall, the primary's measured quality collapses
// below the low-water mark while the other facilities stay healthy. The
// probe arm's END-of-run snapshot (post-squall) must show the primary
// recovered — degradation must not leak past its window.
func TestDegradedScenarioSquallIsProbeVisible(t *testing.T) {
	res, err := lab.RunFederatedExperiment(lab.FederatedDegradedScenario(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Facilities {
		if f.Quality == nil {
			t.Fatalf("facility %s unmeasured", f.ID)
		}
		if f.Quality.Degraded {
			t.Errorf("facility %s still degraded after the squall ended: %+v", f.ID, f.Quality)
		}
		if f.Quality.Score < 90 {
			t.Errorf("facility %s post-squall score = %.1f, want recovered (>= 90)", f.ID, f.Quality.Score)
		}
	}
	// The scenario must have actually failed over at least one sticky run
	// with the degraded cause and re-staged its data.
	if res.Placement.DegradedFailovers < 1 || res.Placement.Restages < 1 {
		t.Errorf("placement = %+v, want >= 1 degraded failover and >= 1 restage", res.Placement)
	}
}
