package core_test

import (
	"testing"
	"time"

	"picoprobe/internal/core"
	"picoprobe/internal/flows"
	"picoprobe/internal/lab"
)

// TestFederatedDegeneracyN1 is the federation layer's load-bearing
// guarantee: with a single facility and no pin, the federated harness is
// bit-identical to the paper's single-facility experiment — same run
// counts, same per-run runtimes, same per-state timings, same scheduler
// activity — across every flow shape and transfer ablation. (During the
// federation refactor this was verified against the pre-federation
// RunExperiment implementation; RunExperiment now delegates here with
// N=1, so together with the exact Table 1 shape tests this pins the
// wrapper and the determinism of the shared path.)
func TestFederatedDegeneracyN1(t *testing.T) {
	cases := []struct {
		name string
		cfg  lab.ExperimentConfig
	}{
		{"hyperspectral", shortExperiment(lab.HyperspectralExperiment(), 15*time.Minute)},
		{"spatiotemporal", shortExperiment(lab.SpatiotemporalExperiment(), 15*time.Minute)},
		{"split", func() lab.ExperimentConfig {
			c := shortExperiment(lab.HyperspectralExperiment(), 15*time.Minute)
			c.SplitCompute = true
			return c
		}()},
		{"fanout", func() lab.ExperimentConfig {
			c := shortExperiment(lab.HyperspectralExperiment(), 15*time.Minute)
			c.FanOut = true
			return c
		}()},
		{"compressed", func() lab.ExperimentConfig {
			c := shortExperiment(lab.SpatiotemporalExperiment(), 15*time.Minute)
			c.CompressionRatio = 0.25
			return c
		}()},
		{"parallel-streams", func() lab.ExperimentConfig {
			c := shortExperiment(lab.SpatiotemporalExperiment(), 15*time.Minute)
			c.ParallelStreams = 4
			return c
		}()},
		{"noreuse", func() lab.ExperimentConfig {
			c := shortExperiment(lab.HyperspectralExperiment(), 15*time.Minute)
			c.DisableNodeReuse = true
			return c
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, err := lab.RunExperiment(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			fed, err := lab.RunFederatedExperiment(lab.FederatedConfig{
				ExperimentConfig: tc.cfg,
				Facilities:       lab.DefaultFederationSpecs(1),
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(fed.Runs) != len(base.Runs) {
				t.Fatalf("run counts differ: federated %d vs single %d", len(fed.Runs), len(base.Runs))
			}
			for i := range base.Runs {
				b, f := base.Runs[i], fed.Runs[i]
				if f.Runtime() != b.Runtime() {
					t.Fatalf("run %d runtime differs: federated %v vs single %v", i, f.Runtime(), b.Runtime())
				}
				if len(f.States) != len(b.States) {
					t.Fatalf("run %d state counts differ: %d vs %d", i, len(f.States), len(b.States))
				}
				for j := range b.States {
					bs, fs := b.States[j], f.States[j]
					if fs.Name != bs.Name || !fs.DetectedAt.Equal(bs.DetectedAt) || fs.Active() != bs.Active() {
						t.Fatalf("run %d state %s differs: %+v vs %+v", i, bs.Name, fs, bs)
					}
				}
			}
			bs, fs := base.SchedulerStats, fed.SchedulerStats
			if fs.JobsRun != bs.JobsRun || fs.Provisions != bs.Provisions || fs.Warmups != bs.Warmups {
				t.Errorf("scheduler stats differ: federated %+v vs single %+v", fs, bs)
			}
			if fed.IndexedRecords != base.IndexedRecords {
				t.Errorf("indexed records differ: %d vs %d", fed.IndexedRecords, base.IndexedRecords)
			}
			// All placements land on the lone facility without failovers.
			if fed.Placement.Failovers != 0 {
				t.Errorf("N=1 federation failed over %d times", fed.Placement.Failovers)
			}
			if got := fed.Placement.RunsByFacility[core.EndpointEagle]; got != len(fed.Runs) {
				t.Errorf("placements at the lone facility = %d, runs = %d", got, len(fed.Runs))
			}
		})
	}
}

// TestFederatedScenarioFailsOver drives the showcase scenario: three
// asymmetric facilities with a mid-experiment outage of the primary.
// Placement must route around the outage (failing over in-flight runs and
// re-staging their data), every run must still succeed, and the pacing —
// hence the Table 1 run count — must be unchanged.
func TestFederatedScenarioFailsOver(t *testing.T) {
	cfg := lab.FederatedScenario()
	res, err := lab.RunFederatedExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pacing unchanged: the paper's 72 hyperspectral runs.
	if got := res.Table1().TotalRuns; got != lab.PaperTable1Hyperspectral.TotalRuns {
		t.Errorf("total runs = %d, want %d", got, lab.PaperTable1Hyperspectral.TotalRuns)
	}
	for _, run := range res.Runs {
		if run.Status != flows.StateSucceeded {
			t.Fatalf("run %s: %s", run.RunID, run.Error)
		}
	}
	st := res.Placement
	if st.Failovers == 0 || st.OutageFailovers == 0 {
		t.Fatalf("no outage failovers recorded: %+v", st)
	}
	if st.FailoversFrom[core.EndpointEagle] == 0 {
		t.Errorf("failovers should leave the primary: %+v", st.FailoversFrom)
	}
	used := 0
	for _, n := range st.RunsByFacility {
		if n > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("placements used %d facilities, want >= 2: %+v", used, st.RunsByFacility)
	}
	// At least one run whose transfer landed before the outage must have
	// re-staged its data when the analysis failed over.
	if st.Restages == 0 {
		t.Error("no run re-staged data after failover")
	}
}

// TestFederatedBeatsPinnedQueueWait is the acceptance check behind
// BenchmarkFederatedPlacement: under the contention workload, queue-wait-
// aware placement across three facilities must show far lower p50/p95
// compute queue waits than pinning every flow to one facility of the same
// total capacity.
func TestFederatedBeatsPinnedQueueWait(t *testing.T) {
	pinned, err := lab.RunFederatedExperiment(lab.FederationContentionScenario(true))
	if err != nil {
		t.Fatal(err)
	}
	fed, err := lab.RunFederatedExperiment(lab.FederationContentionScenario(false))
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Runs) != len(pinned.Runs) {
		t.Fatalf("workloads differ: %d vs %d runs", len(fed.Runs), len(pinned.Runs))
	}
	if fed.QueueWaitP95 >= pinned.QueueWaitP95/2 {
		t.Errorf("federated p95 wait %v not well below pinned %v", fed.QueueWaitP95, pinned.QueueWaitP95)
	}
	if fed.QueueWaitP50 >= pinned.QueueWaitP50 {
		t.Errorf("federated p50 wait %v not below pinned %v", fed.QueueWaitP50, pinned.QueueWaitP50)
	}
	// The pinned baseline must actually have routed everything to one
	// facility.
	if n := pinned.Placement.RunsByFacility[core.EndpointEagle]; n != len(pinned.Runs) {
		t.Errorf("pinned baseline spread load: %+v", pinned.Placement.RunsByFacility)
	}
	if n := fed.Placement.RunsByFacility[core.EndpointEagle]; n == len(fed.Runs) {
		t.Error("federated run never left the first facility")
	}
}
