package core_test

import (
	"fmt"
	"testing"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/core"
	"picoprobe/internal/flows"
	"picoprobe/internal/lab"
	"picoprobe/internal/search"
	"picoprobe/internal/sim"
)

// TestChunkedExperimentDegeneracy pins the rework's central promise: the
// chunk engine configured degenerately (one chunk >= the file size, a
// single stream) reproduces the whole-file experiment timeline
// bit-identically — same run count, same per-run runtimes, same per-state
// timings — so the Table 1 / Fig 4 reproductions are untouched by the
// ingest data plane.
func TestChunkedExperimentDegeneracy(t *testing.T) {
	for _, kind := range []string{"hyperspectral", "spatiotemporal"} {
		t.Run(kind, func(t *testing.T) {
			cfg := shortExperiment(lab.HyperspectralExperiment(), 15*time.Minute)
			if kind == "spatiotemporal" {
				cfg = shortExperiment(lab.SpatiotemporalExperiment(), 15*time.Minute)
			}
			base, err := lab.RunExperiment(cfg)
			if err != nil {
				t.Fatal(err)
			}
			chunked := cfg
			chunked.TransferChunkBytes = cfg.FileBytes * 2 // one chunk per file
			chunked.ParallelStreams = 1
			got, err := lab.RunExperiment(chunked)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Runs) != len(base.Runs) {
				t.Fatalf("run counts differ: chunked %d vs whole-file %d", len(got.Runs), len(base.Runs))
			}
			for i := range base.Runs {
				b, g := base.Runs[i], got.Runs[i]
				if g.Runtime() != b.Runtime() {
					t.Fatalf("run %d runtime differs: chunked %v vs whole-file %v", i, g.Runtime(), b.Runtime())
				}
				for j := range b.States {
					bs, gs := b.States[j], g.States[j]
					if gs.Name != bs.Name || !gs.DetectedAt.Equal(bs.DetectedAt) || gs.Active() != bs.Active() {
						t.Fatalf("run %d state %s differs: %+v vs %+v", i, bs.Name, gs, bs)
					}
				}
			}
			if got.IndexedRecords != base.IndexedRecords {
				t.Errorf("indexed records differ: %d vs %d", got.IndexedRecords, base.IndexedRecords)
			}
		})
	}
}

// TestChunkedMultiStreamAcceleratesTransfer: chunked framing over several
// streams must beat the whole-file single-stream transfer stage (the
// stream cap, not the links, binds the paper's deployment).
func TestChunkedMultiStreamAcceleratesTransfer(t *testing.T) {
	base := shortExperiment(lab.SpatiotemporalExperiment(), 15*time.Minute)
	whole, err := lab.RunExperiment(base)
	if err != nil {
		t.Fatal(err)
	}
	chunked := base
	chunked.TransferChunkBytes = 64_000_000
	chunked.ParallelStreams = 4
	fast, err := lab.RunExperiment(chunked)
	if err != nil {
		t.Fatal(err)
	}
	wholeRow, fastRow := whole.Table1(), fast.Table1()
	if fastRow.TotalRuns < wholeRow.TotalRuns {
		t.Errorf("chunked runs = %d < whole-file %d", fastRow.TotalRuns, wholeRow.TotalRuns)
	}
	transferMed := func(res *lab.ExperimentResult) float64 {
		for _, s := range res.Stages() {
			if s.Name == "Transfer" {
				return s.ActiveMedS
			}
		}
		t.Fatal("no Transfer stage")
		return 0
	}
	w, f := transferMed(whole), transferMed(fast)
	if f >= w*0.5 {
		t.Errorf("chunked 4-stream transfer med %.1fs not well below whole-file %.1fs", f, w)
	}
}

// TestPublicationBatchingCoalesces drives three publication actions due
// at the same kernel instant and checks they land in the index through a
// single IngestBatch, with each action still completing exactly at its
// own invoke+cost instant.
func TestPublicationBatchingCoalesces(t *testing.T) {
	k := sim.NewKernel()
	issuer := auth.NewIssuer([]byte("t"), k.Now)
	token, err := issuer.Issue("t", []string{auth.ScopeSearchIngest}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	index := search.NewIndex()
	const cost = 3 * time.Second
	prov, stats := core.NewSearchProviderWithStats(k, issuer, index, cost)

	var ids []string
	var invokedAt time.Time
	k.Spawn("pub", func(ctx sim.Context) {
		ctx.Sleep(time.Second)
		invokedAt = ctx.Now()
		for i := 0; i < 3; i++ {
			id, err := prov.Invoke(token, map[string]any{
				"entry_json": fmt.Sprintf(`{"id":"rec-%d","text":"batched publication","date":"2023-06-05T00:00:00Z"}`, i),
			})
			if err != nil {
				t.Error(err)
				return
			}
			ids = append(ids, id)
		}
	})
	k.Run()
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
	if index.Count() != 3 {
		t.Fatalf("index count = %d, want 3", index.Count())
	}
	st := stats()
	if st.Actions != 3 || st.Batches != 1 || st.Entries != 3 || st.MaxBatch != 3 {
		t.Errorf("publish stats = %+v, want 3 actions coalesced into 1 batch of 3", st)
	}
	for _, id := range ids {
		as, err := prov.Status(token, id)
		if err != nil {
			t.Fatal(err)
		}
		if as.State != flows.StateSucceeded {
			t.Fatalf("action %s state = %s (%s)", id, as.State, as.Error)
		}
		if got := as.Completed.Sub(invokedAt); got != cost {
			t.Errorf("action %s completed %v after invoke, want exactly %v", id, got, cost)
		}
	}
}

// TestPublicationSequentialUnchanged pins the degenerate publication
// path: actions invoked at distinct instants each flush alone (batch size
// 1) and complete exactly cost after their own invocation — the
// pre-batching timeline.
func TestPublicationSequentialUnchanged(t *testing.T) {
	k := sim.NewKernel()
	issuer := auth.NewIssuer([]byte("t"), k.Now)
	token, err := issuer.Issue("t", []string{auth.ScopeSearchIngest}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	index := search.NewIndex()
	prov, stats := core.NewSearchProviderWithStats(k, issuer, index, 2*time.Second)
	k.Spawn("pub", func(ctx sim.Context) {
		for i := 0; i < 3; i++ {
			if _, err := prov.Invoke(token, map[string]any{
				"entry_json": fmt.Sprintf(`{"id":"seq-%d","text":"x","date":"2023-06-05T00:00:00Z"}`, i),
			}); err != nil {
				t.Error(err)
			}
			ctx.Sleep(10 * time.Second)
		}
	})
	k.Run()
	if st := stats(); st.Batches != 3 || st.MaxBatch != 1 {
		t.Errorf("publish stats = %+v, want 3 solo batches", st)
	}
	if index.Count() != 3 {
		t.Errorf("index count = %d", index.Count())
	}
}
