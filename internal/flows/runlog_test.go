package flows

import (
	"testing"
	"time"

	"picoprobe/internal/durable"
	"picoprobe/internal/sim"
)

// runLogFlows drives a succeeding and a failing run through an engine
// wired to the given run log, using the simulation kernel for determinism.
func runLogFlows(t *testing.T, k *sim.Kernel, log *RunLog) (good, bad RunRecord) {
	t.Helper()
	e := NewEngine(k, Options{Policy: Constant{Interval: time.Second}, RunLog: log})
	e.RegisterProvider(newFake("work", k, 3*time.Second))
	e.RegisterProvider(newFailing("broken", k, time.Second))

	okDef := Definition{Name: "ok-flow", States: []StateDef{
		{Name: "A", Provider: "work"},
		{Name: "B", Provider: "work"},
	}}.Linear()
	badDef := Definition{Name: "bad-flow", States: []StateDef{
		{Name: "Only", Provider: "broken", Retries: NoRetries},
	}}
	var recs []RunRecord
	for _, def := range []Definition{okDef, badDef} {
		if _, err := e.Run("tok", def, map[string]any{"file": def.Name + ".emd"}, func(r RunRecord) {
			recs = append(recs, r)
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if len(recs) != 2 {
		t.Fatalf("got %d terminal records", len(recs))
	}
	for _, r := range recs {
		if r.Flow == "ok-flow" {
			good = r
		} else {
			bad = r
		}
	}
	if good.Status != StateSucceeded || bad.Status != StateFailed {
		t.Fatalf("statuses: %s / %s", good.Status, bad.Status)
	}
	return good, bad
}

// A restarted engine restored from the run log must list the prior
// campaign's terminal runs — success and failure alike — with their run
// IDs, per-state records and error strings intact.
func TestRunLogRestoreListsPriorRuns(t *testing.T) {
	dir := t.TempDir()
	log, recovered, _, err := OpenRunLog(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh dir recovered %d runs", len(recovered))
	}
	k := sim.NewKernel()
	good, bad := runLogFlows(t, k, log)
	if err := log.Err(); err != nil {
		t.Fatalf("journal err: %v", err)
	}
	log.Close()

	log2, recs, stats, err := OpenRunLog(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if stats.Records != 2 || len(recs) != 2 {
		t.Fatalf("recovered %d records (stats %+v)", len(recs), stats)
	}

	e2 := NewEngine(sim.NewKernel(), Options{})
	e2.Restore(recs)
	runs := e2.Runs()
	if len(runs) != 2 {
		t.Fatalf("restored engine lists %d runs", len(runs))
	}
	got, ok := e2.Record(good.RunID)
	if !ok || got.Status != StateSucceeded || len(got.States) != len(good.States) {
		t.Fatalf("restored good run = %+v", got)
	}
	if got.States[0].Name != good.States[0].Name || !got.States[0].Completed.Equal(good.States[0].Completed) {
		t.Errorf("state detail lost: %+v vs %+v", got.States[0], good.States[0])
	}
	gotBad, ok := e2.Record(bad.RunID)
	if !ok || gotBad.Status != StateFailed || gotBad.Error != bad.Error {
		t.Fatalf("restored failed run = %+v", gotBad)
	}
}

// Restored run IDs must advance the engine's counter so new runs never
// collide with journaled ones.
func TestRestoreAdvancesRunIDs(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Constant{Interval: time.Second}})
	e.Restore([]RunRecord{{RunID: "run-000007", Flow: "f", Status: StateSucceeded}})
	e.RegisterProvider(newFake("work", k, time.Second))
	id, err := e.Run("tok", Definition{Name: "f", States: []StateDef{{Name: "A", Provider: "work"}}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if id != "run-000008" {
		t.Fatalf("new run ID = %s, want run-000008", id)
	}
}

// A re-journaled run ID (checkpoint retry) replaces the earlier record at
// recovery instead of listing the run twice.
func TestRunLogDedupsByRunID(t *testing.T) {
	dir := t.TempDir()
	log, _, _, err := OpenRunLog(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log.Append(RunRecord{RunID: "run-000001", Flow: "f", Status: StateFailed, Error: "first try"})
	log.Append(RunRecord{RunID: "run-000001", Flow: "f", Status: StateSucceeded})
	log.Close()
	_, recs, _, err := OpenRunLog(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Status != StateSucceeded {
		t.Fatalf("recs = %+v", recs)
	}
}

// Compact folds the records into a snapshot; recovery afterwards reads
// the snapshot plus any newer appends.
func TestRunLogCompact(t *testing.T) {
	dir := t.TempDir()
	log, _, _, err := OpenRunLog(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log.Append(RunRecord{RunID: "run-000001", Flow: "f", Status: StateSucceeded})
	log.Append(RunRecord{RunID: "run-000002", Flow: "f", Status: StateSucceeded})
	if err := log.Compact([]RunRecord{
		{RunID: "run-000001", Flow: "f", Status: StateSucceeded},
		{RunID: "run-000002", Flow: "f", Status: StateSucceeded},
	}); err != nil {
		t.Fatal(err)
	}
	log.Append(RunRecord{RunID: "run-000003", Flow: "f", Status: StateFailed, Error: "late"})
	log.Close()

	_, recs, stats, err := OpenRunLog(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotLSN == 0 || stats.Records != 1 {
		t.Fatalf("stats = %+v, want snapshot + 1 tail record", stats)
	}
	if len(recs) != 3 || recs[2].RunID != "run-000003" {
		t.Fatalf("recs = %+v", recs)
	}
}
