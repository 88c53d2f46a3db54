package core

import (
	"os"
	"path/filepath"
	"testing"

	"picoprobe/internal/flows"
)

// TestLiveBatchFlow runs the watcher-batch shape end to end on a real
// deployment: one chunked multi-stream transfer task carries two files,
// the analyses run as concurrent DAG states, and one publication ingests
// both records through IngestBatch.
func TestLiveBatchFlow(t *testing.T) {
	instrument, eagle, outDir := t.TempDir(), t.TempDir(), t.TempDir()
	writeHyperspectralFile(t, instrument, "a.emdg")
	writeHyperspectralFile(t, instrument, "b.emdg")

	dep, err := NewLiveDeployment(LiveOptions{
		InstrumentRoot:     instrument,
		EagleRoot:          eagle,
		OutDir:             outDir,
		TransferChunkBytes: 64 << 10,
		TransferStreams:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := dep.RunBatch("hyperspectral", []string{"a.emdg", "b.emdg"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != flows.StateSucceeded {
		t.Fatal(rec.Error)
	}
	wantStates := []string{"Transfer", "Analysis-00", "Analysis-01", "Publication"}
	if len(rec.States) != len(wantStates) {
		t.Fatalf("states = %d, want %d", len(rec.States), len(wantStates))
	}
	seen := map[string]bool{}
	for _, s := range rec.States {
		seen[s.Name] = true
	}
	for _, name := range wantStates {
		if !seen[name] {
			t.Errorf("missing state %s", name)
		}
	}
	for _, name := range []string{"a.emdg", "b.emdg"} {
		if _, err := os.Stat(filepath.Join(eagle, name)); err != nil {
			t.Errorf("%s not landed on Eagle", name)
		}
	}
	// Both files analyzed under the same sample produce the same record
	// ID, so the batch publication must have replaced, not duplicated.
	if dep.Index.Count() < 1 {
		t.Errorf("index count = %d", dep.Index.Count())
	}
	// One transfer task, two files, chunked.
	tasks := dep.Transfer.Tasks()
	if len(tasks) != 1 {
		t.Fatalf("transfer tasks = %d, want 1 (batched)", len(tasks))
	}
	if tasks[0].ChunksTotal < 2 {
		t.Errorf("chunks total = %d, want chunked framing", tasks[0].ChunksTotal)
	}
}
