// Ingest: the acquisition-side data plane (DESIGN.md §8) under fire. A
// simulated detector burst renames six files into the instrument's
// transfer directory; the watcher announces them, the batcher — idle, so
// it waits only for the directory to go quiet — hands the burst over as
// one multi-file transfer task under a bytes-in-flight budget, and
// the chunk mover starts moving it over four concurrent streams —
// until an injected fault kills the transfer mid-flight. The walkthrough
// then "reboots" the transfer service and shows chunk-level resume: the
// resubmitted task re-moves only the chunks the manifest has not verified
// yet, so the retry cost is the remaining bytes, not the whole burst.
//
//	go run ./examples/ingest
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/transfer"
	"picoprobe/internal/watcher"
)

const (
	fileBytes  = 1 << 20 // 1 MB per burst file
	chunkBytes = 128 << 10
	streams    = 4
)

func main() {
	work, err := os.MkdirTemp("", "picoprobe-ingest")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(work)
	instrument := filepath.Join(work, "instrument")
	eagle := filepath.Join(work, "eagle")
	manifests := filepath.Join(work, "manifests")
	staging := filepath.Join(work, "staging")
	for _, d := range []string{instrument, eagle, staging} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	// --- 1. the detector burst, settled and batched --------------------
	w, err := watcher.New(instrument, watcher.Options{
		Interval:    5 * time.Millisecond,
		SettlePolls: 2,
		Pattern:     "*.emdg",
		// Restart-safe: a rebooted watcher does not re-trigger the burst.
		CheckpointPath: filepath.Join(work, "watch-checkpoint.json"),
	})
	if err != nil {
		log.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	batcher := watcher.NewBatcher(w.Events(), watcher.BatchOptions{
		MaxBatchFiles: 8,
		BudgetBytes:   64 << 20,
	})

	// The burst is written beside the watched directory and renamed in, as
	// an instrument's acquisition software does: the six files then appear
	// complete and back to back, where writing them in place would close
	// them a write apart and an idle pipeline would rightly start on the
	// first ones alone.
	fmt.Println("detector burst: 6 files hit the transfer directory")
	rng := rand.New(rand.NewSource(42))
	var names []string
	for i := 0; i < 6; i++ {
		payload := make([]byte, fileBytes)
		rng.Read(payload)
		name := fmt.Sprintf("burst-%02d.emdg", i)
		if err := os.WriteFile(filepath.Join(staging, name), payload, 0o644); err != nil {
			log.Fatal(err)
		}
		names = append(names, name)
	}
	for _, name := range names {
		if err := os.Rename(filepath.Join(staging, name), filepath.Join(instrument, name)); err != nil {
			log.Fatal(err)
		}
	}

	batch := <-batcher.Batches()
	var files []transfer.FileSpec
	for _, ev := range batch.Files {
		rel, _ := filepath.Rel(instrument, ev.Path)
		files = append(files, transfer.FileSpec{RelPath: rel})
	}
	fmt.Printf("batcher coalesced the burst: batch #%d, %d files, %.1f MB as ONE transfer task\n\n",
		batch.Seq, len(batch.Files), float64(batch.Bytes)/1e6)

	// --- 2. the chunked transfer, killed mid-flight ---------------------
	issuer := auth.NewIssuer([]byte("ingest-example"), nil)
	token, err := issuer.Issue("operator@picoprobe", []string{auth.ScopeTransfer}, time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	totalChunks := 6 * (fileBytes / chunkBytes)
	killAt := totalChunks / 3

	svc1 := transfer.NewService(issuer, &transfer.ChunkMover{
		ChunkBytes:      chunkBytes,
		Streams:         streams,
		ManifestDir:     manifests,
		KillAfterChunks: killAt, // the injected mid-flight crash
	}, time.Now, transfer.Options{MaxAttempts: 1})
	svc1.RegisterEndpoint(transfer.Endpoint{ID: "instrument", Root: instrument})
	svc1.RegisterEndpoint(transfer.Endpoint{ID: "eagle", Root: eagle})

	fmt.Printf("moving %d chunks of %d KB over %d streams — killing the transfer after %d chunks...\n",
		totalChunks, chunkBytes>>10, streams, killAt)
	id1, err := svc1.Submit(token, "instrument", "eagle", files)
	if err != nil {
		log.Fatal(err)
	}
	v1 := waitDone(svc1, token, id1)
	fmt.Printf("  task %s: %s (%s)\n", v1.ID, v1.Status, v1.Error)
	fmt.Printf("  chunks moved before the crash: %d/%d (%.1f MB verified in the manifest)\n\n",
		v1.ChunksMoved, v1.ChunksTotal, float64(v1.BytesCopied)/1e6)

	// --- 3. reboot, resubmit, resume ------------------------------------
	fmt.Println("\"rebooting\" the transfer service (fresh mover, same manifest directory)...")
	svc2 := transfer.NewService(issuer, &transfer.ChunkMover{
		ChunkBytes:  chunkBytes,
		Streams:     streams,
		ManifestDir: manifests,
	}, time.Now, transfer.Options{})
	svc2.RegisterEndpoint(transfer.Endpoint{ID: "instrument", Root: instrument})
	svc2.RegisterEndpoint(transfer.Endpoint{ID: "eagle", Root: eagle})
	id2, err := svc2.Submit(token, "instrument", "eagle", files)
	if err != nil {
		log.Fatal(err)
	}
	v2 := waitDone(svc2, token, id2)
	fmt.Printf("  task %s: %s\n", v2.ID, v2.Status)
	fmt.Printf("  chunk-level resume: skipped %d already-verified chunks, re-moved only %d (%.1f MB instead of %.1f MB)\n",
		v2.ChunksSkipped, v2.ChunksMoved,
		float64(v2.BytesCopied)/1e6, float64(v2.BytesMoved)/1e6)
	if v2.Status != transfer.StatusSucceeded {
		log.Fatalf("resume failed: %s", v2.Error)
	}
	batcher.Done(batch)

	saved := float64(v2.ChunksSkipped) / float64(v2.ChunksTotal) * 100
	fmt.Printf("\nretry cost is O(remaining chunks): %.0f%% of the burst never crossed the wire twice.\n", saved)
	fmt.Println("every file landed SHA-256-verified (per-chunk digests + whole-file verified merge).")
	st := w.Stats()
	fmt.Printf("watcher: close detection %s; %d file(s) by close notification, %d by scan, %d checkpoint save(s)\n",
		st.Detection, st.ByNotify, st.ByScan, st.CheckpointSaves)
	if err := w.CheckpointErr(); err != nil {
		fmt.Printf("watcher: checkpoint is NOT being saved — a restart would re-trigger the burst: %v\n", err)
	}
}

// waitDone polls a task to a terminal state.
func waitDone(svc *transfer.Service, token, id string) transfer.TaskView {
	for {
		view, err := svc.Status(token, id)
		if err != nil {
			log.Fatal(err)
		}
		if view.Status != transfer.StatusActive {
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
}
