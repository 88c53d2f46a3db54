// Command picoprobe-watch is the instrument-side trigger application: it
// watches a transfer directory (announcing a file when the kernel reports
// it closed or renamed in — Linux inotify — or, everywhere and as the
// fallback, when its size has settled; with a restart-safe checkpoint),
// coalesces complete files into multi-file batches under a
// bytes-in-flight budget, and starts one live batch flow per batch — the
// paper's watchdog-based application over the chunked resumable ingest
// data plane. With -facility the files go to a picoprobe-facilityd daemon
// over TCP, which lands and analyses them (the link the paper is about:
// transfers ride out a daemon restart on spaced retries and the chunk
// manifest); without it the facility side runs in-process under -workdir.
//
// Usage:
//
//	picoprobe-watch -dir ./instrument -kind hyperspectral [-workdir ./picoprobe-work]
//	               [-facility host:port [-secret ...]]
//	               [-batch-files 8] [-batch-bytes N] [-inflight N]
//	               [-chunk 64MB] [-streams 4] [-count 0]
//
// Batching: one batch flow runs at a time. An idle pipeline starts a
// closed file's flow as soon as the directory has been quiet for a few
// milliseconds (a burst renamed in together stays one batch); files
// closed while a flow runs wait for it and leave together as the next
// batch (at most -batch-files files / -batch-bytes bytes per batch), and
// new batches are withheld while more than -inflight bytes are still
// being processed. Transfers move in -chunk-sized chunks over
// -streams concurrent streams with manifest-based resume (a file no bigger
// than one chunk moves as one); 0 for either means the default. With
// -count N the command exits after N files (useful for scripted demos); 0
// means run until interrupted: the first interrupt stops watching, lets
// the batch in flight finish and prints the exit summary.
//
// The banner names the close signal in use ("close detection: inotify +
// 200ms scan", or "200ms × 2 scan (inotify unavailable: …)"), the exit
// line counts the files each signal found, the batches they left in (with
// the mean files per batch: 1 on an idle pipeline, more under load) and
// the files whose batch flow failed (they are checkpointed already and
// named when they fail: rename or touch one to trigger it again), and a
// checkpoint that cannot be saved — a full or read-only disk, after which
// a restart re-triggers every file — is logged when it starts failing and
// when it recovers.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"picoprobe/internal/core"
	"picoprobe/internal/watcher"
)

func main() {
	dir := flag.String("dir", "", "directory to watch (required)")
	kind := flag.String("kind", "hyperspectral", "hyperspectral or spatiotemporal")
	workdir := flag.String("workdir", "picoprobe-work", "working directory: the watch checkpoint and, without -facility, the eagle/artifact roots")
	facility := flag.String("facility", "", "host:port of a picoprobe-facilityd to transfer to and analyse on (empty = in-process)")
	secret := flag.String("secret", core.WireSecretDefault, "shared secret of the -facility daemon (its -secret)")
	pattern := flag.String("pattern", "*.emdg", "file glob to react to")
	count := flag.Int("count", 0, "exit after this many files (0 = forever)")
	batchFiles := flag.Int("batch-files", 8, "max files coalesced into one batch flow")
	batchBytes := flag.Int64("batch-bytes", 2<<30, "max bytes per batch (0 = uncapped)")
	inflight := flag.Int64("inflight", 4<<30, "bytes-in-flight backpressure budget (0 = unlimited)")
	chunk := flag.Int64("chunk", core.DefaultTransferChunkBytes, "transfer chunk size in bytes (0 = the default)")
	streams := flag.Int("streams", core.DefaultTransferStreams, "concurrent transfer streams per task (0 = the default)")
	flag.Parse()
	if *dir == "" {
		log.Fatal("-dir is required")
	}

	// The checkpoint lives here whichever deployment runs.
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		log.Fatal(err)
	}
	var dep *core.LiveDeployment
	var err error
	destination := "in-process under " + *workdir
	if *facility != "" {
		destination = "picoprobe-facilityd at " + *facility
		dep, err = core.NewWireDeployment(core.WireOptions{
			InstrumentRoot:     *dir,
			DaemonAddr:         *facility,
			Secret:             *secret,
			TransferChunkBytes: *chunk,
			TransferStreams:    *streams,
		})
	} else {
		dep, err = core.NewLiveDeployment(core.LiveOptions{
			InstrumentRoot:     *dir,
			EagleRoot:          filepath.Join(*workdir, "eagle"),
			OutDir:             filepath.Join(*workdir, "artifacts"),
			TransferChunkBytes: *chunk,
			TransferStreams:    *streams,
		})
	}
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()

	w, err := watcher.New(*dir, watcher.Options{
		Pattern:        *pattern,
		CheckpointPath: filepath.Join(*workdir, "watch-checkpoint.json"),
	})
	if err != nil {
		log.Fatal(err)
	}
	w.Start()
	batcher := watcher.NewBatcher(w.Events(), watcher.BatchOptions{
		MaxBatchFiles: *batchFiles,
		MaxBatchBytes: *batchBytes,
		BudgetBytes:   *inflight,
	})
	// A file is checkpointed when it is announced, before its flow runs
	// (at-most-once triggering), so a failed batch is never re-announced:
	// it is named when it fails and counted in the exit line.
	var failedFiles, failedBatches int
	// reportCheckpoint logs a failing checkpoint when it starts failing and
	// when it recovers, not once per batch in between.
	var checkpointErr error
	reportCheckpoint := func() {
		err := w.CheckpointErr()
		switch {
		case err != nil && checkpointErr == nil:
			log.Printf("checkpoint is NOT being saved — files announced from now on are re-triggered after a restart: %v", err)
		case err == nil && checkpointErr != nil:
			log.Printf("checkpoint is being saved again")
		}
		checkpointErr = err
	}
	defer func() {
		w.Stop()
		reportCheckpoint()
		st, bs := w.Stats(), batcher.Stats()
		fmt.Printf("announced %d file(s) by close notification, %d by scan; %d batch(es), mean %.1f file(s) per batch; %d checkpoint save(s); %d file(s) in %d failed batch(es) not published\n",
			st.ByNotify, st.ByScan, bs.Batches, float64(bs.Files)/float64(max(bs.Batches, 1)), st.CheckpointSaves, failedFiles, failedBatches)
	}()
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt)
	go func() {
		<-interrupted
		signal.Stop(interrupted) // a second interrupt quits at once
		log.Print("interrupted: finishing the batch in flight")
		w.Stop()
	}()

	fmt.Printf("watching %s for %s files (checkpointed; batches of ≤%d files, %d-byte chunks × %d streams) → %s\n",
		*dir, *pattern, *batchFiles, dep.Options.TransferChunkBytes, dep.Options.TransferStreams, destination)
	fmt.Printf("close detection: %s\n", w.Stats().Detection)
	ran := 0
	for batch := range batcher.Batches() {
		rels := make([]string, 0, len(batch.Files))
		for _, ev := range batch.Files {
			rel, err := filepath.Rel(*dir, ev.Path)
			if err != nil {
				log.Printf("skipping %s: %v", ev.Path, err)
				continue
			}
			rels = append(rels, rel)
		}
		if len(rels) == 0 {
			batcher.Done(batch)
			continue
		}
		fmt.Printf("batch #%d: %d file(s), %d bytes (%s) — starting %s batch flow\n",
			batch.Seq, len(rels), batch.Bytes, strings.Join(rels, ", "), *kind)
		rec, err := dep.RunBatch(*kind, rels)
		batcher.Done(batch)
		reportCheckpoint()
		if err != nil {
			log.Printf("flow failed: %v", err)
			log.Printf("batch #%d not published: %s — already checkpointed — rename or touch to re-trigger",
				batch.Seq, strings.Join(rels, ", "))
			failedFiles += len(rels)
			failedBatches++
			continue
		}
		fmt.Printf("  %s %s in %v; %d records indexed\n",
			rec.RunID, rec.Status, rec.Runtime().Round(1e6), dep.Index.Count())
		// Fig 4's split, live: a state's overhead is what completion
		// detection and orchestration added to the provider's own time.
		for _, st := range rec.States {
			fmt.Printf("    %-12s active=%v overhead=%v polls=%d\n",
				st.Name, st.Active().Round(1e6), st.Overhead().Round(1e6), st.Polls)
		}
		ran += len(rels)
		if *count > 0 && ran >= *count {
			return
		}
	}
}
