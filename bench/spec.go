package main

import (
	"time"

	"picoprobe/internal/metadata"
)

// Knobs mirrored from the shipped binaries' flag defaults, so the
// benchmark composes the pipeline exactly as an operator running
// picoprobe-watch, picoprobe-facilityd and picoprobe-portal would.
const (
	// cmd/picoprobe-watch: -pattern, watcher.Options defaults (200 ms
	// poll × 2 settle polls), -batch-files, -batch-bytes, -linger,
	// -inflight, -streams.
	watchPattern   = "*.emdg"
	watchInterval  = 200 * time.Millisecond
	batchFiles     = 8
	batchBytes     = int64(2) << 30
	batchLinger    = 500 * time.Millisecond
	batchInflight  = int64(4) << 30
	transferStream = 4
	// -chunk is 64 MiB in the binary, against the paper's 91 MB–1.2 GB
	// files. The benchmark's files are scaled down to fit a sandbox, and
	// the chunk with them, so a large file is still ≥ 4 chunks.
	transferChunk = int64(8) << 20
	// cmd/picoprobe-facilityd: -workers, -max-sessions.
	facilityWorkers     = 2
	facilityMaxSessions = 64

	// The instrument stand-in's own constants.
	pollStep     = 10 * time.Millisecond // visibility poll period
	fileDeadline = 60 * time.Second      // a file not queryable by then is a failed operation
	burstGap     = time.Second           // idle time between closed-loop bursts
	readerPeriod = 20 * time.Millisecond // 50 req/s open loop
	hotShare     = 0.85                  // reader requests drawn from the hot set
	tailQueries  = 2000                  // distinct two-term long-tail queries
	minFreeBytes = int64(6) << 30
	runDeadline  = 170 * time.Second // the whole invocation must end within 180 s
	// Generator lateness above this at the 90th percentile invalidates a
	// run. The p99 is what the ledger reports, but with 100–150 closes it
	// is the VM's single worst hiccup (10–70 ms once or twice a run, with
	// a median of 0.7 ms), which says nothing about keeping the schedule.
	lateLimitMS   = 10.0
	backlogLimit  = 1.5 // last-quartile ÷ first-quartile ttq above this invalidates a run
	setupRepeats  = 3   // set-ups per run; setup_s is their median
	probeRepeats  = 5
	probeChunkOps = 32
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// why is the reason the workload exists; BENCHMARK.json carries the
	// same text.
	why string
	// wire runs against a picoprobe-facilityd child through
	// core.NewWireDeployment; otherwise core.NewLiveDeployment with a
	// DurableDir (the local durable posture).
	wire bool
	kind string // metadata.KindHyperspectral or KindSpatiotemporal
	// dims is (H, W, C) for hyperspectral cubes, (T, H, W) for series.
	dims [3]int
	// Open loop: one close every spacing, filesPerSecond × -seconds files.
	// The spacings are deliberately not commensurate with the watcher's
	// 200 ms poll: at exactly 200 ms the schedule phase-locks to the poll
	// ticker and the settle time becomes one random constant per run
	// (400–600 ms) instead of sweeping that range within the run.
	spacing        time.Duration
	filesPerSecond float64
	// Closed loop: burstsPer20s × -seconds/20 measured bursts of
	// burstFiles files renamed at one instant, the next burst starting
	// burstGap after the previous is fully queryable.
	burstFiles   int
	burstsPer20s int
	// warmFiles is the untimed warm-up burst that ends set-up.
	warmFiles int
	// seedRecords pre-seeds the catalog; reader runs the open-loop query
	// mix beside ingest.
	seedRecords int
	reader      bool
}

func (w *workload) openLoop() bool { return w.spacing > 0 }

// measuredFiles is how many files the measured window closes.
func (w *workload) measuredFiles(seconds int) int {
	if w.openLoop() {
		return max(1, int(w.filesPerSecond*float64(seconds)))
	}
	return w.bursts(seconds) * w.burstFiles
}

func (w *workload) bursts(seconds int) int {
	return max(1, (w.burstsPer20s*seconds+10)/20)
}

var workloads = []*workload{
	{
		name: "steady-small",
		why:  "open loop, wire: 4 MiB cubes one per 190 ms (~25% of capacity); the scientist-at-the-microscope latency, where settle, batch wait and poll floors dominate and byte-path gains must show ~nothing",
		wire: true, kind: metadata.KindHyperspectral, dims: [3]int{64, 64, 256},
		spacing: 190 * time.Millisecond, filesPerSecond: 5, warmFiles: 8,
	},
	{
		name: "burst-large",
		why:  "closed loop, wire: bursts of 16 cubes of 32 MiB (4 chunks of 8 MiB each); transfer-bound, so the SHA-256/CRC passes and per-chunk allocations of the wire byte path dominate",
		wire: true, kind: metadata.KindHyperspectral, dims: [3]int{128, 128, 512},
		burstFiles: 16, burstsPer20s: 2, warmFiles: 8,
	},
	{
		name: "burst-spatio",
		why:  "closed loop, wire: bursts of 40 fp64 nanoparticle series of 7.5 MiB; compute-heavy (cast, detect, annotate, MJPEG on 2 workers is half of each flow), so analysis gains show and wire gains only partly",
		wire: true, kind: metadata.KindSpatiotemporal, dims: [3]int{60, 128, 128},
		burstFiles: 40, burstsPer20s: 3, warmFiles: 8,
	},
	{
		name: "portal-churn",
		why:  "open loop, local durable: 65 KiB cubes one per 130 ms into a 100k-record catalog beside a 50 req/s reader; every publish bumps the epoch, so serving and ingest gains trade off here",
		kind: metadata.KindHyperspectral, dims: [3]int{16, 16, 64},
		spacing: 130 * time.Millisecond, filesPerSecond: 7.5, warmFiles: 8,
		seedRecords: 100000, reader: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef names one ledger metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 for per-layer).
type metricDef struct {
	name, unit    string
	lowerIsBetter bool
	bound         float64
}

// endToEnd are the metrics a user of the system would see; every run
// with -trace 0 reports all of them. One bound serves all four workloads,
// so the noisiest sets it: the bursts spread 7–14 % between runs on the
// sandbox (README, "What a sandbox run cannot say"), and a bound has to
// sit well clear of the spread to mean anything.
var endToEnd = []metricDef{
	{"ttq_p50_ms", "ms", true, 0.25},
	{"ttq_p90_ms", "ms", true, 0.25},
	{"goodput_mib_s", "MiB/s", false, 0.25},
	{"cpu_s", "s", true, 0.25},
	{"setup_s", "s", true, 0.25},
}

// perLayer are the metrics of single layers; every run with -trace 1
// reports all of them, 0 where the workload does not exercise the layer.
var perLayer = []metricDef{
	{"watcher.settle_p50_ms", "ms", true, 0},
	{"watcher.batch_wait_p50_ms", "ms", true, 0},
	{"watcher.batch_files_mean", "count", false, 0},
	{"watcher.batches", "count", true, 0},
	{"flows.run_p50_ms", "ms", true, 0},
	{"flows.to_publish_p50_ms", "ms", true, 0},
	{"flows.self_p50_ms", "ms", true, 0},
	{"flows.overhead_share", "%", true, 0},
	{"flows.polls_per_run", "count", true, 0},
	{"flows.wakeups", "count", true, 0},
	{"transfer.active_p50_ms", "ms", true, 0},
	{"transfer.goodput_mib_s", "MiB/s", false, 0},
	{"transfer.chunks_moved", "count", true, 0},
	{"transfer.chunks_skipped", "count", true, 0},
	{"transfer.retries", "count", true, 0},
	{"transfer.copy_ratio", "%", true, 0},
	{"transfer.probe_file_ms", "ms", true, 0},
	{"transfer.probe_mib_s", "MiB/s", false, 0},
	{"wire.ping_p50_us", "us", true, 0},
	{"wire.write_chunk_p50_ms", "ms", true, 0},
	{"wire.write_chunk_mib_s", "MiB/s", false, 0},
	{"wire.hash_chunk_p50_ms", "ms", true, 0},
	{"wire.merge_ms", "ms", true, 0},
	{"wire.client_allocs_per_chunk", "count", true, 0},
	{"wire.client_alloc_kib_per_chunk", "KiB", true, 0},
	{"wire.dispatch_overhead_ms", "ms", true, 0},
	{"compute.active_p50_ms", "ms", true, 0},
	{"compute.queue_wait_p50_ms", "ms", true, 0},
	{"compute.busy_share", "%", false, 0},
	{"core.analyze_p50_ms", "ms", true, 0},
	{"core.analyze_mib_s", "MiB/s", false, 0},
	{"emd.read_mib_s", "MiB/s", false, 0},
	{"detect.frame_p50_ms", "ms", true, 0},
	{"search.publish_p50_ms", "ms", true, 0},
	{"search.ingest_us_per_record", "us", true, 0},
	{"search.query_p50_us", "us", true, 0},
	{"durable.append_p50_us", "us", true, 0},
	{"portal.visible_lag_p50_ms", "ms", true, 0},
	{"portal.cache_hit_ratio", "%", false, 0},
	{"portal.render_cold_p50_ms", "ms", true, 0},
	{"portal.render_hit_p50_us", "us", true, 0},
	{"portal.query_p99_ms", "ms", true, 0},
	{"portal.epochs", "count", true, 0},
	{"proc.bench_peak_rss_mib", "MiB", true, 0},
	{"proc.facilityd_peak_rss_mib", "MiB", true, 0},
	{"proc.bench_cpu_s", "s", true, 0},
	{"proc.facilityd_cpu_s", "s", true, 0},
	{"gen.close_late_p99_ms", "ms", true, 0},
	{"gen.query_late_p99_ms", "ms", true, 0},
	{"gen.backlog_ratio", "count", true, 0},
	// The reader runs on portal-churn only, so these two cannot be
	// end-to-end metrics (every run must report every end-to-end metric,
	// and none may read 0); they keep the names the issue gave them.
	{"query_p50_ms", "ms", true, 0},
	{"query_cold_p50_ms", "ms", true, 0},
}
