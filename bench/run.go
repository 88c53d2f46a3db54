package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"picoprobe/internal/flows"
	"picoprobe/internal/search"
	"picoprobe/internal/transfer"
)

// env is what one invocation shares across its runs.
type env struct {
	workdir     string
	facilityBin string
	seed        int64
	seconds     int
	keep        bool
}

// result is one run of one workload.
type result struct {
	wl     *workload
	traced bool

	files     []*fileRec // measured files only
	ttq       []float64  // their time-to-queryable in close order, ms, failed ones left out
	ops       int        // files + reader queries
	failedOps int
	invalid   []string // generator ran late or a backlog grew: the run says nothing about speed
	problems  []string // output checks that failed

	metrics map[string]float64
	samples map[string]int // sample count behind a percentile metric
	// stageSeconds is what generating the inputs took: the instrument
	// stand-in's own work, reported beside set-up, not inside it.
	stageSeconds float64
	// shares is each blocking part's mean share of time-to-queryable
	// (traced runs).
	shares map[string]float64
}

func (res *result) set(name string, v float64) { res.metrics[name] = v }

func (res *result) setP(name string, xs []float64, p float64) {
	res.metrics[name] = percentile(xs, p)
	res.samples[name] = len(xs)
}

// runWorkload sets the pipeline up, runs the measured window, verifies
// every output and — when traced — builds the spans and probes each
// layer on the then idle system.
func runWorkload(e *env, wl *workload, traced bool) (res *result, err error) {
	res = &result{wl: wl, traced: traced, metrics: map[string]float64{}, samples: map[string]int{}}
	dir := filepath.Join(e.workdir, wl.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if !e.keep {
		defer os.RemoveAll(dir)
	}

	// Inputs: one template from the seed, every file staged, hashed and
	// synced, and the reference a correct analysis yields.
	stageStart := time.Now()
	stageDir := filepath.Join(dir, "stage")
	if err := os.MkdirAll(stageDir, 0o755); err != nil {
		return nil, err
	}
	files := planFiles(wl, e.seed, wl.warmFiles, wl.measuredFiles(e.seconds))
	tmpl, err := wl.template(e.seed)
	if err != nil {
		return nil, err
	}
	staged := files
	var probeFiles []*fileRec
	if traced {
		probeFiles = planProbeFiles(wl, e.seed)
		staged = append(append([]*fileRec(nil), files...), probeFiles...)
	}
	if err := stageFiles(tmpl, stageDir, staged); err != nil {
		return nil, err
	}
	ref, err := referenceAnalysis(wl, filepath.Join(stageDir, files[0].name), filepath.Join(dir, "reference"))
	if err != nil {
		return nil, err
	}
	var corpus []search.Entry
	if wl.seedRecords > 0 {
		corpus = seedCorpus(e.seed, wl.seedRecords)
	}
	res.stageSeconds = time.Since(stageStart).Seconds()
	warm, measured := files[:wl.warmFiles], files[wl.warmFiles:]

	// Set-up, setupRepeats times on a fresh pipeline each, reported as the
	// median; the last pipeline runs the measured window.
	var (
		r      *rig
		p      *poller
		setups []float64
	)
	defer func() { tearDown(r, p) }()
	for i := range setupRepeats {
		if r != nil {
			tearDown(r, p)
			used := r.dir
			r, p = nil, nil
			if err := os.RemoveAll(used); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		r, p, err = bringUp(e, wl, filepath.Join(dir, fmt.Sprintf("pipeline-%d", i)), stageDir, corpus, warm, len(files), traced)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups))

	// The measured window.
	before := r.snapshot()
	var rd *reader
	start := time.Now().Add(20 * time.Millisecond)
	if wl.reader {
		n := int(time.Duration(e.seconds)*time.Second/readerPeriod) + 1
		rd = startReader(r.baseURL, querySequence(e.seed, n), start)
	}
	var windows []interval
	if wl.openLoop() {
		err = runOpenLoop(r, p, measured, start, wl.spacing)
		windows = []interval{{start, lastVisible(measured)}}
	} else {
		notBefore := start
		for b := 0; b < wl.bursts(e.seconds) && err == nil; b++ {
			burst := measured[b*wl.burstFiles : (b+1)*wl.burstFiles]
			err = runBurst(r, p, burst, notBefore, false)
			windows = append(windows, interval{burst[0].due, lastVisible(burst)})
			notBefore = time.Now().Add(burstGap)
		}
	}
	after := r.snapshot()
	if rd != nil {
		rd.close()
	}
	if err != nil {
		return nil, err
	}
	r.stopWatching()

	res.files = measured
	byFile := indexBatches(r.batchesSnapshot())
	res.endToEnd(r, windows, before, after)
	res.generator(wl, rd)
	res.layers(r, byFile, p, rd, windows, before, after)
	res.problems = verifyOutputs(r, wl, files, ref)
	res.problems = append(res.problems, checkOrder(byFile, measured)...)

	if traced {
		spans := buildSpans(r, byFile, measured, res)
		if err := writeTrace(filepath.Join(e.workdir, "trace-"+wl.name+".json"), spans); err != nil {
			return nil, err
		}
		if err := probeLayers(r, res, probeFiles, ref); err != nil {
			return nil, fmt.Errorf("probe phase: %w", err)
		}
	}
	return res, nil
}

// bringUp takes the pipeline from nothing to warm and idle: daemon
// started, deployment and portal wired, catalog seeded, one untimed
// warm-up burst through every layer (the first burst after idle pays
// session dials, page faults and heap growth the later ones do not). On
// error it leaves nothing running.
func bringUp(e *env, wl *workload, dir, stageDir string, corpus []search.Entry, warm []*fileRec, nFiles int, traced bool) (*rig, *poller, error) {
	r, err := newRig(wl, dir, stageDir, e.facilityBin, traced)
	if err != nil {
		return nil, nil, err
	}
	onExit(r.child.stop)
	for lo := 0; lo < len(corpus); lo += 10000 {
		if err := r.dep.Catalog.IngestBatch(corpus[lo:min(lo+10000, len(corpus))]); err != nil {
			r.close()
			return nil, nil, err
		}
	}
	p := newPoller(r.baseURL, nFiles)
	if err := runBurst(r, p, warm, time.Now(), true); err != nil {
		tearDown(r, p)
		return nil, nil, err
	}
	return r, p, nil
}

func tearDown(r *rig, p *poller) {
	if p != nil {
		p.close()
	}
	if r != nil {
		r.close()
	}
}

// total is the summed length of the measured windows.
func total(windows []interval) time.Duration {
	var d time.Duration
	for _, w := range windows {
		d += w.end.Sub(w.start)
	}
	return d
}

func lastVisible(files []*fileRec) time.Time {
	var last time.Time
	for _, f := range files {
		if f.visible.After(last) {
			last = f.visible
		}
	}
	return last
}

// snapshot is the accounts the program keeps, read at a window edge.
type snapshot struct {
	benchCPU    float64
	facilityCPU float64
	batches     int
	batchFiles  int
	wakeups     int64
	epoch       uint64
	cache       map[string]float64
}

func (r *rig) snapshot() snapshot {
	s := snapshot{benchCPU: selfCPU()}
	if r.child != nil {
		s.facilityCPU, _ = procCPU(r.child.pid())
	}
	bs := r.batcher.Stats()
	s.batches, s.batchFiles = bs.Batches, bs.Files
	s.wakeups = r.dep.Engine.PollStats().Wakeups
	s.epoch = r.dep.Index.Epoch()
	if r.wl.reader {
		s.cache, _ = scrapeCache(r.baseURL)
	}
	return s
}

// endToEnd computes the metrics a user of the system would see.
func (res *result) endToEnd(r *rig, windows []interval, before, after snapshot) {
	var bytes int64
	for _, f := range res.files {
		res.ops++
		if f.failed {
			res.failedOps++
			continue
		}
		res.ttq = append(res.ttq, ms(f.visible.Sub(f.due)))
		bytes += f.size
	}
	res.setP("ttq_p50_ms", res.ttq, 0.50)
	res.setP("ttq_p90_ms", res.ttq, 0.90)
	if span := total(windows); span > 0 {
		res.set("goodput_mib_s", float64(bytes)/mib/span.Seconds())
	}
	res.set("proc.bench_cpu_s", after.benchCPU-before.benchCPU)
	res.set("proc.facilityd_cpu_s", after.facilityCPU-before.facilityCPU)
	res.set("cpu_s", res.metrics["proc.bench_cpu_s"]+res.metrics["proc.facilityd_cpu_s"])
	res.set("proc.bench_peak_rss_mib", peakRSSMiB(os.Getpid()))
	if r.child != nil {
		res.set("proc.facilityd_peak_rss_mib", peakRSSMiB(r.child.pid()))
	}
}

// generator reports how well the instrument stand-in kept its own
// schedule, and whether the system kept up with it.
func (res *result) generator(wl *workload, rd *reader) {
	due := make([]time.Time, len(res.files))
	issued := make([]time.Time, len(res.files))
	for i, f := range res.files {
		due[i], issued[i] = f.due, f.issued
	}
	late := lateness(due, issued)
	res.setP("gen.close_late_p99_ms", late, 0.99)
	if wl.openLoop() {
		res.set("gen.backlog_ratio", backlogRatio(res.ttq))
		if v := percentile(late, 0.90); v > lateLimitMS {
			res.invalid = append(res.invalid, fmt.Sprintf("closes ran late (p90 %.1f ms)", v))
		}
		if v := res.metrics["gen.backlog_ratio"]; v > backlogLimit {
			res.invalid = append(res.invalid, fmt.Sprintf("a backlog grew (ttq ratio %.2f)", v))
		}
	}
	if rd == nil {
		return
	}
	var all, cold []float64
	late = late[:0]
	for _, q := range rd.queries {
		res.ops++
		if !q.ok {
			res.failedOps++
			continue
		}
		all = append(all, ms(q.latency))
		if q.cache == "miss" {
			cold = append(cold, ms(q.latency))
		}
		late = append(late, ms(q.late))
	}
	res.setP("query_p50_ms", all, 0.50)
	res.setP("query_cold_p50_ms", cold, 0.50)
	res.setP("portal.query_p99_ms", all, 0.99)
	res.setP("gen.query_late_p99_ms", late, 0.99)
	if v := percentile(late, 0.90); v > lateLimitMS {
		res.invalid = append(res.invalid, fmt.Sprintf("queries ran late (p90 %.1f ms)", v))
	}
}

// fileBatch is where one file sits in the batch that carried it.
type fileBatch struct {
	b   *batchRec
	idx int // position in the batch, which names its Analysis-%02d state
}

func indexBatches(batches []batchRec) map[string]fileBatch {
	by := map[string]fileBatch{}
	for i := range batches {
		for j, name := range batches[i].files {
			by[name] = fileBatch{&batches[i], j}
		}
	}
	return by
}

func state(rec flows.RunRecord, name string) (flows.StateRecord, bool) {
	for _, s := range rec.States {
		if s.Name == name {
			return s, true
		}
	}
	return flows.StateRecord{}, false
}

// layers reads the per-layer metrics off the accounts the program
// returns (run records, task views, batch and poll stats, /metrics) and
// the boundary stamps the harness owns.
func (res *result) layers(r *rig, byFile map[string]fileBatch, p *poller, rd *reader, windows []interval, before, after snapshot) {
	measured := map[*batchRec]bool{}
	for _, f := range res.files {
		if fb, ok := byFile[f.name]; ok {
			measured[fb.b] = true
		}
	}

	nb := after.batches - before.batches
	res.set("watcher.batches", float64(nb))
	if nb > 0 {
		res.set("watcher.batch_files_mean", float64(after.batchFiles-before.batchFiles)/float64(nb))
	}
	res.set("flows.wakeups", float64(after.wakeups-before.wakeups))
	res.set("portal.epochs", float64(after.epoch-before.epoch))

	var (
		run, toPublish, self, xferActive, publish []float64
		overhead, runtime, xferTime               time.Duration
		polls, chunksMoved, chunksSkipped, tries  int
		bytesMoved, bytesCopied                   int64
	)
	for b := range measured {
		if b.err != nil {
			continue
		}
		run = append(run, ms(b.done.Sub(b.received)))
		overhead += b.rec.TotalOverhead()
		runtime += b.rec.Runtime()
		var active []interval
		for _, s := range b.rec.States {
			polls += s.Polls
			started, completed := s.Started, s.Completed
			if s.Provider == "search" {
				// The publication provider stamps on the engine's virtual
				// epoch; transfer and compute stamp the wall clock.
				started, completed = r.toWall(started), r.toWall(completed)
				publish = append(publish, ms(s.Active()))
				toPublish = append(toPublish, ms(completed.Sub(b.received)))
			}
			active = append(active, interval{started, completed})
		}
		self = append(self, ms(selfTime(interval{b.received, b.done}, active)))
		if s, ok := state(b.rec, "Transfer"); ok {
			xferActive = append(xferActive, ms(s.Active()))
			xferTime += s.Active()
			if view, err := r.dep.Transfer.Status(r.dep.Token, s.ActionID); err == nil && view.Status == transfer.StatusSucceeded {
				chunksMoved += view.ChunksMoved
				chunksSkipped += view.ChunksSkipped
				tries += view.Attempts - 1
				bytesMoved += view.BytesMoved
				bytesCopied += view.BytesCopied
			}
		}
	}
	res.setP("flows.run_p50_ms", run, 0.5)
	res.setP("flows.to_publish_p50_ms", toPublish, 0.5)
	res.setP("flows.self_p50_ms", self, 0.5)
	res.setP("search.publish_p50_ms", publish, 0.5)
	res.setP("transfer.active_p50_ms", xferActive, 0.5)
	if runtime > 0 {
		res.set("flows.overhead_share", 100*overhead.Seconds()/runtime.Seconds())
	}
	if len(run) > 0 {
		res.set("flows.polls_per_run", float64(polls)/float64(len(run)))
	}
	if xferTime > 0 {
		res.set("transfer.goodput_mib_s", float64(bytesMoved)/mib/xferTime.Seconds())
	}
	res.set("transfer.chunks_moved", float64(chunksMoved))
	res.set("transfer.chunks_skipped", float64(chunksSkipped))
	res.set("transfer.retries", float64(tries))
	if bytesMoved > 0 {
		res.set("transfer.copy_ratio", 100*float64(bytesCopied)/float64(bytesMoved))
	}

	var settle, batchWait, computeActive, queueWait, visibleLag []float64
	var computeBusy time.Duration
	for _, f := range res.files {
		fb, ok := byFile[f.name]
		if !ok || fb.b.err != nil || f.failed {
			continue
		}
		if ev, stamped := r.announced(f.name); stamped {
			settle = append(settle, ms(ev.Sub(f.due)))
			batchWait = append(batchWait, ms(fb.b.received.Sub(ev)))
		}
		if s, ok := state(fb.b.rec, fmt.Sprintf("Analysis-%02d", fb.idx)); ok {
			computeActive = append(computeActive, ms(s.Active()))
			computeBusy += s.Active()
			queueWait = append(queueWait, ms(s.Started.Sub(r.toWall(s.InvokedAt))))
		}
		if s, ok := state(fb.b.rec, "Publication"); ok {
			visibleLag = append(visibleLag, ms(f.visible.Sub(r.toWall(s.Completed))))
		}
	}
	res.setP("watcher.settle_p50_ms", settle, 0.5)
	res.setP("watcher.batch_wait_p50_ms", batchWait, 0.5)
	res.setP("compute.active_p50_ms", computeActive, 0.5)
	res.setP("compute.queue_wait_p50_ms", queueWait, 0.5)
	res.setP("portal.visible_lag_p50_ms", visibleLag, 0.5)
	if makespan := total(windows); makespan > 0 {
		res.set("compute.busy_share", 100*computeBusy.Seconds()/(facilityWorkers*makespan.Seconds()))
	}

	// The portal's own cache accounting over the window, net of the
	// poller's requests (its 404s would otherwise drown the reader).
	if rd != nil && before.cache != nil && after.cache != nil {
		var served, total float64
		for result, n := range after.cache {
			n -= before.cache[result]
			total += n
			if result == "hit" || result == "revalidated" {
				served += n
			}
		}
		for result, n := range p.cache {
			total -= float64(n)
			if result == "hit" || result == "revalidated" {
				served -= float64(n)
			}
		}
		if total > 0 {
			res.set("portal.cache_hit_ratio", 100*served/total)
		}
	}
}

// checkOrder verifies the poller's one assumption — files become
// visible in close order — from the other side: once RunBatch has
// returned, every record of the batch is in the index, so a file first
// seen later than a few poll steps after that was held up behind an
// older one and its latency is wrong.
func checkOrder(byFile map[string]fileBatch, files []*fileRec) []string {
	var problems []string
	for _, f := range files {
		fb, ok := byFile[f.name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: never batched", f.name))
			continue
		}
		if fb.b.err != nil {
			problems = append(problems, fmt.Sprintf("%s: flow failed: %v", f.name, fb.b.err))
			continue
		}
		if late := f.visible.Sub(fb.b.done); late > 5*pollStep {
			problems = append(problems, fmt.Sprintf("%s: first seen %v after its flow returned (visibility out of close order)", f.name, late))
		}
	}
	sort.Strings(problems)
	return problems
}
