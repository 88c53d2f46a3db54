package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"picoprobe/internal/compute"
	"picoprobe/internal/core"
	"picoprobe/internal/detect"
	"picoprobe/internal/emd"
	"picoprobe/internal/metadata"
	"picoprobe/internal/search"
	"picoprobe/internal/tensor"
	"picoprobe/internal/transfer"
	"picoprobe/internal/wire"
)

// The probe phase of a traced run: each layer's public functions called
// directly and sequentially on the workload's own input file, after the
// measured window and the output checks, with the watcher stopped and
// the generator silent — the idle-system cost of one operation, which
// the blocking-chain shares above are made of.

// timeEach runs op n times and returns each duration.
func timeEach(n int, op func(i int) error) ([]time.Duration, error) {
	out := make([]time.Duration, n)
	for i := range out {
		t0 := time.Now()
		if err := op(i); err != nil {
			return nil, err
		}
		out[i] = time.Since(t0)
	}
	return out, nil
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func mibPerSec(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / mib / d.Seconds()
}

func probeLayers(r *rig, res *result, probes []*fileRec, ref reference) error {
	for _, f := range probes {
		if err := os.Rename(filepath.Join(r.stageDir, f.name), filepath.Join(r.watchDir, f.name)); err != nil {
			return err
		}
	}
	input := filepath.Join(r.watchDir, probes[0].name)
	size := probes[0].size

	if err := probeTransfer(r, res, probes); err != nil {
		return fmt.Errorf("transfer: %w", err)
	}
	if err := probeAnalysis(r, res, input, size, ref); err != nil {
		return fmt.Errorf("analysis: %w", err)
	}
	if r.wl.wire {
		if err := probeWire(r, res, probes[0]); err != nil {
			return fmt.Errorf("wire: %w", err)
		}
	}
	if err := probeCatalog(r, res); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	return probePortal(r, res)
}

// probeTransfer moves one file per task through the transfer service,
// Submit to Succeeded.
func probeTransfer(r *rig, res *result, probes []*fileRec) error {
	ds, err := timeEach(len(probes), func(i int) error {
		id, err := r.dep.Transfer.Submit(r.dep.Token, core.EndpointInstrument, core.EndpointEagle,
			[]transfer.FileSpec{{RelPath: probes[i].name}})
		if err != nil {
			return err
		}
		for {
			view, err := r.dep.Transfer.Status(r.dep.Token, id)
			if err != nil {
				return err
			}
			switch view.Status {
			case transfer.StatusSucceeded:
				if view.Checksums[probes[i].name] != probes[i].sha {
					return fmt.Errorf("%s landed with the wrong checksum", probes[i].name)
				}
				return nil
			case transfer.StatusFailed:
				return fmt.Errorf("task %s failed: %s", id, view.Error)
			}
			time.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		return err
	}
	d := medianDur(ds)
	res.set("transfer.probe_file_ms", ms(d))
	res.set("transfer.probe_mib_s", mibPerSec(probes[0].size, d))
	return nil
}

// probeAnalysis calls the analysis function, the container reader and
// (for series) the detector directly.
func probeAnalysis(r *rig, res *result, input string, size int64, ref reference) error {
	outDir := filepath.Join(r.dir, "probe-out")
	ds, err := timeEach(probeRepeats, func(int) error {
		out, err := analyze(r.wl, input, outDir)
		if err == nil && len(out.Experiment.Products) != ref.products {
			err = fmt.Errorf("direct analysis produced %d products, reference %d", len(out.Experiment.Products), ref.products)
		}
		return err
	})
	if err != nil {
		return err
	}
	direct := medianDur(ds)
	res.set("core.analyze_p50_ms", ms(direct))
	res.set("core.analyze_mib_s", mibPerSec(size, direct))

	dataset := "data/" + r.wl.kind + "/data"
	var frame []float64
	var frameShape tensor.Shape
	ds, err = timeEach(probeRepeats, func(int) error {
		f, err := emd.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		d, err := f.Dataset(dataset)
		if err != nil {
			return err
		}
		per := 1
		for _, n := range d.Shape()[1:] {
			per *= n
		}
		var buf []float64
		for _, c := range d.Chunks() {
			if need := c.Frames() * per; cap(buf) < need {
				buf = make([]float64, need)
			}
			if err := d.ReadFramesInto(buf[:c.Frames()*per], c.Lo, c.Hi); err != nil {
				return err
			}
		}
		frame, frameShape = buf[:per], d.Shape()[1:]
		return nil
	})
	if err != nil {
		return err
	}
	res.set("emd.read_mib_s", mibPerSec(size, medianDur(ds)))

	if r.wl.kind == metadata.KindSpatiotemporal {
		img := tensor.FromData(frame, frameShape...)
		params := detect.DefaultParams()
		ds, err = timeEach(20, func(int) error {
			_, err := detect.Detect(img, params)
			return err
		})
		if err != nil {
			return err
		}
		res.set("detect.frame_p50_ms", ms(medianDur(ds)))
	}
	return nil
}

// probeWire exercises the facility daemon through one wire client:
// round trip, chunk write, chunk hash, verified merge, and a compute
// dispatch of the workload's analysis.
func probeWire(r *rig, res *result, probe *fileRec) error {
	client := &wire.Client{Addr: r.child.addr, Token: r.dep.Token}
	defer client.Close()

	ds, err := timeEach(50, func(int) error {
		_, err := client.Ping()
		return err
	})
	if err != nil {
		return err
	}
	res.set("wire.ping_p50_us", us(medianDur(ds)))

	// The file's own bytes, cut as the mover cuts them.
	data, err := os.ReadFile(filepath.Join(r.watchDir, probe.name))
	if err != nil {
		return err
	}
	var chunks []wire.MergeChunk
	for off := int64(0); off < int64(len(data)); off += transferChunk {
		n := min(transferChunk, int64(len(data))-off)
		sum := sha256.Sum256(data[off : off+n])
		chunks = append(chunks, wire.MergeChunk{Off: off, N: n, SHA256: hex.EncodeToString(sum[:])})
	}
	const rel = "probe-chunks.bin"
	if err := client.Prepare(rel, int64(len(data))); err != nil {
		return err
	}
	write := func(i int) error {
		c := chunks[i]
		return client.WriteChunk(rel, c.Off, data[c.Off:c.Off+c.N], c.SHA256)
	}
	for i := range chunks { // land every chunk once and warm the session
		if err := write(i); err != nil {
			return err
		}
	}
	first := func(int) error { return write(0) } // the first chunk is a full-size one
	ds, err = timeEach(probeChunkOps, first)
	if err != nil {
		return err
	}
	d := medianDur(ds)
	res.set("wire.write_chunk_p50_ms", ms(d))
	res.set("wire.write_chunk_mib_s", mibPerSec(chunks[0].N, d))

	// Allocation counts, in a second pass with the collector off: a
	// collection empties the sync.Pools on the path, so with it on the
	// count depends on when cycles happen to fall. The watcher is stopped
	// and the generator silent, so nothing else in this process allocates.
	var before, after runtime.MemStats
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	runtime.ReadMemStats(&before)
	_, err = timeEach(probeChunkOps, first)
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(gc)
	if err != nil {
		return err
	}
	res.set("wire.client_allocs_per_chunk", float64(after.Mallocs-before.Mallocs)/probeChunkOps)
	res.set("wire.client_alloc_kib_per_chunk", float64(after.TotalAlloc-before.TotalAlloc)/1024/probeChunkOps)

	ds, err = timeEach(2*probeRepeats, func(i int) error {
		c := chunks[i%len(chunks)]
		present, sum, err := client.HashChunk(rel, c.Off, c.N)
		if err == nil && (!present || sum != c.SHA256) {
			err = fmt.Errorf("daemon hashed chunk at %d to %.12s, want %.12s", c.Off, sum, c.SHA256)
		}
		return err
	})
	if err != nil {
		return err
	}
	res.set("wire.hash_chunk_p50_ms", ms(medianDur(ds)))

	ds, err = timeEach(probeRepeats, func(int) error {
		sum, err := client.Merge(rel, chunks)
		if err == nil && sum != probe.sha {
			err = fmt.Errorf("merge digest %.12s, staged %.12s", sum, probe.sha)
		}
		return err
	})
	if err != nil {
		return err
	}
	res.set("wire.merge_ms", ms(medianDur(ds)))

	fn := core.FnHyperspectral
	if r.wl.kind == metadata.KindSpatiotemporal {
		fn = core.FnSpatiotemporal
	}
	// Dispatch plus Job polls to done, minus the active window the daemon
	// itself reports for the job: what the wire adds to one analysis.
	var active []time.Duration
	ds, err = timeEach(probeRepeats, func(int) error {
		task, err := client.Dispatch(fn, map[string]any{"path": probe.name})
		if err != nil {
			return err
		}
		for {
			job, err := client.Job(task)
			if err != nil {
				return err
			}
			switch compute.TaskStatus(job.Status) {
			case compute.StatusSucceeded:
				active = append(active, time.Duration(job.Completed-job.Started))
				return nil
			case compute.StatusFailed:
				return fmt.Errorf("dispatched analysis failed: %s", job.Error)
			}
			time.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		return err
	}
	res.set("wire.dispatch_overhead_ms", ms(medianDur(ds)-medianDur(active)))
	return nil
}

func probeEntry(id string) search.Entry {
	return search.Entry{
		ID:     id,
		Text:   "probe record gold film lattice",
		Fields: map[string]string{"kind": metadata.KindHyperspectral, "title": "probe " + id},
		Date:   collectedBase,
	}
}

// probeCatalog measures the index and the journal directly, on the
// catalog the run just filled.
func probeCatalog(r *rig, res *result) error {
	ds, err := timeEach(probeRepeats, func(i int) error {
		batch := make([]search.Entry, batchFiles)
		for j := range batch {
			batch[j] = probeEntry(fmt.Sprintf("probe-batch-%d-%d", i, j))
		}
		return r.dep.Index.IngestBatch(batch)
	})
	if err != nil {
		return err
	}
	res.set("search.ingest_us_per_record", us(medianDur(ds))/batchFiles)

	ds, err = timeEach(200, func(int) error {
		_, _, err := r.dep.Index.Search(search.Query{Text: "gold film", Limit: 20})
		return err
	})
	if err != nil {
		return err
	}
	res.set("search.query_p50_us", us(medianDur(ds)))

	// The journal: the deployment's own when it has one, otherwise a
	// scratch one on the same disk.
	catalog := r.dep.Catalog
	if catalog == nil {
		scratch, _, err := search.OpenDurable(filepath.Join(r.dir, "probe-durable"), search.DurableOptions{})
		if err != nil {
			return err
		}
		defer scratch.Close()
		catalog = scratch
	}
	ds, err = timeEach(4*probeRepeats, func(i int) error {
		return catalog.Ingest(probeEntry(fmt.Sprintf("probe-append-%d", i)))
	})
	if err != nil {
		return err
	}
	res.set("durable.append_p50_us", us(medianDur(ds)))
	return nil
}

// discard is the cheapest http.ResponseWriter: the probe times the
// handler, not a socket.
type discard struct {
	header http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.header }
func (d *discard) WriteHeader(status int)      { d.status = status }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }

// probePortal times ServeHTTP just after an epoch bump (the portal has
// to render) and long after one (it replays the memoized bytes).
func probePortal(r *rig, res *result) error {
	serve := func() (cache string, err error) {
		req, err := http.NewRequest(http.MethodGet, hotSet[0], nil)
		if err != nil {
			return "", err
		}
		w := &discard{header: http.Header{}}
		r.portalSrv.ServeHTTP(w, req)
		if w.status != 0 && w.status != http.StatusOK {
			return "", fmt.Errorf("portal answered %d", w.status)
		}
		return w.header.Get("X-PP-Cache"), nil
	}
	cold := make([]time.Duration, probeRepeats)
	for i := range cold {
		if err := r.dep.Index.Ingest(probeEntry(fmt.Sprintf("probe-epoch-%d", i))); err != nil {
			return err
		}
		t0 := time.Now()
		cache, err := serve()
		cold[i] = time.Since(t0)
		if err == nil && cache != "miss" {
			err = fmt.Errorf("render after an epoch bump was served as %q", cache)
		}
		if err != nil {
			return err
		}
	}
	res.set("portal.render_cold_p50_ms", ms(medianDur(cold)))

	ds, err := timeEach(200, func(int) error {
		cache, err := serve()
		if err == nil && cache != "hit" {
			err = fmt.Errorf("repeat request was served as %q", cache)
		}
		return err
	})
	if err != nil {
		return err
	}
	res.set("portal.render_hit_p50_us", us(medianDur(ds)))
	return nil
}
