package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"

	"picoprobe/internal/core"
	"picoprobe/internal/flows"
	"picoprobe/internal/obs"
	"picoprobe/internal/portal"
	"picoprobe/internal/watcher"
)

// facilityChild is the picoprobe-facilityd process under test.
type facilityChild struct {
	cmd  *exec.Cmd
	addr string
	once sync.Once // stop runs on several exit paths; the pid is only ours until the first Wait
}

var bannerRe = regexp.MustCompile(`serving .* on (\S+)$`)

// startFacility launches the daemon in its own process group on an
// ephemeral port and parses the bound address from its banner.
func startFacility(bin, root, logPath string) (*facilityChild, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child keeps its own descriptor
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-root", root,
		"-workers", fmt.Sprint(facilityWorkers),
		"-max-sessions", fmt.Sprint(facilityMaxSessions))
	cmd.Stderr = logFile
	// Own process group, so one signal reaches anything the daemon might
	// spawn; Pdeathsig covers the exit paths the harness cannot run code
	// on (SIGKILL of the benchmark itself).
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &facilityChild{cmd: cmd}
	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() { // keep draining so the daemon never blocks on stdout
			if m := bannerRe.FindStringSubmatch(sc.Text()); m != nil && !sent {
				banner <- m[1]
				sent = true
			}
		}
		if !sent {
			close(banner)
		}
	}()
	select {
	case addr, ok := <-banner:
		if !ok {
			c.stop()
			return nil, fmt.Errorf("facilityd exited before its banner (see %s)", logPath)
		}
		c.addr = addr
		return c, nil
	case <-time.After(10 * time.Second):
		c.stop()
		return nil, fmt.Errorf("facilityd printed no banner within 10 s (see %s)", logPath)
	}
}

// stop kills the daemon's process group and waits until it has ended.
func (c *facilityChild) stop() {
	if c == nil || c.cmd.Process == nil {
		return
	}
	c.once.Do(func() {
		syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
		c.cmd.Wait()
	})
}

func (c *facilityChild) pid() int { return c.cmd.Process.Pid }

// batchRec is the harness's account of one batch: when the consumer
// received it, when RunBatch returned, and the run record it returned.
type batchRec struct {
	files    []string // base names
	received time.Time
	done     time.Time
	rec      flows.RunRecord
	err      error
}

// rig is one composed pipeline, wired exactly as the shipped binaries
// wire it: watcher.New → watcher.NewBatcher → LiveDeployment.RunBatch,
// with portal.NewServer over the same index on a loopback listener.
type rig struct {
	wl  *workload
	dir string // this pipeline's directory under the workload's

	stageDir string // staged files, same filesystem as watchDir
	watchDir string // the instrument's transfer directory
	landRoot string // where transferred files land
	outDir   string // analysis artifacts

	child   *facilityChild
	dep     *core.LiveDeployment
	watcher *watcher.Watcher
	batcher *watcher.Batcher
	// watcherStarted approximates the poll ticker's phase origin, so
	// bursts can be released mid-way between two polls.
	watcherStarted time.Time
	portalSrv      *portal.Server
	httpSrv        *http.Server
	baseURL        string
	// clockOffset converts the engine's virtual-epoch stamps to the wall
	// clock: wall = virtual + clockOffset.
	clockOffset time.Duration

	mu       sync.Mutex
	batches  []batchRec
	eventAt  map[string]time.Time // base name → instant the watcher announced it (traced only)
	consumed chan struct{}
}

func newRig(wl *workload, dir, stageDir, facilityBin string, traced bool) (r *rig, err error) {
	r = &rig{
		wl: wl, dir: dir,
		stageDir: stageDir,
		watchDir: filepath.Join(dir, "instrument"),
		eventAt:  map[string]time.Time{},
		consumed: make(chan struct{}),
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if err := os.MkdirAll(r.watchDir, 0o755); err != nil {
		return r, err
	}
	if wl.wire {
		r.landRoot = filepath.Join(dir, "facility")
		r.outDir = filepath.Join(r.landRoot, "analysis-out")
		if err := os.MkdirAll(r.landRoot, 0o755); err != nil {
			return r, err
		}
		r.child, err = startFacility(facilityBin, r.landRoot, filepath.Join(dir, "facilityd.log"))
		if err != nil {
			return r, err
		}
		r.dep, err = core.NewWireDeployment(core.WireOptions{
			InstrumentRoot:     r.watchDir,
			DaemonAddr:         r.child.addr,
			TransferChunkBytes: transferChunk,
			TransferStreams:    transferStream,
		})
	} else {
		r.landRoot = filepath.Join(dir, "eagle")
		r.outDir = filepath.Join(dir, "artifacts")
		r.dep, err = core.NewLiveDeployment(core.LiveOptions{
			InstrumentRoot:     r.watchDir,
			EagleRoot:          r.landRoot,
			OutDir:             r.outDir,
			TransferChunkBytes: transferChunk,
			TransferStreams:    transferStream,
			DurableDir:         filepath.Join(dir, "durable"),
		})
	}
	if err != nil {
		return r, err
	}
	r.clockOffset = time.Since(r.dep.Runtime.Now())

	// The portal as cmd/picoprobe-portal builds it with -cache -events
	// -metrics and no admission limits.
	hub := portal.NewHub()
	r.dep.Engine.SetEventSink(hub.FlowSink())
	r.portalSrv, err = portal.NewServer(portal.Config{
		Index:        r.dep.Index,
		ArtifactRoot: r.outDir,
		Flows:        r.dep.Engine,
		Cache:        &portal.CacheConfig{},
		Events:       hub,
		Metrics:      obs.NewRegistry(),
	})
	if err != nil {
		return r, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return r, err
	}
	r.baseURL = "http://" + ln.Addr().String()
	r.httpSrv = &http.Server{Handler: r.portalSrv}
	go r.httpSrv.Serve(ln)

	// The trigger application as cmd/picoprobe-watch builds it.
	r.watcher, err = watcher.New(r.watchDir, watcher.Options{
		Pattern:        watchPattern,
		CheckpointPath: filepath.Join(dir, "watch-checkpoint.json"),
	})
	if err != nil {
		return r, err
	}
	events := r.watcher.Events()
	if traced {
		events = r.stampEvents(events)
	}
	r.batcher = watcher.NewBatcher(events, watcher.BatchOptions{
		MaxBatchFiles: batchFiles,
		MaxBatchBytes: batchBytes,
		Linger:        batchLinger,
		BudgetBytes:   batchInflight,
	})
	r.watcherStarted = time.Now()
	r.watcher.Start()
	go r.consume()
	return r, nil
}

// stampEvents interposes on the watcher's event stream (traced runs
// only), recording the instant each file was announced.
func (r *rig) stampEvents(in <-chan watcher.Event) <-chan watcher.Event {
	out := make(chan watcher.Event)
	go func() {
		defer close(out)
		for ev := range in {
			r.mu.Lock()
			r.eventAt[filepath.Base(ev.Path)] = time.Now()
			r.mu.Unlock()
			out <- ev
		}
	}()
	return out
}

// announced is when the watcher announced a file (traced runs only).
func (r *rig) announced(name string) (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	at, ok := r.eventAt[name]
	return at, ok
}

// consume is picoprobe-watch's main loop: one blocking batch flow per
// batch, in order.
func (r *rig) consume() {
	defer close(r.consumed)
	for batch := range r.batcher.Batches() {
		b := batchRec{received: time.Now()}
		rels := make([]string, 0, len(batch.Files))
		for _, ev := range batch.Files {
			rel, err := filepath.Rel(r.watchDir, ev.Path)
			if err != nil {
				continue
			}
			rels = append(rels, rel)
		}
		b.files = rels
		if len(rels) > 0 {
			b.rec, b.err = r.dep.RunBatch(r.wl.kind, rels)
		}
		b.done = time.Now()
		r.batcher.Done(batch)
		r.mu.Lock()
		r.batches = append(r.batches, b)
		r.mu.Unlock()
	}
}

// toWall converts an engine stamp (virtual epoch) to the wall clock.
func (r *rig) toWall(t time.Time) time.Time { return t.Add(r.clockOffset) }

// nextMidPoll is the first instant at or after t that lies half-way
// between two watcher polls. Releasing a burst there makes its settle
// time the mean of the 400–600 ms a random phase would draw from.
func (r *rig) nextMidPoll(t time.Time) time.Time {
	since := t.Sub(r.watcherStarted)
	k := since / watchInterval
	mid := r.watcherStarted.Add(k*watchInterval + watchInterval/2)
	if mid.Before(t) {
		mid = mid.Add(watchInterval)
	}
	return mid
}

// stopWatching stops the trigger application and waits for the consumer
// to finish the batches already announced.
func (r *rig) stopWatching() {
	if r.watcher != nil {
		r.watcher.Stop()
		<-r.consumed
		r.watcher = nil
	}
}

// close tears the pipeline down on every exit path: watcher, portal
// listener, journals, and the daemon's process group.
func (r *rig) close() {
	r.stopWatching()
	if r.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if r.httpSrv.Shutdown(ctx) != nil {
			r.httpSrv.Close() // SSE or stuck connections: drop them
		}
		cancel()
	}
	if r.dep != nil {
		r.dep.Close()
	}
	r.child.stop()
}

func (r *rig) batchesSnapshot() []batchRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]batchRec(nil), r.batches...)
}
