// Package loadgen is the in-repo HTTP load-generation harness that
// proves the portal serving layer's latency claims (BENCHMARKS.md
// "Portal load test"). It drives the real portal handlers over real TCP
// sockets — one persistent HTTP/1.1 connection per simulated user — in
// either of the two canonical load-testing shapes:
//
//   - Closed loop (RPS == 0): every connection issues requests
//     back-to-back, so offered load tracks service capacity. This is the
//     "N concurrent users hammering" regime; latency includes queueing
//     under saturation.
//
//   - Open loop (RPS > 0): requests are launched on a fixed global
//     schedule regardless of completions, and every latency is measured
//     from the request's *scheduled* start, not its actual send — the
//     HdrHistogram/wrk2 correction for coordinated omission. A server
//     that stalls for a second gets charged that second across every
//     request scheduled during the stall, instead of quietly emitting
//     fewer samples.
//
// Latencies land in an HDR-style log-linear obs.Histogram (shared,
// atomic — workers never synchronize), warmup is excluded, and the
// result reports p50/p99/p999 plus status-class and cache-outcome
// counts.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"picoprobe/internal/obs"
)

// Target is one weighted request in the mix.
type Target struct {
	Path   string // request-URI, e.g. /api/search?q=gold+film
	Weight int    // relative frequency (default 1)
}

// Config drives one load run.
type Config struct {
	// Addr is the host:port of the portal under test.
	Addr string
	// Conns is the number of concurrent persistent connections.
	Conns int
	// Duration is the measured window (after Warmup).
	Duration time.Duration
	// Warmup runs load without recording (connection establishment, CPU
	// migration, cache fill all settle here).
	Warmup time.Duration
	// RPS selects open-loop mode when > 0: the aggregate scheduled
	// request rate across all connections. 0 = closed loop.
	RPS float64
	// Targets is the weighted request mix (at least one).
	Targets []Target
	// Revalidate is the probability (0..1) that a request replays the
	// connection's last-seen ETag as If-None-Match — the conditional-GET
	// behavior of a browser or API client with a warm local cache.
	Revalidate float64
}

// Result is the aggregate outcome of one run.
type Result struct {
	Requests    uint64 // completed round trips in the measured window
	Errors      uint64 // transport failures (dial, timeout, parse)
	Status2xx   uint64
	Status304   uint64
	Status429   uint64
	Status503   uint64
	StatusOther uint64
	CacheHits   uint64 // responses served without a render (hit/revalidated)
	Conns       int    // connections actually established
	Elapsed     time.Duration
	Hist        *obs.Histogram // latency, seconds
}

// P50 returns the median latency.
func (r *Result) P50() time.Duration { return secs(r.Hist.Percentile(50)) }

// P99 returns the 99th-percentile latency.
func (r *Result) P99() time.Duration { return secs(r.Hist.Percentile(99)) }

// P999 returns the 99.9th-percentile latency.
func (r *Result) P999() time.Duration { return secs(r.Hist.Percentile(99.9)) }

// Throughput returns completed requests per second over the measured
// window.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

const (
	// dialTimeout bounds connection establishment.
	dialTimeout = 10 * time.Second
	// requestTimeout bounds one round trip.
	requestTimeout = 30 * time.Second
)

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Run executes one load run. It dials cfg.Conns connections (staggered,
// so the listener's accept queue survives 10k+ arrivals), holds them for
// warmup + duration, and returns the recorded result. ctx cancellation
// stops the run early with whatever was recorded.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Conns <= 0 {
		return nil, errors.New("loadgen: Conns must be positive")
	}
	if len(cfg.Targets) == 0 {
		return nil, errors.New("loadgen: no targets")
	}

	// Pre-render the request mix as a weighted ring of static byte
	// slices shared by every worker.
	var ring []int
	reqs := make([][]byte, len(cfg.Targets))
	for i, t := range cfg.Targets {
		reqs[i] = buildRequest(t.Path, cfg.Addr, nil)
		w := max(t.Weight, 1)
		for j := 0; j < w; j++ {
			ring = append(ring, i)
		}
	}

	res := &Result{
		// 1µs..60s log-linear: ~3% worst-case quantile error up to p999
		// of any latency this harness can observe.
		Hist: obs.NewHistogram(obs.HDRBuckets(1e-6, 60, 32)),
	}

	// Counters shared across workers; folded into res at the end.
	var requests, errs, s2xx, s304, s429, s503, sOther, hits atomic.Uint64
	var connected atomic.Int64

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Phase clock. Workers record only inside [measureStart, measureEnd).
	start := time.Now()
	measureStart := start.Add(cfg.Warmup)
	measureEnd := measureStart.Add(cfg.Duration)

	// Open-loop schedule: request k is due at measureable time
	// start + k/RPS. Workers claim ticks with one atomic add.
	var tick atomic.Int64
	openLoop := cfg.RPS > 0
	interval := time.Duration(0)
	if openLoop {
		interval = time.Duration(float64(time.Second) / cfg.RPS)
	}

	// Stagger dials: a bounded pool of in-flight connection attempts so
	// 10k arrivals don't overflow the accept queue.
	dialGate := make(chan struct{}, 256)

	var wg sync.WaitGroup
	for w := 0; w < cfg.Conns; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var pc *pconn
			defer func() {
				if pc != nil {
					pc.close()
				}
			}()
			connect := func() bool {
				dialGate <- struct{}{}
				c, err := dial(cfg.Addr, dialTimeout)
				<-dialGate
				if err != nil {
					errs.Add(1)
					return false
				}
				pc = c
				connected.Add(1)
				return true
			}
			if !connect() {
				// One retry after a beat — transient listen-queue drops
				// under the 10k stampede should not cost a connection.
				select {
				case <-time.After(100 * time.Millisecond):
				case <-runCtx.Done():
					return
				}
				if !connect() {
					return
				}
			}
			lastETag := ""
			i := rng.Intn(len(ring))
			for {
				if runCtx.Err() != nil {
					return
				}
				now := time.Now()
				if !now.Before(measureEnd) {
					return
				}
				// Scheduled start: now (closed loop) or the claimed tick
				// (open loop, waited for if in the future).
				sched := now
				if openLoop {
					k := tick.Add(1) - 1
					sched = start.Add(time.Duration(k) * interval)
					if wait := time.Until(sched); wait > 0 {
						select {
						case <-time.After(wait):
						case <-runCtx.Done():
							return
						}
					}
					if !sched.Before(measureEnd) {
						return
					}
				}
				ti := ring[i%len(ring)]
				i++
				req := reqs[ti]
				if cfg.Revalidate > 0 && lastETag != "" && rng.Float64() < cfg.Revalidate {
					req = buildConditional(cfg.Targets[ti].Path, cfg.Addr, lastETag)
				}
				if pc == nil || pc.dead {
					if pc != nil {
						pc.close()
						connected.Add(-1)
					}
					pc = nil
					if !connect() {
						continue
					}
				}
				ri, err := pc.roundTrip(req, time.Now().Add(requestTimeout))
				done := time.Now()
				record := !done.Before(measureStart) && sched.Before(measureEnd)
				if err != nil {
					if record {
						errs.Add(1)
					}
					continue
				}
				if ri.etag != "" {
					lastETag = ri.etag
				}
				if !record {
					continue
				}
				requests.Add(1)
				res.Hist.Observe(done.Sub(sched).Seconds())
				switch {
				case ri.status == 304:
					s304.Add(1)
				case ri.status == 429:
					s429.Add(1)
				case ri.status == 503:
					s503.Add(1)
				case ri.status/100 == 2:
					s2xx.Add(1)
				default:
					sOther.Add(1)
				}
				if ri.cacheHit {
					hits.Add(1)
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()

	res.Requests = requests.Load()
	res.Errors = errs.Load()
	res.Status2xx = s2xx.Load()
	res.Status304 = s304.Load()
	res.Status429 = s429.Load()
	res.Status503 = s503.Load()
	res.StatusOther = sOther.Load()
	res.CacheHits = hits.Load()
	res.Conns = int(connected.Load())
	res.Elapsed = cfg.Duration
	if early := time.Since(measureStart); early > 0 && early < cfg.Duration {
		res.Elapsed = early // cancelled mid-window
	}
	if ctx.Err() != nil && res.Requests == 0 {
		return res, ctx.Err()
	}
	return res, nil
}

// Format renders the result as the human-readable block the Makefile
// targets print and BENCHMARKS.md records.
func (r *Result) Format() string {
	return fmt.Sprintf(
		"conns=%d requests=%d errors=%d rps=%.0f\n"+
			"status: 2xx=%d 304=%d 429=%d 503=%d other=%d  cache_hits=%d (%.1f%%)\n"+
			"latency: p50=%s p99=%s p999=%s max~%s",
		r.Conns, r.Requests, r.Errors, r.Throughput(),
		r.Status2xx, r.Status304, r.Status429, r.Status503, r.StatusOther,
		r.CacheHits, 100*float64(r.CacheHits)/float64(max(r.Requests, 1)),
		r.P50(), r.P99(), r.P999(), secs(r.Hist.Percentile(100)),
	)
}

// Discard quietly consumes an io.Reader (helper for callers draining
// child-process pipes).
func Discard(r io.Reader) { io.Copy(io.Discard, r) }
