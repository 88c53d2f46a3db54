package portal

import (
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Admission control (DESIGN.md §13): shed load before latency collapses.
// Two independent mechanisms, both opt-in:
//
//   - Per-principal token buckets. Each authenticated principal (falling
//     back to the remote IP for anonymous requests) accrues RatePerSec
//     tokens up to Burst; a request costs one token. An empty bucket
//     yields 429 with a Retry-After computed from the exact deficit, so
//     well-behaved clients converge on the sustainable rate instead of
//     retry-storming.
//
//   - A global in-flight cap. Once MaxInFlight requests are being
//     served, further ones are shed immediately with 503 + Retry-After
//     rather than queued — on an overloaded serving path queuing only
//     converts overload into timeout storms (shed-before-collapse).
//
// The bucket math is deterministic given a clock: tokens(t) =
// min(Burst, tokens(t0) + (t-t0)*RatePerSec). Tests inject a fake clock
// and check the closed form exactly (limit_test.go).

// LimitConfig enables admission control.
type LimitConfig struct {
	// RatePerSec is the sustained per-principal request rate. <= 0
	// disables rate limiting (the in-flight cap may still be set).
	RatePerSec float64
	// Burst is the bucket capacity (default: RatePerSec, minimum 1).
	Burst float64
	// MaxInFlight caps concurrently served requests; 0 disables.
	MaxInFlight int
	// maxBuckets bounds the principal table (0 = 65536; the package's
	// tests shrink it). When full, idle full buckets are swept; if none
	// are idle, new principals share a strict fallback bucket rather than
	// growing the table.
	maxBuckets int
	// Now is the clock (tests inject a fake one; default time.Now).
	Now func() time.Time
}

func (c LimitConfig) withDefaults() LimitConfig {
	if c.Burst <= 0 {
		c.Burst = math.Max(c.RatePerSec, 1)
	}
	if c.maxBuckets <= 0 {
		c.maxBuckets = 65536
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

type bucket struct {
	tokens float64
	last   time.Time
}

// limiter implements LimitConfig. The bucket table is a plain mutex-
// guarded map: the critical section is a few float ops, and admission
// runs once per request — the serving hot path (cache replay) dwarfs it.
type limiter struct {
	cfg LimitConfig

	mu      sync.Mutex
	buckets map[string]*bucket

	inflightMu sync.Mutex // distinct lock: the cap is independent of the table
	inflight   int
}

func newLimiter(cfg LimitConfig) *limiter {
	return &limiter{cfg: cfg.withDefaults(), buckets: make(map[string]*bucket)}
}

// take spends one token for key, reporting admission and, on denial, the
// wait until a token accrues.
func (l *limiter) take(key string) (ok bool, retryAfter time.Duration) {
	now := l.cfg.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= l.cfg.maxBuckets {
			l.sweepLocked(now)
		}
		if len(l.buckets) >= l.cfg.maxBuckets {
			// Table still full of active principals: new arrivals share
			// the overflow bucket instead of evicting someone live.
			key = ""
			if b = l.buckets[key]; b == nil {
				b = &bucket{tokens: l.cfg.Burst, last: now}
				l.buckets[key] = b
			}
		} else {
			b = &bucket{tokens: l.cfg.Burst, last: now}
			l.buckets[key] = b
		}
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(l.cfg.Burst, b.tokens+dt*l.cfg.RatePerSec)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := (1 - b.tokens) / l.cfg.RatePerSec
	return false, time.Duration(deficit * float64(time.Second))
}

// sweepLocked drops buckets that have been idle long enough to refill
// completely — forgetting them loses no information, since a fresh
// bucket starts full.
func (l *limiter) sweepLocked(now time.Time) {
	refill := time.Duration(l.cfg.Burst / l.cfg.RatePerSec * float64(time.Second))
	for k, b := range l.buckets {
		if now.Sub(b.last) >= refill {
			delete(l.buckets, k)
		}
	}
}

// enter claims an in-flight slot; leave must be called iff it succeeds.
func (l *limiter) enter() bool {
	if l.cfg.MaxInFlight <= 0 {
		return true
	}
	l.inflightMu.Lock()
	defer l.inflightMu.Unlock()
	if l.inflight >= l.cfg.MaxInFlight {
		return false
	}
	l.inflight++
	return true
}

func (l *limiter) leave() {
	if l.cfg.MaxInFlight <= 0 {
		return
	}
	l.inflightMu.Lock()
	l.inflight--
	l.inflightMu.Unlock()
}

// principalKey identifies the requester for rate limiting: the
// authenticated principal, else the remote IP.
func (s *Server) principalKey(r *http.Request) string {
	if p := s.principal(r); p != "" {
		return p
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// retryAfterSeconds renders a Retry-After value: whole seconds, rounded
// up, at least 1 (a zero tells clients to hammer immediately).
func retryAfterSeconds(d time.Duration) string {
	s := int64(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return strconv.FormatInt(s, 10)
}

// withAdmission wraps a handler with the token-bucket gate and
// (optionally) the global in-flight cap.
func (s *Server) withAdmission(h http.HandlerFunc, inflight bool) http.HandlerFunc {
	if s.limiter == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if s.limiter.cfg.RatePerSec > 0 {
			if ok, retry := s.limiter.take(s.principalKey(r)); !ok {
				s.met.rateLimited.Inc()
				w.Header().Set("Retry-After", retryAfterSeconds(retry))
				http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
				return
			}
		}
		if inflight {
			if !s.limiter.enter() {
				s.met.loadShed.Inc()
				w.Header().Set("Retry-After", "1")
				http.Error(w, "portal over capacity", http.StatusServiceUnavailable)
				return
			}
			defer s.limiter.leave()
		}
		h(w, r)
	}
}
