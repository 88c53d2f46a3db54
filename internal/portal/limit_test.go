package portal

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic injectable clock for the limiter.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// TestTokenBucketClosedForm drives the limiter through a randomized
// schedule of takes and clock advances for several principals and checks
// every decision against the closed form computed independently:
// tokens(t) = min(Burst, tokens(t0) + Δt·rate), admit iff tokens ≥ 1,
// and on denial retryAfter = (1 − tokens)/rate. Fully deterministic —
// no sleeps, no wall clock.
func TestTokenBucketClosedForm(t *testing.T) {
	const (
		rate  = 5.0
		burst = 12.0
	)
	clk := newFakeClock()
	l := newLimiter(LimitConfig{RatePerSec: rate, Burst: burst, Now: clk.Now})

	// Independent model: one float per principal, same closed form.
	type model struct {
		tokens float64
		last   time.Time
	}
	models := map[string]*model{}
	principals := []string{"alice", "bob", "carol"}
	rng := rand.New(rand.NewSource(11))

	for step := 0; step < 5000; step++ {
		if rng.Intn(4) == 0 {
			clk.Advance(time.Duration(rng.Intn(700)) * time.Millisecond)
		}
		p := principals[rng.Intn(len(principals))]
		m := models[p]
		if m == nil {
			m = &model{tokens: burst, last: clk.Now()}
			models[p] = m
		}
		now := clk.Now()
		m.tokens = math.Min(burst, m.tokens+now.Sub(m.last).Seconds()*rate)
		m.last = now
		wantOK := m.tokens >= 1
		var wantRetry time.Duration
		if wantOK {
			m.tokens--
		} else {
			wantRetry = time.Duration((1 - m.tokens) / rate * float64(time.Second))
		}

		gotOK, gotRetry := l.take(p)
		if gotOK != wantOK {
			t.Fatalf("step %d principal %s: admit=%v, closed form says %v (tokens %.4f)",
				step, p, gotOK, wantOK, m.tokens)
		}
		if !gotOK {
			if diff := (gotRetry - wantRetry).Abs(); diff > time.Microsecond {
				t.Fatalf("step %d principal %s: retryAfter %v, closed form %v",
					step, p, gotRetry, wantRetry)
			}
		}
	}
}

// TestTokenBucketBurstAndRefill pins the exact burst/refill boundary:
// a fresh principal gets exactly Burst immediate admissions, then a
// denial whose Retry-After matches the deficit, then exactly the
// accrued number after a partial refill.
func TestTokenBucketBurstAndRefill(t *testing.T) {
	clk := newFakeClock()
	l := newLimiter(LimitConfig{RatePerSec: 2, Burst: 5, Now: clk.Now})
	for i := 0; i < 5; i++ {
		if ok, _ := l.take("p"); !ok {
			t.Fatalf("request %d denied inside burst", i)
		}
	}
	ok, retry := l.take("p")
	if ok {
		t.Fatal("admitted past burst with no refill")
	}
	if want := 500 * time.Millisecond; retry != want { // (1-0)/2 s
		t.Fatalf("retryAfter %v, want %v", retry, want)
	}
	clk.Advance(time.Second) // accrues 2 tokens
	for i := 0; i < 2; i++ {
		if ok, _ := l.take("p"); !ok {
			t.Fatalf("refilled token %d denied", i)
		}
	}
	if ok, _ := l.take("p"); ok {
		t.Fatal("admitted a third request after accruing only two tokens")
	}
}

// TestTokenBucketPrincipalIsolation: exhausting one principal leaves
// another untouched.
func TestTokenBucketPrincipalIsolation(t *testing.T) {
	clk := newFakeClock()
	l := newLimiter(LimitConfig{RatePerSec: 1, Burst: 3, Now: clk.Now})
	for i := 0; i < 3; i++ {
		l.take("greedy")
	}
	if ok, _ := l.take("greedy"); ok {
		t.Fatal("greedy principal not exhausted")
	}
	for i := 0; i < 3; i++ {
		if ok, _ := l.take("patient"); !ok {
			t.Fatalf("isolated principal denied at request %d", i)
		}
	}
}

// TestRateLimit429RetryAfter checks the HTTP surface: past the burst, a
// request gets 429 with the whole-second rounded-up Retry-After.
func TestRateLimit429RetryAfter(t *testing.T) {
	clk := newFakeClock()
	ix, iss, _ := seeded(t)
	srv, err := NewServer(Config{Index: ix, Issuer: iss,
		Limits: &LimitConfig{RatePerSec: 0.25, Burst: 2, Now: clk.Now}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, _ := get(t, srv, "/api/search", "")
		if res.StatusCode != 200 {
			t.Fatalf("burst request %d: status %d", i, res.StatusCode)
		}
	}
	res, _ := get(t, srv, "/api/search", "")
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", res.StatusCode)
	}
	// Deficit is a full token at 0.25/s = 4s exactly.
	if ra := res.Header.Get("Retry-After"); ra != "4" {
		t.Fatalf("Retry-After %q, want 4", ra)
	}
	// After the advertised wait the principal is admitted again.
	clk.Advance(4 * time.Second)
	if res, _ := get(t, srv, "/api/search", ""); res.StatusCode != 200 {
		t.Fatalf("post-wait status %d", res.StatusCode)
	}
}

// TestInFlightCapSheds503 checks shed-before-collapse: with MaxInFlight
// saturated by a blocked handler, the next request is rejected
// immediately with 503 + Retry-After instead of queueing.
func TestInFlightCapSheds503(t *testing.T) {
	ix, iss, _ := seeded(t)
	srv, err := NewServer(Config{Index: ix, Issuer: iss,
		Limits: &LimitConfig{MaxInFlight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	inside := make(chan struct{})
	blocked := srv.withAdmission(func(w http.ResponseWriter, r *http.Request) {
		close(inside)
		<-hold
	}, true)
	go func() {
		rec := httptest.NewRecorder()
		blocked(rec, httptest.NewRequest("GET", "/x", nil))
	}()
	<-inside

	start := time.Now()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/search", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shed took %v — request queued instead of shedding", d)
	}
	close(hold)
}

// TestLimiterBucketTableBounded: past maxBuckets, brand-new principals
// share the overflow bucket instead of growing the table without bound.
func TestLimiterBucketTableBounded(t *testing.T) {
	clk := newFakeClock()
	l := newLimiter(LimitConfig{RatePerSec: 1, Burst: 1, maxBuckets: 8, Now: clk.Now})
	for i := 0; i < 64; i++ {
		l.take(fmt.Sprintf("p-%d", i))
	}
	l.mu.Lock()
	n := len(l.buckets)
	l.mu.Unlock()
	if n > 9 { // maxBuckets + the shared overflow bucket
		t.Fatalf("bucket table grew to %d entries with maxBuckets=8", n)
	}
	// After idling long enough to refill, the sweep reclaims slots and new
	// principals get private buckets again.
	clk.Advance(time.Minute)
	if ok, _ := l.take("fresh"); !ok {
		t.Fatal("fresh principal denied after sweep window")
	}
}
