package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"picoprobe/internal/netfault"
)

// --- error taxonomy ---

func TestPermanentClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{&RemoteError{Code: CodeAuth, Msg: "bad token"}, true},
		{&RemoteError{Code: CodeBadRequest, Msg: "no"}, true},
		{&RemoteError{Code: CodeNotFound, Msg: "gone"}, true},
		{&RemoteError{Code: CodeIO, Msg: "disk"}, false},
		{&RemoteError{Code: CodeChecksum, Msg: "mismatch"}, false},
		{&RemoteError{Code: CodeBusy, Msg: "draining"}, false},
		{&RemoteError{Code: CodeCorrupt, Msg: "torn"}, false},
		{&RemoteError{Code: "future-code", Msg: "?"}, false},
		{fmt.Errorf("wire: dial: %w", errors.New("connection refused")), false},
		{fmt.Errorf("op: %w", &RemoteError{Code: CodeAuth}), true}, // wrapped
		{ErrCircuitOpen, false},
	}
	for _, c := range cases {
		if got := Permanent(c.err); got != c.want {
			t.Errorf("Permanent(%v) = %v, want %v", c.err, got, c.want)
		}
		wantRetry := c.err != nil && !c.want
		if got := Retryable(c.err); got != wantRetry {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, wantRetry)
		}
	}
}

// --- backoff ---

func TestBackoffZeroValueIsImmediate(t *testing.T) {
	var b Backoff
	for i := 0; i < 5; i++ {
		if d := b.Delay(i); d != 0 {
			t.Fatalf("zero-value Delay(%d) = %v, want 0", i, d)
		}
	}
	var nilB *Backoff
	if d := nilB.Delay(3); d != 0 {
		t.Fatalf("nil Delay = %v, want 0", d)
	}
}

func TestBackoffFullJitterBounds(t *testing.T) {
	// Rand pinned to 1.0-epsilon gives the ceiling; to 0 gives zero.
	top := &Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Rand: func() float64 { return 0.999999 }}
	wants := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond, 80 * time.Millisecond}
	for i, want := range wants {
		got := top.Delay(i)
		if got < want*99/100 || got > want {
			t.Fatalf("Delay(%d) = %v, want ~%v (ceiling)", i, got, want)
		}
	}
	floor := &Backoff{Base: 10 * time.Millisecond, Rand: func() float64 { return 0 }}
	if d := floor.Delay(3); d != 0 {
		t.Fatalf("full jitter floor = %v, want 0", d)
	}
}

func TestBackoffDefaultMax(t *testing.T) {
	b := &Backoff{Base: time.Second, Rand: func() float64 { return 0.999999 }}
	if d := b.Delay(20); d > 30*time.Second {
		t.Fatalf("Delay(20) = %v, want capped at 30s default", d)
	} else if d < 29*time.Second {
		t.Fatalf("Delay(20) = %v, want near the 30s cap", d)
	}
}

func TestBackoffConcurrentUse(t *testing.T) {
	b := &Backoff{Base: time.Microsecond}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Delay(i % 10)
			}
		}()
	}
	wg.Wait()
}

// --- circuit breaker ---

// refusingDialer always fails, as if the daemon's host dropped off the
// network.
func refusingDialer(addr string) (net.Conn, error) {
	return nil, errors.New("connection refused (injected)")
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	cl := &Client{
		Addr:            "198.51.100.1:1", // never dialed: Dial is injected
		Dial:            refusingDialer,
		Timeout:         time.Second,
		BreakerCooldown: time.Hour, // long: the breaker must stay open for the test
	}
	defer cl.Close()

	for i := 0; i < breakerThreshold; i++ {
		if cl.BreakerOpen() {
			t.Fatalf("breaker open after only %d failures", i)
		}
		if _, _, err := cl.Status(0); err == nil {
			t.Fatal("injected dial failure did not fail the op")
		} else if errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("failure %d reported as ErrCircuitOpen before the threshold", i)
		}
	}
	if !cl.BreakerOpen() {
		t.Fatal("breaker closed after breakerThreshold consecutive failures")
	}
	// Open breaker fails fast without dialing.
	var dials int
	cl.Dial = func(addr string) (net.Conn, error) { dials++; return nil, errors.New("refused") }
	if _, _, err := cl.Status(0); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker returned %v, want ErrCircuitOpen", err)
	}
	if dials != 0 {
		t.Fatalf("open breaker dialed %d times, want 0 (fail fast)", dials)
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	_, good, token := startServer(t, nil)
	cl := &Client{
		Addr:            good.Addr,
		Token:           token,
		Dial:            refusingDialer,
		Timeout:         time.Second,
		BreakerCooldown: 10 * time.Millisecond,
	}
	defer cl.Close()

	for i := 0; i < breakerThreshold; i++ {
		cl.Status(0)
	}
	if !cl.BreakerOpen() {
		t.Fatal("setup: breaker did not open")
	}
	// Daemon comes back; after the cooldown one half-open probe goes
	// through and closes the breaker.
	cl.mu.Lock()
	cl.Dial = nil
	cl.mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	if _, _, err := cl.Status(0); err != nil {
		t.Fatalf("half-open probe against recovered daemon: %v", err)
	}
	if cl.BreakerOpen() {
		t.Fatal("successful probe left the breaker open")
	}
	if _, _, err := cl.Status(0); err != nil {
		t.Fatalf("op after breaker close: %v", err)
	}
}

func TestBreakerFailedProbeRearmsCooldown(t *testing.T) {
	cl := &Client{
		Addr:            "198.51.100.1:1",
		Dial:            refusingDialer,
		Timeout:         time.Second,
		BreakerCooldown: 15 * time.Millisecond,
	}
	defer cl.Close()
	for i := 0; i < breakerThreshold; i++ {
		cl.Status(0)
	}
	time.Sleep(25 * time.Millisecond)
	// Cooldown expired: this op is the half-open probe, and it fails.
	if _, _, err := cl.Status(0); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("half-open probe err = %v, want the dial failure itself", err)
	}
	// The failed probe re-armed the cooldown: immediately after, fail fast.
	if _, _, err := cl.Status(0); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("after failed probe err = %v, want ErrCircuitOpen", err)
	}
}

// TestBreakerIgnoresRemoteErrors: a daemon that answers — even with an
// error — is alive, so typed remote errors never open the breaker.
func TestBreakerIgnoresRemoteErrors(t *testing.T) {
	_, cl0, token := startServer(t, nil)
	cl := &Client{
		Addr:    cl0.Addr,
		Token:   token,
		Timeout: time.Second,
	}
	defer cl.Close()
	for i := 0; i < breakerThreshold+1; i++ {
		if _, err := cl.Stat([]string{"../escape"}); !IsRemoteCode(err, CodeBadRequest) {
			t.Fatalf("want CodeBadRequest, got %v", err)
		}
	}
	if cl.BreakerOpen() {
		t.Fatal("remote errors opened the breaker")
	}
}

// --- idle-session eviction ---

func TestIdleSessionEvicted(t *testing.T) {
	_, cl0, token := startServer(t, nil)
	faults := &netfault.Faults{}
	cl := &Client{
		Addr:        cl0.Addr,
		Token:       token,
		Timeout:     5 * time.Second,
		Dial:        faults.Dialer(nil),
		IdleTimeout: 30 * time.Millisecond,
	}
	defer cl.Close()

	if _, _, err := cl.Status(0); err != nil {
		t.Fatal(err)
	}
	if d := faults.Dials(); d != 1 {
		t.Fatalf("dials = %d, want 1", d)
	}
	// Let the pooled session go stale; the background reaper closes it.
	deadline := time.Now().Add(5 * time.Second)
	for faults.Open() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := faults.Open(); n != 0 {
		t.Fatalf("reaper left %d sessions open after IdleTimeout", n)
	}
	// The next op dials fresh instead of using a dead socket.
	if _, _, err := cl.Status(0); err != nil {
		t.Fatalf("op after eviction: %v", err)
	}
	if d := faults.Dials(); d != 2 {
		t.Fatalf("dials = %d, want 2 (evicted session not reused)", d)
	}
}

// --- busy handling ---

// busyThenOKServer speaks just enough of the protocol: it accepts a
// session, answers Hello, then answers the first `busyAnswers` requests
// with CodeBusy and everything after with StatusOK.
func busyThenOKServer(t *testing.T, busyAnswers int) (addr string, served *int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	count := new(int)
	var mu sync.Mutex
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				typ, _, _, err := ReadFrame(c, 0)
				if err != nil || typ != MsgHello {
					return
				}
				WriteFrame(c, MsgHelloOK, HelloOK{Facility: "busybox", Version: ProtocolVersion}, nil)
				for {
					if _, _, _, err := ReadFrame(c, 0); err != nil {
						return
					}
					mu.Lock()
					*count++
					n := *count
					mu.Unlock()
					if n <= busyAnswers {
						WriteFrame(c, MsgError, ErrFrame{Code: CodeBusy, Msg: "try later"}, nil)
						continue
					}
					WriteFrame(c, MsgStatusOK, StatusOK{Facility: "busybox"}, nil)
				}
			}(c)
		}
	}()
	return ln.Addr().String(), count
}

func TestBusyRetriedWithinOneOp(t *testing.T) {
	addr, served := busyThenOKServer(t, 2)
	cl := &Client{
		Addr:    addr,
		Timeout: 5 * time.Second,
		Backoff: &Backoff{Base: time.Millisecond, Rand: func() float64 { return 0.5 }},
	}
	defer cl.Close()
	st, _, err := cl.Status(0)
	if err != nil {
		t.Fatalf("busy-retried op failed: %v", err)
	}
	if st.Facility != "busybox" {
		t.Fatalf("facility = %q", st.Facility)
	}
	if *served != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 busy + 1 OK)", *served)
	}
}

// --- the zero-value client ---

// TestZeroValueClientIsResilient: a bare &Client{Addr, Token} — what every
// shipped caller builds — has the breaker, the half-open probe, the busy
// retries and the idle reaper. The test sets durations only, to shrink
// them; there is nothing it could switch on.
func TestZeroValueClientIsResilient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close() // nothing listens here any more: every dial is refused
	_, good, token := startServer(t, nil)

	cl := &Client{Addr: dead, Token: token, BreakerCooldown: 20 * time.Millisecond, IdleTimeout: 30 * time.Millisecond}
	defer cl.Close()
	for i := 0; i < 4; i++ {
		if _, _, err := cl.Status(0); err == nil || errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("transport failure %d: err = %v, want the dial error itself", i, err)
		}
	}
	if _, _, err := cl.Status(0); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("after 4 consecutive transport failures err = %v, want ErrCircuitOpen", err)
	}
	if !cl.BreakerOpen() {
		t.Fatal("BreakerOpen() = false behind an ErrCircuitOpen answer")
	}
	// The daemon comes back: past the cool-down one half-open probe goes
	// through and closes the breaker.
	cl.Addr = good.Addr
	time.Sleep(30 * time.Millisecond)
	if _, _, err := cl.Status(0); err != nil {
		t.Fatalf("half-open probe against the recovered daemon: %v", err)
	}
	if cl.BreakerOpen() {
		t.Fatal("successful probe left the breaker open")
	}
	// The probe's session went back to the pool; the reaper closes it.
	pooled := func() int {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		return len(cl.idle)
	}
	for deadline := time.Now().Add(5 * time.Second); pooled() > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("reaper left %d session(s) pooled past IdleTimeout", pooled())
		}
	}

	// A server that only ever answers busy: 1 try + 3 retries, then busy
	// surfaces.
	addr, served := busyThenOKServer(t, 100)
	busy := &Client{Addr: addr, Backoff: &Backoff{Base: time.Millisecond}}
	defer busy.Close()
	if _, _, err := busy.Status(0); !IsRemoteCode(err, CodeBusy) {
		t.Fatalf("err = %v, want CodeBusy surfaced once the retries are spent", err)
	}
	if *served != 4 {
		t.Fatalf("server saw %d requests, want 4 (1 + 3 busy retries)", *served)
	}
}

// --- server admission cap, idle reap, drain ---

// holdSession opens one raw authenticated session and keeps it open.
func holdSession(t *testing.T, addr, token string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := WriteFrame(conn, MsgHello, Hello{Magic: Magic, Version: ProtocolVersion, Token: token}, nil); err != nil {
		t.Fatal(err)
	}
	typ, head, _, err := ReadFrame(conn, 0)
	if err != nil || typ != MsgHelloOK {
		t.Fatalf("hold session hello: typ=%d err=%v head=%s", typ, err, head)
	}
	return conn
}

func TestServerSessionCapAnswersBusy(t *testing.T) {
	_, cl, token := startServer(t, func(s *Server) { s.MaxSessions = 2 })
	c1 := holdSession(t, cl.Addr, token)
	defer c1.Close()
	c2 := holdSession(t, cl.Addr, token)
	defer c2.Close()

	if _, _, err := cl.Status(0); !IsRemoteCode(err, CodeBusy) {
		t.Fatalf("over-cap op err = %v, want CodeBusy", err)
	}
	// A freed slot admits the next session.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, err := cl.Status(0); err == nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("freed session slot never admitted a new session")
}

func TestServerIdleTimeoutReapsSessions(t *testing.T) {
	_, cl0, token := startServer(t, func(s *Server) { s.IdleTimeout = 50 * time.Millisecond })
	faults := &netfault.Faults{}
	cl := &Client{Addr: cl0.Addr, Token: token, Timeout: 5 * time.Second, Dial: faults.Dialer(nil)}
	defer cl.Close()
	if _, _, err := cl.Status(0); err != nil {
		t.Fatal(err)
	}
	// Go quiet past the server's idle deadline: the server reaps the
	// session. The client's pooled-retry hides the stale socket.
	time.Sleep(150 * time.Millisecond)
	if _, _, err := cl.Status(0); err != nil {
		t.Fatalf("op after server-side idle reap: %v", err)
	}
	if d := faults.Dials(); d != 2 {
		t.Fatalf("dials = %d, want 2 (server reaped the idle session)", d)
	}
}

func TestDrainStopsAcceptingAndCloses(t *testing.T) {
	srv, cl, _ := startServer(t, nil)
	if _, _, err := cl.Status(0); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Fully drained server refuses new work: fresh dial fails or the
	// pooled session is gone.
	if _, _, err := cl.Status(0); err == nil {
		t.Fatal("op against drained server succeeded")
	}
}

func TestDrainLetsBusySessionFinish(t *testing.T) {
	gate := make(chan struct{})
	released := false
	srv, cl, token := startServer(t, func(s *Server) {
		s.Verify = func(string) error { return nil }
		s.Now = func() time.Time {
			// Abused as a mid-request hook: Status calls Now while holding
			// its session busy. First call blocks until drain starts.
			if !released {
				released = true
				close(gate)
				time.Sleep(100 * time.Millisecond)
			}
			return time.Now()
		}
	})
	_ = token
	type result struct {
		err error
	}
	opDone := make(chan result, 1)
	go func() {
		_, _, err := cl.Status(0)
		opDone <- result{err}
	}()
	<-gate // the op is mid-request now
	start := time.Now()
	if err := srv.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	res := <-opDone
	if res.err != nil {
		t.Fatalf("in-flight op during drain failed: %v", res.err)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Fatalf("drain returned after %v, did not wait for the busy session", waited)
	}
}
