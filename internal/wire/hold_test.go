package wire

import (
	"net"
	"testing"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/compute"
)

// startComputeServer is startServer with a compute pool of one worker
// running "gate", which blocks until the returned release is closed, and
// "ok", which returns at once.
func startComputeServer(t *testing.T, mutate func(*Server)) (*Server, *Client, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	issuer := auth.NewIssuer([]byte("test-secret"), nil)
	registry := compute.NewRegistry()
	registry.Register(compute.Function{Name: "gate", Run: func(compute.Args) (compute.Result, error) {
		<-release
		return compute.Result{"gated": true}, nil
	}})
	registry.Register(compute.Function{Name: "ok", Run: func(compute.Args) (compute.Result, error) {
		return compute.Result{}, nil
	}})
	ctoken, err := issuer.Issue("facilityd@test", []string{auth.ScopeCompute}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	srv, cl, _ := startServer(t, func(s *Server) {
		s.Compute = compute.NewService(issuer, registry, compute.NewLocalExecutor(1, nil), time.Now)
		s.ComputeToken = ctoken
		if mutate != nil {
			mutate(s)
		}
	})
	return srv, cl, release
}

// waitHeld polls the status endpoint until the daemon holds n Jobs.
func waitHeld(t *testing.T, cl *Client, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _, err := cl.Status(0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Held == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon holds %d Job(s), want %d", st.Held, n)
		}
		time.Sleep(time.Millisecond)
	}
}

type jobAnswer struct {
	job JobOK
	err error
	at  time.Time
}

// waitJobAsync issues one held Job on its own goroutine.
func waitJobAsync(cl *Client, task string, wait time.Duration) <-chan jobAnswer {
	ch := make(chan jobAnswer, 1)
	go func() {
		j, err := cl.WaitJob(task, wait)
		ch <- jobAnswer{j, err, time.Now()}
	}()
	return ch
}

// TestWatchHeldJobAnswersAtCompletion: a held Job is answered within
// milliseconds of its task's end, long before its wait runs out, and
// carries the terminal state.
func TestWatchHeldJobAnswersAtCompletion(t *testing.T) {
	_, cl, release := startComputeServer(t, nil)
	task, err := cl.Dispatch("gate", nil)
	if err != nil {
		t.Fatal(err)
	}
	answer := waitJobAsync(cl, task, 5*time.Second)
	waitHeld(t, cl, 1)
	ended := time.Now()
	close(release)
	a := <-answer
	if a.err != nil || a.job.Status != string(compute.StatusSucceeded) || a.job.Result["gated"] != true {
		t.Fatalf("held job = %+v, %v; want SUCCEEDED with the result", a.job, a.err)
	}
	if lag := a.at.Sub(ended); lag > time.Second {
		t.Errorf("held job answered %v after its task ended", lag)
	}
	waitHeld(t, cl, 0)
}

// TestWatchHeldJobAnswersActiveAtHold: a task that outlives the hold is
// answered ACTIVE when the hold ends — the asked wait, or half the
// server's IdleTimeout when that is shorter.
func TestWatchHeldJobAnswersActiveAtHold(t *testing.T) {
	_, cl, _ := startComputeServer(t, func(s *Server) { s.IdleTimeout = 80 * time.Millisecond })
	task, err := cl.Dispatch("gate", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		wait, want time.Duration
	}{
		{20 * time.Millisecond, 20 * time.Millisecond},
		{5 * time.Second, 40 * time.Millisecond}, // IdleTimeout/2
	} {
		start := time.Now()
		j, err := cl.WaitJob(task, tc.wait)
		took := time.Since(start)
		if err != nil || j.Status != string(compute.StatusActive) {
			t.Fatalf("wait %v: job = %+v, %v; want ACTIVE", tc.wait, j, err)
		}
		if took < tc.want || took > tc.want+time.Second {
			t.Errorf("wait %v: answered after %v, want ≈ %v", tc.wait, took, tc.want)
		}
	}
}

// TestWatchHeldJobUnknownTask: a held Job for a task the daemon never
// dispatched is not-found at once, and a finished task is answered at
// once too.
func TestWatchHeldJobUnknownTask(t *testing.T) {
	_, cl, _ := startComputeServer(t, nil)
	start := time.Now()
	if _, err := cl.WaitJob("no-such-task", 5*time.Second); !IsRemoteCode(err, CodeNotFound) {
		t.Fatalf("unknown task: err = %v, want CodeNotFound", err)
	}
	task, err := cl.Dispatch("ok", nil)
	if err != nil {
		t.Fatal(err)
	}
	if j, err := cl.WaitJob(task, 5*time.Second); err != nil || j.Status != string(compute.StatusSucceeded) {
		t.Fatalf("finished task: job = %+v, %v", j, err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("answers took %v, want at once", took)
	}
}

// TestWatchHeldJobDrainAndClose: Drain answers a held Job with its
// current state at once instead of spending its grace on the hold, and
// Close does the same to a hold on another server.
func TestWatchHeldJobDrainAndClose(t *testing.T) {
	for _, stop := range []struct {
		name string
		fn   func(*Server) error
	}{
		{"drain", func(s *Server) error { return s.Drain(10 * time.Second) }},
		{"close", (*Server).Close},
	} {
		t.Run(stop.name, func(t *testing.T) {
			srv, cl, _ := startComputeServer(t, nil)
			task, err := cl.Dispatch("gate", nil)
			if err != nil {
				t.Fatal(err)
			}
			answer := waitJobAsync(cl, task, 8*time.Second)
			waitHeld(t, cl, 1)
			start := time.Now()
			stop.fn(srv)
			if took := time.Since(start); took > 2*time.Second {
				t.Errorf("%s with a held job took %v", stop.name, took)
			}
			select {
			case a := <-answer:
				if stop.name == "drain" && (a.err != nil || a.job.Status != string(compute.StatusActive)) {
					t.Errorf("drained held job = %+v, %v; want its current state, ACTIVE", a.job, a.err)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("held job still unanswered after %s", stop.name)
			}
			if n := srv.held.Load(); n != 0 {
				t.Errorf("%d job(s) still held", n)
			}
		})
	}
}

// exchangeRaw sends one request on a raw session and reads the answer.
func exchangeRaw(t *testing.T, conn net.Conn, typ byte, head any, body []byte) (byte, []byte) {
	t.Helper()
	if err := WriteFrame(conn, typ, head, body); err != nil {
		t.Fatal(err)
	}
	rtyp, rhead, _, err := ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rtyp, rhead
}

// TestWatchV1ClientOnV2Daemon: a version-1 client, speaking raw frames,
// is served by a version-2 daemon — Hello is echoed at version 1, every
// v1 op works, a Job is answered at once — and the retired Read type is
// an unknown message type.
func TestWatchV1ClientOnV2Daemon(t *testing.T) {
	srv, cl, _ := startComputeServer(t, nil)
	issuer := auth.NewIssuer([]byte("test-secret"), nil)
	token, err := issuer.Issue("op@test", []string{auth.ScopeTransfer}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", cl.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	typ, head := exchangeRaw(t, conn, MsgHello, Hello{Magic: Magic, Version: 1, Token: token}, nil)
	var ok HelloOK
	if typ != MsgHelloOK || DecodeHead(head, &ok) != nil || ok.Version != 1 {
		t.Fatalf("v1 hello answered type %d %s, want HelloOK at version 1", typ, head)
	}
	data := []byte("v1 bytes")
	digest := hexSHA256(data)
	for _, op := range []struct {
		typ  byte
		head any
		body []byte
	}{
		{MsgStat, Stat{Rels: []string{"v1.bin"}}, nil},
		{MsgPrepare, Prepare{Rel: "v1.bin", Size: int64(len(data))}, nil},
		{MsgWrite, Write{Rel: "v1.bin", Off: 0, SHA256: digest}, data},
		{MsgHash, Hash{Rel: "v1.bin", Off: 0, N: int64(len(data))}, nil},
		{MsgMerge, Merge{Rel: "v1.bin", Chunks: []MergeChunk{{Off: 0, N: int64(len(data)), SHA256: digest}}}, nil},
	} {
		if typ, head := exchangeRaw(t, conn, op.typ, op.head, op.body); typ != op.typ+1 {
			t.Fatalf("v1 op type %d answered type %d %s", op.typ, typ, head)
		}
	}
	typ, head = exchangeRaw(t, conn, MsgDispatch, Dispatch{Function: "gate"}, nil)
	var disp DispatchOK
	if typ != MsgDispatchOK || DecodeHead(head, &disp) != nil {
		t.Fatalf("v1 dispatch answered type %d %s", typ, head)
	}
	start := time.Now()
	typ, head = exchangeRaw(t, conn, MsgJob, Job{Task: disp.Task}, nil)
	var job JobOK
	if typ != MsgJobOK || DecodeHead(head, &job) != nil || job.Status != string(compute.StatusActive) {
		t.Fatalf("v1 job answered type %d %s, want ACTIVE", typ, head)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("v1 job answered after %v, want at once", took)
	}
	typ, head = exchangeRaw(t, conn, 10, map[string]any{"rel": "v1.bin", "off": 0, "n": 4}, nil)
	if re := remoteErr(head); typ != MsgError || !IsRemoteCode(re, CodeBadRequest) {
		t.Fatalf("retired Read type answered type %d %v, want bad-request", typ, re)
	}
	if held := srv.held.Load(); held != 0 {
		t.Errorf("%d v1 job(s) held", held)
	}
}

// TestWatchV2ClientOnV1Daemon: against a daemon that speaks only version
// 1, a version-2 client fails its first op with CodeAuth, inside the op
// timeout — and since a daemon that answers is alive, repeated refusals
// never open the circuit breaker.
func TestWatchV2ClientOnV1Daemon(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				c.SetDeadline(time.Now().Add(5 * time.Second))
				_, head, _, err := ReadFrame(c, 0)
				if err != nil {
					return
				}
				var h Hello
				if DecodeHead(head, &h) != nil || h.Version != 1 {
					WriteFrame(c, MsgError, ErrFrame{Code: CodeAuth, Msg: "bad magic/version"}, nil)
				}
			}()
		}
	}()
	cl := &Client{Addr: ln.Addr().String(), Timeout: 2 * time.Second}
	defer cl.Close()
	for i := 0; i < breakerThreshold+1; i++ {
		start := time.Now()
		if _, err := cl.Job("task-000001"); !IsRemoteCode(err, CodeAuth) {
			t.Fatalf("op %d against a v1 daemon: err = %v, want CodeAuth", i, err)
		}
		if took := time.Since(start); took > cl.Timeout {
			t.Errorf("op %d failed after %v, past the %v op timeout", i, took, cl.Timeout)
		}
	}
	if cl.BreakerOpen() {
		t.Error("version refusals opened the circuit breaker")
	}
}
