package core

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/compute"
	"picoprobe/internal/wire"
)

// gatedDaemon starts a facility daemon (secret WireSecretDefault) whose
// one-worker pool runs fn: it blocks until release is closed, then
// returns fnErr. It also returns an operator token for it.
func gatedDaemon(t *testing.T, fn string, fnErr error) (srv *wire.Server, addr, token string, issuer *auth.Issuer, release chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	issuer = auth.NewIssuer([]byte(WireSecretDefault), nil)
	registry := compute.NewRegistry()
	registry.Register(compute.Function{Name: fn, Run: func(compute.Args) (compute.Result, error) {
		<-release
		return compute.Result{"gated": true}, fnErr
	}})
	ctoken, err := issuer.Issue("facilityd@gated", []string{auth.ScopeCompute}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	token, err = issuer.Issue("op@gated", []string{auth.ScopeTransfer, auth.ScopeCompute}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	srv = &wire.Server{
		Root: t.TempDir(),
		Verify: func(tok string) error {
			_, err := issuer.Verify(tok, auth.ScopeTransfer)
			return err
		},
		Compute:      compute.NewService(issuer, registry, compute.NewLocalExecutor(1, nil), time.Now),
		ComputeToken: ctoken,
	}
	if addr, err = srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		srv.Close()
	})
	return srv, addr, token, issuer, release
}

// waitDaemonHeld polls the daemon's status endpoint until it holds n Jobs.
func waitDaemonHeld(t *testing.T, addr, token string, n int) {
	t.Helper()
	probe := &wire.Client{Addr: addr, Token: token, Timeout: 5 * time.Second}
	defer probe.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _, err := probe.Status(0)
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

// watchGoroutines counts WireComputeBackend.Watch goroutines still alive,
// waiting up to 2 s for the count to reach zero.
func watchGoroutines() int {
	deadline := time.Now().Add(2 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		n := strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*WireComputeBackend).Watch.func")
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWireBackendWatchFiresOnce: the wire compute backend's Watch fires
// exactly once — when a held task succeeds, when it fails, and when the
// client is closed while the daemon holds the Job — and Status then
// reads the outcome.
func TestWireBackendWatchFiresOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fnErr error
		close bool // close the client mid-hold instead of ending the task
		want  compute.TaskStatus
	}{
		{"success", nil, false, compute.StatusSucceeded},
		{"task failure", errors.New("analysis exploded"), false, compute.StatusFailed},
		{"client closed", nil, true, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr, token, issuer, release := gatedDaemon(t, "fn", tc.fnErr)
			// A 20 s op timeout makes every hold 10 s: a signal inside 2 s
			// is the task's end or the close, never a hold running out.
			cl := &wire.Client{Addr: addr, Token: token, Timeout: 20 * time.Second}
			defer cl.Close()
			b := &WireComputeBackend{Issuer: issuer, Client: cl}
			id, err := b.Submit(token, "fn", nil)
			if err != nil {
				t.Fatal(err)
			}
			var fired atomic.Int32
			signal := make(chan struct{}, 2)
			b.Watch(id, func() {
				fired.Add(1)
				signal <- struct{}{}
			})
			waitDaemonHeld(t, addr, token, 1)
			if tc.close {
				cl.Close()
			} else {
				close(release)
			}
			select {
			case <-signal:
			case <-time.After(2 * time.Second):
				t.Fatal("watch did not fire within 2 s")
			}
			if tc.want != "" {
				view, err := b.Status(token, id)
				if err != nil || view.Status != tc.want {
					t.Fatalf("status after the signal = %s, %v; want %s", view.Status, err, tc.want)
				}
			}
			if n := watchGoroutines(); n != 0 {
				t.Errorf("%d watch goroutine(s) alive after the signal", n)
			}
			if n := fired.Load(); n != 1 {
				t.Errorf("watch fired %d times, want 1", n)
			}
		})
	}
}

// TestWireDeploymentCloseEndsWatch: closing a wire deployment while the
// daemon holds its compute Job ends the run and leaves nothing behind —
// no connection to the daemon open, none dialled after Close, no watch
// goroutine.
func TestWireDeploymentCloseEndsWatch(t *testing.T) {
	_, addr, token, _, _ := gatedDaemon(t, FnHyperspectral, nil)
	instrument := t.TempDir()
	if err := os.WriteFile(filepath.Join(instrument, "a.emdg"), []byte("bytes the gate never reads"), 0o644); err != nil {
		t.Fatal(err)
	}
	var open, dials atomic.Int64
	dep, err := NewWireDeployment(WireOptions{
		InstrumentRoot: instrument,
		DaemonAddr:     addr,
		Timeout:        20 * time.Second, // holds of 10 s
		Dial: func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			dials.Add(1)
			open.Add(1)
			return &countedConn{Conn: c, open: &open}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() {
		_, err := dep.RunFile("hyperspectral", "a.emdg")
		ran <- err
	}()
	waitDaemonHeld(t, addr, token, 1)
	dialled := dials.Load()
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}
	if n := open.Load(); n != 0 {
		t.Errorf("%d connection(s) to the daemon still open after Close", n)
	}
	select {
	case err := <-ran:
		if err == nil {
			t.Fatal("the run succeeded although its deployment was closed mid-job")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the run did not end within 2 s of Close: its watch did not fire")
	}
	if n := dials.Load(); n != dialled {
		t.Errorf("%d connection(s) dialled after Close", n-dialled)
	}
	if n := watchGoroutines(); n != 0 {
		t.Errorf("%d watch goroutine(s) alive after Close", n)
	}
}
