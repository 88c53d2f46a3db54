package wire_test

import (
	"net"
	"testing"
	"time"

	"picoprobe/internal/lab"
	"picoprobe/internal/netfault"
	"picoprobe/internal/netprobe"
	"picoprobe/internal/sim"
	"picoprobe/internal/wire"
)

// TestProbeTargetMeasure: one Measure against a live daemon produces a
// sane sample — a positive sub-second RTT, no loss, and a real goodput
// figure from the filled round trip.
func TestProbeTargetMeasure(t *testing.T) {
	_, cl, token := wire.StartServer(t, nil)
	target := lab.NewProbeTarget(cl.Addr, token)
	defer target.Client.Close()

	m := target.Measure(time.Now())
	if m.Loss != 0 {
		t.Fatalf("loss %v against a live daemon", m.Loss)
	}
	if m.RTT <= 0 || m.RTT > 5*time.Second {
		t.Fatalf("implausible RTT %v", m.RTT)
	}
	if m.GoodputBps <= 0 {
		t.Fatalf("no goodput sample (got %v)", m.GoodputBps)
	}
}

// TestProbeTargetDeadFacility: a dead socket is a loss-1 sample, not an
// error and not a hang.
func TestProbeTargetDeadFacility(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listening here any more

	target := lab.NewProbeTarget(addr, "any")
	defer target.Client.Close()
	start := time.Now()
	m := target.Measure(time.Now())
	if m.Loss != 1 {
		t.Fatalf("dead facility measured as %+v, want Loss 1", m)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("dead-facility measure hung")
	}
}

// TestProberSeesInducedDelay runs netprobe's real prober against a real
// daemon socket: the baseline loopback score is healthy, an injected
// read delay on the server's listener drags the score down within a few
// windows, and clearing the delay lets the EWMA recover — the full
// probe-visible degradation story of the wire campaign, in miniature.
func TestProberSeesInducedDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second probe convergence")
	}
	// An open (no-auth) server behind a fault-wrapped listener, so the
	// probe path is the one the induced delay lands on.
	faults := &netfault.Faults{}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Root: t.TempDir(), Facility: "probed"}
	go srv.Serve(faults.Listener(raw))
	defer srv.Close()
	addr := raw.Addr().String()

	rt := sim.NewLiveRuntime(1)
	prober := netprobe.New(rt, netprobe.Config{
		Interval:      20 * time.Millisecond,
		WindowSamples: 2,
	})
	target := lab.NewProbeTarget(addr, "")
	defer target.Client.Close()
	const path = "wan:probed"
	if _, err := prober.Register(path, target); err != nil {
		t.Fatal(err)
	}
	prober.Start(time.Time{})
	defer prober.Stop()

	waitFor := func(what string, deadline time.Duration, ok func(netprobe.Quality) bool) netprobe.Quality {
		t.Helper()
		end := time.Now().Add(deadline)
		for {
			q, found := prober.Quality(path)
			if found && ok(q) {
				return q
			}
			if time.Now().After(end) {
				t.Fatalf("%s: quality stuck at %+v", what, q)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Baseline: loopback closes a window with a healthy score and real
	// dimension values — not the optimistic pre-measurement default.
	base := waitFor("baseline window", 10*time.Second, func(q netprobe.Quality) bool { return q.Windows > 0 })
	if base.Score < 90 {
		t.Fatalf("loopback baseline score %.1f, want >= 90", base.Score)
	}
	if base.RTT <= 0 || base.GoodputBps <= 0 {
		t.Fatalf("baseline dimensions empty: %+v", base)
	}

	// Degrade: 150 ms per server-side read means ~300 ms per measured
	// round trip — deep into the RTT subscore's penalty range.
	faults.SetReadDelay(150 * time.Millisecond)
	deg := waitFor("degraded score", 30*time.Second, func(q netprobe.Quality) bool { return q.Score < 60 })
	if deg.RTT < 100*time.Millisecond {
		t.Fatalf("degraded RTT %v did not reflect the induced delay", deg.RTT)
	}

	// Recover: clear the delay; the EWMA folds back toward loopback.
	faults.SetReadDelay(0)
	rec := waitFor("recovered score", 30*time.Second, func(q netprobe.Quality) bool { return q.Score > 90 })
	if rec.Score <= deg.Score {
		t.Fatalf("score did not recover: degraded %.1f, recovered %.1f", deg.Score, rec.Score)
	}
}
