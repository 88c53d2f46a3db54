// Command picoprobe-facilityd is the facility-side wire daemon: one
// process per HPC facility, serving the three wire services on plain
// TCP (DESIGN.md §11) — ranged chunk I/O under its storage root for the
// acquisition side's chunk mover, compute dispatch into a local worker
// pool running the real analysis functions, and the status endpoint
// link-quality probers measure RTT and goodput against.
//
// The daemon is deliberately stateless across restarts: the only
// durable state is the files under -root, and transfer resume
// bookkeeping lives in the client's chunk manifests. SIGKILL it
// mid-transfer, restart it on the same root, and the client completes
// with O(remaining chunks) re-moved bytes.
//
// Graceful degradation (DESIGN.md §12): -max-sessions caps concurrent
// wire sessions (excess connections get a typed busy error clients back
// off on), -idle-timeout reaps sessions whose peer went silent, and
// SIGTERM drains — the daemon stops accepting, finishes in-flight chunk
// writes for up to -drain, then exits. SIGINT (or a second SIGTERM)
// still closes immediately.
//
// Usage:
//
//	picoprobe-facilityd -root /data/eagle [-addr 127.0.0.1:7421]
//	    [-id alcf-eagle] [-secret ...] [-workers 2] [-out DIR]
//	    [-max-sessions 64] [-idle-timeout 2m] [-drain 30s]
//	    [-pprof localhost:6061]
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on the DefaultServeMux, served only on -pprof
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"picoprobe/internal/core"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7421", "TCP address to listen on (use :0 for an ephemeral port)")
	root := flag.String("root", "", "facility storage root all wire file ops are confined to (required)")
	id := flag.String("id", "alcf-eagle", "facility ID reported in Hello/Status responses")
	secret := flag.String("secret", core.WireSecretDefault, "shared HMAC secret session tokens are verified against")
	workers := flag.Int("workers", 2, "concurrent compute tasks in the local pool")
	out := flag.String("out", "", "analysis artifact directory (default <root>/analysis-out)")
	maxSessions := flag.Int("max-sessions", 64, "max concurrent wire sessions; excess connections get a typed busy error (0 = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "drop sessions idle longer than this (0 = never)")
	drain := flag.Duration("drain", 30*time.Second, "SIGTERM grace: finish in-flight requests for up to this long before exiting (0 = wait indefinitely)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6061); empty disables")
	flag.Parse()

	if *pprofAddr != "" {
		// The profiler rides the DefaultServeMux on its own listener; the
		// wire port speaks only the wire protocol. Bind it to localhost.
		go func() {
			log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	if *root == "" {
		log.Fatal("picoprobe-facilityd: -root is required")
	}
	outDir := *out
	if outDir == "" {
		outDir = filepath.Join(*root, "analysis-out")
	}
	srv, err := core.NewFacilityDaemon(*id, *root, outDir, *secret, *workers)
	if err != nil {
		log.Fatalf("picoprobe-facilityd: %v", err)
	}
	srv.MaxSessions = *maxSessions
	srv.IdleTimeout = *idleTimeout
	srv.Logf = log.Printf
	bound, err := srv.Start(*addr)
	if err != nil {
		log.Fatalf("picoprobe-facilityd: %v", err)
	}
	fmt.Printf("picoprobe-facilityd: facility %q serving %s on %s\n", *id, *root, bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	if s == syscall.SIGTERM {
		// Graceful drain: stop accepting, let in-flight requests finish
		// within the grace window. A second signal forces an immediate
		// close.
		log.Printf("picoprobe-facilityd: SIGTERM, draining (grace %v)", *drain)
		done := make(chan struct{})
		go func() {
			srv.Drain(*drain)
			close(done)
		}()
		select {
		case <-done:
		case <-sig:
			log.Printf("picoprobe-facilityd: second signal, closing now")
			srv.Close()
		}
		return
	}
	srv.Close()
}
