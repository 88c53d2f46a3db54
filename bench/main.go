// Command bench is the repository's benchmark: the live path from
// "instrument file closed" to "record queryable in the portal", over real
// sockets, measured end to end and layer by layer.
//
//	go run ./bench -seed 1                      # four workloads, untraced then traced
//	go run ./bench -workload burst-large -trace 0
//	go run ./bench -list
//
// It composes the pipeline exactly as the shipped binaries do — watcher,
// batcher, batch flows, a picoprobe-facilityd child over the wire, the
// cached portal on a loopback listener — and measures every layer from
// outside, through its public functions and the accounts it already
// returns. README.md beside this file defines every metric and workload;
// BENCHMARK.json at the repository root is the ledger's schema.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// exitFuncs are run, last first, on every exit path the process can run
// code on: normal return, failure, signal, and the run deadline.
var (
	exitMu    sync.Mutex
	exitFuncs []func()
)

func onExit(fn func()) {
	exitMu.Lock()
	exitFuncs = append(exitFuncs, fn)
	exitMu.Unlock()
}

func exit(code int) {
	exitMu.Lock()
	fns := exitFuncs
	exitFuncs = nil
	exitMu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
	os.Exit(code)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	exit(2)
}

func main() {
	workloadFlag := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed for templates, sample names, the query sequence and the seeded corpus")
	seconds := flag.Int("seconds", 20, "length of the measured window each workload is sized for")
	traceFlag := flag.String("trace", "both", "0: untraced run (end-to-end metrics); 1: traced run and probe phase (per-layer metrics); both: one after the other, with the tracing overhead")
	workdir := flag.String("workdir", "", "directory for staged files, facility root and journals (default: a fresh directory under ./.bench_work)")
	keep := flag.Bool("keep", false, "keep the work directory (and the trace files in it)")
	list := flag.Bool("list", false, "print every workload and metric name, then exit")
	flag.Parse()

	if *list {
		printList()
		return
	}
	var selected []*workload
	if *workloadFlag == "all" {
		selected = workloads
	} else if wl := workloadByName(*workloadFlag); wl != nil {
		selected = []*workload{wl}
	} else {
		fatal("unknown workload %q (see -list)", *workloadFlag)
	}
	var modes []bool
	switch *traceFlag {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fatal("-trace takes 0, 1 or both")
	}
	if *seconds < 1 || *seconds > 60 {
		fatal("-seconds takes 1 to 60")
	}

	// One P more than the machine has CPUs, for the instrument stand-in.
	// It shares this process with the pipeline under test, and with every
	// P busy hashing or rendering, a Go timer can fire 10–50 ms late: the
	// generator would miss its own schedule and the portal's tail would
	// measure the Go scheduler. A separate instrument machine has no such
	// coupling; the extra P lets the OS scheduler stand in for it.
	runtime.GOMAXPROCS(runtime.NumCPU() + 1)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fatal("interrupted")
	}()

	e := &env{seed: *seed, seconds: *seconds, keep: *keep}
	if err := e.prepare(*workdir, slices.ContainsFunc(selected, func(wl *workload) bool { return wl.wire })); err != nil {
		fatal("%v", err)
	}

	ok := true
	for _, wl := range selected {
		byMode := map[bool]*result{}
		for _, traced := range modes {
			// One run must end within the driver's 180 s; a hung pipeline
			// is killed, child included, rather than left behind.
			deadline := time.AfterFunc(runDeadline, func() {
				fatal("%s did not finish within %v", wl.name, runDeadline)
			})
			res, err := runWorkload(e, wl, traced)
			deadline.Stop()
			if err != nil {
				fatal("%s: %v", wl.name, err)
			}
			report(e, res)
			if !res.correct() {
				ok = false
			}
			byMode[traced] = res
		}
		if len(byMode) == 2 {
			reportOverhead(byMode[false], byMode[true])
		}
	}
	if !ok {
		exit(1)
	}
	exit(0)
}

// prepare picks the work directory, checks it has room, and — when a
// selected workload runs over the wire — builds the facility daemon, the
// one build the benchmark needs beyond itself.
func (e *env) prepare(workdir string, needDaemon bool) error {
	if workdir == "" {
		if err := os.MkdirAll(".bench_work", 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(".bench_work", "run-")
		if err != nil {
			return err
		}
		workdir = dir
	} else if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	abs, err := filepath.Abs(workdir)
	if err != nil {
		return err
	}
	e.workdir = abs
	if !e.keep {
		onExit(func() { os.RemoveAll(abs) })
	}
	free, err := freeBytes(abs)
	if err != nil {
		return err
	}
	if free < minFreeBytes {
		return fmt.Errorf("%s has %.1f GiB free; the large workloads stage and land 4 GiB, so 6 GiB is the floor", abs, float64(free)/(1<<30))
	}
	fmt.Printf("work directory %s\n", abs)
	if !needDaemon {
		return nil
	}
	e.facilityBin = filepath.Join(abs, "picoprobe-facilityd")
	t0 := time.Now()
	build := exec.Command("go", "build", "-o", e.facilityBin, "./cmd/picoprobe-facilityd")
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("building picoprobe-facilityd (run from the repository root): %v\n%s", err, out)
	}
	fmt.Printf("built picoprobe-facilityd in %.1f s\n", time.Since(t0).Seconds())
	return nil
}

func (res *result) correct() bool { return len(res.problems) == 0 && res.failedOps == 0 }

func printList() {
	fmt.Println("workloads:")
	for _, wl := range workloads {
		fmt.Printf("  %-14s %s\n", wl.name, wl.why)
	}
	fmt.Println("end-to-end metrics (-trace 0):")
	for _, m := range endToEnd {
		fmt.Printf("  %-32s %-6s %s is better, bound %.2f\n", m.name, m.unit, better(m), m.bound)
	}
	fmt.Println("per-layer metrics (-trace 1):")
	for _, m := range perLayer {
		fmt.Printf("  %-32s %-6s %s is better\n", m.name, m.unit, better(m))
	}
}

func better(m metricDef) string {
	if m.lowerIsBetter {
		return "lower"
	}
	return "higher"
}

// report prints one run: every metric of its mode by name and unit with
// the sample count behind it, the operation counts, the output checks,
// and as the last line the machine-readable result.
func report(e *env, res *result) {
	wl := res.wl
	mode, defs := "untraced", endToEnd
	if res.traced {
		mode, defs = "traced", append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	fmt.Printf("\n== %s  seed %d  %s  (%s, %d measured files)\n", wl.name, e.seed, mode, shape(wl, e.seconds), len(res.files))
	for _, m := range defs {
		line := fmt.Sprintf("  %-32s %14.4f %-6s", m.name, res.metrics[m.name], m.unit)
		if n, ok := res.samples[m.name]; ok {
			line += fmt.Sprintf(" n=%d", n)
			if m.name == "ttq_p90_ms" {
				line += tailNote(n, 0.90)
			}
		}
		fmt.Println(line)
	}
	if res.traced && len(res.shares) > 0 {
		fmt.Printf("  mean share of time-to-queryable:")
		names := make([]string, 0, len(res.shares))
		for name := range res.shares {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %s %.1f%%", name, res.shares[name])
		}
		fmt.Println()
	}
	fmt.Printf("  ops=%d failed_ops=%d  (inputs generated in %.1f s, outside setup_s)\n", res.ops, res.failedOps, res.stageSeconds)
	for _, why := range res.invalid {
		fmt.Printf("  INVALID (says nothing about speed): %s\n", why)
	}
	if len(res.problems) == 0 {
		fmt.Println("  output checks: ok")
	}
	for i, p := range res.problems {
		if i == 10 {
			fmt.Printf("  … and %d more\n", len(res.problems)-10)
			break
		}
		fmt.Printf("  OUTPUT CHECK FAILED: %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.correct(), Attempted: res.ops, Failed: res.failedOps, Metrics: map[string]value{}}
	ledger := endToEnd
	if res.traced {
		ledger = perLayer
	}
	for _, m := range ledger {
		out.Metrics[m.name] = value{res.metrics[m.name], m.unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(raw))
}

func shape(wl *workload, seconds int) string {
	path := "local durable"
	if wl.wire {
		path = "wire"
	}
	if wl.openLoop() {
		return fmt.Sprintf("%s, open loop, one close every %v", path, wl.spacing)
	}
	return fmt.Sprintf("%s, closed loop, %d bursts of %d", path, wl.bursts(seconds), wl.burstFiles)
}

// reportOverhead is the difference between the two runs of a workload:
// what tracing cost.
func reportOverhead(plain, traced *result) {
	pct := func(name string, sign float64) float64 {
		base := plain.metrics[name]
		if base == 0 {
			return 0
		}
		return sign * 100 * (traced.metrics[name] - base) / base
	}
	fmt.Printf("\n== %s  tracing overhead (traced run against untraced)\n", plain.wl.name)
	fmt.Printf("  %-32s %14.4f %%\n", "trace.overhead_ttq_pct", pct("ttq_p50_ms", 1))
	fmt.Printf("  %-32s %14.4f %%\n", "trace.overhead_goodput_pct", pct("goodput_mib_s", -1))
}
