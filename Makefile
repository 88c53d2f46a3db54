GO ?= go

.PHONY: all build fmt-check vet test race race-fed race-signal bench-e2e-smoke chaos-smoke load-smoke bench-smoke bench bench-portal bench-portal-load bench-recovery bench-netprobe bench-wire bench-watch bench-analysis fuzz-wire fuzz-manifest fuzz-jpeg fuzz-png fuzz-search fuzz-etag linkcheck optaudit depcheck cross-watch ci

all: ci

build:
	$(GO) build ./...

# The gofmt gate (the workflow runs it through `make ci`, nowhere else).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

# Production and laboratory (DESIGN.md §2): no production package imports
# anything that only the experiment harness runs. The laboratory side is
# named once, below; every other package under internal/ is production —
# a new one the day it is added — and is listed with what it imports,
# as is every package the trigger application and the facility daemon
# link; an import of the laboratory side is printed as its edge.
LAB_SIDE := lab|facility|health|netfault|netprobe|netsim|scheduler|stats|synth
IMPORTS := {{.ImportPath}}{{range .Imports}} {{.}}{{end}}
depcheck:
	@bad="$$( { $(GO) list -deps -f '$(IMPORTS)' ./cmd/picoprobe-watch ./cmd/picoprobe-facilityd; \
		$(GO) list -f '$(IMPORTS)' ./internal/... | grep -Ev '^picoprobe/internal/($(LAB_SIDE))( |$$)'; } \
		| awk '{ for (i = 2; i <= NF; i++) if ($$i ~ "^picoprobe/internal/($(LAB_SIDE))$$") print "  " $$1 " -> " $$i }' | sort -u )"; \
	if [ -n "$$bad" ]; then echo "depcheck: production code imports the laboratory side:" >&2; echo "$$bad" >&2; exit 1; fi

# The watcher is the one package that must keep building for the paper's
# Windows 10 and macOS instrument PCs, and it has OS-specific files
# (notify_linux.go and its stub): vet it and its binary for both.
cross-watch:
	GOOS=windows $(GO) vet ./internal/watcher ./cmd/picoprobe-watch
	GOOS=darwin $(GO) vet ./internal/watcher ./cmd/picoprobe-watch

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every internal package under the race detector (35 s on 2 vCPUs) —
# one command instead of a hand-kept package list that some concurrent
# package is always missing from — then the one chunk-engine worker pool
# raced end to end through both sinks (in-process and over a socket to a
# daemon that is kill -9'd).
race-fed:
	$(GO) test -race -count 1 ./internal/...
	$(GO) test -race -count 1 -run 'TestWireCrossPathEquivalence|TestWireDaemonKillNineResume' .

# Pushed completion (DESIGN.md §3): a signal that arrives inside Watch,
# during the action's status call or while it waits for its timeout must
# never be lost, nor a held wire Job (§11) outlive its task, its daemon's
# drain or its client's Close. Nor may a chunk waiting for its turn to
# fold into its file's digest (§8) miss that turn or an abort. The window
# is a race that one pass rarely hits, so these tests run 50 times under
# the race detector.
race-signal:
	$(GO) test -race -count 50 -run 'Watch|Signal|Fold' ./internal/flows ./internal/core ./internal/transfer ./internal/compute ./internal/wire

# The benchmark program end to end on the one workload whose files span
# several chunks (bench/README.md): a short traced and untraced run of
# burst-large, whose probe phase calls Merge itself and whose output
# checks compare every landed file's digest with the staged one. The run
# exits non-zero when a check fails (≈ 30 s on 2 vCPUs).
bench-e2e-smoke:
	$(GO) run ./bench -workload burst-large -trace both -seconds 5

# A short-mode pass of the chaos soak and the heartbeat detection gate
# (DESIGN.md §12): a scaled-down daemon federation under the seeded
# fault storm. The full-size soak runs with plain `go test .`.
chaos-smoke:
	$(GO) test -short -run 'TestChaosSoak|TestHeartbeatDetectsHungDaemonBeforeTimeout' -count 1 .

# The serving-layer load smoke (BENCHMARKS.md "Portal load test"): 1000
# real connections against the cached portal under ingest churn, gated
# on zero 5xx, non-zero cache hits and a bounded p99. Runs in CI.
load-smoke:
	$(GO) test -run TestPortalLoadSmoke -count 1 -v .

# The full recorded load run (BENCHMARKS.md "Portal load test"): 10k+
# connections split across a server child and a client process (each
# side needs its own fd budget), cached and uncached arms. CONNS=20000
# or DURATION=30s to go bigger.
CONNS ?= 10000
DURATION ?= 15s
bench-portal-load:
	$(GO) build -o bin/picoprobe-loadtest ./cmd/picoprobe-loadtest
	@echo "=== cached arm ==="
	bin/picoprobe-loadtest -spawn -conns $(CONNS) -duration $(DURATION) -warmup 5s
	@echo "=== uncached arm ==="
	bin/picoprobe-loadtest -spawn -conns $(CONNS) -duration $(DURATION) -warmup 5s -cache=false

# The catalog serving benchmarks (BENCHMARKS.md "Portal serving"): one
# execution each, with allocation counts. Raise -benchtime (e.g.
# BENCHFLAGS='-benchtime 2s -count 5') when recording benchstat pairs.
bench-portal:
	$(GO) test -run NONE -bench 'BenchmarkPortalQueryThroughput|BenchmarkSearchTopK' -benchtime 1x -benchmem $(BENCHFLAGS) .

# Crash-recovery cost (BENCHMARKS.md "Crash recovery"): WAL replay rate
# and time-to-first-query after a kill -9. Quote with -benchtime 5x.
bench-recovery:
	$(GO) test -run NONE -bench 'BenchmarkCrashRecovery' -benchtime 5x -benchmem $(BENCHFLAGS) .

# Link-quality probing cost and the adaptive-vs-fixed transfer pair
# (BENCHMARKS.md "Link quality"): per-sample probe overhead plus the
# bandwidth-ramp makespan comparison.
bench-netprobe:
	$(GO) test -run NONE -bench 'BenchmarkNetprobe' -benchtime 1x -benchmem $(BENCHFLAGS) ./internal/netprobe/
	$(GO) test -run NONE -bench 'BenchmarkAdaptiveTransfer' -benchtime 1x -benchmem $(BENCHFLAGS) .

# Wire data-plane smoke (BENCHMARKS.md "Wire transport"): localhost
# daemon throughput through the full framing/checksum/manifest path,
# and the reconnect-resume retry cost. Quote with -benchtime 10x.
bench-wire:
	$(GO) test -run NONE -bench 'BenchmarkWire' -benchtime 3x -benchmem $(BENCHFLAGS) ./internal/transfer/

# Close → event (BENCHMARKS.md "Close detection"): a staged file renamed
# in, timed to its Event, under the kernel close notification and under
# the size-stable scan alone (≈ 0.5 s an iteration at the defaults).
bench-watch:
	$(GO) test -run NONE -bench 'BenchmarkWatcherCloseToEvent' -benchtime 5x $(BENCHFLAGS) ./internal/watcher/

# The analysis kernels (BENCHMARKS.md "Analysis kernels"): one frame
# through image/jpeg and through video.AppendJPEG, one frame's background
# statistics by selection and by histogram, one spectrum plot rendered and
# written as a PNG, and the fused hyperspectral and spatiotemporal
# functions they sit in. Quote pairs with BENCHFLAGS='-benchtime 2s -count 5'.
bench-analysis:
	$(GO) test -run NONE -bench 'BenchmarkJPEGFrame' -benchtime 1x -benchmem $(BENCHFLAGS) ./internal/video/
	$(GO) test -run NONE -bench 'BenchmarkRobustStats' -benchtime 1x -benchmem $(BENCHFLAGS) ./internal/detect/
	$(GO) test -run NONE -bench 'BenchmarkSpectrumPlotPNG' -benchtime 1x -benchmem $(BENCHFLAGS) ./internal/imaging/
	$(GO) test -run NONE -bench 'BenchmarkFig2HyperspectralAnalysis|BenchmarkFig3SpatiotemporalInference' -benchtime 1x -benchmem $(BENCHFLAGS) .

# A short coverage-guided run of the wire codec fuzzer on top of the
# checked-in seed corpus (internal/wire/testdata/fuzz). FUZZTIME=30s to
# dig deeper locally.
FUZZTIME ?= 10s
fuzz-wire:
	$(GO) test -run NONE -fuzz FuzzCodec -fuzztime $(FUZZTIME) ./internal/wire/

# The chunk manifest a restarted mover resumes from: arbitrary bytes as the
# persisted manifest must load as a plan that tiles the task's files, or
# fail loudly with the bytes quarantined as .corrupt (DESIGN.md §8).
fuzz-manifest:
	$(GO) test -run NONE -fuzz FuzzManifestLoad -fuzztime $(FUZZTIME) ./internal/transfer/

# The JPEG frame encoder against its oracle: the fuzzer picks size,
# quality, pixels and which of them are coloured, and AppendJPEG must
# write what image/jpeg.Encode writes (DESIGN.md §14).
fuzz-jpeg:
	$(GO) test -run NONE -fuzz FuzzAppendJPEG -fuzztime $(FUZZTIME) ./internal/video/

# The palette PNG writer against its oracle: the fuzzer picks the size, the
# number of colors (past 256, where png.Encoder writes the image) and the
# pixels, and EncodePNG must write what png.Encoder writes for the image
# palettized in first-seen order (DESIGN.md §14).
fuzz-png:
	$(GO) test -run NONE -fuzz FuzzEncodePNG -fuzztime $(FUZZTIME) ./internal/imaging/

# The answers the index maintains across publishes against the code that
# recomputes them: the fuzzer writes the Ingest/IngestBatch/Delete
# sequence, and after every step the unfiltered anonymous page must equal
# the scan's and the carried facet counts a rebuilt index's (DESIGN.md §7).
fuzz-search:
	$(GO) test -run NONE -fuzz FuzzIndexOps -fuzztime $(FUZZTIME) ./internal/search/

# The If-None-Match matcher every revalidating client reaches.
fuzz-etag:
	$(GO) test -run NONE -fuzz FuzzETagMatch -fuzztime $(FUZZTIME) ./internal/portal/

# Compile and execute every benchmark exactly once so perf-critical paths
# (including the portal serving and netprobe pairs above) get exercised
# on every PR without burning CI minutes.
bench-smoke: bench-netprobe bench-watch bench-analysis
	$(GO) test -run NONE -bench . -benchtime 1x ./...

bench:
	$(GO) test -run NONE -bench . -benchmem ./...

# Validate every relative link and anchor in the repository's Markdown
# (dangling DESIGN.md references have bitten us before).
linkcheck:
	$(GO) run ./tools/linkcheck

# Every option field under internal/ is set by some shipped (non-test)
# file or is on the tool's allowlist with a reason: an option nobody sets
# is a constant waiting to happen.
optaudit:
	$(GO) run ./tools/optaudit

ci: build fmt-check vet depcheck cross-watch test race-fed race-signal chaos-smoke load-smoke bench-smoke bench-e2e-smoke fuzz-wire fuzz-manifest fuzz-jpeg fuzz-png fuzz-search fuzz-etag optaudit linkcheck
