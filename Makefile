GO ?= go

.PHONY: all build test race vet loc staticdiff bench profile protosweep check fuzz cover timeline serve-smoke mutants

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# interp's TreeLane runs the tree-walker on a goroutine that hands one
# machine back and forth with its driver, and both drivers run it that way:
# sim's reference engine and the oracle. The bench package exercises the
# parallel Figure-6 harness, core annotates one checked program from many
# goroutines (TestAnnotateSharedProgram), vet hands pooled stream storage
# between passes on many goroutines (TestStreamsConcurrent), and serve is
# the HTTP layer (shared caches, singleflight, worker pool); run all of it
# under the race detector after touching interp, sim, oracle, dir1sw, core,
# parc, vet, bench, or serve.
race:
	$(GO) test -race ./internal/interp/... ./internal/sim/... ./internal/coherence/... \
		./internal/dir1sw/... ./internal/dirn/... ./internal/core/... ./internal/vet/... \
		./internal/bench/... ./internal/serve/... ./internal/oracle/...

# The mutation ledger (mutants_test.go, outside tier-1 and CI): each source
# edit in testdata/mutants.json is applied to a temporary copy of the module,
# whose tests then run (90 s timeout per package); one row per mutant names
# the tests that killed it, and the run fails if a mutant survives without a
# written reason. DESIGN.md section 7 records the verdict. About half an hour
# on 2 vCPUs; pick mutants with MUTANTS='TestMutants/name'.
MUTANTS ?= TestMutants
mutants:
	$(GO) test -tags mutants -count=1 -timeout 0 -v -run '$(MUTANTS)' .

# Static checks: gofmt (any file it would reformat fails the target) and go
# vet over the Go code, then parcvet (the ParC static race detector and CICO
# annotation linter, cmd/parcvet) over the checked-in ParC sources and the
# Figure 6 benchmark ports. The annotated Jacobi must come out clean, the
# race demo must be flagged, and every benchmark's verdict must match its
# known racy/race-free classification.
vet:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt would reformat:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/parcvet examples/parc/jacobi_wholefit.parc
	$(GO) run ./cmd/parcvet -q -expect-races examples/parc/race_demo.parc
	$(GO) run ./cmd/parcvet -q -bench all
	# Verdicts are static source properties: every protocol must agree with
	# the Dir1SW run above, byte for byte (cross-checked by diffing outputs).
	$(GO) run ./cmd/parcvet -q -bench all > /tmp/parcvet.dir1sw.out
	$(GO) run ./cmd/parcvet -q -protocol dirnnb:4 -bench all | diff /tmp/parcvet.dir1sw.out -
	$(GO) run ./cmd/parcvet -q -protocol dirnb:4 -bench all | diff /tmp/parcvet.dir1sw.out -

# Non-test Go lines in the three trees of code, the size ROADMAP.md tracks.
loc:
	@for d in internal cmd benchmark; do \
		printf '%-10s %6d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	done

# Trace-free placement differential (cmd/staticdiff): static inference must
# annotate the checked-in ParC sources byte-identically to the trace-driven
# pipeline (both are exact), and every Figure 6 port must satisfy its
# conformance contract — exact ports place identically, widened ports keep
# the footprint covering. See DESIGN.md section 9.
staticdiff:
	$(GO) run ./cmd/staticdiff examples/parc/jacobi_wholefit.parc examples/parc/race_demo.parc
	$(GO) run ./cmd/staticdiff -bench all

# One pass over the performance-tracking benchmarks (see EXPERIMENTS.md,
# "Simulator performance"), then the Figure 6 harness with its
# machine-readable result rows — BENCH_fig6.json records cycles, normalized
# time, per-variant wall-clock, and engine per (benchmark, variant). The
# cycles-exact gate is TestFigure6Golden; wall-clock claims are made with
# benchmark/ (BENCHMARK.json), not from this file.
bench:
	$(GO) test -run xxx -bench 'Fig6|Scheduler|DirectoryLookup|Interp|SmallRun|ColdRequest|ColdCorpus|HotRequest|VetAnalyze|Annotate|Parse|Print|ProgramKey|Infer' -benchtime 1x ./...
	$(GO) run ./cmd/fig6 -json BENCH_fig6.json

# Where a Figure 6 regeneration spends its CPU and its bytes, as text: three
# fig6 runs' CPU profiles merged (cumulative top 60), the allocated bytes by
# site of one more run, then the shared-access path on its own: the same
# three profiles focused on the lane's two access instructions, and the
# counts that turn their seconds into ns per access (BenchmarkFig6 reports
# them per port; a regeneration is the five ports' sum). PROFILE_fig6.txt
# from two commits is the attribution table a performance claim is read off
# (EXPERIMENTS.md, "Hits stay in the lane"); the raw profiles stay in
# PROFILE_DIR.
PROFILE_DIR ?= /tmp/cachier-profile
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/fig6 ./cmd/fig6
	for i in 1 2 3; do $(PROFILE_DIR)/fig6 -cpuprofile $(PROFILE_DIR)/cpu$$i.prof > /dev/null || exit 1; done
	$(PROFILE_DIR)/fig6 -memprofile $(PROFILE_DIR)/mem.prof > /dev/null
	{ echo "# CPU, three fig6 runs merged:"; \
	  $(GO) tool pprof -top -cum -nodecount=60 $(PROFILE_DIR)/fig6 \
		$(PROFILE_DIR)/cpu1.prof $(PROFILE_DIR)/cpu2.prof $(PROFILE_DIR)/cpu3.prof; \
	  echo; echo "# Allocated bytes by site, one fig6 run:"; \
	  $(GO) tool pprof -sample_index=alloc_space -top -nodecount=40 $(PROFILE_DIR)/fig6 $(PROFILE_DIR)/mem.prof; \
	  echo; echo "# The shared-access path (loadShared, asgShared and below), the same three runs:"; \
	  $(GO) tool pprof -top -cum -focus='loadShared|asgShared' -nodecount=30 $(PROFILE_DIR)/fig6 \
		$(PROFILE_DIR)/cpu1.prof $(PROFILE_DIR)/cpu2.prof $(PROFILE_DIR)/cpu3.prof; \
	  echo; echo "# Its counts, one regeneration:"; \
	  $(GO) test -run '^$$' -bench '^BenchmarkFig6$$' -benchtime 1x . | awk '/^BenchmarkFig6\// { \
		for (i = 2; i < NF; i++) { \
			if ($$(i+1) == "shared-accesses") s += $$i; \
			if ($$(i+1) == "Machine.Access-calls") c += $$i } } \
		END { if (s == 0) exit 1; \
			printf "shared accesses       %9d\nhits counted in lane  %9d (%.1f%%)\nMachine.Access calls  %9d (%.1f%%)\n", \
			s, s-c, 100*(s-c)/s, c, 100*c/s }'; \
	} > PROFILE_fig6.txt

# Cross-protocol smoke sweep: the Figure 6 suite under Dir1SW, Dir4NB, and
# Dir4B in one run. BENCH_protosweep.json carries one row per (benchmark,
# variant, protocol) so per-protocol cycles and CICO benefit can be tracked
# across commits (see EXPERIMENTS.md, "Cross-protocol comparison").
protosweep:
	$(GO) run ./cmd/fig6 -protosweep -json BENCH_protosweep.json

# Observability demo: one benchmark with the recorder and timeline on.
# TIMELINE_fig6.json is a Chrome trace-event file — open it in
# https://ui.perfetto.dev (or chrome://tracing); STATS_fig6.json is the full
# structured stats snapshot (internal/obs schema). Pick another benchmark
# with TIMELINE_BENCH=Barnes etc.
TIMELINE_BENCH ?= Ocean
timeline:
	$(GO) run ./cmd/fig6 -bench $(TIMELINE_BENCH) \
		-timeline TIMELINE_fig6.json -statsjson STATS_fig6.json

# Serving smoke: build the daemon, boot it on an ephemeral port, replay a
# corpus slice through cmd/cachierload (every HTTP response byte-checked
# against the in-process library result, cold and cached; every cached-pass
# response must be a hit), SIGTERM it, and require a clean drain. Serving
# speed is measured by benchmark/ (BENCHMARK.json). Raise SERVE_SEEDS for
# the full corpus (make serve-smoke SERVE_SEEDS=200).
SERVE_SEEDS ?= 25
serve-smoke:
	$(GO) build -o /tmp/cachierd ./cmd/cachierd
	$(GO) run ./cmd/cachierload -boot /tmp/cachierd -seeds $(SERVE_SEEDS)

check: build vet staticdiff test race

# Native fuzzing over the conformance harness: FuzzPipeline explores the
# generator's seed space through the full trace/annotate/simulate pipeline,
# FuzzAnnotatedEquivalence hammers the annotated artifact itself, and
# FuzzLanesEquivalence and FuzzParallelEquivalence are the two halves of the
# reference differential — the production engine against the tree-walking
# reference on every surface (cycles, stats, memory, trace, snapshot,
# timeline): measuring mode under a protocol the seed picks, and trace mode.
# FuzzStaticPlacement is the trace-free differential (see staticdiff above)
# on generated programs outside the 200-seed corpus. FuzzVMEquivalence is the
# interpreter-level differential under all of them: the typed bytecode VM
# against the tree-walker on the Machine event stream, errors and memory.
# FuzzCoherenceOps is the memory system under all of them: any sequence of
# accesses, directives and flushes keeps the probe and CheckCoherence clean
# under Dir1SW, Dir2NB and Dir2B, and classifies every read and write once.
# FuzzVetSource and FuzzVetGenerated are the static side: vet must not panic
# on arbitrary text, and must pass every generated program clean.
# FuzzParsePrint is the front end under all of them: no text may make the
# parser panic, and every program it accepts must print to text that parses
# back to an equal AST and prints the same again. FuzzServeBytes sends raw
# bytes to cachierd's four POST endpoints: every answer is JSON with a
# documented status, and the same bytes sent again answer the same bytes, a
# 200 from the cache.
# Raise FUZZTIME for long soaks (make fuzz FUZZTIME=10m).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzVMEquivalence$$' -fuzztime $(FUZZTIME) ./internal/interp
	$(GO) test -run '^$$' -fuzz '^FuzzCoherenceOps$$' -fuzztime $(FUZZTIME) ./internal/coherence
	$(GO) test -run '^$$' -fuzz '^FuzzPipeline$$' -fuzztime $(FUZZTIME) ./internal/conformance
	$(GO) test -run '^$$' -fuzz '^FuzzAnnotatedEquivalence$$' -fuzztime $(FUZZTIME) ./internal/conformance
	$(GO) test -run '^$$' -fuzz '^FuzzLanesEquivalence$$' -fuzztime $(FUZZTIME) ./internal/conformance
	$(GO) test -run '^$$' -fuzz '^FuzzParallelEquivalence$$' -fuzztime $(FUZZTIME) ./internal/conformance
	$(GO) test -run '^$$' -fuzz '^FuzzProtocolEquivalence$$' -fuzztime $(FUZZTIME) ./internal/conformance
	$(GO) test -run '^$$' -fuzz '^FuzzStaticPlacement$$' -fuzztime $(FUZZTIME) ./internal/conformance
	$(GO) test -run '^$$' -fuzz '^FuzzVetSource$$' -fuzztime $(FUZZTIME) ./internal/vet
	$(GO) test -run '^$$' -fuzz '^FuzzVetGenerated$$' -fuzztime $(FUZZTIME) ./internal/vet
	$(GO) test -run '^$$' -fuzz '^FuzzParsePrint$$' -fuzztime $(FUZZTIME) ./internal/parc
	$(GO) test -run '^$$' -fuzz '^FuzzServeBytes$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRead$$' -fuzztime $(FUZZTIME) ./internal/trace

# Coverage with checked-in floors. The floors sit a few points under the
# current numbers (see EXPERIMENTS.md) so they trip on real regressions, not
# on noise. The observability layer carries its own, higher floor: every
# regression test in the repo leans on its snapshots, so its invariants must
# stay thoroughly exercised. The shared coherence machinery (directory,
# caches, cost model behind every protocol) carries the same higher floor —
# a hole there silently weakens all protocol conformance runs at once.
COVER_MIN ?= 75
OBS_COVER_MIN ?= 80
COHERENCE_COVER_MIN ?= 80
cover:
	$(GO) test ./... -coverprofile=cover.out
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t=$$total -v min=$(COVER_MIN) 'BEGIN { \
		if (t+0 < min+0) { printf "FAIL: total coverage %.1f%% is below the %d%% minimum\n", t, min; exit 1 } \
		printf "total coverage %.1f%% (minimum %d%%)\n", t, min }'
	$(GO) test ./internal/obs -coverprofile=cover-obs.out
	@total=$$($(GO) tool cover -func=cover-obs.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t=$$total -v min=$(OBS_COVER_MIN) 'BEGIN { \
		if (t+0 < min+0) { printf "FAIL: internal/obs coverage %.1f%% is below the %d%% minimum\n", t, min; exit 1 } \
		printf "internal/obs coverage %.1f%% (minimum %d%%)\n", t, min }'
	$(GO) test ./internal/coherence -coverprofile=cover-coherence.out
	@total=$$($(GO) tool cover -func=cover-coherence.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t=$$total -v min=$(COHERENCE_COVER_MIN) 'BEGIN { \
		if (t+0 < min+0) { printf "FAIL: internal/coherence coverage %.1f%% is below the %d%% minimum\n", t, min; exit 1 } \
		printf "internal/coherence coverage %.1f%% (minimum %d%%)\n", t, min }'
