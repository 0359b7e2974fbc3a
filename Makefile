# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-regress csv examples fuzz lint profile check clean suite suite-cached

all: build

build:
	dune build @all

test:
	dune runtest

# the default verification path: build, tests, format check, and a
# profiled pipeline run whose trace artifact is validated
check: build test lint profile

# format check; skipped (not failed) where ocamlformat isn't installed
lint:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "make lint: ocamlformat not installed; skipping format check"; \
	fi

# run the instrumented pipeline on bfs and check the emitted Chrome trace
# is well-formed JSON (the CLI itself re-parses it and exits 3 if not)
profile:
	dune exec bin/threadfuser_cli.exe -- profile bfs \
		--trace-out /tmp/threadfuser-profile-trace.json \
		--metrics-out /tmp/threadfuser-profile-metrics.txt
	@echo "trace:   /tmp/threadfuser-profile-trace.json (open in ui.perfetto.dev)"
	@echo "metrics: /tmp/threadfuser-profile-metrics.txt"

# regenerate every paper table/figure (text to stdout)
bench:
	dune exec bench/main.exe

# regression gate: re-analyze each baseline workload and `threadfuser
# diff` its JSON report against the committed baseline.  Replay is
# deterministic, so any drift is a real behaviour change; the tolerance
# only forgives float formatting.  Exits 5 on regression.
# Regenerate baselines (after an INTENDED change) with:
#   dune exec bin/threadfuser_cli.exe -- analyze <w> --json > bench/baselines/<w>.json
REGRESS_WORKLOADS = bfs hdsearch-mid vectoradd
REGRESS_TOLERANCE = 0.02
bench-regress: build
	@for w in $(REGRESS_WORKLOADS); do \
		echo "== $$w vs bench/baselines/$$w.json (tolerance $(REGRESS_TOLERANCE)) =="; \
		dune exec --no-build bin/threadfuser_cli.exe -- analyze $$w --json \
			> /tmp/threadfuser-regress-$$w.json || exit $$?; \
		dune exec --no-build bin/threadfuser_cli.exe -- diff \
			bench/baselines/$$w.json /tmp/threadfuser-regress-$$w.json \
			--tolerance $(REGRESS_TOLERANCE) || exit $$?; \
	done
	@echo "== parallel replay determinism (-j 4 vs baseline run) =="; \
	for w in $(REGRESS_WORKLOADS); do \
		dune exec --no-build bin/threadfuser_cli.exe -- analyze $$w --json -j 4 \
			> /tmp/threadfuser-regress-$$w-j4.json || exit $$?; \
		cmp -s /tmp/threadfuser-regress-$$w.json \
			/tmp/threadfuser-regress-$$w-j4.json \
			|| { echo "parallel replay diverged for $$w"; exit 5; }; \
		echo "$$w: -j 4 byte-identical"; \
	done
	@# Speedup gate over the last `make bench` run, if one is present.
	@# Legs marked advisory (requested domains > available cores measure
	@# time-slicing, not scaling) are skipped, never baselined.
	@if [ -f BENCH_analyzer_par.json ]; then \
		echo "== analyzer_par speedup gate (advisory legs skipped) =="; \
		python3 scripts/check_par_speedup.py BENCH_analyzer_par.json || exit $$?; \
	else \
		echo "== analyzer_par speedup gate: no BENCH_analyzer_par.json (run 'make bench'), skipped =="; \
	fi
	@# Same gate over the cycle-level simulator scaling artifact: gpusim's
	@# SM partition and cpusim's core partition at -j 1/2/4, plus the
	@# byte-identity / epoch-invariance flags (those gate even when the
	@# host downgrades speedups to advisory).
	@if [ -f BENCH_sim_par.json ]; then \
		echo "== sim_par speedup gate (advisory legs skipped) =="; \
		python3 scripts/check_par_speedup.py BENCH_sim_par.json || exit $$?; \
	else \
		echo "== sim_par speedup gate: no BENCH_sim_par.json (run 'make bench'), skipped =="; \
	fi
	@# Observability overhead gate over the last `make bench` run: the
	@# collector and the flight-recorder ring must stay within 1.20x of
	@# the collector-off analyzer (paired interleaved measurement).
	@if [ -f BENCH_pipeline.json ]; then \
		echo "== obs overhead gate =="; \
		python3 scripts/check_obs_ratio.py BENCH_pipeline.json || exit $$?; \
	else \
		echo "== obs overhead gate: no BENCH_pipeline.json (run 'make bench'), skipped =="; \
	fi

# supervised batch analysis of a small workload set (fork isolation,
# parallel, with deadlines); journal/reports/manifest land in .tfsuite/.
# Resume an interrupted batch with:
#   dune exec bin/threadfuser_cli.exe -- suite --resume
suite: build
	dune exec --no-build bin/threadfuser_cli.exe -- suite \
		vectoradd uncoalesced bfs --jobs 2 --deadline 60

# the same batch through the artifact cache, twice: the second pass must
# serve every job as a verified hit (see docs/robustness.md §9), then
# scrub/verify leave the store provably clean.
suite-cached: build
	dune exec --no-build bin/threadfuser_cli.exe -- suite \
		vectoradd uncoalesced bfs --jobs 2 --cache-dir .tfcache --dir .tfsuite-cold
	dune exec --no-build bin/threadfuser_cli.exe -- suite \
		vectoradd uncoalesced bfs --jobs 2 --cache-dir .tfcache --dir .tfsuite-warm
	dune exec --no-build bin/threadfuser_cli.exe -- cache scrub
	dune exec --no-build bin/threadfuser_cli.exe -- cache verify
	dune exec --no-build bin/threadfuser_cli.exe -- cache stat

# same, also dropping one CSV per table under artifacts/
csv:
	dune exec bench/main.exe -- --csv artifacts

examples:
	dune exec examples/quickstart.exe
	dune exec examples/microservice_analysis.exe
	dune exec examples/warp_width_study.exe
	dune exec examples/porting_advisor.exe
	dune exec examples/accelerator_design.exe

# seeded corruption campaign over every registered workload (fixed seeds,
# so runs are reproducible; see docs/robustness.md).  A 100-seed smoke
# variant of the same campaign runs as part of `dune runtest`.
fuzz:
	dune exec bin/threadfuser_cli.exe -- fuzz -n 1000 --seed 1 -t 16

clean:
	dune clean
