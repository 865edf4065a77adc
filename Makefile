# Developer / CI entry points. `make ci` is what the workflow runs.

.PHONY: all build test flake-hunt fmt-check bench-quick bench-smoke \
  fuzz fuzz-mutant scenario-fuzz soak serve-smoke load-smoke ci

all: build

build:
	dune build

test:
	dune runtest

# Run each suite that spawns domains or threads N times in a row and fail
# on any failure, printing the failing run's log tail. Runs from the
# test build directory so the corpus-backed engine tests find their
# inputs. The load-test leg repeats test/cli/loadtest.t's daemon run
# (forked sdf3_serve, 25 clients, drain mid-flight) N times, so races in
# the daemon's admission window count as failures too.
N ?= 20
FLAKE_SUITES = par timeline server budget engine
LOADTEST_ARGS = --clients 25 --requests 40 --seed 42 --think-ms 20 \
  --drain-after-s 0.5 --no-latency-check
flake-hunt:
	dune build test/main.exe bin/sdf3_generate.exe bin/sdf3_serve.exe \
	  bin/sdf3_loadtest.exe \
	  $(patsubst %,_build/default/%,$(wildcard test/corpus/*.sdfg))
	@fails=0; log=$$(mktemp); \
	for s in $(FLAKE_SUITES); do \
	  for i in $$(seq $(N)); do \
	    if ! (cd _build/default/test && ./main.exe test $$s) > $$log 2>&1; then \
	      fails=$$((fails + 1)); \
	      echo "flake-hunt: suite $$s, run $$i failed:"; tail -n 30 $$log; \
	    fi; \
	  done; \
	done; \
	bin=$$(pwd)/_build/default/bin; dir=$$(mktemp -d); mkdir $$dir/cases; \
	$$bin/sdf3_generate.exe --set 1 -n 3 -o $$dir/cases --xml >/dev/null; \
	for i in $$(seq $(N)); do \
	  rm -f $$dir/load.sock $$dir/load.jsonl; \
	  if ! timeout 120 $$bin/sdf3_loadtest.exe --serve-bin $$bin/sdf3_serve.exe \
	      --root $$dir/cases --socket $$dir/load.sock \
	      --journal $$dir/load.jsonl $(LOADTEST_ARGS) > $$log 2>&1; then \
	    fails=$$((fails + 1)); \
	    echo "flake-hunt: loadtest, run $$i failed:"; tail -n 30 $$log; \
	  fi; \
	done; \
	rm -rf $$dir $$log; \
	echo "flake-hunt: $(N) run(s) of each of $(FLAKE_SUITES) loadtest: $$fails failure(s)"; \
	test $$fails -eq 0

# Format check; skipped (with a notice) when ocamlformat is not
# installed, so environments that only carry the OCaml toolchain still
# pass `make ci`.
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

bench-quick:
	dune exec bench/main.exe -- --quick

# The CI bench job: parallel table run with telemetry and tracing,
# asserting the memo cache, the work-pool and the packed state-space
# engine all saw real traffic, that the emitted Chrome trace passes the
# in-repo validator, and that the fanned-out tables match a sequential
# run line for line (wall-clock readings excepted).
bench-smoke:
	dune exec bench/main.exe -- --quick --jobs 2 \
	  --metrics bench-metrics.json --trace trace.json > bench-par.out
	grep -Eq '"cache\.hits": [1-9]' bench-metrics.json
	grep -Eq '"pool\.tasks": [1-9]' bench-metrics.json
	grep -Eq '"engine\.arena_bytes": [1-9]' bench-metrics.json
	grep -Eq '"scenario\.runs": [1-9]' bench-metrics.json
	grep -Eq '"scenario\.product_states": [1-9]' bench-metrics.json
	grep -q '"engine.bytes_per_state"' bench-metrics.json
	grep -q '"engine.occupancy"' bench-metrics.json
	grep -q '"engine.max_probe"' bench-metrics.json
	dune exec bin/sdf3_report.exe -- --check-trace trace.json
	dune exec bench/main.exe -- --quick --jobs 1 > bench-seq.out
	grep -vE 'time|[0-9] s$$|[0-9]x$$|telemetry registry|timeline trace|^$$' \
	  bench-seq.out > bench-seq.flt
	grep -vE 'time|[0-9] s$$|[0-9]x$$|telemetry registry|timeline trace|^$$' \
	  bench-par.out > bench-par.flt
	diff bench-seq.flt bench-par.flt

# The CI serve-smoke job, locally: boot the daemon, drive mixed-tier
# traffic through the client mode, assert journal byte-identity against
# the one-shot batch driver and cache hits across requests, then drain.
serve-smoke: build
	bash scripts/serve_smoke.sh

# The CI load-smoke job, locally: fork the daemon under sdf3_loadtest,
# swarm it with 300 seeded clients, drain mid-flight, and assert every
# invariant oracle plus nonzero priority-admission counters.
load-smoke: build
	bash scripts/load_smoke.sh

ci: build test fmt-check

# Bounded fuzz run against the differential/metamorphic oracle catalogue;
# shrunk counterexamples land in test/corpus/ for dune runtest to replay.
fuzz:
	dune exec bin/sdf3_fuzz.exe -- --count 500 --seed $$(date +%s)

fuzz-mutant:
	dune exec bin/sdf3_fuzz.exe -- --count 200 --seed 9 --inject-mutant \
	  --no-corpus; test $$? -eq 1

# Self-check of the scenario-vs-enumeration oracle: the injected mutant
# drops every mode-transition delay on the engine side only, which the
# brute-force product enumeration must catch (exit 1 = detected).
scenario-fuzz:
	dune exec bin/sdf3_fuzz.exe -- --count 200 --seed 9 \
	  --inject-scenario-mutant --no-corpus; test $$? -eq 1

# 60-second soak of the full oracle catalogue — including the
# budget.partial-soundness anytime-bound oracle — under a hard 90-second
# bound. SOAK_SEED pins the run (CI seeds it with the run id); shrunk
# counterexamples land in test/corpus/ like any fuzz run's.
SOAK_SEED ?= $(shell date +%s)
soak:
	timeout 90 dune exec bin/sdf3_fuzz.exe -- \
	  --count 1000000 --time 60 --seed $(SOAK_SEED)
