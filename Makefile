# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test bench bench-quick bench-compare \
	trace-quick telemetry-quick fmt-check clean

all: build

build:
	dune build

test:
	dune build && dune runtest

# Kernel micro-benchmarks on the full-size design (slow), writing
# BENCH_ssta.json; end-to-end command timings are perfbench/'s.
bench:
	dune exec bench/main.exe -- kernels --json

# CI smoke test of the kernel bench: scaled-down design, kernel
# micro-benchmarks, telemetry overhead and sampling calibration, and a
# fresh BENCH_ssta.json in the working directory.
bench-quick:
	dune exec bench/main.exe -- --quick kernels --json

# Perf-regression observatory: regenerate a quick bench into
# BENCH_new.json and compare it against the committed BENCH_ssta.json
# baseline (CI-gated comparison, ±10% beyond the combined CIs; exits
# nonzero on a significant regression and leaves bench-compare.md).
bench-compare:
	dune exec bench/main.exe -- --quick kernels --json --out BENCH_new.json
	dune exec bin/pvtol.exe -- bench compare BENCH_ssta.json \
	  BENCH_new.json --threshold 10 --out bench-compare.md

# Quick stage-graph trace: runs the scaled-down flow and prints the
# span report (stage, wall clock, allocation, dependencies) to stderr.
trace-quick:
	dune exec bin/pvtol.exe -- --quick --trace

# Telemetry smoke: run the scaled-down scenarios exhibit with metrics
# on, leaving the run ledger run.json (metrics and stage spans) and a
# Chrome trace (chrome://tracing / Perfetto) in the working directory.
telemetry-quick:
	dune exec bin/pvtol.exe -- scenarios --quick \
	  --run-ledger run.json --trace-chrome trace-chrome.json

# `dune build @fmt` needs the ocamlformat binary; skip gracefully where
# it isn't installed (see .ocamlformat).
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

clean:
	dune clean
