# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test trace-quick telemetry-quick fmt-check clean

all: build

build:
	dune build

test:
	dune build && dune runtest

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
