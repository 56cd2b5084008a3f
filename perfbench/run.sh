#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it with the
# arguments given (see main.ml or README.md).  Run from the repository
# root.  Build output goes to stderr, so stdout carries only the
# benchmark's metric lines and its final JSON result.
set -euo pipefail

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

# --root . keeps dune from adopting a dune-project above this directory;
# the shared build cache is off so the build writes only under _build.
dune build --root . --cache=disabled --display=quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
