#!/usr/bin/env bash
# Build the benchmark and the shipped server from source, then run one
# benchmark invocation:
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  Build output goes to stderr, so the
# last line of standard output is the benchmark's JSON result.
set -euo pipefail
dune build --root . perfbench/main.exe bin/xlearner_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe --server-exe ./_build/default/bin/xlearner_cli.exe "$@"
