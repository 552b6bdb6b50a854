.PHONY: build test bench bench-par bench-frozen bench-stream bench-machine bench-serve machine-test machine-demo serve obs-demo obs-report fuzz clean

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Figure-16 suites on the domain pool.  Worker count: XLEARNER_JOBS if
# set, else recommended_domain_count - 1 (floor 1); override per run
# with e.g. `make bench-par XLEARNER_JOBS=4`.
bench-par:
	dune exec bench/main.exe -- fig16-xmark fig16-xmp

# Frozen-store selection parity on the domain pool: per-domain contexts
# scanning one shared snapshot, checked against the pointer-walking
# reference evaluator (lib/fuzz/ref_eval.ml), at 1 and 4 workers.
bench-frozen:
	dune build bench/main.exe
	dune exec bench/main.exe -- frozen -j 1
	dune exec bench/main.exe -- frozen -j 4

# Streaming ingestion ladder (DESIGN.md §5i): one-pass builder vs tree
# walk + freeze at XMark 1x/10x/100x and a parse of the serialized
# document, then the Figure-16 XMark suite on a 10x streamed store.
# Every leg is parity-checked (exit 1 on any structural difference).
bench-stream:
	dune build bench/main.exe
	dune exec bench/main.exe -- stream

# The learner state-machine protocol on both Figure-16 suites: every
# scenario recorded through Machine.step, replayed from its transcript,
# and snapshot/restored at the middle question — all three rows must be
# byte-identical to the synchronous driver's (exit 1 otherwise).
bench-machine:
	dune build bench/main.exe
	dune exec bench/main.exe -- machine

# Learning-as-a-service under load: in-process lib/server over a real
# Unix socket — Figure-16 parity through the wire, 1024 concurrent
# sessions driven by interleaved client threads, and suspend/resume
# round trips; exit 1 on any parity mismatch, request error or failed
# verification.  Served latency is measured by perfbench's serve-churn
# workload (BENCHMARK.json).
bench-serve:
	dune build bench/main.exe
	dune exec bench/main.exe -- serve

# Run the session server on a Unix socket (SOCKET to relocate it; stop
# with Ctrl-C or `curl --unix-socket $(SOCKET) -X POST http://x/shutdown`).
SOCKET ?= /tmp/xlearner.sock
serve:
	dune build bin/xlearner_cli.exe
	dune exec bin/xlearner_cli.exe -- serve --socket $(SOCKET)

# The replay / suspend-resume / corruption suites (test/test_machine.ml).
machine-test:
	dune build test/test_machine.exe
	dune exec test/test_machine.exe

# Suspend/resume across processes: learn xmp Q1, snapshot at the fifth
# answer and exit; then resume the snapshot in a second process and
# finish the session.  Fails unless the resumed run prints the same
# interaction row and verified flag as an uninterrupted one.
machine-demo:
	dune build bin/xlearner_cli.exe
	dune exec bin/xlearner_cli.exe -- learn xmp Q1 | grep -E '^(interactions|verified)' > machine_demo.expected
	dune exec bin/xlearner_cli.exe -- learn xmp Q1 --suspend-at 5 --snapshot machine_demo.snapshot
	dune exec bin/xlearner_cli.exe -- learn xmp Q1 --resume machine_demo.snapshot > machine_demo.resumed
	cat machine_demo.resumed
	grep -E '^(interactions|verified)' machine_demo.resumed | diff machine_demo.expected -
	@echo "resumed run matches the uninterrupted run"
	rm -f machine_demo.snapshot machine_demo.expected machine_demo.resumed

# Property-based differential fuzzing (DESIGN.md §5f): 500 seeded cases
# on the domain pool; exits non-zero and writes FUZZ_counterexamples.txt
# if any minimized counterexample survives.
fuzz:
	dune exec bench/main.exe -- fuzz --cases 500 --seed 20040301

# One XMP learning session with telemetry on: writes a JSONL trace
# (spans + metrics + the teacher dialog) plus a Chrome trace-event file
# (open demo.perfetto.json in ui.perfetto.dev) and a folded flamegraph
# profile (demo.folded), and prints the summary table.
obs-demo:
	dune exec bin/xlearner_cli.exe -- learn xmp Q5 --trace xlearner_trace.jsonl \
	  --perfetto demo.perfetto.json --profile demo.folded

# Offline analysis of the obs-demo trace: span-tree self vs child time,
# top self-time names, per-worker utilization and the critical path.
# Analyze any other trace with:
#   dune exec bench/main.exe -- obs-report path/to/trace.jsonl
obs-report:
	dune exec bench/main.exe -- obs-report xlearner_trace.jsonl

clean:
	dune clean
