#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge. Every step runs, even
# after one fails; the names of the failed steps are printed at the end and
# the script exits non-zero if there are any.
set -uo pipefail
cd "$(dirname "$0")/.."

failed=()
# `step NAME CMD...`: run one gate step, and note NAME if it fails.
step() {
  local name=$1
  shift
  echo "+ [$name] $*" >&2
  "$@" || failed+=("$name")
}

step build cargo build --release
# The benchmark (`perf/`, a package of its own) builds from this tree, so an
# engine API change that breaks it fails here. Its release profile is not the
# root's (which keeps debug info), so it builds in its own `perf/target`.
step perf-build cargo build --release --offline --manifest-path perf/Cargo.toml
# The benchmark's own tests, a smoke pass of every workload against its
# independent oracle among them: a wire change that breaks `serve_mixed`'s
# answers fails here rather than in a benchmark run.
step perf-test cargo test --release --offline -q --manifest-path perf/Cargo.toml
# Every default member (the facade and the engine crates), lint suites and
# the scheduled concurrency tests included. `--no-fail-fast` runs every test
# binary even after one fails (the exit status is still non-zero), so one
# failure cannot hide the binaries after it.
step test cargo test -q --no-fail-fast
step fmt cargo fmt --check
# Default lints plus a curated pedantic subset the codebase holds itself to,
# over every target: libraries, binaries, examples and test code alike.
# `clippy.toml` disallows raw locks, sleeps and direct durable writes.
step clippy cargo clippy --all-targets -- -D warnings \
  -W clippy::needless_pass_by_value \
  -W clippy::redundant_clone \
  -W clippy::semicolon_if_nothing_returned \
  -W clippy::uninlined_format_args \
  -W clippy::explicit_iter_loop

# Compile-time query verifier over every shipped example query: fails on any
# error-severity diagnostic or refuted PreM obligation.
step lint cargo run --release -p rasql-bench --bin reproduce -- lint

# Seeded fault-injection soak: every example query under deterministic
# kill/delay/loss injection must match its fault-free result, and a
# zero-retry leg must recover via checkpoint/restore mid-fixpoint.
step faults cargo run --release -p rasql-bench --bin reproduce -- faults --scale 0.1

# Specialized-kernel gate: a small-scale bench smoke that enforces the speedup
# floor (bench::KERNEL_SPEEDUP_FLOOR, 1.85x) on every (graph, query).
step bench-kernels cargo run --release -p rasql-bench --bin reproduce -- bench-kernels --scale 0.1

# Incremental-view-maintenance gate: every example query materialized as a
# view must refresh bit-identically to a full recompute after withheld
# inserts (delta-seeded when certified, full fallback with RA0301 otherwise),
# and the small-delta R-MAT refresh must stay >= 3.3x
# (bench::IVM_SPEEDUP_FLOOR) faster than recomputing.
step ivm cargo run --release -p rasql-bench --bin reproduce -- ivm --scale 0.1

# Resource-governance gate: concurrent queries on one context under a tight
# memory budget with fault injection, plus one forced kill — asserts correct
# surviving results, actual spilling, a typed cancellation, and no leaked
# spill directories or worker threads.
step soak cargo run --release -p rasql-bench --bin reproduce -- soak --scale 0.1

# Server gate: an in-process rasql-server with concurrent TCP clients running
# the complete example-query library under a tight memory budget and fault
# injection, plus one remote kill — asserts surviving results bit-identical
# to local execution, a clean drain on shutdown, and no leaked temp files or
# threads.
step serve-soak cargo run --release -p rasql-bench --bin reproduce -- serve-soak --scale 0.1

# Durability gate: the kill-at-every-crashpoint soak — a counting pass
# enumerates every WAL append and snapshot publication boundary of a scripted
# DDL/DML/matview workload, one leg per boundary kills there, and recovery
# must be bit-identical prefix-consistent with zero stray temp files. The
# trailing check asserts the soak's scratch directories were all cleaned up.
step crash-soak cargo run --release -p rasql-bench --bin reproduce -- crash-soak --scale 0.1
leaked=$(find "${TMPDIR:-/tmp}" -maxdepth 1 -name "rasql-crash-soak-*" | wc -l)
step crash-soak-leaks test "$leaked" -eq 0

if ((${#failed[@]})); then
  echo "tier1: FAILED steps: ${failed[*]}" >&2
  exit 1
fi
echo "tier1: every step passed" >&2
