#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge.
set -euxo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo fmt --check
# Default lints plus a curated pedantic subset the codebase holds itself to.
cargo clippy -- -D warnings \
  -W clippy::needless_pass_by_value \
  -W clippy::redundant_clone \
  -W clippy::semicolon_if_nothing_returned \
  -W clippy::uninlined_format_args \
  -W clippy::explicit_iter_loop

# Compile-time query verifier over every shipped example query: fails on any
# error-severity diagnostic or refuted PreM obligation.
cargo run --release -p rasql-bench --bin reproduce -- lint

# Workspace source linter: the RL#### concurrency/hot-path disciplines over
# crates/*/src (golden fixture tests pin every rule's codes and spans, then
# the live tree must lint clean).
cargo test -q -p rasql-lint
cargo run --release -p rasql-bench --bin reproduce -- lint-src

# Interleaving model checker: lock-rank unit tests, the protocol regression
# suite (each fixed model clean, each reverted model refuted — including
# both PR-7 races), then the reproduce-level summary gate.
cargo test -q -p rasql-storage sync::
cargo test -q -p rasql-core --test lock_order_tests
cargo test -q -p rasql-exec --test modelcheck_tests
cargo run --release -p rasql-bench --bin reproduce -- modelcheck

# Seeded fault-injection soak: every example query under deterministic
# kill/delay/loss injection must match its fault-free result, and a
# zero-retry leg must recover via checkpoint/restore mid-fixpoint.
cargo run --release -p rasql-bench --bin reproduce -- faults --scale 0.1

# Specialized-kernel gate: the differential suite (kernel vs interpreter must
# be bit-identical) plus a small-scale bench smoke that still enforces the
# speedup floor (bench::KERNEL_SPEEDUP_FLOOR, 1.85x) on every (graph, query).
cargo test -q -p rasql-core --test kernel_proptests
cargo run --release -p rasql-bench --bin reproduce -- bench-kernels --scale 0.1

# Incremental-view-maintenance gate: every example query materialized as a
# view must refresh bit-identically to a full recompute after withheld
# inserts (delta-seeded when certified, full fallback with RA0301 otherwise),
# the differential matview suite must pass, and the small-delta R-MAT refresh
# must stay >= 3.3x (bench::IVM_SPEEDUP_FLOOR) faster than recomputing.
cargo test -q -p rasql-core --test matview_tests
cargo run --release -p rasql-bench --bin reproduce -- ivm --scale 0.1

# Resource-governance gate: concurrent queries on one context under a tight
# memory budget with fault injection, plus one forced kill — asserts correct
# surviving results, actual spilling, a typed cancellation, and no leaked
# spill directories or worker threads.
cargo run --release -p rasql-bench --bin reproduce -- soak --scale 0.1

# Server gate: an in-process rasql-server with concurrent TCP clients running
# the complete example-query library under a tight memory budget and fault
# injection, plus one remote kill — asserts surviving results bit-identical
# to local execution, a clean drain on shutdown, and no leaked temp files or
# threads.
cargo run --release -p rasql-bench --bin reproduce -- serve-soak --scale 0.1

# Durability gate: the core recovery suite and WAL corruption proptests, then
# the kill-at-every-crashpoint soak — a counting pass enumerates every WAL
# append and snapshot publication boundary of a scripted DDL/DML/matview
# workload, one leg per boundary kills there, and recovery must be
# bit-identical prefix-consistent with zero stray temp files. The trailing
# check asserts the soak's scratch directories were all cleaned up.
cargo test -q -p rasql-core --test durability_tests
cargo test -q -p rasql-storage --test wal_proptests
cargo run --release -p rasql-bench --bin reproduce -- crash-soak --scale 0.1
leaked=$(find "${TMPDIR:-/tmp}" -maxdepth 1 -name "rasql-crash-soak-*" | wc -l)
test "$leaked" -eq 0
