//! `reproduce` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! reproduce [all|fig1|fig2|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|
//!            table1|table2|table3|premcheck|traces|faults|lint|lint-src|
//!            bench-kernels|ivm|soak|serve-soak|crash-soak]
//!           [--scale X]
//!           [--faults SPEC] [--retries N] [--checkpoint-every K]
//! ```
//!
//! `--scale` multiplies dataset sizes (default 0.25 for a quick run; use 1.0
//! for the full laptop-scale reproduction recorded in EXPERIMENTS.md).
//!
//! The `traces` target runs CC/SSSP/decomposed-TC with tracing enabled and
//! writes one `QueryTrace` JSON file per query under `target/traces/`.
//!
//! The `lint` target runs the compile-time verifier (`CHECK`) over every
//! shipped example query and exits non-zero on any error-severity
//! diagnostic or refuted PreM obligation.
//!
//! The `lint-src` target runs the *source* linter (`rasql-lint`) over the
//! workspace's own `crates/*/src` tree, enforcing the hot-path and
//! single-owner disciplines with `RL####` diagnostics (`RL` codes are about
//! the engine's Rust; `RA` codes are about the user's SQL). Exits non-zero
//! on any unsuppressed finding.
//!
//! The `bench-kernels` target compares the specialized CSR fixpoint kernels
//! against the generic interpreter, writes `BENCH_kernels.json` in the
//! working directory, and exits non-zero if any (graph, query) ratio — best
//! of three runs per leg — falls under `bench::KERNEL_SPEEDUP_FLOOR`.
//!
//! The `faults` target runs the seeded fault-injection soak: every example
//! query under deterministic fault injection must match its fault-free
//! result, plus a zero-retry checkpoint/restore leg. `--faults` overrides the
//! default spec (e.g. `--faults kill=0.1,loss=0.05,seed=7`), `--retries` the
//! retry budget, and `--checkpoint-every` the checkpoint interval.
//!
//! The `ivm` target runs the incremental-view-maintenance gate: every
//! single-statement example query is materialized as a view, a withheld
//! delta is inserted back, and the refresh must be bit-identical to a full
//! recompute (delta-seeded when the verifier certifies the shape, full
//! fallback with an RA0301 finding otherwise). It writes `BENCH_ivm.json`
//! and exits non-zero if the small-delta R-MAT refresh is less than
//! `bench::IVM_SPEEDUP_FLOOR` times faster than recomputing.
//!
//! The `soak` target runs the resource-governance soak: concurrent queries on
//! one context under a tight memory budget with fault injection, plus one
//! forced `kill` — asserting correct surviving results, actual spilling, a
//! typed cancellation, and no leaked temp files or worker threads.
//!
//! The `serve-soak` target runs the same discipline over TCP: an in-process
//! `rasql-server` with concurrent clients running the complete example-query
//! library under a tight budget and fault injection, plus one remote
//! `Kill` — asserting surviving results bit-identical to local execution, a
//! clean drain on shutdown, and no leaked temp files or threads.
//!
//! The `crash-soak` target runs the kill-at-every-crashpoint recovery soak:
//! a counting pass enumerates every durability write boundary a scripted
//! DDL/DML/matview workload visits, then one leg per boundary kills exactly
//! there and asserts recovery lands on a bit-identical prefix-consistent
//! state with zero stray snapshot temp files.

use rasql_bench as bench;
use rasql_exec::FaultSpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.25f64;
    let mut spec = FaultSpec {
        kill: 0.15,
        delay: 0.1,
        loss: 0.05,
        delay_us: 50,
        seed: 42,
    };
    let mut retries = 3u32;
    let mut checkpoint_every = 3u32;
    let mut targets: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--faults" => {
                i += 1;
                let raw = args.get(i).unwrap_or_else(|| die("--faults needs a spec"));
                spec = FaultSpec::parse(raw).unwrap_or_else(|e| die(&e));
            }
            "--retries" => {
                i += 1;
                retries = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--retries needs an integer"));
            }
            "--checkpoint-every" => {
                i += 1;
                checkpoint_every = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--checkpoint-every needs an integer"));
            }
            "--help" | "-h" => {
                println!(
                    "reproduce [all|fig1|fig2|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|\n\
                     table1|table2|table3|premcheck|traces|faults|lint|lint-src|\n\
                     bench-kernels|ivm|soak|serve-soak|crash-soak]...\n\
                     [--scale X] [--faults SPEC] [--retries N] [--checkpoint-every K]"
                );
                return;
            }
            t => targets.push(t.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() {
        targets.push("all".into());
    }

    let all = targets.iter().any(|t| t == "all");
    let want = |name: &str| all || targets.iter().any(|t| t == name);

    println!(
        "RaSQL reproduction harness — scale {scale} — {} workers",
        rasql_exec::default_workers()
    );

    if want("fig1") {
        println!("{}", bench::fig1(scale).render());
    }
    if want("fig2") {
        println!("{}", bench::fig2());
    }
    if want("fig5") {
        println!("{}", bench::fig5(scale).render());
    }
    if want("fig6") {
        println!("{}", bench::fig6(scale).render());
    }
    if want("fig7") {
        println!("{}", bench::fig7(scale).render());
    }
    if want("fig8") {
        println!("{}", bench::fig8(scale).render());
    }
    if want("fig9") || want("table3") {
        println!("{}", bench::fig9(scale).render());
    }
    if want("fig10") {
        println!("{}", bench::fig10(scale).render());
    }
    if want("fig11") {
        println!("{}", bench::fig11(scale).render());
    }
    if want("fig12") {
        println!("{}", bench::fig12(scale).render());
    }
    if want("table1") {
        println!("{}", bench::table1(scale).render());
    }
    if want("table2") {
        println!("{}", bench::table2(scale).render());
    }
    if want("premcheck") {
        println!("{}", bench::premcheck());
    }
    // Not part of `all`: a beyond-the-paper artifact with its own gate.
    if targets.iter().any(|t| t == "bench-kernels") {
        let (table, json) = bench::fig13(scale);
        println!("{}", table.render());
        let path = std::path::Path::new("BENCH_kernels.json");
        if let Err(e) = std::fs::write(path, json.render()) {
            die(&format!("cannot write {}: {e}", path.display()));
        }
        println!("wrote {}", path.display());
        if let Err(e) = bench::kernels_meet_target(&json, bench::KERNEL_SPEEDUP_FLOOR) {
            die(&e);
        }
    }
    // Not part of `all`: a subsystem gate with its own artifact.
    if targets.iter().any(|t| t == "ivm") {
        let (table, json) = bench::ivm(scale);
        println!("{}", table.render());
        let path = std::path::Path::new("BENCH_ivm.json");
        if let Err(e) = std::fs::write(path, json.render()) {
            die(&format!("cannot write {}: {e}", path.display()));
        }
        println!("wrote {}", path.display());
        if let Err(e) = bench::ivm_meets_target(&json, bench::IVM_SPEEDUP_FLOOR) {
            die(&e);
        }
    }
    // Not part of `all`: a subsystem check, not a paper artifact.
    if targets.iter().any(|t| t == "lint") {
        let (report, clean) = bench::lint();
        println!("{report}");
        if !clean {
            die("lint found error-severity diagnostics");
        }
    }
    // Not part of `all`: a subsystem check, not a paper artifact.
    if targets.iter().any(|t| t == "lint-src") {
        let (report, clean) = bench::lint_src();
        println!("{report}");
        if !clean {
            die("lint-src found unsuppressed RL#### findings");
        }
    }
    // Not part of `all`: a subsystem check, not a paper artifact.
    if targets.iter().any(|t| t == "soak") {
        println!("{}", bench::soak(scale).render());
    }
    // Not part of `all`: a subsystem check, not a paper artifact.
    if targets.iter().any(|t| t == "serve-soak") {
        println!("{}", bench::serve_soak(scale).render());
    }
    // Not part of `all`: a subsystem check, not a paper artifact.
    if targets.iter().any(|t| t == "crash-soak") {
        println!("{}", bench::crash_soak(scale).render());
    }
    // Not part of `all`: a subsystem check, not a paper artifact.
    if targets.iter().any(|t| t == "faults") {
        println!(
            "{}",
            bench::fault_soak(scale, spec, retries, checkpoint_every).render()
        );
    }
    if want("traces") {
        let dir = std::path::Path::new("target/traces");
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("cannot create {}: {e}", dir.display()));
        }
        for (name, trace) in bench::trace_suite(scale) {
            let path = dir.join(format!("{name}.json"));
            if let Err(e) = std::fs::write(&path, trace.to_json()) {
                die(&format!("cannot write {}: {e}", path.display()));
            }
            println!(
                "wrote {} ({} fixpoint rounds, {} stages)",
                path.display(),
                trace
                    .cliques
                    .iter()
                    .map(|c| c.iterations.len())
                    .sum::<usize>(),
                trace.stages.len()
            );
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}
