//! `reproduce` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! reproduce [TARGET]... [--scale X] [--faults SPEC] [--retries N] [--checkpoint-every K]
//! ```
//!
//! `reproduce --help` lists the targets (one table, `TARGETS`, drives both
//! the list and the dispatch); no target runs `all`. Every argument is read
//! before anything runs: an unknown target or flag exits 2 with the usage.
//!
//! `--scale` multiplies dataset sizes (default 0.25 for a quick run; use 1.0
//! for the full laptop-scale reproduction recorded in EXPERIMENTS.md).
//! `--faults`, `--retries` and `--checkpoint-every` are the engine settings
//! of `rasql_core::config::SETTINGS` by those names, with the fault soak's
//! own defaults (`kill=0.15,delay=0.1,loss=0.05,delay_us=50,seed=42`, 3
//! retries, a checkpoint every 3 rounds).
//!
//! The `traces` target runs CC/SSSP/decomposed-TC with tracing enabled and
//! writes one `QueryTrace` JSON file per query under `target/traces/`.
//!
//! The `lint` target runs the compile-time verifier (`CHECK`) over every
//! shipped example query and exits non-zero on any error-severity
//! diagnostic or refuted PreM obligation.
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
//! retry budget, and `--checkpoint-every` the checkpoint interval; the soak
//! needs a spec, so `--faults off` is refused when it runs.
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
use rasql_core::config::SETTINGS;
use rasql_core::EngineConfig;
use std::process::ExitCode;
use Run::{Gate, Table, Text};

/// What a target runs with: the dataset scale and the fault-soak settings.
struct Options {
    scale: f64,
    config: EngineConfig,
}

/// How a target runs: print a table at the scale, print a text, or run a
/// gate that may fail.
enum Run {
    Table(fn(f64) -> bench::Table),
    Text(fn() -> String),
    Gate(fn(&Options) -> Result<(), String>),
}

/// Every target: the names that select it, whether `all` runs it (the
/// paper's tables and figures do; the gates with their own artifacts or
/// checks do not), and how. Targets run in this order.
const TARGETS: &[(&[&str], bool, Run)] = &[
    (&["fig1"], true, Table(bench::fig1)),
    (&["fig2"], true, Text(bench::fig2)),
    (&["fig5"], true, Table(bench::fig5)),
    (&["fig6"], true, Table(bench::fig6)),
    (&["fig7"], true, Table(bench::fig7)),
    (&["fig8"], true, Table(bench::fig8)),
    (&["fig9", "table3"], true, Table(bench::fig9)),
    (&["fig10"], true, Table(bench::fig10)),
    (&["fig11"], true, Table(bench::fig11)),
    (&["fig12"], true, Table(bench::fig12)),
    (&["table1"], true, Table(bench::table1)),
    (&["table2"], true, Table(bench::table2)),
    (&["premcheck"], true, Text(bench::premcheck)),
    (&["bench-kernels"], false, Gate(bench_kernels)),
    (&["ivm"], false, Gate(ivm)),
    (&["lint"], false, Gate(lint)),
    (&["soak"], false, Table(bench::soak)),
    (&["serve-soak"], false, Table(bench::serve_soak)),
    (&["crash-soak"], false, Table(bench::crash_soak)),
    (&["faults"], false, Gate(faults)),
    (&["traces"], true, Gate(traces)),
];

/// The engine settings `reproduce` accepts, read through the settings
/// table, with the fault soak's defaults.
const SOAK_SETTINGS: [(&str, &str); 3] = [
    (
        "faults",
        "kill=0.15,delay=0.1,loss=0.05,delay_us=50,seed=42",
    ),
    ("retries", "3"),
    ("checkpoint-every", "3"),
];

fn soak_setting(name: &str) -> bool {
    SOAK_SETTINGS.iter().any(|(soak, _)| *soak == name)
}

fn write(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn bench_kernels(o: &Options) -> Result<(), String> {
    let (table, json) = bench::fig13(o.scale);
    println!("{}", table.render());
    write("BENCH_kernels.json", &json.render())?;
    bench::kernels_meet_target(&json, bench::KERNEL_SPEEDUP_FLOOR)
}

fn ivm(o: &Options) -> Result<(), String> {
    let (table, json) = bench::ivm(o.scale);
    println!("{}", table.render());
    write("BENCH_ivm.json", &json.render())?;
    bench::ivm_meets_target(&json, bench::IVM_SPEEDUP_FLOOR)
}

fn lint(_: &Options) -> Result<(), String> {
    let (report, clean) = bench::lint();
    println!("{report}");
    if clean {
        Ok(())
    } else {
        Err("lint found error-severity diagnostics".into())
    }
}

fn faults(o: &Options) -> Result<(), String> {
    let c = &o.config;
    let spec = c.fault_spec.ok_or("faults needs a spec, not off")?;
    let table = bench::fault_soak(o.scale, spec, c.max_task_retries, c.checkpoint_interval);
    println!("{}", table.render());
    Ok(())
}

fn traces(o: &Options) -> Result<(), String> {
    let dir = std::path::Path::new("target/traces");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for (name, trace) in bench::trace_suite(o.scale) {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, trace.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let rounds: usize = trace.cliques.iter().map(|c| c.iterations.len()).sum();
        let stages = trace.stages.len();
        println!(
            "wrote {} ({rounds} fixpoint rounds, {stages} stages)",
            path.display()
        );
    }
    Ok(())
}

fn defaults() -> Options {
    let mut config = EngineConfig::rasql();
    for (name, value) in SOAK_SETTINGS {
        config.set(name, value).expect("a valid default");
    }
    Options {
        scale: 0.25,
        config,
    }
}

fn usage() -> String {
    let mut out = String::from(
        "reproduce [TARGET]... [--scale X] [--faults SPEC] [--retries N] [--checkpoint-every K]\n\n\
         TARGETS (none given = all; * = part of all):\n    all\n",
    );
    for (names, in_all, _) in TARGETS {
        let star = if *in_all { " *" } else { "" };
        out.push_str(&format!("    {}{star}\n", names.join(", ")));
    }
    out.push_str("\nFLAGS:\n    --scale X                dataset scale (default 0.25)\n");
    let defaults = defaults().config;
    for s in SETTINGS.iter().filter(|s| soak_setting(s.name)) {
        out.push_str(&s.usage(&defaults));
    }
    out
}

/// Read every argument before anything runs: the options and, per target,
/// whether it was selected.
fn parse(args: Vec<String>) -> Result<(Options, Vec<bool>), String> {
    let mut opts = defaults();
    let mut selected = vec![false; TARGETS.len()];
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if let Some(flag) = arg.strip_prefix("--") {
            let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
            match flag {
                "scale" => {
                    opts.scale = value
                        .parse()
                        .map_err(|e| format!("bad --scale '{value}': {e}"))?;
                }
                name if soak_setting(name) => opts.config.set(name, &value)?,
                _ => return Err(format!("unknown flag '{arg}'")),
            }
        } else if arg == "all" {
            for (s, (_, in_all, _)) in selected.iter_mut().zip(TARGETS) {
                *s |= in_all;
            }
        } else {
            let i = TARGETS
                .iter()
                .position(|(names, ..)| names.contains(&arg.as_str()))
                .ok_or_else(|| format!("unknown target '{arg}'"))?;
            selected[i] = true;
        }
    }
    if !selected.contains(&true) {
        selected = TARGETS.iter().map(|(_, in_all, _)| *in_all).collect();
    }
    Ok((opts, selected))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let (opts, selected) = match parse(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!(
        "RaSQL reproduction harness — scale {} — {} workers",
        opts.scale,
        rasql_exec::default_workers()
    );
    for ((_, _, run), _) in TARGETS.iter().zip(selected).filter(|(_, on)| *on) {
        match run {
            Table(table) => println!("{}", table(opts.scale).render()),
            Text(text) => println!("{}", text()),
            Gate(gate) => {
                if let Err(e) = gate(&opts) {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    ExitCode::SUCCESS
}
