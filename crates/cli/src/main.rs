//! The `rasql-shell` binary: a stdin/stdout wrapper around [`rasql_cli::Shell`].
//!
//! Flags:
//!
//! * `--workers <n>` — simulated worker count
//! * `--faults <spec>` — deterministic fault injection, e.g.
//!   `--faults kill=0.05,loss=0.02,seed=42`
//! * `--retries <n>` — retry budget for injected task failures
//! * `--checkpoint-every <k>` — checkpoint fixpoint state every k rounds
//! * `--memory-budget <bytes>` — per-query memory budget; over-budget state
//!   spills to disk (0 = unlimited)
//! * `--timeout <ms>` — per-query deadline; queries past it return a typed
//!   `deadline exceeded` error (0 = none)
//! * `--connect <host:port>` — start connected to a `rasql-server` instead
//!   of the local engine

use rasql_cli::{LineResult, Shell};
use rasql_core::EngineConfig;
use rasql_exec::FaultSpec;
use std::io::{BufRead, Write};

fn parse_args(args: &[String]) -> Result<(EngineConfig, Option<String>), String> {
    let mut config = EngineConfig::rasql();
    let mut connect = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workers" => {
                let n = value("--workers")?
                    .parse::<usize>()
                    .map_err(|e| format!("bad --workers: {e}"))?;
                config = config.workers(n);
            }
            "--faults" => {
                let spec = FaultSpec::parse(value("--faults")?)?;
                config = config.faults(Some(spec));
            }
            "--retries" => {
                let n = value("--retries")?
                    .parse::<u32>()
                    .map_err(|e| format!("bad --retries: {e}"))?;
                config = config.max_task_retries(n);
            }
            "--checkpoint-every" => {
                let k = value("--checkpoint-every")?
                    .parse::<u32>()
                    .map_err(|e| format!("bad --checkpoint-every: {e}"))?;
                config = config.checkpoint_interval(k);
            }
            "--memory-budget" => {
                let b = value("--memory-budget")?
                    .parse::<u64>()
                    .map_err(|e| format!("bad --memory-budget: {e}"))?;
                config = config.memory_budget(b);
            }
            "--timeout" => {
                let t = value("--timeout")?
                    .parse::<u64>()
                    .map_err(|e| format!("bad --timeout: {e}"))?;
                config = config.query_timeout_ms(t);
            }
            "--connect" => connect = Some(value("--connect")?.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok((config, connect))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, connect) = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: rasql-shell [--workers N] [--faults SPEC] [--retries N] \
                 [--checkpoint-every K] [--memory-budget BYTES] [--timeout MS] \
                 [--connect HOST:PORT]"
            );
            std::process::exit(2);
        }
    };
    println!(
        "RaSQL shell — recursive-aggregate SQL (SIGMOD 2019 reproduction).\n\
         Statements end with ';'. Try \\gen g rmatw 1000, then a recursive query.\n\
         \\q quits, \\d lists tables, \\explain/\\prem inspect queries, \\fault injects faults."
    );
    if let Some(spec) = &config.fault_spec {
        println!(
            "fault injection: {spec} (retries={}, checkpoint every {} rounds)",
            config.max_task_retries, config.checkpoint_interval
        );
    }
    if config.memory_budget > 0 || config.query_timeout_ms > 0 {
        println!(
            "limits: memory budget {} bytes, timeout {} ms (0 = unlimited)",
            config.memory_budget, config.query_timeout_ms
        );
    }
    let mut shell = Shell::with_context(config.build());
    if let Some(addr) = connect {
        match shell.connect(&addr) {
            Ok(banner) => print!("{banner}"),
            Err(e) => {
                eprintln!("error: cannot connect to {addr}: {e}");
                std::process::exit(2);
            }
        }
    }
    let stdin = std::io::stdin();
    let mut prompt = "rasql> ";
    loop {
        print!("{prompt}");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        match shell.feed(&line) {
            LineResult::Output(o) => {
                print!("{o}");
                prompt = "rasql> ";
            }
            LineResult::Continue => prompt = "   ... ",
            LineResult::Quit => break,
        }
    }
}
