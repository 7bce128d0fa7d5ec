//! The whole suite: every workload in a child process of its own (so peak
//! memory is per workload), `--repeat K` times with consecutive seeds, with
//! the spread of every metric judged the way the benchmark contract judges it.

use crate::spec::{MetricDecl, Spec};
use crate::stats::{median, quartile_spread};
use crate::Cli;
use rasql_exec::JsonValue;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// One child run's result line, parsed.
struct RunResult {
    correct: bool,
    values: BTreeMap<String, f64>,
}

fn run_child(
    workload: &str,
    seed: u64,
    cli: &Cli,
    traced: bool,
    echo: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &cli.args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if cli.args.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child: none outlives the suite.
    let output = command
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let last = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!("{workload} seed {seed}: exit {}", output.status));
    }
    let doc =
        JsonValue::parse(last).map_err(|e| format!("{workload} seed {seed}: result line: {e}"))?;
    let Some(JsonValue::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{workload} seed {seed}: no metrics object"));
    };
    Ok(RunResult {
        correct: doc.get("correct") == Some(&JsonValue::Bool(true)),
        values: metrics
            .iter()
            .filter_map(|(name, m)| match m.get("value") {
                Some(JsonValue::Num(v)) => Some((name.clone(), *v)),
                _ => None,
            })
            .collect(),
    })
}

/// One line per metric; returns whether every spread is within its bound.
fn summarize(workload: &str, decls: &[MetricDecl], runs: &[RunResult]) -> bool {
    let mut within = true;
    for decl in decls {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.values.get(&decl.name).copied())
            .collect();
        let (min, max) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(*v), hi.max(*v))
            });
        let spread = quartile_spread(&values);
        // `setup_s` is gated on its median only, like the driver does.
        let verdict = match decl.bound {
            Some(bound) if values.len() >= 2 && decl.name != "setup_s" => {
                within &= spread <= bound;
                format!(
                    "bound {bound} {}",
                    if spread <= bound { "ok" } else { "EXCEEDED" }
                )
            }
            _ => String::new(),
        };
        println!(
            "{workload:<15} {:<40} min {min:>14.4} median {:>14.4} max {max:>14.4} {:<6} spread {spread:>7.4} {verdict}",
            decl.name,
            median(&values),
            decl.unit,
        );
    }
    within
}

pub fn run(spec: &Spec, cli: &Cli) -> ExitCode {
    let mut ok = true;
    for workload in &spec.workloads {
        let mut passes = vec![(false, cli.repeat)];
        if cli.traced_suite {
            passes.push((true, 1));
        }
        for (traced, repeat) in passes {
            let mut runs = Vec::new();
            for k in 0..repeat {
                match run_child(
                    workload,
                    cli.args.seed + k as u64,
                    cli,
                    traced,
                    cli.repeat == 1,
                ) {
                    Ok(run) => {
                        if !run.correct {
                            eprintln!("{workload} seed {}: incorrect (rerun it alone for the failed statements)", cli.args.seed + k as u64);
                            ok = false;
                        }
                        runs.push(run);
                    }
                    Err(why) => {
                        eprintln!("{why}");
                        ok = false;
                    }
                }
            }
            if cli.repeat > 1 || runs.is_empty() {
                ok &= summarize(workload, spec.metrics(traced), &runs);
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("suite failed: an incorrect run, a failed child, or a spread beyond its bound");
        ExitCode::FAILURE
    }
}
