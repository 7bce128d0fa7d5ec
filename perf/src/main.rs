//! `perf`: the repository's benchmark. `--workload <name>` runs one workload
//! and prints its result as the last line; without it the whole suite runs,
//! one child process per workload run. See README.md beside Cargo.toml.

mod harness;
mod inputs;
mod layers;
mod oracle;
mod spec;
mod stats;
mod suite;
mod workloads;

use harness::{Report, RunArgs};
use rasql_exec::JsonValue;
use spec::Spec;
use std::process::ExitCode;

const USAGE: &str = "usage: perf [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] \
[--traced] [--repeat <k>] [--smoke]";

/// The command line, for both modes.
pub struct Cli {
    workload: Option<String>,
    args: RunArgs,
    /// Suite mode: add a traced run of each workload.
    traced_suite: bool,
    /// Suite mode: runs per workload, each with the next seed.
    repeat: usize,
}

fn parse(spec: &Spec, mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        args: RunArgs {
            seed: 1,
            seconds: spec.run_seconds,
            traced: false,
            smoke: false,
        },
        traced_suite: false,
        repeat: 1,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: String| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                cli.args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?
            }
            "--trace" => {
                cli.args.traced = value().and_then(|v| v.parse::<u8>().map_err(|_| bad(v)))? != 0
            }
            "--repeat" => cli.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--traced" => cli.traced_suite = true,
            "--smoke" => cli.args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(cli.args.seconds > 0.0 && cli.args.seconds.is_finite()) || cli.repeat == 0 {
        return Err("--seconds and --repeat must be positive".into());
    }
    Ok(cli)
}

/// The result object the benchmark contract asks for: exactly the declared
/// metrics of the run's kind, each with its unit. A metric the workload has
/// nothing to say about reads 0 (only per-layer ones may).
fn result_json(spec: &Spec, traced: bool, report: &Report) -> Result<JsonValue, String> {
    let declared = spec.metrics(traced);
    if let Some(stray) = report
        .metrics
        .keys()
        .find(|k| !declared.iter().any(|d| d.name == **k))
    {
        return Err(format!(
            "metric `{stray}` is not declared in BENCHMARK.json"
        ));
    }
    let mut metrics = Vec::new();
    for decl in declared {
        let value = match report.metrics.get(decl.name.as_str()) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric `{}` is {v}", decl.name)),
            None if traced => 0.0,
            None => {
                return Err(format!(
                    "end-to-end metric `{}` was not measured",
                    decl.name
                ))
            }
        };
        metrics.push((
            decl.name.clone(),
            JsonValue::Obj(vec![
                ("value".into(), JsonValue::Num(value)),
                ("unit".into(), JsonValue::Str(decl.unit.clone())),
            ]),
        ));
    }
    Ok(JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(report.correct)),
        ("attempted".into(), JsonValue::Num(report.attempted as f64)),
        ("failed".into(), JsonValue::Num(report.failed as f64)),
        ("metrics".into(), JsonValue::Obj(metrics)),
    ]))
}

/// What the numbers were measured on, for the head of every run's output.
fn header(workload: &str, args: &RunArgs) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    format!(
        "perf workload={workload} seed={} seconds={} traced={} smoke={} nproc={nproc} workers={} partitions={} \
stage_latency_us=0 preset=rasql commit={commit}",
        args.seed,
        args.seconds,
        args.traced,
        args.smoke,
        harness::WORKERS,
        harness::WORKERS,
    )
}

fn run_workload(spec: &Spec, workload: &str, args: &RunArgs) -> ExitCode {
    if !spec.workloads.iter().any(|w| w == workload) {
        eprintln!(
            "unknown workload `{workload}`; BENCHMARK.json declares {:?}",
            spec.workloads
        );
        return ExitCode::from(2);
    }
    println!("{}", header(workload, args));
    let report = workloads::run(workload, args).expect("every declared workload is implemented");
    for note in &report.notes {
        println!("  {note}");
    }
    let result = match result_json(spec, args.traced, &report) {
        Ok(result) => result,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(3);
        }
    };
    for decl in spec.metrics(args.traced) {
        let value = report
            .metrics
            .get(decl.name.as_str())
            .copied()
            .unwrap_or(0.0);
        println!("  {:<40} {value:>16.4} {}", decl.name, decl.unit);
    }
    println!("{}", result.render());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let cli = match parse(&spec, std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(workload) => run_workload(&spec, workload, &cli.args),
        None => suite::run(&spec, &cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(traced: bool) -> RunArgs {
        RunArgs {
            seed: 1,
            seconds: 0.2,
            traced,
            smoke: true,
        }
    }

    /// A smoke-sized pass over all four workloads: each emits exactly the
    /// declared metrics (a stray or missing name is an error of
    /// `result_json`), answers every statement correctly, and leaves nothing
    /// behind.
    #[test]
    fn every_workload_emits_the_declared_metrics() {
        let spec = Spec::load();
        assert_eq!(
            spec.workloads,
            [
                "graph_kernel",
                "graph_generic",
                "serve_mixed",
                "ingest_durable"
            ]
        );
        for workload in &spec.workloads {
            for traced in [false, true] {
                let report = workloads::run(workload, &smoke(traced)).expect("implemented");
                assert!(
                    report.correct,
                    "{workload} traced={traced}: {:?}",
                    report.notes
                );
                let json = result_json(&spec, traced, &report).expect("declared metrics only");
                let JsonValue::Obj(metrics) = json.get("metrics").expect("metrics").clone() else {
                    panic!("metrics is an object")
                };
                let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                let declared: Vec<&str> = spec
                    .metrics(traced)
                    .iter()
                    .map(|d| d.name.as_str())
                    .collect();
                assert_eq!(names, declared);
                for (name, metric) in &metrics {
                    assert!(
                        !metric
                            .get("unit")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .is_empty(),
                        "{name}"
                    );
                    if !traced {
                        let JsonValue::Num(v) = metric.get("value").expect("value") else {
                            panic!("number")
                        };
                        assert!(*v > 0.0, "{workload}: end-to-end metric {name} is {v}");
                    }
                }
            }
        }
        assert!(harness::leaked_temp_dirs().is_empty());
    }

    /// The oracle is wired into the failure count: a corrupted expectation
    /// turns a correct answer into a failed statement.
    #[test]
    fn corrupted_expectation_fails_the_statement() {
        use harness::{run_statement, Recorder, Spans, Stmt};
        use oracle::Expect;
        use rasql_api::int_row;
        let ctx = harness::engine().build();
        ctx.register("edge", rasql_storage::Relation::edges(&[(1, 2), (2, 3)]))
            .unwrap();
        let sql = rasql_core::library::reach(1);
        let good = Stmt::new(
            "reach",
            sql.clone(),
            Expect::exact(&[int_row(&[1]), int_row(&[2]), int_row(&[3])]),
        );
        let corrupted = Stmt::new(
            "reach",
            sql,
            Expect::exact(&[int_row(&[1]), int_row(&[2]), int_row(&[4])]),
        );
        let mut rec = Recorder::default();
        run_statement(&ctx, &good, &mut rec, &mut Spans::new(false));
        assert_eq!((rec.attempted, rec.failed), (1, 0));
        run_statement(&ctx, &corrupted, &mut rec, &mut Spans::new(false));
        assert_eq!((rec.attempted, rec.failed), (2, 1));
        let broken = Stmt::new("reach", "SELECT nothing FROM nowhere".into(), Expect::Any);
        run_statement(&ctx, &broken, &mut rec, &mut Spans::new(false));
        assert_eq!((rec.attempted, rec.failed), (3, 2));
    }
}
