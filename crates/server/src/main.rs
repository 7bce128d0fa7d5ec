//! `rasql-server` binary: stand up an engine, listen, serve until a client
//! sends `Shutdown`.

use rasql_core::{EngineConfig, RaSqlContext};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
rasql-server — RaSQL query daemon

USAGE:
    rasql-server [OPTIONS]

OPTIONS:
    --listen ADDR          Listen address (default 127.0.0.1:7432; port 0 picks one)
    --workers N            Simulated cluster workers (default: cores, clamped 2..8)
    --data-dir PATH        Durable data directory: recover catalog and views on
                           start, write-ahead log every commit (default in-memory)
    --snapshot-every N     Compact the WAL into a snapshot every N records
                           (default 256; 0 never compacts)
    --memory-budget BYTES  Per-query memory budget, 0 = unlimited (default 0)
    --timeout-ms MS        Per-query deadline, 0 = none (default 0)
    --max-concurrent N     Concurrent query cap, 0 = unlimited (default 0)
    --admission-queue N    Admission wait-queue capacity (default 16)
    --fault P              Inject task-kill faults with probability P (default off)
    --retries N            Retry budget for injected faults (default 3)
    --drain-ms MS          Shutdown drain timeout (default 10000)
    --idle-timeout-ms MS   Reap connections idle this long, 0 = never (default 300000)
    -h, --help             This help
";

/// The server's own options; every engine flag parses straight into the
/// context's configuration, whose defaults the help text quotes.
struct Options {
    listen: String,
    drain_ms: u64,
    idle_timeout_ms: u64,
}

fn parse_args() -> Result<(Options, EngineConfig), String> {
    let mut opts = Options {
        listen: "127.0.0.1:7432".to_string(),
        drain_ms: 10_000,
        idle_timeout_ms: 300_000,
    };
    let mut config = RaSqlContext::builder();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        match arg.as_str() {
            "--listen" => opts.listen = value("--listen")?,
            "--workers" => config = config.workers(parse(&value("--workers")?)?),
            "--data-dir" => config = config.data_dir(value("--data-dir")?),
            "--snapshot-every" => {
                config = config.snapshot_every(parse(&value("--snapshot-every")?)?);
            }
            "--idle-timeout-ms" => opts.idle_timeout_ms = parse(&value("--idle-timeout-ms")?)?,
            "--memory-budget" => config = config.memory_budget(parse(&value("--memory-budget")?)?),
            "--timeout-ms" => config = config.query_timeout_ms(parse(&value("--timeout-ms")?)?),
            "--max-concurrent" => {
                config = config.max_concurrent_queries(parse(&value("--max-concurrent")?)?);
            }
            "--admission-queue" => {
                config = config.admission_queue(parse(&value("--admission-queue")?)?);
            }
            "--fault" => {
                config = config.faults(Some(rasql_exec::FaultSpec {
                    kill: parse(&value("--fault")?)?,
                    ..Default::default()
                }));
            }
            "--retries" => config = config.max_task_retries(parse(&value("--retries")?)?),
            "--drain-ms" => opts.drain_ms = parse(&value("--drain-ms")?)?,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok((opts, config))
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid value '{s}'"))
}

fn main() -> ExitCode {
    let (opts, config) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Recovery replays the snapshot and WAL before the listener opens, so
    // a recovered server never serves a partially-restored catalog.
    let ctx = match config.try_build() {
        Ok(ctx) => Arc::new(ctx),
        Err(e) => {
            eprintln!("error: recovery from data dir failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(status) = ctx.durability_status() {
        eprintln!(
            "recovered from {} ({} tables, {} views; wal: {} records / {} B, snapshots: {})",
            status.data_dir,
            ctx.table_names().len(),
            ctx.view_infos().len(),
            status.wal_records,
            status.wal_bytes,
            status.snapshots,
        );
    }
    let handle = match rasql_server::serve_full(
        ctx,
        &opts.listen,
        Duration::from_millis(opts.drain_ms),
        Duration::from_millis(opts.idle_timeout_ms),
    ) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot listen on {}: {e}", opts.listen);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{} listening on {}",
        rasql_server::SERVER_IDENT,
        handle.addr()
    );
    handle.wait_for_shutdown();
    eprintln!("shutdown requested; draining");
    if handle.shutdown() {
        eprintln!("drained cleanly");
        ExitCode::SUCCESS
    } else {
        eprintln!("drain timeout hit; interrupted remaining sessions");
        ExitCode::FAILURE
    }
}
