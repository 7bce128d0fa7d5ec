//! `rasql-server` binary: stand up an engine, listen, serve until a client
//! sends `Shutdown`.

use rasql_core::config::settings_usage;
use rasql_core::EngineConfig;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> String {
    format!(
        "rasql-server — RaSQL query daemon\n\n\
         USAGE:\n    rasql-server [OPTIONS]\n\n\
         OPTIONS:\n    \
         --listen ADDR            listen address (default 127.0.0.1:7432; port 0 picks one)\n    \
         --drain-ms MS            shutdown drain timeout (default 10000)\n    \
         --idle-timeout-ms MS     reap connections idle this long, 0 = never (default 300000)\n    \
         -h, --help               this help\n\n\
         ENGINE SETTINGS:\n{}",
        settings_usage()
    )
}

fn parse(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("invalid value '{s}'"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    // The server's own options; every engine setting parses straight into
    // the context's configuration through the settings table.
    let (mut listen, mut drain_ms, mut idle_timeout_ms) =
        ("127.0.0.1:7432".to_string(), 10_000, 300_000);
    let mut config = EngineConfig::rasql();
    let parsed = config.parse_flags(args, |flag, value| {
        match flag {
            "--listen" => listen = value,
            "--drain-ms" => drain_ms = parse(&value)?,
            "--idle-timeout-ms" => idle_timeout_ms = parse(&value)?,
            _ => return Ok(false),
        }
        Ok(true)
    });
    if let Err(e) = parsed {
        eprintln!("error: {e}\n\n{}", usage());
        return ExitCode::FAILURE;
    }
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
        &listen,
        Duration::from_millis(drain_ms),
        Duration::from_millis(idle_timeout_ms),
    ) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot listen on {listen}: {e}");
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
