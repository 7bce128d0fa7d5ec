//! The `rasql-shell` binary: a stdin/stdout wrapper around [`rasql_cli::Shell`].
//!
//! Flags: `--connect <host:port>` starts connected to a `rasql-server`
//! instead of the local engine, and every engine setting of
//! [`rasql_core::config::SETTINGS`] is a `--NAME VALUE` flag, e.g.
//! `--workers 4`, `--faults kill=0.05,loss=0.02,seed=42`, `--timeout-ms 30000`
//! or `--data-dir PATH`. `--help` lists them all.

use rasql_cli::{LineResult, Shell};
use rasql_core::config::settings_usage;
use rasql_core::EngineConfig;
use std::io::{BufRead, Write};

fn usage() -> String {
    format!(
        "rasql-shell — interactive RaSQL shell\n\n\
         USAGE:\n    rasql-shell [OPTIONS]\n\n\
         OPTIONS:\n    \
         --connect HOST:PORT      start connected to a rasql-server\n    \
         -h, --help               this help\n\n\
         ENGINE SETTINGS (also \\set NAME VALUE at the prompt):\n{}",
        settings_usage()
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        print!("{}", usage());
        return;
    }
    let mut config = EngineConfig::rasql();
    let mut connect = None;
    let parsed = config.parse_flags(args, |flag, value| match flag {
        "--connect" => {
            connect = Some(value);
            Ok(true)
        }
        _ => Ok(false),
    });
    if let Err(e) = parsed {
        eprintln!("error: {e}\n\n{}", usage());
        std::process::exit(2);
    }
    let ctx = config.try_build().unwrap_or_else(|e| {
        eprintln!("error: cannot start the engine: {e}");
        std::process::exit(2);
    });
    println!(
        "RaSQL shell — recursive-aggregate SQL (SIGMOD 2019 reproduction).\n\
         Statements end with ';'. Try \\gen g rmatw 1000, then a recursive query.\n\
         \\q quits, \\d lists tables, \\explain/\\prem inspect queries, \\set shows the settings."
    );
    let mut shell = Shell::with_context(ctx);
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
