//! The `rasql-server` binary's command line: `--help` lists every engine
//! setting once, next to the server's own flags.

use rasql_core::config::SETTINGS;
use std::process::Command;

#[test]
fn help_lists_every_setting_once() {
    let out = Command::new(env!("CARGO_BIN_EXE_rasql-server"))
        .arg("--help")
        .output()
        .expect("run rasql-server");
    assert!(out.status.success(), "{out:?}");
    let help = String::from_utf8(out.stdout).unwrap();
    for s in &SETTINGS {
        let flag = format!("--{}", s.name);
        let n = help.split_whitespace().filter(|t| *t == flag).count();
        assert_eq!(n, 1, "{flag} in\n{help}");
    }
    for own in ["--listen", "--drain-ms", "--idle-timeout-ms"] {
        assert!(help.contains(own), "{own} in\n{help}");
    }
}

#[test]
fn unknown_flags_are_refused() {
    for args in [&["--fault", "0.1"][..], &["--faults", "kill=lots"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_rasql-server"))
            .args(args)
            .output()
            .expect("run rasql-server");
        assert!(!out.status.success(), "{args:?}: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.starts_with("error: "), "{args:?}: {err}");
    }
}
