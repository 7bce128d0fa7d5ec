//! The `rasql-shell` binary's command line: `--help` lists every engine
//! setting once, and a data directory the engine cannot open is an error,
//! not a panic.

use rasql_core::config::SETTINGS;
use std::process::{Command, Stdio};

fn shell(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rasql-shell"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run rasql-shell")
}

#[test]
fn help_lists_every_setting_once() {
    let out = shell(&["--help"]);
    assert!(out.status.success(), "{out:?}");
    let help = String::from_utf8(out.stdout).unwrap();
    for s in &SETTINGS {
        let flag = format!("--{}", s.name);
        let n = help.split_whitespace().filter(|t| *t == flag).count();
        assert_eq!(n, 1, "{flag} in\n{help}");
    }
    assert!(help.contains("--connect"), "{help}");
}

#[test]
fn bad_flags_and_data_dirs_exit_2_with_an_error() {
    for args in [
        &["--bogus", "1"][..],
        &["--workers", "many"],
        &["--timeout", "5"],
    ] {
        let out = shell(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.starts_with("error: "), "{args:?}: {err}");
    }
    let file = std::env::temp_dir().join(format!("rasql-shell-not-a-dir-{}", std::process::id()));
    std::fs::write(&file, "").unwrap();
    let dir = file.join("data");
    let out = shell(&["--data-dir", dir.to_str().unwrap()]);
    std::fs::remove_file(&file).unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.starts_with("error: cannot start the engine"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
