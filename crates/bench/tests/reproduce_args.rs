//! The `reproduce` binary reads every argument before it runs anything: an
//! unknown target or flag exits 2 with the usage, and `--help` lists every
//! target.

use std::process::Command;

fn reproduce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("run reproduce")
}

#[test]
fn unknown_targets_and_flags_exit_2_before_running_anything() {
    for args in [
        &["crash-sok", "--scale", "0.1"][..],
        &["crash-soak", "--scael", "0.1"],
        &["fig5", "--scale", "big"],
        &["faults", "--retries", "-1"],
        &["faults", "--workers", "2"],
        &["fig5", "--scale"],
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.starts_with("error: ") && err.contains("TARGETS"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn help_lists_every_target() {
    let out = reproduce(&["--help"]);
    assert!(out.status.success(), "{out:?}");
    let help = String::from_utf8(out.stdout).unwrap();
    let targets = [
        "all",
        "fig1",
        "fig2",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "table1",
        "table2",
        "table3",
        "premcheck",
        "traces",
        "faults",
        "lint",
        "bench-kernels",
        "ivm",
        "soak",
        "serve-soak",
        "crash-soak",
    ];
    // Each line of the TARGETS block is a target's names, then `*` if
    // `all` runs it.
    let mut listed: Vec<&str> = help
        .lines()
        .skip_while(|l| !l.starts_with("TARGETS"))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .flat_map(|l| l.trim().trim_end_matches(" *").split(", "))
        .collect();
    listed.sort_unstable();
    let mut expected = targets.to_vec();
    expected.sort_unstable();
    assert_eq!(listed, expected, "{help}");
    for flag in ["--scale", "--faults", "--retries", "--checkpoint-every"] {
        assert!(help.contains(flag), "{flag} in\n{help}");
    }
}
