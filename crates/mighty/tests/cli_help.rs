//! Process-level test of the CLI's help flags: `--help` and `-h` print
//! the usage text and exit 0 for every subcommand, not only at the top
//! level.

use std::process::Command;

#[test]
fn every_command_accepts_help_flags() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["help"],
        &["opt", "--help"],
        &["opt", "alu4", "-h"],
        &["map", "--help"],
        &["bench", "--quick", "-h"],
        &["serve", "--help"],
        &["equiv", "--help"],
        &["gen", "-h"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mighty"))
            .args(args)
            .output()
            .expect("run mighty");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        assert!(stdout.starts_with("mighty — "), "{args:?}: {stdout}");
        assert!(stdout.contains("EXIT CODES:"), "{args:?}: {stdout}");
    }
}

#[test]
fn unknown_flags_are_still_usage_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_mighty"))
        .args(["opt", "--helpme"])
        .output()
        .expect("run mighty");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--helpme`"));
}
