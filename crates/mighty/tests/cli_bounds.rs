//! Process-level test of the CLI's job bounds: an `--effort` or
//! `--rounds` past the bound a `mighty serve` job obeys is a usage error
//! naming the bound, not an overflow or an allocation abort.

use std::process::{Command, Output};

use mig_mighty::{MAX_EFFORT, MAX_ROUNDS};

fn mighty(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mighty"))
        .args(args)
        .output()
        .expect("run mighty")
}

#[test]
fn out_of_bound_effort_and_rounds_are_usage_errors() {
    let effort = (MAX_EFFORT + 1).to_string();
    let rounds = (MAX_ROUNDS + 1).to_string();
    for (args, bound) in [
        // Used to abort (exit 134) on a 128 PB signature allocation.
        (
            vec!["equiv", "dalu", "dalu", "--rounds", "1000000000000000"],
            MAX_ROUNDS,
        ),
        (vec!["opt", "count", "--rounds", &rounds], MAX_ROUNDS),
        (vec!["opt", "count", "--effort", &effort], MAX_EFFORT),
        (vec!["map", "count", "-e", &effort], MAX_EFFORT),
        (vec!["bench", "count", "-r", &rounds], MAX_ROUNDS),
    ] {
        let out = mighty(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("at most {bound}")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn the_bounds_themselves_are_accepted() {
    let out = mighty(&[
        "equiv",
        "count",
        "count",
        "--rounds",
        &MAX_ROUNDS.to_string(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
