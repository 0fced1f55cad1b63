//! Process-level test of the legacy `--target`/`--rewrite` aliases:
//! every combination prints the report of the flow script it resolves
//! to, and misuse stays a usage error.

use std::process::{Command, Output};

use mig_mighty::TARGET_FLOWS;

fn mighty(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mighty"))
        .args(args)
        .output()
        .expect("run mighty")
}

/// The report with its wall times removed: the `N ms` of the header and
/// the trailing `ms` column of every stage row.
fn without_times(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|line| {
            if line.starts_with("=== ") {
                return line
                    .rsplit_once(" · ")
                    .map_or(line, |(head, _)| head)
                    .to_string();
            }
            let mut tokens: Vec<&str> = line.split_whitespace().collect();
            if tokens.last().is_some_and(|t| t.parse::<f64>().is_ok()) {
                tokens.pop();
            }
            tokens.join(" ")
        })
        .collect()
}

#[test]
fn every_alias_prints_the_report_of_its_flow() {
    for (target, rewrite, script) in TARGET_FLOWS {
        let mut args = vec!["opt", "count", "--jobs", "1", "--target", target];
        if rewrite {
            args.push("--rewrite");
        }
        let alias = mighty(&args);
        let flow = mighty(&["opt", "count", "--jobs", "1", "--flow", script]);
        assert_eq!(alias.status.code(), Some(0), "{args:?}: {alias:?}");
        assert_eq!(flow.status.code(), Some(0), "{script}: {flow:?}");
        assert_eq!(without_times(&alias), without_times(&flow), "{args:?}");
    }
}

#[test]
fn alias_misuse_is_a_usage_error() {
    let out = mighty(&["opt", "count", "--target", "speed"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("expected size, depth, activity or all"),
        "{stderr}"
    );
    let out = mighty(&["opt", "count", "--flow", "size", "--target", "depth"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
