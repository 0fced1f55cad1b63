//! The gates over `mig-bench/v8` reports: the committed trajectory
//! `BENCH_opt.json` and fresh sweeps run in-process through
//! [`run_suite`] and [`to_json`]. Reports are read only through
//! [`Json`], so a layout change in `to_json` cannot change what a gate
//! compares.
//!
//! The committed file is checked by a plain `cargo test`. The sweeps
//! are ignored by default; run them in release, one at a time, so the
//! timed ones do not share cores:
//!
//! ```text
//! cargo test --release -p mig_mighty --test bench_gates -- --ignored --test-threads 1
//! ```
//!
//! Add `--features faultpoints` to check that the dormant fault hooks
//! leave every pinned field unchanged.

use std::collections::BTreeMap;

use mig_mighty::bench::{run_suite, to_json, BenchConfig, DEFAULT_FLOW, ESAT_FLOW, LARGE_FLOW};
use mig_mighty::json::Json;

/// The committed trajectory (full mode, both tiers, jobs 1).
const COMMITTED: &str = include_str!("../../../BENCH_opt.json");

/// Keys whose values differ between runs of one commit, at any depth:
/// wall times and the resolved worker count.
const TIMING_KEYS: [&str; 4] = ["millis", "total_millis", "ref_millis", "threads"];

/// Top-level keys only a run of the large tier writes: its block, whose
/// wall times and peak RSS vary run to run, its flow, and the suite
/// label naming it.
const LARGE_KEYS: [&str; 3] = ["large", "large_flow", "suite"];

fn parse(text: &str) -> Json {
    Json::parse(text).expect("report parses as JSON")
}

/// What a rerun of the same commit must reproduce exactly: the report
/// without [`TIMING_KEYS`] and [`LARGE_KEYS`].
fn pinned(text: &str) -> Json {
    fn strip(v: &mut Json) {
        match v {
            Json::Obj(map) => {
                map.retain(|k, _| !TIMING_KEYS.contains(&k.as_str()));
                map.values_mut().for_each(strip);
            }
            Json::Arr(items) => items.iter_mut().for_each(strip),
            _ => {}
        }
    }
    let mut v = parse(text);
    strip(&mut v);
    if let Json::Obj(top) = &mut v {
        for key in LARGE_KEYS {
            top.remove(key);
        }
    }
    v
}

/// The first path at which `a` and `b` differ, or `None` when equal.
/// Array items are named by their `name` field where they have one.
fn first_difference(a: &Json, b: &Json, path: &str) -> Option<String> {
    match (a, b) {
        (Json::Obj(x), Json::Obj(y)) => x.keys().chain(y.keys()).find_map(|k| {
            let at = format!("{path}.{k}");
            match (x.get(k), y.get(k)) {
                (Some(u), Some(v)) => first_difference(u, v, &at),
                _ => Some(format!("{at} is missing on one side")),
            }
        }),
        (Json::Arr(x), Json::Arr(y)) if x.len() == y.len() => {
            x.iter().zip(y).enumerate().find_map(|(i, (u, v))| {
                let label = u.get_str("name").map_or(i.to_string(), String::from);
                first_difference(u, v, &format!("{path}[{label}]"))
            })
        }
        _ if a == b => None,
        _ => Some(format!("{path}: {a:?} vs {b:?}")),
    }
}

fn assert_pinned_eq(want: &str, got: &str, what: &str) {
    if let Some(at) = first_difference(&pinned(want), &pinned(got), "") {
        panic!("{what} differ outside the timing fields at {at}");
    }
}

fn array<'a>(report: &'a Json, key: &str) -> &'a [Json] {
    match report.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn name(record: &Json) -> &str {
    record.get_str("name").expect("record has a name")
}

/// The number at `path` below `v`.
fn num(v: &Json, path: &[&str]) -> f64 {
    let (last, parents) = path.split_last().expect("a path");
    let parent = parents.iter().try_fold(v, |v, key| v.get(key));
    parent
        .and_then(|v| v.get_num(last))
        .unwrap_or_else(|| panic!("no number at {path:?}"))
}

fn assert_strings(report: &Json, fields: &[(&str, &str)]) {
    for &(key, want) in fields {
        assert_eq!(report.get_str(key), Some(want), "`{key}`");
    }
}

/// `metric` summed over the benchmarks both reports cover:
/// `(fresh, committed)`.
fn shared_sums(fresh: &Json, committed: &Json, metric: impl Fn(&Json) -> f64) -> (f64, f64) {
    let committed: BTreeMap<&str, f64> = array(committed, "benchmarks")
        .iter()
        .map(|b| (name(b), metric(b)))
        .collect();
    let shared = array(fresh, "benchmarks")
        .iter()
        .filter_map(|b| Some((metric(b), *committed.get(name(b))?)));
    let (n, f, c) = shared.fold((0, 0.0, 0.0), |(n, f, c), (x, y)| (n + 1, f + x, c + y));
    assert!(n > 0, "no benchmark shared with the committed run");
    (f, c)
}

/// The esat head-to-head: both finals equivalence-verified everywhere,
/// the esat flow never larger than its reference (it extends the
/// reference with monotone passes, so a loss is a bug), strict wins on
/// the functionally redundant alu4 and dalu where they ran, and at
/// least `min_wins` strict wins.
fn check_esat(report: &Json, what: &str, min_wins: usize) {
    let (mut records, mut wins) = (0, 0);
    for b in array(report, "benchmarks") {
        let Some(e) = b.get("esat") else { continue };
        let (n, size, ref_size) = (name(b), num(e, &["size"]), num(e, &["ref_size"]));
        assert_eq!(e.get_bool("equiv"), Some(true), "{what}: {n} equiv");
        assert!(size <= ref_size, "{what}: {n} esat lost");
        if matches!(n, "alu4" | "dalu") {
            assert!(size < ref_size, "{what}: no esat win on {n}");
        }
        records += 1;
        wins += usize::from(size < ref_size);
    }
    assert!(records > 0, "{what} carries no esat head-to-head records");
    assert!(wins >= min_wins, "{what}: {wins} esat win(s)");
}

/// Runs a sweep the way `mighty bench` does, requiring what its exit
/// code 0 requires: every circuit verified, none grown, no pass
/// degraded. Returns the report's JSON text.
fn sweep(config: BenchConfig) -> String {
    let report = run_suite(&config);
    assert!(report.all_ok(), "a circuit failed verification or grew");
    assert!(!report.any_degraded(), "a pass was degraded");
    to_json(&report)
}

#[test]
fn committed_trajectory_is_a_v8_report() {
    let report = parse(COMMITTED);
    assert_strings(
        &report,
        &[
            ("schema", "mig-bench/v8"),
            ("suite", "mcnc14+large4"),
            ("flow", DEFAULT_FLOW),
            ("esat_flow", ESAT_FLOW),
            ("large_flow", LARGE_FLOW),
        ],
    );
    let benchmarks = array(&report, "benchmarks");
    for b in benchmarks {
        for (key, library) in [("mapped", "cmos22"), ("mapped_nomaj", "cmos22-nomaj")] {
            let m = b.get(key).expect(key);
            assert_eq!(m.get_str("library"), Some(library), "{} {key}", name(b));
        }
    }
    for (total, field) in [("esat_size", "size"), ("esat_ref_size", "ref_size")] {
        let sum: f64 = benchmarks.iter().map(|b| num(b, &["esat", field])).sum();
        assert_eq!(num(&report, &["totals", total]), sum, "totals.{total}");
    }
    let large = array(&report, "large");
    assert!(large.iter().any(|l| name(l) == "mul_1m"), "no mul_1m");
    assert!(large
        .iter()
        .all(|l| num(l, &["mem", "peak_rss_bytes"]) >= 0.0));
    check_esat(&report, "BENCH_opt.json", 2);
}

#[test]
fn pinned_comparison_ignores_exactly_the_timing_and_large_fields() {
    // Replaces the value after the first `"key": ` with `value`.
    let edit = |key: &str, value: &str| {
        let at = COMMITTED.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        let end = at + COMMITTED[at..].find([',', '}', '\n']).expect("value ends");
        format!("{}{value}{}", &COMMITTED[..at], &COMMITTED[end..])
    };
    let same = pinned(COMMITTED);
    for (key, value) in [
        ("millis", "1e9"),
        ("total_millis", "0.01"),
        ("ref_millis", "7"),
        ("threads", "4"),
        ("suite", "\"mcnc14\""),
        ("peak_rss_bytes", "1"),
    ] {
        assert!(pinned(&edit(key, value)) == same, "{key} counts");
    }
    let relaid = COMMITTED.replace(",\n", ", ");
    assert!(pinned(&relaid) == same, "the layout counts");
    for (key, value) in [("size", "606"), ("equiv", "false"), ("area", "276.851")] {
        let changed = edit(key, value);
        assert!(pinned(&changed) != same, "{key} does not count");
        let at = first_difference(&same, &pinned(&changed), "").expect("differs");
        assert!(at.starts_with(".benchmarks[C1355]."), "{at}");
    }
}

#[test]
#[ignore = "release-mode sweep; see the module docs"]
fn quick_sweeps_agree_across_threads_and_hold_the_committed_bounds() {
    let [j1, j4] = [1, 4].map(|jobs| {
        let text = sweep(BenchConfig {
            jobs,
            ..BenchConfig::quick()
        });
        let path = format!("{}/BENCH_j{jobs}.json", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&path, &text).expect("write the report artifact");
        assert_strings(&parse(&text), &[("schema", "mig-bench/v8")]);
        text
    });
    // The parallel rewriter's determinism contract.
    assert_pinned_eq(&j1, &j4, "the jobs 1 and jobs 4 sweeps");

    let (fresh, committed) = (parse(&j1), parse(COMMITTED));
    // Quick mode (effort 1) stops the rewrite round loop at the same
    // fixpoint as the committed full mode, so its rewrite time is
    // comparable over the shared benchmarks.
    let rewrite_ms = |b: &Json| -> f64 {
        array(b, "passes")
            .iter()
            .filter(|p| p.get_str("pass") == Some("rewrite"))
            .map(|p| num(p, &["millis"]))
            .sum()
    };
    let (f, c) = shared_sums(&fresh, &committed, rewrite_ms);
    assert!(f <= 1.25 * c, "rewrite {f:.1} > 1.25 x {c:.1} ms");
    // Mapping is deterministic; quick mode's lower effort gets 1% slack.
    for key in ["mapped", "mapped_nomaj"] {
        let (f, c) = shared_sums(&fresh, &committed, |b| num(b, &[key, "area"]));
        assert!(f <= 1.01 * c, "{key} area {f:.3} > 1.01 x {c:.3}");
    }
    let maj = num(&fresh, &["totals", "mapped_area"]);
    let nomaj = num(&fresh, &["totals", "mapped_nomaj_area"]);
    assert!(maj < nomaj, "cmos22 {maj:.3} >= nomaj {nomaj:.3}");
    check_esat(&fresh, "the quick sweep", 1);
}

#[test]
#[ignore = "release-mode sweep; see the module docs"]
fn full_sweep_reproduces_the_committed_trajectory() {
    let text = sweep(BenchConfig {
        jobs: 1,
        ..BenchConfig::full()
    });
    assert_pinned_eq(COMMITTED, &text, "the full sweep and BENCH_opt.json");
}

#[test]
#[ignore = "release-mode sweep; see the module docs"]
fn large_quick_runs_mul_100k_within_its_time_bound() {
    let report = parse(&sweep(BenchConfig {
        suite: "large".into(),
        jobs: 1,
        ..BenchConfig::quick()
    }));
    assert_strings(
        &report,
        &[
            ("schema", "mig-bench/v8"),
            ("suite", "large4"),
            ("large_flow", LARGE_FLOW),
        ],
    );
    let [r] = array(&report, "large") else {
        panic!("expected exactly one large record");
    };
    assert_eq!(name(r), "mul_100k");
    assert_eq!(r.get_bool("equiv"), Some(true), "mul_100k equiv");
    assert_eq!(r.get_bool("size_ok"), Some(true), "mul_100k size_ok");
    assert!(num(r, &["mem", "peak_rss_bytes"]) >= 0.0);
    // ~3 s on the reference machine; an O(n)-per-edit regression would
    // take minutes at 100k nodes.
    let ms = num(r, &["total_millis"]);
    assert!(ms <= 15_000.0, "mul_100k took {ms:.0} ms");
}
