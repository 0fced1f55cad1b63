//! Unit tests of the crate root (the job pipeline and the alias table)
//! and of the `bench` module, kept in one module so every test keeps its
//! `tests::` path.

use mig_core::opt::pipeline::CONVERGE_CAP;
use mig_core::{Flow, MappedMetrics, Objective, PassReport};

use crate::bench::*;
use crate::*;

/// Runs `script` on `net` through [`run_flow_with`] under default options.
fn run(net: &Network, script: &str, effort: usize, rounds: usize) -> OptOutcome {
    let flow = Flow::parse(script).expect(script);
    run_flow_with(net, &flow, effort, rounds, 1, &RunOptions::default())
}

#[test]
fn load_input_resolves_benchmarks_and_rejects_garbage() {
    let net = load_input("alu4").expect("benchmark name resolves");
    assert_eq!(net.num_inputs(), 14);
    let err = load_input("no_such_benchmark_or_file").unwrap_err();
    assert!(err.contains("neither a known benchmark"));
}

#[test]
fn opt_all_improves_and_stays_equivalent() {
    let net = load_input("my_adder").unwrap();
    let o = run(&net, target_flow("all", false).unwrap(), 2, 16);
    assert!(o.mig_equiv, "MIG-level equivalence must hold");
    assert!(o.net_equiv, "network-level equivalence must hold");
    assert!(o.after.size <= o.before.size);
    assert!(o.after.depth <= o.before.depth);
    assert_eq!(o.flow, "size; depth; activity");
    let passes: Vec<&str> = o.stages.iter().map(|s| s.pass.as_str()).collect();
    for expected in ["size", "depth", "activity"] {
        assert!(passes.contains(&expected), "missing pass {expected}");
    }
}

#[test]
fn rewrite_flow_adds_a_stage_and_stays_equivalent() {
    let net = load_input("my_adder").unwrap();
    let plain = run(&net, target_flow("size", false).unwrap(), 1, 16);
    let o = run(&net, target_flow("size", true).unwrap(), 1, 16);
    assert!(o.mig_equiv && o.net_equiv);
    assert_eq!(o.flow, "size; rewrite");
    let passes: Vec<&str> = o.stages.iter().map(|s| s.pass.as_str()).collect();
    assert!(passes.contains(&"rewrite"), "{passes:?}");
    assert!(o.after.size <= plain.after.size, "rewrite must not grow");
}

#[test]
fn custom_flows_run_and_verify() {
    let net = load_input("my_adder").unwrap();
    let o = run(&net, "rewrite; depth_rewrite; size*2", 1, 8);
    assert!(o.mig_equiv && o.net_equiv);
    assert_eq!(o.flow, "rewrite; depth_rewrite; size*2");
    let passes: Vec<&str> = o.stages.iter().map(|s| s.pass.as_str()).collect();
    assert!(passes.ends_with(&["rewrite", "depth_rewrite", "size", "size"]));
}

#[test]
fn report_mentions_every_metric_verdict_and_per_pass_time() {
    let net = load_input("my_adder").unwrap();
    let o = run(&net, "size", 1, 8);
    let r = render_report(&o);
    for needle in [
        "size",
        "Δsize",
        "depth",
        "Δdepth",
        "activity",
        "ms",
        "flow: size",
        "size (Alg. 1)",
        "PASS",
    ] {
        assert!(r.contains(needle), "missing `{needle}` in:\n{r}");
    }
}

#[test]
fn target_parsing_round_trips() {
    for (target, rewrite, script) in TARGET_FLOWS {
        assert_eq!(target_flow(target, rewrite), Ok(script));
    }
    let err = target_flow("speed", false).unwrap_err();
    assert!(
        err.contains("expected size, depth, activity or all"),
        "{err}"
    );
}

#[test]
fn canned_flows_all_parse() {
    for target in ["size", "depth", "activity", "all"] {
        for rewrite in [false, true] {
            let script = target_flow(target, rewrite).unwrap();
            let flow = Flow::parse(script).expect(script);
            assert_eq!(flow.to_string(), script, "canned scripts are canonical");
        }
    }
}

#[test]
fn bench_records_agree_with_the_opt_and_map_drivers() {
    // One pipeline behind every driver: a bench record must carry
    // exactly what `mighty opt` and `mighty map` report for the same
    // circuit, flow and effort.
    let config = BenchConfig {
        names: vec!["my_adder".into(), "alu4".into()],
        jobs: 1,
        esat: false,
        ..BenchConfig::quick()
    };
    let report = run_suite(&config);
    let flow = Flow::parse(DEFAULT_FLOW).unwrap();
    for b in &report.benchmarks {
        let net = load_input(&b.name).unwrap();
        let opts = RunOptions::default();
        let o = run_flow_with(&net, &flow, 1, config.rounds, 1, &opts);
        let stages: Vec<(&str, PassMetrics)> = o
            .stages
            .iter()
            .filter(|s| s.pass != "cleanup")
            .map(|s| (s.pass.as_str(), s.after))
            .collect();
        let passes: Vec<(&str, PassMetrics)> = b
            .passes
            .iter()
            .map(|p| (p.pass.as_str(), p.after))
            .collect();
        assert_eq!(passes, stages, "{}: pass ledger", b.name);
        assert_eq!(b.equiv, o.mig_equiv, "{}", b.name);
        let m = run_map_with(&net, "cmos22", Some(&flow), 1, config.rounds, 1, &opts).unwrap();
        assert_eq!(
            (b.mapped.cells, b.mapped.area, b.mapped.delay),
            (m.mapped.cells, m.mapped.area, m.mapped.delay),
            "{}: mapped record",
            b.name
        );
    }
}

fn tiny_config() -> BenchConfig {
    // The head-to-head doubles the per-benchmark work, so the tests
    // that don't assert on it turn it off (one dedicated test keeps
    // it on).
    BenchConfig {
        names: vec!["my_adder".into(), "count".into()],
        jobs: 1,
        esat: false,
        ..BenchConfig::quick()
    }
}

#[test]
fn suite_runs_and_verifies() {
    let report = run_suite(&tiny_config());
    assert_eq!(report.benchmarks.len(), 2);
    assert_eq!(report.flow, DEFAULT_FLOW);
    assert!(report.all_ok(), "equivalence and size must hold");
    for b in &report.benchmarks {
        assert_eq!(b.passes.len(), 4);
        let names: Vec<&str> = b.passes.iter().map(|p| p.pass.as_str()).collect();
        assert_eq!(names, PASSES);
        let size_pass = b.passes[0].after.size;
        assert!(size_pass <= b.import.size, "Algorithm 1 must not grow");
        let rewrite_pass = b.passes[1].after.size;
        assert!(rewrite_pass <= size_pass, "rewriting must not grow");
    }
}

#[test]
fn custom_flows_drive_the_pass_list() {
    let config = BenchConfig {
        flow: Some("rewrite; size*2".into()),
        ..tiny_config()
    };
    let report = run_suite(&config);
    assert_eq!(report.flow, "rewrite; size*2");
    assert!(report.all_ok());
    for b in &report.benchmarks {
        let names: Vec<&str> = b.passes.iter().map(|p| p.pass.as_str()).collect();
        assert_eq!(names, ["rewrite", "size", "size"]);
    }
}

#[test]
fn json_has_stable_schema_fields() {
    let report = run_suite(&tiny_config());
    let json = to_json(&report);
    for field in [
        "\"schema\": \"mig-bench/v8\"",
        "\"suite\": \"mcnc14\"",
        "\"mode\": \"quick\"",
        "\"flow\": \"size; rewrite; depth; activity\"",
        "\"esat_flow\": ",
        "\"esat_ref_flow\": ",
        "\"threads\": ",
        "\"benchmarks\": [",
        "\"import\":",
        "\"passes\": [",
        "\"pass\": \"size\"",
        "\"pass\": \"rewrite\"",
        "\"pass\": \"depth\"",
        "\"pass\": \"activity\"",
        "\"equiv\": true",
        "\"size_ok\": true",
        "\"mapped\": {\"library\": \"cmos22\"",
        "\"mapped_nomaj\": {\"library\": \"cmos22-nomaj\"",
        "\"totals\": {",
        "\"mapped_area\": ",
        "\"mapped_nomaj_area\": ",
        "\"all_ok\": true",
    ] {
        assert!(json.contains(field), "missing {field} in:\n{json}");
    }
    // An MCNC-only run must carry no machine-volatile large block.
    assert!(!json.contains("\"large\""), "unexpected large block");
    json::Json::parse(&json).expect("valid JSON");
}

#[test]
fn large_tier_records_scaling_evidence() {
    // `suite: large` routes explicit names through the large-tier
    // runner, so a small circuit exercises the whole path (flow,
    // ledger, level counters, memory footprint, JSON block) at unit
    // -test cost; the real 100k–1M circuits run in `mighty bench`.
    let config = BenchConfig {
        names: vec!["my_adder".into()],
        suite: "large".into(),
        jobs: 1,
        esat: false,
        ..BenchConfig::quick()
    };
    let report = run_suite(&config);
    assert!(report.benchmarks.is_empty());
    assert_eq!(report.suite, "large4");
    assert_eq!(report.large_flow, LARGE_FLOW);
    assert_eq!(report.large.len(), 1);
    assert!(report.all_ok());
    let l = &report.large[0];
    assert!(l.equiv && l.size_ok, "large record must verify");
    assert!(l.mem.arena_bytes > 0, "arena footprint sampled");
    assert!(l.mem.strash_slots > 0, "strash footprint sampled");
    let names: Vec<&str> = l.passes.iter().map(|p| p.pass.as_str()).collect();
    assert_eq!(names, ["size", "size", "rewrite", "depth_rewrite", "depth"]);
    let json = to_json(&report);
    for field in [
        "\"suite\": \"large4\"",
        "\"large_flow\": \"size*2; rewrite; depth_rewrite; depth\"",
        "\"large\": [",
        "\"mem\": {\"arena_bytes\": ",
        "\"peak_rss_bytes\": ",
    ] {
        assert!(json.contains(field), "missing {field} in:\n{json}");
    }
    json::Json::parse(&json).expect("valid JSON");
    assert!(render_table(&report).contains("large my_adder"));
}

#[test]
fn all_suite_partitions_explicit_names() {
    let config = BenchConfig {
        names: vec!["my_adder".into(), "count".into()],
        suite: "all".into(),
        jobs: 1,
        esat: false,
        ..BenchConfig::quick()
    };
    // Neither name is in the large tier: both route to MCNC.
    let report = run_suite(&config);
    assert_eq!(report.benchmarks.len(), 2);
    assert!(report.large.is_empty());
    assert_eq!(report.suite, "mcnc14");
}

#[test]
fn esat_head_to_head_verifies_and_never_loses() {
    let config = BenchConfig {
        names: vec!["my_adder".into()],
        jobs: 1,
        esat: true,
        ..BenchConfig::quick()
    };
    let report = run_suite(&config);
    let e = report.benchmarks[0]
        .esat
        .as_ref()
        .expect("head-to-head ran");
    assert!(e.equiv, "both finals must verify against the import");
    assert!(
        e.size <= e.ref_size,
        "the esat flow extends the reference backbone with monotone \
         passes, so it can never end larger ({} > {})",
        e.size,
        e.ref_size
    );
    let json = to_json(&report);
    for field in [
        "\"esat\": {\"size\": ",
        "\"ref_size\": ",
        "\"ref_millis\": ",
        "\"esat_size\": ",
        "\"esat_ref_size\": ",
    ] {
        assert!(json.contains(field), "missing {field} in:\n{json}");
    }
    let (wins, ties, losses) = report.esat_score();
    assert_eq!(losses, 0);
    assert_eq!(wins + ties, 1);
    assert!(render_table(&report).contains("esat head-to-head"));
}

#[test]
fn maj_library_maps_smaller_than_the_control() {
    // The paper's headline mapping claim in miniature: first-class
    // majority cells beat the majority-free control library.
    let report = run_suite(&tiny_config());
    for b in &report.benchmarks {
        assert!(b.mapped.equiv && b.mapped_nomaj.equiv, "{}", b.name);
    }
    assert!(report.mapped_area() < report.mapped_nomaj_area());
}

#[test]
fn quick_mode_skips_the_giants() {
    let names: Vec<String> = mig_benchgen::MCNC_NAMES
        .iter()
        .filter(|n| !QUICK_SKIP.contains(n))
        .map(|n| n.to_string())
        .collect();
    // The quick-mode name resolution run_suite performs, checked
    // without paying for a full run.
    assert_eq!(names.len(), 11);
    assert!(BenchConfig::quick().names.is_empty());
    for skip in QUICK_SKIP {
        assert!(!names.contains(&skip.to_string()));
    }
}

#[test]
fn thread_count_never_changes_results() {
    let mut c1 = tiny_config();
    c1.jobs = 1;
    let mut c4 = tiny_config();
    c4.jobs = 4;
    let r1 = run_suite(&c1);
    let r4 = run_suite(&c4);
    assert_eq!(r1.threads, 1);
    assert_eq!(r4.threads, 4);
    for (a, b) in r1.benchmarks.iter().zip(&r4.benchmarks) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.equiv, b.equiv);
        for (pa, pb) in a.passes.iter().zip(&b.passes) {
            assert_eq!(pa.after.size, pb.after.size, "{} {}", a.name, pa.pass);
            assert_eq!(pa.after.depth, pb.after.depth, "{} {}", a.name, pa.pass);
        }
    }
}

#[test]
fn table_mentions_every_benchmark() {
    let report = run_suite(&tiny_config());
    let table = render_table(&report);
    assert!(table.contains("my_adder"));
    assert!(table.contains("count"));
    assert!(table.contains("PASS"));
}

#[test]
fn mapped_recovery_converges_on_mapped_cost_and_verifies() {
    // `map_area*` / `map_delay*` after a structural prefix: both
    // verdicts pass, the `*` marker stops at the first run that does
    // not improve the mapped cost, and the final mapping is no worse
    // than mapping the prefix's result.
    let map = |net: &Network, script: &str| {
        let flow = Flow::parse(script).expect(script);
        run_map_with(net, "cmos22", Some(&flow), 1, 16, 1, &RunOptions::default())
            .expect("cmos22 maps")
    };
    for circuit in ["alu4", "C1355"] {
        let net = load_input(circuit).unwrap();
        for (prefix, step, goal) in [
            ("size; rewrite", "map_area", Objective::MappedArea),
            ("depth", "map_delay", Objective::MappedDelay),
        ] {
            let o = map(&net, &format!("{prefix}; {step}*"));
            assert!(o.mig_equiv && o.map_equiv, "{circuit} {step}*");
            let runs: Vec<&PassReport> = o.stages.iter().filter(|s| s.pass == step).collect();
            let cost = |m: Option<MappedMetrics>| {
                goal.mapped_cost(&m.expect("a mapped pass's ledger entry carries mapped cost"))
            };
            let (last, improving) = runs.split_last().expect("the step ran");
            for r in improving {
                assert!(
                    cost(r.after.mapped) < cost(r.before.mapped),
                    "{circuit} {step}"
                );
            }
            if runs.len() < CONVERGE_CAP {
                assert!(
                    cost(last.after.mapped) >= cost(last.before.mapped),
                    "{circuit} {step}* must stop at the first non-improving run"
                );
            }
            let plain = map(&net, prefix);
            assert_eq!(
                runs[0].before.mapped,
                Some(plain.mapped),
                "{circuit} {step}"
            );
            assert!(
                goal.mapped_cost(&o.mapped) <= goal.mapped_cost(&plain.mapped),
                "{circuit} {step}* mapped worse than its prefix"
            );
        }
    }
}
