//! Property tests for the flow-script layer: the parser round-trips on
//! generated scripts, and every canned flow (plus randomized ones) is a
//! semantics-preserving transformation on a SplitMix64 netlist corpus,
//! bit-identically for any `--jobs` setting, with the incremental level
//! mirror equal to a from-scratch recomputation after every pass.

use mig_suite::benchgen::{layered_random, RandomLogicParams};
use mig_suite::mig::opt::pipeline::CONVERGE_CAP;
use mig_suite::mig::{Flow, FlowStep, LevelMap, Mig, OptContext, PassKind, Repeat, Signal};
use mig_suite::netlist::SplitMix64;

/// Number of 64-pattern blocks for the random half of equivalence checks.
const ROUNDS: usize = 8;

/// Draws a random flow of 1..=5 steps over all pass kinds and repeat
/// markers from the deterministic generator.
fn random_flow(rng: &mut SplitMix64) -> Flow {
    let n_steps = 1 + (rng.next_u64() % 5) as usize;
    let steps = (0..n_steps)
        .map(|_| {
            let pass = PassKind::ALL[(rng.next_u64() % PassKind::ALL.len() as u64) as usize];
            let repeat = match rng.next_u64() % 4 {
                0 => Repeat::Converge,
                r => Repeat::Times(r as usize),
            };
            FlowStep { pass, repeat }
        })
        .collect();
    Flow { steps }
}

/// Renders `flow` with randomized (but legal) whitespace and explicit
/// `*1` markers, exercising the lenient half of the grammar.
fn sloppy_script(flow: &Flow, rng: &mut SplitMix64) -> String {
    let mut s = String::new();
    for (i, step) in flow.steps.iter().enumerate() {
        if i > 0 {
            s.push(';');
        }
        if rng.next_u64().is_multiple_of(2) {
            s.push_str("  ");
        }
        s.push_str(step.pass.name());
        match step.repeat {
            Repeat::Times(1) if rng.next_u64().is_multiple_of(2) => s.push_str(" * 1"),
            Repeat::Times(1) => {}
            Repeat::Times(n) => s.push_str(&format!(" *{n}")),
            Repeat::Converge => s.push_str(" *"),
        }
        if rng.next_u64().is_multiple_of(2) {
            s.push(' ');
        }
    }
    if rng.next_u64().is_multiple_of(3) {
        s.push(';');
    }
    s
}

#[test]
fn parser_round_trips_on_generated_scripts() {
    let mut rng = SplitMix64::seed_from_u64(0xF10E_5C21_77AB_CDEF);
    for case in 0..200 {
        let flow = random_flow(&mut rng);
        // Canonical rendering parses back to the same flow...
        let canonical = flow.to_string();
        let reparsed = Flow::parse(&canonical).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(reparsed, flow, "case {case}: `{canonical}`");
        // ...and so does a whitespace-mangled, `*1`-explicit rendering.
        let sloppy = sloppy_script(&flow, &mut rng);
        let reparsed = Flow::parse(&sloppy).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(reparsed, flow, "case {case}: `{sloppy}`");
        // Display is a fixpoint: render(parse(render(f))) == render(f).
        assert_eq!(reparsed.to_string(), canonical, "case {case}");
    }
}

/// The corpus: small layered reconvergent netlists in assorted shapes.
fn corpus() -> Vec<Mig> {
    let mut seeds = SplitMix64::seed_from_u64(0xC0FF_EE00_F10E_0001);
    (0..4)
        .map(|case| {
            let p = RandomLogicParams {
                inputs: 8 + (seeds.next_u64() % 10) as usize,
                outputs: 3 + (seeds.next_u64() % 5) as usize,
                gates: 80 + (seeds.next_u64() % 160) as usize,
                layers: 3 + (seeds.next_u64() % 5) as usize,
                seed: seeds.next_u64(),
            };
            Mig::from_network(&layered_random(&format!("flow_rnd{case}"), &p))
        })
        .collect()
}

/// Asserts two MIGs are structurally identical, node for node.
fn assert_bit_identical(a: &Mig, b: &Mig, what: &str) {
    assert_eq!(a.num_nodes(), b.num_nodes(), "{what}: arena sizes differ");
    for node in a.gate_ids() {
        assert_eq!(
            a.children(node),
            b.children(node),
            "{what}: children of {node} differ"
        );
    }
    assert_eq!(a.outputs(), b.outputs(), "{what}: outputs differ");
}

/// Asserts the mirror, freshly bound to `mig`, holds exactly the levels
/// and depth recomputed from the children.
fn assert_levels_exact(mirror: &mut LevelMap, mig: &Mig, what: &str) {
    let mut fresh = vec![0u32; mig.num_nodes()];
    for node in mig.gate_ids() {
        fresh[node.index()] = 1 + mig
            .children(node)
            .iter()
            .map(|s| fresh[s.node().index()])
            .max()
            .expect("three children");
    }
    assert_eq!(mirror.levels(), fresh.as_slice(), "{what}: node levels");
    let depth = mig
        .outputs()
        .iter()
        .map(|&(_, s)| fresh[s.node().index()])
        .max()
        .unwrap_or(0);
    assert_eq!(mirror.depth(mig), depth, "{what}: depth");
}

/// Binds `mirror` to a pass result and checks it, then checks it again
/// after growing a copy of that result. Every pass hands back a
/// compacted arena with a fresh generation, so the first bind is a
/// global resync; appending a chain of majority nodes over the outputs
/// makes the second bind an incremental catch-up on the same real graph.
fn check_mirror_after_pass(mirror: &mut LevelMap, out: &Mig, what: &str) {
    mirror.bind(out);
    assert_levels_exact(mirror, out, what);
    let mut grown = out.clone();
    mirror.bind(&grown);
    let outs: Vec<Signal> = grown.outputs().iter().map(|&(_, s)| s).collect();
    let mut acc = grown.input(0);
    for (i, &o) in outs.iter().enumerate() {
        let x = grown.input((i + 1) % grown.num_inputs());
        acc = grown.maj(acc, !o, x);
    }
    grown.add_output("shadow", acc);
    mirror.bind(&grown);
    assert_levels_exact(mirror, &grown, &format!("{what}, grown"));
}

/// Runs `flow` at effort 1 pass by pass through [`OptContext::run_pass`],
/// exactly as [`Flow::run`] sequences it, and shadow-checks one
/// [`LevelMap`] after every pass.
fn run_with_level_shadow(flow: &Flow, mig: Mig, ctx: &mut OptContext, what: &str) -> Mig {
    let mut mirror = LevelMap::new();
    let mut cur = mig;
    ctx.begin_run();
    for step in &flow.steps {
        let pass = step.pass.build(1);
        let runs = match step.repeat {
            Repeat::Times(n) => n,
            Repeat::Converge => CONVERGE_CAP,
        };
        for run in 0..runs {
            cur = ctx.run_pass(&*pass, cur);
            check_mirror_after_pass(
                &mut mirror,
                &cur,
                &format!("{what}, {} run {run}", step.pass),
            );
            let report = ctx.ledger().last().expect("run_pass appends");
            if step.repeat == Repeat::Converge && !pass.improved(&report.before, &report.after) {
                break;
            }
        }
    }
    cur
}

#[test]
fn canned_and_random_flows_preserve_semantics_at_any_job_count() {
    // Every canned flow `run_opt` compiles legacy targets to, plus 3
    // randomized flows: on the whole corpus the result must stay
    // equivalent to the input and be bit-identical between jobs=1 and
    // jobs=4. The jobs=1 run is stepped pass by pass with the level
    // mirror shadow-checked after every pass.
    let mut scripts: Vec<String> = Vec::new();
    for target in ["size", "depth", "activity", "all"] {
        let t = mig_mighty::OptTarget::parse(target).unwrap();
        for rewrite in [false, true] {
            scripts.push(mig_mighty::flow_for_target(t, rewrite).to_string());
        }
    }
    let mut rng = SplitMix64::seed_from_u64(0x5EED_F10E_5EED_F10E);
    for _ in 0..3 {
        scripts.push(random_flow(&mut rng).to_string());
    }

    let corpus = corpus();
    for script in &scripts {
        let flow = Flow::parse(script).expect(script);
        for (ci, mig) in corpus.iter().enumerate() {
            let base = run_with_level_shadow(
                &flow,
                mig.clone(),
                &mut OptContext::with_jobs(1),
                &format!("`{script}` on circuit {ci}"),
            );
            assert!(
                base.equiv(mig, ROUNDS),
                "`{script}` broke equivalence on corpus circuit {ci}"
            );
            let par = flow.run(mig.clone(), 1, &mut OptContext::with_jobs(4));
            assert_bit_identical(
                &base,
                &par,
                &format!("`{script}` on circuit {ci}, jobs 1 vs 4"),
            );
        }
    }
}

#[test]
fn flow_script_drives_the_cli_pipeline() {
    // End to end through the mighty library (the exact `--flow` path):
    // a flow with repetition and convergence markers verifies on a
    // generated benchmark.
    let net = mig_suite::benchgen::generate("my_adder").unwrap();
    let flow = Flow::parse("rewrite*; size*2; depth_rewrite").unwrap();
    let o = mig_mighty::run_flow(&net, &flow, 1, ROUNDS, 1);
    assert!(o.mig_equiv && o.net_equiv, "flow must verify");
    assert!(o.after.size <= o.before.size);
    assert!(!o.stages.is_empty());
}
