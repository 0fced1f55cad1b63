//! Property tests for the flow-script layer: the parser round-trips on
//! generated scripts, and every canned flow (plus randomized ones) is a
//! semantics-preserving transformation on a SplitMix64 netlist corpus,
//! bit-identically for any `--jobs` setting, with the arena's node
//! levels equal to a from-scratch recomputation after every pass. A
//! `pass*n` step stops executing once a run returns its input unchanged
//! and records the remaining repetitions as copies.

use mig_suite::benchgen::{layered_random, RandomLogicParams};
use mig_suite::mig::opt::pipeline::CONVERGE_CAP;
use mig_suite::mig::{
    Budget, Flow, FlowStep, Mig, OptContext, PassKind, PassMetrics, PassOutcome, PassReport,
    Repeat, Signal,
};
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

/// Asserts every arena level of `mig` and its memoized depth equal a
/// from-scratch recomputation from the children.
fn assert_levels_exact(mig: &Mig, what: &str) {
    let mut fresh = vec![0u32; mig.num_nodes()];
    for node in mig.gate_ids() {
        fresh[node.index()] = 1 + mig
            .children(node)
            .iter()
            .map(|s| fresh[s.node().index()])
            .max()
            .expect("three children");
    }
    for node in mig.gate_ids() {
        assert_eq!(
            mig.level_of(node),
            fresh[node.index()],
            "{what}: level of {node}"
        );
    }
    let depth = mig
        .outputs()
        .iter()
        .map(|&(_, s)| fresh[s.node().index()])
        .max()
        .unwrap_or(0);
    assert_eq!(mig.depth(), depth, "{what}: depth");
}

/// Checks the levels of a pass result, then checks them again on a
/// copy grown by a chain of majority nodes over the outputs, so the
/// appended nodes and the stale depth memo are covered too.
fn check_levels_after_pass(out: &Mig, what: &str) {
    assert_levels_exact(out, what);
    let mut grown = out.clone();
    let outs: Vec<Signal> = grown.outputs().iter().map(|&(_, s)| s).collect();
    let mut acc = grown.input(0);
    for (i, &o) in outs.iter().enumerate() {
        let x = grown.input((i + 1) % grown.num_inputs());
        acc = grown.maj(acc, !o, x);
    }
    grown.add_output("shadow", acc);
    assert_levels_exact(&grown, &format!("{what}, grown"));
}

/// Asserts a pass ended [`PassOutcome::Completed`]. Debug builds
/// shadow-check every `RewriteCache` translation inside the rewriting
/// passes; a failed check panics, and the pipeline turns that panic into
/// a rollback, so this is where such a failure surfaces.
fn assert_completed(report: &PassReport, what: &str) {
    assert_eq!(
        report.outcome,
        PassOutcome::Completed,
        "{what}: {}",
        report.note.as_deref().unwrap_or("no note")
    );
}

/// Runs `flow` at effort 1 pass by pass through [`OptContext::run_pass`],
/// exactly as [`Flow::run`] sequences it, and shadow-checks the node
/// levels after every pass.
fn run_with_level_shadow(flow: &Flow, mig: Mig, ctx: &mut OptContext, what: &str) -> Mig {
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
            check_levels_after_pass(&cur, &format!("{what}, {} run {run}", step.pass));
            let report = ctx.ledger().last().expect("run_pass appends");
            assert_completed(report, &format!("{what}, {} run {run}", step.pass));
            if step.repeat == Repeat::Converge && !pass.improved(&report.before, &report.after) {
                break;
            }
        }
    }
    cur
}

#[test]
fn canned_and_random_flows_preserve_semantics_at_any_job_count() {
    // Every flow the legacy `--target`/`--rewrite` aliases resolve to,
    // plus 3 randomized flows: on the whole corpus the result must stay
    // equivalent to the input and be bit-identical between jobs=1 and
    // jobs=4. The jobs=1 run is stepped pass by pass with the node
    // levels shadow-checked after every pass.
    let mut scripts: Vec<String> = mig_mighty::TARGET_FLOWS
        .iter()
        .map(|&(_, _, script)| script.to_string())
        .collect();
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
fn rewrite_cache_translations_pass_their_shadow_check_on_benchmarks() {
    // Three MCNC circuits through the rewrite fixpoint, with every
    // `RewriteCache::translate` shadow-checked (debug builds) against
    // simulation of the new graph.
    let flow = Flow::parse("size; rewrite*").unwrap();
    for name in ["my_adder", "alu4", "C1355"] {
        let mig = Mig::from_network(&mig_suite::benchgen::generate(name).unwrap());
        let mut ctx = OptContext::with_jobs(1);
        let out = flow.run(mig.clone(), 1, &mut ctx);
        for report in ctx.ledger() {
            assert_completed(report, &format!("{name}, {}", report.pass));
        }
        assert!(out.equiv(&mig, ROUNDS), "{name} broke equivalence");
    }
}

#[test]
fn flow_script_drives_the_cli_pipeline() {
    // End to end through the mighty library (the exact `--flow` path):
    // a flow with repetition and convergence markers verifies on a
    // generated benchmark.
    let net = mig_suite::benchgen::generate("my_adder").unwrap();
    let flow = Flow::parse("rewrite*; size*2; depth_rewrite").unwrap();
    let o = mig_mighty::run_flow_with(&net, &flow, 1, ROUNDS, 1, &Default::default());
    assert!(o.mig_equiv && o.net_equiv, "flow must verify");
    assert!(o.after.size <= o.before.size);
    assert!(!o.stages.is_empty());
}

/// Runs `size` on `mig` until a run reports its input as its fixpoint.
fn size_fixpoint(mig: Mig) -> Mig {
    let pass = PassKind::Size.build(1);
    let mut ctx = OptContext::with_jobs(1);
    let mut cur = mig;
    for _ in 0..CONVERGE_CAP {
        cur = ctx.run_pass(&*pass, cur);
        if ctx.ledger().last().expect("run_pass appends").unchanged {
            return cur;
        }
    }
    panic!("size never reached a structural fixpoint");
}

/// The ledger fields a repetition copy shares with the run it copies.
fn non_timing(
    r: &PassReport,
) -> (
    String,
    PassMetrics,
    PassMetrics,
    PassOutcome,
    Option<String>,
    bool,
) {
    (
        r.pass.clone(),
        r.before,
        r.after,
        r.outcome,
        r.note.clone(),
        r.unchanged,
    )
}

#[test]
fn repeat_after_a_fixpoint_run_is_recorded_not_rerun() {
    let fixpoint = size_fixpoint(corpus().swap_remove(0));
    let mut ctx = OptContext::with_jobs(1);
    let mut observed = 0;
    let out = Flow::parse("size*2")
        .unwrap()
        .run_observed(fixpoint.clone(), 1, &mut ctx, |_| observed += 1);
    let ledger = ctx.take_ledger();
    assert_eq!(ledger.len(), 2, "one entry per repetition");
    assert_eq!(observed, 2, "the observer sees the copy too");
    assert!(ledger[0].unchanged);
    assert_eq!(ledger[1].millis, 0.0, "the second repetition never ran");
    assert_eq!(non_timing(&ledger[0]), non_timing(&ledger[1]));
    assert!(out.same_structure(&fixpoint));
}

#[test]
fn repeat_after_a_changing_run_still_executes() {
    for (ci, mut mig) in corpus().into_iter().enumerate() {
        // An extra output M(a, b, M(a, b, c)) = M(a, b, c) that
        // Algorithm 1 folds, so the first run changes the graph.
        let (a, b, c) = (mig.input(0), mig.input(1), mig.input(2));
        let inner = mig.maj(a, b, c);
        let redundant = mig.maj(a, b, inner);
        mig.add_output("redundant", redundant);
        let mut ctx = OptContext::with_jobs(1);
        let flowed = Flow::parse("size*2").unwrap().run(mig.clone(), 1, &mut ctx);
        let ledger = ctx.take_ledger();
        assert!(
            !ledger[0].unchanged,
            "circuit {ci}: size must change the raw import"
        );
        assert!(
            ledger[1].millis > 0.0,
            "circuit {ci}: the second run executed"
        );

        let pass = PassKind::Size.build(1);
        let mut manual_ctx = OptContext::with_jobs(1);
        manual_ctx.begin_run();
        let once = manual_ctx.run_pass(&*pass, mig);
        let manual = manual_ctx.run_pass(&*pass, once);
        assert_bit_identical(&flowed, &manual, &format!("circuit {ci}"));
        let manual_ledger = manual_ctx.take_ledger();
        for (f, m) in ledger.iter().zip(&manual_ledger) {
            assert_eq!(non_timing(f), non_timing(m), "circuit {ci}");
        }
    }
}

#[test]
fn budget_rollbacks_never_count_as_unchanged() {
    // A timed-out run hands back its checkpoint, which is structurally
    // its input; that must not stop the remaining repetitions.
    let fixpoint = size_fixpoint(corpus().swap_remove(1));
    let mut ctx = OptContext::with_jobs(1);
    ctx.set_budget(Budget {
        pass_ms: Some(0),
        ..Budget::default()
    });
    let out = Flow::parse("size*3")
        .unwrap()
        .run(fixpoint.clone(), 1, &mut ctx);
    let ledger = ctx.take_ledger();
    assert_eq!(ledger.len(), 3);
    for r in &ledger {
        assert_eq!(r.outcome, PassOutcome::TimedOut);
        assert!(!r.unchanged);
        assert!(r.millis > 0.0, "every repetition ran");
    }
    assert!(out.same_structure(&fixpoint));

    // A node-cap rollback: the algebraic depth pass trades size for
    // depth on a carry chain, so under a cap below its result it is
    // rolled back (and the checkpoint is again structurally its input).
    let mig = Mig::from_network(&mig_suite::benchgen::generate("my_adder").unwrap());
    let mut ctx = OptContext::with_jobs(1);
    ctx.set_budget(Budget {
        max_nodes: Some(1),
        ..Budget::default()
    });
    Flow::parse("depth*2").unwrap().run(mig, 1, &mut ctx);
    let ledger = ctx.take_ledger();
    assert_eq!(ledger.len(), 2);
    for r in &ledger {
        assert_eq!(r.outcome, PassOutcome::RolledBack, "{:?}", r.note);
        assert!(!r.unchanged);
        assert!(r.millis > 0.0, "every repetition ran");
    }
}
