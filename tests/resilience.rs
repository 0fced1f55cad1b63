//! Resilience tests for the pass manager: checkpoint/rollback on pass
//! panics, budget enforcement (deadline, per-pass timeout, node cap),
//! post-pass simulation spot checks, and cache coherence after a
//! rollback (a subsequent clean pass must match a from-scratch run
//! bit-for-bit).
//!
//! The `fault_injection` module at the bottom additionally drives canned
//! flows under the deterministic fault-injection harness; it only exists
//! when the `faultpoints` feature is armed:
//!
//! ```text
//! cargo test -p mig-suite --features faultpoints --test resilience
//! ```

use std::sync::Mutex;

use mig_suite::benchgen::{generate, layered_random, RandomLogicParams};
use mig_suite::mig::{Budget, Flow, Mig, OptContext, Pass, PassKind, PassOutcome};
use mig_suite::netlist::SplitMix64;

/// Number of 64-pattern blocks for the random half of equivalence checks.
const ROUNDS: usize = 8;

/// Serializes every test in this binary. Needed because the
/// fault-injection plan (under `--features faultpoints`) is process
/// global: a wildcard panic plan configured by one test must never leak
/// into a concurrently running rollback test.
static GATE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A panicking test poisons the mutex; later tests only need mutual
    // exclusion, not the poison signal.
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Asserts `a` and `b` are structurally identical arenas: same node
/// count, same fanins on every gate, same outputs.
fn assert_same_mig(a: &Mig, b: &Mig) {
    assert_eq!(a.num_nodes(), b.num_nodes(), "node counts differ");
    assert_eq!(a.num_inputs(), b.num_inputs());
    assert_eq!(a.outputs(), b.outputs(), "outputs differ");
    for id in a.gate_ids() {
        assert_eq!(a.children(id), b.children(id), "fanins of {id:?} differ");
    }
}

fn count_mig() -> Mig {
    Mig::from_network(&generate("count").expect("known benchmark")).cleanup()
}

/// A pass that always panics mid-flight.
#[derive(Debug)]
struct PanicPass;

impl Pass for PanicPass {
    fn name(&self) -> &'static str {
        "panic_test"
    }

    fn run(&self, _ctx: &mut OptContext, _mig: Mig) -> Mig {
        panic!("synthetic pass failure");
    }
}

/// A pass that returns a well-formed but functionally wrong MIG (it
/// complements the first primary output).
#[derive(Debug)]
struct CorruptPass;

impl Pass for CorruptPass {
    fn name(&self) -> &'static str {
        "corrupt_test"
    }

    fn run(&self, _ctx: &mut OptContext, mut mig: Mig) -> Mig {
        let flipped = mig.outputs()[0].1.complement_if(true);
        mig.set_output(0, flipped);
        mig
    }
}

/// A pass that burns wall-clock time and returns its input unchanged.
#[derive(Debug)]
struct SlowPass;

impl Pass for SlowPass {
    fn name(&self) -> &'static str {
        "slow_test"
    }

    fn run(&self, _ctx: &mut OptContext, mig: Mig) -> Mig {
        std::thread::sleep(std::time::Duration::from_millis(30));
        mig
    }
}

#[test]
fn panicking_pass_rolls_back_bit_identically() {
    let _g = lock();
    let mig = count_mig();
    let snapshot = mig.clone();
    let mut ctx = OptContext::with_jobs(1);
    let out = ctx.run_pass(&PanicPass, mig);
    assert_same_mig(&out, &snapshot);
    let ledger = ctx.take_ledger();
    assert_eq!(ledger.len(), 1);
    assert_eq!(ledger[0].outcome, PassOutcome::RolledBack);
    let note = ledger[0].note.as_deref().expect("rollback carries a note");
    assert!(note.contains("panicked"), "{note}");
    assert!(note.contains("synthetic pass failure"), "{note}");
}

#[test]
fn node_cap_rolls_back_a_growing_pass() {
    let _g = lock();
    // The depth pass trades size for depth on `count` (it grows the
    // graph), so a cap at the input size must roll it back.
    let mig = count_mig();
    let snapshot = mig.clone();
    let mut ctx = OptContext::with_jobs(1);
    ctx.set_budget(Budget {
        max_nodes: Some(mig.size()),
        ..Budget::unlimited()
    });
    let out = ctx.run_pass(&*PassKind::Depth.build(6), mig);
    assert_same_mig(&out, &snapshot);
    let ledger = ctx.take_ledger();
    assert_eq!(ledger[0].outcome, PassOutcome::RolledBack);
    assert!(
        ledger[0].note.as_deref().unwrap_or("").contains("node cap"),
        "{:?}",
        ledger[0].note
    );
}

#[test]
fn exhausted_deadline_skips_every_pass() {
    let _g = lock();
    let mig = count_mig();
    let snapshot = mig.clone();
    let mut ctx = OptContext::with_jobs(1);
    ctx.set_budget(Budget {
        total_ms: Some(0),
        ..Budget::unlimited()
    });
    let flow = Flow::parse("size; rewrite; depth").unwrap();
    let out = flow.run(mig, 2, &mut ctx);
    assert_same_mig(&out, &snapshot);
    let ledger = ctx.take_ledger();
    assert_eq!(ledger.len(), 3);
    for report in &ledger {
        assert_eq!(report.outcome, PassOutcome::Skipped, "{}", report.pass);
        assert_eq!(report.before.size, report.after.size);
    }
}

#[test]
fn per_pass_timeout_rolls_back_slow_passes() {
    let _g = lock();
    let mig = count_mig();
    let snapshot = mig.clone();
    let mut ctx = OptContext::with_jobs(1);
    ctx.set_budget(Budget {
        pass_ms: Some(1),
        ..Budget::unlimited()
    });
    let out = ctx.run_pass(&SlowPass, mig);
    assert_same_mig(&out, &snapshot);
    let ledger = ctx.take_ledger();
    assert_eq!(ledger[0].outcome, PassOutcome::TimedOut);
}

#[test]
fn spot_check_rejects_a_corrupting_pass() {
    let _g = lock();
    let mig = count_mig();
    let snapshot = mig.clone();
    let mut ctx = OptContext::with_jobs(1);
    ctx.set_spot_check(ROUNDS);
    let out = ctx.run_pass(&CorruptPass, mig);
    assert_same_mig(&out, &snapshot);
    let ledger = ctx.take_ledger();
    assert_eq!(ledger[0].outcome, PassOutcome::RolledBack);
    assert!(
        ledger[0]
            .note
            .as_deref()
            .unwrap_or("")
            .contains("spot check"),
        "{:?}",
        ledger[0].note
    );
    // An honest pass under the same spot check sails through.
    let out2 = ctx.run_pass(&*PassKind::Size.build(4), out);
    assert_eq!(ctx.take_ledger()[0].outcome, PassOutcome::Completed);
    assert!(out2.equiv(&snapshot, ROUNDS));
}

/// Cache-coherence property: warming the rewrite cache, suffering a
/// rolled-back pass, then rewriting again must produce bit-identical
/// results to the same flow without the failed pass — over a SplitMix64
/// corpus of random netlists.
#[test]
fn clean_pass_after_rollback_matches_from_scratch() {
    let _g = lock();
    let mut rng = SplitMix64::seed_from_u64(0x0DD5_EED5_0F57_A7E5);
    let rewrite = PassKind::Rewrite.build(2);
    for case in 0..6 {
        let params = RandomLogicParams {
            inputs: 6 + (rng.next_u64() % 4) as usize,
            outputs: 2 + (rng.next_u64() % 3) as usize,
            gates: 40 + (rng.next_u64() % 80) as usize,
            layers: 3 + (rng.next_u64() % 3) as usize,
            seed: rng.next_u64(),
        };
        let name = format!("rnd{case}");
        let mig = Mig::from_network(&layered_random(&name, &params)).cleanup();

        // Faulty trajectory: rewrite, panicking pass (rolled back),
        // corrupting pass (rolled back by the spot check), rewrite.
        let mut faulty = OptContext::with_jobs(1);
        faulty.set_spot_check(ROUNDS);
        let mut cur = faulty.run_pass(&*rewrite, mig.clone());
        cur = faulty.run_pass(&PanicPass, cur);
        cur = faulty.run_pass(&CorruptPass, cur);
        let from_faulty = faulty.run_pass(&*rewrite, cur);
        let outcomes: Vec<PassOutcome> = faulty.take_ledger().iter().map(|r| r.outcome).collect();
        assert_eq!(
            outcomes,
            [
                PassOutcome::Completed,
                PassOutcome::RolledBack,
                PassOutcome::RolledBack,
                PassOutcome::Completed
            ],
            "case {case}"
        );

        // Clean trajectory: the same two rewrites, nothing in between.
        let mut clean = OptContext::with_jobs(1);
        let cur = clean.run_pass(&*rewrite, mig.clone());
        let from_clean = clean.run_pass(&*rewrite, cur);

        assert_same_mig(&from_faulty, &from_clean);
        assert!(from_faulty.equiv(&mig, ROUNDS), "case {case}");
    }
}

#[cfg(feature = "faultpoints")]
mod fault_injection {
    use super::*;
    use mig_suite::mig::faultpoint;

    /// Runs `flow` on `name` with faults per `plan`, asserting the run
    /// terminates and the result is equivalent to the import. Returns
    /// the ledger outcomes.
    fn run_under_faults(
        name: &str,
        script: &str,
        plan: &str,
        selfcheck: bool,
    ) -> (Vec<PassOutcome>, u64) {
        faultpoint::configure(plan).expect("valid plan");
        let mig = Mig::from_network(&generate(name).expect("known benchmark")).cleanup();
        let mut ctx = OptContext::with_jobs(2);
        if selfcheck {
            ctx.set_spot_check(ROUNDS);
        }
        let flow = Flow::parse(script).unwrap();
        let out = flow.run(mig.clone(), 2, &mut ctx);
        let trips = faultpoint::total_trips();
        faultpoint::clear();
        assert!(
            out.equiv(&mig, ROUNDS),
            "{name} under `{plan}` lost equivalence"
        );
        (ctx.take_ledger().iter().map(|r| r.outcome).collect(), trips)
    }

    #[test]
    fn injected_commit_panic_degrades_gracefully() {
        let _g = lock();
        let (outcomes, trips) = run_under_faults(
            "count",
            "size; rewrite; depth",
            "rewrite.commit:panic:1:3",
            false,
        );
        assert!(trips > 0, "plan never tripped");
        assert!(outcomes.contains(&PassOutcome::RolledBack), "{outcomes:?}");
    }

    #[test]
    fn injected_enumeration_panic_degrades_gracefully() {
        let _g = lock();
        let (_outcomes, trips) = run_under_faults(
            "my_adder",
            "size; rewrite; depth; activity",
            "rewrite.enumerate:panic:2:11",
            false,
        );
        assert!(trips > 0, "plan never tripped");
    }

    #[test]
    fn injected_npn_worker_panic_forfeits_only_candidates() {
        let _g = lock();
        // Worker panics in the parallel evaluate phase are contained per
        // worker: the pass still completes (or rolls back) and the flow
        // ends equivalent.
        let (_outcomes, trips) =
            run_under_faults("count", "rewrite*2", "rewrite.npn:panic:40:7", true);
        assert!(trips > 0, "plan never tripped");
    }

    #[test]
    fn injected_truthtable_corruption_is_caught_by_the_selfcheck() {
        let _g = lock();
        let (outcomes, trips) =
            run_under_faults("count", "rewrite", "rewrite.commit.tt:corrupt:2:13", true);
        assert!(trips > 0, "plan never tripped");
        // Consistent corruption commits a functionally wrong candidate;
        // the simulation spot check must reject the pass.
        assert_eq!(outcomes, [PassOutcome::RolledBack], "{outcomes:?}");
    }

    #[test]
    fn wildcard_panics_never_abort_a_canned_flow() {
        let _g = lock();
        for (name, one_in) in [("my_adder", 17), ("count", 29)] {
            let plan = format!("*:panic:{one_in}:99");
            let (outcomes, _trips) =
                run_under_faults(name, "size; rewrite; depth; activity", &plan, true);
            assert!(!outcomes.is_empty());
        }
    }

    #[test]
    fn injected_egraph_merge_panic_degrades_gracefully() {
        let _g = lock();
        // The `esat.merge` site sits inside the e-graph's union loop —
        // a panic there unwinds with the arena in a half-merged state,
        // so the only acceptable recovery is the pass manager's
        // checkpoint rollback (verified by run_under_faults' terminal
        // equivalence assertion).
        let (outcomes, trips) = run_under_faults(
            "count",
            "size; esat; rewrite",
            "esat.merge:panic:1:3",
            false,
        );
        assert!(trips > 0, "plan never tripped");
        assert!(outcomes.contains(&PassOutcome::RolledBack), "{outcomes:?}");
    }

    #[test]
    fn probabilistic_egraph_merge_panics_keep_esat_flows_equivalent() {
        let _g = lock();
        // Rarer faults let saturation make real progress before the
        // unwind; whatever mix of completions and rollbacks results,
        // the flow must terminate equivalent (asserted inside).
        let (outcomes, trips) = run_under_faults(
            "my_adder",
            "size; esat*2; rewrite",
            "esat.merge:panic:200:7",
            true,
        );
        assert!(trips > 0, "plan never tripped");
        assert!(!outcomes.is_empty());
    }

    #[test]
    fn zero_fault_runs_are_bit_identical() {
        let _g = lock();
        faultpoint::clear();
        let mig = count_mig();
        let flow = Flow::parse("size; rewrite; depth").unwrap();
        let mut ctx1 = OptContext::with_jobs(2);
        let out1 = flow.run(mig.clone(), 2, &mut ctx1);
        let outcomes1: Vec<PassOutcome> = ctx1.take_ledger().iter().map(|r| r.outcome).collect();
        let mut ctx2 = OptContext::with_jobs(2);
        let out2 = flow.run(mig, 2, &mut ctx2);
        assert_same_mig(&out1, &out2);
        assert!(outcomes1.iter().all(|o| *o == PassOutcome::Completed));
        assert_eq!(faultpoint::total_trips(), 0);
    }
}
