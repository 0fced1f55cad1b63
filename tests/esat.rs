//! Integration: the equality-saturation flow steps over the generated
//! MCNC suite. Every benchmark must stay functionally equivalent through
//! an esat-containing flow that never grows it, and the pass must beat
//! the rewrite fixpoint where the docs say it does. (The extraction
//! guard under hand-set saturation budgets is unit-tested in
//! `mig_core`'s `opt::esat`.)

use mig_suite::benchgen::generate;
use mig_suite::mig::{Budget, Flow, Mig, OptContext};

/// Number of 64-pattern blocks for the random half of equivalence checks.
const ROUNDS: usize = 16;

/// All fourteen MCNC benchmarks of the committed suite.
const SUITE: [&str; 14] = [
    "C1355", "C1908", "C6288", "bigkey", "my_adder", "cla", "dalu", "b9", "count", "alu4", "clma",
    "mm30a", "s38417", "misex3",
];

/// A debug-friendly saturation budget: the release defaults explore
/// 128× the seed, which is measurement-grade but slow without
/// optimizations; node-capped runs exercise exactly the same code
/// paths (seed → saturate → extract → guard).
fn test_budget() -> Budget {
    Budget {
        max_nodes: Some(20_000),
        ..Budget::default()
    }
}

/// Runs the esat flow step over every MCNC benchmark and checks
/// equivalence plus size monotonicity of the full flow.
#[test]
fn esat_flow_is_equivalent_and_monotone_on_the_suite() {
    let flow = Flow::parse("size; rewrite; esat").expect("valid flow");
    for bench in SUITE {
        let net = generate(bench).expect("known benchmark");
        let mig = Mig::from_network(&net);
        let mut ctx = OptContext::with_jobs(1);
        ctx.set_budget(test_budget());
        let out = flow.run(mig.clone(), 2, &mut ctx);
        assert!(
            out.equiv(&mig, ROUNDS),
            "{bench}: esat flow broke equivalence"
        );
        assert!(
            out.size() <= mig.size(),
            "{bench}: esat flow grew the MIG ({} > {})",
            out.size(),
            mig.size()
        );
    }
}

/// The measured size win: on the most functionally redundant circuits
/// of the suite the saturation pass must strictly improve on the
/// rewrite fixpoint (this locks in the benchmark result the docs
/// advertise; see `EXPERIMENTS.md`).
#[test]
fn esat_beats_the_rewrite_fixpoint_on_redundant_circuits() {
    let pre = Flow::parse("size; rewrite*; size").expect("valid flow");
    let post = Flow::parse("esat*; rewrite*; size").expect("valid flow");
    let bench = "alu4";
    let net = generate(bench).expect("known benchmark");
    let mig = Mig::from_network(&net);
    let mut ctx = OptContext::with_jobs(1);
    let fixpoint = pre.run(mig.clone(), 4, &mut ctx);
    let improved = post.run(fixpoint.clone(), 4, &mut ctx);
    assert!(
        improved.equiv(&mig, ROUNDS),
        "{bench}: esat improvement broke equivalence"
    );
    assert!(
        improved.size() < fixpoint.size(),
        "{bench}: esat failed to beat the rewrite fixpoint ({} >= {})",
        improved.size(),
        fixpoint.size()
    );
}
