//! Integration: cut-based Boolean rewriting over the generated MCNC
//! suite. Every benchmark must stay functionally equivalent and never
//! grow, and on the circuits where the algebraic pipeline plateaus the
//! database match must deliver a strict improvement (the measured deltas
//! live in `EXPERIMENTS.md`).

use mig_suite::mig::{Mig, OptContext, PassKind};

/// Number of 64-pattern blocks for the random half of equivalence checks.
const ROUNDS: usize = 16;

/// Runs the built-in pass `kind` on `mig` at `effort` in a fresh
/// context. `Pass::run` calls the optimizer directly, without the
/// rollback wrapper of `OptContext::run_pass`, so a panic fails the test.
fn run(kind: PassKind, mig: &Mig, effort: usize) -> Mig {
    kind.build(effort).run(&mut OptContext::new(), mig.clone())
}

/// Runs the `size` pass then the `rewrite` pass on one benchmark and
/// returns `(import, after_size, after_rewrite)` sizes, asserting
/// equivalence and monotonicity at each stage.
fn sizes_through_pipeline(bench: &str) -> (usize, usize, usize) {
    let net = mig_suite::benchgen::generate(bench).expect("known benchmark");
    let mig = Mig::from_network(&net);
    let import = mig.size();

    let sized = run(PassKind::Size, &mig, 4);
    assert!(
        sized.equiv(&mig, ROUNDS),
        "{bench}: size pass broke equivalence"
    );
    assert!(sized.size() <= import, "{bench}: size pass grew the MIG");

    let rewritten = run(PassKind::Rewrite, &sized, 2);
    assert!(
        rewritten.equiv(&mig, ROUNDS),
        "{bench}: rewrite pass broke equivalence"
    );
    assert!(
        rewritten.size() <= sized.size(),
        "{bench}: rewrite pass grew the MIG ({} > {})",
        rewritten.size(),
        sized.size()
    );
    (import, sized.size(), rewritten.size())
}

#[test]
fn rewrite_is_equivalent_and_monotone_on_the_suite() {
    // A representative slice of the MCNC suite: carry chains, XOR-heavy
    // ECC, PLA control logic, and ALU datapaths (the full 14-benchmark
    // sweep runs in release mode via `mighty bench`).
    for bench in ["my_adder", "count", "alu4", "b9", "cla", "C1355", "dalu"] {
        sizes_through_pipeline(bench);
    }
}

#[test]
fn rewrite_beats_the_algebraic_pipeline_where_it_plateaus() {
    // These circuits are where Algorithm 1 alone gets stuck (0 % or
    // near-0 % size delta, see EXPERIMENTS.md) and Boolean matching
    // against the database finds what algebraic reshaping cannot.
    for bench in ["my_adder", "cla", "alu4", "C1355"] {
        let (_, after_size, after_rewrite) = sizes_through_pipeline(bench);
        assert!(
            after_rewrite < after_size,
            "{bench}: expected a strict gain over the algebraic pipeline \
             ({after_rewrite} !< {after_size})"
        );
    }
}

#[test]
fn rewrite_alone_handles_an_unoptimized_import() {
    // Straight from import (no algebraic pre-pass): still equivalent,
    // still monotone, and the XOR-dominated adder collapses hard.
    let net = mig_suite::benchgen::generate("my_adder").unwrap();
    let mig = Mig::from_network(&net);
    let rewritten = run(PassKind::Rewrite, &mig, 2);
    assert!(rewritten.equiv(&mig, ROUNDS));
    assert!(rewritten.size() < mig.size());
}
