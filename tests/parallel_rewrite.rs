//! Determinism contract of the parallel-evaluate / serial-commit
//! rewriting engine: the `rewrite` pass must produce **bit-identical**
//! MIGs — same arena, node for node — whatever the `jobs` setting,
//! because candidate preparation is read-only over an immutable
//! snapshot and commits are serialized deterministically. The same
//! holds for `esat` and `depth_esat`, whose depth-rewrite seed runs on
//! the context's workers.

use mig_suite::benchgen::{generate, layered_random, RandomLogicParams};
use mig_suite::mig::{Budget, Mig, OptContext, PassKind};
use mig_suite::netlist::SplitMix64;

/// Asserts two MIGs are structurally identical: node counts, per-node
/// children arrays (complement bits included), levels, and outputs.
fn assert_bit_identical(a: &Mig, b: &Mig, what: &str) {
    assert_eq!(a.num_nodes(), b.num_nodes(), "{what}: arena sizes differ");
    assert_eq!(a.num_inputs(), b.num_inputs(), "{what}: inputs differ");
    for node in a.gate_ids() {
        assert_eq!(
            a.children(node),
            b.children(node),
            "{what}: children of {node} differ"
        );
        assert_eq!(
            a.level_of(node),
            b.level_of(node),
            "{what}: level of {node} differs"
        );
    }
    assert_eq!(a.outputs(), b.outputs(), "{what}: outputs differ");
    assert_eq!(a.size(), b.size(), "{what}: sizes differ");
    assert_eq!(a.depth(), b.depth(), "{what}: depths differ");
}

fn run_with_jobs(kind: PassKind, mig: &Mig, jobs: usize) -> Mig {
    let mut ctx = OptContext::with_jobs(jobs);
    // Caps the e-graph so saturation stays fast in debug builds.
    ctx.set_budget(Budget {
        max_nodes: Some(4_000),
        ..Budget::default()
    });
    // `Pass::run` has no rollback wrapper: a panic fails the test
    // instead of handing back the unchanged input at every `jobs`.
    kind.build(2).run(&mut ctx, mig.clone())
}

fn rewrite_with_jobs(mig: &Mig, jobs: usize) -> Mig {
    run_with_jobs(PassKind::Rewrite, mig, jobs)
}

#[test]
fn jobs_1_and_4_are_bit_identical_on_the_random_corpus() {
    // A SplitMix64-seeded corpus of layered reconvergent netlists at
    // assorted shapes; every one must optimize to the same graph at any
    // worker count, and the result must stay functionally equivalent.
    let mut seeds = SplitMix64::seed_from_u64(0xDE7E_2217_15E0_C0DE);
    for case in 0..6 {
        let p = RandomLogicParams {
            inputs: 12 + (seeds.next_u64() % 20) as usize,
            outputs: 4 + (seeds.next_u64() % 8) as usize,
            gates: 150 + (seeds.next_u64() % 350) as usize,
            layers: 4 + (seeds.next_u64() % 6) as usize,
            seed: seeds.next_u64(),
        };
        let net = layered_random(&format!("rnd{case}"), &p);
        let mig = Mig::from_network(&net);
        let base = rewrite_with_jobs(&mig, 1);
        assert!(
            base.equiv(&mig, 8),
            "case {case}: rewrite broke equivalence"
        );
        assert!(base.size() <= mig.size(), "case {case}: rewrite grew");
        for jobs in [2, 4] {
            let other = rewrite_with_jobs(&mig, jobs);
            assert_bit_identical(&base, &other, &format!("case {case}, jobs {jobs}"));
        }
    }
}

#[test]
fn jobs_1_and_4_are_bit_identical_on_mcnc_circuits() {
    // Real benchmark structure (XOR trees, carry chains, PLA control)
    // exercises the wavefront chunking harder than random logic.
    for bench in ["my_adder", "cla", "alu4", "C1908"] {
        let net = generate(bench).expect("known benchmark");
        let mig = Mig::from_network(&net);
        let base = rewrite_with_jobs(&mig, 1);
        let par = rewrite_with_jobs(&mig, 4);
        assert_bit_identical(&base, &par, bench);
        assert!(base.equiv(&mig, 8), "{bench}: equivalence");
    }
}

#[test]
fn esat_steps_are_bit_identical_across_jobs() {
    for bench in ["count", "my_adder"] {
        let mig = Mig::from_network(&generate(bench).expect("known benchmark"));
        for kind in [PassKind::Esat, PassKind::DepthEsat] {
            let base = run_with_jobs(kind, &mig, 1);
            let par = run_with_jobs(kind, &mig, 4);
            assert_bit_identical(&base, &par, &format!("{bench} {kind}"));
            assert!(base.equiv(&mig, 8), "{bench} {kind}: equivalence");
        }
    }
}
