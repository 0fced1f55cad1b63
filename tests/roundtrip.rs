//! Cross-crate integration: generated benchmark → Verilog text → parse →
//! MIG import → optimize → Verilog write → re-parse, asserting simulation
//! equivalence at every hand-off. This is the full pipeline every
//! experiment in `EXPERIMENTS.md` flows through.

use mig_suite::mig::{Mig, OptContext, PassKind};
use mig_suite::netlist::{parse_verilog, write_verilog};
use mig_suite::sim::equivalent;

/// Number of 64-pattern blocks for the random half of equivalence checks.
const ROUNDS: usize = 32;

fn roundtrip(bench: &str) {
    let generated = mig_suite::benchgen::generate(bench).expect("known benchmark");

    // Front end: serialize to structural Verilog and parse it back.
    let text = write_verilog(&generated);
    let parsed = parse_verilog(&text).unwrap_or_else(|e| panic!("{bench}: re-parse failed: {e}"));
    assert_eq!(parsed.name(), generated.name());
    assert!(
        equivalent(&generated, &parsed, ROUNDS),
        "{bench}: Verilog round-trip changed the function"
    );

    // Import into a MIG and optimize for size (Algorithm 1).
    let mig = Mig::from_network(&parsed);
    // `Pass::run` has no rollback wrapper: a panic fails the test.
    let size = PassKind::Size.build(4);
    let opt = size.run(&mut OptContext::new(), mig.clone());
    assert!(
        opt.size() <= mig.size(),
        "{bench}: optimizer must never grow the MIG"
    );

    // Back end: export, write, re-parse, and verify against the original.
    let out_text = write_verilog(&opt.to_network());
    let reparsed =
        parse_verilog(&out_text).unwrap_or_else(|e| panic!("{bench}: output re-parse: {e}"));
    assert!(
        equivalent(&generated, &reparsed, ROUNDS),
        "{bench}: optimized circuit is not equivalent to the generated one"
    );
}

#[test]
fn roundtrip_ripple_adder() {
    roundtrip("my_adder");
}

#[test]
fn roundtrip_alu4() {
    roundtrip("alu4");
}

#[test]
fn roundtrip_xor_heavy_ecc() {
    roundtrip("C1355");
}

#[test]
fn roundtrip_pla_b9() {
    roundtrip("b9");
}

#[test]
fn mighty_pipeline_matches_facade_pipeline() {
    // The CLI driver must agree with the facade-level pipeline.
    let net = mig_suite::benchgen::generate("my_adder").unwrap();
    let flow = mig_core::Flow::parse(mig_mighty::target_flow("size", false).unwrap()).unwrap();
    let outcome = mig_mighty::run_flow_with(&net, &flow, 1, ROUNDS, 1, &Default::default());
    assert!(outcome.mig_equiv && outcome.net_equiv);
    assert!(equivalent(&net, &outcome.optimized, ROUNDS));
}
