//! Simulation-based equivalence checking.

use crate::simulate::simulate_batch;
use mig_netlist::{Network, SplitMix64};
use mig_tt::TruthTable;

/// Words per simulation pass: both the exhaustive and the random checks
/// evaluate 4 × 64 = 256 patterns per topological traversal, so the
/// per-gate dispatch cost is amortized across the batch while the
/// per-gate value buffer (32 bytes a gate) stays smaller than the
/// network itself (checking the 400k-node `alu_400k` at 8 words per
/// pass raised peak memory by 24 MB). Runs whose pattern count is not a
/// multiple of the batch width pass the tail as a smaller batch.
const BATCH_WORDS: usize = 4;

/// Exact truth tables of every output (inputs ≤ 16).
///
/// # Panics
///
/// Panics if the network has more than 16 inputs.
pub fn output_truth_tables(net: &Network) -> Vec<TruthTable> {
    let n = net.num_inputs();
    assert!(n <= 16, "exhaustive simulation limited to 16 inputs");
    let total = 1usize << n;
    let total_words = total.div_ceil(64);
    let mut tables = vec![TruthTable::zeros(n); net.num_outputs()];
    let mut buf = Vec::new();
    for wbase in (0..total_words).step_by(BATCH_WORDS) {
        let w = BATCH_WORDS.min(total_words - wbase);
        buf.clear();
        for v in 0..n {
            for j in 0..w {
                let base = (wbase + j) * 64;
                let chunk = 64.min(total - base);
                let mut word = 0u64;
                for b in 0..chunk {
                    if ((base + b) >> v) & 1 == 1 {
                        word |= 1 << b;
                    }
                }
                buf.push(word);
            }
        }
        let outs = simulate_batch(net, &buf, w);
        for o in 0..net.num_outputs() {
            for j in 0..w {
                let base = (wbase + j) * 64;
                let chunk = 64.min(total - base);
                let word = outs[o * w + j];
                for b in 0..chunk {
                    if (word >> b) & 1 == 1 {
                        tables[o].set_bit(base + b, true);
                    }
                }
            }
        }
    }
    tables
}

/// Exhaustive equivalence check (inputs ≤ 16). Exact.
///
/// # Panics
///
/// Panics if interfaces differ or either network has more than 16 inputs.
pub fn equivalent_exhaustive(a: &Network, b: &Network) -> bool {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input counts differ");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output counts differ");
    output_truth_tables(a) == output_truth_tables(b)
}

/// SplitMix64 seed of the random half of [`equivalent`].
const SEED: u64 = 0x5EED_CAFE;

/// Random equivalence check with `64 × rounds` patterns drawn from
/// `seed` (deterministic). Can only disprove equivalence. A caller that
/// checks the same pair again, or beside [`equivalent`], passes its own
/// seed to test different patterns.
///
/// # Panics
///
/// Panics if interfaces differ.
pub fn equivalent_seeded(a: &Network, b: &Network, rounds: usize, seed: u64) -> bool {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input counts differ");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output counts differ");
    random_signatures(a, rounds, seed) == random_signatures(b, rounds, seed)
}

/// The output words of `net` under `64 × rounds` SplitMix64 patterns
/// drawn from `seed`. Two networks with the same interface agree on
/// those patterns exactly when their signatures are equal, so a caller
/// can reduce one network to its signature and drop it before building
/// the other.
pub fn random_signatures(net: &Network, rounds: usize, seed: u64) -> Vec<u64> {
    let n = net.num_inputs();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut buf = vec![0u64; n * BATCH_WORDS];
    let mut signatures = Vec::with_capacity(net.num_outputs() * rounds);
    let mut done = 0usize;
    while done < rounds {
        let w = BATCH_WORDS.min(rounds - done);
        // Keep the historical stream order (round-major: each round
        // draws one word per input), so the patterns tested are exactly
        // those of the old one-round-per-pass implementation.
        for j in 0..w {
            for i in 0..n {
                buf[i * w + j] = rng.next_u64();
            }
        }
        signatures.extend(simulate_batch(net, &buf[..n * w], w));
        done += w;
    }
    signatures
}

/// Equivalence check: exhaustive when feasible, random otherwise.
pub fn equivalent(a: &Network, b: &Network, rounds: usize) -> bool {
    if a.num_inputs() <= 16 {
        equivalent_exhaustive(a, b)
    } else {
        equivalent_seeded(a, b, rounds, SEED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mig_netlist::parse_verilog;

    #[test]
    fn truth_tables_match_eval() {
        let net = parse_verilog(
            "module t(a,b,c,y); input a,b,c; output y;\n\
             assign y = maj(a, b, c); endmodule",
        )
        .expect("parses");
        let tts = output_truth_tables(&net);
        assert_eq!(tts[0].as_u64(), 0xE8);
    }

    #[test]
    fn exhaustive_catches_single_minterm_difference() {
        let a = parse_verilog(
            "module t(x0,x1,x2,x3,y); input x0,x1,x2,x3; output y;\n\
             assign y = x0 & x1 & x2 & x3; endmodule",
        )
        .expect("parses");
        let b = parse_verilog(
            "module t(x0,x1,x2,x3,y); input x0,x1,x2,x3; output y;\n\
             assign y = x0 & x1 & x2 & x3 & (x0 | x1); endmodule",
        )
        .expect("parses");
        assert!(equivalent_exhaustive(&a, &b), "actually equal functions");
        let c = parse_verilog(
            "module t(x0,x1,x2,x3,y); input x0,x1,x2,x3; output y;\n\
             assign y = x0 & x1 & x2; endmodule",
        )
        .expect("parses");
        assert!(!equivalent_exhaustive(&a, &c));
    }

    #[test]
    fn equivalent_rewritings_agree() {
        let n1 = parse_verilog(
            "module t(a,b,c,y); input a,b,c; output y;\n\
             assign y = (a & b) | (a & c); endmodule",
        )
        .expect("parses");
        let n2 = parse_verilog(
            "module t(a,b,c,y); input a,b,c; output y;\n\
             assign y = a & (b | c); endmodule",
        )
        .expect("parses");
        assert!(equivalent_exhaustive(&n1, &n2));
        assert!(equivalent_seeded(&n1, &n2, 4, SEED));
    }

    #[test]
    fn different_functions_rejected() {
        let n1 = parse_verilog("module t(a,b,y); input a,b; output y; assign y = a & b; endmodule")
            .expect("parses");
        let n2 = parse_verilog("module t(a,b,y); input a,b; output y; assign y = a | b; endmodule")
            .expect("parses");
        assert!(!equivalent_exhaustive(&n1, &n2));
        assert!(!equivalent_seeded(&n1, &n2, 4, SEED));
    }

    #[test]
    fn multi_output_checked_positionally() {
        let n1 = parse_verilog(
            "module t(a,b,y,z); input a,b; output y,z;\n\
             assign y = a ^ b; assign z = a & b; endmodule",
        )
        .expect("parses");
        let n2 = parse_verilog(
            "module t(a,b,y,z); input a,b; output y,z;\n\
             assign y = (a & ~b) | (~a & b); assign z = ~(~a | ~b); endmodule",
        )
        .expect("parses");
        assert!(equivalent_exhaustive(&n1, &n2));
        // Swapped outputs are not equivalent positionally.
        let n3 = parse_verilog(
            "module t(a,b,y,z); input a,b; output y,z;\n\
             assign z = a ^ b; assign y = a & b; endmodule",
        )
        .expect("parses");
        assert!(!equivalent_exhaustive(&n1, &n3));
        assert!(!equivalent_seeded(&n1, &n3, 4, SEED));
    }

    /// The pre-batching implementation: one 64-pattern word per input
    /// per round, one topological pass per round.
    fn reference_random(a: &Network, b: &Network, rounds: usize) -> bool {
        let mut rng = SplitMix64::seed_from_u64(SEED);
        for _ in 0..rounds {
            let words: Vec<u64> = (0..a.num_inputs()).map(|_| rng.next_u64()).collect();
            if crate::simulate(a, &words) != crate::simulate(b, &words) {
                return false;
            }
        }
        true
    }

    #[test]
    fn batched_random_check_matches_reference_incl_tails() {
        // 18 inputs keep `equivalent` on the random path; the pair
        // below is NOT equivalent (an 18-input AND vs one missing a
        // fanin), and a same-network pair is.
        let mut decl = String::new();
        for i in 0..18 {
            decl.push_str(&format!("x{i}{}", if i == 17 { "" } else { "," }));
        }
        let full = parse_verilog(&format!(
            "module t({decl},y); input {decl}; output y;\n\
             assign y = x0 {}; endmodule",
            (1..18).map(|i| format!("& x{i}")).collect::<String>()
        ))
        .expect("parses");
        let partial = parse_verilog(&format!(
            "module t({decl},y); input {decl}; output y;\n\
             assign y = x0 {}; endmodule",
            (1..17).map(|i| format!("& x{i}")).collect::<String>()
        ))
        .expect("parses");
        // Round counts straddling the 4-word batch width: below it, at
        // a multiple of it, and with 3- and 1-word tails.
        for rounds in [1, 3, 8, 11, 17] {
            assert_eq!(
                equivalent_seeded(&full, &full.sweep(), rounds, SEED),
                reference_random(&full, &full.sweep(), rounds),
                "equal pair, rounds={rounds}"
            );
            assert_eq!(
                equivalent_seeded(&full, &partial, rounds, SEED),
                reference_random(&full, &partial, rounds),
                "unequal pair, rounds={rounds}"
            );
        }
    }

    #[test]
    fn exhaustive_small_inputs_use_the_tail_batch() {
        // 3 inputs = 8 patterns: a single sub-64-bit word, the smallest
        // tail the 256-pattern batching must still handle exactly.
        let net = parse_verilog(
            "module t(a,b,c,y); input a,b,c; output y;\n\
             assign y = (a & b) | c; endmodule",
        )
        .expect("parses");
        let tts = output_truth_tables(&net);
        for row in 0..8usize {
            let (a, b, c) = (row & 1 == 1, row & 2 == 2, row & 4 == 4);
            assert_eq!(tts[0].get_bit(row), (a && b) || c, "row {row}");
        }
    }

    #[test]
    fn random_check_on_wide_circuit() {
        // 20 inputs exercise the random path through `equivalent`.
        let mut src = String::from("module t(");
        for i in 0..20 {
            src.push_str(&format!("x{i},"));
        }
        src.push_str("y); input ");
        for i in 0..20 {
            src.push_str(&format!("x{i}{}", if i == 19 { ";" } else { "," }));
        }
        src.push_str(" output y; assign y = x0");
        for i in 1..20 {
            src.push_str(&format!(" ^ x{i}"));
        }
        src.push_str("; endmodule");
        let net = parse_verilog(&src).expect("parses");
        assert!(equivalent(&net, &net.sweep(), 8));
    }
}
