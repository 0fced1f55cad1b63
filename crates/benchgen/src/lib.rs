//! # MCNC-style benchmark circuit generators
//!
//! The MCNC benchmark suite used by the paper's evaluation is not
//! redistributable, so this crate provides deterministic generators that
//! reproduce each circuit's *role*: the same primary-input/output counts,
//! the same structural character (XOR-dominated ECC, array multiplier,
//! carry chains, PLAs, wide random control logic) and a comparable scale.
//! Optimization algorithms only see DAG structure, so these stand-ins
//! exercise the same code paths as the originals; see `DESIGN.md` §3 for
//! the substitution rationale.
//!
//! # Example
//!
//! ```
//! use mig_benchgen::{generate, MCNC_NAMES};
//!
//! let net = generate("alu4").expect("known benchmark");
//! assert_eq!(net.num_inputs(), 14);
//! assert_eq!(net.num_outputs(), 8);
//! assert_eq!(MCNC_NAMES.len(), 14);
//! ```

mod alu;
mod arith;
mod compression;
mod ecc;
mod large;
mod minmax;
mod pla;
mod random_logic;

pub use alu::{alu4, dalu};
pub use arith::{cla_adder, counter, multiplier, ripple_adder};
pub use compression::{compression_circuit, PATTERN_BITS};
pub use ecc::{ecc_c1355, ecc_c1908};
pub use large::{alu_stack, ecc_chain, wide_multiplier};
pub use minmax::minmax;
pub use pla::{b9, misex3, seeded_pla, PlaParams};
pub use random_logic::{bigkey, clma, layered_random, s38417, RandomLogicParams};

use mig_netlist::Network;

/// The 14 MCNC circuits of the paper's Table I, in the paper's order.
pub const MCNC_NAMES: [&str; 14] = [
    "C1355", "C1908", "C6288", "bigkey", "my_adder", "cla", "dalu", "b9", "count", "alu4", "clma",
    "mm30a", "s38417", "misex3",
];

/// The large-tier circuits (100k–1M MIG nodes after import), smallest
/// first so a partial run still covers every structural family.
pub const LARGE_NAMES: [&str; 4] = ["ecc_200k", "alu_400k", "mul_100k", "mul_1m"];

/// Generates the named benchmark circuit, or `None` for unknown names.
/// Knows every [`MCNC_NAMES`] entry and every [`LARGE_NAMES`] entry.
pub fn generate(name: &str) -> Option<Network> {
    Some(match name {
        "C1355" => ecc_c1355(),
        "C1908" => ecc_c1908(),
        "C6288" => {
            let mut net = multiplier(16);
            net.set_name("C6288");
            net
        }
        "bigkey" => bigkey(),
        "my_adder" => {
            let mut net = ripple_adder(16);
            net.set_name("my_adder");
            net
        }
        "cla" => {
            let mut net = cla_adder(64);
            net.set_name("cla");
            net
        }
        "dalu" => dalu(),
        "b9" => b9(),
        "count" => {
            let mut net = counter(16);
            net.set_name("count");
            net
        }
        "alu4" => alu4(),
        "clma" => clma(),
        "mm30a" => {
            let mut net = minmax(30);
            net.set_name("mm30a");
            net
        }
        "s38417" => s38417(),
        "misex3" => misex3(),
        // Large tier: names encode the approximate post-import MIG node
        // count; parameters are fixed so results are reproducible.
        "mul_100k" => {
            let mut net = wide_multiplier(112);
            net.set_name("mul_100k");
            net
        }
        "mul_1m" => {
            let mut net = wide_multiplier(355);
            net.set_name("mul_1m");
            net
        }
        "alu_400k" => {
            let mut net = alu_stack(256, 114, 0xa1a1);
            net.set_name("alu_400k");
            net
        }
        "ecc_200k" => {
            let mut net = ecc_chain(256, 253, 0xecc1);
            net.set_name("ecc_200k");
            net
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table I interface column.
    const EXPECTED_IO: [(&str, usize, usize); 14] = [
        ("C1355", 41, 32),
        ("C1908", 33, 25),
        ("C6288", 32, 32),
        ("bigkey", 487, 421),
        ("my_adder", 33, 17),
        ("cla", 129, 65),
        ("dalu", 75, 16),
        ("b9", 41, 21),
        ("count", 35, 16),
        ("alu4", 14, 8),
        ("clma", 416, 115),
        ("mm30a", 124, 120),
        ("s38417", 1494, 1571),
        ("misex3", 14, 14),
    ];

    #[test]
    fn all_interfaces_match_table1() {
        for (name, ins, outs) in EXPECTED_IO {
            let net = generate(name).expect("known");
            assert_eq!(
                (net.num_inputs(), net.num_outputs()),
                (ins, outs),
                "interface of {name}"
            );
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(generate("nonexistent").is_none());
    }

    #[test]
    fn suite_covers_expected_size_range() {
        // Paper: "ranging from 0.1k to 15k nodes" (post-optimization).
        // Unoptimized primitive counts run a bit larger; check the suite
        // spans two orders of magnitude.
        let sizes: Vec<usize> = MCNC_NAMES
            .iter()
            .map(|n| generate(n).expect("all names are known").num_logic_gates())
            .collect();
        let min = *sizes.iter().min().expect("non-empty");
        let max = *sizes.iter().max().expect("non-empty");
        assert!(min >= 40, "smallest {min}");
        assert!(max >= 8_000, "largest {max}");
    }
}
