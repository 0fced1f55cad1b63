//! Seeded input generation. Every workload input is structural Verilog
//! text; the suite only ever sees that text.
//!
//! Seed [`DEFAULT_SEED`] reproduces the committed circuits exactly
//! (`mig_benchgen::generate`). Any other seed re-draws the generator seed
//! of the seeded families with their parameters unchanged: the PLAs `b9`
//! and `misex3`, and the `alu_stack` behind `alu_400k`. The
//! layered-random `clma` and `s38417` stay fixed: they hold most of the
//! MCNC work, and their cost moves by up to a third from one draw to the
//! next, which would swamp any regression bound. The other circuits are
//! fixed structures (adders, multipliers, ECC, ...).

use mig_benchgen::{alu_stack, layered_random, seeded_pla, PlaParams, RandomLogicParams};
use mig_netlist::{write_verilog, Network, SplitMix64};

/// The seed that reproduces the committed circuits.
pub const DEFAULT_SEED: u64 = 0;

/// One job input: a circuit name and its Verilog text.
#[derive(Debug, Clone)]
pub struct Input {
    pub name: String,
    pub verilog: String,
}

impl Input {
    fn of(net: &Network) -> Input {
        Input {
            name: net.name().to_string(),
            verilog: write_verilog(net),
        }
    }
}

/// The generator seed a seeded family uses under benchmark seed `seed`.
fn redraw(committed: u64, seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        committed
    } else {
        SplitMix64::seed_from_u64(committed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
    }
}

fn known(name: &str) -> Network {
    mig_benchgen::generate(name).expect("benchmark name is known to mig_benchgen")
}

/// The 14 MCNC stand-ins of the paper's Table I, in table order.
pub fn mcnc(seed: u64) -> Vec<Input> {
    mig_benchgen::MCNC_NAMES
        .iter()
        .map(|&name| {
            let net = if seed == DEFAULT_SEED {
                known(name)
            } else {
                match name {
                    "b9" => seeded_pla(
                        "b9",
                        &PlaParams {
                            inputs: 41,
                            outputs: 21,
                            cubes: 55,
                            literals: (3, 6),
                            cubes_per_output: 4,
                            seed: redraw(0xB9, seed),
                        },
                    ),
                    "misex3" => seeded_pla(
                        "misex3",
                        &PlaParams {
                            inputs: 14,
                            outputs: 14,
                            cubes: 220,
                            literals: (6, 11),
                            cubes_per_output: 28,
                            seed: redraw(0x0003_15E3, seed),
                        },
                    ),
                    other => known(other),
                }
            };
            Input::of(&net)
        })
        .collect()
}

/// The large datapath pair: `mul_100k` (fixed) and `alu_400k`
/// (`alu_stack(256, 114, seed)`).
pub fn large(seed: u64) -> Vec<Input> {
    let mut alu = alu_stack(256, 114, redraw(0xa1a1, seed));
    alu.set_name("alu_400k");
    vec![Input::of(&known("mul_100k")), Input::of(&alu)]
}

/// Shapes of the serve mix's fresh circuits.
pub const SMALL_SHAPES: usize = 4;

/// A fresh small circuit for the serve mix: a seeded PLA or layered
/// random instance of one of [`SMALL_SHAPES`] fixed shapes. The caller
/// cycles through the shapes, so the work per job and the quality totals
/// stay alike from seed to seed while the circuits differ.
pub fn small_circuit(shape: usize, rng: &mut SplitMix64, name: &str) -> Input {
    let seed = rng.next_u64();
    let net = match shape % SMALL_SHAPES {
        0 => seeded_pla(
            name,
            &PlaParams {
                inputs: 12,
                outputs: 6,
                cubes: 40,
                literals: (3, 7),
                cubes_per_output: 6,
                seed,
            },
        ),
        1 => seeded_pla(
            name,
            &PlaParams {
                inputs: 24,
                outputs: 12,
                cubes: 60,
                literals: (3, 6),
                cubes_per_output: 5,
                seed,
            },
        ),
        2 => layered_random(
            name,
            &RandomLogicParams {
                inputs: 32,
                outputs: 12,
                gates: 300,
                layers: 10,
                seed,
            },
        ),
        _ => layered_random(
            name,
            &RandomLogicParams {
                inputs: 64,
                outputs: 24,
                gates: 600,
                layers: 12,
                seed,
            },
        ),
    };
    Input::of(&net)
}
