//! Seeded layered random-logic generators.
//!
//! Stand-ins for the large, irregular MCNC circuits whose netlists are
//! not reproducible functionally: `bigkey` (key-encryption rounds),
//! `clma` (large multi-level control/datapath mix) and the combinational
//! core of `s38417`. The generators produce deterministic, reconvergent,
//! multi-level networks at the same interface and scale.

use mig_netlist::{GateId, GateKind, Network, SplitMix64};

/// Parameters for [`layered_random`].
#[derive(Debug, Clone)]
pub struct RandomLogicParams {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Approximate number of logic gates.
    pub gates: usize,
    /// Number of layers (controls depth before optimization).
    pub layers: usize,
    /// Generation seed.
    pub seed: u64,
}

/// Generates a layered, reconvergent random network: each layer draws
/// fanins mostly from the two previous layers (locality creates
/// reconvergence), with occasional long edges back to earlier layers or
/// the inputs.
pub fn layered_random(name: &str, p: &RandomLogicParams) -> Network {
    assert!(p.layers >= 1 && p.gates >= p.layers);
    let mut rng = SplitMix64::seed_from_u64(p.seed);
    let mut net = Network::new(name.to_string());
    let inputs: Vec<GateId> = (0..p.inputs)
        .map(|i| net.add_input(format!("x{i}")))
        .collect();

    let per_layer = p.gates / p.layers;
    let mut prev: Vec<GateId> = inputs.clone();
    let mut prev2: Vec<GateId> = Vec::new();
    let mut all_gates: Vec<GateId> = Vec::new();

    for layer in 0..p.layers {
        let mut cur = Vec::with_capacity(per_layer);
        for g in 0..per_layer {
            // Fanin source pools: previous layer (70%), layer before
            // that (20%), a long edge to any earlier gate or input (10%).
            let pick = |rng: &mut SplitMix64| -> GateId {
                let r: f64 = rng.next_f64();
                if r < 0.7 || prev2.is_empty() {
                    prev[rng.gen_range(0..prev.len())]
                } else if r < 0.9 || all_gates.is_empty() {
                    prev2[rng.gen_range(0..prev2.len())]
                } else {
                    all_gates[rng.gen_range(0..all_gates.len())]
                }
            };
            // In layer 0, make sure every input is touched early.
            let a = match if layer == 0 { inputs.get(g) } else { None } {
                Some(&inp) => inp,
                None => pick(&mut rng),
            };
            let b = pick(&mut rng);
            let kind_roll: f64 = rng.next_f64();
            let id = if kind_roll < 0.32 {
                net.add_gate(GateKind::And, &[a, b])
            } else if kind_roll < 0.58 {
                net.add_gate(GateKind::Or, &[a, b])
            } else if kind_roll < 0.72 {
                net.add_gate(GateKind::Xor, &[a, b])
            } else if kind_roll < 0.80 {
                net.add_gate(GateKind::Nand, &[a, b])
            } else if kind_roll < 0.88 {
                net.add_gate(GateKind::Nor, &[a, b])
            } else if kind_roll < 0.94 {
                let c = pick(&mut rng);
                net.add_gate(GateKind::Mux, &[a, b, c])
            } else {
                let c = pick(&mut rng);
                net.add_gate(GateKind::Maj, &[a, b, c])
            };
            cur.push(id);
        }
        all_gates.extend(&cur);
        prev2 = std::mem::replace(&mut prev, cur);
    }

    // Outputs: mostly from the last layers, some from the middle.
    for o in 0..p.outputs {
        let src = if o % 5 == 4 && all_gates.len() > per_layer * 2 {
            all_gates[rng.gen_range(all_gates.len() / 2..all_gates.len())]
        } else {
            let start = all_gates.len().saturating_sub(2 * per_layer);
            all_gates[rng.gen_range(start..all_gates.len())]
        };
        net.set_output(format!("y{o}"), src);
    }
    net.sweep()
}

/// `bigkey` stand-in: a key-encryption-style circuit — data XOR-masked
/// with an expanded key, passed through seeded 4×4 S-box layers and a
/// bit permutation, twice (487 inputs / 421 outputs, matching MCNC
/// `bigkey`).
pub fn bigkey() -> Network {
    let data_bits = 421;
    let key_bits = 66;
    let mut rng = SplitMix64::seed_from_u64(0xB16_4E7);
    let mut net = Network::new("bigkey".to_string());
    let data: Vec<GateId> = (0..data_bits)
        .map(|i| net.add_input(format!("d{i}")))
        .collect();
    let key: Vec<GateId> = (0..key_bits)
        .map(|i| net.add_input(format!("k{i}")))
        .collect();

    let mut state = data.clone();
    for round in 0..2 {
        // Key mixing: XOR with a rotated key expansion.
        state = state
            .iter()
            .enumerate()
            .map(|(i, &s)| net.xor(s, key[(i + round * 13) % key_bits]))
            .collect();
        // S-box layer: groups of 4 bits through seeded 2-level logic.
        let mut next = Vec::with_capacity(state.len());
        for chunk in state.chunks(4) {
            if chunk.len() < 4 {
                next.extend_from_slice(chunk);
                continue;
            }
            let (a, b, c, d) = (chunk[0], chunk[1], chunk[2], chunk[3]);
            for _ in 0..4 {
                // A random 2-level function of the four bits.
                let l1 = if rng.gen_bool(0.5) {
                    net.and(a, b)
                } else {
                    net.xor(a, b)
                };
                let l2 = if rng.gen_bool(0.5) {
                    net.or(c, d)
                } else {
                    net.xor(c, d)
                };
                let f = match rng.gen_range(0..3) {
                    0 => net.xor(l1, l2),
                    1 => net.and(l1, l2),
                    _ => {
                        let t = net.or(l1, l2);
                        net.xor(t, a)
                    }
                };
                next.push(f);
            }
        }
        // Permutation: seeded rotation-based shuffle (deterministic).
        let n = next.len();
        state = (0..n).map(|i| next[(i * 97 + round * 31) % n]).collect();
    }
    for (i, &s) in state.iter().enumerate().take(data_bits) {
        net.set_output(format!("y{i}"), s);
    }
    net.sweep()
}

/// `clma` stand-in: large multi-level random logic
/// (416 inputs / 115 outputs, ≈ 14 k gates).
pub fn clma() -> Network {
    layered_random(
        "clma",
        &RandomLogicParams {
            inputs: 416,
            outputs: 115,
            gates: 14_000,
            layers: 40,
            seed: 0xC1_4A,
        },
    )
}

/// `s38417` stand-in: the combinational core of the ISCAS-89 circuit
/// (1494 inputs / 1571 outputs, ≈ 9 k gates, shallow and wide).
pub fn s38417() -> Network {
    layered_random(
        "s38417",
        &RandomLogicParams {
            inputs: 1494,
            outputs: 1571,
            gates: 9_500,
            layers: 22,
            seed: 0x38417,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layered_random_interface_and_determinism() {
        let p = RandomLogicParams {
            inputs: 20,
            outputs: 8,
            gates: 200,
            layers: 10,
            seed: 7,
        };
        let a = layered_random("t", &p);
        let b = layered_random("t", &p);
        assert_eq!(a.num_inputs(), 20);
        assert_eq!(a.num_outputs(), 8);
        assert_eq!(a.num_gates(), b.num_gates());
        let assign: Vec<bool> = (0..20).map(|i| i % 3 == 1).collect();
        assert_eq!(a.eval(&assign), b.eval(&assign));
    }

    #[test]
    fn big_circuits_hit_their_scale() {
        let c = clma();
        assert_eq!((c.num_inputs(), c.num_outputs()), (416, 115));
        let size = c.num_logic_gates();
        assert!((8_000..20_000).contains(&size), "clma size {size}");

        let s = s38417();
        assert_eq!((s.num_inputs(), s.num_outputs()), (1494, 1571));
        let size = s.num_logic_gates();
        assert!((5_000..14_000).contains(&size), "s38417 size {size}");
    }

    #[test]
    fn bigkey_interface_and_scale() {
        let b = bigkey();
        assert_eq!((b.num_inputs(), b.num_outputs()), (487, 421));
        let size = b.num_logic_gates();
        assert!((3_000..12_000).contains(&size), "bigkey size {size}");
    }

    #[test]
    fn outputs_depend_on_inputs() {
        let p = RandomLogicParams {
            inputs: 16,
            outputs: 4,
            gates: 120,
            layers: 8,
            seed: 99,
        };
        let net = layered_random("t", &p);
        let base = net.eval(&[false; 16]);
        let mut changed = false;
        for i in 0..16 {
            let mut assign = vec![false; 16];
            assign[i] = true;
            if net.eval(&assign) != base {
                changed = true;
                break;
            }
        }
        assert!(changed, "at least one input must influence an output");
    }
}
