//! Bit-parallel network simulation.

use mig_netlist::{GateKind, Network};

/// Simulates 64 input patterns at once and returns one word per output.
///
/// `input_words[i]` carries 64 values of input `i` (bit `p` = pattern
/// `p`).
///
/// # Panics
///
/// Panics if `input_words.len() != net.num_inputs()`.
pub fn simulate(net: &Network, input_words: &[u64]) -> Vec<u64> {
    simulate_batch(net, input_words, 1)
}

/// Simulates `w` 64-pattern words per input (`64·w` patterns total) in a
/// single topological pass over the network.
///
/// The equivalence checker batches 4 words (256 patterns) per pass, so
/// the per-gate bookkeeping — fanin lookups, dispatch on the gate kind —
/// is amortized over the whole batch instead of being paid once per
/// word. `input_words` is input-major: input `i`'s words occupy
/// `input_words[i*w .. (i+1)*w]`, and the result uses the same layout
/// per output. `w` may be anything from 1 up: a run whose pattern count
/// is not a multiple of the batch width simply passes the tail as a
/// smaller `w`.
///
/// # Panics
///
/// Panics if `w == 0` or `input_words.len() != net.num_inputs() * w`.
pub fn simulate_batch(net: &Network, input_words: &[u64], w: usize) -> Vec<u64> {
    let values = gate_values(net, input_words, w);
    let mut outs = Vec::with_capacity(net.num_outputs() * w);
    for &(_, g) in net.outputs() {
        outs.extend_from_slice(&values[g.index() * w..(g.index() + 1) * w]);
    }
    outs
}

/// Simulates 64 patterns and returns `(per-gate words, per-output words)`.
///
/// The per-gate vector is indexed by [`GateId::index`](mig_netlist::GateId);
/// it is what activity estimation consumes.
///
/// # Panics
///
/// Panics if `input_words.len() != net.num_inputs()`.
pub fn simulate_all(net: &Network, input_words: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let values = gate_values(net, input_words, 1);
    let outs = net
        .outputs()
        .iter()
        .map(|&(_, g)| values[g.index()])
        .collect();
    (values, outs)
}

/// The one evaluation loop behind every simulation entry point: `w`
/// words per gate in a single topological pass, gate-major (gate `g`'s
/// words occupy `[g*w .. (g+1)*w]`), inputs laid out as in
/// [`simulate_batch`].
fn gate_values(net: &Network, input_words: &[u64], w: usize) -> Vec<u64> {
    assert!(w > 0, "batch width must be at least one word");
    assert_eq!(input_words.len(), net.num_inputs() * w);
    let mut values = vec![0u64; net.num_gates() * w];
    let mut next_input = 0usize;
    // Fanin words are staged through a fixed-size stack buffer so the
    // evaluation loop performs no per-gate heap allocation; the rare
    // wider-than-8 variadic gate falls back to a reusable spill vector
    // (allocated at most once per call).
    let mut inline = [0u64; 8];
    let mut spill: Vec<u64> = Vec::new();
    for (id, gate) in net.iter() {
        match gate.kind() {
            GateKind::Input => {
                values[id.index() * w..(id.index() + 1) * w]
                    .copy_from_slice(&input_words[next_input * w..(next_input + 1) * w]);
                next_input += 1;
            }
            kind => {
                let fanins = gate.fanins();
                for j in 0..w {
                    let vals: &[u64] = if fanins.len() <= inline.len() {
                        for (slot, f) in inline.iter_mut().zip(fanins) {
                            *slot = values[f.index() * w + j];
                        }
                        &inline[..fanins.len()]
                    } else {
                        spill.clear();
                        spill.extend(fanins.iter().map(|f| values[f.index() * w + j]));
                        &spill
                    };
                    values[id.index() * w + j] = kind.eval_words(vals);
                }
            }
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use mig_netlist::Network;

    #[test]
    fn word_simulation_matches_scalar() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let x = net.xor(a, b);
        let m = net.maj(a, b, c);
        let g = net.and(x, m);
        net.set_output("y", g);
        // Exhaustive 8 patterns packed in one word.
        let words: Vec<u64> = (0..3)
            .map(|v| {
                let mut w = 0u64;
                for p in 0..8 {
                    if (p >> v) & 1 == 1 {
                        w |= 1 << p;
                    }
                }
                w
            })
            .collect();
        let out = simulate(&net, &words);
        for p in 0..8usize {
            let assign = [p & 1 == 1, p & 2 == 2, p & 4 == 4];
            assert_eq!((out[0] >> p) & 1 == 1, net.eval(&assign)[0], "pattern {p}");
        }
    }

    #[test]
    fn wide_variadic_gates_use_spill_path() {
        // 12 fanins exceed the 8-slot inline buffer, exercising the spill
        // vector; the result must match a manual word-wise fold.
        let mut net = Network::new("wide");
        let ins: Vec<_> = (0..12).map(|i| net.add_input(format!("x{i}"))).collect();
        let g_and = net.add_gate(mig_netlist::GateKind::And, &ins);
        let g_xor = net.add_gate(mig_netlist::GateKind::Xor, &ins);
        net.set_output("and", g_and);
        net.set_output("xor", g_xor);
        let words: Vec<u64> = (0..12)
            .map(|i| 0x9E37_79B9_7F4A_7C15u64.rotate_left(i))
            .collect();
        let out = simulate(&net, &words);
        assert_eq!(out[0], words.iter().fold(u64::MAX, |acc, &w| acc & w));
        assert_eq!(out[1], words.iter().fold(0u64, |acc, &w| acc ^ w));
    }

    #[test]
    fn batch_matches_per_word_simulation() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let x = net.xor(a, b);
        let m = net.maj(a, b, c);
        let g = net.and(x, m);
        net.set_output("y", g);
        net.set_output("m", m);
        // 5 words per input: not a multiple of the 4-word batch width
        // the equivalence checker uses, exercising a short batch.
        let w = 5;
        let words: Vec<u64> = (0..3 * w as u64)
            .map(|i| 0xA5A5_5A5A_0F0F_F0F0u64.rotate_left(7 * i as u32) ^ i)
            .collect();
        let batched = simulate_batch(&net, &words, w);
        for j in 0..w {
            let per_word: Vec<u64> = (0..3).map(|i| words[i * w + j]).collect();
            let outs = simulate(&net, &per_word);
            for (o, &expect) in outs.iter().enumerate() {
                assert_eq!(batched[o * w + j], expect, "output {o}, word {j}");
            }
        }
    }

    #[test]
    fn batch_spill_path_matches_on_wide_gates() {
        // 12 fanins exceed the 8-slot inline buffer: the batched loop
        // must hit the spill vector and still match the word-wise fold.
        let mut net = Network::new("wide");
        let ins: Vec<_> = (0..12).map(|i| net.add_input(format!("x{i}"))).collect();
        let g_and = net.add_gate(mig_netlist::GateKind::And, &ins);
        let g_xor = net.add_gate(mig_netlist::GateKind::Xor, &ins);
        net.set_output("and", g_and);
        net.set_output("xor", g_xor);
        let w = 3;
        let words: Vec<u64> = (0..12 * w as u64)
            .map(|i| 0x9E37_79B9_7F4A_7C15u64.rotate_left(i as u32) ^ (i * i))
            .collect();
        let batched = simulate_batch(&net, &words, w);
        for j in 0..w {
            let and = (0..12).fold(u64::MAX, |acc, i| acc & words[i * w + j]);
            let xor = (0..12).fold(0u64, |acc, i| acc ^ words[i * w + j]);
            assert_eq!(batched[j], and, "AND word {j}");
            assert_eq!(batched[w + j], xor, "XOR word {j}");
        }
    }

    #[test]
    #[should_panic(expected = "batch width must be at least one word")]
    fn zero_width_batch_is_rejected() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        net.set_output("y", a);
        let _ = simulate_batch(&net, &[], 0);
    }

    #[test]
    fn gate_values_exposed() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let n = net.not(a);
        net.set_output("y", n);
        let (gates, outs) = simulate_all(&net, &[0b01]);
        assert_eq!(gates[a.index()], 0b01);
        assert_eq!(outs[0] & 0b11, 0b10);
    }
}
