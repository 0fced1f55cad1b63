//! The large "logic compression circuit" of the paper's Section V-A.2:
//! an LZ-style match finder. Each unit compares a 32-bit pattern against
//! a sliding window position (XNOR + AND-reduction), a priority chain
//! finds the first match, and an encoder emits its position.
//!
//! At `units = 4096` the network has roughly 0.3 M primitive nodes,
//! matching the paper's "(unoptimized) 0.3M nodes" description.

use mig_netlist::{GateId, Network};

/// Pattern width compared at every window position.
pub const PATTERN_BITS: usize = 32;

/// Generates the compression match-finder with `units` window positions.
///
/// Inputs: `s[units + PATTERN_BITS − 1]` (the window) and
/// `p[PATTERN_BITS]` (the pattern). Outputs: `found`, the binary match
/// position `pos[⌈log₂ units⌉]`, and the first pattern byte echoed
/// through a mask (`lit[8]`) as the literal fallback path.
///
/// # Panics
///
/// Panics if `units < 2`.
pub fn compression_circuit(units: usize) -> Network {
    assert!(units >= 2);
    let mut net = Network::new(format!("compress{units}"));
    let window: Vec<GateId> = (0..units + PATTERN_BITS - 1)
        .map(|i| net.add_input(format!("s{i}")))
        .collect();
    let pattern: Vec<GateId> = (0..PATTERN_BITS)
        .map(|i| net.add_input(format!("p{i}")))
        .collect();

    // Match units: AND-reduce the 32 XNORs at each position.
    let mut matches = Vec::with_capacity(units);
    for u in 0..units {
        let mut bits: Vec<GateId> = (0..PATTERN_BITS)
            .map(|i| net.add_gate(mig_netlist::GateKind::Xnor, &[window[u + i], pattern[i]]))
            .collect();
        while bits.len() > 1 {
            let mut next = Vec::with_capacity(bits.len().div_ceil(2));
            for pair in bits.chunks(2) {
                next.push(if pair.len() == 2 {
                    net.and(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            bits = next;
        }
        matches.push(bits[0]);
    }

    // Priority chain: first_u = match_u & !(any match before u).
    let mut any_before = net.constant(false);
    let mut firsts = Vec::with_capacity(units);
    for &m in &matches {
        let nb = net.not(any_before);
        firsts.push(net.and(m, nb));
        any_before = net.or(any_before, m);
    }
    net.set_output("found", any_before);

    // Position encoder: pos_b = OR over units whose index has bit b set.
    let pos_bits = usize::BITS as usize - (units - 1).leading_zeros() as usize;
    for b in 0..pos_bits {
        let terms: Vec<GateId> = firsts
            .iter()
            .enumerate()
            .filter(|(u, _)| (u >> b) & 1 == 1)
            .map(|(_, &f)| f)
            .collect();
        let mut acc = net.constant(false);
        let mut layer = terms;
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    net.or(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        if let Some(&single) = layer.first() {
            acc = single;
        }
        net.set_output(format!("pos{b}"), acc);
    }

    // Literal fallback: first window byte gated by "no match".
    let no_match = net.not(any_before);
    for (i, &w) in window.iter().enumerate().take(8) {
        let lit = net.and(w, no_match);
        net.set_output(format!("lit{i}"), lit);
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_pos(net: &Network, assign: &[bool], pos_bits: usize) -> (bool, u64) {
        let out = net.eval(assign);
        let found = out[0];
        let pos = (0..pos_bits).fold(0u64, |acc, b| acc | (out[1 + b] as u64) << b);
        (found, pos)
    }

    #[test]
    fn finds_first_match() {
        let units = 16;
        let net = compression_circuit(units);
        let pos_bits = 4;
        // Window = all zeros except a pattern copy planted at position 5.
        let pattern: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
        let mut window = vec![false; units + 31];
        for (i, &b) in pattern.iter().enumerate() {
            window[5 + i] = b;
        }
        // Zero window bits may accidentally match an all-zero pattern;
        // our pattern is non-zero so position 5 is the unique match
        // unless the plant overlaps itself (it does not here).
        let mut assign = window.clone();
        assign.extend(pattern.iter().copied());
        let (found, pos) = eval_pos(&net, &assign, pos_bits);
        assert!(found);
        assert_eq!(pos, 5);
    }

    #[test]
    fn no_match_raises_literal_path() {
        let units = 8;
        let net = compression_circuit(units);
        // Pattern of all ones, window of all zeros: no match anywhere.
        let mut assign = vec![false; units + 31];
        assign[0] = true; // first window bit feeds the literal byte
        assign.extend(vec![true; 32]);
        let out = net.eval(&assign);
        assert!(!out[0], "no match");
        // lit outputs follow the window byte.
        let lit0 = out[out.len() - 8];
        assert!(lit0, "literal path passes window bit 0");
    }

    #[test]
    fn scale_estimate() {
        // The paper's instance: ~0.3M nodes at 4096 units. Check the
        // growth rate on a small instance instead (65–80 gates/unit).
        let net = compression_circuit(64);
        let per_unit = net.num_logic_gates() as f64 / 64.0;
        assert!(
            (60.0..90.0).contains(&per_unit),
            "gates per unit {per_unit}"
        );
    }

    #[test]
    fn priority_prefers_earlier_position() {
        let units = 8;
        let net = compression_circuit(units);
        let pattern: Vec<bool> = (0..32).map(|i| i % 2 == 0).collect();
        let mut window = vec![false; units + 31];
        // Plant matches at positions 2 and 6 — they overlap; position 2
        // pattern bits win where they conflict, so just plant at 2 and
        // verify the reported position is ≤ 2.
        for (i, &b) in pattern.iter().enumerate() {
            window[2 + i] = b;
        }
        let mut assign = window.clone();
        assign.extend(pattern.iter().copied());
        let (found, pos) = eval_pos(&net, &assign, 3);
        assert!(found);
        assert!(pos <= 2, "first match at or before the plant: {pos}");
    }
}
