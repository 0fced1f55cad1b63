//! Functional equivalence of MIGs, checked by exporting both graphs and
//! simulating them with [`mig_sim`] — the workspace's one simulator.

use crate::Mig;

/// SplitMix64 seed of the random half of [`Mig::equiv`]. It differs from
/// the seed of the netlist-level check (`mig_sim::equivalent`), so the
/// MIG-level and netlist-level verdicts of one run test different
/// patterns.
const EQUIV_SEED: u64 = 0x243F_6A88_85A3_08D3;

impl Mig {
    /// Checks functional equivalence with another MIG over the same
    /// inputs: exhaustive for ≤ 16 inputs, otherwise seeded random
    /// word-parallel simulation with `64 * rounds` patterns.
    ///
    /// Random simulation can only disprove equivalence; for the exhaustive
    /// case the answer is exact.
    ///
    /// # Panics
    ///
    /// Panics if input or output counts differ.
    pub fn equiv(&self, other: &Mig, rounds: usize) -> bool {
        assert_eq!(self.num_inputs(), other.num_inputs());
        assert_eq!(self.num_outputs(), other.num_outputs());
        // Each side is exported, reduced to its output signature and
        // dropped before the other is exported, so at most one exported
        // network is alive at a time (they are large next to the MIGs).
        if self.num_inputs() <= 16 {
            let mine = mig_sim::output_truth_tables(&self.to_network());
            mine == mig_sim::output_truth_tables(&other.to_network())
        } else {
            let mine = mig_sim::random_signatures(&self.to_network(), rounds, EQUIV_SEED);
            mine == mig_sim::random_signatures(&other.to_network(), rounds, EQUIV_SEED)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Signal;

    #[test]
    fn maj_gate_truth() {
        let mut mig = Mig::new("m");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let m = mig.maj(a, b, c);
        mig.add_output("y", m);
        let tts = mig_sim::output_truth_tables(&mig.to_network());
        assert_eq!(tts[0].as_u64(), 0xE8);
    }

    #[test]
    fn xor_and_mux_simulate_correctly() {
        let mut mig = Mig::new("x");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let x = mig.xor(a, b);
        let m = mig.mux(c, a, b);
        mig.add_output("x", x);
        mig.add_output("m", m);
        // Input i's word holds bit i of every pattern 0..8.
        let words = [0xAAu64, 0xCC, 0xF0];
        let out = mig_sim::simulate(&mig.to_network(), &words);
        assert_eq!(out[0] & 0xFF, words[0] ^ words[1]);
        assert_eq!(
            out[1] & 0xFF,
            (words[2] & words[0]) | (!words[2] & words[1])
        );
    }

    #[test]
    fn complemented_output() {
        let mut nand = Mig::new("c");
        let a = nand.add_input("a");
        let b = nand.add_input("b");
        let g = nand.and(a, b);
        nand.add_output("nand", !g);

        // De Morgan: ¬(a ∧ b) = ¬a ∨ ¬b.
        let mut demorgan = Mig::new("d");
        let a = demorgan.add_input("a");
        let b = demorgan.add_input("b");
        let g = demorgan.or(!a, !b);
        demorgan.add_output("nand", g);
        assert!(nand.equiv(&demorgan, 4));

        let mut and = nand.clone();
        let plain = !and.outputs()[0].1;
        and.set_output(0, plain);
        assert!(!nand.equiv(&and, 4));
    }

    #[test]
    fn equiv_detects_difference() {
        let mut m1 = Mig::new("a");
        let a = m1.add_input("a");
        let b = m1.add_input("b");
        let g = m1.and(a, b);
        m1.add_output("y", g);

        let mut m2 = Mig::new("b");
        let a2 = m2.add_input("a");
        let b2 = m2.add_input("b");
        let g2 = m2.or(a2, b2);
        m2.add_output("y", g2);

        assert!(!m1.equiv(&m2, 4));
        assert!(m1.equiv(&m1.clone(), 4));
    }

    #[test]
    fn equiv_large_random() {
        // 20 inputs forces the random-simulation path.
        let mut m1 = Mig::new("big");
        let sigs: Vec<Signal> = (0..20).map(|i| m1.add_input(format!("x{i}"))).collect();
        let mut acc = sigs[0];
        for &s in &sigs[1..] {
            acc = m1.xor(acc, s);
        }
        m1.add_output("y", acc);

        let mut m2 = Mig::new("big2");
        let sigs2: Vec<Signal> = (0..20).map(|i| m2.add_input(format!("x{i}"))).collect();
        let mut acc2 = sigs2[19];
        for &s in sigs2[..19].iter().rev() {
            acc2 = m2.xor(acc2, s);
        }
        m2.add_output("y", acc2);
        assert!(m1.equiv(&m2, 8), "xor chain order is irrelevant");

        let mut m3 = m2.clone();
        let flipped = !m3.outputs()[0].1;
        m3.set_output(0, flipped);
        assert!(!m1.equiv(&m3, 8));
    }
}
