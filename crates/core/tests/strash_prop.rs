//! Property test for the open-addressing strash table: random `maj`
//! construction sequences must behave exactly like the previous
//! `HashMap<[Signal; 3], NodeId>` implementation — identical node ids,
//! identical gate counts, and functions verified by truth tables —
//! including the `Ω.I` complement-normalization collisions (two
//! complemented fanins flip the stored key).

use mig_core::{Mig, NodeId, Signal};
use mig_netlist::SplitMix64;
use mig_tt::TruthTable;
use std::collections::HashMap;

const NUM_INPUTS: usize = 8;

/// Shadow of the pre-refactor `Mig::maj` semantics with the original
/// `HashMap` strash, tracking a truth table per node.
struct RefMig {
    children: Vec<[Signal; 3]>,
    tt: Vec<TruthTable>,
    strash: HashMap<[Signal; 3], NodeId>,
}

impl RefMig {
    fn new() -> Self {
        let mut tt = vec![TruthTable::zeros(NUM_INPUTS)];
        for i in 0..NUM_INPUTS {
            tt.push(TruthTable::var(i, NUM_INPUTS));
        }
        RefMig {
            children: vec![[Signal::FALSE; 3]; NUM_INPUTS + 1],
            tt,
            strash: HashMap::new(),
        }
    }

    fn tt_of(&self, s: Signal) -> TruthTable {
        let t = self.tt[s.node().index()].clone();
        if s.is_complemented() {
            t.not()
        } else {
            t
        }
    }

    fn maj(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
        if a == b {
            return a;
        }
        if a == !b {
            return c;
        }
        if a == c {
            return a;
        }
        if a == !c {
            return b;
        }
        if b == c {
            return b;
        }
        if b == !c {
            return a;
        }
        let n_compl =
            a.is_complemented() as u8 + b.is_complemented() as u8 + c.is_complemented() as u8;
        if n_compl >= 2 {
            return !self.maj_canonical(!a, !b, !c);
        }
        self.maj_canonical(a, b, c)
    }

    fn maj_canonical(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
        let mut key = [a, b, c];
        key.sort_unstable();
        if let Some(&node) = self.strash.get(&key) {
            return Signal::new(node, false);
        }
        let node = NodeId::from_index(self.children.len());
        let tt = TruthTable::maj(
            &self.tt_of(key[0]),
            &self.tt_of(key[1]),
            &self.tt_of(key[2]),
        );
        self.children.push(key);
        self.tt.push(tt);
        self.strash.insert(key, node);
        Signal::new(node, false)
    }
}

fn random_signal(rng: &mut SplitMix64, pool: &[Signal]) -> Signal {
    let s = pool[rng.gen_range(0..pool.len())];
    s.complement_if(rng.gen_bool(0.5))
}

#[test]
fn random_construction_matches_hashmap_semantics() {
    for seed in [1u64, 0xDEAD_BEEF, 0x5EED_0000_0001] {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut mig = Mig::new("prop");
        let mut reference = RefMig::new();
        let mut pool: Vec<Signal> = vec![Signal::FALSE];
        for i in 0..NUM_INPUTS {
            pool.push(mig.add_input(format!("x{i}")));
        }
        for step in 0..3000 {
            let a = random_signal(&mut rng, &pool);
            let b = random_signal(&mut rng, &pool);
            let c = random_signal(&mut rng, &pool);
            // The real table and the HashMap shadow must agree on the
            // resulting signal bit-for-bit (same node id, same
            // complement) and on whether a node was allocated.
            let got = mig.maj(a, b, c);
            let want = reference.maj(a, b, c);
            assert_eq!(
                got, want,
                "seed {seed} step {step}: maj({a}, {b}, {c}) diverged"
            );
            // lookup_maj must now see the node without allocating.
            assert_eq!(
                mig.lookup_maj(a, b, c),
                Some(got),
                "seed {seed} step {step}: lookup after construction"
            );
            // The Ω.I dual must land on the same node, complemented —
            // this is the complement-normalization collision path.
            let dual = mig.maj(!a, !b, !c);
            assert_eq!(dual, !got, "seed {seed} step {step}: Ω.I dual");
            pool.push(got);
        }
        assert_eq!(
            mig.num_gates() + NUM_INPUTS + 1,
            reference.children.len(),
            "seed {seed}: same number of allocated nodes"
        );
        // Functions agree everywhere: spot-check a sample of signals via
        // exact truth tables.
        let mut check = mig.clone();
        let mut expected = Vec::new();
        for i in 0..64 {
            let s = pool[(i * 37) % pool.len()];
            check.add_output(format!("o{i}"), s);
            expected.push(reference.tt_of(s));
        }
        assert_eq!(
            mig_sim::output_truth_tables(&check.to_network()),
            expected,
            "seed {seed}: truth tables diverged"
        );
    }
}

#[test]
fn identical_sequences_yield_identical_arenas() {
    // Determinism of the table across two independent builds.
    let build = || {
        let mut rng = SplitMix64::seed_from_u64(777);
        let mut mig = Mig::new("det");
        let mut pool: Vec<Signal> = vec![Signal::TRUE];
        for i in 0..6 {
            pool.push(mig.add_input(format!("x{i}")));
        }
        for _ in 0..500 {
            let a = random_signal(&mut rng, &pool);
            let b = random_signal(&mut rng, &pool);
            let c = random_signal(&mut rng, &pool);
            let s = mig.maj(a, b, c);
            pool.push(s);
        }
        (mig, pool)
    };
    let (m1, p1) = build();
    let (m2, p2) = build();
    assert_eq!(p1, p2, "same seed, same signals");
    assert_eq!(m1.num_gates(), m2.num_gates());
    for n in m1.gate_ids() {
        assert_eq!(m1.children(n), m2.children(n), "node {n}");
    }
}
