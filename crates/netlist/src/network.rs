//! The gate-level logic network data structure.

use std::fmt;

/// Index of a gate inside a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `GateId` from a raw index.
    pub fn from_index(index: usize) -> Self {
        GateId(u32::try_from(index).expect("network limited to 2^32 gates"))
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The Boolean primitive computed by a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Constant 0 (no fanins).
    Const0,
    /// Constant 1 (no fanins).
    Const1,
    /// Primary input (no fanins).
    Input,
    /// Identity (1 fanin).
    Buf,
    /// Complement (1 fanin).
    Not,
    /// Conjunction (≥ 2 fanins).
    And,
    /// Disjunction (≥ 2 fanins).
    Or,
    /// Exclusive-or (≥ 2 fanins).
    Xor,
    /// Complemented exclusive-or (2 fanins).
    Xnor,
    /// Complemented conjunction (2 fanins).
    Nand,
    /// Complemented disjunction (2 fanins).
    Nor,
    /// If-then-else: fanins `[sel, then, else]`.
    Mux,
    /// Three-input majority.
    Maj,
}

impl GateKind {
    /// Number of fanins this kind expects, or `None` for variadic kinds.
    pub fn arity(self) -> Option<usize> {
        match self {
            GateKind::Const0 | GateKind::Const1 | GateKind::Input => Some(0),
            GateKind::Buf | GateKind::Not => Some(1),
            GateKind::Xnor | GateKind::Nand | GateKind::Nor => Some(2),
            GateKind::Mux | GateKind::Maj => Some(3),
            GateKind::And | GateKind::Or | GateKind::Xor => None,
        }
    }

    /// Evaluates the primitive on boolean fanin values.
    ///
    /// # Panics
    ///
    /// Panics if the number of values does not suit the kind.
    pub fn eval(self, values: &[bool]) -> bool {
        match self {
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Input => panic!("inputs have no defining function"),
            GateKind::Buf => values[0],
            GateKind::Not => !values[0],
            GateKind::And => values.iter().all(|&v| v),
            GateKind::Or => values.iter().any(|&v| v),
            GateKind::Xor => values.iter().fold(false, |acc, &v| acc ^ v),
            GateKind::Xnor => !(values[0] ^ values[1]),
            GateKind::Nand => !(values[0] && values[1]),
            GateKind::Nor => !(values[0] || values[1]),
            GateKind::Mux => {
                if values[0] {
                    values[1]
                } else {
                    values[2]
                }
            }
            GateKind::Maj => (values[0] && values[1]) || (values[2] && (values[0] || values[1])),
        }
    }

    /// Evaluates the primitive on 64 assignments in parallel.
    pub fn eval_words(self, values: &[u64]) -> u64 {
        match self {
            GateKind::Const0 => 0,
            GateKind::Const1 => u64::MAX,
            GateKind::Input => panic!("inputs have no defining function"),
            GateKind::Buf => values[0],
            GateKind::Not => !values[0],
            GateKind::And => values.iter().fold(u64::MAX, |acc, &v| acc & v),
            GateKind::Or => values.iter().fold(0, |acc, &v| acc | v),
            GateKind::Xor => values.iter().fold(0, |acc, &v| acc ^ v),
            GateKind::Xnor => !(values[0] ^ values[1]),
            GateKind::Nand => !(values[0] & values[1]),
            GateKind::Nor => !(values[0] | values[1]),
            GateKind::Mux => (values[0] & values[1]) | (!values[0] & values[2]),
            GateKind::Maj => {
                (values[0] & values[1]) | (values[0] & values[2]) | (values[1] & values[2])
            }
        }
    }

    /// True for the kinds that count toward logic size (everything except
    /// constants, inputs and buffers).
    pub fn is_logic(self) -> bool {
        !matches!(
            self,
            GateKind::Const0 | GateKind::Const1 | GateKind::Input | GateKind::Buf
        )
    }
}

/// A read-only view of one gate: its primitive and its fanin list.
///
/// [`Network::gate`] and [`Network::iter`] hand these out by value. The
/// fanin slice borrows the network's one flat fanin array, so a view
/// costs two words and no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate<'a> {
    kind: GateKind,
    fanins: &'a [GateId],
}

impl<'a> Gate<'a> {
    /// The gate's primitive.
    pub fn kind(self) -> GateKind {
        self.kind
    }

    /// The gate's fanin list.
    pub fn fanins(self) -> &'a [GateId] {
        self.fanins
    }
}

/// A combinational gate-level logic network.
///
/// Gates live in an arena indexed by [`GateId`]. Named primary inputs and
/// named primary outputs delimit the circuit; everything else is internal.
/// Fanins must always refer to already-added gates, so the arena order is a
/// valid topological order.
///
/// Storage is compressed sparse row: one kind per gate, and the fanins of
/// every gate back to back in one array, gate `g`'s at
/// `fanins[fanin_start[g]..fanin_start[g + 1]]`.
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    kinds: Vec<GateKind>,
    /// `kinds.len() + 1` offsets into `fanins`; starts with 0.
    fanin_start: Vec<u32>,
    fanins: Vec<GateId>,
    inputs: Vec<GateId>,
    input_names: Vec<String>,
    outputs: Vec<(String, GateId)>,
    /// The first `Const0` and `Const1` gates, if any.
    constants: [Option<GateId>; 2],
}

impl Network {
    /// Creates an empty network with the given module name.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            kinds: Vec::new(),
            fanin_start: vec![0],
            fanins: Vec::new(),
            inputs: Vec::new(),
            input_names: Vec::new(),
            outputs: Vec::new(),
            constants: [None; 2],
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the module.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    fn push(&mut self, kind: GateKind, fanins: &[GateId]) -> GateId {
        let id = GateId::from_index(self.kinds.len());
        self.kinds.push(kind);
        self.fanins.extend_from_slice(fanins);
        let end = u32::try_from(self.fanins.len()).expect("network limited to 2^32 fanins");
        self.fanin_start.push(end);
        id
    }

    /// Adds a named primary input and returns its gate id.
    pub fn add_input(&mut self, name: impl Into<String>) -> GateId {
        let id = self.push(GateKind::Input, &[]);
        self.inputs.push(id);
        self.input_names.push(name.into());
        id
    }

    /// Adds a gate computing `kind` over `fanins` and returns its id,
    /// which is the next arena index. The fanins are copied into the
    /// network's flat fanin array, so callers may pass a stack array.
    ///
    /// # Panics
    ///
    /// Panics if a fanin id is out of range, or the fanin count does not
    /// match the kind's arity (variadic kinds require at least two fanins),
    /// or `kind` is [`GateKind::Input`] (use [`Network::add_input`]).
    pub fn add_gate(&mut self, kind: GateKind, fanins: &[GateId]) -> GateId {
        for &f in fanins {
            assert!(f.index() < self.kinds.len(), "fanin {f} does not exist yet");
        }
        match kind.arity() {
            Some(n) => assert_eq!(fanins.len(), n, "{kind:?} expects {n} fanins"),
            None => assert!(fanins.len() >= 2, "{kind:?} expects at least 2 fanins"),
        }
        assert!(
            !matches!(kind, GateKind::Input),
            "use add_input for primary inputs"
        );
        let id = self.push(kind, fanins);
        if let GateKind::Const0 | GateKind::Const1 = kind {
            self.constants[(kind == GateKind::Const1) as usize].get_or_insert(id);
        }
        id
    }

    /// Returns (adding if needed) the constant gate of the given value:
    /// the first gate of that constant kind in the arena.
    pub fn constant(&mut self, value: bool) -> GateId {
        match self.constants[value as usize] {
            Some(id) => id,
            None if value => self.add_gate(GateKind::Const1, &[]),
            None => self.add_gate(GateKind::Const0, &[]),
        }
    }

    /// Convenience: adds a NOT gate.
    pub fn not(&mut self, a: GateId) -> GateId {
        self.add_gate(GateKind::Not, &[a])
    }

    /// Convenience: adds an AND gate.
    pub fn and(&mut self, a: GateId, b: GateId) -> GateId {
        self.add_gate(GateKind::And, &[a, b])
    }

    /// Convenience: adds an OR gate.
    pub fn or(&mut self, a: GateId, b: GateId) -> GateId {
        self.add_gate(GateKind::Or, &[a, b])
    }

    /// Convenience: adds an XOR gate.
    pub fn xor(&mut self, a: GateId, b: GateId) -> GateId {
        self.add_gate(GateKind::Xor, &[a, b])
    }

    /// Convenience: adds a MAJ gate.
    pub fn maj(&mut self, a: GateId, b: GateId, c: GateId) -> GateId {
        self.add_gate(GateKind::Maj, &[a, b, c])
    }

    /// Convenience: adds a MUX gate (`sel ? t : e`).
    pub fn mux(&mut self, sel: GateId, t: GateId, e: GateId) -> GateId {
        self.add_gate(GateKind::Mux, &[sel, t, e])
    }

    /// Declares `gate` as the primary output called `name`.
    pub fn set_output(&mut self, name: impl Into<String>, gate: GateId) {
        assert!(gate.index() < self.kinds.len(), "output gate must exist");
        self.outputs.push((name.into(), gate));
    }

    /// The gate with the given id.
    pub fn gate(&self, id: GateId) -> Gate<'_> {
        let i = id.index();
        Gate {
            kind: self.kinds[i],
            fanins: &self.fanins[self.fanin_start[i] as usize..self.fanin_start[i + 1] as usize],
        }
    }

    /// Total number of gates in the arena (including inputs and constants).
    pub fn num_gates(&self) -> usize {
        self.kinds.len()
    }

    /// Total number of fanin references over all gates.
    pub(crate) fn num_fanins(&self) -> usize {
        self.fanins.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Primary input ids in declaration order.
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary input names in declaration order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// The name of input `i`.
    pub fn input_name(&self, i: usize) -> &str {
        &self.input_names[i]
    }

    /// Primary outputs as `(name, gate)` pairs.
    pub fn outputs(&self) -> &[(String, GateId)] {
        &self.outputs
    }

    /// Iterates over all `(id, gate)` pairs in arena (= topological) order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, Gate<'_>)> {
        self.kinds
            .iter()
            .zip(self.fanin_start.windows(2))
            .enumerate()
            .map(|(i, (&kind, w))| {
                let fanins = &self.fanins[w[0] as usize..w[1] as usize];
                (GateId(i as u32), Gate { kind, fanins })
            })
    }

    /// Evaluates all outputs under a boolean input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != num_inputs()`.
    pub fn eval(&self, assignment: &[bool]) -> Vec<bool> {
        assert_eq!(assignment.len(), self.num_inputs());
        let mut values = vec![false; self.num_gates()];
        let mut input_iter = assignment.iter();
        let mut vals = Vec::new();
        for (id, g) in self.iter() {
            values[id.index()] = match g.kind {
                GateKind::Input => *input_iter.next().expect("one value per input"),
                kind => {
                    vals.clear();
                    vals.extend(g.fanins.iter().map(|f| values[f.index()]));
                    kind.eval(&vals)
                }
            };
        }
        self.outputs
            .iter()
            .map(|&(_, g)| values[g.index()])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Network {
        let mut net = Network::new("fa");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("cin");
        let s1 = net.xor(a, b);
        let sum = net.xor(s1, c);
        let carry = net.maj(a, b, c);
        net.set_output("sum", sum);
        net.set_output("cout", carry);
        net
    }

    #[test]
    fn full_adder_truth() {
        let net = full_adder();
        for i in 0..8u32 {
            let assignment = [(i & 1) == 1, (i >> 1) & 1 == 1, (i >> 2) & 1 == 1];
            let ones = assignment.iter().filter(|&&v| v).count();
            let out = net.eval(&assignment);
            assert_eq!(out[0], ones % 2 == 1, "sum for {assignment:?}");
            assert_eq!(out[1], ones >= 2, "cout for {assignment:?}");
        }
    }

    #[test]
    fn constants_are_shared() {
        let mut net = Network::new("c");
        let z1 = net.constant(false);
        let z2 = net.constant(false);
        let o1 = net.constant(true);
        assert_eq!(z1, z2);
        assert_ne!(z1, o1);
    }

    #[test]
    fn variadic_gates() {
        let mut net = Network::new("wide");
        let ins: Vec<GateId> = (0..5).map(|i| net.add_input(format!("x{i}"))).collect();
        let and = net.add_gate(GateKind::And, &ins);
        let xor = net.add_gate(GateKind::Xor, &ins);
        net.set_output("a", and);
        net.set_output("x", xor);
        assert_eq!(net.eval(&[true; 5]), vec![true, true]);
        assert_eq!(
            net.eval(&[true, true, true, true, false]),
            vec![false, false]
        );
    }

    #[test]
    fn eval_words_matches_eval() {
        for kind in [
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Maj,
            GateKind::Mux,
        ] {
            for bits in 0..8u32 {
                let vals = [bits & 1 == 1, bits >> 1 & 1 == 1, bits >> 2 & 1 == 1];
                let n = kind.arity().unwrap_or(2);
                let words: Vec<u64> = vals[..n]
                    .iter()
                    .map(|&b| if b { u64::MAX } else { 0 })
                    .collect();
                let scalar = kind.eval(&vals[..n]);
                let word = kind.eval_words(&words);
                assert_eq!(word == u64::MAX, scalar, "{kind:?} {vals:?}");
                assert!(word == 0 || word == u64::MAX);
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn fanin_must_exist() {
        let mut net = Network::new("bad");
        let a = net.add_input("a");
        net.add_gate(GateKind::Not, &[GateId::from_index(a.index() + 7)]);
    }

    #[test]
    #[should_panic(expected = "expects 3 fanins")]
    fn arity_checked() {
        let mut net = Network::new("bad");
        let a = net.add_input("a");
        net.add_gate(GateKind::Maj, &[a, a]);
    }
}
