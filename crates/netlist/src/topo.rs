//! Topological utilities over [`Network`]s.

use crate::{GateId, GateKind, Network};

impl Network {
    /// Logic level of every gate: inputs and constants are level 0, any
    /// other gate is one more than its deepest fanin. Buffers and inverters
    /// are transparent (level of their fanin), matching how synthesis tools
    /// count logic depth on inverter-free representations.
    pub fn levels(&self) -> Vec<u32> {
        let mut levels = vec![0u32; self.num_gates()];
        for (id, gate) in self.iter() {
            levels[id.index()] = match gate.kind() {
                GateKind::Input | GateKind::Const0 | GateKind::Const1 => 0,
                GateKind::Buf | GateKind::Not => levels[gate.fanins()[0].index()],
                _ => {
                    gate.fanins()
                        .iter()
                        .map(|f| levels[f.index()])
                        .max()
                        .unwrap_or(0)
                        + 1
                }
            };
        }
        levels
    }

    /// Depth of the network: the maximum level over all primary outputs.
    pub fn depth(&self) -> u32 {
        let levels = self.levels();
        self.outputs()
            .iter()
            .map(|&(_, g)| levels[g.index()])
            .max()
            .unwrap_or(0)
    }

    /// Number of logic gates (excluding inputs, constants and buffers;
    /// inverters are counted separately by [`Network::num_inverters`]).
    pub fn num_logic_gates(&self) -> usize {
        self.iter()
            .filter(|(_, g)| g.kind().is_logic() && g.kind() != GateKind::Not)
            .count()
    }

    /// Number of inverters.
    pub fn num_inverters(&self) -> usize {
        self.iter()
            .filter(|(_, g)| g.kind() == GateKind::Not)
            .count()
    }

    /// Marks every gate reachable from the outputs (transitive fanin).
    pub fn reachable(&self) -> Vec<bool> {
        let mut mark = vec![false; self.num_gates()];
        let mut stack: Vec<GateId> = self.outputs().iter().map(|&(_, g)| g).collect();
        while let Some(id) = stack.pop() {
            if mark[id.index()] {
                continue;
            }
            mark[id.index()] = true;
            stack.extend(self.gate(id).fanins().iter().copied());
        }
        mark
    }

    /// Returns a copy of the network with unreachable gates removed and
    /// buffers bypassed. Primary inputs are always retained (a circuit
    /// keeps its interface even if an input is unused).
    pub fn sweep(&self) -> Network {
        let mark = self.reachable();
        let mut out = Network::new(self.name().to_string());
        // Old id → new id; only entries of kept gates are ever read.
        let mut map: Vec<GateId> = Vec::with_capacity(self.num_gates());
        let mut next_input = 0;
        for (id, gate) in self.iter() {
            let new = match gate.kind() {
                GateKind::Input => {
                    next_input += 1;
                    out.add_input(self.input_name(next_input - 1).to_string())
                }
                _ if !mark[id.index()] => GateId(u32::MAX),
                GateKind::Buf => map[gate.fanins()[0].index()],
                kind => {
                    let fanins: Vec<GateId> =
                        gate.fanins().iter().map(|f| map[f.index()]).collect();
                    out.add_gate(kind, &fanins)
                }
            };
            map.push(new);
        }
        for (name, g) in self.outputs() {
            out.set_output(name.clone(), map[g.index()]);
        }
        out
    }

    /// Fanout count of every gate (number of gate fanins referencing it,
    /// plus one per primary output driven).
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_gates()];
        for (_, gate) in self.iter() {
            for f in gate.fanins() {
                counts[f.index()] += 1;
            }
        }
        for &(_, g) in self.outputs() {
            counts[g.index()] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    #[test]
    fn levels_and_depth() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let n1 = net.and(a, b);
        let n2 = net.not(n1);
        let n3 = net.or(n2, a);
        net.set_output("y", n3);
        let levels = net.levels();
        assert_eq!(levels[n1.index()], 1);
        assert_eq!(levels[n2.index()], 1, "inverters are transparent");
        assert_eq!(levels[n3.index()], 2);
        assert_eq!(net.depth(), 2);
    }

    #[test]
    fn sweep_removes_dangling() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let used = net.and(a, b);
        let _dead = net.xor(a, b);
        net.set_output("y", used);
        let swept = net.sweep();
        assert_eq!(swept.num_logic_gates(), 1);
        assert_eq!(swept.num_inputs(), 2, "interface preserved");
        assert_eq!(swept.eval(&[true, true]), vec![true]);
        assert_eq!(swept.eval(&[true, false]), vec![false]);
    }

    #[test]
    fn sweep_bypasses_buffers() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let buf = net.add_gate(GateKind::Buf, &[a]);
        let n = net.not(buf);
        net.set_output("y", n);
        let swept = net.sweep();
        assert_eq!(swept.num_inverters(), 1);
        assert_eq!(
            swept
                .iter()
                .filter(|(_, g)| g.kind() == GateKind::Buf)
                .count(),
            0
        );
        assert_eq!(swept.eval(&[false]), vec![true]);
    }

    #[test]
    fn fanout_counting() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let n1 = net.and(a, b);
        let n2 = net.or(n1, a);
        net.set_output("y", n2);
        net.set_output("z", n1);
        let fo = net.fanout_counts();
        assert_eq!(fo[a.index()], 2);
        assert_eq!(fo[n1.index()], 2); // used by n2 and output z
        assert_eq!(fo[n2.index()], 1);
    }
}
