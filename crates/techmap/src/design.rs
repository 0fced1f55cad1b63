//! Mapped (cell-level) designs and their {area, delay, power} estimators.

use crate::library::CellLibrary;
use mig_netlist::{GateId, GateKind, Network};
use mig_sim::signal_probabilities;
use mig_tt::{factor_sop, isop, FactoredForm, TruthTable};

/// A net in a [`MappedDesign`]: primary-input nets come first, then the
/// two constant nets, then one net per instance output.
pub type NetId = u32;

/// One placed cell.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Index into the library's cell list.
    pub cell: usize,
    /// Input nets, in cell-pin order.
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
}

/// A technology-mapped netlist over a [`CellLibrary`].
#[derive(Debug, Clone)]
pub struct MappedDesign {
    /// The library the design is mapped onto.
    pub library: CellLibrary,
    /// Design name.
    pub name: String,
    /// Primary-input names (nets `0..input_names.len()`).
    pub input_names: Vec<String>,
    /// Cell instances in topological order.
    pub instances: Vec<Instance>,
    /// Primary outputs as `(name, net)`.
    pub outputs: Vec<(String, NetId)>,
}

impl MappedDesign {
    /// Net id of primary input `i`.
    pub fn input_net(&self, i: usize) -> NetId {
        i as NetId
    }

    /// Net id of constant `false` / `true`.
    pub fn const_net(&self, value: bool) -> NetId {
        (self.input_names.len() + value as usize) as NetId
    }

    /// Net id of instance `i`'s output.
    pub fn instance_net(&self, i: usize) -> NetId {
        (self.input_names.len() + 2 + i) as NetId
    }

    /// Total number of nets.
    pub fn num_nets(&self) -> usize {
        self.input_names.len() + 2 + self.instances.len()
    }

    /// Number of cell instances.
    pub fn num_cells(&self) -> usize {
        self.instances.len()
    }

    /// Total cell area in µm².
    pub fn area(&self) -> f64 {
        self.instances
            .iter()
            .map(|inst| self.library.cells[inst.cell].area)
            .sum()
    }

    /// Fanout count per net.
    fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_nets()];
        for inst in &self.instances {
            for &i in &inst.inputs {
                counts[i as usize] += 1;
            }
        }
        for &(_, n) in &self.outputs {
            counts[n as usize] += 1;
        }
        counts
    }

    /// Critical-path delay in ns: cell intrinsic delays plus a per-fanout
    /// wire/pin load term.
    pub fn delay(&self) -> f64 {
        let fanout = self.fanout_counts();
        let mut arrival = vec![0.0f64; self.num_nets()];
        for (i, inst) in self.instances.iter().enumerate() {
            let cell = &self.library.cells[inst.cell];
            let input_arr = inst
                .inputs
                .iter()
                .map(|&n| arrival[n as usize])
                .fold(0.0f64, f64::max);
            let out = self.instance_net(i) as usize;
            arrival[out] = input_arr + cell.delay + self.library.fanout_delay * fanout[out] as f64;
        }
        self.outputs
            .iter()
            .map(|&(_, n)| arrival[n as usize])
            .fold(0.0f64, f64::max)
    }

    /// Estimated power in µW: dynamic switching power
    /// `Σ p(1−p)·C_load·V²·f` over nets plus cell leakage.
    pub fn power(&self) -> f64 {
        let (net, gate_of_net) = self.build_network();
        let probs = signal_probabilities(&net, &vec![0.5; net.num_inputs()]);
        let mut cap = vec![0.0f64; self.num_nets()];
        for inst in &self.instances {
            let cell = &self.library.cells[inst.cell];
            for &i in &inst.inputs {
                cap[i as usize] += cell.input_cap;
            }
        }
        let mut dynamic = 0.0;
        for n in 0..self.num_nets() {
            let Some(gate) = gate_of_net[n] else { continue };
            let p = probs[gate.index()];
            let act = p * (1.0 - p);
            // fF · V² · GHz = µW
            dynamic += act * cap[n] * self.library.vdd * self.library.vdd * self.library.freq_ghz;
        }
        let leakage: f64 = self
            .instances
            .iter()
            .map(|inst| self.library.cells[inst.cell].leakage)
            .sum::<f64>()
            / 1000.0; // nW → µW
        dynamic + leakage
    }

    /// Converts the mapped design back into a primitive-gate network
    /// (used for verification and probability estimation).
    pub fn to_network(&self) -> Network {
        self.build_network().0
    }

    /// The primitive-gate network and the gate of every net.
    fn build_network(&self) -> (Network, Vec<Option<GateId>>) {
        let mut net = Network::new(self.name.clone());
        let mut gate_of: Vec<Option<GateId>> = vec![None; self.num_nets()];
        for (i, name) in self.input_names.iter().enumerate() {
            gate_of[i] = Some(net.add_input(name.clone()));
        }
        let c0 = net.constant(false);
        let c1 = net.constant(true);
        gate_of[self.const_net(false) as usize] = Some(c0);
        gate_of[self.const_net(true) as usize] = Some(c1);
        let mut fanins: Vec<GateId> = Vec::new();
        for (i, inst) in self.instances.iter().enumerate() {
            let cell = &self.library.cells[inst.cell];
            fanins.clear();
            fanins.extend(
                inst.inputs
                    .iter()
                    .map(|&n| gate_of[n as usize].expect("topological order")),
            );
            let g = build_cell_function(&mut net, &cell.function, &fanins);
            gate_of[self.instance_net(i) as usize] = Some(g);
        }
        for (name, n) in &self.outputs {
            net.set_output(name.clone(), gate_of[*n as usize].expect("driven net"));
        }
        (net, gate_of)
    }
}

/// Builds a cell's function as primitive gates over the given fanins.
/// Known cell functions map to single primitives; anything else is built
/// from its factored cover.
fn build_cell_function(net: &mut Network, f: &TruthTable, fanins: &[GateId]) -> GateId {
    let nv = f.num_vars();
    let single = |tt_bits: u64| f.num_vars() <= 3 && f.as_u64() == tt_bits;
    match nv {
        1 if single(0b01) => net.add_gate(GateKind::Not, &[fanins[0]]),
        1 if single(0b10) => net.add_gate(GateKind::Buf, &[fanins[0]]),
        2 if single(0b1000) => net.add_gate(GateKind::And, fanins),
        2 if single(0b1110) => net.add_gate(GateKind::Or, fanins),
        2 if single(0b0111) => net.add_gate(GateKind::Nand, fanins),
        2 if single(0b0001) => net.add_gate(GateKind::Nor, fanins),
        2 if single(0b0110) => net.add_gate(GateKind::Xor, fanins),
        2 if single(0b1001) => net.add_gate(GateKind::Xnor, fanins),
        3 if single(0xE8) => net.add_gate(GateKind::Maj, fanins),
        3 if single(0x17) => {
            let m = net.add_gate(GateKind::Maj, fanins);
            net.add_gate(GateKind::Not, &[m])
        }
        _ => {
            // Generic fallback: factored-cover construction.
            let ff = factor_sop(&isop(f));
            build_factored(net, &ff, fanins)
        }
    }
}

fn build_factored(net: &mut Network, ff: &FactoredForm, fanins: &[GateId]) -> GateId {
    match ff {
        FactoredForm::Const(v) => net.constant(*v),
        FactoredForm::Literal { var, positive } => {
            if *positive {
                fanins[*var]
            } else {
                net.add_gate(GateKind::Not, &[fanins[*var]])
            }
        }
        FactoredForm::And(parts) => {
            let gates: Vec<GateId> = parts
                .iter()
                .map(|p| build_factored(net, p, fanins))
                .collect();
            net.add_gate(GateKind::And, &gates)
        }
        FactoredForm::Or(parts) => {
            let gates: Vec<GateId> = parts
                .iter()
                .map(|p| build_factored(net, p, fanins))
                .collect();
            net.add_gate(GateKind::Or, &gates)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_design() -> MappedDesign {
        // y = MAJ3(a, b, INV(c))
        let lib = CellLibrary::cmos22();
        let inv = lib.inverter();
        let maj = lib
            .cells
            .iter()
            .position(|c| c.name == "MAJ3")
            .expect("cell exists");
        let mut d = MappedDesign {
            library: lib,
            name: "tiny".into(),
            input_names: vec!["a".into(), "b".into(), "c".into()],
            instances: vec![],
            outputs: vec![],
        };
        let c = d.input_net(2);
        d.instances.push(Instance {
            cell: inv,
            inputs: vec![c],
            output: d.instance_net(0),
        });
        let inv_net = d.instance_net(0);
        d.instances.push(Instance {
            cell: maj,
            inputs: vec![d.input_net(0), d.input_net(1), inv_net],
            output: d.instance_net(1),
        });
        let out = d.instance_net(1);
        d.outputs.push(("y".into(), out));
        d
    }

    #[test]
    fn metrics_are_positive_and_consistent() {
        let d = tiny_design();
        assert_eq!(d.num_cells(), 2);
        let expected_area =
            d.library.cells[d.instances[0].cell].area + d.library.cells[d.instances[1].cell].area;
        assert!((d.area() - expected_area).abs() < 1e-12);
        // Critical path: INV then MAJ3 with unit fanouts.
        let inv = &d.library.cells[d.instances[0].cell];
        let maj = &d.library.cells[d.instances[1].cell];
        let expect = inv.delay + d.library.fanout_delay + maj.delay + d.library.fanout_delay;
        assert!(
            (d.delay() - expect).abs() < 1e-9,
            "{} vs {expect}",
            d.delay()
        );
        assert!(d.power() > 0.0);
    }

    #[test]
    fn to_network_computes_the_function() {
        let d = tiny_design();
        let net = d.to_network();
        for bits in 0..8u32 {
            let assign = [(bits & 1) == 1, bits & 2 == 2, bits & 4 == 4];
            #[allow(clippy::nonminimal_bool)] // MAJ(a, b, !c) spelled as a sum of pairs
            let expect =
                (assign[0] && assign[1]) || (assign[0] && !assign[2]) || (assign[1] && !assign[2]);
            assert_eq!(net.eval(&assign), vec![expect], "bits {bits:03b}");
        }
    }

    #[test]
    fn generic_cell_fallback() {
        // A 3-input AND-OR cell not named in the primitive table.
        let mut net = Network::new("g");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let f = {
            let x = TruthTable::var(0, 3);
            let y = TruthTable::var(1, 3);
            let z = TruthTable::var(2, 3);
            x.and(&y).or(&z)
        };
        let g = build_cell_function(&mut net, &f, &[a, b, c]);
        net.set_output("y", g);
        for bits in 0..8u32 {
            let assign = [(bits & 1) == 1, bits & 2 == 2, bits & 4 == 4];
            let expect = (assign[0] && assign[1]) || assign[2];
            assert_eq!(net.eval(&assign)[0], expect);
        }
    }
}
