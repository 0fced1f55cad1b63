//! Conversions between [`Mig`] and the generic gate-level [`Network`].
//!
//! Importing a network performs the AOIG → MIG transposition of the paper
//! (Theorem 3.1): `AND(a,b) = M(a,b,0)` and `OR(a,b) = M(a,b,1)`, with
//! inverters becoming complemented edges. Exporting produces a network of
//! MAJ gates (AND/OR where a fanin is constant) plus explicit inverters.

use crate::{Mig, Signal};
use mig_netlist::{GateId, GateKind, Network};

impl Mig {
    /// Imports a gate-level network, transposing every Boolean primitive
    /// into majority nodes.
    ///
    /// # Panics
    ///
    /// Panics if the network contains gates with malformed fanin counts
    /// (cannot happen for networks built through the public API).
    pub fn from_network(net: &Network) -> Mig {
        // Pre-size the arena and strash from the gate count: XOR/MUX
        // primitives expand to up to three majority nodes each, so 2×
        // covers the transposition without doubling storms on
        // million-gate imports.
        let mut mig = Mig::with_capacity(
            net.name().to_string(),
            net.num_inputs(),
            net.num_logic_gates() * 2,
        );
        // Signal of every gate, by gate index.
        let mut map: Vec<Signal> = vec![Signal::FALSE; net.num_gates()];
        for (i, &id) in net.inputs().iter().enumerate() {
            map[id.index()] = mig.add_input(net.input_name(i).to_string());
        }
        for (id, gate) in net.iter() {
            let fanins = gate.fanins();
            let f = |i: usize| map[fanins[i].index()];
            let fold = |mig: &mut Mig, op: fn(&mut Mig, Signal, Signal) -> Signal| {
                fanins[1..]
                    .iter()
                    .fold(f(0), |acc, x| op(mig, acc, map[x.index()]))
            };
            let s = match gate.kind() {
                GateKind::Input => continue,
                GateKind::Const0 => Signal::FALSE,
                GateKind::Const1 => Signal::TRUE,
                GateKind::Buf => f(0),
                GateKind::Not => !f(0),
                GateKind::And => fold(&mut mig, Mig::and),
                GateKind::Or => fold(&mut mig, Mig::or),
                GateKind::Xor => fold(&mut mig, Mig::xor),
                GateKind::Xnor => !mig.xor(f(0), f(1)),
                GateKind::Nand => !mig.and(f(0), f(1)),
                GateKind::Nor => !mig.or(f(0), f(1)),
                GateKind::Mux => mig.mux(f(0), f(1), f(2)),
                GateKind::Maj => mig.maj(f(0), f(1), f(2)),
            };
            map[id.index()] = s;
        }
        for (name, gate) in net.outputs() {
            mig.add_output(name.clone(), map[gate.index()]);
        }
        mig
    }

    /// Exports the MIG as a gate-level network of MAJ gates, using AND/OR
    /// where one fanin is constant, and explicit NOT gates for complemented
    /// edges.
    pub fn to_network(&self) -> Network {
        let mut net = Network::new(self.name().to_string());
        let mut node_map: Vec<Option<GateId>> = vec![None; self.num_nodes()];
        // The NOT gate over each gate, by gate index, created on first use.
        let mut inverters: Vec<Option<GateId>> = Vec::new();
        for i in 0..self.num_inputs() {
            node_map[i + 1] = Some(net.add_input(self.input_name(i).to_string()));
        }
        let mark = self.reach_ref();

        fn resolve(
            net: &mut Network,
            node_map: &[Option<GateId>],
            inverters: &mut Vec<Option<GateId>>,
            s: Signal,
        ) -> GateId {
            let base = if s.is_constant() {
                // Constants may not be pre-mapped; create on demand.
                net.constant(false)
            } else {
                node_map[s.node().index()].expect("children precede parents")
            };
            if !s.is_complemented() {
                return base;
            }
            if inverters.len() <= base.index() {
                inverters.resize(net.num_gates(), None);
            }
            *inverters[base.index()].get_or_insert_with(|| net.not(base))
        }

        for node in self.gate_ids() {
            if !mark[node.index()] {
                continue;
            }
            let [a, b, c] = self.children(node);
            // Render AND/OR shapes with constant fanins as 2-input gates.
            let consts = [a, b, c].iter().filter(|s| s.is_constant()).count();
            let id = if consts == 1 {
                let mut others = [a, b, c].into_iter().filter(|s| !s.is_constant());
                let x = others.next().expect("two non-constant fanins");
                let y = others.next().expect("two non-constant fanins");
                let constant = [a, b, c]
                    .into_iter()
                    .find(|s| s.is_constant())
                    .expect("one constant fanin");
                let gx = resolve(&mut net, &node_map, &mut inverters, x);
                let gy = resolve(&mut net, &node_map, &mut inverters, y);
                if constant == Signal::FALSE {
                    net.and(gx, gy)
                } else {
                    net.or(gx, gy)
                }
            } else {
                let ga = resolve(&mut net, &node_map, &mut inverters, a);
                let gb = resolve(&mut net, &node_map, &mut inverters, b);
                let gc = resolve(&mut net, &node_map, &mut inverters, c);
                net.maj(ga, gb, gc)
            };
            node_map[node.index()] = Some(id);
        }
        for (name, s) in self.outputs() {
            let id = resolve(&mut net, &node_map, &mut inverters, *s);
            net.set_output(name.clone(), id);
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mig_netlist::parse_verilog;

    fn check_equal(net: &Network, mig: &Mig) {
        assert_eq!(
            mig_sim::output_truth_tables(net),
            mig_sim::output_truth_tables(&mig.to_network())
        );
    }

    #[test]
    fn deep_chains_convert_on_a_small_stack() {
        // No walk between the two representations recurses: a 100 000-gate
        // chain converts both ways, and is hashed and swept for
        // reachability, on a 256 KiB stack.
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let mut net = Network::new("chain");
                let a = net.add_input("a");
                let b = net.add_input("b");
                let mut x = a;
                for _ in 0..100_000 {
                    let g = net.and(x, b);
                    x = net.not(g);
                }
                net.set_output("y", x);
                assert_eq!(net.content_hash(), net.sweep().content_hash());
                let back = Mig::from_network(&net).to_network();
                assert!(mig_sim::equivalent(&net, &back, 1));
            })
            .expect("thread spawns")
            .join()
            .expect("conversion returns");
    }

    #[test]
    fn import_all_primitives() {
        let src = "module t(a,b,c,y0,y1,y2,y3,y4,y5,y6,y7);\n\
            input a,b,c; output y0,y1,y2,y3,y4,y5,y6,y7;\n\
            assign y0 = a & b;\n\
            assign y1 = a | b;\n\
            assign y2 = a ^ b;\n\
            assign y3 = a ~^ b;\n\
            assign y4 = ~(a & b);\n\
            assign y5 = ~(a | b);\n\
            assign y6 = c ? a : b;\n\
            assign y7 = maj(a, b, c);\n\
            endmodule";
        let net = parse_verilog(src).expect("parses");
        let mig = Mig::from_network(&net);
        check_equal(&net, &mig);
    }

    #[test]
    fn fig1a_xor3_aoig_transposition() {
        // Paper Fig. 1(a): f = x ⊕ y ⊕ z from its optimal AOIG.
        let src = "module f(x,y,z,f); input x,y,z; output f;\n\
            wire xy; assign xy = x ^ y; assign f = xy ^ z; endmodule";
        let net = parse_verilog(src).expect("parses");
        let mig = Mig::from_network(&net);
        check_equal(&net, &mig);
        // Two XORs cost 3 MIG nodes each in the AOIG transposition.
        assert_eq!(mig.size(), 6);
    }

    #[test]
    fn fig1b_shared_and_or() {
        // Paper Fig. 1(b): g = x(y + uv).
        let src = "module g(x,y,u,v,g); input x,y,u,v; output g;\n\
            assign g = x & (y | (u & v)); endmodule";
        let net = parse_verilog(src).expect("parses");
        let mig = Mig::from_network(&net);
        check_equal(&net, &mig);
        assert_eq!(mig.size(), 3, "three AOIG gates → three MIG nodes");
        assert_eq!(mig.depth(), 3);
    }

    #[test]
    fn export_round_trip() {
        let mut mig = Mig::new("rt");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let m = mig.maj(a, !b, c);
        let x = mig.xor(m, a);
        mig.add_output("y", !x);
        mig.add_output("z", m);
        let net = mig.to_network();
        check_equal(&net, &mig);
        let back = Mig::from_network(&net);
        assert!(mig.equiv(&back, 4));
    }

    #[test]
    fn export_uses_and_or_for_constant_fanins() {
        let mut mig = Mig::new("c");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let g = mig.and(a, b);
        let h = mig.or(g, b);
        mig.add_output("y", h);
        let net = mig.to_network();
        let kinds: Vec<GateKind> = net.iter().map(|(_, g)| g.kind()).collect();
        assert!(kinds.contains(&GateKind::And));
        assert!(kinds.contains(&GateKind::Or));
        assert!(!kinds.contains(&GateKind::Maj));
        check_equal(&net, &mig);
    }

    #[test]
    fn constant_output_exports() {
        let mut mig = Mig::new("k");
        let _a = mig.add_input("a");
        mig.add_output("zero", Signal::FALSE);
        mig.add_output("one", Signal::TRUE);
        let net = mig.to_network();
        assert_eq!(net.eval(&[false]), vec![false, true]);
        assert_eq!(net.eval(&[true]), vec![false, true]);
    }
}
