//! The writer of the structural Verilog subset as it was before the
//! index-named writer: kept verbatim as the reference the lockstep tests
//! compare the production writer against.

use mig_netlist::{GateId, GateKind, Network};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// Serializes a network as structural Verilog.
///
/// Internal gates get fresh `_n<k>` wire names; majority gates are emitted
/// through the `maj(a,b,c)` intrinsic understood by
/// [`parse_verilog`](crate::parse_verilog) so that MIG structure survives a
/// round trip.
///
/// # Example
///
/// ```
/// use mig_netlist::{Network, parse_verilog, write_verilog};
///
/// let mut net = Network::new("buf2");
/// let a = net.add_input("a");
/// let n = net.not(a);
/// net.set_output("y", n);
/// let text = write_verilog(&net);
/// let back = parse_verilog(&text)?;
/// assert_eq!(back.eval(&[false]), vec![true]);
/// # Ok::<(), mig_netlist::VerilogError>(())
/// ```
pub fn write_verilog(net: &Network) -> String {
    let mut used: HashSet<String> = net.input_names().iter().cloned().collect();
    used.extend(net.outputs().iter().map(|(n, _)| n.clone()));

    // Assign a wire name to every referenced internal gate.
    let reachable = net.reachable();
    let mut names: HashMap<GateId, String> = HashMap::new();
    for (i, &id) in net.inputs().iter().enumerate() {
        names.insert(id, net.input_name(i).to_string());
    }
    let mut wires = Vec::new();
    for (id, gate) in net.iter() {
        if gate.kind() == GateKind::Input || !reachable[id.index()] {
            continue;
        }
        let mut name = format!("_n{}", id.index());
        while used.contains(&name) {
            name.push('_');
        }
        used.insert(name.clone());
        names.insert(id, name.clone());
        wires.push(name);
    }

    let mut out = String::new();
    let mut ports: Vec<&str> = net.input_names().iter().map(String::as_str).collect();
    ports.extend(net.outputs().iter().map(|(n, _)| n.as_str()));
    let _ = writeln!(out, "module {} ({});", net.name(), ports.join(", "));
    if !net.input_names().is_empty() {
        let _ = writeln!(out, "  input {};", net.input_names().join(", "));
    }
    if !net.outputs().is_empty() {
        let names: Vec<&str> = net.outputs().iter().map(|(n, _)| n.as_str()).collect();
        let _ = writeln!(out, "  output {};", names.join(", "));
    }
    if !wires.is_empty() {
        for chunk in wires.chunks(20) {
            let _ = writeln!(out, "  wire {};", chunk.join(", "));
        }
    }

    for (id, gate) in net.iter() {
        if gate.kind() == GateKind::Input || !reachable[id.index()] {
            continue;
        }
        let expr = gate_expr(net, id, &names);
        let _ = writeln!(out, "  assign {} = {};", names[&id], expr);
    }
    for (name, gate) in net.outputs() {
        // Outputs driven directly by an input or by an internal wire of a
        // different name need a connecting assign.
        if names[gate] != *name {
            let _ = writeln!(out, "  assign {} = {};", name, names[gate]);
        }
    }
    let _ = writeln!(out, "endmodule");
    out
}

fn gate_expr(net: &Network, id: GateId, names: &HashMap<GateId, String>) -> String {
    let gate = net.gate(id);
    let f = |i: usize| names[&gate.fanins()[i]].clone();
    let joined = |sep: &str| {
        gate.fanins()
            .iter()
            .map(|g| names[g].clone())
            .collect::<Vec<_>>()
            .join(sep)
    };
    match gate.kind() {
        GateKind::Const0 => "1'b0".to_string(),
        GateKind::Const1 => "1'b1".to_string(),
        GateKind::Input => unreachable!("inputs are not assigned"),
        GateKind::Buf => f(0),
        GateKind::Not => format!("~{}", f(0)),
        GateKind::And => joined(" & "),
        GateKind::Or => joined(" | "),
        GateKind::Xor => joined(" ^ "),
        GateKind::Xnor => format!("{} ~^ {}", f(0), f(1)),
        GateKind::Nand => format!("~({} & {})", f(0), f(1)),
        GateKind::Nor => format!("~({} | {})", f(0), f(1)),
        GateKind::Mux => format!("{} ? {} : {}", f(0), f(1), f(2)),
        GateKind::Maj => format!("maj({}, {}, {})", f(0), f(1), f(2)),
    }
}
