//! Writer emitting the structural Verilog subset.

use crate::{GateId, GateKind, Network};
use std::collections::{HashMap, HashSet};

/// Serializes a network as structural Verilog.
///
/// Primary inputs and outputs keep their names. Every other gate that an
/// output reaches becomes a wire named after its arena index, `_n<k>`;
/// only when a port already has such a name does the wire take trailing
/// `_`s until it is unique. Unreachable gates are not written. Majority
/// gates are emitted through the `maj(a,b,c)` intrinsic understood by
/// [`parse_verilog`](crate::parse_verilog) so that MIG structure survives a
/// round trip, and an escaped identifier (`\name`) is always followed by
/// a space, which ends it. The text is built in one pre-sized buffer.
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
    let reachable = net.reachable();
    let names = Names::new(net, &reachable);
    let wires: Vec<GateId> = net
        .iter()
        .filter(|&(id, g)| g.kind() != GateKind::Input && reachable[id.index()])
        .map(|(id, _)| id)
        .collect();

    let ports = net
        .input_names()
        .iter()
        .chain(net.outputs().iter().map(|(n, _)| n));
    let port_bytes: usize = ports.clone().map(|n| n.len() + 3).sum();
    let name_bytes = 4 + net.num_gates().to_string().len();
    let mut out = String::with_capacity(
        64 + net.name().len()
            + 3 * port_bytes
            + wires.len() * (2 * name_bytes + 24)
            + net.num_fanins() * (name_bytes + 3),
    );

    out.push_str("module ");
    out.push_str(net.name());
    out.push_str(" (");
    for (i, name) in ports.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_name(&mut out, name);
    }
    out.push_str(");\n");
    if !net.input_names().is_empty() {
        out.push_str("  input ");
        for (i, name) in net.input_names().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_name(&mut out, name);
        }
        out.push_str(";\n");
    }
    if !net.outputs().is_empty() {
        out.push_str("  output ");
        for (i, (name, _)) in net.outputs().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_name(&mut out, name);
        }
        out.push_str(";\n");
    }
    for chunk in wires.chunks(20) {
        out.push_str("  wire ");
        for (i, &id) in chunk.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            names.push(&mut out, id);
        }
        out.push_str(";\n");
    }

    for &id in &wires {
        out.push_str("  assign ");
        names.push(&mut out, id);
        out.push_str(" = ");
        let gate = net.gate(id);
        let f = gate.fanins();
        let operands = |out: &mut String, parts: &[&str]| {
            // `parts` interleaves the fanins with the text around them.
            for (i, &fanin) in f.iter().enumerate() {
                out.push_str(parts[i]);
                names.push(out, fanin);
            }
            out.push_str(parts[f.len()]);
        };
        match gate.kind() {
            GateKind::Const0 => out.push_str("1'b0"),
            GateKind::Const1 => out.push_str("1'b1"),
            GateKind::Input => unreachable!("inputs are not assigned"),
            GateKind::Buf => operands(&mut out, &["", ""]),
            GateKind::Not => operands(&mut out, &["~", ""]),
            kind @ (GateKind::And | GateKind::Or | GateKind::Xor) => {
                let sep = match kind {
                    GateKind::And => " & ",
                    GateKind::Or => " | ",
                    _ => " ^ ",
                };
                for (i, &fanin) in f.iter().enumerate() {
                    if i > 0 {
                        out.push_str(sep);
                    }
                    names.push(&mut out, fanin);
                }
            }
            GateKind::Xnor => operands(&mut out, &["", " ~^ ", ""]),
            GateKind::Nand => operands(&mut out, &["~(", " & ", ")"]),
            GateKind::Nor => operands(&mut out, &["~(", " | ", ")"]),
            GateKind::Mux => operands(&mut out, &["", " ? ", " : ", ""]),
            GateKind::Maj => operands(&mut out, &["maj(", ", ", ", ", ")"]),
        }
        out.push_str(";\n");
    }
    let mut driver = String::new();
    for (name, gate) in net.outputs() {
        // Outputs driven directly by an input or by an internal wire of a
        // different name need a connecting assign.
        driver.clear();
        names.push(&mut driver, *gate);
        if driver.strip_suffix(' ').unwrap_or(&driver) != name {
            out.push_str("  assign ");
            push_name(&mut out, name);
            out.push_str(" = ");
            out.push_str(&driver);
            out.push_str(";\n");
        }
    }
    out.push_str("endmodule\n");
    out
}

/// Appends a port name; an escaped identifier runs to the next
/// whitespace, so it gets a space that ends it.
fn push_name(out: &mut String, name: &str) {
    out.push_str(name);
    if name.starts_with('\\') {
        out.push(' ');
    }
}

/// Appends `v` in decimal.
fn push_decimal(out: &mut String, mut v: usize) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// True for names of the form `_n<digits>_*`, the only port names a
/// generated wire name can equal.
fn is_wire_form(name: &str) -> bool {
    let Some(rest) = name.strip_prefix("_n") else {
        return false;
    };
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    digits > 0 && rest[digits..].bytes().all(|b| b == b'_')
}

const NOT_INPUT: u32 = u32::MAX;

/// The name of every gate the writer mentions.
struct Names<'a> {
    net: &'a Network,
    /// Position in the input list of each input gate, [`NOT_INPUT`] for
    /// the other gates.
    input_pos: Vec<u32>,
    /// Trailing `_`s of the wires whose `_n<k>` a port already uses.
    suffix: HashMap<GateId, usize>,
}

impl<'a> Names<'a> {
    fn new(net: &'a Network, reachable: &[bool]) -> Self {
        let mut input_pos = vec![NOT_INPUT; net.num_gates()];
        for (i, id) in net.inputs().iter().enumerate() {
            input_pos[id.index()] = i as u32;
        }
        let taken: HashSet<&str> = net
            .input_names()
            .iter()
            .chain(net.outputs().iter().map(|(n, _)| n))
            .map(String::as_str)
            .filter(|n| is_wire_form(n))
            .collect();
        let mut suffix = HashMap::new();
        if !taken.is_empty() {
            for (id, g) in net.iter() {
                if g.kind() == GateKind::Input || !reachable[id.index()] {
                    continue;
                }
                let mut name = format!("_n{}", id.index());
                while taken.contains(name.as_str()) {
                    name.push('_');
                }
                let extra = name.len() - 2 - id.index().to_string().len();
                if extra > 0 {
                    suffix.insert(id, extra);
                }
            }
        }
        Names {
            net,
            input_pos,
            suffix,
        }
    }

    fn push(&self, out: &mut String, id: GateId) {
        match self.input_pos[id.index()] {
            NOT_INPUT => {
                out.push_str("_n");
                push_decimal(out, id.index());
                if !self.suffix.is_empty() {
                    let n = self.suffix.get(&id).copied().unwrap_or(0);
                    out.extend(std::iter::repeat_n('_', n));
                }
            }
            pos => push_name(out, self.net.input_name(pos as usize)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_verilog;

    #[test]
    fn writes_all_gate_kinds() {
        let mut net = Network::new("kinds");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let gates = vec![
            net.add_gate(GateKind::And, &[a, b]),
            net.add_gate(GateKind::Or, &[a, b]),
            net.add_gate(GateKind::Xor, &[a, b]),
            net.add_gate(GateKind::Xnor, &[a, b]),
            net.add_gate(GateKind::Nand, &[a, b]),
            net.add_gate(GateKind::Nor, &[a, b]),
            net.add_gate(GateKind::Mux, &[a, b, c]),
            net.add_gate(GateKind::Maj, &[a, b, c]),
            net.add_gate(GateKind::Not, &[a]),
        ];
        for (i, g) in gates.iter().enumerate() {
            net.set_output(format!("y{i}"), *g);
        }
        let text = write_verilog(&net);
        let back = parse_verilog(&text).expect("round trip");
        for bits in 0..8u32 {
            let assignment = [(bits & 1) == 1, (bits >> 1) & 1 == 1, (bits >> 2) & 1 == 1];
            assert_eq!(net.eval(&assignment), back.eval(&assignment));
        }
    }

    #[test]
    fn output_fed_by_input_gets_assign() {
        let mut net = Network::new("thru");
        let a = net.add_input("a");
        net.set_output("y", a);
        let text = write_verilog(&net);
        assert!(text.contains("assign y = a;"));
        let back = parse_verilog(&text).expect("parses");
        assert_eq!(back.eval(&[true]), vec![true]);
    }

    #[test]
    fn name_collisions_avoided() {
        let mut net = Network::new("clash");
        let a = net.add_input("_n1"); // collides with generated wire pattern
        let n = net.not(a);
        net.set_output("y", n);
        let text = write_verilog(&net);
        let back = parse_verilog(&text).expect("parses");
        assert_eq!(back.eval(&[false]), vec![true]);
    }

    #[test]
    fn escaped_names_survive_a_round_trip() {
        // An escaped identifier runs to whitespace, so `\\a,` would
        // swallow the comma: every escaped name must end with a space.
        let src = "module t(\\a , y); input \\a ; output y; assign y = ~\\a ; endmodule";
        let net = parse_verilog(src).expect("parses");
        let text = write_verilog(&net);
        let back = parse_verilog(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(back.input_names(), ["\\a"]);
        assert_eq!(back.outputs()[0].0, "y");
        assert_eq!(back.eval(&[false]), vec![true]);
        // Escaped output names, and an output wired straight to an input.
        let mut net = Network::new("esc");
        let a = net.add_input("\\in[0]");
        let n = net.not(a);
        net.set_output("\\out[0]", n);
        net.set_output("\\out[1]", a);
        let back = parse_verilog(&write_verilog(&net)).expect("re-parses");
        assert_eq!(back.outputs()[1].0, "\\out[1]");
        assert_eq!(back.eval(&[true]), vec![false, true]);
    }

    #[test]
    fn wire_names_skip_only_the_ports_that_take_them() {
        let mut net = Network::new("clash");
        let a = net.add_input("_n1");
        let b = net.add_input("_n3");
        let x = net.and(a, b); // gate 2: `_n2` is taken
        let y = net.not(x); // gate 3: `_n3` and `_n3_` are taken
        net.set_output("_n2", y);
        net.set_output("_n3_", x);
        let text = write_verilog(&net);
        assert!(text.contains("  wire _n2_, _n3__;\n"), "{text}");
        assert!(text.contains("  assign _n2 = _n3__;\n"), "{text}");
        assert!(text.contains("  assign _n3_ = _n2_;\n"), "{text}");
        let back = parse_verilog(&text).expect("parses");
        assert_eq!(back.eval(&[true, true]), vec![false, true]);
    }

    #[test]
    fn constants_serialize() {
        let mut net = Network::new("c");
        let one = net.constant(true);
        let a = net.add_input("a");
        let g = net.and(a, one);
        net.set_output("y", g);
        let text = write_verilog(&net);
        assert!(text.contains("1'b1"));
        let back = parse_verilog(&text).expect("parses");
        assert_eq!(back.eval(&[true]), vec![true]);
    }
}
