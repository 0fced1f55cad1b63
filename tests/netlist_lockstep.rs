//! Lockstep tests of the Verilog front and back end against the parser
//! and writer they replaced (`tests/netlist_reference/`, kept verbatim).
//!
//! For every input, both parsers must return an identical `Network`
//! (name, inputs and their names, every gate's kind and fanins in arena
//! order, outputs, `content_hash`) or an identical error (message, line,
//! column), and both writers must emit byte-identical text. The one
//! intended difference: the production writer ends every escaped port
//! name with a space, so for networks with such names the text must
//! instead re-parse to the same network.

#[path = "netlist_reference/parser.rs"]
mod reference_parser;
#[path = "netlist_reference/writer.rs"]
mod reference_writer;

use mig_core::Flow;
use mig_mighty::{run_flow_with, RunOptions};
use mig_netlist::{parse_verilog, write_verilog, Network, SplitMix64};

fn assert_same_network(a: &Network, b: &Network, what: &str) {
    assert_eq!(a.name(), b.name(), "{what}: module name");
    assert_eq!(a.inputs(), b.inputs(), "{what}: input ids");
    assert_eq!(a.input_names(), b.input_names(), "{what}: input names");
    assert_eq!(a.num_gates(), b.num_gates(), "{what}: gate count");
    for ((id, x), (_, y)) in a.iter().zip(b.iter()) {
        assert_eq!(x, y, "{what}: gate {id}");
    }
    assert_eq!(a.outputs(), b.outputs(), "{what}: outputs");
    assert_eq!(a.content_hash(), b.content_hash(), "{what}: content hash");
}

/// Parses `text` with both parsers and asserts they agree; returns the
/// network when both accept it.
fn parse_both(text: &str, what: &str) -> Option<Network> {
    match (parse_verilog(text), reference_parser::parse_verilog(text)) {
        (Ok(new), Ok(old)) => {
            assert_same_network(&new, &old, what);
            Some(new)
        }
        (Err(new), Err(old)) => {
            assert_eq!(
                (new.to_string(), new.line(), new.column()),
                (old.to_string(), old.line(), old.column()),
                "{what}: errors differ"
            );
            None
        }
        (new, old) => panic!("{what}: outcomes differ: {new:?} vs {old:?}"),
    }
}

/// Writes `net` with both writers and asserts the texts are identical,
/// or — for escaped port names — that the text re-parses to the
/// network's reachable part with every id in place.
fn write_both(net: &Network, what: &str) -> String {
    let text = write_verilog(net);
    let ports: Vec<&String> = net
        .input_names()
        .iter()
        .chain(net.outputs().iter().map(|(n, _)| n))
        .collect();
    if !ports.iter().any(|n| n.starts_with('\\')) {
        assert_eq!(
            text,
            reference_writer::write_verilog(net),
            "{what}: texts differ"
        );
        return text;
    }
    let mut unique = ports.clone();
    unique.sort();
    unique.dedup();
    if unique.len() == ports.len() {
        // Gates are created inputs first, then output cones, then
        // dangling cones; the writer drops only the dangling ones.
        let back = parse_verilog(&text).unwrap_or_else(|e| panic!("{what}: re-parse: {e}"));
        let reachable = net.reachable();
        let kept = (0..net.num_gates())
            .filter(|&i| reachable[i] || net.inputs().iter().any(|g| g.index() == i))
            .count();
        assert!(
            net.iter()
                .take(kept)
                .all(|(id, g)| reachable[id.index()] || g.kind() == mig_netlist::GateKind::Input),
            "{what}: dangling gates come last"
        );
        assert_eq!(back.num_gates(), kept, "{what}: re-parsed gate count");
        assert_eq!(back.input_names(), net.input_names(), "{what}: inputs");
        for ((id, x), (_, y)) in back.iter().zip(net.iter()) {
            assert_eq!(x, y, "{what}: re-parsed gate {id}");
        }
        assert_eq!(back.outputs(), net.outputs(), "{what}: re-parsed outputs");
    }
    text
}

fn optimized(net: &Network) -> Network {
    let flow = Flow::parse("size; rewrite").expect("flow parses");
    run_flow_with(net, &flow, 1, 1, 1, &RunOptions::default()).optimized
}

#[test]
fn benchgen_circuits_and_their_exports_match_the_reference() {
    let check = |name: &str| {
        let generated = mig_benchgen::generate(name).expect("known benchmark");
        let text = write_both(&generated, name);
        let parsed = parse_both(&text, name).expect("generated text parses");
        write_both(&parsed, name);
        let export = optimized(&parsed);
        let what = format!("{name} size; rewrite");
        let text = write_both(&export, &what);
        let parsed = parse_both(&text, &what).expect("exported text parses");
        write_both(&parsed, &what);
    };
    // Two workers: the flows dominate this test in a debug build.
    std::thread::scope(|s| {
        for half in mig_benchgen::MCNC_NAMES.chunks(7) {
            s.spawn(move || half.iter().for_each(|name| check(name)));
        }
    });
}

#[test]
fn mul_100k_matches_the_reference() {
    let generated = mig_benchgen::generate("mul_100k").expect("known benchmark");
    let text = write_both(&generated, "mul_100k");
    let parsed = parse_both(&text, "mul_100k").expect("generated text parses");
    write_both(&parsed, "mul_100k");
}

/// A small module exercising every token kind.
const CORPUS: &str = "module top(a, b, s, y, z); // ports\n\
                      input a, b, s;\n\
                      output y, z;\n\
                      wire w1, w2; /* internal ± nets */\n\
                      assign w1 = maj(a, b, 1'b0);\n\
                      assign w2 = s ? a : ~b;\n\
                      assign y = w1 ^ w2 | a & 1'b1;\n\
                      assign z = w1 ~^ w2;\n\
                      endmodule\n";

/// Escaped names, Unicode whitespace, ANSI ports, `^~`, a dangling
/// wire and out-of-order assigns.
const ESCAPED: &str = "module \\top$ (input \\a , b,\u{a0}output \\y , z);\n\
                       wire \\w[0] , d;\u{2003}/* é */\n\
                       assign z = \\w[0] ? (b | 1'b0) : ~\\a ;\n\
                       assign \\w[0] = \\a ^~ b;\n\
                       assign d = b & 0;\n\
                       assign \\y = maj(\\a , b, ~\\w[0] );\n\
                       endmodule";

/// Ports named like the writer's wires (`_n<k>`), which the wires of
/// gates 3 and 5 must step around.
const CLASHING: &str = "module t(_n2, _n3, _n3_, _n5, z);\n\
                        input _n2, _n3, _n3_;\n\
                        output _n5, z;\n\
                        assign z = _n2 & _n3 | _n3_;\n\
                        assign _n5 = ~z;\n\
                        endmodule\n";

/// Hand-written inputs: the parser unit tests' sources plus error cases
/// that reach every message.
const SOURCES: &[&str] = &[
    CORPUS,
    ESCAPED,
    CLASHING,
    "module t (a, b, y);\n input a, b;\n output y;\n assign y = a & b;\nendmodule\n",
    "module t(a,b,c,y); input a,b,c; output y; assign y = a | b & c ^ ~c; endmodule",
    "module t(a,y); input a; output y; wire w;\nassign y = w | a;\n assign w = ~a;\nendmodule",
    "module t(s,a,b,y,z); input s,a,b; output y,z;\nassign y = s ? a : b ? s : a;\n assign z = s ? a ? b : s : a;\nendmodule",
    "// c\nmodule t(a,y); /* block */ input a; output y;\nassign y = a & 1'b1 | 1'b0; // x\nendmodule",
    "module t(a,y); input a; output y; wire w;\nassign w = y; assign y = w & a; endmodule",
    "module t(a,y); input a; output y; wire w; assign y = w; endmodule",
    "module t(a,y); input a; output y;\nassign y = a; assign y = ~a; endmodule",
    "module t(a,y); input a; output y; assign a = y; endmodule",
    "module t(a,y); input a; output y; assign q = a; endmodule",
    "module t(a,y);\ninput a;\noutput y;\nassign y = a @ a;\nendmodule",
    "module t(a,y); input a; output y;\nassign y = a; /* é */ @\nendmodule",
    "module t(a,y); input a; input a; output y; assign y = a; endmodule",
    "module t(input a, input b, output y); assign y = a | b; endmodule",
    "module t(input a, output a); assign a = 1; endmodule",
    "module t(input a, a, output y, y); assign y = a; endmodule",
    "module t(a,y); input a; output y; assign y = a & 1'b; endmodule",
    "module t(a,y); input a; output y; assign y = a & 1'bx; endmodule",
    "module t(a,y); input a; output y; assign y = (a; endmodule",
    "module t(a,y); input a; output y; assign y = maj(a, a); endmodule",
    "module t(a,y); input a; output y; assign y = a ? a; endmodule",
    "module t(a,y); input a; output y; assign y = ; endmodule",
    "module t(a,y); input a; output y; assign y = a",
    "module t(a,y); input a; output y; assign y = a;",
    "module t(a,y); input a; output y; assign y = a; /* open",
    "module t(a,y); input a; output y; y = a; endmodule",
    "module t(a,y) input a; endmodule",
    "module (a); endmodule",
    "module",
    "",
    "   \n  ",
    "endmodule",
    "module t(\\a , y); input \\a ; output y; assign y = ~\\a ; endmodule",
    "module t(a, maj, y); input a, maj; output y; assign y = maj & a | maj; endmodule",
    "module t(a,y); input a; output y; assign y = 10 & a; endmodule",
    "module t(a,y); input a; output y; assign y = 2 & a; endmodule",
    "module t(a,y); input a; output y; assign y = a /b; endmodule",
    "module t(a,y); input a; output y; assign y = a$ & a; endmodule",
    "module t(a,y);\u{feff} input a; output y; assign y = a; endmodule",
];

#[test]
fn hand_written_sources_match_the_reference() {
    for (i, src) in SOURCES.iter().enumerate() {
        let what = format!("source {i}");
        if let Some(net) = parse_both(src, &what) {
            write_both(&net, &what);
        }
    }
}

/// `assign w1 = ~w0; …` chained `n` deep, declared and assigned in
/// reverse so elaboration must follow the chain.
fn assign_chain(n: usize) -> String {
    let mut s = String::from("module chain(w0, y); input w0; output y;\n");
    for i in 1..=n {
        s.push_str(&format!("wire w{i};\n"));
    }
    s.push_str(&format!("assign y = w{n};\n"));
    for i in (1..=n).rev() {
        s.push_str(&format!("assign w{i} = ~w{} & w0;\n", i - 1));
    }
    s.push_str("endmodule\n");
    s
}

fn nested(n: usize, open: &str, core: &str, close: &str) -> String {
    format!(
        "module deep(a, b, y); input a, b; output y;\nassign y = {}{core}{};\nendmodule\n",
        open.repeat(n),
        close.repeat(n)
    )
}

/// The deep-structure generators, at a depth the recursive reference
/// still handles.
fn deep_structures(n: usize) -> Vec<String> {
    vec![
        assign_chain(n),
        nested(n, "~", "a", ""),
        nested(n, "(", "a ^ b", ")"),
        nested(n, "a ? b : ", "a", ""),
        nested(n, "(a ? ", "b", " : a)"),
        nested(n, "maj(a, ~b, ", "a", ")"),
        nested(n, "~(b & ", "a", ")"),
    ]
}

#[test]
fn deep_structures_match_the_reference_at_small_depth() {
    for n in [1, 2, 7, 60] {
        for (i, src) in deep_structures(n).iter().enumerate() {
            let what = format!("deep structure {i} at depth {n}");
            let net = parse_both(src, &what).expect("deep structure parses");
            write_both(&net, &what);
        }
    }
}

/// One random edit of `text`: a byte overwritten, deleted or inserted
/// (biased to the subset's own characters), or a span deleted or
/// duplicated.
fn mutate(rng: &mut SplitMix64, text: &mut Vec<u8>) {
    const ALPHABET: &[u8] = b"()[];,=&|^~?:01'b\\/*\n \tamjw_$";
    let at = rng.gen_range(0..text.len().max(1));
    let byte = if rng.gen_range(0..2) == 0 {
        ALPHABET[rng.gen_range(0..ALPHABET.len())]
    } else {
        rng.next_u64() as u8
    };
    match rng.gen_range(0..5) {
        0 if at < text.len() => text[at] = byte,
        1 if at < text.len() => {
            text.remove(at);
        }
        2 => text.insert(at.min(text.len()), byte),
        3 => {
            let end = (at + rng.gen_range(1..12)).min(text.len());
            text.drain(at.min(end)..end);
        }
        _ => {
            let end = (at + rng.gen_range(1..12)).min(text.len());
            let span = text[at.min(end)..end].to_vec();
            let to = rng.gen_range(0..text.len() + 1);
            text.splice(to..to, span);
        }
    }
}

#[test]
fn mutation_corpus_matches_the_reference() {
    let adder = write_verilog(&mig_benchgen::generate("my_adder").expect("known benchmark"));
    let mut bases: Vec<String> = vec![
        CORPUS.to_string(),
        ESCAPED.to_string(),
        CLASHING.to_string(),
        adder,
    ];
    bases.extend(deep_structures(12));
    let mut rng = SplitMix64::seed_from_u64(0x10C5_7E9A);
    let (mut parsed, mut total) = (0, 0);
    for (b, base) in bases.iter().enumerate() {
        for m in 0..600 {
            let mut bytes = base.as_bytes().to_vec();
            for _ in 0..1 + rng.gen_range(0..4) / 3 {
                mutate(&mut rng, &mut bytes);
            }
            let text = String::from_utf8_lossy(&bytes);
            let what = format!("base {b} mutation {m}: {text:?}");
            total += 1;
            if let Some(net) = parse_both(&text, &what) {
                parsed += 1;
                write_both(&net, &what);
            }
        }
    }
    // The corpus must exercise both outcomes.
    assert!(total >= 5000, "{total} mutations");
    assert!(
        parsed >= 200 && total - parsed >= 200,
        "{parsed} of {total} parse"
    );
}
