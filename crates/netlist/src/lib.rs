//! Generic multi-level logic networks and structural Verilog I/O.
//!
//! A [`Network`] is a DAG of Boolean-primitive gates (AND/OR/XOR/MUX/MAJ/…)
//! used as the interchange format of the MIG suite: benchmark generators
//! emit networks, optimization engines import them into their native
//! representation (MIG, AIG, BDD) and export the optimized result back, and
//! the technology mapper consumes them.
//!
//! The [`verilog`] module reads and writes the flattened structural-Verilog
//! subset that the paper's MIGhty tool uses as its front/back end.
//!
//! # Example
//!
//! ```
//! use mig_netlist::{Network, GateKind};
//!
//! let mut net = Network::new("full_adder");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let cin = net.add_input("cin");
//! let sum = net.add_gate(GateKind::Xor, &[a, b]);
//! let sum = net.add_gate(GateKind::Xor, &[sum, cin]);
//! let carry = net.add_gate(GateKind::Maj, &[a, b, cin]);
//! net.set_output("sum", sum);
//! net.set_output("cout", carry);
//! assert_eq!(net.num_inputs(), 3);
//! assert_eq!(net.num_outputs(), 2);
//! ```

#![warn(missing_docs)]

pub mod content_hash;
mod network;
pub mod rng;
mod stats;
mod topo;
pub mod verilog;

pub use network::{Gate, GateId, GateKind, Network};
pub use rng::SplitMix64;
pub use stats::NetworkStats;
pub use verilog::{parse_verilog, write_verilog, VerilogError};
