//! # mig-suite — Majority-Inverter Graph logic optimization
//!
//! A from-scratch Rust reproduction of *"Majority-Inverter Graph: A Novel
//! Data-Structure and Algorithms for Efficient Logic Optimization"*
//! (Amarù, Gaillardon, De Micheli — DAC 2014).
//!
//! This facade crate re-exports the member crates of the workspace:
//!
//! * [`tt`] — truth tables, NPN canonization, ISOP, factoring
//! * [`netlist`] — generic logic networks + structural Verilog I/O
//! * [`mig`] — the MIG data structure, Ω/Ψ algebra and optimizers
//! * [`sim`] — the workspace's one simulator and equivalence checker
//!   (every verdict goes through it), plus switching activity
//! * [`techmap`] — technology mapping onto a 22nm-style cell library
//! * [`benchgen`] — deterministic MCNC-style benchmark generators
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every table and figure.

pub use mig_benchgen as benchgen;
pub use mig_core as mig;
pub use mig_netlist as netlist;
pub use mig_sim as sim;
pub use mig_techmap as techmap;
pub use mig_tt as tt;
