//! # Simulation, equivalence checking and switching activity
//!
//! Bit-parallel simulation of gate-level [`Network`]s, simulation-based
//! equivalence checking (exhaustive for small input counts, seeded random
//! otherwise), and the signal-probability / switching-activity model used
//! by the paper's "Activity" metric and the power estimator.
//!
//! # Example
//!
//! ```
//! use mig_netlist::Network;
//! use mig_sim::{simulate, equivalent};
//!
//! let mut net = Network::new("t");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let g = net.xor(a, b);
//! net.set_output("y", g);
//! assert!(equivalent(&net, &net.sweep(), 8));
//! let out = simulate(&net, &[0b01u64, 0b10u64]);
//! assert_eq!(out[0] & 0b11, 0b11);
//! ```

#![warn(missing_docs)]

mod activity;
mod equiv;
mod simulate;

pub use activity::{empirical_activity, signal_probabilities, switching_activity};
pub use equiv::{
    equivalent, equivalent_exhaustive, equivalent_random, equivalent_seeded, output_truth_tables,
    random_signatures,
};
pub use simulate::{simulate, simulate_all, simulate_batch};

// Re-exported for doc examples and downstream convenience.
pub use mig_netlist::Network;
