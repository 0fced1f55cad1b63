//! # Reduced Ordered Binary Decision Diagrams
//!
//! A complement-edge ROBDD manager ([`Bdd`]), static variable-ordering
//! heuristics ([`reorder`]) and a BDS-style decomposition flow
//! ([`bds_optimize`]) written for the paper's "BDD Decomposition"
//! baseline column. Nothing else in the workspace uses this crate, and
//! it is not an equivalence checker: every verdict goes through
//! `mig_sim`.
//!
//! # Example
//!
//! ```
//! use mig_bdd::{Bdd, BddRef};
//!
//! let mut bdd = Bdd::new(2);
//! let a = bdd.var(0);
//! let b = bdd.var(1);
//! let f = bdd.xor(a, b);
//! assert_eq!(bdd.sat_count(f), 2);
//! ```

mod bdd;
pub mod decompose;
pub mod reorder;

pub use crate::bdd::{Bdd, BddRef};
pub use decompose::{bds_optimize, build_network_bdds, decompose_to_network};
