//! # Reduced Ordered Binary Decision Diagrams
//!
//! A complement-edge ROBDD manager ([`Bdd`]), the remainder of the
//! package written for the paper's "BDD Decomposition" baseline column.
//! Nothing else in the workspace uses this crate, and it is not an
//! equivalence checker: every verdict goes through `mig_sim`.
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

pub use crate::bdd::{Bdd, BddRef};
