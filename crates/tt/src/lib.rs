//! Truth-table machinery for logic synthesis.
//!
//! This crate provides the Boolean-function plumbing shared by every other
//! crate in the MIG suite:
//!
//! * [`TruthTable`] — a bit-packed truth table for functions of up to 16
//!   variables, with the usual Boolean operations, cofactoring and support
//!   computation.
//! * [`npn`] — exact NPN canonization for small functions (≤ 6 variables),
//!   used by cut rewriting and Boolean matching.
//! * [`mig_db`] — the NPN-class → optimal-majority-structure database
//!   behind cut-based MIG rewriting, with a `u16`-specialized 4-variable
//!   canonizer for the enumeration hot path.
//! * [`mod@isop`] — Minato–Morreale irredundant sum-of-products extraction.
//! * [`factor`] — algebraic factoring of an SOP into a literal-count-cheap
//!   factored form, used by AIG refactoring.
//!
//! # Example
//!
//! ```
//! use mig_tt::TruthTable;
//!
//! let a = TruthTable::var(0, 3);
//! let b = TruthTable::var(1, 3);
//! let c = TruthTable::var(2, 3);
//! let maj = TruthTable::maj(&a, &b, &c);
//! assert_eq!(maj.count_ones(), 4);
//! ```

#![warn(missing_docs)]

pub mod factor;
pub mod isop;
pub mod mig_db;
pub mod npn;
mod truth_table;

pub use factor::{factor_sop, FactoredForm};
pub use isop::{isop, Cube, Sop};
pub use mig_db::{
    cofactors4, extend4, npn4_apply, npn4_canonize, npn4_class_representatives, tt_mask,
    MigDatabase, MigLit, MigProgram, Npn4Transform, NUM_NPN4_CLASSES, VAR4_TT,
};
pub use npn::{npn_canonize, NpnTransform};
pub use truth_table::TruthTable;
