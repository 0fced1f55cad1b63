//! # Majority-Inverter Graphs
//!
//! A from-scratch implementation of the Majority-Inverter Graph (MIG)
//! logic representation and its Boolean algebra, after *"Majority-Inverter
//! Graph: A Novel Data-Structure and Algorithms for Efficient Logic
//! Optimization"* (Amarù, Gaillardon, De Micheli — DAC 2014).
//!
//! An MIG ([`Mig`]) is a DAG of three-input majority nodes connected by
//! regular or complemented edges ([`Signal`]). MIGs strictly contain
//! AND/OR/Inverter graphs: `AND(a,b) = M(a,b,0)` and `OR(a,b) = M(a,b,1)`
//! (Theorem 3.1), so any Boolean network imports losslessly via
//! [`Mig::from_network`].
//!
//! The paper's axiomatic system `Ω` (commutativity, majority,
//! associativity, distributivity, inverter propagation) and the derived
//! rules `Ψ` (relevance, complementary associativity, substitution) are
//! implemented as executable rewrites on [`Mig`], and drive the
//! optimizers, each a [`PassKind`] built at one `effort`:
//!
//! * `size` — Algorithm 1 (node count),
//! * `depth` — Algorithm 2 (logic levels),
//! * `activity` — Section IV-C (switching activity),
//! * `rewrite` / `depth_rewrite` — cut-based Boolean rewriting against
//!   the NPN database, in size- and depth-oriented acceptance modes,
//! * `esat` / `depth_esat` — equality saturation: the axioms as
//!   bidirectional rules over an e-graph, with cost-based extraction,
//! * `map_area` / `map_delay` — mapped-cost recovery around a
//!   [`TechModel`].
//!
//! The optimizers compose through the [`opt::pipeline`] pass manager: a
//! [`Pass`] trait, a shared [`OptContext`] (arena pool, rewrite caches,
//! wall-time ledger), and parsed [`Flow`] scripts like
//! `"size*2; rewrite; depth_rewrite; activity"`.
//!
//! # Example
//!
//! ```
//! use mig_core::{Flow, Mig, OptContext};
//!
//! // f = x ⊕ y ⊕ z from its AOIG (depth 4) optimizes to depth ≤ 3.
//! let mut mig = Mig::new("xor3");
//! let x = mig.add_input("x");
//! let y = mig.add_input("y");
//! let z = mig.add_input("z");
//! let t = mig.xor(x, y);
//! let f = mig.xor(t, z);
//! mig.add_output("f", f);
//! let depth = Flow::parse("depth").unwrap();
//! let opt = depth.run(mig.clone(), 6, &mut OptContext::new());
//! assert!(opt.equiv(&mig, 4));
//! assert!(opt.depth() < mig.depth());
//! ```

#![warn(missing_docs)]

mod algebra;
mod convert;
#[cfg(feature = "faultpoints")]
pub mod faultpoint;
mod mig;
pub mod opt;
pub(crate) mod scratch;
mod signal;
mod simulate;
pub(crate) mod strash;

pub use crate::mig::Mig;
pub use opt::{
    enumerate_cuts, resolve_jobs, Budget, Cost, CutSet, EnumeratedCut, Flow, FlowStep, LevelStats,
    MappedMetrics, Objective, OptContext, Pass, PassKind, PassMetrics, PassOutcome, PassReport,
    Repeat, TechModel,
};
pub use signal::{NodeId, Signal};

/// Record an arrival at a named fault site.
///
/// Expands to a call into `faultpoint::hit` when the **expanding**
/// crate is compiled with its `faultpoints` feature (which forwards to
/// `mig_core/faultpoints`), and to nothing otherwise — the default
/// build contains no fault-point code.
#[macro_export]
macro_rules! faultpoint {
    ($site:expr) => {
        #[cfg(feature = "faultpoints")]
        $crate::faultpoint::hit($site);
    };
}

/// Pass a `u16` through a named corruption fault site.
///
/// Evaluates to `faultpoint::corrupt_u16($site, $value)` when the
/// expanding crate enables its `faultpoints` feature, and to `$value`
/// unchanged otherwise.
#[macro_export]
macro_rules! faultpoint_corrupt {
    ($site:expr, $value:expr) => {{
        #[cfg(feature = "faultpoints")]
        {
            $crate::faultpoint::corrupt_u16($site, $value)
        }
        #[cfg(not(feature = "faultpoints"))]
        {
            $value
        }
    }};
}
