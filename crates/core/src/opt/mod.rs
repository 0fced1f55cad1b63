//! MIG optimization algorithms (paper Section IV).
//!
//! * `size` — Algorithm 1: node-count reduction through `Ω.M` and
//!   `Ω.D` (R→L) elimination, interleaved with `Ω.A`/`Ψ.C`/`Ψ.R`/`Ψ.S`
//!   reshaping.
//! * `depth` — Algorithm 2: critical-path reduction by pushing late
//!   signals toward the outputs with `Ω.D` (L→R), `Ω.A` and `Ψ.C`.
//! * `activity` — Section IV-C: switching-activity reduction through
//!   probability-aware `Ψ.R` exchanges plus size recovery.
//! * [`rewrite`] — cut-based Boolean rewriting against the NPN database,
//!   in a size-oriented and a depth-oriented acceptance mode.
//! * `esat` — equality-saturation rewriting: the axioms as
//!   bidirectional rules over an e-graph, with cost-based extraction.
//! * [`pipeline`] — the composable pass manager: the [`Pass`] trait, the
//!   shared [`OptContext`], and the flow-script language that sequences
//!   the passes above. Each optimizer is reached as a [`PassKind`] built
//!   at one effort; every module above but [`rewrite`] (which also
//!   holds the cut enumerator the mapper shares) is crate-private.

mod activity;
mod depth;
mod esat;
pub mod pipeline;
pub mod rewrite;
mod size;

pub use pipeline::{
    Budget, Flow, FlowStep, LevelStats, MappedMetrics, OptContext, Pass, PassKind, PassMetrics,
    PassOutcome, PassReport, Repeat, TechModel,
};
pub use rewrite::{enumerate_cuts, resolve_jobs, CutSet, EnumeratedCut};

use crate::{Mig, NodeId, Signal};

/// Reusable buffers for the rebuild-style optimization passes.
///
/// The eliminate → reshape → eliminate → cleanup cycle used to allocate a
/// fresh [`Mig`] (children, levels, strash) plus a signal map and a fanout
/// vector *per pass, per cycle*. This engine keeps a pool of retired
/// arenas and the side buffers alive across passes: a pass takes a spare
/// arena, `reset_for_rebuild`s it (O(1), keeps allocations), and
/// when its input MIG is no longer needed the caller
/// [`recycle`](OptBuffers::recycle)s it back into the pool. In steady
/// state an `effort`-cycle optimization run performs no arena allocations
/// after the first cycle.
#[derive(Debug, Default)]
pub struct OptBuffers {
    spares: Vec<Mig>,
    map: Vec<Signal>,
    /// Scratch fanout-count buffer for the passes that need one.
    pub(crate) fanout: Vec<u32>,
}

impl OptBuffers {
    /// Creates an empty buffer pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a retired MIG's buffers to the pool for the next pass.
    pub fn recycle(&mut self, used: Mig) {
        // A tiny pool is plenty: the pipeline is at most three deep.
        if self.spares.len() < 4 {
            self.spares.push(used);
        }
    }

    /// Rebuilds `old` into a (possibly recycled) destination MIG, calling
    /// `make` once per reachable gate in topological order with the gate's
    /// fanins already mapped into the new graph. `make` returns the signal
    /// that represents the old gate.
    ///
    /// This is the backbone of every pass: passes are pure functions from
    /// MIG to MIG, so arena order always stays topological and strashing
    /// keeps the result canonical.
    pub(crate) fn rebuild<F>(&mut self, old: &Mig, mut make: F) -> Mig
    where
        F: FnMut(&mut Mig, [Signal; 3], NodeId) -> Signal,
    {
        let mut new = self.fresh_arena(old);
        self.map.clear();
        self.map.resize(old.num_nodes(), Signal::FALSE);
        for (i, m) in self.map.iter_mut().enumerate().take(old.num_inputs() + 1) {
            *m = Signal::new(NodeId::from_index(i), false);
        }
        {
            let mark = old.reach_ref();
            for node in old.gate_ids() {
                if !mark[node.index()] {
                    continue;
                }
                let kids = old
                    .children(node)
                    .map(|s| self.map[s.node().index()].complement_if(s.is_complemented()));
                self.map[node.index()] = make(&mut new, kids, node);
            }
        }
        for (name, s) in old.outputs() {
            let mapped = self.map[s.node().index()].complement_if(s.is_complemented());
            new.add_output(name.clone(), mapped);
        }
        new
    }

    /// Takes a destination arena for a rebuild-style pass: a recycled
    /// spare reset to `old`'s inputs when one is pooled, a fresh arena
    /// otherwise.
    pub(crate) fn fresh_arena(&mut self, old: &Mig) -> Mig {
        let mut m = match self.spares.pop() {
            Some(mut m) => {
                m.reset_for_rebuild(old);
                m
            }
            None => {
                let mut m = Mig::new(old.name().to_string());
                for i in 0..old.num_inputs() {
                    m.add_input(old.input_name(i).to_string());
                }
                m
            }
        };
        // A rebuild of `old` lands within a few percent of its size:
        // pre-sizing the destination (arena and strash in one shot)
        // replaces the O(log n) reallocation/rehash storm a cold or
        // undersized spare would pay on million-node graphs.
        m.reserve_gates(old.size());
        m
    }

    /// Dead-node sweep through the engine: a rebuild that recreates every
    /// reachable gate verbatim (the buffer-reusing equivalent of
    /// [`Mig::cleanup`]).
    pub(crate) fn cleanup(&mut self, old: &Mig) -> Mig {
        self.rebuild(old, |new, [a, b, c], _| new.maj(a, b, c))
    }
}

/// One-shot rebuild without buffer reuse (kept for tests and callers
/// outside the optimization pipeline).
#[cfg(test)]
pub(crate) fn rebuild<F>(old: &Mig, make: F) -> Mig
where
    F: FnMut(&mut Mig, [Signal; 3], NodeId) -> Signal,
{
    OptBuffers::new().rebuild(old, make)
}

/// A lexicographic optimization cost: `primary` is compared first,
/// `tiebreak` second (derived `Ord` gives exactly that order). Every
/// acceptance test in the optimizer stack — pass-level "keep the best
/// graph seen" guards and the rewrite engine's per-candidate scoring —
/// goes through this one type, constructed via an [`Objective`], so
/// size-oriented and depth-oriented passes share their comparison logic
/// instead of each owning a private `(usize, u32)` helper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cost {
    /// The metric the pass minimizes.
    pub primary: i64,
    /// Broken ties go to the secondary metric.
    pub tiebreak: i64,
}

/// Which lexicographic [`Cost`] a pass minimizes.
///
/// The two structural objectives are the paper's: node count and logic
/// depth. The two *mapped* objectives score a graph by its
/// technology-mapped cost instead ([`MappedMetrics`] measured through
/// the context's [`TechModel`]); passes that only
/// understand structural metrics fall back to the
/// [`structural`](Objective::structural) proxy, which is also what
/// [`Objective::of`]/[`Objective::cost`] report when no mapped
/// measurement is at hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Node count first, logic depth as the tiebreak (Algorithm 1 and
    /// size-oriented Boolean rewriting).
    SizeThenDepth,
    /// Logic depth first, node count as the tiebreak (Algorithm 2 and
    /// the depth-oriented rewrite mode).
    DepthThenSize,
    /// Mapped cell area first, mapped delay as the tiebreak (the
    /// `map_area` recovery pass). Structural proxy:
    /// [`SizeThenDepth`](Objective::SizeThenDepth).
    MappedArea,
    /// Mapped critical-path delay first, mapped area as the tiebreak
    /// (the `map_delay` recovery pass). Structural proxy:
    /// [`DepthThenSize`](Objective::DepthThenSize).
    MappedDelay,
}

impl Objective {
    /// The structural objective a pass should use when it has no
    /// technology model to measure mapped cost with: the mapped-area
    /// objective degrades to size-then-depth (cell area tracks node
    /// count), the mapped-delay objective to depth-then-size (mapped
    /// delay tracks logic depth). The structural objectives map to
    /// themselves.
    pub fn structural(self) -> Objective {
        match self {
            Objective::SizeThenDepth | Objective::MappedArea => Objective::SizeThenDepth,
            Objective::DepthThenSize | Objective::MappedDelay => Objective::DepthThenSize,
        }
    }

    /// Whether this objective is scored by technology-mapped cost
    /// ([`MappedArea`](Objective::MappedArea) or
    /// [`MappedDelay`](Objective::MappedDelay)). The pass manager
    /// measures mapped cost only around passes with such an objective.
    pub fn is_mapped(self) -> bool {
        matches!(self, Objective::MappedArea | Objective::MappedDelay)
    }

    /// Graph-level cost of `mig` under this objective (the structural
    /// proxy for the mapped objectives — measuring true mapped cost
    /// needs a [`TechModel`], see
    /// [`Objective::mapped_cost`]).
    pub fn of(self, mig: &Mig) -> Cost {
        self.cost(mig.size(), mig.depth())
    }

    /// The cost of a graph with the given node count and depth under
    /// this objective (for callers holding metrics, not the graph).
    /// Mapped objectives score with their structural proxy here.
    pub fn cost(self, size: usize, depth: u32) -> Cost {
        match self.structural() {
            Objective::SizeThenDepth => Cost {
                primary: size as i64,
                tiebreak: depth as i64,
            },
            _ => Cost {
                primary: depth as i64,
                tiebreak: size as i64,
            },
        }
    }

    /// The cost of a technology-mapped graph under this objective:
    /// mapped area (µm²) and delay (ns) are scaled to integers (pm² /
    /// zeptoseconds-scale fixed point, far below any library's
    /// resolution) so they fit the lexicographic [`Cost`]. The
    /// structural objectives ignore the measurement and keep their
    /// structural meaning — callers can pass any objective through.
    pub fn mapped_cost(self, m: &pipeline::MappedMetrics) -> Cost {
        let area = (m.area * 1e6).round() as i64;
        let delay = (m.delay * 1e6).round() as i64;
        match self {
            Objective::MappedArea => Cost {
                primary: area,
                tiebreak: delay,
            },
            Objective::MappedDelay => Cost {
                primary: delay,
                tiebreak: area,
            },
            structural => structural.cost(m.cells, 0),
        }
    }

    /// Candidate-level cost of one local replacement during rewriting:
    /// it saves `gain` nodes net and its root lands at `level`. Lower is
    /// better under the same derived order as [`Objective::of`] — the
    /// size objective ranks by `(-gain, level)`, the depth objective by
    /// `(level, -gain)`; mapped objectives use their structural proxy.
    pub(crate) fn local(self, gain: isize, level: u32) -> Cost {
        match self.structural() {
            Objective::SizeThenDepth => Cost {
                primary: -(gain as i64),
                tiebreak: level as i64,
            },
            _ => Cost {
                primary: level as i64,
                tiebreak: -(gain as i64),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuild_identity_preserves_everything() {
        let mut mig = Mig::new("t");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let m = mig.maj(a, !b, c);
        let x = mig.xor(m, a);
        mig.add_output("y", !x);
        let copy = rebuild(&mig, |new, [a, b, c], _| new.maj(a, b, c));
        assert!(mig.equiv(&copy, 4));
        assert_eq!(copy.size(), mig.size());
        assert_eq!(copy.depth(), mig.depth());
        assert_eq!(copy.outputs()[0].0, "y");
    }

    #[test]
    fn rebuild_drops_dead_nodes() {
        let mut mig = Mig::new("t");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let keep = mig.and(a, b);
        let _dead = mig.or(a, b);
        mig.add_output("y", keep);
        let copy = rebuild(&mig, |new, [a, b, c], _| new.maj(a, b, c));
        assert_eq!(copy.num_gates(), 1);
    }
}
