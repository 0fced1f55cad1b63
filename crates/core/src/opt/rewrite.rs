//! Cut-based Boolean rewriting against the NPN-canonical majority
//! database (`mig_tt::mig_db`), organized as **parallel-evaluate /
//! serial-commit** sweeps with **incremental cut invalidation**.
//!
//! The algebraic passes (Algorithms 1–2) only reshape what is
//! structurally visible; this pass works on local *functions* instead.
//! For every reachable gate it enumerates k-feasible priority cuts
//! (k ≤ 4, a bounded number per node), computes each cut's truth table,
//! NPN-canonizes it, and looks the class up in the precomputed
//! optimal-structure database. A match is replayed through the hashing
//! constructor on the cut leaves and accepted only when MFFC accounting
//! proves a strict size gain (or, optionally, an equal-size depth gain).
//!
//! Each sweep is split into two phases (`DESIGN.md` §9):
//!
//! 1. **Evaluate (parallel, read-only).** The expensive *preparation* —
//!    priority-cut enumeration, truth-table computation, NPN
//!    canonization and database matching — runs against an immutable
//!    snapshot of the source graph (`MigView`): level wavefronts of
//!    nodes are chunked across `std::thread::scope` workers, each
//!    owning its scratch state (a `ScratchPool` entry). The phase
//!    emits, per node, an ordered list of candidate cuts whose function
//!    has a database structure.
//! 2. **Commit (serial, deterministic).** A single topological rebuild
//!    through the one strash table scores each node's candidates
//!    against the *destination* graph — MFFC accounting for the nodes
//!    saved, a dry run through the evolving strash for the nodes added
//!    (so sharing created by earlier commits of the same sweep,
//!    including nested cascades, is priced in) — and replays the best
//!    profitable structure. Candidates arrive in ascending node order
//!    whatever the worker count and the commit is single-threaded, so
//!    results are **bit-identical for every `jobs` setting**.
//!
//! Sweeps are *incremental*: per-node cut sets and candidate slots live
//! in a `RewriteCache` keyed to the graph's mutation stamp and
//! survive the rewrite ⇄ eliminate ⇄ cleanup rebuilds — after every
//! rebuild the cache is *translated* through the old→new signal map,
//! and only nodes whose structure actually changed (or whose
//! translation would be degenerate) are marked dirty. On the next sweep
//! the dirty region grows only through *damped* propagation: a node is
//! re-enumerated when a fanin's cut set **actually changed**, so a
//! re-enumeration that reproduces the previous cuts stops the wave
//! instead of dirtying the whole transitive fanout. In steady state a
//! sweep re-enumerates a small fraction of the graph, which is where
//! the pass's round-to-round speedup comes from.
//!
//! The per-node gain is an estimate, not a proof: `saved` comes from the
//! *source* graph's fanout counts, while sharing materializes in the
//! destination graph. The pass-level guard in `optimize_rewrite` —
//! keep a sweep only if the cleaned result strictly improves
//! `(size, depth)` — is what makes the optimization monotone end to end.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use super::size::eliminate_pass;
use super::{Cost, Objective, OptBuffers};
use crate::mig::MigView;
use crate::scratch::ScratchPool;
use crate::{Mig, NodeId, Signal};
use mig_tt::{extend4, npn4_canonize, tt_mask, MigDatabase, MigProgram, Npn4Transform};

/// Hard cap on evaluate-phase worker threads.
const MAX_JOBS: usize = 16;

/// Minimum number of nodes in a wavefront before fanning work out to
/// threads pays for the spawn overhead.
const PAR_THRESHOLD: usize = 128;

/// Incremental sweeps budgeted per `effort` unit: cheap (mostly-cached)
/// sweeps replace the full sweeps of the old engine, so each unit buys
/// several of them. The pass still stops at the first non-improving
/// round.
const ROUNDS_PER_EFFORT: usize = 4;

/// Candidate-slot storage width per node, and the number of priority
/// cuts every rewrite keeps per node (plus the unit cut): the commit-side
/// scoring sees the full candidate space (quality is never traded for
/// cache hits).
const MAX_NODE_CANDS: usize = 8;

/// Maximum cut width of every rewrite (truth tables are 16-bit).
const CUT_SIZE: usize = 4;

/// The concrete evaluate-phase worker count a `jobs` setting resolves
/// to: `jobs` itself, or the machine's available parallelism when it is
/// 0, in both cases capped at 16. Public so harnesses (`mighty bench`)
/// can record the thread count a run actually used.
pub fn resolve_jobs(jobs: usize) -> usize {
    let n = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        jobs
    };
    n.clamp(1, MAX_JOBS)
}

/// Deterministic contiguous chunk `i` of `jobs` over `len` items.
fn chunk_range(len: usize, jobs: usize, i: usize) -> Range<usize> {
    let per = len / jobs;
    let rem = len % jobs;
    let start = i * per + i.min(rem);
    start..start + per + usize::from(i < rem)
}

/// A k-feasible cut: sorted leaf nodes plus the root's function over
/// them (leaf `i` is truth-table variable `i`; the low `2^len` bits of
/// `tt` are valid). `sign` is a 32-bit Bloom signature of the leaf set
/// (one bit per `leaf mod 32`), letting the hot duplicate/dominance
/// filters reject most pairs on a single word op. Fixed-size — cut sets
/// live in one flat buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cut {
    leaves: [u32; 4],
    len: u8,
    tt: u16,
    sign: u32,
}

/// The Bloom signature of one leaf.
fn leaf_sign(leaf: u32) -> u32 {
    1 << (leaf & 31)
}

impl Cut {
    fn unit(node: usize) -> Self {
        Cut {
            leaves: [node as u32, 0, 0, 0],
            len: 1,
            tt: 0b10,
            sign: leaf_sign(node as u32),
        }
    }

    fn leaves(&self) -> &[u32] {
        &self.leaves[..self.len as usize]
    }

    /// True if this cut's leaves are a subset of `other`'s (making
    /// `other` redundant).
    fn dominates(&self, other: &Cut) -> bool {
        self.len <= other.len
            && self.sign & !other.sign == 0
            && self.leaves().iter().all(|l| other.leaves().contains(l))
    }

    /// True if both cuts have exactly the same leaf set.
    fn same_leaves(&self, other: &Cut) -> bool {
        self.len == other.len && self.sign == other.sign && self.leaves == other.leaves
    }
}

/// Expands `tt` over the `from` leaves onto the superset `to` leaves.
fn expand_tt(tt: u16, from: &[u32], to: &[u32]) -> u16 {
    let mut pos = [0usize; 4];
    for (i, l) in from.iter().enumerate() {
        pos[i] = to.iter().position(|t| t == l).expect("from ⊆ to");
    }
    let mut out = 0u16;
    for i in 0..(1u32 << to.len()) {
        let mut j = 0usize;
        for (bit, &p) in pos[..from.len()].iter().enumerate() {
            if (i >> p) & 1 == 1 {
                j |= 1 << bit;
            }
        }
        if (tt >> j) & 1 == 1 {
            out |= 1 << i;
        }
    }
    out
}

/// Outcome of simulating one database instruction against the snapshot
/// without building anything.
#[derive(Debug, Clone, Copy)]
enum DryVal {
    /// The node already exists (strash hit or trivial fold): free.
    Known(Signal),
    /// A node would have to be allocated; carries its level estimate.
    New(u32),
}

impl DryVal {
    fn complement_if(self, c: bool) -> Self {
        match self {
            DryVal::Known(s) => DryVal::Known(s.complement_if(c)),
            DryVal::New(l) => DryVal::New(l),
        }
    }

    fn level(self, view: &MigView) -> u32 {
        match self {
            DryVal::Known(s) => view.level_of_signal(s),
            DryVal::New(l) => l,
        }
    }
}

/// Per-worker scratch: everything an evaluate-phase thread mutates.
/// Pooled in [`RewriteCache`] so steady-state sweeps do not allocate.
#[derive(Debug, Default)]
struct WorkerScratch {
    /// Truth table → canonization memo (graph-independent, lives
    /// forever).
    canon_cache: HashMap<u16, (u16, Npn4Transform)>,
    /// Cut-candidate buffer for enumeration.
    cand: Vec<Cut>,
    /// Enumeration results: flat cuts plus `(node, count, changed)`
    /// records (`changed` drives the dirty damping).
    out_cuts: Vec<Cut>,
    out_meta: Vec<(u32, u8, bool)>,
    /// Evaluation results: `(node, count, slot list)` in ascending node
    /// order.
    out_slots: Vec<(u32, u8, [u8; MAX_NODE_CANDS])>,
    /// Set when this worker's last parallel stint panicked (the unwind
    /// is caught at the thread boundary): its partial results are still
    /// well-formed — both phases push whole per-node records — so the
    /// drain keeps the survivors and only the in-flight node and the
    /// unvisited tail are forfeited for this sweep.
    panicked: bool,
}

impl WorkerScratch {
    fn canonize(&mut self, tt: u16) -> (u16, Npn4Transform) {
        memo_canonize(&mut self.canon_cache, tt)
    }
}

/// Memoized NPN canonization (pure, so caching per caller is sound).
fn memo_canonize(memo: &mut HashMap<u16, (u16, Npn4Transform)>, tt: u16) -> (u16, Npn4Transform) {
    *memo.entry(tt).or_insert_with(|| npn4_canonize(tt))
}

/// Reusable state of the rewriting engine: per-node priority-cut sets
/// with dirty bits, the worker scratch pool, and the per-sweep side
/// buffers. Between the rewrite ⇄ eliminate ⇄ cleanup rebuilds of one
/// pass the cut sets are carried across via
/// [`RewriteCache::translate`] instead of being recomputed, keyed to the
/// graph's mutation stamp so a stale cache can never be misread.
///
/// One instance serves any number of passes, but only its buffers carry
/// over between them, not its contents. Every run of
/// [`optimize_rewrite`] (the rewrite passes, and esat's seeds) starts
/// from `Mig::cleanup()`, which mints a new stamp, so the run's first
/// [`bind`](RewriteCache::bind) resets the cache and enumerates every
/// gate cold. A pass is therefore a function of its input graph alone,
/// which the flow's skip of repeats after an unchanged run and the
/// server's per-worker contexts both rely on.
#[derive(Debug, Default)]
pub(crate) struct RewriteCache {
    stride: usize,
    cuts: Vec<Cut>,
    ncuts: Vec<u8>,
    dirty: Vec<bool>,
    /// Prefiltered candidate slots per node: cut indices in rank order
    /// (`MAX_NODE_CANDS` slots per node), re-scored only when the node's
    /// cut set or local fanout context changes — the commit phase
    /// re-validates every slot against the live destination anyway.
    ncands: Vec<u8>,
    slots: Vec<u8>,
    /// Fanout counts the slots were last scored under (`u32::MAX` =
    /// never scored), used to spot nodes whose gain context moved.
    prev_fanout: Vec<u32>,
    /// `(mutation stamp, node count)` of the graph the cut arrays
    /// describe; `None` when the cache holds nothing.
    key: Option<(u64, usize)>,
    /// Translation double buffers.
    t_cuts: Vec<Cut>,
    t_ncuts: Vec<u8>,
    t_dirty: Vec<bool>,
    t_ncands: Vec<u8>,
    t_slots: Vec<u8>,
    t_prev_fanout: Vec<u32>,
    /// Per-thread evaluator scratch, recycled across sweeps and passes.
    workers: ScratchPool<WorkerScratch>,
    /// Per-sweep shared read-only buffers.
    fanout: Vec<u32>,
    reach: Vec<bool>,
    /// Reachable gates sorted into level wavefronts.
    worklist: Vec<u32>,
    /// Per-sweep result of the damping: whose cut set actually changed.
    changed: Vec<bool>,
    /// Scratch list of the nodes one wavefront must re-enumerate.
    batch: Vec<u32>,
    /// Nodes whose candidate slots must be re-scored this sweep.
    eval_list: Vec<u32>,
    /// Commit-side canonization memo (the workers each have their own).
    canon_memo: HashMap<u16, (u16, Npn4Transform)>,
    /// Commit state: a fanout-count copy for the MFFC walks, a dry-run
    /// stack, the old→new signal map and the replay stack.
    refs: Vec<u32>,
    dry: Vec<DryVal>,
    map: Vec<Signal>,
    replay: Vec<Signal>,
    /// Counting-sort scratch for the level-wavefront worklist (per-level
    /// bucket offsets and the sorted output double buffer).
    lvl_counts: Vec<u32>,
    lvl_sorted: Vec<u32>,
}

impl RewriteCache {
    /// Points the cache at `mig`: a no-op when the cache already
    /// describes exactly this graph state (the incremental path),
    /// otherwise a full reset with every gate marked dirty.
    fn bind(&mut self, mig: &Mig, stride: usize) {
        if self.stride == stride && self.key == Some((mig.rewrite_stamp(), mig.num_nodes())) {
            return;
        }
        self.stride = stride;
        let n = mig.num_nodes();
        // Like `translate`: `cuts`/`slots` entries beyond `ncuts[i]` /
        // `ncands[i]` are unreachable, so only lengths are adjusted —
        // every node starts at `ncuts = 0`, making all bulk storage
        // logically empty without the O(n · stride) memset.
        self.cuts.resize(n * stride, Cut::default());
        self.slots.resize(n * MAX_NODE_CANDS, 0);
        self.ncuts.clear();
        self.ncuts.resize(n, 0);
        self.dirty.clear();
        self.dirty.resize(n, true);
        self.ncands.clear();
        self.ncands.resize(n, 0);
        self.prev_fanout.clear();
        self.prev_fanout.resize(n, u32::MAX);
        base_cuts(
            &mut self.cuts,
            &mut self.ncuts,
            &mut self.dirty,
            stride,
            mig.num_inputs(),
        );
        self.key = Some((mig.rewrite_stamp(), n));
    }

    /// Forgets which graph the cut arrays describe, forcing the next
    /// [`bind`](RewriteCache::bind) to fully reset. The pipeline calls
    /// this when it rolls a pass back: an abandoned pass may have left
    /// the incremental state half-updated, and the restored checkpoint
    /// shares the old graph's mutation stamp, so the stamp key alone
    /// cannot tell the difference.
    pub(crate) fn invalidate(&mut self) {
        self.key = None;
    }

    /// Number of stored cut entries (for memory-footprint reporting).
    pub(crate) fn cut_entries(&self) -> usize {
        self.cuts.len()
    }

    /// Carries the cut sets across a rebuild `old → new` described by
    /// `map` (each old node's signal in the new graph). A node keeps its
    /// cuts — leaves renamed, truth tables rewired for leaf/root
    /// complements — only when it was preserved verbatim (its mapped
    /// fanins resolve to exactly the node the map points at) and every
    /// translated cut stays well-formed; everything else stays dirty, and
    /// the next sweep re-enumerates it. This is not exactly the TFO of
    /// the changes: a node above one that the rebuild merged into an
    /// equivalent existing node keeps its cuts, which stay sound (every
    /// leaf keeps its function) but are no longer structural cuts of the
    /// new graph.
    fn translate(&mut self, old: &Mig, new: &Mig, map: &[Signal]) {
        if self.key != Some((old.rewrite_stamp(), old.num_nodes())) {
            // The cache does not describe `old`: nothing to carry over.
            self.key = None;
            return;
        }
        let stride = self.stride;
        let n_new = new.num_nodes();
        // `t_cuts` and `t_slots` are never read beyond `t_ncuts[i]` /
        // `t_ncands[i]` entries, so stale contents are unreachable and
        // only the *length* needs adjusting — clearing them would memset
        // hundreds of megabytes per sweep on million-node graphs.
        self.t_cuts.resize(n_new * stride, Cut::default());
        self.t_slots.resize(n_new * MAX_NODE_CANDS, 0);
        self.t_ncuts.clear();
        self.t_ncuts.resize(n_new, 0);
        self.t_dirty.clear();
        self.t_dirty.resize(n_new, true);
        self.t_ncands.clear();
        self.t_ncands.resize(n_new, 0);
        self.t_prev_fanout.clear();
        self.t_prev_fanout.resize(n_new, u32::MAX);
        base_cuts(
            &mut self.t_cuts,
            &mut self.t_ncuts,
            &mut self.t_dirty,
            stride,
            new.num_inputs(),
        );
        for node in old.gate_ids() {
            let idx = node.index();
            if self.dirty[idx] || self.ncuts[idx] == 0 {
                continue;
            }
            let s = map[idx];
            let t = s.node().index();
            if !new.is_gate(s.node()) || self.t_ncuts[t] != 0 {
                continue;
            }
            // Only a verbatim-preserved node keeps its cuts: the mapped
            // fanins must resolve to exactly the signal the map records.
            let kids = old
                .children(node)
                .map(|c| map[c.node().index()].complement_if(c.is_complemented()));
            if new.lookup_maj(kids[0], kids[1], kids[2]) != Some(s) {
                continue;
            }
            let nc = self.ncuts[idx] as usize;
            let src = idx * stride;
            let dst = t * stride;
            let mut ok = true;
            for ci in 0..nc - 1 {
                match translate_cut(&self.cuts[src + ci], map, s.is_complemented(), t) {
                    Some(tc) => self.t_cuts[dst + ci] = tc,
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            self.t_cuts[dst + nc - 1] = Cut::unit(t);
            self.t_ncuts[t] = nc as u8;
            self.t_dirty[t] = false;
            // The candidate slots reference cut indices, which the loop
            // above preserved — carry them (and the fanout context they
            // were scored under) across unchanged.
            self.t_ncands[t] = self.ncands[idx];
            self.t_slots[t * MAX_NODE_CANDS..(t + 1) * MAX_NODE_CANDS]
                .copy_from_slice(&self.slots[idx * MAX_NODE_CANDS..(idx + 1) * MAX_NODE_CANDS]);
            self.t_prev_fanout[t] = self.prev_fanout[idx];
        }
        std::mem::swap(&mut self.cuts, &mut self.t_cuts);
        std::mem::swap(&mut self.ncuts, &mut self.t_ncuts);
        std::mem::swap(&mut self.dirty, &mut self.t_dirty);
        std::mem::swap(&mut self.ncands, &mut self.t_ncands);
        std::mem::swap(&mut self.slots, &mut self.t_slots);
        std::mem::swap(&mut self.prev_fanout, &mut self.t_prev_fanout);
        self.key = Some((new.rewrite_stamp(), n_new));
        #[cfg(debug_assertions)]
        if let Err(e) = self.check_translation(new) {
            panic!("RewriteCache::translate shadow check: {e}");
        }
    }

    /// Shadow check of [`translate`](RewriteCache::translate), run after
    /// every translation in debug builds (so throughout the test
    /// suite): every cut a clean node carries must be well-formed in
    /// `mig` — leaves sorted, distinct, non-constant and strictly below
    /// the node, signature matching, the unit cut last — and its truth
    /// table must be the cut function of the new graph: on
    /// [`SHADOW_WORDS`] words of simulation patterns, the node's value
    /// equals `tt` applied to its leaves' values.
    ///
    /// The function is checked through whole-graph simulation, not by
    /// simulating the cone between leaves and node: a clean node may
    /// keep cuts that are no longer structural cuts of the new graph
    /// (a fanin below it was rebuilt, or merged into an equivalent
    /// node), which the next sweep re-enumerates or which stay sound
    /// because every leaf keeps its function.
    #[cfg(debug_assertions)]
    fn check_translation(&self, mig: &Mig) -> Result<(), String> {
        let mut sim = vec![[0u64; SHADOW_WORDS]; mig.num_nodes()];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for words in &mut sim[1..=mig.num_inputs()] {
            for w in words.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *w = x;
            }
        }
        for node in mig.gate_ids() {
            let [a, b, c] = mig.children(node).map(|s| {
                let w = sim[s.node().index()];
                if s.is_complemented() {
                    w.map(|v| !v)
                } else {
                    w
                }
            });
            sim[node.index()] =
                std::array::from_fn(|i| (a[i] & b[i]) | (a[i] & c[i]) | (b[i] & c[i]));
        }
        for node in mig.gate_ids() {
            let idx = node.index();
            if self.dirty[idx] {
                continue;
            }
            let start = idx * self.stride;
            let cuts = &self.cuts[start..start + self.ncuts[idx] as usize];
            if cuts.last() != Some(&Cut::unit(idx)) {
                return Err(format!("clean node {idx} lacks its unit cut: {cuts:?}"));
            }
            for cut in &cuts[..cuts.len() - 1] {
                let leaves = cut.leaves();
                let well_formed = leaves.windows(2).all(|w| w[0] < w[1])
                    && leaves.iter().all(|&l| l != 0 && (l as usize) < idx)
                    && cut.sign == leaves.iter().fold(0, |s, &l| s | leaf_sign(l));
                if !well_formed {
                    return Err(format!("node {idx}: malformed cut {cut:?}"));
                }
                for (w, &node_value) in sim[idx].iter().enumerate() {
                    let vars: Vec<u64> = leaves.iter().map(|&l| sim[l as usize][w]).collect();
                    let minterm = |m: usize| {
                        vars.iter().enumerate().fold(!0u64, |acc, (v, &x)| {
                            acc & if (m >> v) & 1 == 1 { x } else { !x }
                        })
                    };
                    let value = (0..1usize << leaves.len())
                        .filter(|&m| (cut.tt >> m) & 1 == 1)
                        .fold(0u64, |acc, m| acc | minterm(m));
                    if value != node_value {
                        return Err(format!(
                            "node {idx}: {cut:?} disagrees with simulation (word {w})"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// 64-pattern words of the [`RewriteCache::translate`] shadow check.
#[cfg(debug_assertions)]
const SHADOW_WORDS: usize = 2;

/// Installs the constant node's empty cut and one unit cut per input.
fn base_cuts(cuts: &mut [Cut], ncuts: &mut [u8], dirty: &mut [bool], stride: usize, inputs: usize) {
    cuts[0] = Cut {
        leaves: [0; 4],
        len: 0,
        tt: 0,
        sign: 0,
    };
    ncuts[0] = 1;
    dirty[0] = false;
    for i in 1..=inputs {
        cuts[i * stride] = Cut::unit(i);
        ncuts[i] = 1;
        dirty[i] = false;
    }
}

/// Carries one cut across a rebuild: renames the leaves through `map`,
/// re-sorts them, and rewires the truth table for the renaming, the leaf
/// complements and the root complement. Returns `None` when the
/// translated cut would be degenerate — a leaf folded to a constant or
/// onto another leaf, or a leaf no longer strictly below `target` (which
/// would break the commit invariant that replay only reads already-built
/// signals) — in which case the caller leaves the node dirty.
fn translate_cut(cut: &Cut, map: &[Signal], out_flip: bool, target: usize) -> Option<Cut> {
    let len = cut.len as usize;
    let mut pairs = [(0u32, 0usize, false); 4];
    let mut plain = true;
    for (v, &l) in cut.leaves().iter().enumerate() {
        let s = map[l as usize];
        let t = s.node().index();
        if t == 0 || t >= target {
            return None;
        }
        plain &= !s.is_complemented();
        pairs[v] = (t as u32, v, s.is_complemented());
    }
    let pairs = &mut pairs[..len];
    let sorted = pairs.windows(2).all(|w| w[0].0 < w[1].0);
    if !sorted {
        pairs.sort_unstable();
        if pairs.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
    }
    let mut out = Cut {
        leaves: [0; 4],
        len: cut.len,
        tt: cut.tt,
        sign: 0,
    };
    for (nv, p) in pairs.iter().enumerate() {
        out.leaves[nv] = p.0;
        out.sign |= leaf_sign(p.0);
    }
    if !(plain && sorted) {
        // Slow path: re-tabulate through the variable renaming/flips.
        out.tt = 0;
        for i in 0..(1u32 << len) {
            let mut j = 0usize;
            for (nv, &(_, ov, flip)) in pairs.iter().enumerate() {
                if (((i >> nv) & 1) == 1) != flip {
                    j |= 1 << ov;
                }
            }
            if (cut.tt >> j) & 1 == 1 {
                out.tt |= 1 << i;
            }
        }
    }
    if out_flip {
        out.tt ^= tt_mask(len);
    }
    Some(out)
}

/// Boolean rewriting: repeatedly rewrites cuts against the database and
/// recovers size with `Ω.D` elimination, keeping the best graph seen
/// under `goal` — `(size, depth)` for the `rewrite` pass, `(depth,
/// size)` for `depth_rewrite`. Under the depth goal a replacement must
/// land its root at a strictly lower level, never adding nodes, with the
/// node gain as the tiebreak. `effort` buys [`ROUNDS_PER_EFFORT`]
/// rewrite → eliminate rounds per unit (the pass stops early at a
/// fixpoint); `jobs` evaluate-phase workers ([`resolve_jobs`]) never
/// change the result. The output is functionally equivalent to the
/// input, never worse under `goal`, and shares one arena pool and one
/// cut/canonization cache with the rest of the flow.
///
/// # Example
///
/// ```
/// use mig_core::{Flow, Mig, OptContext};
///
/// // XOR3 built from two cascaded 3-node XOR2s: 6 nodes. The database
/// // holds the paper's optimal 3-node XOR3 structure (Fig. 2(b)).
/// let mut mig = Mig::new("xor3");
/// let a = mig.add_input("a");
/// let b = mig.add_input("b");
/// let c = mig.add_input("c");
/// let t = mig.xor(a, b);
/// let f = mig.xor(t, c);
/// mig.add_output("f", f);
/// assert_eq!(mig.size(), 6);
/// let rewrite = Flow::parse("rewrite").unwrap();
/// let opt = rewrite.run(mig.clone(), 2, &mut OptContext::new());
/// assert!(opt.equiv(&mig, 4));
/// assert_eq!(opt.size(), 3);
/// ```
pub(crate) fn optimize_rewrite(
    mig: &Mig,
    goal: Objective,
    effort: usize,
    jobs: usize,
    bufs: &mut OptBuffers,
    rc: &mut RewriteCache,
) -> Mig {
    let mut best = mig.cleanup();
    let rounds = effort.max(1) * ROUNDS_PER_EFFORT;
    for round in 0..rounds {
        let swept = rewrite_sweep(&best, goal, jobs, bufs, rc);
        if swept.is_none() && round > 0 {
            break;
        }
        let e = match swept {
            Some(r) => {
                let e = eliminate_pass(&r, bufs);
                rc.translate(&r, &e, &bufs.map);
                bufs.recycle(r);
                e
            }
            // Nothing to rewrite on the very first round: still give
            // elimination one chance before concluding.
            None => {
                let e = eliminate_pass(&best, bufs);
                rc.translate(&best, &e, &bufs.map);
                e
            }
        };
        let cur = bufs.cleanup(&e);
        rc.translate(&e, &cur, &bufs.map);
        bufs.recycle(e);
        if goal.of(&cur) < goal.of(&best) {
            bufs.recycle(std::mem::replace(&mut best, cur));
        } else {
            bufs.recycle(cur);
            break;
        }
    }
    best
}

/// Stable counting sort of the worklist into level buckets: ties keep
/// arena (push) order, so the result is bit-identical to the stable
/// comparison sort it replaced — at O(n + levels) instead of
/// O(n log n), which is material on million-node worklists.
fn sort_worklist_by_level(rc: &mut RewriteCache, mig: &Mig) {
    let list = &mut rc.worklist;
    let counts = &mut rc.lvl_counts;
    let out = &mut rc.lvl_sorted;
    let max_level = list
        .iter()
        .map(|&i| mig.level_of(NodeId::from_index(i as usize)))
        .max()
        .unwrap_or(0) as usize;
    // counts[l] accumulates the population of level l, shifted by one so
    // the prefix sum turns it into the bucket start offsets.
    counts.clear();
    counts.resize(max_level + 2, 0);
    for &i in list.iter() {
        counts[mig.level_of(NodeId::from_index(i as usize)) as usize + 1] += 1;
    }
    for l in 1..counts.len() {
        counts[l] += counts[l - 1];
    }
    out.clear();
    out.resize(list.len(), 0);
    for &i in list.iter() {
        let l = mig.level_of(NodeId::from_index(i as usize)) as usize;
        out[counts[l] as usize] = i;
        counts[l] += 1;
    }
    std::mem::swap(list, out);
}

/// Shared read-only context of the evaluate phase, handed to every
/// worker.
struct EvalCtx<'a> {
    cuts: &'a [Cut],
    ncuts: &'a [u8],
    reach: &'a [bool],
    stride: usize,
    db: &'static MigDatabase,
}

/// One evaluate → select → commit sweep. Returns the rebuilt graph, or
/// `None` when no candidate was selected (the graph is at a rewriting
/// fixpoint; the cache still describes `old`).
fn rewrite_sweep(
    old: &Mig,
    goal: Objective,
    jobs: usize,
    bufs: &mut OptBuffers,
    rc: &mut RewriteCache,
) -> Option<Mig> {
    let jobs = resolve_jobs(jobs);
    let db = MigDatabase::global();
    rc.bind(old, MAX_NODE_CANDS + 1);

    {
        let mark = old.reach_ref();
        rc.reach.clear();
        rc.reach.extend_from_slice(&mark);
    }
    old.fanout_counts_into(&mut rc.fanout);

    // Level wavefronts over every reachable gate: nodes of one level
    // never feed each other, so a wavefront can be enumerated
    // concurrently.
    rc.worklist.clear();
    for node in old.gate_ids() {
        if rc.reach[node.index()] {
            rc.worklist.push(node.index() as u32);
        }
    }
    sort_worklist_by_level(rc, old);

    let mut workers = rc.workers.take_n(jobs);
    enumerate_changed(old, rc, CUT_SIZE, MAX_NODE_CANDS, jobs, &mut workers);
    evaluate(old, rc, db, jobs, &mut workers);
    rc.workers.put_all(workers);
    let have_cands = rc.worklist.iter().any(|&i| rc.ncands[i as usize] != 0);
    if !have_cands {
        return None;
    }

    let (new, committed) = commit(old, rc, bufs, db, goal);
    if committed == 0 {
        // Every candidate was rejected by the destination-side
        // re-validation: the rebuild is a verbatim copy, drop it.
        bufs.recycle(new);
        return None;
    }
    let map = std::mem::take(&mut rc.map);
    rc.translate(old, &new, &map);
    rc.map = map;
    Some(new)
}

/// Phase 1: re-enumerates the cuts of every gate that needs it, one
/// level wavefront at a time (parallel within a wavefront when it is
/// large enough). A gate needs re-enumeration when it is dirty (its
/// structure changed) or when a fanin's cut set *actually changed* this
/// sweep — re-enumerations that reproduce the previous cut set do not
/// propagate (change damping), which is what keeps the dirty region a
/// thin cone instead of the whole TFO.
fn enumerate_changed(
    old: &Mig,
    rc: &mut RewriteCache,
    k: usize,
    max_cuts: usize,
    jobs: usize,
    workers: &mut [WorkerScratch],
) {
    let view = old.view();
    let stride = rc.stride;
    let worklist = std::mem::take(&mut rc.worklist);
    let mut batch = std::mem::take(&mut rc.batch);
    rc.changed.clear();
    rc.changed.resize(old.num_nodes(), false);
    let mut pos = 0;
    while pos < worklist.len() {
        let lvl = view.level_of(NodeId::from_index(worklist[pos] as usize));
        let mut end = pos + 1;
        while end < worklist.len()
            && view.level_of(NodeId::from_index(worklist[end] as usize)) == lvl
        {
            end += 1;
        }
        // The wavefront's work set: dirty nodes plus nodes fed by a
        // changed cut set (children settled in earlier wavefronts).
        batch.clear();
        for &idx in &worklist[pos..end] {
            let i = idx as usize;
            let need = rc.dirty[i]
                || view
                    .children(NodeId::from_index(i))
                    .iter()
                    .any(|s| rc.changed[s.node().index()]);
            if need {
                batch.push(idx);
            }
        }
        if jobs == 1 || batch.len() < PAR_THRESHOLD {
            let w = &mut workers[0];
            for &idx in &batch {
                let idx = idx as usize;
                {
                    let ctx = EnumCtx {
                        view,
                        cuts: &rc.cuts,
                        ncuts: &rc.ncuts,
                        stride,
                    };
                    enumerate_node(&ctx, idx, k, max_cuts, &mut w.cand);
                }
                let n = w.cand.len();
                let old_cuts = &rc.cuts[idx * stride..idx * stride + n];
                if rc.ncuts[idx] as usize != n || old_cuts != &w.cand[..] {
                    rc.changed[idx] = true;
                    rc.cuts[idx * stride..idx * stride + n].copy_from_slice(&w.cand);
                    rc.ncuts[idx] = n as u8;
                }
            }
            // Serial enumeration has no isolation boundary: a panic
            // here propagates to the pass-level checkpoint rollback.
            for &idx in &batch {
                rc.dirty[idx as usize] = false;
            }
        } else {
            let ctx = EnumCtx {
                view,
                cuts: &rc.cuts,
                ncuts: &rc.ncuts,
                stride,
            };
            let ctx = &ctx;
            let batch_ref = &batch[..];
            std::thread::scope(|s| {
                for (ci, w) in workers.iter_mut().enumerate() {
                    let nodes = &batch_ref[chunk_range(batch_ref.len(), jobs, ci)];
                    s.spawn(move || {
                        w.out_meta.clear();
                        w.out_cuts.clear();
                        // The worker's isolation boundary: a panic
                        // (e.g. an injected fault) forfeits only this
                        // worker's unfinished nodes — the per-node
                        // records already pushed stay well-formed and
                        // are drained normally. Left to propagate it
                        // would abort the whole `thread::scope` join.
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            for &idx in nodes {
                                let i = idx as usize;
                                enumerate_node(ctx, i, k, max_cuts, &mut w.cand);
                                let n = w.cand.len();
                                let same = ctx.ncuts[i] as usize == n
                                    && ctx.cuts[i * ctx.stride..i * ctx.stride + n] == w.cand[..];
                                w.out_meta.push((idx, n as u8, !same));
                                if !same {
                                    w.out_cuts.extend_from_slice(&w.cand);
                                }
                            }
                        }));
                        w.panicked = result.is_err();
                    });
                }
            });
            for w in workers.iter_mut() {
                let mut off = 0usize;
                for &(idx, n, changed) in &w.out_meta {
                    // Only drained nodes count as enumerated: a
                    // panicked worker's unvisited nodes keep their
                    // dirty bit and re-enumerate next sweep.
                    rc.dirty[idx as usize] = false;
                    if !changed {
                        continue;
                    }
                    let (idx, n) = (idx as usize, n as usize);
                    rc.cuts[idx * stride..idx * stride + n]
                        .copy_from_slice(&w.out_cuts[off..off + n]);
                    rc.ncuts[idx] = n as u8;
                    rc.changed[idx] = true;
                    off += n;
                }
            }
        }
        pos = end;
    }
    rc.worklist = worklist;
    rc.batch = batch;
}

/// Read-only inputs of cut enumeration (shared across worker threads).
struct EnumCtx<'a> {
    view: MigView<'a>,
    cuts: &'a [Cut],
    ncuts: &'a [u8],
    stride: usize,
}

/// Enumerates the priority cuts of one node into `cand` (wider cuts
/// first, subset-dominated cuts removed, unit cut last). Reads only the
/// cut sets of strictly earlier wavefronts, so workers can run it
/// concurrently against one shared cut arena.
fn enumerate_node(ctx: &EnumCtx, idx: usize, k: usize, max_cuts: usize, cand: &mut Vec<Cut>) {
    crate::faultpoint!("rewrite.enumerate");
    let stride = ctx.stride;
    let [a, b, c] = ctx.view.children(NodeId::from_index(idx));
    let (ia, ib, ic) = (a.node().index(), b.node().index(), c.node().index());
    cand.clear();
    for ca in 0..ctx.ncuts[ia] as usize {
        let cut_a = ctx.cuts[ia * stride + ca];
        for cb in 0..ctx.ncuts[ib] as usize {
            let cut_b = ctx.cuts[ib * stride + cb];
            // A pair over `k` leaves stays over `k` with any third cut:
            // merge it once, before the `cut_c` loop.
            let Some(cut_ab) = merge2(&cut_a, &cut_b, k) else {
                continue;
            };
            for cc in 0..ctx.ncuts[ic] as usize {
                let cut_c = ctx.cuts[ic * stride + cc];
                let Some(mut cut) = merge2(&cut_ab, &cut_c, k) else {
                    continue;
                };
                // Filter on the leaf set alone before paying for the
                // truth table: most merges duplicate or are dominated
                // by an existing candidate.
                if cand
                    .iter()
                    .any(|e| e.same_leaves(&cut) || e.dominates(&cut))
                {
                    continue;
                }
                cand.retain(|e| !cut.dominates(e));
                let ta = expand_tt(cut_a.tt, cut_a.leaves(), cut.leaves())
                    ^ if a.is_complemented() { 0xFFFF } else { 0 };
                let tb = expand_tt(cut_b.tt, cut_b.leaves(), cut.leaves())
                    ^ if b.is_complemented() { 0xFFFF } else { 0 };
                let tc = expand_tt(cut_c.tt, cut_c.leaves(), cut.leaves())
                    ^ if c.is_complemented() { 0xFFFF } else { 0 };
                cut.tt = ((ta & tb) | (ta & tc) | (tb & tc)) & tt_mask(cut.len as usize);
                cand.push(cut);
            }
        }
    }
    // Wider cuts first; stable so earlier (smaller-index) leaves win
    // ties deterministically.
    cand.sort_by_key(|c| Reverse(c.len));
    cand.truncate(max_cuts);
    cand.push(Cut::unit(idx));
}

/// Phase 1b: refreshes candidate slots. Only nodes whose cut set
/// changed this sweep, or whose local fanout context moved since they
/// were last filtered, are revisited — every other node keeps its
/// (translated) slots.
fn evaluate(
    old: &Mig,
    rc: &mut RewriteCache,
    db: &'static MigDatabase,
    jobs: usize,
    workers: &mut [WorkerScratch],
) {
    let first = old.num_inputs() + 1;
    rc.eval_list.clear();
    {
        let view = old.view();
        for &idx in &rc.worklist {
            let i = idx as usize;
            let need = rc.changed[i]
                || rc.prev_fanout[i] == u32::MAX
                || view.children(NodeId::from_index(i)).iter().any(|s| {
                    let c = s.node().index();
                    c >= first && rc.fanout[c] != rc.prev_fanout[c]
                });
            if need {
                rc.eval_list.push(idx);
            }
        }
    }
    // Snapshot the fanout context the refreshed scores are valid under.
    rc.prev_fanout.clear();
    rc.prev_fanout.extend_from_slice(&rc.fanout);
    let n_eval = rc.eval_list.len();
    let ctx = EvalCtx {
        cuts: &rc.cuts,
        ncuts: &rc.ncuts,
        reach: &rc.reach,
        stride: rc.stride,
        db,
    };
    for w in workers.iter_mut() {
        w.out_slots.clear();
        w.panicked = false;
    }
    if jobs == 1 || n_eval < PAR_THRESHOLD {
        // Serial evaluation: a panic propagates to the pass-level
        // checkpoint rollback.
        eval_nodes(&ctx, &rc.eval_list, &mut workers[0]);
    } else {
        let ctx = &ctx;
        let list = &rc.eval_list[..];
        std::thread::scope(|s| {
            for (ci, w) in workers.iter_mut().enumerate() {
                let nodes = &list[chunk_range(list.len(), jobs, ci)];
                s.spawn(move || {
                    // Isolation boundary: a panicking worker forfeits
                    // its unfinished slot refreshes; records already in
                    // `out_slots` are whole and drained normally.
                    let result = catch_unwind(AssertUnwindSafe(|| eval_nodes(ctx, nodes, &mut *w)));
                    w.panicked = result.is_err();
                });
            }
        });
        // Put the nodes a panicked worker never refreshed back on the
        // eval list of the next sweep ("never scored" sentinel); their
        // current slots stay valid as stale-but-safe hints meanwhile
        // (the commit re-validates every slot against the live graph).
        for (ci, w) in workers.iter().enumerate() {
            if w.panicked {
                for &idx in &rc.eval_list[chunk_range(n_eval, jobs, ci)] {
                    rc.prev_fanout[idx as usize] = u32::MAX;
                }
            }
        }
    }
    for w in workers.iter_mut() {
        for &(idx, n, slots) in &w.out_slots {
            let i = idx as usize;
            rc.ncands[i] = n;
            rc.slots[i * MAX_NODE_CANDS..(i + 1) * MAX_NODE_CANDS].copy_from_slice(&slots);
        }
    }
}

/// Filters one node list (the body of an evaluate worker): a cut
/// becomes a candidate slot when its function has a database structure
/// and all its leaves are committed (reachable) signals. Slots stay in
/// storage order (wider cuts first), so the commit-side scan scores the
/// full candidate space exactly like the old greedy engine — the
/// parallel phase's job is the expensive *preparation* (enumeration and
/// NPN canonization), not the decisions.
fn eval_nodes(ctx: &EvalCtx, nodes: &[u32], w: &mut WorkerScratch) {
    for &idx in nodes {
        crate::faultpoint!("rewrite.npn");
        let idx = idx as usize;
        let n_cuts = ctx.ncuts[idx] as usize;
        let mut slots = [0u8; MAX_NODE_CANDS];
        let mut n = 0usize;
        // The node's own unit cut is stored last; it is not a rewrite
        // candidate (its "replacement" would be the node itself).
        for ci in 0..n_cuts.saturating_sub(1) {
            if n == MAX_NODE_CANDS {
                break;
            }
            let cut = ctx.cuts[idx * ctx.stride + ci];
            // A leaf that is no longer reachable has no committed
            // signal to replay against (stale translated cut): skip.
            if cut.leaves().iter().any(|&l| !ctx.reach[l as usize]) {
                continue;
            }
            let full_tt = extend4(cut.tt, cut.len as usize);
            let (canon, _) = w.canonize(full_tt);
            if ctx.db.program(canon).is_none() {
                continue;
            }
            slots[n] = ci as u8;
            n += 1;
        }
        w.out_slots.push((idx as u32, n as u8, slots));
    }
}

/// Phase 3: serial commit. One topological rebuild through the strash
/// table: each surviving candidate is re-validated against the
/// *destination* graph — the dry run probes the evolving strash, so
/// sharing created by earlier commits of the same sweep (including the
/// nested cascades that dominate XOR-heavy circuits) is priced in,
/// exactly like the old greedy engine. An existing node or trivial fold
/// is free — it beats any replacement, so its candidates are dropped.
/// Candidates are scored with `goal.local(gain, level)` — `(−gain,
/// level)` for size rewriting, `(level, −gain)` for the depth-aware
/// mode — against a threshold built from the node's default
/// reconstruction, so both modes share one lexicographic comparison.
/// Deterministic: candidates arrive in ascending node order whatever
/// the worker count, and this loop is single-threaded.
fn commit(
    old: &Mig,
    rc: &mut RewriteCache,
    bufs: &mut OptBuffers,
    db: &MigDatabase,
    goal: Objective,
) -> (Mig, usize) {
    crate::faultpoint!("rewrite.commit");
    let view = old.view();
    let mut new = bufs.fresh_arena(old);
    rc.map.clear();
    rc.map.resize(old.num_nodes(), Signal::FALSE);
    for (i, m) in rc.map.iter_mut().enumerate().take(old.num_inputs() + 1) {
        *m = Signal::new(NodeId::from_index(i), false);
    }
    rc.refs.clear();
    rc.refs.extend_from_slice(&rc.fanout);
    let mut committed = 0usize;
    for node in old.gate_ids() {
        let idx = node.index();
        if !rc.reach[idx] {
            continue;
        }
        let kids = old
            .children(node)
            .map(|s| rc.map[s.node().index()].complement_if(s.is_complemented()));
        // An existing node (or a trivial fold) is free — no replacement
        // structure can beat it, so take it and move on.
        if let Some(hit) = new.lookup_maj(kids[0], kids[1], kids[2]) {
            rc.map[idx] = hit;
            continue;
        }
        let default_level = 1 + kids
            .iter()
            .map(|s| new.level_of_signal(*s))
            .max()
            .expect("three children");
        // The acceptance threshold is the node's default reconstruction:
        // gain 0 at `default_level`.
        let threshold = goal.local(0, default_level);
        let mut plan: Option<(Cut, Npn4Transform, Cost)> = None;
        for si in 0..rc.ncands[idx] as usize {
            let ci = rc.slots[idx * MAX_NODE_CANDS + si] as usize;
            if ci + 1 > rc.ncuts[idx] as usize {
                continue; // stale slot outside the current cut set
            }
            let stored = rc.cuts[idx * rc.stride + ci];
            // Corruption fault site: flips a bit of the candidate's
            // function, so scoring AND replay below both use the wrong
            // table — a functionally wrong replacement the post-pass
            // spot check must catch and roll back.
            let cut = Cut {
                tt: crate::faultpoint_corrupt!("rewrite.commit.tt", stored.tt),
                ..stored
            };
            if cut.leaves().iter().any(|&l| !rc.reach[l as usize]) {
                continue;
            }
            let best_cost = plan.as_ref().map_or(threshold, |&(_, _, c)| c);
            let saved = mffc_size(&view, node, cut.leaves(), &mut rc.refs) as isize;
            let budget = match goal.structural() {
                // Size goal: `saved` bounds the achievable gain, so a cut
                // whose whole MFFC cannot reach the plan's gain is pruned
                // before the dry run, and the dry run itself may stop as
                // soon as the gain drops below the plan's.
                Objective::SizeThenDepth => {
                    let best_gain = -best_cost.primary as isize;
                    if saved < best_gain {
                        continue;
                    }
                    (saved - best_gain) as usize
                }
                // Depth goal: the gain is only the tiebreak, so every cut
                // gets a full dry run — but never one that adds nodes
                // (`added ≤ saved` keeps the pass monotone in size too).
                _ => saved as usize,
            };
            let full_tt = extend4(cut.tt, cut.len as usize);
            let (canon, transform) = memo_canonize(&mut rc.canon_memo, full_tt);
            let Some(prog) = db.program(canon) else {
                continue;
            };
            let ins = leaf_signals(&cut, &transform, |l| rc.map[l]);
            let nv = new.view();
            let Some((added, level)) = dry_run(&nv, prog, &ins, budget, &mut rc.dry) else {
                continue;
            };
            let gain = saved - added as isize;
            let cost = goal.local(gain, level);
            if cost < best_cost {
                plan = Some((cut, transform, cost));
            }
        }
        rc.map[idx] = match plan {
            Some((cut, transform, _)) => {
                let full_tt = extend4(cut.tt, cut.len as usize);
                let canon = memo_canonize(&mut rc.canon_memo, full_tt).0;
                let prog = db.program(canon).expect("plan came from the database");
                let ins = leaf_signals(&cut, &transform, |l| rc.map[l]);
                committed += 1;
                replay(&mut new, prog, &ins, transform.output_flip, &mut rc.replay)
            }
            None => new.maj(kids[0], kids[1], kids[2]),
        };
    }
    for (name, s) in old.outputs() {
        let mapped = rc.map[s.node().index()].complement_if(s.is_complemented());
        new.add_output(name.clone(), mapped);
    }
    (new, committed)
}

/// The signal feeding canonical variable `j` of a database program:
/// original cut variable `perm[j]`, complemented per `input_flips`, read
/// through `resolve` (identity during evaluation, the old→new map during
/// commit). Canonical variables beyond the cut width are don't-cares of
/// the canonical function and read constant 0.
fn leaf_signals(cut: &Cut, t: &Npn4Transform, resolve: impl Fn(usize) -> Signal) -> [Signal; 4] {
    let mut ins = [Signal::FALSE; 4];
    for (j, ins_j) in ins.iter_mut().enumerate() {
        let orig = t.perm[j] as usize;
        if orig < cut.len as usize {
            let flip = (t.input_flips >> orig) & 1 == 1;
            *ins_j = resolve(cut.leaves[orig] as usize).complement_if(flip);
        }
    }
    ins
}

/// Simulates replaying `prog` against the snapshot without building
/// anything: counts the nodes that would be allocated (strash hits and
/// trivial folds are free) and estimates the result's logic level.
/// Returns `None` as soon as the count exceeds `budget` — by
/// construction such a replacement cannot improve on the current plan.
/// The output complement is irrelevant here — inverters are free edge
/// attributes.
fn dry_run(
    view: &MigView,
    prog: &MigProgram,
    ins: &[Signal; 4],
    budget: usize,
    vals: &mut Vec<DryVal>,
) -> Option<(usize, u32)> {
    vals.clear();
    let mut added = 0usize;
    for step in &prog.steps {
        let [a, b, c] = step.map(|l| resolve_dry(l, ins, vals));
        let v = if let (DryVal::Known(sa), DryVal::Known(sb), DryVal::Known(sc)) = (a, b, c) {
            match view.lookup_maj(sa, sb, sc) {
                Some(s) => DryVal::Known(s),
                None => {
                    added += 1;
                    DryVal::New(1 + level3(view, a, b, c))
                }
            }
        } else {
            added += 1;
            DryVal::New(1 + level3(view, a, b, c))
        };
        if added > budget {
            return None;
        }
        vals.push(v);
    }
    let out = resolve_dry(prog.out, ins, vals);
    Some((added, out.level(view)))
}

fn level3(view: &MigView, a: DryVal, b: DryVal, c: DryVal) -> u32 {
    a.level(view).max(b.level(view)).max(c.level(view))
}

fn resolve_dry(l: mig_tt::MigLit, ins: &[Signal; 4], vals: &[DryVal]) -> DryVal {
    let base = if l.is_constant() {
        DryVal::Known(Signal::FALSE)
    } else if let Some(v) = l.var_index() {
        DryVal::Known(ins[v])
    } else {
        vals[l.step_index().expect("step literal")]
    };
    base.complement_if(l.is_complemented())
}

/// Replays `prog` for real through the hashing constructor.
fn replay(
    new: &mut Mig,
    prog: &MigProgram,
    ins: &[Signal; 4],
    output_flip: bool,
    vals: &mut Vec<Signal>,
) -> Signal {
    vals.clear();
    for step in &prog.steps {
        let [a, b, c] = step.map(|l| resolve_sig(l, ins, vals));
        let s = new.maj(a, b, c);
        vals.push(s);
    }
    resolve_sig(prog.out, ins, vals).complement_if(output_flip)
}

fn resolve_sig(l: mig_tt::MigLit, ins: &[Signal; 4], vals: &[Signal]) -> Signal {
    let base = if l.is_constant() {
        Signal::FALSE
    } else if let Some(v) = l.var_index() {
        ins[v]
    } else {
        vals[l.step_index().expect("step literal")]
    };
    base.complement_if(l.is_complemented())
}

/// Size of the node's maximum fanout-free cone with respect to the cut:
/// the gates (including the node itself) that become unreferenced when
/// the node is replaced by logic over the cut leaves. Runs the classic
/// dereference/re-reference walk on a scratch copy of the fanout counts,
/// restoring them before returning.
fn mffc_size(view: &MigView, node: NodeId, leaves: &[u32], refs: &mut [u32]) -> usize {
    let size = mffc_deref(view, node, leaves, refs);
    mffc_reref(view, node, leaves, refs);
    size
}

fn mffc_deref(view: &MigView, node: NodeId, leaves: &[u32], refs: &mut [u32]) -> usize {
    let mut size = 1;
    for s in view.children(node) {
        let m = s.node();
        if !view.is_gate(m) || leaves.contains(&(m.index() as u32)) {
            continue;
        }
        refs[m.index()] -= 1;
        if refs[m.index()] == 0 {
            size += mffc_deref(view, m, leaves, refs);
        }
    }
    size
}

fn mffc_reref(view: &MigView, node: NodeId, leaves: &[u32], refs: &mut [u32]) {
    for s in view.children(node) {
        let m = s.node();
        if !view.is_gate(m) || leaves.contains(&(m.index() as u32)) {
            continue;
        }
        if refs[m.index()] == 0 {
            mffc_reref(view, m, leaves, refs);
        }
        refs[m.index()] += 1;
    }
}

/// Merges two sorted leaf sets into one, or `None` if the union exceeds
/// `k` leaves. Distinct signature bits are distinct leaves, so a
/// signature popcount over `k` rejects on one word op before the merge.
/// The merged truth table is filled in by the caller.
fn merge2(a: &Cut, b: &Cut, k: usize) -> Option<Cut> {
    let sign = a.sign | b.sign;
    if sign.count_ones() as usize > k {
        return None;
    }
    let (la, lb) = (a.leaves(), b.leaves());
    let mut out = Cut {
        sign,
        ..Cut::default()
    };
    let (mut i, mut j, mut n) = (0, 0, 0);
    loop {
        let l = match (la.get(i), lb.get(j)) {
            (None, None) => break,
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (_, Some(&y)) => {
                j += 1;
                y
            }
        };
        if n == k {
            return None;
        }
        out.leaves[n] = l;
        n += 1;
    }
    out.len = n as u8;
    Some(out)
}

/// One k-feasible priority cut of [`enumerate_cuts`]: up to four sorted
/// leaf *node* indices plus the root's function over them.
///
/// `tt`'s low `2^len` bits are valid: bit `i` is the value of the root
/// node's **plain** (non-complemented) output when leaf `j` carries bit
/// `j` of `i` as its plain value. Constants never appear as leaves —
/// the enumerator folds them into the truth table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumeratedCut {
    /// Leaf node indices, ascending; only the first `len` are valid.
    pub leaves: [u32; 4],
    /// Number of leaves (0 only for the constant node's empty cut).
    pub len: u8,
    /// The root's function over the leaves (low `2^len` bits).
    pub tt: u16,
}

impl EnumeratedCut {
    /// The valid leaf node indices.
    pub fn leaves(&self) -> &[u32] {
        &self.leaves[..self.len as usize]
    }
}

/// Per-node priority-cut sets over one MIG, as produced by
/// [`enumerate_cuts`] — the rewrite engine's enumerator exposed for
/// consumers outside this module (the technology mapper matches these
/// cuts against cell libraries).
#[derive(Debug, Clone, Default)]
pub struct CutSet {
    cuts: Vec<EnumeratedCut>,
    offsets: Vec<u32>,
}

impl CutSet {
    /// The cuts of node `node` (an arena index). Reachable gates carry
    /// their priority cuts with the node's own unit cut **last**; each
    /// input carries exactly its unit cut; the constant node carries one
    /// empty cut; unreachable gates carry none.
    pub fn cuts_of(&self, node: usize) -> &[EnumeratedCut] {
        let lo = self.offsets[node] as usize;
        let hi = self.offsets[node + 1] as usize;
        &self.cuts[lo..hi]
    }

    /// Number of nodes the set describes (the graph's arena size).
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// Runs one full priority-cut enumeration over every reachable gate of
/// `mig` and returns the per-node cut sets — exactly the enumeration the
/// Boolean rewriting engine performs on its first sweep (`cut_size`
/// clamped to 2..=4, `max_cuts` non-unit cuts kept per node, clamped to
/// 1..=8), single-threaded and deterministic.
///
/// # Example
///
/// ```
/// use mig_core::{enumerate_cuts, Mig};
///
/// let mut mig = Mig::new("xor");
/// let a = mig.add_input("a");
/// let b = mig.add_input("b");
/// let x = mig.xor(a, b);
/// mig.add_output("f", x);
/// let cuts = enumerate_cuts(&mig, 4, 8);
/// // The XOR root has a 2-leaf cut over {a, b} computing 0b0110.
/// let root = x.node().index();
/// assert!(cuts
///     .cuts_of(root)
///     .iter()
///     .any(|c| c.len == 2 && c.tt == 0b0110));
/// ```
pub fn enumerate_cuts(mig: &Mig, cut_size: usize, max_cuts: usize) -> CutSet {
    let max_cuts = max_cuts.clamp(1, MAX_NODE_CANDS);
    let mut rc = RewriteCache::default();
    enumerate_full(mig, cut_size.clamp(2, 4), max_cuts, &mut rc);
    let stride = rc.stride;
    let mut out = CutSet {
        cuts: Vec::new(),
        offsets: Vec::with_capacity(mig.num_nodes() + 1),
    };
    out.offsets.push(0);
    for i in 0..mig.num_nodes() {
        let n = rc.ncuts[i] as usize;
        for c in &rc.cuts[i * stride..i * stride + n] {
            out.cuts.push(EnumeratedCut {
                leaves: c.leaves,
                len: c.len,
                tt: c.tt,
            });
        }
        out.offsets.push(out.cuts.len() as u32);
    }
    out
}

/// One full (non-incremental, single-threaded) enumeration over `mig`
/// into `rc` — the body shared by [`enumerate_cuts`] and the test
/// helpers.
fn enumerate_full(mig: &Mig, k: usize, max_cuts: usize, rc: &mut RewriteCache) {
    rc.bind(mig, max_cuts + 1);
    {
        let mark = mig.reach_ref();
        rc.reach.clear();
        rc.reach.extend_from_slice(&mark);
    }
    rc.worklist.clear();
    for node in mig.gate_ids() {
        if rc.reach[node.index()] {
            rc.worklist.push(node.index() as u32);
        }
    }
    sort_worklist_by_level(rc, mig);
    let mut workers = rc.workers.take_n(1);
    enumerate_changed(mig, rc, k, max_cuts, 1, &mut workers);
    rc.workers.put_all(workers);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mig_netlist::SplitMix64;

    fn three_inputs() -> (Mig, Signal, Signal, Signal) {
        let mut mig = Mig::new("t");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        (mig, a, b, c)
    }

    /// Runs one full enumeration over `mig` into a fresh cache
    /// (single-threaded), for tests that inspect cut sets directly.
    fn enumerate_for_test(mig: &Mig, k: usize, max_cuts: usize, rc: &mut RewriteCache) {
        enumerate_full(mig, k, max_cuts, rc);
    }

    /// The `rewrite` pass at effort 2 on `jobs` workers, with fresh
    /// buffers and a cold cache.
    fn rewrite_with_jobs(mig: &Mig, jobs: usize) -> Mig {
        optimize_rewrite(
            mig,
            Objective::SizeThenDepth,
            2,
            jobs,
            &mut OptBuffers::new(),
            &mut RewriteCache::default(),
        )
    }

    fn rewrite(mig: &Mig) -> Mig {
        rewrite_with_jobs(mig, 0)
    }

    #[test]
    fn xor3_rewrites_to_database_optimum() {
        let (mut mig, a, b, c) = three_inputs();
        let t = mig.xor(a, b);
        let f = mig.xor(t, c);
        mig.add_output("f", f);
        assert_eq!(mig.size(), 6);
        let opt = rewrite(&mig);
        assert!(opt.equiv(&mig, 4));
        assert_eq!(opt.size(), 3, "database holds the 3-node XOR3");
    }

    #[test]
    fn redundant_logic_collapses_to_a_wire() {
        // f = (a ∧ b) ∨ (a ∧ b') ≡ a: the cut function over {a, b} is the
        // projection of a, so the whole cone is replaced by a wire.
        let (mut mig, a, b, _) = three_inputs();
        let p = mig.and(a, b);
        let q = mig.and(a, !b);
        let f = mig.or(p, q);
        mig.add_output("f", f);
        assert_eq!(mig.size(), 3);
        let opt = rewrite(&mig);
        assert!(opt.equiv(&mig, 4));
        assert_eq!(opt.size(), 0);
        assert_eq!(opt.outputs()[0].1, opt.input(0));
    }

    #[test]
    fn constant_cone_folds_to_constant() {
        // f = (a ∧ b) ∧ (a' ∨ b') ≡ 0 needs the Boolean view to vanish.
        let (mut mig, a, b, _) = three_inputs();
        let p = mig.and(a, b);
        let q = mig.or(!a, !b);
        let f = mig.and(p, q);
        mig.add_output("f", f);
        let opt = rewrite(&mig);
        assert!(opt.equiv(&mig, 4));
        assert_eq!(opt.size(), 0);
        assert!(opt.outputs()[0].1.is_constant());
    }

    #[test]
    fn rewrite_is_monotone_and_equivalent() {
        let mut mig = Mig::new("misc");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let d = mig.add_input("d");
        let m1 = mig.maj(a, b, c);
        let m2 = mig.mux(d, m1, a);
        let m3 = mig.xor(m2, b);
        let m4 = mig.or(m3, m1);
        mig.add_output("y", m4);
        mig.add_output("z", m2);
        let before = mig.size();
        let opt = rewrite(&mig);
        assert!(opt.equiv(&mig, 4));
        assert!(opt.size() <= before, "{} > {}", opt.size(), before);
    }

    #[test]
    fn shared_fanout_is_respected() {
        // The MFFC accounting must not claim nodes that other outputs
        // still reference: rewriting here must keep both outputs correct.
        let (mut mig, a, b, c) = three_inputs();
        let t = mig.xor(a, b);
        let f = mig.xor(t, c);
        mig.add_output("f", f);
        mig.add_output("t", t); // t has external fanout
        let opt = rewrite(&mig);
        assert!(opt.equiv(&mig, 4));
        assert!(opt.size() <= mig.size());
    }

    #[test]
    fn results_are_identical_for_any_job_count() {
        // The determinism contract: evaluation is read-only and commits
        // are serialized, so jobs must never change the structure.
        let mut mig = Mig::new("det");
        let ins: Vec<Signal> = (0..6).map(|i| mig.add_input(format!("x{i}"))).collect();
        let mut acc = ins[0];
        // A deterministic tangle of mixed gates.
        for (i, &x) in ins.iter().enumerate().skip(1) {
            acc = match i % 3 {
                0 => mig.xor(acc, x),
                1 => mig.maj(acc, x, ins[(i + 2) % 6]),
                _ => mig.mux(x, acc, ins[(i + 4) % 6]),
            };
        }
        mig.add_output("y", acc);
        let run = |jobs: usize| rewrite_with_jobs(&mig, jobs);
        let base = run(1);
        for jobs in [2, 4, 8] {
            let other = run(jobs);
            assert_eq!(base.num_nodes(), other.num_nodes(), "jobs={jobs}");
            for node in base.gate_ids() {
                assert_eq!(
                    base.children(node),
                    other.children(node),
                    "jobs={jobs}, {node}"
                );
            }
            assert_eq!(base.outputs(), other.outputs(), "jobs={jobs}");
        }
    }

    #[test]
    fn cached_sweeps_match_cold_sweeps() {
        // Running the pass twice through one cache (the second run binds
        // to a graph the cache does not describe, then rebuilds it) must
        // behave exactly like fresh runs.
        let (mut mig, a, b, c) = three_inputs();
        let t = mig.xor(a, b);
        let f = mig.xor(t, c);
        mig.add_output("f", f);
        let mut bufs = OptBuffers::new();
        let mut rc = RewriteCache::default();
        let goal = Objective::SizeThenDepth;
        let first = optimize_rewrite(&mig, goal, 2, 0, &mut bufs, &mut rc);
        let second = optimize_rewrite(&mig, goal, 2, 0, &mut bufs, &mut rc);
        let fresh = rewrite(&mig);
        for out in [&first, &second] {
            assert_eq!(out.size(), fresh.size());
            assert_eq!(out.depth(), fresh.depth());
            assert!(out.equiv(&mig, 4));
        }
    }

    #[test]
    fn translation_preserves_cut_functions() {
        // Enumerate on a graph, rebuild it verbatim through the engine,
        // translate the cache across, and check every carried cut's
        // truth table against exhaustive simulation on the new graph.
        let mut mig = Mig::new("t4");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let d = mig.add_input("d");
        let x = mig.xor(a, b);
        let g = mig.mux(c, x, d);
        mig.add_output("y", g);
        let mut rc = RewriteCache::default();
        enumerate_for_test(&mig, 4, 8, &mut rc);
        let mut bufs = OptBuffers::new();
        let copy = bufs.cleanup(&mig);
        rc.translate(&mig, &copy, &bufs.map);
        assert_eq!(rc.key, Some((copy.rewrite_stamp(), copy.num_nodes())));
        let mut carried = 0;
        for node in copy.gate_ids() {
            if rc.dirty[node.index()] {
                continue;
            }
            carried += 1;
            check_cuts_against_simulation(&copy, &rc, node);
        }
        assert!(carried > 0, "a verbatim rebuild must carry cuts over");
    }

    #[test]
    fn translation_rewires_a_complemented_root() {
        // A rebuild that maps a carried node onto a complemented signal
        // (two complemented fanins store the inverted node) must flip
        // its truth tables: checked by the shadow check inside
        // `translate` (debug builds) and by exhaustive simulation here.
        // (A fourth, unused input keeps the probe simulation at 16 rows.)
        let (mut old, a, b, c) = three_inputs();
        old.add_input("d");
        let g = old.maj(a, b, c);
        old.add_output("y", g);
        let mut rc = RewriteCache::default();
        enumerate_for_test(&old, 4, 8, &mut rc);
        let (mut new, na, nb, nc) = three_inputs();
        let nd = new.add_input("d");
        let h = new.maj(!na, !nb, nc);
        assert!(h.is_complemented(), "Ω.I stores the inverted node");
        new.add_output("y", h);
        let map = vec![Signal::FALSE, !na, !nb, nc, nd, h];
        rc.translate(&old, &new, &map);
        assert!(!rc.dirty[h.node().index()], "the node keeps its cuts");
        assert!(rc.ncuts[h.node().index()] > 1, "beyond the unit cut");
        check_cuts_against_simulation(&new, &rc, h.node());
    }

    /// Asserts every stored cut of `node` matches exhaustive simulation.
    fn check_cuts_against_simulation(mig: &Mig, rc: &RewriteCache, node: NodeId) {
        let stride = rc.stride;
        for ci in 0..rc.ncuts[node.index()] as usize {
            let cut = rc.cuts[node.index() * stride + ci];
            // Probe the node and its leaves.
            let mut probe = mig.clone();
            probe.add_output("probe", Signal::new(node, false));
            for (i, &leaf) in cut.leaves().iter().enumerate() {
                probe.add_output(
                    format!("leaf{i}"),
                    Signal::new(NodeId::from_index(leaf as usize), false),
                );
            }
            let tts = mig_sim::output_truth_tables(&probe.to_network());
            let base = tts.len() - cut.leaves().len();
            for row in 0..16usize {
                let mut idx = 0usize;
                for i in 0..cut.leaves().len() {
                    if tts[base + i].get_bit(row) {
                        idx |= 1 << i;
                    }
                }
                assert_eq!(
                    (cut.tt >> idx) & 1 == 1,
                    tts[base - 1].get_bit(row),
                    "node {node}, cut {cut:?}, row {row}"
                );
            }
        }
    }

    #[test]
    fn cut_enumeration_truth_tables_are_exact() {
        // Check every enumerated cut function against exhaustive
        // simulation through probe outputs.
        let mut mig = Mig::new("t4");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let d = mig.add_input("d");
        let x = mig.xor(a, b);
        let g = mig.mux(c, x, d);
        mig.add_output("y", g);
        let mut rc = RewriteCache::default();
        enumerate_for_test(&mig, 4, 8, &mut rc);
        let mark = mig.reach_ref();
        for node in mig.gate_ids() {
            if !mark[node.index()] {
                continue;
            }
            check_cuts_against_simulation(&mig, &rc, node);
        }
    }

    #[test]
    fn merge3_respects_bound() {
        let a = Cut::unit(1);
        let b = Cut::unit(2);
        let c = Cut {
            leaves: [3, 4, 5, 0],
            len: 3,
            tt: 0,
            sign: leaf_sign(3) | leaf_sign(4) | leaf_sign(5),
        };
        assert!(merge3(&a, &b, &c, 4).is_none(), "5 leaves > 4");
        let m = merge3(&a, &b, &b, 4).expect("2 leaves");
        assert_eq!(m.leaves(), &[1, 2]);
        let m = merge3(&c, &c, &c, 4).expect("subset");
        assert_eq!(m.leaves(), &[3, 4, 5]);
    }

    #[test]
    fn translate_cut_handles_renames_flips_and_degeneracy() {
        // Cut {2, 3} with tt = AND(v0, v1).
        let cut = Cut {
            leaves: [2, 3, 0, 0],
            len: 2,
            tt: 0b1000,
            sign: leaf_sign(2) | leaf_sign(3),
        };
        let id = |n: usize, c: bool| Signal::new(NodeId::from_index(n), c);
        // Plain rename preserving order: tt untouched.
        let map = vec![id(0, false), id(0, false), id(4, false), id(7, false)];
        let t = translate_cut(&cut, &map, false, 9).expect("plain rename");
        assert_eq!((t.leaves(), t.tt), (&[4u32, 7][..], 0b1000));
        // Order-swapping rename: variables permute.
        let map = vec![id(0, false), id(0, false), id(7, false), id(4, false)];
        let t = translate_cut(&cut, &map, false, 9).expect("swapped rename");
        assert_eq!(t.leaves(), &[4, 7]);
        assert_eq!(t.tt, 0b1000, "AND is symmetric under the swap");
        // A complemented leaf flips that variable.
        let map = vec![id(0, false), id(0, false), id(4, true), id(7, false)];
        let t = translate_cut(&cut, &map, false, 9).expect("flipped leaf");
        assert_eq!(t.tt, 0b0100, "AND(v0', v1)");
        // A complemented root flips the output.
        let map = vec![id(0, false), id(0, false), id(4, false), id(7, false)];
        let t = translate_cut(&cut, &map, true, 9).expect("flipped root");
        assert_eq!(t.tt, 0b0111);
        // Degenerate: two leaves collapse onto one node.
        let map = vec![id(0, false), id(0, false), id(4, false), id(4, false)];
        assert!(translate_cut(&cut, &map, false, 9).is_none());
        // Degenerate: a leaf folded to a constant.
        let map = vec![id(0, false), id(0, false), id(0, false), id(7, false)];
        assert!(translate_cut(&cut, &map, false, 9).is_none());
        // Degenerate: a leaf not strictly below the target.
        let map = vec![id(0, false), id(0, false), id(4, false), id(9, false)];
        assert!(translate_cut(&cut, &map, false, 9).is_none());
    }

    /// The three-way merge the enumerator used before it merged pairs
    /// once: merges three sorted leaf sets into one, or `None` if the union
    /// exceeds `k` leaves. The merged truth table is filled in by the
    /// caller.
    fn merge3(a: &Cut, b: &Cut, c: &Cut, k: usize) -> Option<Cut> {
        let mut out = Cut::default();
        for src in [a, b, c] {
            for &l in src.leaves() {
                let len = out.len as usize;
                match out.leaves[..len].binary_search(&l) {
                    Ok(_) => {}
                    Err(pos) => {
                        if len == k {
                            return None;
                        }
                        out.leaves.copy_within(pos..len, pos + 1);
                        out.leaves[pos] = l;
                        out.len += 1;
                    }
                }
            }
        }
        out.sign = out.leaves().iter().fold(0, |s, &l| s | leaf_sign(l));
        Some(out)
    }

    /// The enumerator's triple loop before the pairwise merge and the
    /// signature reject, kept as the lockstep reference.
    fn reference_enumerate_node(
        ctx: &EnumCtx,
        idx: usize,
        k: usize,
        max_cuts: usize,
        cand: &mut Vec<Cut>,
    ) {
        let stride = ctx.stride;
        let [a, b, c] = ctx.view.children(NodeId::from_index(idx));
        let (ia, ib, ic) = (a.node().index(), b.node().index(), c.node().index());
        cand.clear();
        for ca in 0..ctx.ncuts[ia] as usize {
            let cut_a = ctx.cuts[ia * stride + ca];
            for cb in 0..ctx.ncuts[ib] as usize {
                let cut_b = ctx.cuts[ib * stride + cb];
                for cc in 0..ctx.ncuts[ic] as usize {
                    let cut_c = ctx.cuts[ic * stride + cc];
                    let Some(mut cut) = merge3(&cut_a, &cut_b, &cut_c, k) else {
                        continue;
                    };
                    if cand
                        .iter()
                        .any(|e| e.same_leaves(&cut) || e.dominates(&cut))
                    {
                        continue;
                    }
                    cand.retain(|e| !cut.dominates(e));
                    let ta = expand_tt(cut_a.tt, cut_a.leaves(), cut.leaves())
                        ^ if a.is_complemented() { 0xFFFF } else { 0 };
                    let tb = expand_tt(cut_b.tt, cut_b.leaves(), cut.leaves())
                        ^ if b.is_complemented() { 0xFFFF } else { 0 };
                    let tc = expand_tt(cut_c.tt, cut_c.leaves(), cut.leaves())
                        ^ if c.is_complemented() { 0xFFFF } else { 0 };
                    cut.tt = ((ta & tb) | (ta & tc) | (tb & tc)) & tt_mask(cut.len as usize);
                    cand.push(cut);
                }
            }
        }
        cand.sort_by_key(|c| Reverse(c.len));
        cand.truncate(max_cuts);
        cand.push(Cut::unit(idx));
    }

    /// Enumerates `mig` and checks every reachable gate's cut set
    /// against the reference triple loop run on the same fanin cut
    /// sets. Each node's cuts depend only on its fanins' cuts, so
    /// node-by-node equality makes the whole enumeration identical.
    /// Returns the number of non-unit cuts compared.
    fn assert_enumeration_matches_reference(mig: &Mig, k: usize, max_cuts: usize) -> usize {
        let mut rc = RewriteCache::default();
        enumerate_for_test(mig, k, max_cuts, &mut rc);
        let ctx = EnumCtx {
            view: mig.view(),
            cuts: &rc.cuts,
            ncuts: &rc.ncuts,
            stride: rc.stride,
        };
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut compared = 0;
        let mark = mig.reach_ref();
        for node in mig.gate_ids() {
            let i = node.index();
            if !mark[i] {
                continue;
            }
            enumerate_node(&ctx, i, k, max_cuts, &mut got);
            reference_enumerate_node(&ctx, i, k, max_cuts, &mut want);
            assert_eq!(
                got,
                want,
                "{}: node {i}, k {k}, max_cuts {max_cuts}",
                mig.name()
            );
            let stored = &rc.cuts[i * rc.stride..i * rc.stride + rc.ncuts[i] as usize];
            assert_eq!(stored, &got[..], "{}: stored cuts of node {i}", mig.name());
            compared += got.len() - 1;
        }
        compared
    }

    #[test]
    fn pairwise_cut_merge_matches_the_triple_loop() {
        let mut graphs: Vec<Mig> = ["alu4", "C1355", "count", "dalu", "my_adder", "cla"]
            .iter()
            .map(|name| Mig::from_network(&mig_benchgen::generate(name).expect("known benchmark")))
            .collect();
        let mut rng = SplitMix64::seed_from_u64(0xC075_0025);
        for _ in 0..12 {
            let inputs = rng.gen_range(3..12);
            let gates = rng.gen_range(20..300);
            let mut mig = Mig::new("random");
            let mut pool: Vec<Signal> = (0..inputs)
                .map(|i| mig.add_input(format!("i{i}")))
                .collect();
            pool.push(Signal::FALSE);
            for _ in 0..gates {
                let mut pick = || {
                    let s = pool[rng.gen_range(0..pool.len())];
                    s.complement_if(rng.gen_bool(0.5))
                };
                let (a, b, c) = (pick(), pick(), pick());
                let g = mig.maj(a, b, c);
                pool.push(g);
            }
            for (o, s) in pool.iter().rev().take(4).enumerate() {
                mig.add_output(format!("o{o}"), *s);
            }
            graphs.push(mig);
        }
        let mut compared = 0;
        for mig in &graphs {
            for k in 2..=4 {
                for max_cuts in 1..=8 {
                    compared += assert_enumeration_matches_reference(mig, k, max_cuts);
                }
            }
        }
        assert!(compared > 10_000, "only {compared} cuts compared");
    }

    #[test]
    fn merge2_respects_bound_and_signature() {
        let a = Cut::unit(1);
        let b = Cut::unit(33); // same signature bit as leaf 1
        let c = Cut {
            leaves: [3, 4, 5, 0],
            len: 3,
            tt: 0,
            sign: leaf_sign(3) | leaf_sign(4) | leaf_sign(5),
        };
        let ab = merge2(&a, &b, 4).expect("2 leaves");
        assert_eq!((ab.leaves(), ab.sign), (&[1, 33][..], leaf_sign(1)));
        assert!(merge2(&ab, &c, 4).is_none(), "5 leaves > 4");
        assert!(merge2(&a, &c, 3).is_none(), "4 leaves > 3, by signature");
        assert!(
            merge2(&ab, &Cut::unit(2), 2).is_none(),
            "3 leaves > 2, past the signature"
        );
        let m = merge2(&c, &c, 4).expect("subset");
        assert_eq!(m.leaves(), &[3, 4, 5]);
        assert_eq!(m, merge3(&c, &c, &c, 4).expect("subset"));
    }
}
