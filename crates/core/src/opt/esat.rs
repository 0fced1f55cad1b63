//! Equality-saturation rewriting over MIGs (the `esat` pass).
//!
//! Greedy rewriting (Algorithm 1/2 and the cut-based engine) applies the
//! paper's axioms in a fixed order and keeps only the current best graph,
//! so it plateaus in local minima on functionally-redundant circuits. This
//! module takes the orthogonal route explored by the equality-saturation
//! line of work (E-Syn et al.): build an *e-graph* — a congruence-closed
//! union-find over classes of equivalent majority expressions — saturate
//! it by applying the axioms Ω/Ψ as **bidirectional** rules (every rewrite
//! adds nodes, none removes), and afterwards *extract* the cheapest
//! representative under a cost objective. Because all intermediate shapes
//! coexist in the e-graph, rule ordering stops mattering.
//!
//! # Representation
//!
//! An e-class is identified by a `u32` id; an [`ELit`] is a class id plus
//! a complement bit, exactly like [`Signal`] at the graph
//! level, so inverters stay free edge attributes inside the e-graph too.
//! An e-node is a complement-normalized majority gate `[ELit; 3]`:
//!
//! * children sorted (Ω.C commutativity is structural, not a rule),
//! * at most one complemented child — a node with two or three
//!   complemented children is replaced by its complement with all
//!   children flipped (Ω.I inverter propagation, `M'(x,y,z) =
//!   M(x',y',z')`), the complement moving into the referring [`ELit`],
//! * the Ω.M majority folds (`M(x,x,z) = x`, `M(x,x',z) = z`) are applied
//!   eagerly on insertion, so trivially-reducible nodes never exist.
//!
//! The union-find tracks a parity bit per edge (a class may be proven
//! equal to the *complement* of another), and congruence closure is
//! restored after merges by re-canonicalizing every node against the
//! union-find and hash-consing it again until a fixpoint (see
//! `EGraph::rebuild`).
//!
//! # Rule set
//!
//! The matcher implements the remaining axioms of §III-B as generative
//! rules (each fires on matches in *both* orientations because the
//! reverse instance is itself a match once the forward instance has been
//! added):
//!
//! * `Ω.A` associativity — `M(x,u,M(y,u,z)) = M(z,u,M(y,u,x))`,
//! * M-associativity — `M(x,u,M(y,u,z)) = M(M(x,u,y),u,z)`,
//! * `Ω.D` distributivity, both directions —
//!   `M(x,y,M(u,v,z)) = M(M(x,y,u),M(x,y,v),z)`,
//! * `Ψ.C` complementary associativity —
//!   `M(x,u,M(y,u',z)) = M(x,u,M(y,x,z))`,
//! * `Ψ.R` relevance (one-level instance) — in `M(x,y,M(…x…))` the inner
//!   occurrence of `x` may be replaced by `y'`.
//!
//! The tests' `EsatRule` enumerates the full axiom list (structural
//! rules included) with paper references and executable
//! instantiations; the axiom-soundness tests simulate every rule in both
//! directions over random graphs.
//!
//! # Budgets and extraction
//!
//! Saturation is budgeted — an iteration cap (from the pass `effort`), an
//! e-node cap, and an optional wall-clock deadline, the latter two riding
//! the pipeline's [`Budget`] (`max_nodes` bounds
//! the e-graph, `pass_ms` bounds saturation time). Extraction picks, per
//! e-class, the representative minimizing the objective ([`Objective`]),
//! by a bottom-up cost fixpoint, then rebuilds a strashed [`Mig`];
//! [`optimize_esat`] keeps the extraction only when it is no worse than
//! its input (monotone guard), so the pass can never regress a flow.
//!
//! The module is crate-private: a flow reaches it only through the
//! `esat` and `depth_esat` steps ([`PassKind`](super::PassKind)).

use std::collections::{hash_map, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::{Duration, Instant};

use super::depth::optimize_depth;
use super::pipeline::Budget;
use super::rewrite::{optimize_rewrite, RewriteCache};
use super::size::optimize_size;
use super::{Objective, OptBuffers};
use crate::{Mig, Signal};

/// A reference to an e-class with a complement attribute — the e-graph's
/// equivalent of [`Signal`]. The low bit is the
/// complement flag, the upper bits the e-class id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ELit(u32);

impl ELit {
    /// Constant false (class 0, uncomplemented).
    pub const FALSE: ELit = ELit(0);

    fn new(class: u32, complemented: bool) -> ELit {
        ELit(class << 1 | complemented as u32)
    }

    /// The e-class this literal refers to.
    pub fn class(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the literal is complemented.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complemented literal.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> ELit {
        ELit(self.0 ^ 1)
    }

    /// Complemented iff `c` (parity composition).
    pub fn complement_if(self, c: bool) -> ELit {
        ELit(self.0 ^ c as u32)
    }
}

/// A complement-normalized majority e-node: three sorted children with
/// at most one complement among them.
type ENode = [ELit; 3];

/// The hash-cons's hasher: an Fx-style multiply-rotate over the key
/// words, finished with the splitmix64 finalizer of `strash`. It is
/// fixed rather than randomly keyed: every key is a node the program
/// built itself, and no result depends on the memo's iteration order.
#[derive(Debug, Default, Clone, Copy)]
struct NodeHasher(u64);

impl Hasher for NodeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

type NodeBuildHasher = BuildHasherDefault<NodeHasher>;

/// One class's e-nodes with their output parities, in insertion order.
/// Most classes hold a single node for their whole life (every fresh
/// `maj` node starts one), so that case is stored inline and costs no
/// heap allocation.
#[derive(Debug, Clone, Default)]
enum ClassNodes {
    #[default]
    Empty,
    One((ENode, bool)),
    Many(Vec<(ENode, bool)>),
}

impl std::ops::Deref for ClassNodes {
    type Target = [(ENode, bool)];

    fn deref(&self) -> &[(ENode, bool)] {
        match self {
            ClassNodes::Empty => &[],
            ClassNodes::One(entry) => std::slice::from_ref(entry),
            ClassNodes::Many(list) => list,
        }
    }
}

impl std::ops::DerefMut for ClassNodes {
    fn deref_mut(&mut self) -> &mut [(ENode, bool)] {
        match self {
            ClassNodes::Empty => &mut [],
            ClassNodes::One(entry) => std::slice::from_mut(entry),
            ClassNodes::Many(list) => list,
        }
    }
}

impl ClassNodes {
    fn push(&mut self, entry: (ENode, bool)) {
        match self {
            ClassNodes::Empty => *self = ClassNodes::One(entry),
            ClassNodes::One(first) => *self = ClassNodes::Many(vec![*first, entry]),
            ClassNodes::Many(list) => list.push(entry),
        }
    }

    /// Empties the list, keeping a spilled list's allocation.
    fn clear(&mut self) {
        match self {
            ClassNodes::Many(list) => list.clear(),
            _ => *self = ClassNodes::Empty,
        }
    }
}

/// What a class bottoms out as, when it contains a primary input or the
/// constant (extraction leaves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leaf {
    /// The constant-false class.
    Const,
    /// Primary input by index.
    Input(u32),
}

/// Why saturation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A full iteration produced no new nodes or merges (true fixpoint).
    Saturated,
    /// The iteration budget ran out.
    IterLimit,
    /// The e-node budget ran out.
    NodeLimit,
    /// The wall-clock deadline passed.
    Deadline,
}

/// Matcher cap of every flow run: how many e-nodes per child class the
/// nested-pattern rules examine (bounds the quadratic `Ω.D`
/// right-to-left match).
const SCAN_CAP: usize = 12;

/// Saturation budget and matcher tuning for one run, derived from the
/// pass effort and the pipeline [`Budget`] by [`optimize_esat`]; tests
/// set it directly.
#[derive(Debug, Clone)]
struct EsatConfig {
    /// Rule-application iterations (each applies every rule to every
    /// match of the current e-graph, then restores congruence).
    iters: usize,
    /// Stop growing once the e-graph holds this many e-nodes
    /// (`0` = automatic: `128 × seed + 2048`, clamped to `seed + 500_000`).
    enode_cap: usize,
    /// Optional wall-clock deadline for saturation. **Results become
    /// machine-dependent when set** (like every wall-clock budget in the
    /// pipeline).
    time_ms: Option<u64>,
    /// Matcher cap: how many e-nodes per child class the nested-pattern
    /// rules examine.
    scan_cap: usize,
}

#[cfg(test)]
impl Default for EsatConfig {
    fn default() -> Self {
        EsatConfig {
            iters: 16,
            enode_cap: 0,
            time_ms: None,
            scan_cap: SCAN_CAP,
        }
    }
}

impl EsatConfig {
    /// The effective e-node cap for a graph seeded with `seed` e-nodes.
    /// The automatic cap grants generous multiplicative room — the
    /// MCNC sweep showed saturation is budget-bound, with wins still
    /// appearing past 64× the seed — while a constant ceiling keeps the
    /// largest circuits from exploding the arena.
    fn cap(&self, seed: usize) -> usize {
        if self.enode_cap == 0 {
            (seed * 128 + 2048).min(seed + 500_000)
        } else {
            self.enode_cap
        }
    }
}

/// A deferred rule application: `target` has been proven equal to the
/// right-hand-side expression, which is one of two shapes (every axiom's
/// RHS is at most a two-level majority nest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// `target ≡ M(outer[0], outer[1], M(inner))`.
    Nest {
        outer: [ELit; 2],
        inner: ENode,
        target: ELit,
    },
    /// `target ≡ M(M(ab[0],ab[1],pair[0]), M(ab[0],ab[1],pair[1]), z)`.
    Dist {
        ab: [ELit; 2],
        pair: [ELit; 2],
        z: ELit,
        target: ELit,
    },
}

/// The class lists at one moment, flat: class `c`'s e-nodes are
/// `entries[start[c]..start[c + 1]]`, each with the literal it equals,
/// in class id order, then node list order. A matching sweep's targets
/// and a congruence sweep's turns are the entries in this order.
#[derive(Debug, Default, Clone)]
struct ClassSnapshot {
    start: Vec<u32>,
    entries: Vec<(ELit, ENode)>,
}

impl ClassSnapshot {
    fn take(&mut self, g: &EGraph) {
        self.start.clear();
        self.entries.clear();
        self.start.push(0);
        for c in 0..g.uf.len() {
            if g.uf[c].class() == c as u32 {
                let list = g.nodes[c].iter();
                self.entries
                    .extend(list.map(|&(n, oc)| (ELit::new(c as u32, oc), n)));
            }
            self.start.push(self.entries.len() as u32);
        }
    }

    /// The class count when the snapshot was taken.
    fn classes(&self) -> u32 {
        self.start.len() as u32 - 1
    }

    fn class(&self, c: u32) -> &[(ELit, ENode)] {
        &self.entries[self.start[c as usize] as usize..self.start[c as usize + 1] as usize]
    }
}

/// One matching sweep's actions, produced a window of round-robin
/// rounds at a time.
///
/// The apply loop takes the actions round-robin across targets (see
/// [`round_robin`](Matches::round_robin)) and stops at the e-node cap,
/// on a capped sweep usually within the first two rounds. So a window
/// ([`fill_target`](Matches::fill_target)) keeps only the actions
/// whose rank within their target falls in it, and stops matching a
/// target at the first action past it; those targets form the next,
/// twice as wide window. Matching reads the [`ClassSnapshot`] taken
/// before any action was applied, so every window holds what one whole
/// sweep matched before applying would have held.
///
/// Window layout: target `targets[t]`'s actions are
/// `actions[offsets[t]..offsets[t + 1]]`. The buffers are reused across
/// saturation iterations.
#[derive(Debug, Default)]
struct Matches {
    snapshot: ClassSnapshot,
    /// The window's targets (snapshot entry indices), and the ones that
    /// have actions past it.
    targets: Vec<u32>,
    truncated: Vec<u32>,
    actions: Vec<Action>,
    offsets: Vec<usize>,
    /// Scratch of [`Matches::round_robin`]: the targets that still have
    /// actions left.
    live: Vec<u32>,
}

impl Matches {
    /// Snapshots `g` and makes every node a target of the first window.
    fn start(&mut self, g: &EGraph) {
        self.snapshot.take(g);
        self.targets.clear();
        self.targets.extend(0..self.snapshot.entries.len() as u32);
    }

    /// Opens the window over the current targets.
    fn clear(&mut self) {
        self.actions.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.truncated.clear();
    }

    /// Matches the window's `i`-th target, keeping its actions of rank
    /// `ranks.start..ranks.end`, and returns the first of them.
    fn fill_target(
        &mut self,
        g: &EGraph,
        i: usize,
        scan_cap: usize,
        ranks: std::ops::Range<usize>,
    ) -> Option<Action> {
        let t = self.targets[i];
        let mut window = Window {
            actions: &mut self.actions,
            skip: ranks.start,
            room: ranks.len(),
        };
        if g.match_node(&self.snapshot, t as usize, scan_cap, &mut window) {
            self.truncated.push(t);
        }
        let first = self.offsets[i];
        self.offsets.push(self.actions.len());
        self.actions[first..].first().copied()
    }

    /// Makes the truncated targets the next window's; false when there
    /// are none.
    fn advance(&mut self) -> bool {
        std::mem::swap(&mut self.targets, &mut self.truncated);
        !self.targets.is_empty()
    }

    /// The actions interleaved round-robin across targets — every
    /// target's first action in target order, then every target's
    /// second, and so on — so when the apply loop runs out of node
    /// budget mid-sweep, exploration has been spread over the whole
    /// graph instead of a prefix of it. Targets drop out of the walk
    /// once exhausted, so a sweep costs O(actions + targets). The walk
    /// starts at the window's second round: the first is applied while
    /// the window fills.
    fn round_robin(&mut self) -> RoundRobin<'_> {
        self.live.clear();
        self.live.extend(
            self.offsets
                .windows(2)
                .enumerate()
                .filter(|(_, w)| w[0] + 1 < w[1])
                .map(|(t, _)| t as u32),
        );
        RoundRobin {
            actions: &self.actions,
            offsets: &self.offsets,
            live: &mut self.live,
            round: 1,
            next: 0,
            kept: 0,
        }
    }
}

/// The ranks of one target's action sequence a window keeps:
/// `skip..skip + room`.
struct Window<'a> {
    actions: &'a mut Vec<Action>,
    skip: usize,
    room: usize,
}

impl Window<'_> {
    /// Keeps `action` if its rank is in the window; false once the rank
    /// is past it.
    fn push(&mut self, action: Action) -> bool {
        if self.skip > 0 {
            self.skip -= 1;
        } else if self.room > 0 {
            self.room -= 1;
            self.actions.push(action);
        } else {
            return false;
        }
        true
    }
}

/// Iterator of [`Matches::round_robin`]. Invariant: every target in
/// `live[next..]` has an action in `round`; `live[..kept]` holds the
/// targets already visited this round that have one in `round + 1`.
struct RoundRobin<'a> {
    actions: &'a [Action],
    offsets: &'a [usize],
    live: &'a mut Vec<u32>,
    round: usize,
    next: usize,
    kept: usize,
}

impl Iterator for RoundRobin<'_> {
    type Item = Action;

    fn next(&mut self) -> Option<Action> {
        if self.next == self.live.len() {
            self.live.truncate(self.kept);
            if self.live.is_empty() {
                return None;
            }
            self.round += 1;
            self.next = 0;
            self.kept = 0;
        }
        let t = self.live[self.next] as usize;
        self.next += 1;
        let k = self.offsets[t] + self.round;
        if k + 1 < self.offsets[t + 1] {
            self.live[self.kept] = t as u32;
            self.kept += 1;
        }
        Some(self.actions[k])
    }
}

/// A frozen, flat view of the e-graph for extraction (the union-find
/// does not change during extraction): the child classes of every root
/// class's e-nodes, in node-list order, in one array. Node `idx` of
/// class `c` is `of(c)[idx]`, the same index as in the class list;
/// absorbed classes have no nodes.
struct FlatClasses {
    start: Vec<u32>,
    kids: Vec<[u32; 3]>,
}

impl FlatClasses {
    fn new(g: &EGraph) -> FlatClasses {
        let mut start = Vec::with_capacity(g.uf.len() + 1);
        let mut kids = Vec::with_capacity(g.num_enodes);
        start.push(0);
        for c in 0..g.uf.len() {
            if g.uf[c].class() == c as u32 {
                for (node, _) in g.nodes[c].iter() {
                    kids.push(node.map(|kid| g.find_nc(kid).class()));
                }
            }
            start.push(kids.len() as u32);
        }
        FlatClasses { start, kids }
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// The child classes of class `c`'s e-nodes.
    fn of(&self, c: usize) -> &[[u32; 3]] {
        &self.kids[self.start[c] as usize..self.start[c + 1] as usize]
    }

    /// The set of root classes an extraction choice actually
    /// materializes: everything reachable from `out_classes` through
    /// the chosen node of each class (`usize::MAX` = leaf, terminal).
    fn used_classes(&self, choice: &[Option<usize>], out_classes: &[usize]) -> Option<Vec<bool>> {
        let mut used = vec![false; choice.len()];
        let mut stack: Vec<usize> = out_classes.to_vec();
        while let Some(c) = stack.pop() {
            if used[c] {
                continue;
            }
            used[c] = true;
            let idx = choice[c]?;
            if idx == usize::MAX {
                continue;
            }
            stack.extend(self.of(c)[idx].iter().map(|&k| k as usize));
        }
        Some(used)
    }
}

/// Dirty-frontier scheduling for extraction's fixpoints over the
/// frozen e-graph. A class is re-evaluated only when a child class's
/// value changed since its last evaluation.
///
/// Exactness against a full ascending sweep repeated until nothing
/// changes: re-evaluating a class whose children are unchanged
/// reproduces candidate values that already lost the strict `<`
/// comparison, so skipping it cannot change any assignment. In-round
/// visibility matches the full sweep exactly: classes are visited in
/// ascending order, so a parent above the changed child joins the
/// current round and a parent at or below it waits for the next.
struct Frontier {
    /// The classes whose nodes use class `c`, ascending and without
    /// repeats, are `parents[parent_start[c]..parent_start[c + 1]]`.
    parent_start: Vec<u32>,
    parents: Vec<u32>,
    dirty_now: Vec<bool>,
    dirty_next: Vec<bool>,
}

impl Frontier {
    /// Round cap of one fixpoint (a backstop; real runs converge far
    /// below it).
    const SWEEP_CAP: usize = 10_000;

    fn new(view: &FlatClasses) -> Frontier {
        let n = view.len();
        // Two passes over the parent edges, counting then filling;
        // `last[k]` drops the repeats a class's other nodes add.
        let mut parent_start = vec![0u32; n + 1];
        let mut last = vec![u32::MAX; n];
        for c in 0..n {
            for &k in view.of(c).iter().flatten() {
                if last[k as usize] != c as u32 {
                    last[k as usize] = c as u32;
                    parent_start[k as usize + 1] += 1;
                }
            }
        }
        for k in 0..n {
            parent_start[k + 1] += parent_start[k];
        }
        let mut fill = parent_start.clone();
        let mut parents = vec![0u32; parent_start[n] as usize];
        last.fill(u32::MAX);
        for c in 0..n {
            for &k in view.of(c).iter().flatten() {
                if last[k as usize] != c as u32 {
                    last[k as usize] = c as u32;
                    parents[fill[k as usize] as usize] = c as u32;
                    fill[k as usize] += 1;
                }
            }
        }
        Frontier {
            parent_start,
            parents,
            dirty_now: vec![true; n],
            dirty_next: vec![false; n],
        }
    }

    /// Runs `eval` to its fixpoint: `eval(c)` re-evaluates class `c`
    /// and reports whether its value changed. Every class is evaluated
    /// in the first round.
    fn run(&mut self, mut eval: impl FnMut(usize) -> bool) {
        self.dirty_now.fill(true);
        self.dirty_next.fill(false);
        for _ in 0..Self::SWEEP_CAP {
            for c in 0..self.dirty_now.len() {
                if !self.dirty_now[c] || !eval(c) {
                    continue;
                }
                let parents =
                    &self.parents[self.parent_start[c] as usize..self.parent_start[c + 1] as usize];
                for &p in parents {
                    if (p as usize) > c {
                        self.dirty_now[p as usize] = true;
                    } else {
                        self.dirty_next[p as usize] = true;
                    }
                }
            }
            if !self.dirty_next.iter().any(|&d| d) {
                break;
            }
            std::mem::swap(&mut self.dirty_now, &mut self.dirty_next);
            self.dirty_next.fill(false);
        }
    }
}

/// An e-graph over complement-normalized majority nodes: union-find with
/// per-edge complement parity, hash-cons congruence closure, the Ω/Ψ
/// rule matcher, and cost-based extraction.
#[derive(Debug, Default, Clone)]
pub struct EGraph {
    /// Union-find: `uf[c]` is the literal class `c` (uncomplemented)
    /// equals. A root satisfies `uf[c] == ELit::new(c, false)`.
    uf: Vec<ELit>,
    /// Per root class: its e-nodes with their output parity — entry
    /// `(n, oc)` means node `n` equals `ELit::new(class, oc)`.
    nodes: Vec<ClassNodes>,
    /// Per root class: the primary input / constant it contains, with
    /// the parity relating leaf to root.
    leaf: Vec<Option<(Leaf, bool)>>,
    /// Hash-cons: canonical node → the literal it evaluates to. Its
    /// keys are exactly the nodes of the class lists.
    memo: HashMap<ENode, ELit, NodeBuildHasher>,
    /// Live e-node count (absorbed duplicates excluded).
    num_enodes: usize,
    /// Successful merges since construction.
    merges: usize,
    /// Buffers of [`EGraph::sweep`], reused across sweeps.
    sweep_scratch: SweepScratch,
}

/// What one [`EGraph::sweep`] tracks.
#[derive(Debug, Default, Clone)]
struct SweepScratch {
    /// The class lists as the sweep found them; its entries in order
    /// are the turns.
    gathered: ClassSnapshot,
    /// Per turn: the literal its node was inserted with, if it was.
    inserted: Vec<ELit>,
    /// The new forms of moved nodes inserted so far.
    claims: HashMap<ENode, ELit, NodeBuildHasher>,
    /// The old forms of the moved nodes.
    moved: Vec<ENode>,
    /// The union-find as the sweep found it.
    uf_at_gather: Vec<ELit>,
}

impl EGraph {
    /// An e-graph primed with the constant class and `num_inputs` input
    /// classes, mirroring the [`Mig`] arena layout (class 0 = constant
    /// false, classes `1..=num_inputs` = primary inputs).
    pub fn with_inputs(num_inputs: usize) -> EGraph {
        let mut g = EGraph::default();
        g.fresh_class();
        g.leaf[0] = Some((Leaf::Const, false));
        for i in 0..num_inputs {
            let c = g.fresh_class();
            g.leaf[c as usize] = Some((Leaf::Input(i as u32), false));
        }
        g
    }

    /// The literal of primary input `i` (panics if out of range for the
    /// construction-time input count).
    pub fn input(&self, i: usize) -> ELit {
        assert!(
            self.leaf.len() > i + 1,
            "input {i} outside the seeded input range"
        );
        ELit::new(i as u32 + 1, false)
    }

    /// Live e-node count.
    #[cfg(test)]
    pub fn num_enodes(&self) -> usize {
        self.num_enodes
    }

    fn fresh_class(&mut self) -> u32 {
        let id = self.uf.len() as u32;
        self.uf.push(ELit::new(id, false));
        self.nodes.push(ClassNodes::Empty);
        self.leaf.push(None);
        id
    }

    /// Canonicalizes a literal against the union-find (path-compressing,
    /// parity-aware): two literals denote the same Boolean function
    /// exactly when their canonical forms are equal.
    pub fn find(&mut self, lit: ELit) -> ELit {
        // Pass 1: locate the root and the total parity from the start
        // class to it.
        let mut c = lit.class();
        let mut total = false;
        loop {
            let p = self.uf[c as usize];
            if p.class() == c {
                break;
            }
            total ^= p.is_complemented();
            c = p.class();
        }
        let root = c;
        // Pass 2: point every visited class straight at the root with
        // its accumulated parity.
        let mut c = lit.class();
        let mut prefix = false;
        while c != root {
            let p = self.uf[c as usize];
            self.uf[c as usize] = ELit::new(root, total ^ prefix);
            prefix ^= p.is_complemented();
            c = p.class();
        }
        ELit::new(root, total ^ lit.is_complemented())
    }

    /// Whether two literals are known equal (same class, same parity).
    #[cfg(test)]
    pub fn same(&mut self, a: ELit, b: ELit) -> bool {
        self.find(a) == self.find(b)
    }

    /// [`find`](Self::find) without path compression, for read-only
    /// walks holding shared borrows of the class lists.
    fn find_nc(&self, lit: ELit) -> ELit {
        find_in(&self.uf, lit)
    }

    /// The canonical form of a prospective node over already-canonical
    /// children: either an Ω.M fold to an existing literal, or the
    /// normalized node plus the output parity absorbed by Ω.I.
    fn canon(kids: [ELit; 3]) -> Result<(ENode, bool), ELit> {
        let [a, b, c] = kids;
        // Ω.M majority folds.
        if a == b || a == c {
            return Err(a);
        }
        if b == c {
            return Err(b);
        }
        if a == b.not() {
            return Err(c);
        }
        if a == c.not() {
            return Err(b);
        }
        if b == c.not() {
            return Err(a);
        }
        // Ω.I: at most one complemented child.
        let mut kids = [a, b, c];
        let flipped = kids.iter().filter(|k| k.is_complemented()).count() >= 2;
        if flipped {
            for k in &mut kids {
                *k = k.not();
            }
        }
        kids.sort();
        Ok((kids, flipped))
    }

    /// Adds (or finds) the majority of three literals, applying the Ω.M
    /// folds and Ω.I normalization eagerly. This is the e-graph analogue
    /// of [`Mig::maj`].
    pub fn maj(&mut self, a: ELit, b: ELit, c: ELit) -> ELit {
        let kids = [self.find(a), self.find(b), self.find(c)];
        match Self::canon(kids) {
            Err(folded) => folded,
            Ok((node, out)) => {
                let id = self.uf.len() as u32;
                match self.memo.entry(node) {
                    hash_map::Entry::Occupied(hit) => {
                        let lit = *hit.get();
                        return self.find(lit).complement_if(out);
                    }
                    hash_map::Entry::Vacant(slot) => {
                        slot.insert(ELit::new(id, false));
                    }
                }
                self.fresh_class();
                self.nodes[id as usize].push((node, false));
                self.num_enodes += 1;
                ELit::new(id, out)
            }
        }
    }

    /// Records that `a` and `b` compute the same function. Returns true
    /// when the union-find changed. (A contradictory merge — a class
    /// against its own complement — is ignored; sound rules never
    /// produce one.)
    fn merge(&mut self, a: ELit, b: ELit) -> bool {
        let fa = self.find(a);
        let fb = self.find(b);
        if fa.class() == fb.class() {
            return false;
        }
        crate::faultpoint!("esat.merge");
        // Absorb the class with fewer nodes into the other.
        let (r, s) =
            if self.nodes[fa.class() as usize].len() >= self.nodes[fb.class() as usize].len() {
                (fa, fb)
            } else {
                (fb, fa)
            };
        let q = r.is_complemented() ^ s.is_complemented();
        self.uf[s.class() as usize] = ELit::new(r.class(), q);
        let moved = std::mem::take(&mut self.nodes[s.class() as usize]);
        for &(n, oc) in moved.iter() {
            self.nodes[r.class() as usize].push((n, oc ^ q));
        }
        if let Some((l, p)) = self.leaf[s.class() as usize].take() {
            if self.leaf[r.class() as usize].is_none() {
                self.leaf[r.class() as usize] = Some((l, p ^ q));
            }
        }
        self.merges += 1;
        true
    }

    /// Restores the congruence invariant after merges: every node is
    /// re-canonicalized against the union-find and re-hash-consed;
    /// colliding nodes merge their classes. Runs sweeps until a sweep
    /// performs no merge, then points every memo value at its root.
    fn rebuild(&mut self) {
        while self.sweep() {}
        let uf = &self.uf;
        for lit in self.memo.values_mut() {
            *lit = find_in(uf, *lit);
        }
    }

    /// One congruence sweep. It computes what re-inserting every node,
    /// in class order and then list order, into an emptied memo
    /// computes: the same `find` calls, merges, class lists and live
    /// count. Returns whether it merged any classes.
    ///
    /// Only *moved* nodes, those with a child outside the root set,
    /// touch the memo. A node with root children at its turn is its own
    /// canonical form, and stored nodes are pairwise distinct (they are
    /// the memo's keys). So such a node can only collide with an earlier
    /// moved node's new form, which `claims` holds. A moved node's new
    /// form `n` can also collide with the node stored as `n`: that node
    /// has root children now, so it had them at its own turn and was
    /// inserted there if its turn came first. The memo value of `n`,
    /// resolved against the union-find as it was at the start of the
    /// sweep, names the class it was gathered from, which locates its
    /// turn. Afterwards the memo drops the moved nodes' old keys and
    /// takes the claims; values may name absorbed classes until
    /// [`rebuild`](Self::rebuild) resolves them.
    fn sweep(&mut self) -> bool {
        let mut scratch = std::mem::take(&mut self.sweep_scratch);
        let SweepScratch {
            gathered,
            inserted,
            claims,
            moved,
            uf_at_gather,
        } = &mut scratch;
        gathered.take(self);
        for list in &mut self.nodes {
            list.clear();
        }
        uf_at_gather.clone_from(&self.uf);
        let entries = &gathered.entries;
        inserted.clear();
        inserted.resize(entries.len(), ELit::FALSE);
        self.num_enodes = 0;
        let mut changed = false;
        for (i, &(lit, node)) in entries.iter().enumerate() {
            let lit = self.find(lit);
            let unchanged = node
                .iter()
                .all(|k| self.uf[k.class() as usize].class() == k.class());
            let form = if unchanged {
                Ok((node, false))
            } else {
                moved.push(node);
                Self::canon([self.find(node[0]), self.find(node[1]), self.find(node[2])])
            };
            match form {
                Err(folded) => {
                    changed |= self.merge(lit, folded);
                }
                Ok((n, flip)) => {
                    // `n` computes `lit` up to `flip`.
                    let nlit = lit.complement_if(flip);
                    // The literal of the node inserted as `n` earlier in
                    // this sweep, if any.
                    let prev = match claims.get(&n) {
                        Some(&prev) => Some(prev),
                        None if unchanged => None,
                        None => self.memo.get(&n).and_then(|&held| {
                            let c = find_in(uf_at_gather, held).class();
                            let first = gathered.start[c as usize] as usize;
                            let turn = first
                                + gathered
                                    .class(c)
                                    .iter()
                                    .position(|e| e.1 == n)
                                    .expect("a memo key is a stored node");
                            (turn < i).then(|| inserted[turn])
                        }),
                    };
                    match prev {
                        Some(prev) => {
                            let prev = self.find(prev);
                            if prev != nlit {
                                changed |= self.merge(prev, nlit);
                            }
                        }
                        None => {
                            if !unchanged {
                                claims.insert(n, nlit);
                            }
                            inserted[i] = nlit;
                            let root = self.find(nlit);
                            self.nodes[root.class() as usize].push((n, root.is_complemented()));
                            self.num_enodes += 1;
                        }
                    }
                }
            }
        }
        for old in moved.drain(..) {
            self.memo.remove(&old);
        }
        self.memo.extend(claims.drain());
        self.sweep_scratch = scratch;
        changed
    }

    /// Whether the majority of three (canonical) literals folds or was
    /// hash-consed when `snap` was taken — a read-only membership probe
    /// used to gate the inflationary rules. Applying actions only adds
    /// memo entries, and those name classes created after the snapshot.
    fn node_existed(&self, snap: &ClassSnapshot, kids: [ELit; 3]) -> bool {
        match Self::canon(kids) {
            Err(_) => true,
            Ok((node, _)) => self
                .memo
                .get(&node)
                .is_some_and(|lit| lit.class() < snap.classes()),
        }
    }

    /// Pushes the actions of every rule matching at snapshot entry
    /// `entry`, in rule order, into `window`; true when the window
    /// filled up before the matches ran out.
    fn match_node(
        &self,
        snap: &ClassSnapshot,
        entry: usize,
        scan_cap: usize,
        window: &mut Window,
    ) -> bool {
        let (target, n) = snap.entries[entry];
        let flipped = |m: ENode, flip: bool| {
            if flip {
                [m[0].not(), m[1].not(), m[2].not()]
            } else {
                m
            }
        };
        for i in 0..3 {
            let child = n[i];
            let x = n[(i + 1) % 3];
            let u = n[(i + 2) % 3];
            for &(mlit, m) in snap.class(child.class()).iter().take(scan_cap) {
                let ik = flipped(m, child.is_complemented() ^ mlit.is_complemented());
                // target ≡ M(x, u, M(ik)) — match the nested rules
                // with both (x,u) and (u,x) in the outer role.
                for (x, u) in [(x, u), (u, x)] {
                    for j in 0..3 {
                        let yj = ik[j];
                        let ya = ik[(j + 1) % 3];
                        let yb = ik[(j + 2) % 3];
                        if yj == u {
                            // Ω.A: M(x,u,M(ya,u,yb)) = M(yb,u,M(ya,u,x))
                            if !window.push(Action::Nest {
                                outer: [yb, u],
                                inner: [ya, u, x],
                                target,
                            }) {
                                return true;
                            }
                            // M-assoc: … = M(M(x,u,ya),u,yb)
                            if !window.push(Action::Nest {
                                outer: [u, yb],
                                inner: [x, u, ya],
                                target,
                            }) {
                                return true;
                            }
                        }
                        if yj == u.not() {
                            // Ψ.C: M(x,u,M(ya,u',yb)) = M(x,u,M(ya,x,yb))
                            if !window.push(Action::Nest {
                                outer: [x, u],
                                inner: [ya, x, yb],
                                target,
                            }) {
                                return true;
                            }
                        }
                        if yj == x {
                            // Ψ.R (one level): M(x,u,M(…x…)) =
                            // M(x,u,M(…u'…))
                            let mut inner = ik;
                            inner[j] = u.not();
                            if !window.push(Action::Nest {
                                outer: [x, u],
                                inner,
                                target,
                            }) {
                                return true;
                            }
                        }
                    }
                }
                // Ω.D left-to-right: M(x,u,M(a,b,c)) =
                // M(M(x,u,a),M(x,u,b),c) for each choice of the child
                // kept outside. Unconditionally this rule is explosive
                // (it always adds up to three nodes and matches every
                // nested pair), so it only fires when at least one of
                // the distributed products already exists in the
                // e-graph — then the rewrite creates sharing instead of
                // inflation. Each product is probed once and shared by
                // the two choices it takes part in.
                let exists = ik.map(|k| self.node_existed(snap, [x, u, k]));
                for j in 0..3 {
                    if (exists[(j + 1) % 3] || exists[(j + 2) % 3])
                        && !window.push(Action::Dist {
                            ab: [x, u],
                            pair: [ik[(j + 1) % 3], ik[(j + 2) % 3]],
                            z: ik[j],
                            target,
                        })
                    {
                        return true;
                    }
                }
            }
        }
        // Ω.D right-to-left: two children that are majority nodes
        // sharing two operands factor out —
        // M(M(x,y,u),M(x,y,v),z) = M(x,y,M(u,v,z)).
        for i in 0..3 {
            let a = n[i];
            let b = n[(i + 1) % 3];
            let z = n[(i + 2) % 3];
            let an = snap.class(a.class());
            let bn = snap.class(b.class());
            for &(alit, ma) in an.iter().take(scan_cap) {
                let ka = flipped(ma, a.is_complemented() ^ alit.is_complemented());
                for &(blit, mb) in bn.iter().take(scan_cap) {
                    let kb = flipped(mb, b.is_complemented() ^ blit.is_complemented());
                    // Find two shared operands x,y with leftovers u,v.
                    for p in 0..3 {
                        for q in 0..3 {
                            if q == p {
                                continue;
                            }
                            let (x, y) = (ka[p], ka[q]);
                            let mut used = [false; 3];
                            let mut ok = true;
                            for want in [x, y] {
                                let found = (0..3).find(|&t| !used[t] && kb[t] == want);
                                match found {
                                    Some(t) => used[t] = true,
                                    None => {
                                        ok = false;
                                        break;
                                    }
                                }
                            }
                            if !ok {
                                continue;
                            }
                            let u = ka[3 - p - q];
                            let v = kb[(0..3).find(|&t| !used[t]).expect("one left")];
                            if !window.push(Action::Nest {
                                outer: [x, y],
                                inner: [u, v, z],
                                target,
                            }) {
                                return true;
                            }
                        }
                    }
                }
            }
        }
        false
    }

    /// Applies one deferred rule application: builds its right-hand
    /// side and merges it with the target.
    fn apply(&mut self, action: Action) {
        match action {
            Action::Nest {
                outer,
                inner,
                target,
            } => {
                let im = self.maj(inner[0], inner[1], inner[2]);
                let om = self.maj(outer[0], outer[1], im);
                self.merge(om, target);
            }
            Action::Dist {
                ab,
                pair,
                z,
                target,
            } => {
                let l = self.maj(ab[0], ab[1], pair[0]);
                let r = self.maj(ab[0], ab[1], pair[1]);
                let om = self.maj(l, r, z);
                self.merge(om, target);
            }
        }
    }

    /// One rule sweep: matches every axiom against every node of the
    /// graph as it is now, and applies the actions round-robin across
    /// targets (see [`Matches`]), reporting each to `applied`. Returns
    /// why it stopped early: the e-node `cap` or the `deadline`.
    fn apply_sweep(
        &mut self,
        scan_cap: usize,
        cap: usize,
        deadline: Option<Instant>,
        matches: &mut Matches,
        mut applied: impl FnMut(Action),
    ) -> Option<StopReason> {
        let mut k = 0usize;
        let mut step = |g: &mut EGraph, action: Action| {
            if g.num_enodes >= cap {
                return Some(StopReason::NodeLimit);
            }
            // Deadline polling is batched: cheap enough to keep the
            // zero-budget path free of clock reads.
            if k.is_multiple_of(512) && deadline.is_some_and(|d| Instant::now() >= d) {
                return Some(StopReason::Deadline);
            }
            g.apply(action);
            applied(action);
            k += 1;
            None
        };
        matches.start(self);
        let mut ranks = 0..1;
        loop {
            // A window's first round is target order: each target is
            // matched just before its first action in the window is
            // applied, so the targets past a cut are never matched.
            matches.clear();
            for i in 0..matches.targets.len() {
                if let Some(action) = matches.fill_target(self, i, scan_cap, ranks.clone()) {
                    if let Some(reason) = step(self, action) {
                        return Some(reason);
                    }
                }
            }
            for action in matches.round_robin() {
                if let Some(reason) = step(self, action) {
                    return Some(reason);
                }
            }
            if !matches.advance() {
                return None;
            }
            ranks = ranks.end..ranks.end * 2;
        }
    }

    /// Saturates under the config's budgets and says why it stopped; see
    /// the module docs for the rule set. Deterministic unless
    /// `config.time_ms` is set.
    fn saturate(&mut self, config: &EsatConfig) -> StopReason {
        let cap = config.cap(self.num_enodes);
        let deadline = config
            .time_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let mut matches = Matches::default();
        for _ in 0..config.iters.max(1) {
            if self.num_enodes >= cap {
                return StopReason::NodeLimit;
            }
            let nodes_before = self.num_enodes;
            let merges_at = self.merges;
            let cut = self.apply_sweep(config.scan_cap.max(1), cap, deadline, &mut matches, |_| {});
            self.rebuild();
            if let Some(reason) = cut {
                return reason;
            }
            if self.num_enodes == nodes_before && self.merges == merges_at {
                return StopReason::Saturated;
            }
        }
        StopReason::IterLimit
    }

    /// How many majority gates an extraction choice emits: one per used
    /// non-leaf class.
    fn count_gates(used: &[bool], choice: &[Option<usize>]) -> usize {
        used.iter()
            .zip(choice)
            .filter(|(&u, &ch)| u && ch != Some(usize::MAX))
            .count()
    }

    /// Cost-based extraction: rebuilds the cheapest representative of
    /// every literal in `outputs` into `arena` (which must carry the
    /// same primary inputs the e-graph was seeded with) and returns the
    /// chosen signals, or `None` if some output class has no finite-cost
    /// representative (cannot happen for a graph seeded from a [`Mig`]).
    fn extract_into(
        &mut self,
        objective: Objective,
        outputs: &[ELit],
        arena: &mut Mig,
    ) -> Option<Vec<Signal>> {
        let choice = self.choose(objective, outputs)?;
        self.emit(&choice, outputs, arena)
    }

    /// The extraction choice under `objective`: per root class, the
    /// index of its chosen node (`usize::MAX` = leaf, `None` = no
    /// finite-cost representative).
    fn choose(&self, objective: Objective, outputs: &[ELit]) -> Option<Vec<Option<usize>>> {
        let n = self.uf.len();
        // Per root class: (primary, secondary, chosen node index;
        // usize::MAX = leaf).
        let mut best: Vec<Option<(u64, u64, usize)>> = vec![None; n];
        for (c, slot) in best.iter_mut().enumerate() {
            if self.uf[c].class() == c as u32 && self.leaf[c].is_some() {
                *slot = Some((0, 0, usize::MAX));
            }
        }
        let structural = objective.structural();
        // Bottom-up fixpoint: a node's size cost is 1 + Σ child costs,
        // its depth cost 1 + max child depth; rounds repeat until no
        // class improves. Chosen structures are acyclic because the
        // primary metric strictly decreases child-ward. Costs fall
        // monotonically as children fall, so every class converges to
        // the min over its candidates' final costs, with the same `idx`
        // tiebreak a full sweep produces ([`Frontier`]). On depth
        // extractions of near-converged e-graphs this turns
        // O(rounds · classes) rescans into work proportional to the
        // cone that actually changed.
        let view = FlatClasses::new(self);
        let mut frontier = Frontier::new(&view);
        frontier.run(|c| {
            let mut improved = false;
            for (idx, kids) in view.of(c).iter().enumerate() {
                let mut size: u64 = 1;
                let mut depth: u64 = 0;
                let mut viable = true;
                for &kc in kids {
                    match best[kc as usize] {
                        Some((s, d, _)) => {
                            let (ks, kd) = match structural {
                                Objective::SizeThenDepth => (s, d),
                                _ => (d, s),
                            };
                            size = size.saturating_add(ks);
                            depth = depth.max(kd + 1);
                        }
                        None => {
                            viable = false;
                            break;
                        }
                    }
                }
                if !viable {
                    continue;
                }
                let cand = match structural {
                    Objective::SizeThenDepth => (size, depth, idx),
                    _ => (depth, size, idx),
                };
                if best[c].is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                    best[c] = Some(cand);
                    improved = true;
                }
            }
            improved
        });
        // The tree-cost fixpoint ignores sharing: a class used by many
        // chosen parents is paid for once in the DAG but Σ-counted once
        // per use, so extraction can prefer a "cheap tree" over a
        // smaller shared graph. Refine the size-objective choice with
        // marginal recosting: children already in the extracted set are
        // free, candidate switches are accepted only when the realized
        // class count (== emitted gate count before strashing) drops.
        // Acyclicity is kept by restricting every switch to nodes whose
        // children have strictly smaller converged tree cost than their
        // class — any mix of such choices terminates child-ward. The
        // marginal costs fall monotonically too, so the recost sweeps
        // run on the same frontier schedule.
        let mut choice: Vec<Option<usize>> = best.iter().map(|b| b.map(|(_, _, i)| i)).collect();
        if structural == Objective::SizeThenDepth {
            let out_classes: Vec<usize> = outputs
                .iter()
                .map(|&o| self.find_nc(o).class() as usize)
                .collect();
            let mut used = view.used_classes(&choice, &out_classes)?;
            let mut gates = Self::count_gates(&used, &choice);
            for _ in 0..4 {
                let mut cand = choice.clone();
                let mut mcost: Vec<Option<u64>> = vec![None; n];
                for c in 0..n {
                    if cand[c] == Some(usize::MAX) {
                        mcost[c] = Some(0);
                    }
                }
                frontier.run(|c| {
                    if self.leaf[c].is_some() {
                        return false;
                    }
                    let Some((tp, _, _)) = best[c] else {
                        return false;
                    };
                    let mut class_best: Option<(u64, usize)> = None;
                    for (idx, kids) in view.of(c).iter().enumerate() {
                        let mut cost: u64 = 1;
                        let mut safe = true;
                        for &kc in kids {
                            let kc = kc as usize;
                            match best[kc] {
                                Some((kp, _, _)) if kp < tp => {
                                    if !used[kc] {
                                        match mcost[kc] {
                                            Some(m) => cost = cost.saturating_add(m),
                                            None => {
                                                safe = false;
                                                break;
                                            }
                                        }
                                    }
                                }
                                _ => {
                                    safe = false;
                                    break;
                                }
                            }
                        }
                        if safe && class_best.is_none_or(|(bc, _)| cost < bc) {
                            class_best = Some((cost, idx));
                        }
                    }
                    match class_best {
                        Some((cost, idx)) if mcost[c].is_none_or(|m| cost < m) => {
                            mcost[c] = Some(cost);
                            cand[c] = Some(idx);
                            true
                        }
                        _ => false,
                    }
                });
                let new_used = view.used_classes(&cand, &out_classes)?;
                let new_gates = Self::count_gates(&new_used, &cand);
                if new_gates < gates {
                    choice = cand;
                    used = new_used;
                    gates = new_gates;
                } else {
                    break;
                }
            }
        }
        Some(choice)
    }

    /// Emits the chosen representatives of `outputs` into `arena`
    /// bottom-up with an explicit stack (e-graph depth is unbounded by
    /// the input's depth).
    fn emit(
        &mut self,
        choice: &[Option<usize>],
        outputs: &[ELit],
        arena: &mut Mig,
    ) -> Option<Vec<Signal>> {
        let mut built: Vec<Option<Signal>> = vec![None; self.uf.len()];
        let mut stack: Vec<u32> = Vec::new();
        for &out in outputs {
            stack.push(self.find(out).class());
            while let Some(&c) = stack.last() {
                let c = c as usize;
                if built[c].is_some() {
                    stack.pop();
                    continue;
                }
                let idx = choice[c]?;
                if idx == usize::MAX {
                    let (leaf, p) = self.leaf[c].expect("leaf-marked class");
                    let sig = match leaf {
                        Leaf::Const => Signal::FALSE,
                        Leaf::Input(i) => arena.input(i as usize),
                    };
                    // leaf ≡ ELit(c, p), so ELit(c, 0) = leaf ⊕ p.
                    built[c] = Some(sig.complement_if(p));
                    stack.pop();
                    continue;
                }
                let (node, oc) = self.nodes[c][idx];
                let mut kids = [Signal::FALSE; 3];
                let mut ready = true;
                for (k, kid) in node.iter().enumerate() {
                    let klit = self.find(*kid);
                    match built[klit.class() as usize] {
                        Some(sig) => kids[k] = sig.complement_if(klit.is_complemented()),
                        None => {
                            stack.push(klit.class());
                            ready = false;
                        }
                    }
                }
                if !ready {
                    continue;
                }
                let m = arena.maj(kids[0], kids[1], kids[2]);
                built[c] = Some(m.complement_if(oc));
                stack.pop();
            }
        }
        outputs
            .iter()
            .map(|&out| {
                let lit = self.find(out);
                built[lit.class() as usize].map(|s| s.complement_if(lit.is_complemented()))
            })
            .collect()
    }
}

/// The canonical form of `lit` under the union-find `uf`, without path
/// compression.
fn find_in(uf: &[ELit], lit: ELit) -> ELit {
    let mut c = lit.class();
    let mut total = lit.is_complemented();
    loop {
        let p = uf[c as usize];
        if p.class() == c {
            return ELit::new(c, total);
        }
        total ^= p.is_complemented();
        c = p.class();
    }
}

/// Inserts every reachable gate of `mig` into `g` (which must have been
/// primed with the same input count) and returns the output literals in
/// output order.
fn seed_one(g: &mut EGraph, mig: &Mig) -> Vec<ELit> {
    let mut map: Vec<ELit> = vec![ELit::FALSE; mig.num_nodes()];
    for i in 0..mig.num_inputs() {
        map[i + 1] = g.input(i);
    }
    {
        let mark = mig.reach_ref();
        for node in mig.gate_ids() {
            if !mark[node.index()] {
                continue;
            }
            let [a, b, c] = mig
                .children(node)
                .map(|s| map[s.node().index()].complement_if(s.is_complemented()));
            map[node.index()] = g.maj(a, b, c);
        }
    }
    mig.outputs()
        .iter()
        .map(|(_, s)| map[s.node().index()].complement_if(s.is_complemented()))
        .collect()
}

/// Seeds an e-graph from `mig` plus any number of functionally
/// equivalent structural `variants` (same inputs, same output order):
/// each variant's outputs are merged with `mig`'s, so congruence
/// closure relates the alternative structures and extraction can pick
/// the cheapest mix of all of them. Returns the graph plus `mig`'s
/// output literals.
fn seed(mig: &Mig, variants: &[Mig]) -> (EGraph, Vec<ELit>) {
    let mut g = EGraph::with_inputs(mig.num_inputs());
    let outs = seed_one(&mut g, mig);
    for v in variants {
        debug_assert_eq!(v.num_inputs(), mig.num_inputs());
        let vouts = seed_one(&mut g, v);
        for (&a, &b) in outs.iter().zip(&vouts) {
            g.merge(a, b);
        }
        g.rebuild();
    }
    (g, outs)
}

/// Saturates the e-graph of `mig` plus its `variants` under `config`
/// and extracts the cheapest representative under `objective`.
fn saturate_and_extract(
    mig: &Mig,
    variants: &[Mig],
    config: &EsatConfig,
    objective: Objective,
    bufs: &mut OptBuffers,
) -> Mig {
    let (mut g, outs) = seed(mig, variants);
    g.saturate(config);
    let mut arena = bufs.fresh_arena(mig);
    match g.extract_into(objective, &outs, &mut arena) {
        Some(sigs) => {
            for ((name, _), sig) in mig.outputs().iter().zip(sigs) {
                arena.add_output(name.clone(), sig);
            }
            arena
        }
        None => {
            // Unreachable for seeded graphs; fall back to a verbatim
            // copy so the pass stays total.
            bufs.recycle(arena);
            bufs.cleanup(mig)
        }
    }
}

/// Equality-saturation rewriting, the `esat` / `depth_esat` flow steps.
///
/// Seeds an e-graph from the input and its [`variants`], saturates the
/// Ω/Ψ rule set under the pipeline `budget` (`4 × effort` rule sweeps
/// clamped to `1..=32`, [`Budget::max_nodes`] caps the e-graph,
/// [`Budget::pass_ms`] installs a saturation deadline), then extracts
/// the cheapest representative under `goal`. The extraction is kept
/// when it is no worse than the input under `goal` (ties included, see
/// [`esat_with`]), so the pass is monotone and can never regress a flow.
/// `jobs` is the worker count of the depth-rewrite seed; results never
/// depend on it.
pub(crate) fn optimize_esat(
    mig: Mig,
    goal: Objective,
    effort: usize,
    jobs: usize,
    budget: Budget,
    bufs: &mut OptBuffers,
    rc: &mut RewriteCache,
) -> Mig {
    let config = EsatConfig {
        iters: (effort * 4).clamp(1, 32),
        enode_cap: budget.max_nodes.unwrap_or(0),
        time_ms: budget.pass_ms,
        scan_cap: SCAN_CAP,
    };
    esat_with(mig, goal, jobs, &config, bufs, rc)
}

/// Structurally different but equivalent restructurings of `mig` used
/// as extra e-graph seeds: the algebraic depth optimizer reshapes
/// aggressively (Ω.D L→R pushes), a size recovery of that reshape lands
/// in yet another basin, and the NPN-database depth-rewriter
/// contributes structures the algebraic rules never produce. Their
/// outputs merge with the input's, so extraction chooses the cheapest
/// mix of all the structures plus everything saturation derives between
/// them. The seeds run at fixed efforts (depth 6, size 4, depth-rewrite
/// 2 on `jobs` workers), whatever the pass's own effort.
fn variants(mig: &Mig, jobs: usize, bufs: &mut OptBuffers, rc: &mut RewriteCache) -> Vec<Mig> {
    let deep = optimize_depth(mig, 6, bufs);
    let recovered = optimize_size(&deep, 4, true, bufs);
    let rw_deep = optimize_rewrite(mig, Objective::DepthThenSize, 2, jobs, bufs, rc);
    vec![deep, recovered, rw_deep]
}

/// [`optimize_esat`] under an explicit saturation `config`: saturate
/// over the input plus its [`variants`], extract under `goal`, keep the
/// winner.
fn esat_with(
    mig: Mig,
    goal: Objective,
    jobs: usize,
    config: &EsatConfig,
    bufs: &mut OptBuffers,
    rc: &mut RewriteCache,
) -> Mig {
    let seeds = variants(&mig, jobs, bufs, rc);
    let cand = saturate_and_extract(&mig, &seeds, config, goal, bufs);
    for v in seeds {
        bufs.recycle(v);
    }
    // `<=` rather than `<`: an equal-cost extraction is still a
    // *restructuring* (the extractor picks per-class representatives
    // afresh), and downstream greedy passes regularly escape their
    // local minimum on the reshaped graph. Strictly worse extractions
    // are discarded, so the pass stays monotone.
    if goal.of(&cand) <= goal.of(&mig) {
        bufs.recycle(mig);
        cand
    } else {
        bufs.recycle(cand);
        mig
    }
}

#[cfg(test)]
#[path = "esat_reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::pipeline::{Flow, Pass, PassKind, PassOutcome};
    use crate::OptContext;
    use mig_benchgen::{generate, layered_random, RandomLogicParams};
    use mig_netlist::SplitMix64;

    /// The paper's axiom set as executable, simulation-testable rules. The
    /// saturation engine implements the structural rules (`Ω.C`, `Ω.M`,
    /// `Ω.I`) in its normal form and the rest in its matcher; this enum is
    /// the single list the axiom-soundness tests iterate so every rule is
    /// covered bidirectionally by batched simulation and by saturation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum EsatRule {
        /// `Ω.C` commutativity: `M(x,y,z) = M(y,x,z)` (structural: children
        /// are kept sorted).
        OmegaC,
        /// `Ω.M` majority: `M(x,x,z) = x` and `M(x,x',z) = z` (folded on
        /// insertion).
        OmegaM,
        /// `Ω.A` associativity: `M(x,u,M(y,u,z)) = M(z,u,M(y,u,x))`.
        OmegaA,
        /// `Ω.D` distributivity: `M(x,y,M(u,v,z)) = M(M(x,y,u),M(x,y,v),z)`.
        OmegaD,
        /// `Ω.I` inverter propagation: `M'(x,y,z) = M(x',y',z')`
        /// (structural: complement normalization).
        OmegaI,
        /// `Ψ.R` relevance, one-level instance:
        /// `M(x,y,M(z,x,w)) = M(x,y,M(z,y',w))`.
        PsiR,
        /// `Ψ.C` complementary associativity:
        /// `M(x,u,M(y,u',z)) = M(x,u,M(y,x,z))`.
        PsiC,
        /// M-associativity: `M(x,u,M(y,u,z)) = M(M(x,u,y),u,z)`.
        MAssoc,
    }

    impl EsatRule {
        /// Every rule, in paper order.
        const ALL: [EsatRule; 8] = [
            EsatRule::OmegaC,
            EsatRule::OmegaM,
            EsatRule::OmegaA,
            EsatRule::OmegaD,
            EsatRule::OmegaI,
            EsatRule::PsiR,
            EsatRule::PsiC,
            EsatRule::MAssoc,
        ];

        /// Short display name with the paper reference.
        fn name(self) -> &'static str {
            match self {
                EsatRule::OmegaC => "Ω.C commutativity",
                EsatRule::OmegaM => "Ω.M majority",
                EsatRule::OmegaA => "Ω.A associativity",
                EsatRule::OmegaD => "Ω.D distributivity",
                EsatRule::OmegaI => "Ω.I inverter propagation",
                EsatRule::PsiR => "Ψ.R relevance",
                EsatRule::PsiC => "Ψ.C complementary associativity",
                EsatRule::MAssoc => "M-associativity",
            }
        }

        /// Builds this rule's left/right-hand sides over the
        /// environment `[x, u, y, z, w]`, inside a [`Mig`] or an
        /// [`EGraph`], returning one `(lhs, rhs)` pair per instance
        /// (some rules have two). Each pair is functionally equal for
        /// *any* choice of environment — what the soundness tests
        /// verify by simulation and the saturation tests by merging.
        fn instances<B: Builder>(self, b: &mut B, env: [B::Lit; 5]) -> Vec<(B::Lit, B::Lit)> {
            let [x, u, y, z, w] = env;
            match self {
                EsatRule::OmegaC => {
                    let lhs = b.maj(x, u, y);
                    let rhs = b.maj(u, y, x);
                    vec![(lhs, rhs)]
                }
                EsatRule::OmegaM => {
                    let a = b.maj(x, x, z);
                    let c = b.maj(x, B::not(x), z);
                    vec![(a, x), (c, z)]
                }
                EsatRule::OmegaA => {
                    let li = b.maj(y, u, z);
                    let lhs = b.maj(x, u, li);
                    let ri = b.maj(y, u, x);
                    let rhs = b.maj(z, u, ri);
                    vec![(lhs, rhs)]
                }
                EsatRule::OmegaD => {
                    let li = b.maj(y, z, w);
                    let lhs = b.maj(x, u, li);
                    let ra = b.maj(x, u, y);
                    let rb = b.maj(x, u, z);
                    let rhs = b.maj(ra, rb, w);
                    vec![(lhs, rhs)]
                }
                EsatRule::OmegaI => {
                    let lhs = B::not(b.maj(x, u, y));
                    let rhs = b.maj(B::not(x), B::not(u), B::not(y));
                    vec![(lhs, rhs)]
                }
                EsatRule::PsiR => {
                    let li = b.maj(z, x, w);
                    let lhs = b.maj(x, u, li);
                    let ri = b.maj(z, B::not(u), w);
                    let rhs = b.maj(x, u, ri);
                    vec![(lhs, rhs)]
                }
                EsatRule::PsiC => {
                    let li = b.maj(y, B::not(u), z);
                    let lhs = b.maj(x, u, li);
                    let ri = b.maj(y, x, z);
                    let rhs = b.maj(x, u, ri);
                    vec![(lhs, rhs)]
                }
                EsatRule::MAssoc => {
                    let li = b.maj(y, u, z);
                    let lhs = b.maj(x, u, li);
                    let ri = b.maj(x, u, y);
                    let rhs = b.maj(ri, u, z);
                    vec![(lhs, rhs)]
                }
            }
        }
    }

    /// Where a rule's sides are built: a [`Mig`] or an [`EGraph`].
    trait Builder {
        type Lit: Copy;
        fn maj(&mut self, a: Self::Lit, b: Self::Lit, c: Self::Lit) -> Self::Lit;
        fn not(lit: Self::Lit) -> Self::Lit;
    }

    impl Builder for Mig {
        type Lit = Signal;
        fn maj(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
            Mig::maj(self, a, b, c)
        }
        fn not(lit: Signal) -> Signal {
            !lit
        }
    }

    impl Builder for EGraph {
        type Lit = ELit;
        fn maj(&mut self, a: ELit, b: ELit, c: ELit) -> ELit {
            EGraph::maj(self, a, b, c)
        }
        fn not(lit: ELit) -> ELit {
            lit.not()
        }
    }

    /// `esat` / `depth_esat` under an explicit saturation config, as a
    /// pass the pipeline can run: a [`Budget`] alone cannot ask for
    /// fewer than 4 sweeps, another `scan_cap`, or a deadline without
    /// the `TimedOut` rollback.
    struct ConfiguredEsat {
        goal: Objective,
        config: EsatConfig,
    }

    impl Pass for ConfiguredEsat {
        fn name(&self) -> &'static str {
            "esat_configured"
        }

        fn objective(&self) -> Objective {
            self.goal
        }

        fn run(&self, ctx: &mut OptContext, mig: Mig) -> Mig {
            let jobs = ctx.jobs();
            esat_with(
                mig,
                self.goal,
                jobs,
                &self.config,
                &mut ctx.bufs,
                &mut ctx.rewrite,
            )
        }
    }

    /// Rebuilds `g`, and a copy of it with the reference rebuild, and
    /// asserts the two identical: union-find, leaves, every class's
    /// node list in order, the memo, the live e-node count and the
    /// merge count.
    fn rebuild_against_reference(g: &mut EGraph) {
        let mut reference = g.clone();
        g.rebuild();
        reference.reference_rebuild();
        assert_eq!(g.uf, reference.uf, "union-find");
        assert_eq!(g.num_enodes, reference.num_enodes, "live e-nodes");
        assert_eq!(g.merges, reference.merges, "merges");
        for c in 0..g.uf.len() {
            assert_eq!(*g.nodes[c], *reference.nodes[c], "class {c} node list");
            assert_eq!(g.leaf[c], reference.leaf[c], "class {c} leaf");
        }
        let sorted = |g: &EGraph| {
            let mut memo: Vec<(ENode, ELit)> = g.memo.iter().map(|(&n, &l)| (n, l)).collect();
            memo.sort_unstable();
            memo
        };
        assert!(sorted(g) == sorted(&reference), "memo");
    }

    /// Steps saturation one sweep at a time. At every sweep the windowed
    /// matcher must apply a prefix of the reference's materialized
    /// interleave under the node cap, and all of it without a cap (on a
    /// copy, so every window is matched while earlier ones mutate the
    /// graph). The sweep then rebuilds in lockstep with the reference
    /// rebuild.
    fn assert_apply_order_matches_reference(g: &mut EGraph, iters: usize, cap: usize) {
        let scan_cap = EsatConfig::default().scan_cap;
        let mut matches = Matches::default();
        for sweep in 0..iters {
            if g.num_enodes() >= cap {
                break;
            }
            let reference = g.reference_matches(scan_cap);
            let mut order = Vec::new();
            g.clone()
                .apply_sweep(scan_cap, usize::MAX, None, &mut matches, |a| order.push(a));
            assert_eq!(order.len(), reference.len(), "sweep {sweep}");
            assert!(order == reference, "sweep {sweep}: apply order differs");
            let mut applied = Vec::new();
            let cut = g.apply_sweep(scan_cap, cap, None, &mut matches, |a| applied.push(a));
            assert!(applied[..] == reference[..applied.len()], "sweep {sweep}");
            assert!(
                cut.is_some() || applied.len() == reference.len(),
                "sweep {sweep}"
            );
            rebuild_against_reference(g);
        }
    }

    /// Both objectives' extraction choices equal the reference's, and
    /// so do the graphs emitted from them.
    fn assert_extraction_matches_reference(g: &mut EGraph, outs: &[ELit], like: &Mig) {
        for obj in [Objective::SizeThenDepth, Objective::DepthThenSize] {
            let choice = g.choose(obj, outs);
            assert_eq!(choice, g.reference_choose(obj, outs), "{obj:?}");
            let choice = choice.expect("seeded graphs extract");
            let mut bufs = OptBuffers::new();
            let mut emitted = bufs.fresh_arena(like);
            let sigs = g.extract_into(obj, outs, &mut emitted).unwrap();
            let mut reference = bufs.fresh_arena(like);
            let ref_sigs = g.emit(&choice, outs, &mut reference).unwrap();
            for ((name, _), (s, r)) in like.outputs().iter().zip(sigs.into_iter().zip(ref_sigs)) {
                emitted.add_output(name.clone(), s);
                reference.add_output(name.clone(), r);
            }
            assert!(emitted.same_structure(&reference), "{obj:?}");
        }
    }

    #[test]
    fn flat_matcher_and_frontier_recost_match_the_reference_on_rules() {
        for rule in EsatRule::ALL {
            for flip in [false, true] {
                let mut g = EGraph::with_inputs(5);
                let mut env = fresh_env(&mut g);
                env[0] = env[0].complement_if(flip);
                env[3] = env[3].complement_if(flip);
                let outs: Vec<ELit> = rule
                    .instances(&mut g, env)
                    .into_iter()
                    .flat_map(|(l, r)| [l, r])
                    .collect();
                assert_apply_order_matches_reference(&mut g, 4, 5_000);
                let mut like = Mig::new("rule");
                for i in 0..5 {
                    like.add_input(format!("x{i}"));
                }
                assert_extraction_matches_reference(&mut g, &outs, &like);
            }
        }
    }

    #[test]
    fn flat_matcher_and_frontier_recost_match_the_reference_on_mcnc() {
        for (bench, cap) in [
            ("count", 6_000),
            ("my_adder", 6_000),
            ("cla", 4_000),
            ("b9", 4_000),
        ] {
            let net = mig_benchgen::generate(bench).expect("known benchmark");
            let mig = Mig::from_network(&net).cleanup();
            let (mut g, outs) = seed(&mig, &[]);
            assert_apply_order_matches_reference(&mut g, 3, cap);
            assert_extraction_matches_reference(&mut g, &outs, &mig);
        }
    }

    #[test]
    fn rebuild_matches_the_reference_on_variant_seeds() {
        // Seeding merges whole restructured circuits into the input's
        // classes, so its rebuilds fold, collide and cascade far more
        // than a saturation sweep's.
        for (bench, cap) in [
            ("count", 6_000),
            ("my_adder", 6_000),
            ("cla", 4_000),
            ("b9", 4_000),
        ] {
            let net = mig_benchgen::generate(bench).expect("known benchmark");
            let mig = Mig::from_network(&net).cleanup();
            let mut ctx = OptContext::with_jobs(1);
            let variants = variants(&mig, 1, &mut ctx.bufs, &mut ctx.rewrite);
            let mut g = EGraph::with_inputs(mig.num_inputs());
            let outs = seed_one(&mut g, &mig);
            for v in &variants {
                let vouts = seed_one(&mut g, v);
                for (&a, &b) in outs.iter().zip(&vouts) {
                    g.merge(a, b);
                }
                rebuild_against_reference(&mut g);
            }
            assert_apply_order_matches_reference(&mut g, 3, cap);
        }
    }

    fn fresh_env(g: &mut EGraph) -> [ELit; 5] {
        [g.input(0), g.input(1), g.input(2), g.input(3), g.input(4)]
    }

    #[test]
    fn elit_packs_like_signal() {
        let l = ELit::new(7, true);
        assert_eq!(l.class(), 7);
        assert!(l.is_complemented());
        assert_eq!(l.not().not(), l);
        assert_eq!(ELit::FALSE.not(), ELit::new(0, true));
        assert_eq!(l.complement_if(true), l.not());
        assert_eq!(l.complement_if(false), l);
    }

    #[test]
    fn maj_folds_and_normalizes() {
        let mut g = EGraph::with_inputs(3);
        let [a, b, c] = [g.input(0), g.input(1), g.input(2)];
        // Ω.M folds never create nodes.
        assert_eq!(g.maj(a, a, c), a);
        assert_eq!(g.maj(a, a.not(), c), c);
        assert_eq!(g.maj(ELit::FALSE, ELit::FALSE.not(), b), b);
        assert_eq!(g.num_enodes(), 0);
        // Ω.C: operand order is irrelevant.
        let m1 = g.maj(a, b, c);
        let m2 = g.maj(c, a, b);
        assert_eq!(m1, m2);
        assert_eq!(g.num_enodes(), 1);
        // Ω.I: the all-complemented node is the complement literal.
        let m3 = g.maj(a.not(), b.not(), c.not());
        assert_eq!(m3, m1.not());
        assert_eq!(g.num_enodes(), 1);
    }

    #[test]
    fn merge_with_parity_propagates() {
        let mut g = EGraph::with_inputs(4);
        let [a, b, c, d] = [g.input(0), g.input(1), g.input(2), g.input(3)];
        let m1 = g.maj(a, b, c);
        let m2 = g.maj(a, b, d);
        assert!(g.merge(m1, m2.not()));
        assert!(g.same(m1, m2.not()));
        assert!(g.same(m1.not(), m2));
        assert!(!g.same(m1, m2));
        // Congruence: parents of merged classes collapse after rebuild.
        let p1 = g.maj(m1, c, d);
        let p2 = g.maj(m2.not(), c, d);
        g.rebuild();
        assert!(g.same(p1, p2));
    }

    #[test]
    fn every_rule_saturates_bidirectionally() {
        for rule in EsatRule::ALL {
            // Left-to-right: seed the LHS, saturate, the RHS must land
            // in the same class…
            let mut g = EGraph::with_inputs(5);
            let env = fresh_env(&mut g);
            for (i, (lhs, rhs)) in rule.instances(&mut g, env).into_iter().enumerate() {
                g.saturate(&EsatConfig::default());
                assert!(g.same(lhs, rhs), "{} instance {i} (L→R)", rule.name());
            }
            // …and right-to-left with the sides created in the opposite
            // order (the generative direction flipped).
            let mut g = EGraph::with_inputs(5);
            let env = fresh_env(&mut g);
            let pairs: Vec<(ELit, ELit)> = rule
                .instances(&mut g, env)
                .into_iter()
                .map(|(l, r)| (r, l))
                .collect();
            for (i, (lhs, rhs)) in pairs.into_iter().enumerate() {
                g.saturate(&EsatConfig::default());
                assert!(g.same(lhs, rhs), "{} instance {i} (R→L)", rule.name());
            }
        }
    }

    /// Engine-level bidirectionality: both sides of every rule are
    /// inserted as *separate* structures over random, possibly
    /// complemented environments, then saturated once: whichever side
    /// the matcher fires on, the merge covers the rewrite in both
    /// directions.
    #[test]
    fn saturation_merges_both_sides_of_every_rule() {
        let mut rng = SplitMix64::seed_from_u64(0xE5A7_0004);
        let config = EsatConfig {
            iters: 6,
            enode_cap: 4096,
            time_ms: None,
            scan_cap: 16,
        };
        for rule in EsatRule::ALL {
            for trial in 0..16 {
                let mut g = EGraph::with_inputs(5);
                let base = fresh_env(&mut g);
                let mut env = [ELit::FALSE; 5];
                for slot in &mut env {
                    let l = base[(rng.next_u64() as usize) % base.len()];
                    *slot = l.complement_if(rng.next_u64() & 1 == 1);
                }
                let pairs = rule.instances(&mut g, env);
                g.saturate(&config);
                for (lhs, rhs) in pairs {
                    assert_eq!(
                        g.find(lhs),
                        g.find(rhs),
                        "{} did not saturate to a merge (trial {trial})",
                        rule.name()
                    );
                }
            }
        }
    }

    /// Builds a random MIG over `inputs` inputs with `gates` random
    /// majority gates (random fanins, random complement edges). Returns
    /// the MIG and the signal pool the gates were drawn from.
    fn random_mig(rng: &mut SplitMix64, inputs: usize, gates: usize) -> (Mig, Vec<Signal>) {
        let mut mig = Mig::new("corpus");
        let mut pool: Vec<Signal> = (0..inputs)
            .map(|i| mig.add_input(format!("i{i}")))
            .collect();
        for _ in 0..gates {
            let pick = |rng: &mut SplitMix64, pool: &[Signal]| {
                let s = pool[(rng.next_u64() as usize) % pool.len()];
                s.complement_if(rng.next_u64() & 1 == 1)
            };
            let a = pick(rng, &pool);
            let b = pick(rng, &pool);
            let c = pick(rng, &pool);
            let s = mig.maj(a, b, c);
            pool.push(s);
        }
        (mig, pool)
    }

    /// Checks every rule instance over `env` inside `mig` by batched
    /// simulation on 512 SplitMix64 patterns (8 words of 64): a rule
    /// that is sound for *every* environment is sound as a rewrite in
    /// both directions.
    fn assert_instances_sound(mut mig: Mig, env: [Signal; 5], rng: &mut SplitMix64, what: &str) {
        const WORDS: usize = 8;
        let skip = mig.num_outputs();
        let mut pairs = 0;
        for rule in EsatRule::ALL {
            for (lhs, rhs) in rule.instances(&mut mig, env) {
                mig.add_output(format!("l{pairs}"), lhs);
                mig.add_output(format!("r{pairs}"), rhs);
                pairs += 1;
            }
        }
        let net = mig.to_network();
        let words: Vec<u64> = (0..net.num_inputs() * WORDS)
            .map(|_| rng.next_u64())
            .collect();
        let outs = mig_sim::simulate_batch(&net, &words, WORDS);
        // The MIG may carry pre-existing outputs (benchmark circuits);
        // rule pairs start after them.
        let mut o = outs.chunks_exact(WORDS).skip(skip);
        let mut named = 0;
        for rule in EsatRule::ALL {
            // `instances` is deterministic: re-count pairs per rule so
            // a failure names the axiom it violated.
            let count = match rule {
                EsatRule::OmegaM => 2,
                _ => 1,
            };
            for _ in 0..count {
                let l = o.next().expect("lhs words");
                let r = o.next().expect("rhs words");
                assert_eq!(
                    l,
                    r,
                    "{} is unsound over {what} environment (512-pattern simulation mismatch)",
                    rule.name()
                );
                named += 1;
            }
        }
        assert_eq!(named, pairs, "every emitted pair was checked");
    }

    /// Simulation soundness over environments drawn from random MIGs:
    /// the five metavariables bind to arbitrary internal signals,
    /// inverted edges included.
    #[test]
    fn rules_are_sound_over_random_mig_environments() {
        let mut rng = SplitMix64::seed_from_u64(0xE5A7_0001);
        for round in 0..24 {
            let inputs = 4 + (rng.next_u64() % 5) as usize;
            let gates = 8 + (rng.next_u64() % 40) as usize;
            let (mig, pool) = random_mig(&mut rng, inputs, gates);
            let mut env = [Signal::FALSE; 5];
            for slot in &mut env {
                let s = pool[(rng.next_u64() as usize) % pool.len()];
                *slot = s.complement_if(rng.next_u64() & 1 == 1);
            }
            assert_instances_sound(mig, env, &mut rng, &format!("random-MIG #{round}"));
        }
    }

    /// Simulation soundness on the complement/constant edge cases:
    /// every metavariable additionally ranges over constants and
    /// complemented inputs, including aliased slots (x = u, x = u',
    /// z = 0, …) that often break complement-normalization bookkeeping.
    #[test]
    fn rules_are_sound_on_complement_and_constant_edges() {
        let mut rng = SplitMix64::seed_from_u64(0xE5A7_0002);
        for round in 0..48 {
            let mut mig = Mig::new("edges");
            let ins: Vec<Signal> = (0..3).map(|i| mig.add_input(format!("i{i}"))).collect();
            // Candidate bindings: constants, inputs, complemented inputs.
            let mut cands = vec![Signal::FALSE, !Signal::FALSE];
            for &i in &ins {
                cands.push(i);
                cands.push(!i);
            }
            let mut env = [Signal::FALSE; 5];
            for slot in &mut env {
                *slot = cands[(rng.next_u64() as usize) % cands.len()];
            }
            assert_instances_sound(mig, env, &mut rng, &format!("edge-case #{round}"));
        }
    }

    /// A smoke check that `instances` and the arena strash agree on a
    /// real circuit's input signals.
    #[test]
    fn rule_sides_strash_to_equal_functions_on_a_benchmark() {
        let mig = Mig::from_network(&generate("count").expect("known benchmark"));
        let mut rng = SplitMix64::seed_from_u64(0xE5A7_0003);
        let pool: Vec<Signal> = (0..mig.num_inputs()).map(|i| mig.input(i)).collect();
        let mut env = [Signal::FALSE; 5];
        for slot in &mut env {
            let s = pool[(rng.next_u64() as usize) % pool.len()];
            *slot = s.complement_if(rng.next_u64() & 1 == 1);
        }
        assert_instances_sound(mig, env, &mut rng, "benchmark");
    }

    #[test]
    fn rules_hold_under_complemented_environments() {
        // Complement-edge cases: every rule must also saturate when the
        // environment literals arrive complemented or repeated.
        let mut g = EGraph::with_inputs(5);
        let base = fresh_env(&mut g);
        let envs = [
            [base[0].not(), base[1], base[2], base[3].not(), base[4]],
            [base[0], base[1].not(), base[2].not(), base[3], base[4]],
            [base[0].not(), base[0], base[2], base[3], base[4].not()],
        ];
        for rule in EsatRule::ALL {
            for env in envs {
                let mut g = EGraph::with_inputs(5);
                let env = {
                    let f = fresh_env(&mut g);
                    [
                        f[env[0].class() as usize - 1].complement_if(env[0].is_complemented()),
                        f[env[1].class() as usize - 1].complement_if(env[1].is_complemented()),
                        f[env[2].class() as usize - 1].complement_if(env[2].is_complemented()),
                        f[env[3].class() as usize - 1].complement_if(env[3].is_complemented()),
                        f[env[4].class() as usize - 1].complement_if(env[4].is_complemented()),
                    ]
                };
                for (i, (lhs, rhs)) in rule.instances(&mut g, env).into_iter().enumerate() {
                    g.saturate(&EsatConfig::default());
                    assert!(g.same(lhs, rhs), "{} env case instance {i}", rule.name());
                }
            }
        }
    }

    #[test]
    fn saturation_respects_the_node_cap() {
        let mut g = EGraph::with_inputs(6);
        let ins: Vec<ELit> = (0..6).map(|i| g.input(i)).collect();
        let mut acc = ins[0];
        for &x in &ins[1..] {
            let m = g.maj(acc, x, ELit::FALSE);
            acc = g.maj(m, acc.not(), x);
        }
        let seeded = g.num_enodes();
        let stopped = g.saturate(&EsatConfig {
            iters: 8,
            enode_cap: seeded + 5,
            ..EsatConfig::default()
        });
        assert_eq!(stopped, StopReason::NodeLimit);
        // The cap is a growth stop, not a hard invariant mid-action, but
        // it can only be overshot by the final action's few nodes.
        assert!(g.num_enodes() <= seeded + 5 + 4, "{}", g.num_enodes());
    }

    #[test]
    fn esat_pass_is_monotone_and_equivalent() {
        let mut mig = Mig::new("redundant");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let d = mig.add_input("d");
        // Deliberately un-factored: M(a,b,c) and M(a,b,d) then a layer
        // that Ω.D can shrink.
        let m1 = mig.maj(a, b, c);
        let m2 = mig.maj(a, b, d);
        let top = mig.maj(m1, m2, c);
        let x = mig.xor(top, d);
        mig.add_output("y", x);
        let mut ctx = OptContext::with_jobs(1);
        let out = Flow::parse("esat").unwrap().run(mig.clone(), 2, &mut ctx);
        assert!(out.equiv(&mig, 4));
        assert!(out.size() <= mig.size(), "{} > {}", out.size(), mig.size());
        assert!(
            out.size() < mig.size(),
            "Ω.D factoring must shrink this graph ({} vs {})",
            out.size(),
            mig.size()
        );
    }

    /// The monotone guard proper: the output never exceeds the input
    /// under the goal, even when saturation stops early on a tiny
    /// budget (where extraction rarely finds anything and the guard
    /// must hand the input back untouched).
    #[test]
    fn esat_extraction_never_exceeds_the_prepass_cost() {
        for (bench, cap) in [("alu4", 50_000), ("count", 8_000), ("b9", 500), ("cla", 64)] {
            let mig = Mig::from_network(&generate(bench).expect("known benchmark"));
            for goal in [Objective::SizeThenDepth, Objective::DepthThenSize] {
                let pass = ConfiguredEsat {
                    goal,
                    config: EsatConfig {
                        iters: 4,
                        enode_cap: cap,
                        time_ms: None,
                        scan_cap: 8,
                    },
                };
                let mut ctx = OptContext::with_jobs(1);
                let out = pass.run(&mut ctx, mig.clone());
                let (before, after) = (goal.of(&mig), goal.of(&out));
                assert!(
                    after <= before,
                    "{bench}: esat under {goal:?} worsened the objective ({after:?} > {before:?})"
                );
                assert!(
                    out.equiv(&mig, 16),
                    "{bench}: esat under {goal:?} broke equivalence"
                );
            }
        }
    }

    /// Saturation never panics and always terminates on hostile inputs:
    /// random netlists with constant bindings, aliased/complemented
    /// outputs, and truncated (mostly-unreachable) variants, driven
    /// under adversarially tiny budgets. Every run must stay equivalent
    /// and complete — a budget that stops saturation mid-rebuild must
    /// hand back the input, never a half-merged graph.
    #[test]
    fn esat_survives_mutated_and_truncated_netlists_under_tiny_budgets() {
        // A fault plan another test sets must not trip in here.
        #[cfg(feature = "faultpoints")]
        let _plan = crate::faultpoint::test_lock();
        let mut rng = SplitMix64::seed_from_u64(0xE5A7_F022);
        for case in 0..18 {
            let params = RandomLogicParams {
                inputs: 4 + (rng.next_u64() % 5) as usize,
                outputs: 1 + (rng.next_u64() % 4) as usize,
                gates: 10 + (rng.next_u64() % 120) as usize,
                layers: 2 + (rng.next_u64() % 4) as usize,
                seed: rng.next_u64(),
            };
            let name = format!("esat_fuzz{case}");
            let mut mig = Mig::from_network(&layered_random(&name, &params)).cleanup();

            // Mutate: rebind outputs to hostile signals — constants,
            // complements, aliases of output 0 — and truncate by
            // pointing the last output at an input, stranding most of
            // the cone.
            let n_out = mig.outputs().len();
            for o in 0..n_out {
                match rng.next_u64() % 5 {
                    0 => {
                        let s = mig.outputs()[o].1;
                        mig.set_output(o, !s);
                    }
                    1 => mig.set_output(o, Signal::FALSE),
                    2 => mig.set_output(o, mig.outputs()[0].1),
                    3 if o + 1 == n_out => {
                        let s = mig.input((rng.next_u64() % params.inputs as u64) as usize);
                        mig.set_output(o, s);
                    }
                    _ => {}
                }
            }

            let config = EsatConfig {
                iters: 1 + (rng.next_u64() % 6) as usize,
                enode_cap: 1 + (rng.next_u64() % 600) as usize,
                time_ms: match rng.next_u64() % 3 {
                    0 => Some(0),
                    1 => Some(1 + rng.next_u64() % 5),
                    _ => None,
                },
                scan_cap: (rng.next_u64() % 20) as usize,
            };
            for goal in [Objective::SizeThenDepth, Objective::DepthThenSize] {
                let pass = ConfiguredEsat {
                    goal,
                    config: config.clone(),
                };
                let mut ctx = OptContext::with_jobs(1);
                let out = ctx.run_pass(&pass, mig.clone());
                assert!(
                    out.equiv(&mig, 8),
                    "case {case} under {goal:?}/{config:?} lost equivalence"
                );
                let ledger = ctx.take_ledger();
                assert_eq!(
                    ledger[0].outcome,
                    PassOutcome::Completed,
                    "case {case} under {goal:?}/{config:?}: {:?}",
                    ledger[0].note
                );
            }
        }
    }

    #[test]
    fn esat_finds_the_distributivity_factoring() {
        // M(M(x,y,u), M(x,y,v), z) = M(x,y,M(u,v,z)): 3 nodes → 2.
        let mut mig = Mig::new("dist");
        let x = mig.add_input("x");
        let y = mig.add_input("y");
        let u = mig.add_input("u");
        let v = mig.add_input("v");
        let z = mig.add_input("z");
        let a = mig.maj(x, y, u);
        let b = mig.maj(x, y, v);
        let t = mig.maj(a, b, z);
        mig.add_output("f", t);
        let pass = PassKind::Esat.build(2);
        let mut ctx = OptContext::with_jobs(1);
        let out = ctx.run_pass(&*pass, mig.clone());
        assert!(out.equiv(&mig, 4));
        assert_eq!(out.size(), 2, "factored form is two nodes");
    }

    #[test]
    fn depth_goal_extracts_shallower_structures() {
        // An XOR chain has a log-depth restructuring reachable through
        // associativity.
        let mut mig = Mig::new("chain");
        let ins: Vec<Signal> = (0..4).map(|i| mig.add_input(format!("x{i}"))).collect();
        let mut acc = ins[0];
        for &s in &ins[1..] {
            acc = mig.and(acc, s);
        }
        mig.add_output("y", acc);
        let pass = PassKind::DepthEsat.build(4);
        let mut ctx = OptContext::with_jobs(1);
        let out = ctx.run_pass(&*pass, mig.clone());
        assert!(out.equiv(&mig, 4));
        assert!(
            out.depth() < mig.depth(),
            "{} !< {}",
            out.depth(),
            mig.depth()
        );
    }

    #[test]
    fn extraction_reuses_shared_classes() {
        // Two outputs sharing structure must share extracted nodes (the
        // per-class memo makes extraction DAG-aware).
        let mut mig = Mig::new("share");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let m = mig.maj(a, b, c);
        let o1 = mig.and(m, a);
        let o2 = mig.or(m, b);
        mig.add_output("p", o1);
        mig.add_output("q", o2);
        let (mut g, outs) = seed(&mig, &[]);
        let mut bufs = OptBuffers::new();
        let mut arena = bufs.fresh_arena(&mig);
        let sigs = g
            .extract_into(Objective::SizeThenDepth, &outs, &mut arena)
            .expect("seeded graph extracts");
        for ((name, _), sig) in mig.outputs().iter().zip(sigs) {
            arena.add_output(name.clone(), sig);
        }
        assert!(arena.equiv(&mig, 4));
        assert_eq!(arena.size(), mig.size(), "verbatim extraction round-trips");
    }
}
