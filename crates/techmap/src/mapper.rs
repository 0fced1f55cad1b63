//! Cut-based technology mapping: MIG → standard-cell netlist (paper §V).
//!
//! The paper evaluates MIG optimization by *mapped* area/delay/power on
//! a 22nm library; this module supplies the mapper that turns an
//! optimized [`Mig`] into a [`MappedDesign`] over a [`CellLibrary`].
//! The algorithm is the classic cut-based Boolean-matching flow:
//!
//! 1. **Cut enumeration** — the rewrite engine's k≤4 priority-cut
//!    enumerator ([`mig_core::enumerate_cuts`]) runs once over the
//!    graph; every cut carries the exact function of its root over its
//!    leaves as a packed `u16` truth table.
//! 2. **Boolean matching** — each cut function is support-compressed
//!    and NPN-canonized with the same `u16` canonizer the rewrite
//!    database uses; a hash of canonical forms maps it to the library
//!    cells that implement it (up to input permutation, input
//!    complementation, and output complementation — the recovered
//!    transform tells which cut leaf, in which phase, feeds which cell
//!    pin). Functions no single cell implements get a memoized
//!    Shannon-decomposition *program* (a small tree of library cells),
//!    so any cut maps on any library with an inverter and a NAND —
//!    in particular, majority cuts map onto `cmos22_no_maj`.
//! 3. **Phase-aware covering** — both polarities of every node are
//!    first-class *literals* with their own candidate implementations
//!    (a NAND cell produces the complemented phase of an AND node
//!    directly; an explicit inverter bridges phases when cheaper).
//!    A forward area-flow pass (or an arrival-time pass under the
//!    delay goal) picks an initial cover; exact-area refinement then
//!    re-chooses each covered literal by measuring the true area
//!    freed/added through reference counting, which is monotone
//!    non-increasing. Under the delay goal the refinement is gated by
//!    required times computed from the achieved critical path, so area
//!    recovery only spends real slack.
//! 4. **Emission** — chosen implementations are written out as
//!    [`Instance`]s in topological order.
//!
//! [`TechMapper`] packages a library + configuration behind the
//! [`TechModel`] trait from `mig_core`, so an optimization pipeline can
//! carry the mapper as its cost oracle (`"rewrite; map_area"` flows)
//! without a crate cycle.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex, OnceLock};

use crate::design::{Instance, MappedDesign, NetId};
use crate::library::CellLibrary;
use mig_core::{enumerate_cuts, CutSet, MappedMetrics, Mig, TechModel};
use mig_tt::{cofactors4, extend4, npn4_apply, npn4_canonize, tt_mask, Npn4Transform, VAR4_TT};

/// Slack tolerance for floating-point cost/arrival comparisons.
const EPS: f64 = 1e-9;

/// What the mapper minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapGoal {
    /// Minimize total cell area; delay is incidental.
    Area,
    /// Minimize critical-path arrival, then recover area in the slack.
    Delay,
}

/// Cut width handed to the enumerator.
const CUT_SIZE: usize = 4;

/// Priority cuts kept per node.
const MAX_CUTS: usize = 8;

/// Most exact-area refinement sweeps (each is monotone, so more sweeps
/// only help; returns diminish quickly).
const REFINE_PASSES: usize = 3;

/// Tuning knobs for [`map_mig`].
#[derive(Debug, Clone)]
pub struct MapConfig {
    /// The optimization goal (default [`MapGoal::Area`]).
    pub goal: MapGoal,
    /// Run exact-area refinement after the forward pass (default on;
    /// off is only useful for measuring the refinement itself).
    pub refine: bool,
}

impl Default for MapConfig {
    fn default() -> Self {
        MapConfig {
            goal: MapGoal::Area,
            refine: true,
        }
    }
}

impl MapConfig {
    /// The delay-oriented configuration: arrival-time covering plus
    /// required-time-gated area recovery.
    pub fn delay() -> Self {
        MapConfig {
            goal: MapGoal::Delay,
            ..Self::default()
        }
    }
}

/// Compresses an extended table onto its support among the first `len`
/// variables: returns `(ctt, clen, vars)` where `ctt` is the function
/// over `clen` variables and compressed variable `k` is original
/// variable `vars[k]`.
fn compress(f: u16, len: usize) -> (u16, usize, [u8; 4]) {
    let mut vars = [0u8; 4];
    let mut clen = 0;
    for v in 0..len {
        let (n, p) = cofactors4(f, v);
        if n != p {
            vars[clen] = v as u8;
            clen += 1;
        }
    }
    let mut out = 0u16;
    for y in 0..(1u32 << clen) {
        let mut x = 0u32;
        for (k, &vk) in vars.iter().enumerate().take(clen) {
            if (y >> k) & 1 == 1 {
                x |= 1 << vk;
            }
        }
        if (f >> x) & 1 == 1 {
            out |= 1 << y;
        }
    }
    (out, clen, vars)
}

// ---------------------------------------------------------------------------
// Boolean matching: cut function → library cells / cell programs
// ---------------------------------------------------------------------------

/// One way a single cell implements a cut function: cell pin `p` reads
/// cut leaf slot `pins[p].0`, complemented iff `pins[p].1`; the cell
/// output is the function itself when `out_compl` is false, its
/// complement when true.
#[derive(Debug, Clone)]
struct CellMatch {
    cell: usize,
    pins: Vec<(u8, bool)>,
    out_compl: bool,
}

/// An input of a program step.
#[derive(Debug, Clone, Copy)]
enum ProgSrc {
    /// Cut leaf slot `.0`, complemented iff `.1`.
    Pin(u8, bool),
    /// Output of an earlier step.
    Step(u8),
    /// A constant net.
    Const(bool),
}

/// One cell instantiation inside a program.
#[derive(Debug)]
struct ProgStep {
    cell: usize,
    inputs: Vec<ProgSrc>,
}

/// A multi-cell implementation of a cut function, shared (memoized) per
/// `(tt, len)` — the Shannon-decomposition fallback that guarantees
/// coverage when no single cell matches.
#[derive(Debug)]
struct ProgramShape {
    steps: Vec<ProgStep>,
    /// Index of the step producing the function.
    out: u8,
    /// Total cell area of the steps.
    area: f64,
    /// Critical path through the steps (pins at time 0).
    delay: f64,
}

/// The immutable, library-derived half of the matching engine: the
/// NPN-canonical index of the cells plus the positions of the special
/// cells the Shannon fallback needs. Pure characterization data — built
/// once per library by [`MatchIndex::shared`] and reused by every
/// mapping run (and every `mighty serve` worker) instead of being
/// recomputed per `map_mig` call.
pub(crate) struct MatchIndex {
    /// canonical form → (cell, its canonizing transform, extended tt).
    index: HashMap<u16, Vec<(usize, Npn4Transform, u16)>>,
    inv: usize,
    nand: Option<usize>,
    xor: Option<usize>,
}

impl MatchIndex {
    fn build(lib: &CellLibrary) -> Self {
        let mut index: HashMap<u16, Vec<(usize, Npn4Transform, u16)>> = HashMap::new();
        for (ci, cell) in lib.cells.iter().enumerate() {
            let k = cell.num_inputs;
            if k == 0 || k > 4 {
                continue;
            }
            let tt = (cell.function.as_u64() as u16) & tt_mask(k);
            let g4 = extend4(tt, k);
            // Pin recovery assumes the cell depends on every pin.
            let (_, support, _) = compress(g4, k);
            if support != k {
                continue;
            }
            let (canon, tg) = npn4_canonize(g4);
            index.entry(canon).or_default().push((ci, tg, g4));
        }
        let find2 = |bits: u64| {
            lib.cells
                .iter()
                .position(|c| c.num_inputs == 2 && c.function.as_u64() & 0xF == bits)
        };
        MatchIndex {
            index,
            inv: lib.inverter(),
            nand: find2(0b0111),
            xor: find2(0b0110),
        }
    }

    /// A content fingerprint of everything the index depends on, so the
    /// shared registry can key on *library contents* rather than trust
    /// the name (a caller-modified library must never reuse a stale
    /// stock index).
    fn library_fingerprint(lib: &CellLibrary) -> u64 {
        use mig_netlist::content_hash::{hash_str, mix64};
        let mut h = mix64(hash_str(lib.name) ^ lib.cells.len() as u64);
        for cell in &lib.cells {
            h = mix64(h ^ hash_str(cell.name));
            h = mix64(h ^ (cell.num_inputs as u64) ^ cell.function.as_u64().rotate_left(8));
        }
        h
    }

    /// The shared index for `lib`: one build per distinct library
    /// content, process-wide. Concurrent mapping runs (the serve worker
    /// pool) all probe one registry guarded by a mutex held only for
    /// the lookup; the build itself is cheap enough that a rare
    /// duplicate build on a race would also have been acceptable.
    pub(crate) fn shared(lib: &CellLibrary) -> Arc<MatchIndex> {
        static REGISTRY: OnceLock<Mutex<HashMap<u64, Arc<MatchIndex>>>> = OnceLock::new();
        let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        let key = Self::library_fingerprint(lib);
        let mut map = registry.lock().expect("match-index registry poisoned");
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(Self::build(lib))))
    }
}

/// The Boolean-matching engine for one library: the shared NPN index
/// plus per-run memo tables for cut-function matches and decomposition
/// programs.
struct Matcher<'a> {
    lib: &'a CellLibrary,
    shared: Arc<MatchIndex>,
    match_memo: HashMap<(u16, u8), Rc<Vec<CellMatch>>>,
    prog_memo: HashMap<(u16, u8), Option<Rc<ProgramShape>>>,
}

impl<'a> Matcher<'a> {
    fn new(lib: &'a CellLibrary) -> Self {
        Matcher {
            lib,
            shared: MatchIndex::shared(lib),
            match_memo: HashMap::new(),
            prog_memo: HashMap::new(),
        }
    }

    /// Every single-cell implementation of the `len`-variable function
    /// `tt` (memoized). Degenerate variables are compressed away first,
    /// so a 4-leaf cut whose function only uses 2 leaves still matches
    /// 2-input cells.
    fn matches(&mut self, tt: u16, len: usize) -> Rc<Vec<CellMatch>> {
        let key = (tt & tt_mask(len), len as u8);
        if let Some(m) = self.match_memo.get(&key) {
            return Rc::clone(m);
        }
        let f4 = extend4(tt, len);
        let (ctt, clen, vars) = compress(f4, len);
        let mut out = Vec::new();
        if clen > 0 {
            let c4 = extend4(ctt, clen);
            let (canon, tf) = npn4_canonize(c4);
            if let Some(cells) = self.shared.index.get(&canon) {
                let tf_inv = tf.invert();
                for &(ci, ref tg, g4) in cells {
                    let cell_k = self.lib.cells[ci].num_inputs;
                    if cell_k != clen {
                        continue;
                    }
                    // S satisfies apply(G4, S) = F4: the cut function
                    // is the cell seen through S, which tells us the
                    // pin assignment directly.
                    let s = tg.then(&tf_inv);
                    debug_assert_eq!(npn4_apply(g4, &s), c4);
                    let mut pins = Vec::with_capacity(cell_k);
                    let mut ok = true;
                    for p in 0..cell_k {
                        // Cell pin p = perm[j] reads compressed var j.
                        let j = s
                            .perm
                            .iter()
                            .position(|&q| q as usize == p)
                            .expect("perm is a permutation");
                        if j >= clen {
                            ok = false;
                            break;
                        }
                        pins.push((vars[j], (s.input_flips >> p) & 1 == 1));
                    }
                    if !ok {
                        continue;
                    }
                    let m = CellMatch {
                        cell: ci,
                        pins,
                        out_compl: s.output_flip,
                    };
                    debug_assert!(self.check_match(f4, len, &m));
                    out.push(m);
                }
            }
        }
        let rc = Rc::new(out);
        self.match_memo.insert(key, Rc::clone(&rc));
        rc
    }

    /// Verifies a match by brute-force evaluation (debug builds only).
    fn check_match(&self, f4: u16, len: usize, m: &CellMatch) -> bool {
        let cell_f4 = extend4(
            self.lib.cells[m.cell].function.as_u64() as u16,
            self.lib.cells[m.cell].num_inputs,
        );
        for y in 0..(1u32 << len) {
            let mut idx = 0u32;
            for (p, &(v, c)) in m.pins.iter().enumerate() {
                if ((y >> v) & 1 == 1) ^ c {
                    idx |= 1 << p;
                }
            }
            let got = ((cell_f4 >> idx) & 1 == 1) ^ m.out_compl;
            if got != ((f4 >> y) & 1 == 1) {
                return false;
            }
        }
        true
    }

    /// A multi-cell program computing the `len`-variable function `tt`
    /// (memoized). `None` when the function is degenerate (constant or
    /// a literal — those need no cells) or the library cannot build it
    /// (no NAND-class cell for the Shannon fallback).
    fn program(&mut self, tt: u16, len: usize) -> Option<Rc<ProgramShape>> {
        let key = (tt & tt_mask(len), len as u8);
        if let Some(p) = self.prog_memo.get(&key) {
            return p.clone();
        }
        let mut steps = Vec::new();
        let shape = match self.build_rec(extend4(tt, len), len, &mut steps) {
            Some(ProgSrc::Step(out)) => {
                let mut area = 0.0;
                let mut arr = vec![0.0f64; steps.len()];
                for (i, step) in steps.iter().enumerate() {
                    let cell = &self.lib.cells[step.cell];
                    area += cell.area;
                    let at = step
                        .inputs
                        .iter()
                        .map(|src| match src {
                            ProgSrc::Step(j) => arr[*j as usize],
                            _ => 0.0,
                        })
                        .fold(0.0f64, f64::max);
                    arr[i] = at + cell.delay;
                }
                let delay = arr[out as usize];
                Some(Rc::new(ProgramShape {
                    steps,
                    out,
                    area,
                    delay,
                }))
            }
            _ => None,
        };
        self.prog_memo.insert(key, shape.clone());
        shape
    }

    /// Recursive program construction over an extended table: constant
    /// and literal detection, best single-cell match, then Shannon
    /// decomposition (with an XOR special case) on the top support
    /// variable.
    fn build_rec(&mut self, f4: u16, len: usize, steps: &mut Vec<ProgStep>) -> Option<ProgSrc> {
        if f4 == 0 {
            return Some(ProgSrc::Const(false));
        }
        if f4 == 0xFFFF {
            return Some(ProgSrc::Const(true));
        }
        for (v, &mask) in VAR4_TT.iter().enumerate().take(len) {
            if f4 == mask {
                return Some(ProgSrc::Pin(v as u8, false));
            }
            if f4 == !mask {
                return Some(ProgSrc::Pin(v as u8, true));
            }
        }
        // Best single cell (a complemented-phase match costs an extra
        // inverter on top).
        let ms = self.matches(f4, len);
        let mut best: Option<(f64, CellMatch)> = None;
        for m in ms.iter() {
            let extra = if m.out_compl {
                self.lib.cells[self.shared.inv].area
            } else {
                0.0
            };
            let cost = self.lib.cells[m.cell].area + extra;
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, m.clone()));
            }
        }
        if let Some((_, m)) = best {
            let inputs = m.pins.iter().map(|&(v, c)| ProgSrc::Pin(v, c)).collect();
            steps.push(ProgStep {
                cell: m.cell,
                inputs,
            });
            let out = ProgSrc::Step((steps.len() - 1) as u8);
            return Some(if m.out_compl {
                self.emit_not(out, steps)
            } else {
                out
            });
        }
        // Shannon on the top support variable.
        let (_, clen, vars) = compress(f4, len);
        debug_assert!(clen >= 2, "non-degenerate unmatched function");
        let v = vars[clen - 1] as usize;
        let (h0, h1) = cofactors4(f4, v);
        if h1 == !h0 {
            // f = v ⊕ h0 — one XOR cell over the cofactor program.
            if let Some(xc) = self.shared.xor {
                let g = self.build_rec(h0, len, steps)?;
                return Some(match g {
                    ProgSrc::Const(b) => ProgSrc::Pin(v as u8, b),
                    g => {
                        steps.push(ProgStep {
                            cell: xc,
                            inputs: vec![ProgSrc::Pin(v as u8, false), g],
                        });
                        ProgSrc::Step((steps.len() - 1) as u8)
                    }
                });
            }
        }
        // f = (v ∧ h1) ∨ (¬v ∧ h0) = NAND(NAND(v, h1), NAND(¬v, h0)).
        let a = self.build_rec(h1, len, steps)?;
        let b = self.build_rec(h0, len, steps)?;
        let n1 = self.emit_nand(ProgSrc::Pin(v as u8, false), a, steps)?;
        let n2 = self.emit_nand(ProgSrc::Pin(v as u8, true), b, steps)?;
        self.emit_nand(n1, n2, steps)
    }

    /// Complement of a program source: free on pins and constants, an
    /// inverter step on step outputs.
    fn emit_not(&self, src: ProgSrc, steps: &mut Vec<ProgStep>) -> ProgSrc {
        match src {
            ProgSrc::Pin(v, c) => ProgSrc::Pin(v, !c),
            ProgSrc::Const(b) => ProgSrc::Const(!b),
            ProgSrc::Step(_) => {
                steps.push(ProgStep {
                    cell: self.shared.inv,
                    inputs: vec![src],
                });
                ProgSrc::Step((steps.len() - 1) as u8)
            }
        }
    }

    /// NAND of two program sources with constant folding; `None` when
    /// the library lacks a NAND-class cell.
    fn emit_nand(&self, a: ProgSrc, b: ProgSrc, steps: &mut Vec<ProgStep>) -> Option<ProgSrc> {
        match (a, b) {
            (ProgSrc::Const(false), _) | (_, ProgSrc::Const(false)) => Some(ProgSrc::Const(true)),
            (ProgSrc::Const(true), x) | (x, ProgSrc::Const(true)) => Some(self.emit_not(x, steps)),
            (a, b) => {
                let nand = self.shared.nand?;
                steps.push(ProgStep {
                    cell: nand,
                    inputs: vec![a, b],
                });
                Some(ProgSrc::Step((steps.len() - 1) as u8))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Phase-aware covering
// ---------------------------------------------------------------------------

/// What implements one literal (one polarity of one node).
#[derive(Debug, Clone)]
enum CandKind {
    /// A constant net (node 0, either phase).
    Const,
    /// A primary-input net (plain phase of an input node).
    Pi,
    /// An inverter fed by the opposite-phase literal.
    Inv,
    /// A free alias of another literal's net: the cut function
    /// collapsed to a constant or a single leaf literal, so the node
    /// needs no hardware of its own.
    Wire,
    /// A single library cell over cut-leaf literals (`pins` of the
    /// candidate, in cell-pin order).
    Cell { cell: usize },
    /// A cell program over the leaves of the matched cut.
    Program {
        prog: Rc<ProgramShape>,
        leaves: [u32; 4],
    },
}

/// One candidate implementation of a literal.
#[derive(Debug, Clone)]
struct Candidate {
    kind: CandKind,
    /// Cell area this candidate adds by itself.
    area: f64,
    /// Intrinsic delay from its pins to its output.
    delay: f64,
    /// The literals it reads (deduplicated; for [`CandKind::Cell`]
    /// these are exactly the cell pins in pin order).
    pins: Vec<u32>,
}

/// The covering engine: candidates, per-literal state, and the chosen
/// implementation graph.
struct Cover<'a> {
    mig: &'a Mig,
    lib: &'a CellLibrary,
    goal: MapGoal,
    /// Candidate implementations per literal (`2*node + phase`).
    cands: Vec<Vec<Candidate>>,
    /// Chosen candidate index per literal.
    choice: Vec<u32>,
    /// Area flow served to one consumer (forward pass).
    flow: Vec<f64>,
    /// Best achievable arrival per literal (forward pass).
    arr: Vec<f64>,
    /// Reference counts over the chosen-implementation graph.
    refs: Vec<u32>,
    /// Structural fanout estimate per node, for area-flow division.
    fanout: Vec<f64>,
    inv_cell: usize,
    inv_area: f64,
    inv_delay: f64,
}

impl<'a> Cover<'a> {
    fn new(mig: &'a Mig, lib: &'a CellLibrary, goal: MapGoal) -> Self {
        let nlits = 2 * mig.num_nodes();
        let fanout = mig
            .fanout_counts()
            .iter()
            .map(|&c| f64::from(c.max(1)))
            .collect();
        let inv_cell = lib.inverter();
        Cover {
            mig,
            lib,
            goal,
            cands: vec![Vec::new(); nlits],
            choice: vec![0; nlits],
            flow: vec![0.0; nlits],
            arr: vec![0.0; nlits],
            refs: vec![0; nlits],
            fanout,
            inv_cell,
            inv_area: lib.cells[inv_cell].area,
            inv_delay: lib.cells[inv_cell].delay,
        }
    }

    /// Fills the candidate lists: constants and inputs get their free
    /// nets, every reachable gate literal gets its cut matches, cut
    /// programs, and a phase-bridging inverter (always last).
    fn build_candidates(&mut self, cuts: &CutSet, matcher: &mut Matcher) {
        let free = |kind| Candidate {
            kind,
            area: 0.0,
            delay: 0.0,
            pins: Vec::new(),
        };
        self.cands[0].push(free(CandKind::Const));
        self.cands[1].push(free(CandKind::Const));
        for i in 0..self.mig.num_inputs() {
            let n = i + 1;
            self.cands[2 * n].push(free(CandKind::Pi));
            self.cands[2 * n + 1].push(Candidate {
                kind: CandKind::Inv,
                area: self.inv_area,
                delay: self.inv_delay,
                pins: vec![2 * n as u32],
            });
        }
        let reach = self.mig.reachable();
        for node in self.mig.gate_ids() {
            let n = node.index();
            if !reach[n] {
                continue;
            }
            for cut in cuts.cuts_of(n) {
                if cut.len == 1 && cut.leaves[0] == n as u32 {
                    continue; // the node's own unit cut
                }
                let len = cut.len as usize;
                // A cut whose function collapses to a constant or a
                // single leaf literal implements the node for free:
                // alias the source net instead of matching cells.
                let (ctt, clen, vars) = compress(cut.tt, len);
                if clen == 0 {
                    let v = (ctt & 1) as usize;
                    for phase in 0..2usize {
                        self.push_wire(2 * n + phase, (v ^ phase) as u32);
                    }
                    continue;
                }
                if clen == 1 {
                    let leaf = cut.leaves[vars[0] as usize];
                    let inv = ctt & 1 == 1;
                    for phase in 0..2usize {
                        self.push_wire(2 * n + phase, 2 * leaf + (inv as usize ^ phase) as u32);
                    }
                    continue;
                }
                for m in matcher.matches(cut.tt, len).iter() {
                    let lit = 2 * n + m.out_compl as usize;
                    let cell = &self.lib.cells[m.cell];
                    let pins = m
                        .pins
                        .iter()
                        .map(|&(v, c)| 2 * cut.leaves[v as usize] + c as u32)
                        .collect();
                    self.cands[lit].push(Candidate {
                        kind: CandKind::Cell { cell: m.cell },
                        area: cell.area,
                        delay: cell.delay,
                        pins,
                    });
                }
                for phase in 0..2usize {
                    let tt = if phase == 0 {
                        cut.tt
                    } else {
                        !cut.tt & tt_mask(len)
                    };
                    let Some(prog) = matcher.program(tt, len) else {
                        continue;
                    };
                    if prog.steps.len() < 2 {
                        continue; // single-step programs duplicate cell matches
                    }
                    let mut pins: Vec<u32> = prog
                        .steps
                        .iter()
                        .flat_map(|s| s.inputs.iter())
                        .filter_map(|src| match src {
                            ProgSrc::Pin(v, c) => Some(2 * cut.leaves[*v as usize] + *c as u32),
                            _ => None,
                        })
                        .collect();
                    pins.sort_unstable();
                    pins.dedup();
                    self.cands[2 * n + phase].push(Candidate {
                        kind: CandKind::Program {
                            prog: Rc::clone(&prog),
                            leaves: cut.leaves,
                        },
                        area: prog.area,
                        delay: prog.delay,
                        pins,
                    });
                }
            }
            for phase in 0..2usize {
                self.cands[2 * n + phase].push(Candidate {
                    kind: CandKind::Inv,
                    area: self.inv_area,
                    delay: self.inv_delay,
                    pins: vec![(2 * n + 1 - phase) as u32],
                });
            }
        }
    }

    /// Adds a zero-cost alias candidate for `lit`, deduplicated by
    /// source literal.
    fn push_wire(&mut self, lit: usize, pin: u32) {
        if self.cands[lit]
            .iter()
            .any(|c| matches!(c.kind, CandKind::Wire) && c.pins[0] == pin)
        {
            return;
        }
        self.cands[lit].push(Candidate {
            kind: CandKind::Wire,
            area: 0.0,
            delay: 0.0,
            pins: vec![pin],
        });
    }

    /// The selection key under the goal: area flow first for the area
    /// goal, arrival first for the delay goal.
    fn key(&self, full: f64, arr: f64) -> (f64, f64) {
        match self.goal {
            MapGoal::Area => (full, arr),
            MapGoal::Delay => (arr, full),
        }
    }

    /// Evaluates candidate `i` of `lit` against the current forward
    /// state: total served flow and arrival.
    fn eval(&self, lit: usize, i: usize) -> (f64, f64) {
        let c = &self.cands[lit][i];
        let mut full = c.area;
        let mut at = 0.0f64;
        for &p in &c.pins {
            full += self.flow[p as usize];
            at = at.max(self.arr[p as usize]);
        }
        (full, at + c.delay)
    }

    /// Forward pass in topological (arena) order: picks the best
    /// candidate per literal by area flow (or arrival), with a single
    /// cross-phase inverter relaxation per node. Guarantees the two
    /// phases of a node never both choose the inverter.
    fn forward_select(&mut self) {
        for n in 0..self.mig.num_nodes() {
            let (l0, l1) = (2 * n, 2 * n + 1);
            if self.cands[l0].is_empty() && self.cands[l1].is_empty() {
                continue; // unreachable gate
            }
            // Best non-inverter candidate per phase.
            let mut intr = [None::<(usize, f64, f64)>; 2];
            for (phase, lit) in [(0, l0), (1, l1)] {
                for i in 0..self.cands[lit].len() {
                    if matches!(self.cands[lit][i].kind, CandKind::Inv) {
                        continue;
                    }
                    let (full, at) = self.eval(lit, i);
                    if intr[phase].is_none_or(|(_, bf, ba)| self.key(full, at) < self.key(bf, ba)) {
                        intr[phase] = Some((i, full, at));
                    }
                }
            }
            // Inverter relaxation: phase p may instead invert the
            // opposite phase's intrinsic implementation.
            let fo = self.fanout[n];
            let mut sel = [None::<(usize, f64, f64)>; 2];
            let mut via_inv = [false; 2];
            for phase in 0..2 {
                let lit = [l0, l1][phase];
                sel[phase] = intr[phase];
                let Some((_, of, oa)) = intr[1 - phase] else {
                    continue;
                };
                let Some(ii) = self.cands[lit]
                    .iter()
                    .position(|c| matches!(c.kind, CandKind::Inv))
                else {
                    continue;
                };
                let full = self.inv_area + of / fo;
                let at = oa + self.inv_delay;
                if sel[phase].is_none_or(|(_, bf, ba)| self.key(full, at) < self.key(bf, ba)) {
                    sel[phase] = Some((ii, full, at));
                    via_inv[phase] = true;
                }
            }
            // Both phases choosing the inverter would be circular: the
            // phase gaining less reverts to its intrinsic choice.
            if via_inv[0] && via_inv[1] {
                let gain = |p: usize| {
                    let (_, int_f, _) = intr[p].expect("inverter relaxation needs both");
                    let (_, inv_f, _) = sel[p].expect("selected");
                    int_f - inv_f
                };
                let revert = if gain(0) <= gain(1) { 0 } else { 1 };
                sel[revert] = intr[revert];
            }
            for phase in 0..2 {
                let lit = [l0, l1][phase];
                if self.cands[lit].is_empty() {
                    continue;
                }
                let (i, full, at) = sel[phase]
                    .unwrap_or_else(|| panic!("library cannot implement node {n} phase {phase}"));
                self.choice[lit] = i as u32;
                self.flow[lit] = full / fo;
                self.arr[lit] = at;
            }
        }
    }

    /// Dereferences one use of `lit`: walks the chosen-implementation
    /// cone freeing every literal whose count reaches zero, returning
    /// the total area freed.
    fn deref_cone(&mut self, start: u32) -> f64 {
        let mut freed = 0.0;
        let mut stack = vec![start];
        while let Some(lit) = stack.pop() {
            let l = lit as usize;
            debug_assert!(self.refs[l] > 0, "deref of unreferenced literal");
            self.refs[l] -= 1;
            if self.refs[l] == 0 {
                let c = &self.cands[l][self.choice[l] as usize];
                freed += c.area;
                stack.extend_from_slice(&c.pins);
            }
        }
        freed
    }

    /// References one use of `lit`: walks the chosen-implementation
    /// cone activating every newly-live literal, returning the total
    /// area added. Exact inverse of [`Cover::deref_cone`].
    fn reref_cone(&mut self, start: u32) -> f64 {
        let mut added = 0.0;
        let mut stack = vec![start];
        while let Some(lit) = stack.pop() {
            let l = lit as usize;
            if self.refs[l] == 0 {
                let c = &self.cands[l][self.choice[l] as usize];
                added += c.area;
                stack.extend_from_slice(&c.pins);
            }
            self.refs[l] += 1;
        }
        added
    }

    /// Builds the initial cover: one reference per primary output.
    fn build_cover(&mut self) {
        for &(_, s) in self.mig.outputs() {
            let lit = 2 * s.node().index() + s.is_complemented() as usize;
            self.reref_cone(lit as u32);
        }
    }

    /// Covered literals in emission order: nodes ascending, and within
    /// a node the inverter-implemented phase after the phase it reads.
    fn cover_order(&self) -> Vec<u32> {
        let mut order = Vec::new();
        for n in 0..self.mig.num_nodes() {
            let (l0, l1) = (2 * n, 2 * n + 1);
            let inv_first = self.refs[l0] > 0
                && matches!(self.cands[l0][self.choice[l0] as usize].kind, CandKind::Inv);
            let pair = if inv_first { [l1, l0] } else { [l0, l1] };
            for l in pair {
                if self.refs[l] > 0 {
                    order.push(l as u32);
                }
            }
        }
        order
    }

    /// Arrival times of the chosen cover and the required time each
    /// covered literal must meet so the achieved critical path is
    /// preserved (delay-goal refinement gate).
    fn required_times(&self) -> Vec<f64> {
        let order = self.cover_order();
        let mut arr = vec![0.0f64; self.cands.len()];
        for &lit in &order {
            let l = lit as usize;
            let c = &self.cands[l][self.choice[l] as usize];
            let at = c
                .pins
                .iter()
                .map(|&p| arr[p as usize])
                .fold(0.0f64, f64::max);
            arr[l] = at + c.delay;
        }
        let critical = self
            .mig
            .outputs()
            .iter()
            .map(|&(_, s)| arr[2 * s.node().index() + s.is_complemented() as usize])
            .fold(0.0f64, f64::max);
        let mut req = vec![f64::INFINITY; self.cands.len()];
        for &(_, s) in self.mig.outputs() {
            let l = 2 * s.node().index() + s.is_complemented() as usize;
            req[l] = req[l].min(critical);
        }
        for &lit in order.iter().rev() {
            let l = lit as usize;
            if req[l].is_infinite() {
                req[l] = critical;
            }
            let c = &self.cands[l][self.choice[l] as usize];
            let slack = req[l] - c.delay;
            for &p in &c.pins {
                let p = p as usize;
                req[p] = req[p].min(slack);
            }
        }
        req
    }

    /// One exact-area refinement sweep: every covered literal re-picks
    /// the candidate with the smallest *true* area cost, measured by
    /// dereferencing its current cone and probe-referencing each
    /// alternative. A switch only happens on a strict improvement, so
    /// total area is monotone non-increasing. With `req` set (delay
    /// goal), a candidate is only eligible if its estimated arrival
    /// meets the literal's required time. Returns the number of
    /// literals whose choice switched, so the caller can stop iterating
    /// once a sweep converges (the sweep is deterministic: zero
    /// switches means every further sweep is an identical no-op).
    fn refine_sweep(&mut self, req: Option<&[f64]>) -> usize {
        let mut switches = 0usize;
        let mut order = self.cover_order();
        order.reverse();
        for lit in order {
            let l = lit as usize;
            if self.refs[l] == 0 {
                continue; // freed by an earlier re-choice this sweep
            }
            if self.cands[l].len() < 2 {
                continue;
            }
            let cur = self.choice[l] as usize;
            let cur_pins = self.cands[l][cur].pins.clone();
            for &p in &cur_pins {
                self.deref_cone(p);
            }
            let mut best: Option<(f64, usize)> = None;
            for i in 0..self.cands[l].len() {
                if matches!(self.cands[l][i].kind, CandKind::Inv) {
                    let opp = l ^ 1;
                    if matches!(
                        self.cands[opp][self.choice[opp] as usize].kind,
                        CandKind::Inv
                    ) {
                        continue; // would form an inverter loop
                    }
                }
                let cand_pins = self.cands[l][i].pins.clone();
                if let Some(req) = req {
                    if i != cur {
                        let at = cand_pins
                            .iter()
                            .map(|&p| self.arr[p as usize])
                            .fold(0.0f64, f64::max)
                            + self.cands[l][i].delay;
                        if at > req[l] + EPS {
                            continue;
                        }
                    }
                }
                let mut cost = self.cands[l][i].area;
                for &p in &cand_pins {
                    cost += self.reref_cone(p);
                }
                for &p in &cand_pins {
                    self.deref_cone(p);
                }
                // Prefer the incumbent on (near-)ties to avoid float
                // churn; switch only on a real improvement.
                let better = match best {
                    None => true,
                    Some((bc, bi)) => {
                        if i == cur {
                            cost <= bc + EPS
                        } else {
                            cost < bc - if bi == cur { EPS } else { 0.0 }
                        }
                    }
                };
                if better {
                    best = Some((cost, i));
                }
            }
            let (_, pick) = best.expect("current candidate is always eligible");
            if pick != cur {
                switches += 1;
            }
            self.choice[l] = pick as u32;
            let pick_pins = self.cands[l][pick].pins.clone();
            for &p in &pick_pins {
                self.reref_cone(p);
            }
        }
        switches
    }

    /// Writes the chosen cover out as a [`MappedDesign`] (instances in
    /// topological order).
    fn emit(&self) -> MappedDesign {
        let mut design = MappedDesign {
            library: self.lib.clone(),
            name: self.mig.name().to_string(),
            input_names: (0..self.mig.num_inputs())
                .map(|i| self.mig.input_name(i).to_string())
                .collect(),
            instances: Vec::new(),
            outputs: Vec::new(),
        };
        const UNSET: NetId = NetId::MAX;
        let mut net = vec![UNSET; self.cands.len()];
        for lit in self.cover_order() {
            let l = lit as usize;
            let node = l >> 1;
            let phase = l & 1;
            let cand = &self.cands[l][self.choice[l] as usize];
            net[l] = match &cand.kind {
                CandKind::Const => design.const_net(phase == 1),
                CandKind::Pi => design.input_net(node - 1),
                CandKind::Wire => {
                    let p = cand.pins[0] as usize;
                    debug_assert_ne!(net[p], UNSET, "wire source emitted first");
                    net[p]
                }
                CandKind::Inv => {
                    let inp = net[l ^ 1];
                    debug_assert_ne!(inp, UNSET, "inverter input emitted first");
                    let out = design.instance_net(design.instances.len());
                    design.instances.push(Instance {
                        cell: self.inv_cell,
                        inputs: vec![inp],
                        output: out,
                    });
                    out
                }
                CandKind::Cell { cell } => {
                    let inputs = cand
                        .pins
                        .iter()
                        .map(|&p| {
                            debug_assert_ne!(net[p as usize], UNSET);
                            net[p as usize]
                        })
                        .collect();
                    let out = design.instance_net(design.instances.len());
                    design.instances.push(Instance {
                        cell: *cell,
                        inputs,
                        output: out,
                    });
                    out
                }
                CandKind::Program { prog, leaves } => {
                    let mut step_net = vec![UNSET; prog.steps.len()];
                    for (i, step) in prog.steps.iter().enumerate() {
                        let inputs = step
                            .inputs
                            .iter()
                            .map(|src| match src {
                                ProgSrc::Pin(v, c) => {
                                    let p = 2 * leaves[*v as usize] as usize + *c as usize;
                                    debug_assert_ne!(net[p], UNSET);
                                    net[p]
                                }
                                ProgSrc::Step(j) => step_net[*j as usize],
                                ProgSrc::Const(b) => design.const_net(*b),
                            })
                            .collect();
                        let out = design.instance_net(design.instances.len());
                        design.instances.push(Instance {
                            cell: step.cell,
                            inputs,
                            output: out,
                        });
                        step_net[i] = out;
                    }
                    step_net[prog.out as usize]
                }
            };
        }
        for (name, s) in self.mig.outputs() {
            let l = 2 * s.node().index() + s.is_complemented() as usize;
            debug_assert_ne!(net[l], UNSET, "output literal is covered");
            design.outputs.push((name.clone(), net[l]));
        }
        design
    }
}

/// Maps `mig` onto `library`: cut enumeration, Boolean matching,
/// phase-aware covering, refinement, and emission (see the
/// [module docs](self)). The result computes exactly the functions of
/// `mig`'s outputs.
///
/// # Example
///
/// ```
/// use mig_core::Mig;
/// use mig_techmap::{map_mig, CellLibrary, MapConfig};
///
/// let mut mig = Mig::new("maj");
/// let a = mig.add_input("a");
/// let b = mig.add_input("b");
/// let c = mig.add_input("c");
/// let m = mig.maj(a, b, c);
/// mig.add_output("f", m);
///
/// let design = map_mig(&mig, &CellLibrary::cmos22(), &MapConfig::default());
/// assert_eq!(design.num_cells(), 1, "one MAJ3 cell absorbs the node");
///
/// let nomaj = map_mig(&mig, &CellLibrary::cmos22_no_maj(), &MapConfig::default());
/// assert!(nomaj.area() > design.area(), "no MAJ cell → NAND/INV tree");
/// ```
pub fn map_mig(mig: &Mig, library: &CellLibrary, config: &MapConfig) -> MappedDesign {
    mig_core::faultpoint!("techmap.map");
    let cuts = enumerate_cuts(mig, CUT_SIZE, MAX_CUTS);
    let mut matcher = Matcher::new(library);
    let mut cover = Cover::new(mig, library, config.goal);
    cover.build_candidates(&cuts, &mut matcher);
    cover.forward_select();
    cover.build_cover();
    if config.refine {
        for _ in 0..REFINE_PASSES {
            let req = match config.goal {
                MapGoal::Area => None,
                MapGoal::Delay => Some(cover.required_times()),
            };
            // A converged sweep switches nothing, so the remaining
            // passes — including their O(n) required-time recomputes —
            // would be identical no-ops; skip them.
            if cover.refine_sweep(req.as_deref()) == 0 {
                break;
            }
        }
    }
    cover.emit()
}

/// A [`CellLibrary`] + [`MapConfig`] packaged as a `mig_core`
/// [`TechModel`], so an [`OptContext`](mig_core::OptContext) can carry
/// the mapper as the cost oracle behind `map_area` / `map_delay` flow
/// passes.
#[derive(Debug, Clone)]
pub struct TechMapper {
    library: Arc<CellLibrary>,
    config: MapConfig,
}

impl TechMapper {
    /// A mapper over `library` with the default (area) configuration.
    ///
    /// Accepts either an owned [`CellLibrary`] or an already-shared
    /// `Arc<CellLibrary>` (e.g. from [`CellLibrary::shared_by_name`]);
    /// cloning the mapper never copies the library either way.
    pub fn new(library: impl Into<Arc<CellLibrary>>) -> Self {
        TechMapper {
            library: library.into(),
            config: MapConfig::default(),
        }
    }

    /// The library this mapper targets.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// The mapping configuration.
    pub fn config(&self) -> &MapConfig {
        &self.config
    }

    /// Maps `mig` and returns the full mapped design.
    pub fn map(&self, mig: &Mig) -> MappedDesign {
        map_mig(mig, &self.library, &self.config)
    }
}

impl TechModel for TechMapper {
    fn name(&self) -> &str {
        self.library.name
    }

    fn measure(&self, mig: &Mig) -> MappedMetrics {
        let design = self.map(mig);
        MappedMetrics {
            area: design.area(),
            delay: design.delay(),
            power: design.power(),
            cells: design.num_cells(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mig_core::Signal;

    /// Deterministic xorshift PRNG for test-circuit generation.
    fn rng(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A random MIG tangle: majority/xor/mux over random signals.
    fn tangle(seed: u64, inputs: usize, gates: usize, outputs: usize) -> Mig {
        let mut s = seed;
        let mut mig = Mig::new(format!("tangle{seed}"));
        let mut pool: Vec<Signal> = (0..inputs)
            .map(|i| mig.add_input(format!("x{i}")))
            .collect();
        for _ in 0..gates {
            let pick = |s: &mut u64, pool: &[Signal]| {
                let sig = pool[(rng(s) as usize) % pool.len()];
                sig.complement_if(rng(s) & 1 == 1)
            };
            let a = pick(&mut s, &pool);
            let b = pick(&mut s, &pool);
            let c = pick(&mut s, &pool);
            let g = match rng(&mut s) % 3 {
                0 => mig.maj(a, b, c),
                1 => mig.xor(a, b),
                _ => mig.mux(a, b, c),
            };
            pool.push(g);
        }
        for o in 0..outputs {
            let sig = pool[pool.len() - 1 - (o % pool.len().min(8))];
            mig.add_output(format!("y{o}"), sig.complement_if(o & 1 == 1));
        }
        mig
    }

    fn equivalent(mig: &Mig, design: &MappedDesign) -> bool {
        mig_sim::equivalent(&mig.to_network(), &design.to_network(), 16)
    }

    /// All 24 permutations of [0, 1, 2, 3].
    fn perms4() -> Vec<[u8; 4]> {
        let mut out = Vec::with_capacity(24);
        let mut p = [0u8, 1, 2, 3];
        fn heap(k: usize, p: &mut [u8; 4], out: &mut Vec<[u8; 4]>) {
            if k == 1 {
                out.push(*p);
                return;
            }
            for i in 0..k {
                heap(k - 1, p, out);
                if k.is_multiple_of(2) {
                    p.swap(i, k - 1);
                } else {
                    p.swap(0, k - 1);
                }
            }
        }
        heap(4, &mut p, &mut out);
        out
    }

    /// Property (ISSUE): cut→cell matching agrees with truth-table
    /// evaluation for every cell in both libraries across all 768 NPN
    /// transforms of the cell function.
    #[test]
    fn matching_covers_all_npn_transforms_of_every_cell() {
        for lib in [CellLibrary::cmos22(), CellLibrary::cmos22_no_maj()] {
            let mut matcher = Matcher::new(&lib);
            for cell in &lib.cells {
                let k = cell.num_inputs;
                let g4 = extend4(cell.function.as_u64() as u16, k);
                for perm in perms4() {
                    for ifl in 0..16u8 {
                        for of in [false, true] {
                            let t = Npn4Transform {
                                perm,
                                input_flips: ifl,
                                output_flip: of,
                            };
                            let tt = npn4_apply(g4, &t);
                            let ms = matcher.matches(tt, 4);
                            assert!(
                                !ms.is_empty(),
                                "{}: {} transformed by {t:?} found no match",
                                lib.name,
                                cell.name
                            );
                            for m in ms.iter() {
                                assert!(
                                    matcher.check_match(tt, 4, m),
                                    "{}: bad match for {tt:#06x}",
                                    lib.name
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Programs compute the right function for every 3-variable truth
    /// table on both libraries (brute-force over all 256).
    #[test]
    fn programs_compute_every_3var_function() {
        for lib in [CellLibrary::cmos22(), CellLibrary::cmos22_no_maj()] {
            let mut matcher = Matcher::new(&lib);
            for tt in 0..=0xFFu16 {
                let Some(prog) = matcher.program(tt, 3) else {
                    continue; // degenerate (constant / literal)
                };
                for y in 0..8u32 {
                    let mut vals = vec![false; prog.steps.len()];
                    for (i, step) in prog.steps.iter().enumerate() {
                        let cf = &lib.cells[step.cell].function;
                        let mut idx = 0usize;
                        for (p, src) in step.inputs.iter().enumerate() {
                            let v = match src {
                                ProgSrc::Pin(v, c) => ((y >> v) & 1 == 1) ^ c,
                                ProgSrc::Step(j) => vals[*j as usize],
                                ProgSrc::Const(b) => *b,
                            };
                            if v {
                                idx |= 1 << p;
                            }
                        }
                        vals[i] = (cf.as_u64() >> idx) & 1 == 1;
                    }
                    assert_eq!(
                        vals[prog.out as usize],
                        (tt >> y) & 1 == 1,
                        "{}: tt {tt:#04x} at {y:03b}",
                        lib.name
                    );
                }
            }
        }
    }

    /// Mapped designs are equivalent to the source MIG on both
    /// libraries under both goals, with refinement on and off.
    #[test]
    fn mapping_random_tangles_is_equivalent() {
        for seed in [3, 17, 91] {
            let mig = tangle(seed, 6, 40, 4);
            for lib in [CellLibrary::cmos22(), CellLibrary::cmos22_no_maj()] {
                for config in [
                    MapConfig::default(),
                    MapConfig::delay(),
                    MapConfig {
                        refine: false,
                        ..MapConfig::default()
                    },
                ] {
                    let design = map_mig(&mig, &lib, &config);
                    assert!(
                        equivalent(&mig, &design),
                        "seed {seed} lib {} goal {:?} refine {}",
                        lib.name,
                        config.goal,
                        config.refine
                    );
                }
            }
        }
    }

    /// Property (ISSUE): exact-area refinement never increases total
    /// area.
    #[test]
    fn refinement_never_increases_area() {
        for seed in [5, 23, 64, 199] {
            let mig = tangle(seed, 7, 60, 5);
            for lib in [CellLibrary::cmos22(), CellLibrary::cmos22_no_maj()] {
                let raw = map_mig(
                    &mig,
                    &lib,
                    &MapConfig {
                        refine: false,
                        ..MapConfig::default()
                    },
                );
                let refined = map_mig(&mig, &lib, &MapConfig::default());
                assert!(
                    refined.area() <= raw.area() + EPS,
                    "seed {seed} lib {}: refined {} > raw {}",
                    lib.name,
                    refined.area(),
                    raw.area()
                );
                assert!(equivalent(&mig, &refined));
            }
        }
    }

    /// The MAJ library beats the majority-free one on majority-heavy
    /// logic (the paper's central mapping claim, in miniature).
    #[test]
    fn maj_cells_win_on_majority_trees() {
        let mut mig = Mig::new("majtree");
        let ins: Vec<Signal> = (0..9).map(|i| mig.add_input(format!("x{i}"))).collect();
        let l1: Vec<Signal> = ins.chunks(3).map(|c| mig.maj(c[0], c[1], c[2])).collect();
        let root = mig.maj(l1[0], l1[1], l1[2]);
        mig.add_output("y", root);
        let with = map_mig(&mig, &CellLibrary::cmos22(), &MapConfig::default());
        let without = map_mig(&mig, &CellLibrary::cmos22_no_maj(), &MapConfig::default());
        assert!(equivalent(&mig, &with) && equivalent(&mig, &without));
        assert_eq!(with.num_cells(), 4, "four MAJ3 cells");
        assert!(
            with.area() < without.area(),
            "{} !< {}",
            with.area(),
            without.area()
        );
    }

    /// Degenerate outputs: constants, direct and inverted inputs.
    #[test]
    fn constant_and_passthrough_outputs() {
        let mut mig = Mig::new("degenerate");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let g = mig.and(a, b);
        mig.add_output("k0", Signal::FALSE);
        mig.add_output("k1", Signal::TRUE);
        mig.add_output("pa", a);
        mig.add_output("na", !a);
        mig.add_output("g", !g);
        for lib in [CellLibrary::cmos22(), CellLibrary::cmos22_no_maj()] {
            let design = map_mig(&mig, &lib, &MapConfig::default());
            assert!(equivalent(&mig, &design), "{}", lib.name);
        }
    }

    /// The delay goal never produces a slower design than the area
    /// goal on its own internal model, and both verify.
    #[test]
    fn delay_goal_is_no_slower_than_area_goal() {
        for seed in [11, 47] {
            let mig = tangle(seed, 6, 50, 3);
            let lib = CellLibrary::cmos22();
            let by_area = map_mig(&mig, &lib, &MapConfig::default());
            let by_delay = map_mig(&mig, &lib, &MapConfig::delay());
            assert!(equivalent(&mig, &by_delay));
            assert!(
                by_delay.delay() <= by_area.delay() + EPS,
                "seed {seed}: delay-mapped {} > area-mapped {}",
                by_delay.delay(),
                by_area.delay()
            );
        }
    }

    /// TechMapper measures through the TechModel trait.
    #[test]
    fn tech_mapper_measures() {
        let mig = tangle(7, 5, 20, 2);
        let mapper = TechMapper::new(CellLibrary::cmos22());
        let m = mapper.measure(&mig);
        assert!(m.area > 0.0 && m.delay > 0.0 && m.power > 0.0 && m.cells > 0);
        assert_eq!(mapper.name(), "cmos22");
        let d = mapper.map(&mig);
        assert_eq!(d.num_cells(), m.cells);
    }
}
