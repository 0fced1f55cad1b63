//! NPN-canonical database of small majority structures for 4-variable
//! functions — the lookup side of cut-based MIG rewriting.
//!
//! Cut rewriting matches the function of a ≤ 4-input cut against a
//! precomputed table: the cut's truth table is NPN-canonized (see
//! [`npn4_canonize`]), the canonical class is looked up in
//! [`MigDatabase`], and the stored [`MigProgram`] — a small
//! majority-gate netlist over the cut leaves — is replayed through the
//! MIG's hashing constructor as the replacement structure.
//!
//! The database is generated once per process ([`MigDatabase::global`])
//! by a two-stage search:
//!
//! 1. **Exhaustive enumeration** of all majority *trees* up to
//!    [`EXACT_TREE_COST`] gates (bottom-up dynamic programming over all
//!    2¹⁶ truth tables, complementation free as in an MIG). Every
//!    function reached here gets a tree-size-optimal structure.
//! 2. **Shannon recombination** for the classes the enumeration does not
//!    reach: `f = ⟨x·f₁ + x'·f₀⟩` built as `M(M(x,f₁,0), M(x',f₀,0), 1)`
//!    on the best splitting variable, with the cofactors resolved
//!    recursively against the same table.
//!
//! Identical subtrees fuse when a program is replayed through structural
//! hashing, so the effective replacement cost is DAG size, which the
//! rewriter measures against the graph at replacement time rather than
//! trusting the table's tree costs. There are exactly
//! [`NUM_NPN4_CLASSES`] = 222 NPN classes of 4-variable functions; the
//! database stores one program per class.

use std::collections::HashMap;
use std::sync::OnceLock;

/// Number of NPN equivalence classes of 4-variable Boolean functions.
pub const NUM_NPN4_CLASSES: usize = 222;

/// Gate bound for the exhaustive (tree-size-optimal) enumeration stage.
pub const EXACT_TREE_COST: u8 = 4;

/// Truth table of variable `v` over 4 variables, as a packed `u16`.
pub const VAR4_TT: [u16; 4] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

/// All-ones mask for the low `2^len` bits of a packed 4-variable truth
/// table (`0xFFFF` from 4 variables up).
#[inline]
pub fn tt_mask(len: usize) -> u16 {
    if len >= 4 {
        0xFFFF
    } else {
        ((1u32 << (1 << len)) - 1) as u16
    }
}

/// Extends a `len`-variable table to 4 variables by replication (the
/// added variables are don't-cares).
#[inline]
pub fn extend4(tt: u16, len: usize) -> u16 {
    let mut t = tt & tt_mask(len);
    for k in len..4 {
        t |= t << (1u32 << k);
    }
    t
}

/// Negative and positive cofactors of a 4-variable table with respect
/// to variable `v`, each again a 4-variable table (independent of `v`).
#[inline]
pub fn cofactors4(f: u16, v: usize) -> (u16, u16) {
    let (hi, lo) = (f & VAR4_TT[v], f & !VAR4_TT[v]);
    (lo | (lo << (1 << v)), hi | (hi >> (1 << v)))
}

/// A recorded NPN transform over exactly 4 variables, specialized to
/// packed `u16` truth tables (the cut-rewriting hot path).
///
/// Same semantics as [`NpnTransform`](crate::NpnTransform):
/// `canon(y) = output_flip ⊕ f(x ⊕ input_flips)` where `x[perm[j]] = y[j]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Npn4Transform {
    /// `perm[j]` is the original variable that canonical variable `j` reads.
    pub perm: [u8; 4],
    /// Bit `v` set ⇒ original variable `v` is complemented before use.
    pub input_flips: u8,
    /// Whether the output is complemented.
    pub output_flip: bool,
}

impl Npn4Transform {
    /// The identity transform.
    pub fn identity() -> Self {
        Npn4Transform {
            perm: [0, 1, 2, 3],
            input_flips: 0,
            output_flip: false,
        }
    }

    /// The inverse transform: `npn4_apply(npn4_apply(tt, t), t.invert())`
    /// is `tt` for every table (and symmetrically with the order
    /// swapped).
    pub fn invert(&self) -> Self {
        // apply(f, T)[y] = of ⊕ f[P(y) ^ ifl] with (P y)[perm[j]] = y[j],
        // so the inverse uses the inverse permutation and carries the
        // flips through it: P⁻¹(x ^ ifl) = P⁻¹(x) ^ P⁻¹(ifl).
        let mut perm = [0u8; 4];
        let mut input_flips = 0u8;
        for (j, &p) in self.perm.iter().enumerate() {
            perm[p as usize] = j as u8;
            if (self.input_flips >> p) & 1 == 1 {
                input_flips |= 1 << j;
            }
        }
        Npn4Transform {
            perm,
            input_flips,
            output_flip: self.output_flip,
        }
    }

    /// Sequential composition: the transform that applies `self` first
    /// and `next` second — `npn4_apply(tt, &a.then(&b))` equals
    /// `npn4_apply(npn4_apply(tt, &a), &b)`.
    pub fn then(&self, next: &Npn4Transform) -> Self {
        // Composing apply(·, self) then apply(·, next): the index chain
        // is f[P₁(P₂(y) ^ ifl₂) ^ ifl₁] = f[P₁(P₂(y)) ^ P₁(ifl₂) ^ ifl₁].
        let mut perm = [0u8; 4];
        let mut input_flips = self.input_flips;
        for (j, &p2) in next.perm.iter().enumerate() {
            perm[j] = self.perm[p2 as usize];
        }
        for v in 0..4u8 {
            if (next.input_flips >> v) & 1 == 1 {
                input_flips ^= 1 << self.perm[v as usize];
            }
        }
        Npn4Transform {
            perm,
            input_flips,
            output_flip: self.output_flip ^ next.output_flip,
        }
    }
}

/// Applies `t` to a 4-variable truth table, producing the transformed
/// function (the canonical representative when `t` came from
/// [`npn4_canonize`] on the same `tt`).
pub fn npn4_apply(tt: u16, t: &Npn4Transform) -> u16 {
    let mut out = 0u16;
    for y in 0..16u32 {
        let mut x = 0u32;
        for (j, &p) in t.perm.iter().enumerate() {
            if (y >> j) & 1 == 1 {
                x |= 1 << p;
            }
        }
        let idx = (x ^ t.input_flips as u32) & 15;
        let mut bit = (tt >> idx) & 1;
        if t.output_flip {
            bit ^= 1;
        }
        out |= bit << y;
    }
    out
}

/// All 24 permutations of `[0, 1, 2, 3]`.
fn perms4() -> [[u8; 4]; 24] {
    let mut out = [[0u8; 4]; 24];
    let mut n = 0;
    for a in 0..4u8 {
        for b in 0..4u8 {
            for c in 0..4u8 {
                for d in 0..4u8 {
                    if a != b && a != c && a != d && b != c && b != d && c != d {
                        out[n] = [a, b, c, d];
                        n += 1;
                    }
                }
            }
        }
    }
    out
}

/// Exact NPN canonization of a 4-variable truth table: returns the
/// numerically smallest member of the NPN orbit (identical to the
/// canonical form [`npn_canonize`](crate::npn_canonize) computes for the
/// same function) and a transform that produces it.
///
/// Exhaustive over all 24·2⁴·2 = 768 transforms, but `u16`-specialized:
/// roughly two orders of magnitude faster than the generic
/// [`TruthTable`](crate::TruthTable) path, which matters because the
/// rewriter canonizes one function per enumerated cut.
pub fn npn4_canonize(tt: u16) -> (u16, Npn4Transform) {
    let mut best = tt;
    let mut best_t = Npn4Transform::identity();
    for perm in perms4() {
        for input_flips in 0..16u8 {
            for output_flip in [false, true] {
                let t = Npn4Transform {
                    perm,
                    input_flips,
                    output_flip,
                };
                let cand = npn4_apply(tt, &t);
                if cand < best {
                    best = cand;
                    best_t = t;
                }
            }
        }
    }
    (best, best_t)
}

/// Enumerates the canonical representative of every 4-variable NPN class
/// in ascending numeric order (always [`NUM_NPN4_CLASSES`] of them).
pub fn npn4_class_representatives() -> Vec<u16> {
    let perms = perms4();
    let mut seen = vec![false; 1 << 16];
    let mut reps = Vec::new();
    for tt in 0..=u16::MAX {
        if seen[tt as usize] {
            continue;
        }
        // Scanning in ascending order, the first unseen table is the
        // numeric minimum of its orbit — i.e. the canonical form.
        reps.push(tt);
        for perm in perms {
            for input_flips in 0..16u8 {
                for output_flip in [false, true] {
                    let t = Npn4Transform {
                        perm,
                        input_flips,
                        output_flip,
                    };
                    seen[npn4_apply(tt, &t) as usize] = true;
                }
            }
        }
    }
    reps
}

/// One operand of a majority instruction in a [`MigProgram`]: a packed
/// reference (constant, cut variable, or earlier step) plus a complement
/// bit — the program-level analogue of an MIG signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigLit(u8);

impl MigLit {
    /// The constant-0 literal.
    pub const FALSE: MigLit = MigLit(0);
    /// The constant-1 literal.
    pub const TRUE: MigLit = MigLit(1);

    /// Literal reading cut variable `v` (0-based, `v < 4`).
    pub fn var(v: usize) -> Self {
        assert!(v < 4);
        MigLit((v as u8 + 1) << 1)
    }

    /// Literal reading the result of program step `i`.
    pub fn step(i: usize) -> Self {
        let v = u8::try_from(i + 5).expect("program too long");
        assert!(v < 128, "program too long");
        MigLit(v << 1)
    }

    /// The complemented version of this literal.
    #[must_use]
    pub fn complement(self) -> Self {
        MigLit(self.0 ^ 1)
    }

    /// Complements the literal iff `c` is true.
    #[must_use]
    pub fn complement_if(self, c: bool) -> Self {
        MigLit(self.0 ^ c as u8)
    }

    /// Whether the literal carries a complement.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// The cut variable this literal reads, if any.
    pub fn var_index(self) -> Option<usize> {
        match self.0 >> 1 {
            v @ 1..=4 => Some(v as usize - 1),
            _ => None,
        }
    }

    /// The program step this literal reads, if any.
    pub fn step_index(self) -> Option<usize> {
        match self.0 >> 1 {
            v @ 5.. => Some(v as usize - 5),
            _ => None,
        }
    }

    /// True if this literal references the constant node.
    pub fn is_constant(self) -> bool {
        self.0 >> 1 == 0
    }
}

/// A straight-line majority netlist over at most 4 cut variables: each
/// step is one majority gate over earlier literals, and `out` selects
/// (and possibly complements) the result.
///
/// Replaying a program through a strashing constructor merges repeated
/// subtrees, so the realized DAG can be smaller than `steps.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigProgram {
    /// Majority instructions in topological order.
    pub steps: Vec<[MigLit; 3]>,
    /// The program output.
    pub out: MigLit,
}

impl MigProgram {
    /// Number of majority instructions (tree size of the structure).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the program contains no majority instruction (the output
    /// is a constant or a single literal).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Evaluates the program over truth-table inputs (word-parallel over
    /// all 16 rows); used by the database self-checks and tests.
    pub fn eval(&self, inputs: [u16; 4]) -> u16 {
        let mut vals = Vec::with_capacity(self.steps.len());
        let lit = |vals: &[u16], l: MigLit| -> u16 {
            let v = match l.0 >> 1 {
                0 => 0,
                v @ 1..=4 => inputs[v as usize - 1],
                v => vals[v as usize - 5],
            };
            if l.is_complemented() {
                !v
            } else {
                v
            }
        };
        for step in &self.steps {
            let a = lit(&vals, step[0]);
            let b = lit(&vals, step[1]);
            let c = lit(&vals, step[2]);
            vals.push((a & b) | (a & c) | (b & c));
        }
        lit(&vals, self.out)
    }
}

const UNKNOWN: u8 = u8::MAX;

/// How a truth table is realized during database construction.
#[derive(Debug, Clone, Copy)]
enum Def {
    Unknown,
    /// The constant-0 function.
    Const0,
    /// Projection of variable `v`.
    Var(u8),
    /// Complement of another defined table (free in an MIG).
    Not(u16),
    /// Majority of three defined tables.
    Maj([u16; 3]),
}

struct Builder {
    cost: Vec<u8>,
    def: Vec<Def>,
    by_cost: Vec<Vec<u16>>,
}

fn maj16(a: u16, b: u16, c: u16) -> u16 {
    (a & b) | (a & c) | (b & c)
}

impl Builder {
    fn new() -> Self {
        let mut b = Builder {
            cost: vec![UNKNOWN; 1 << 16],
            def: vec![Def::Unknown; 1 << 16],
            by_cost: vec![Vec::new(); EXACT_TREE_COST as usize + 1],
        };
        b.record(0x0000, 0, Def::Const0);
        b.record(0xFFFF, 0, Def::Not(0x0000));
        for (v, &tt) in VAR4_TT.iter().enumerate() {
            b.record(tt, 0, Def::Var(v as u8));
            b.record(!tt, 0, Def::Not(tt));
        }
        b
    }

    /// Records `f` at cost `c` if that improves on what is known.
    fn record(&mut self, f: u16, c: u8, def: Def) -> bool {
        if self.cost[f as usize] <= c {
            return false;
        }
        self.cost[f as usize] = c;
        self.def[f as usize] = def;
        if let Some(list) = self.by_cost.get_mut(c as usize) {
            list.push(f);
        }
        true
    }

    /// Stage 1: bottom-up enumeration of all majority trees of at most
    /// `EXACT_TREE_COST` gates. Within that bound the recorded cost is
    /// exactly the minimal tree size (complementation free).
    fn enumerate_exact(&mut self) {
        for c in 1..=EXACT_TREE_COST {
            // Partition the child budget c-1 as ca ≥ cb ≥ cc; iterating
            // ordered partitions (with index ordering inside equal-cost
            // lists) visits each child multiset exactly once — majority
            // is fully symmetric.
            for ca in 0..c {
                for cb in 0..=ca {
                    let Some(cc) = (c - 1).checked_sub(ca + cb) else {
                        continue;
                    };
                    if cc > cb {
                        continue;
                    }
                    let la = std::mem::take(&mut self.by_cost[ca as usize]);
                    let lb = if cb == ca {
                        Vec::new()
                    } else {
                        std::mem::take(&mut self.by_cost[cb as usize])
                    };
                    let lc = if cc == ca || cc == cb {
                        Vec::new()
                    } else {
                        std::mem::take(&mut self.by_cost[cc as usize])
                    };
                    let aa: &[u16] = &la;
                    let bb: &[u16] = if cb == ca { &la } else { &lb };
                    let ccs: &[u16] = if cc == ca {
                        &la
                    } else if cc == cb {
                        bb
                    } else {
                        &lc
                    };
                    for (i, &fa) in aa.iter().enumerate() {
                        let j_hi = if cb == ca { i + 1 } else { bb.len() };
                        for (j, &fb) in bb.iter().take(j_hi).enumerate() {
                            let k_hi = if cc == cb { j + 1 } else { ccs.len() };
                            for &fc in ccs.iter().take(k_hi) {
                                let m = maj16(fa, fb, fc);
                                if self.record(m, c, Def::Maj([fa, fb, fc])) {
                                    self.record(!m, c, Def::Not(m));
                                }
                            }
                        }
                    }
                    // Put the lists back where they came from.
                    self.by_cost[ca as usize] = la;
                    if cb != ca {
                        self.by_cost[cb as usize] = lb;
                    }
                    if cc != ca && cc != cb {
                        self.by_cost[cc as usize] = lc;
                    }
                }
            }
        }
    }

    /// Stage 2: guarantees a structure for `f` via Shannon recombination
    /// on the cheapest splitting variable. Terminates because cofactors
    /// have strictly smaller support and every function of support ≤ 2
    /// is covered by stage 1.
    fn ensure(&mut self, f: u16) -> u8 {
        if self.cost[f as usize] != UNKNOWN {
            return self.cost[f as usize];
        }
        let mut best: Option<(u8, usize, u16, u16)> = None;
        for v in 0..4 {
            let (f0, f1) = cofactors4(f, v);
            if f0 == f1 {
                continue; // f does not depend on v
            }
            let c = 3 + self.ensure(f0) + self.ensure(f1);
            if best.is_none_or(|(bc, ..)| c < bc) {
                best = Some((c, v, f0, f1));
            }
        }
        let (_, v, f0, f1) = best.expect("non-constant function depends on a variable");
        let xv = VAR4_TT[v];
        let t1 = xv & f1; // M(x, f1, 0)
        let t0 = !xv & f0; // M(x', f0, 0)
        debug_assert_eq!(t1 | t0, f);
        let c1 = self.cost[f1 as usize] + 1;
        if self.record(t1, c1, Def::Maj([xv, f1, 0x0000])) {
            self.record(!t1, c1, Def::Not(t1));
        }
        let c0 = self.cost[f0 as usize] + 1;
        if self.record(t0, c0, Def::Maj([!xv, f0, 0x0000])) {
            self.record(!t0, c0, Def::Not(t0));
        }
        // M(t1, t0, 1) = t1 | t0 = f.
        let cf = self.cost[t1 as usize] + self.cost[t0 as usize] + 1;
        if self.record(f, cf, Def::Maj([t1, t0, 0xFFFF])) {
            self.record(!f, cf, Def::Not(f));
        }
        self.cost[f as usize]
    }

    /// Extracts the straight-line program realizing `f`.
    fn emit(&self, f: u16) -> MigProgram {
        let mut steps = Vec::new();
        let mut memo: HashMap<u16, MigLit> = HashMap::new();
        let out = self.resolve(f, &mut steps, &mut memo);
        MigProgram { steps, out }
    }

    fn resolve(
        &self,
        f: u16,
        steps: &mut Vec<[MigLit; 3]>,
        memo: &mut HashMap<u16, MigLit>,
    ) -> MigLit {
        if let Some(&l) = memo.get(&f) {
            return l;
        }
        let lit = match self.def[f as usize] {
            Def::Const0 => MigLit::FALSE,
            Def::Var(v) => MigLit::var(v as usize),
            Def::Not(g) => self.resolve(g, steps, memo).complement(),
            Def::Maj([a, b, c]) => {
                let la = self.resolve(a, steps, memo);
                let lb = self.resolve(b, steps, memo);
                let lc = self.resolve(c, steps, memo);
                steps.push([la, lb, lc]);
                MigLit::step(steps.len() - 1)
            }
            Def::Unknown => unreachable!("emit() called on an undefined table"),
        };
        memo.insert(f, lit);
        lit
    }
}

/// The NPN-class → optimal-majority-structure database.
///
/// One [`MigProgram`] per canonical representative of each of the 222
/// NPN classes of 4-variable functions. Build it once with
/// [`MigDatabase::global`] and look structures up by the canonical truth
/// table [`npn4_canonize`] returns.
#[derive(Debug)]
pub struct MigDatabase {
    classes: Vec<u16>,
    programs: HashMap<u16, MigProgram>,
}

impl MigDatabase {
    /// Builds the database from scratch (exhaustive enumeration plus
    /// Shannon recombination; see the module docs). Prefer
    /// [`MigDatabase::global`], which builds once and caches.
    pub fn build() -> Self {
        let mut b = Builder::new();
        b.enumerate_exact();
        let classes = npn4_class_representatives();
        let mut programs = HashMap::with_capacity(classes.len());
        for &rep in &classes {
            b.ensure(rep);
            let prog = b.emit(rep);
            debug_assert_eq!(prog.eval(VAR4_TT), rep, "database self-check");
            programs.insert(rep, prog);
        }
        MigDatabase { classes, programs }
    }

    /// The process-wide database, built on first use.
    pub fn global() -> &'static MigDatabase {
        static DB: OnceLock<MigDatabase> = OnceLock::new();
        DB.get_or_init(MigDatabase::build)
    }

    /// Canonical representatives of all 222 classes, ascending.
    pub fn classes(&self) -> &[u16] {
        &self.classes
    }

    /// The stored structure for a canonical truth table, or `None` if
    /// `canon` is not a canonical representative.
    pub fn program(&self, canon: u16) -> Option<&MigProgram> {
        self.programs.get(&canon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{npn_canonize, TruthTable};

    #[test]
    fn class_count_is_222() {
        let reps = npn4_class_representatives();
        assert_eq!(reps.len(), NUM_NPN4_CLASSES);
        // Ascending and unique by construction.
        assert!(reps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn invert_and_then_compose_correctly() {
        // invert() must undo any transform in either order, and then()
        // must match sequential application — over a PRNG sample of
        // tables against a PRNG sample of the 768-transform group.
        let mut x = 0xD1B5_4A32_D192_ED03u64;
        let rand_t = |x: &mut u64| {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            let perms = perms4();
            Npn4Transform {
                perm: perms[(*x % 24) as usize],
                input_flips: ((*x >> 8) & 15) as u8,
                output_flip: (*x >> 16) & 1 == 1,
            }
        };
        for _ in 0..50 {
            let a = rand_t(&mut x);
            let b = rand_t(&mut x);
            let tt = ((x >> 20) & 0xFFFF) as u16;
            assert_eq!(npn4_apply(npn4_apply(tt, &a), &a.invert()), tt);
            assert_eq!(npn4_apply(npn4_apply(tt, &a.invert()), &a), tt);
            assert_eq!(
                npn4_apply(tt, &a.then(&b)),
                npn4_apply(npn4_apply(tt, &a), &b)
            );
        }
        let id = Npn4Transform::identity();
        assert_eq!(id.invert(), id);
        assert_eq!(id.then(&id), id);
    }

    #[test]
    fn canonize_agrees_with_generic_npn() {
        // The u16 fast path and the generic TruthTable path must agree on
        // the canonical form (both pick the numerically smallest orbit
        // member).
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..40 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let tt = (x & 0xFFFF) as u16;
            let (fast, _) = npn4_canonize(tt);
            let (generic, _) = npn_canonize(&TruthTable::from_u64(4, tt as u64));
            assert_eq!(fast as u64, generic.as_u64(), "tt {tt:#06x}");
        }
    }

    #[test]
    fn extend4_repeats_pattern() {
        assert_eq!(extend4(0b10, 1), 0xAAAA);
        assert_eq!(extend4(0b1000, 2), 0x8888);
        assert_eq!(extend4(1, 0), 0xFFFF);
    }

    #[test]
    fn canonize_transform_reproduces_canon() {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for _ in 0..100 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let tt = (x & 0xFFFF) as u16;
            let (canon, t) = npn4_canonize(tt);
            assert_eq!(npn4_apply(tt, &t), canon, "tt {tt:#06x}");
        }
    }

    #[test]
    fn database_covers_every_class_correctly() {
        let db = MigDatabase::global();
        assert_eq!(db.classes().len(), NUM_NPN4_CLASSES);
        for &rep in db.classes() {
            let prog = db.program(rep).expect("program for every class");
            assert_eq!(prog.eval(VAR4_TT), rep, "class {rep:#06x}");
        }
    }

    #[test]
    fn known_structures_are_optimal() {
        let db = MigDatabase::global();
        // Constants and projections: no gate at all.
        let (c0, _) = npn4_canonize(0x0000);
        assert_eq!(db.program(c0).unwrap().len(), 0);
        let (cv, _) = npn4_canonize(VAR4_TT[2]);
        assert_eq!(db.program(cv).unwrap().len(), 0);
        // AND2 and MAJ3 are single gates.
        let (cand, _) = npn4_canonize(VAR4_TT[0] & VAR4_TT[1]);
        assert_eq!(db.program(cand).unwrap().len(), 1);
        let maj3 = maj16(VAR4_TT[0], VAR4_TT[1], VAR4_TT[2]);
        let (cmaj, _) = npn4_canonize(maj3);
        assert_eq!(db.program(cmaj).unwrap().len(), 1);
        // XOR2 and XOR3 take three majority gates in an MIG (paper
        // Fig. 2(b) for the 3-input case).
        let (cx2, _) = npn4_canonize(VAR4_TT[0] ^ VAR4_TT[1]);
        assert_eq!(db.program(cx2).unwrap().len(), 3);
        let (cx3, _) = npn4_canonize(VAR4_TT[0] ^ VAR4_TT[1] ^ VAR4_TT[2]);
        assert_eq!(db.program(cx3).unwrap().len(), 3);
    }

    #[test]
    fn replay_mapping_reconstructs_original() {
        // The exact recipe the rewriter uses: canonical variable j reads
        // original variable perm[j], complemented per input_flips, and
        // the program output is complemented per output_flip.
        let db = MigDatabase::global();
        let mut x = 0xDEAD_BEEF_CAFE_F00Du64;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let tt = (x & 0xFFFF) as u16;
            let (canon, t) = npn4_canonize(tt);
            let prog = db.program(canon).expect("canon is a class rep");
            let mut inputs = [0u16; 4];
            for (j, inp) in inputs.iter_mut().enumerate() {
                let orig = t.perm[j] as usize;
                let mut v = VAR4_TT[orig];
                if (t.input_flips >> orig) & 1 == 1 {
                    v = !v;
                }
                *inp = v;
            }
            let mut got = prog.eval(inputs);
            if t.output_flip {
                got = !got;
            }
            assert_eq!(got, tt, "tt {tt:#06x}");
        }
    }

    #[test]
    fn programs_stay_small() {
        // Tree-size bound: exhaustive stage caps at EXACT_TREE_COST and
        // Shannon recombination at 3 + cost(f0) + cost(f1); nothing in
        // the database should exceed the worst-case recursion depth.
        let db = MigDatabase::global();
        let worst = db
            .classes()
            .iter()
            .map(|&r| db.program(r).unwrap().len())
            .max()
            .unwrap();
        assert!(worst <= 21, "worst program has {worst} gates");
    }

    #[test]
    fn lit_encoding_roundtrips() {
        assert!(MigLit::FALSE.is_constant());
        assert_eq!(MigLit::TRUE, MigLit::FALSE.complement());
        let v = MigLit::var(3);
        assert_eq!(v.var_index(), Some(3));
        assert_eq!(v.step_index(), None);
        assert!(!v.is_complemented());
        let s = MigLit::step(7).complement();
        assert_eq!(s.step_index(), Some(7));
        assert!(s.is_complemented());
        assert_eq!(s.complement_if(true), MigLit::step(7));
        assert_eq!(s.complement_if(false), s);
    }
}
