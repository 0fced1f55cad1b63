//! MIG depth optimization (paper Algorithm 2).
//!
//! Critical (late-arriving) signals are moved toward the outputs:
//! * `Ω.A` / `Ψ.C` exchange a deep grandchild with a shallow outer fanin
//!   at no size cost;
//! * `Ω.D` left-to-right pushes the critical signal one level up at the
//!   price of one duplicated node;
//! * `Ω.M` (inside the hashing constructor) collapses whatever becomes
//!   trivial, reducing both depth and size.
//!
//! When no direct push-up helps, the `Ψ.R`/`Ψ.S` reshaping of the size
//! pass is borrowed to escape local minima (paper Fig. 2(b-c)). Each
//! cycle finishes with a size-recovery elimination pass.

use super::size::{eliminate_pass, reshape_pass, substitution_kick};
use super::{Objective, OptBuffers};

/// The lexicographic objective Algorithm 2 minimizes.
const OBJECTIVE: Objective = Objective::DepthThenSize;
use crate::{Mig, Signal};

/// Algorithm 2: reduces the number of logic levels in `effort`
/// push-up/reshape cycles (the paper's `effort`).
///
/// Returns the best `(depth, size)` MIG encountered; the result is always
/// functionally equivalent to the input. The caller's buffers let
/// composite flows share one arena pool across every pass they run.
///
/// # Example
///
/// ```
/// use mig_core::{Flow, Mig, OptContext};
///
/// // An unbalanced AND chain: a·b·c·d at depth 3 rebalances to depth 2.
/// let mut mig = Mig::new("chain");
/// let a = mig.add_input("a");
/// let b = mig.add_input("b");
/// let c = mig.add_input("c");
/// let d = mig.add_input("d");
/// let t1 = mig.and(a, b);
/// let t2 = mig.and(t1, c);
/// let t3 = mig.and(t2, d);
/// mig.add_output("y", t3);
/// assert_eq!(mig.depth(), 3);
/// let depth = Flow::parse("depth").unwrap();
/// let opt = depth.run(mig.clone(), 6, &mut OptContext::new());
/// assert!(opt.equiv(&mig, 4));
/// assert_eq!(opt.depth(), 2);
/// ```
pub(crate) fn optimize_depth(mig: &Mig, effort: usize, bufs: &mut OptBuffers) -> Mig {
    let mut best = mig.cleanup();
    let mut best_cost = OBJECTIVE.of(&best);
    // Runs one pass and recycles its input's buffers.
    let step = |bufs: &mut OptBuffers, cur: Mig, f: &dyn Fn(&Mig, &mut OptBuffers) -> Mig| {
        let next = f(&cur, bufs);
        bufs.recycle(cur);
        next
    };
    for cycle in 0..effort {
        // Push-up rounds (two, as in Algorithm 2's pseudocode).
        let mut cur = push_up_pass(&best, bufs);
        cur = step(bufs, cur, &push_up_pass);
        cur = step(bufs, cur, &reshape_pass);
        cur = step(bufs, cur, &push_up_pass);
        cur = step(bufs, cur, &eliminate_pass);
        cur = step(bufs, cur, &|m, b| b.cleanup(m));
        let cur_cost = OBJECTIVE.of(&cur);
        if cur_cost < best_cost {
            best_cost = cur_cost;
            bufs.recycle(std::mem::replace(&mut best, cur));
            continue;
        }
        bufs.recycle(cur);
        // Local minimum: Ψ.S kick (paper Fig. 2(b)), then retry once.
        let kicked = substitution_kick(&best, cycle);
        let mut k = push_up_pass(kicked.as_ref().unwrap_or(&best), bufs);
        if let Some(kicked) = kicked {
            bufs.recycle(kicked);
        }
        k = step(bufs, k, &push_up_pass);
        k = step(bufs, k, &eliminate_pass);
        k = step(bufs, k, &|m, b| b.cleanup(m));
        let k_cost = OBJECTIVE.of(&k);
        if k_cost < best_cost {
            best_cost = k_cost;
            bufs.recycle(std::mem::replace(&mut best, k));
            continue;
        }
        bufs.recycle(k);
        break;
    }
    best
}

/// Recursion budget for the depth-aware constructor: how many levels of
/// inner nodes are themselves constructed depth-aware. Two levels let a
/// critical signal sink past a balanced-looking but slack subtree (e.g.
/// rebalancing an 8-input AND chain all the way to depth 3).
const DEPTH_FUEL: u32 = 2;

/// One bottom-up push-up pass: every gate is reconstructed with the
/// depth-aware constructor below.
pub(crate) fn push_up_pass(mig: &Mig, bufs: &mut OptBuffers) -> Mig {
    bufs.rebuild(mig, |new, kids, _| {
        maj_depth_aware(new, kids[0], kids[1], kids[2], DEPTH_FUEL)
    })
}

/// Depth-aware constructor: builds `M(a,b,c)`, then — if one fanin is
/// strictly critical — constructs the `Ω.A` / `Ψ.C` / `Ω.D` push-up
/// variants (recursively depth-aware up to `fuel` levels) and keeps the
/// shallowest result.
pub(crate) fn maj_depth_aware(new: &mut Mig, a: Signal, b: Signal, c: Signal, fuel: u32) -> Signal {
    let base = new.maj(a, b, c);
    if fuel == 0 || new.as_maj(base).is_none() {
        return base;
    }
    let lvl = |m: &Mig, s: Signal| m.level_of_signal(s);
    let mut best = base;
    let mut best_level = lvl(new, base);

    // Identify the strictly critical fanin z (the push-up target).
    let kids = [a, b, c];
    let zi = match (0..3).max_by_key(|&i| lvl(new, kids[i])) {
        Some(i) => i,
        None => return base,
    };
    let z = kids[zi];
    let x = kids[(zi + 1) % 3];
    let y = kids[(zi + 2) % 3];
    if lvl(new, z) <= lvl(new, x).max(lvl(new, y)) {
        return base; // no strictly critical fanin: locally balanced
    }
    let Some(g) = new.as_maj(z) else { return base };

    let consider = |new: &mut Mig, cand: Signal, best: &mut Signal, best_level: &mut u32| {
        let cl = lvl(new, cand);
        if cl < *best_level {
            *best = cand;
            *best_level = cl;
        }
    };

    // Candidate 1: Ω.A — a fanin of z equals x or y.
    // M(x, u, M(y, u, w)) = M(w, u, M(y, u, x)): hoist grandchild w out.
    for (outer_other, shared) in [(x, y), (y, x)] {
        if !g.contains(&shared) {
            continue;
        }
        for &swap_out in g.iter().filter(|&&s| s != shared) {
            let t = *g
                .iter()
                .find(|&&s| s != shared && s != swap_out)
                .expect("three distinct fanins");
            let inner = maj_depth_aware(new, t, shared, outer_other, fuel - 1);
            let cand = new.maj(swap_out, shared, inner);
            consider(new, cand, &mut best, &mut best_level);
        }
    }

    // Candidate 2: Ψ.C — a fanin of z is the complement of x or y:
    // M(x, u, M(t1, u', t2)) = M(x, u, M(t1, x, t2)).
    for (other, u) in [(x, y), (y, x)] {
        if !g.contains(&!u) {
            continue;
        }
        let mut rest = [Signal::FALSE; 2];
        let mut n_rest = 0usize;
        for &s in g.iter().filter(|&&s| s != !u) {
            if n_rest == 2 {
                n_rest = 3; // more than two leftovers: pattern mismatch
                break;
            }
            rest[n_rest] = s;
            n_rest += 1;
        }
        if n_rest != 2 {
            continue;
        }
        let inner = maj_depth_aware(new, rest[0], other, rest[1], fuel - 1);
        let cand = new.maj(other, u, inner);
        consider(new, cand, &mut best, &mut best_level);
    }

    // Candidate 3: Ω.D L→R — keep the critical grandchild w outside and
    // duplicate (x,y) around the shallow fanins, one added node for one
    // level of gain: M(x, y, M(u, v, w)) = M(M(x,y,u), M(x,y,v), w).
    if let Some((wi, &w)) = g.iter().enumerate().max_by_key(|(_, &s)| lvl(new, s)) {
        let u = g[(wi + 1) % 3];
        let v = g[(wi + 2) % 3];
        let est = 1 + lvl(new, w)
            .max(1 + lvl(new, x).max(lvl(new, y)).max(lvl(new, u)))
            .max(1 + lvl(new, x).max(lvl(new, y)).max(lvl(new, v)));
        if est < best_level {
            let p = new.maj(x, y, u);
            let q = new.maj(x, y, v);
            let cand = maj_depth_aware(new, p, q, w, fuel - 1);
            consider(new, cand, &mut best, &mut best_level);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Algorithm 2 at effort 6 with fresh buffers.
    fn depth(mig: &Mig) -> Mig {
        optimize_depth(mig, 6, &mut OptBuffers::new())
    }

    #[test]
    fn and_chain_balances() {
        let mut mig = Mig::new("chain8");
        let ins: Vec<Signal> = (0..8).map(|i| mig.add_input(format!("x{i}"))).collect();
        let mut acc = ins[0];
        for &s in &ins[1..] {
            acc = mig.and(acc, s);
        }
        mig.add_output("y", acc);
        assert_eq!(mig.depth(), 7);
        let opt = depth(&mig);
        assert!(opt.equiv(&mig, 4));
        assert_eq!(opt.depth(), 3, "8-input AND balances to log2");
    }

    #[test]
    fn fig2c_g_function_depth() {
        // Paper Fig. 2(c): g = x(y + uv) — AOIG-optimal depth 3,
        // MIG-optimal depth 2 via Ψ.C + Ω.A.
        let mut mig = Mig::new("fig2c");
        let x = mig.add_input("x");
        let y = mig.add_input("y");
        let u = mig.add_input("u");
        let v = mig.add_input("v");
        let uv = mig.and(u, v);
        let or = mig.or(y, uv);
        let g = mig.and(x, or);
        mig.add_output("g", g);
        assert_eq!(mig.depth(), 3);
        let opt = depth(&mig);
        assert!(opt.equiv(&mig, 4));
        assert_eq!(opt.depth(), 2, "paper reduces g to 2 levels");
    }

    #[test]
    fn fig2b_xor3_depth() {
        // Paper Fig. 2(b): f = x ⊕ y ⊕ z — AOIG depth 4, MIG depth 2.
        let mut mig = Mig::new("fig2b");
        let x = mig.add_input("x");
        let y = mig.add_input("y");
        let z = mig.add_input("z");
        let x1 = mig.xor(x, y);
        let f = mig.xor(x1, z);
        mig.add_output("f", f);
        assert_eq!(mig.depth(), 4);
        let opt = depth(&mig);
        assert!(opt.equiv(&mig, 4));
        assert!(opt.depth() <= 3, "got {}", opt.depth());
    }

    #[test]
    fn depth_never_increases() {
        let mut mig = Mig::new("misc");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let d = mig.add_input("d");
        let m1 = mig.maj(a, b, c);
        let m2 = mig.mux(d, m1, a);
        let m3 = mig.xor(m2, b);
        mig.add_output("y", m3);
        let before = mig.depth();
        let opt = depth(&mig);
        assert!(opt.equiv(&mig, 4));
        assert!(opt.depth() <= before);
    }

    #[test]
    fn push_up_single_pass_is_sound() {
        let mut mig = Mig::new("p");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let d = mig.add_input("d");
        let inner = mig.maj(c, d, a);
        let outer = mig.maj(a, b, inner);
        mig.add_output("y", outer);
        let p = push_up_pass(&mig, &mut OptBuffers::new());
        assert!(p.equiv(&mig, 4));
    }
}
