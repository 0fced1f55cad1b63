//! MIG switching-activity optimization (paper Section IV-C).
//!
//! Two levers reduce the total switching activity `Σ p(1−p)`:
//!
//! 1. *Size reduction* — fewer nodes switch (delegated to Algorithm 1).
//! 2. *Probability reshaping* — `Ψ.R` exchanges a reconvergent variable
//!    whose probability is close to 0.5 (maximum switching) for one whose
//!    probability is near 0 or 1 (paper Fig. 2(d)).

use super::size::{eliminate_pass, optimize_size, CONE_LIMIT};
use super::OptBuffers;
use crate::{Mig, Signal};

/// Maximum tolerated relative size growth of an accepted step (5 %).
const SIZE_SLACK: f64 = 0.05;

/// Reduces the switching activity of the MIG under the given per-input
/// signal probabilities (probability of being logic 1), in at most
/// `effort` reshape/recover cycles. The `activity` flow pass runs it
/// with uniform probabilities (0.5 on every input).
///
/// Returns a functionally equivalent MIG whose
/// [`switching_activity`](Mig::switching_activity) is less than or equal
/// to the input's, with size growth bounded by 5 %. The caller's
/// buffers let composite flows share one arena pool across every pass
/// they run.
///
/// # Panics
///
/// Panics if `input_probs.len() != mig.num_inputs()`.
///
/// # Example
///
/// ```
/// use mig_core::{Flow, Mig, OptContext};
///
/// // k = M(x, y, M(x', y, z)) is just y (Ω.R: x' = y wherever x ≠ y),
/// // so under the uniform probabilities of the `activity` flow pass
/// // both gates and their switching go away. The non-uniform Fig. 2(d)
/// // exchange is checked by the unit test `fig2d_activity_halves`.
/// let mut mig = Mig::new("redundant");
/// let x = mig.add_input("x");
/// let y = mig.add_input("y");
/// let z = mig.add_input("z");
/// let inner = mig.maj(!x, y, z);
/// let k = mig.maj(x, y, inner);
/// mig.add_output("k", k);
/// let activity = Flow::parse("activity").unwrap();
/// let opt = activity.run(mig.clone(), 3, &mut OptContext::new());
/// assert!(opt.equiv(&mig, 4));
/// assert!(opt.switching_activity_uniform() < mig.switching_activity_uniform());
/// ```
pub(crate) fn optimize_activity(
    mig: &Mig,
    input_probs: &[f64],
    effort: usize,
    bufs: &mut OptBuffers,
) -> Mig {
    assert_eq!(input_probs.len(), mig.num_inputs());
    let mut best = mig.cleanup();
    let mut best_cost = cost(&best, input_probs);
    for _ in 0..effort {
        let r = probability_reshape_pass(&best, input_probs, bufs);
        let e = eliminate_pass(&r, bufs);
        bufs.recycle(r);
        let cur = bufs.cleanup(&e);
        bufs.recycle(e);
        // Size recovery via Algorithm 1: one cycle, no Ψ.S kick.
        let recovered = optimize_size(&cur, 1, false, bufs);
        let rec_cost = cost(&recovered, input_probs);
        let cur_cost = cost(&cur, input_probs);
        let (cand, cand_cost) = if rec_cost <= cur_cost {
            bufs.recycle(cur);
            (recovered, rec_cost)
        } else {
            bufs.recycle(recovered);
            (cur, cur_cost)
        };
        let within_slack = cand.size() as f64 <= best.size() as f64 * (1.0 + SIZE_SLACK) + 1.0;
        if cand_cost < best_cost && within_slack {
            bufs.recycle(std::mem::replace(&mut best, cand));
            best_cost = cand_cost;
        } else {
            break;
        }
    }
    best
}

fn cost(mig: &Mig, input_probs: &[f64]) -> f64 {
    mig.switching_activity(input_probs)
}

/// One `Ψ.R`-driven reshaping pass: at every node, if a reconvergent fanin
/// has near-0.5 probability and the exchanged variable is strongly biased,
/// try the exchange and keep it when the bounded-cone activity drops.
fn probability_reshape_pass(mig: &Mig, input_probs: &[f64], bufs: &mut OptBuffers) -> Mig {
    // One probability buffer for the whole rebuild. The destination
    // arena only grows while the rebuild runs, so every query extends
    // the buffer over the nodes appended since the previous one instead
    // of re-propagating the whole arena (which made the pass quadratic).
    let mut probs: Vec<f64> = Vec::new();
    bufs.rebuild(mig, |new, kids, _| {
        let base = new.maj(kids[0], kids[1], kids[2]);
        if new.as_maj(base).is_none() {
            return base;
        }
        // A Ψ.R exchange needs a majority fanin to rewrite through.
        if !kids.iter().any(|&k| new.as_maj(k).is_some()) {
            return base;
        }
        new.extend_signal_probabilities(input_probs, &mut probs);
        let p_of = |probs: &[f64], s: Signal| {
            let p = probs[s.node().index()];
            if s.is_complemented() {
                1.0 - p
            } else {
                p
            }
        };
        let mut best = base;
        let mut best_act = cone_activity(new, best, &probs);
        for zi in 0..3 {
            let z = kids[zi];
            if new.as_maj(z).is_none() {
                continue;
            }
            for (xi, yi) in [((zi + 1) % 3, (zi + 2) % 3), ((zi + 2) % 3, (zi + 1) % 3)] {
                let (x, y) = (kids[xi], kids[yi]);
                if x.is_constant() {
                    continue;
                }
                // Only exchange a "hot" variable for a biased one.
                let hot = (p_of(&probs, x) - 0.5).abs();
                let cold = ((1.0 - p_of(&probs, y)) - 0.5).abs();
                if cold <= hot {
                    continue;
                }
                if new.cone_contains(z, x.node(), CONE_LIMIT) != Some(true) {
                    continue;
                }
                let cand = new.psi_r(x, y, z);
                new.extend_signal_probabilities(input_probs, &mut probs);
                let act = cone_activity(new, cand, &probs);
                if act < best_act {
                    best = cand;
                    best_act = act;
                }
            }
        }
        best
    })
}

/// Total `p(1−p)` over the cone of `root`, infinite past [`CONE_LIMIT`]
/// gates (epoch-marked, no allocation).
fn cone_activity(mig: &Mig, root: Signal, probs: &[f64]) -> f64 {
    let mut trav = mig.trav_scratch();
    trav.begin(mig.num_nodes());
    trav.stack.push(root.node());
    let mut acc = 0.0;
    let mut steps = 0;
    while let Some(n) = trav.stack.pop() {
        if !mig.is_gate(n) || !trav.mark(n) {
            continue;
        }
        steps += 1;
        if steps > CONE_LIMIT {
            return f64::INFINITY;
        }
        let p = probs[n.index()];
        acc += p * (1.0 - p);
        for c in mig.children(n) {
            trav.stack.push(c.node());
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The activity optimizer at effort 3 with fresh buffers.
    fn activity(mig: &Mig, probs: &[f64]) -> Mig {
        optimize_activity(mig, probs, 3, &mut OptBuffers::new())
    }

    fn fig2d() -> (Mig, Vec<f64>) {
        let mut mig = Mig::new("fig2d");
        let x = mig.add_input("x");
        let y = mig.add_input("y");
        let z = mig.add_input("z");
        let w = mig.add_input("w");
        let inner = mig.maj(!x, z, w);
        let k = mig.maj(x, y, inner);
        mig.add_output("k", k);
        (mig, vec![0.5, 0.1, 0.1, 0.1])
    }

    #[test]
    fn fig2d_activity_halves() {
        let (mig, probs) = fig2d();
        let before = mig.switching_activity(&probs);
        assert!((before - 0.18).abs() < 1e-9);
        let opt = activity(&mig, &probs);
        assert!(opt.equiv(&mig, 4));
        let after = opt.switching_activity(&probs);
        assert!(after < 0.10, "paper: 0.18 → ≈0.087, got {after}");
        assert_eq!(opt.size(), 2, "no size penalty");
    }

    #[test]
    fn activity_never_worsens() {
        let mut mig = Mig::new("m");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let m1 = mig.maj(a, b, c);
        let m2 = mig.xor(m1, a);
        mig.add_output("y", m2);
        let probs = vec![0.5, 0.5, 0.5];
        let before = mig.switching_activity(&probs);
        let opt = activity(&mig, &probs);
        assert!(opt.equiv(&mig, 4));
        assert!(opt.switching_activity(&probs) <= before + 1e-12);
    }

    #[test]
    fn extended_probabilities_match_recomputation() {
        // Random majority and Ψ.R appends, with the buffer extended at
        // random points in between: it must always equal a from-scratch
        // propagation, bit for bit.
        use mig_netlist::SplitMix64;
        for seed in 0..40u64 {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let n_in = rng.gen_range(3..8);
            let mut mig = Mig::new("corpus");
            let mut pool: Vec<Signal> = (0..n_in).map(|i| mig.add_input(format!("x{i}"))).collect();
            pool.push(Signal::FALSE);
            let input_probs: Vec<f64> = (0..n_in).map(|_| rng.next_f64()).collect();
            let pick = |rng: &mut SplitMix64, pool: &[Signal]| {
                pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.5))
            };
            let mut probs = Vec::new();
            for _ in 0..60 {
                let s = if rng.gen_bool(0.7) {
                    let (a, b, c) = (
                        pick(&mut rng, &pool),
                        pick(&mut rng, &pool),
                        pick(&mut rng, &pool),
                    );
                    mig.maj(a, b, c)
                } else {
                    let (x, y, z) = (
                        pick(&mut rng, &pool),
                        pick(&mut rng, &pool),
                        pick(&mut rng, &pool),
                    );
                    if x.is_constant() {
                        continue;
                    }
                    mig.psi_r(x, y, z)
                };
                pool.push(s);
                if rng.gen_bool(0.4) {
                    mig.extend_signal_probabilities(&input_probs, &mut probs);
                    let fresh = mig.signal_probabilities(&input_probs);
                    assert_eq!(probs.len(), fresh.len(), "seed {seed}");
                    for (i, (a, b)) in probs.iter().zip(&fresh).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}, node {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn uniform_probabilities_still_sound() {
        let (mig, _) = fig2d();
        let probs = vec![0.5; 4];
        let opt = activity(&mig, &probs);
        assert!(opt.equiv(&mig, 4));
    }
}
