//! Executable forms of the MIG Boolean algebra (paper Section III-B).
//!
//! The primitive axiom set `Ω` and the derived rule set `Ψ`:
//!
//! * `Ω.C` commutativity — implicit (fanins are kept sorted).
//! * `Ω.M` majority — applied automatically by [`Mig::maj`].
//! * `Ω.A` associativity — [`Mig::omega_a`].
//! * `Ω.D` distributivity — [`Mig::omega_d_lr`] (L→R) and
//!   [`Mig::omega_d_rl`] (R→L).
//! * `Ω.I` inverter propagation — implicit (inverter normalization).
//! * `Ψ.R` relevance — [`Mig::psi_r`].
//! * `Ψ.C` complementary associativity — [`Mig::psi_c`].
//! * `Ψ.S` substitution — [`Mig::psi_s`].
//!
//! Every rule is purely constructive: it never mutates existing nodes, it
//! builds the rewritten shape through the hashing constructor and returns
//! the new root signal. Dead originals are swept later by
//! [`Mig::cleanup`].

use crate::{Mig, NodeId, Signal};

impl Mig {
    /// `Ω.A` associativity: `M(x, u, M(y, u, z)) = M(z, u, M(y, u, x))`.
    ///
    /// `outer_other` plays `x`, `shared` plays `u`, and `inner` must be a
    /// majority whose fanins (functional view) contain `shared`; `swap_out`
    /// selects which remaining inner fanin plays `z` (is hoisted out).
    /// Returns `None` when the pattern does not match.
    pub fn omega_a(
        &mut self,
        outer_other: Signal,
        shared: Signal,
        inner: Signal,
        swap_out: Signal,
    ) -> Option<Signal> {
        let kids = self.as_maj(inner)?;
        if !kids.contains(&shared) || !kids.contains(&swap_out) || shared == swap_out {
            return None;
        }
        // The remaining inner fanin plays y.
        let y = *kids.iter().find(|&&k| k != shared && k != swap_out)?;
        let new_inner = self.maj(y, shared, outer_other);
        Some(self.maj(swap_out, shared, new_inner))
    }

    /// `Ω.D` distributivity, left-to-right:
    /// `M(x, y, M(u, v, z)) = M(M(x, y, u), M(x, y, v), z)`.
    ///
    /// `inner` must be a majority; `keep` selects the fanin that stays
    /// outside (plays `z`, typically the critical signal being pushed
    /// toward the output). Returns `None` if the pattern does not match.
    pub fn omega_d_lr(
        &mut self,
        x: Signal,
        y: Signal,
        inner: Signal,
        keep: Signal,
    ) -> Option<Signal> {
        let kids = self.as_maj(inner)?;
        if !kids.contains(&keep) {
            return None;
        }
        let mut rest = kids.iter().copied().filter(|&k| k != keep);
        let u = rest.next()?;
        let v = rest.next().unwrap_or(keep);
        let p = self.maj(x, y, u);
        let q = self.maj(x, y, v);
        Some(self.maj(p, q, keep))
    }

    /// `Ω.D` distributivity, right-to-left:
    /// `M(M(x, y, u), M(x, y, v), z) = M(x, y, M(u, v, z))`.
    ///
    /// `p` and `q` must be majorities sharing two fanins in the functional
    /// view. Returns the merged form, or `None` when no two fanins are
    /// shared.
    pub fn omega_d_rl(&mut self, p: Signal, q: Signal, z: Signal) -> Option<Signal> {
        let pk = self.as_maj(p)?;
        let qk = self.as_maj(q)?;
        // Find two shared fanins (as signals, complement included) with a
        // greedy bipartite match over the 3×3 pairs — fixed-size state, no
        // allocation in this hot eliminate-phase helper.
        let mut q_used = [false; 3];
        let mut shared = [Signal::FALSE; 2];
        let mut n_shared = 0usize;
        let mut p_first_rest: Option<Signal> = None;
        for s in pk {
            let matched = (0..3).find(|&j| !q_used[j] && qk[j] == s);
            match matched {
                Some(j) => {
                    q_used[j] = true;
                    if n_shared < 2 {
                        shared[n_shared] = s;
                    }
                    n_shared += 1;
                }
                None => {
                    if p_first_rest.is_none() {
                        p_first_rest = Some(s);
                    }
                }
            }
        }
        if n_shared < 2 {
            return None;
        }
        // With all three shared, the nodes are identical (strashing would
        // have merged them) — still handled: u = v makes the inner trivial.
        let (u, v) = if n_shared == 3 {
            (shared[1], shared[1])
        } else {
            let v = qk[(0..3).find(|&j| !q_used[j]).expect("one q fanin left")];
            (p_first_rest.expect("one p fanin left"), v)
        };
        let (x, y) = (shared[0], shared[1]);
        let inner = self.maj(u, v, z);
        Some(self.maj(x, y, inner))
    }

    /// `Ψ.C` complementary associativity:
    /// `M(x, u, M(y, u', z)) = M(x, u, M(y, x, z))`.
    ///
    /// `inner` must be a majority containing `!u` in its functional view;
    /// that occurrence is replaced by `x`. Returns `None` if the pattern
    /// does not match.
    pub fn psi_c(&mut self, x: Signal, u: Signal, inner: Signal) -> Option<Signal> {
        let kids = self.as_maj(inner)?;
        let pos = kids.iter().position(|&k| k == !u)?;
        let mut new_kids = kids;
        new_kids[pos] = x;
        let new_inner = self.maj(new_kids[0], new_kids[1], new_kids[2]);
        Some(self.maj(x, u, new_inner))
    }

    /// `Ψ.R` relevance: `M(x, y, z) = M(x, y, z[x := y'])`.
    ///
    /// Rebuilds the cone of `z` with every occurrence of `x`'s node
    /// replaced by `!y` (adjusted for the polarity with which `x` enters),
    /// then reassembles the majority. Sound because `z` only matters when
    /// `x ≠ y` (paper Theorem 3.7).
    pub fn psi_r(&mut self, x: Signal, y: Signal, z: Signal) -> Signal {
        // x enters as a signal; substitution is defined on its node. If x
        // is complemented, occurrences of the *node* get the complement of
        // (y') accordingly: node(x) = x' ⊕ compl ⇒ node(x) := (!y) ⊕ compl.
        let replacement = (!y).complement_if(x.is_complemented());
        let new_z = self.substitute(z, x.node(), replacement);
        self.maj(x, y, new_z)
    }

    /// `Ψ.S` substitution:
    /// `k = M(v, M(v', k[v := u], u), M(v', k[v := u'], u'))`.
    ///
    /// Temporarily inflates the representation to express `k` through a
    /// fresh variable pair `(u, v)`; used by the reshaping phases to
    /// escape local minima. `v` must not be a constant.
    ///
    /// # Panics
    ///
    /// Panics if `v` is a constant signal.
    pub fn psi_s(&mut self, k: Signal, u: Signal, v: Signal) -> Signal {
        assert!(!v.is_constant(), "Ψ.S requires a non-constant v");
        let v_node = v.node();
        let u_adj = u.complement_if(v.is_complemented());
        let k_vu = self.substitute(k, v_node, u_adj);
        let k_vun = self.substitute(k, v_node, !u_adj);
        let left = self.maj(!v, k_vu, u);
        let right = self.maj(!v, k_vun, !u);
        self.maj(v, left, right)
    }

    /// Rebuilds the cone of `root`, replacing every occurrence of node
    /// `from` by the signal `to`. Untouched sub-cones are shared, not
    /// copied. Returns the (possibly identical) new root.
    ///
    /// Runs on the epoch-stamped `SubstScratch`:
    /// the cone order buffer and the `NodeId → Signal` rebuild map are
    /// reused across calls, so the `Ψ.R`/`Ψ.S` inner loops never allocate.
    pub fn substitute(&mut self, root: Signal, from: NodeId, to: Signal) -> Signal {
        if root.node() == from {
            return to.complement_if(root.is_complemented());
        }
        if !self.is_gate(root.node()) {
            return root;
        }
        let mut ss = self.take_subst_scratch();
        ss.begin(self.num_nodes());
        // Collect the cone gates; arena order is topological, so sorting
        // ascending makes children precede parents.
        {
            let mut trav = self.trav_scratch();
            trav.begin(self.num_nodes());
            trav.stack.push(root.node());
            while let Some(n) = trav.stack.pop() {
                if !self.is_gate(n) || !trav.mark(n) {
                    continue;
                }
                ss.order.push(n);
                for c in self.children(n) {
                    trav.stack.push(c.node());
                }
            }
        }
        ss.order.sort_unstable();
        let map_sig = |ss: &crate::scratch::SubstScratch, s: Signal| {
            if s.node() == from {
                to.complement_if(s.is_complemented())
            } else if let Some(ns) = ss.get(s.node()) {
                ns.complement_if(s.is_complemented())
            } else {
                s
            }
        };
        for i in 0..ss.order.len() {
            let n = ss.order[i];
            let [a, b, c] = self.children(n);
            let touches = [a, b, c]
                .iter()
                .any(|s| s.node() == from || ss.get(s.node()).is_some());
            if !touches {
                continue;
            }
            let (na, nb, nc) = (map_sig(&ss, a), map_sig(&ss, b), map_sig(&ss, c));
            let ns = self.maj(na, nb, nc);
            ss.set(n, ns);
        }
        let result = match ss.get(root.node()) {
            Some(ns) => ns.complement_if(root.is_complemented()),
            None => root,
        };
        self.put_subst_scratch(ss);
        result
    }

    /// The gate nodes in the transitive fanin cone of `root`, in
    /// topological (ascending arena) order.
    pub fn cone_gates(&self, root: Signal) -> Vec<NodeId> {
        let mut seen: Vec<NodeId> = Vec::new();
        let mut trav = self.trav_scratch();
        trav.begin(self.num_nodes());
        trav.stack.push(root.node());
        while let Some(n) = trav.stack.pop() {
            if !self.is_gate(n) || !trav.mark(n) {
                continue;
            }
            seen.push(n);
            for c in self.children(n) {
                trav.stack.push(c.node());
            }
        }
        drop(trav);
        seen.sort_unstable();
        seen
    }

    /// Number of gates in the transitive fanin cone of `root`, or `None`
    /// if the cone exceeds `limit` gates. Allocation-free (epoch-marked).
    pub fn cone_size_within(&self, root: Signal, limit: usize) -> Option<usize> {
        let mut trav = self.trav_scratch();
        trav.begin(self.num_nodes());
        trav.stack.push(root.node());
        let mut count = 0usize;
        while let Some(n) = trav.stack.pop() {
            if !self.is_gate(n) || !trav.mark(n) {
                continue;
            }
            count += 1;
            if count > limit {
                return None;
            }
            for c in self.children(n) {
                trav.stack.push(c.node());
            }
        }
        Some(count)
    }

    /// True if node `target` occurs in the transitive fanin cone of
    /// `root` (checking at most `limit` gates; `None` means the limit was
    /// hit without finding it). Allocation-free (epoch-marked).
    pub fn cone_contains(&self, root: Signal, target: NodeId, limit: usize) -> Option<bool> {
        let mut trav = self.trav_scratch();
        trav.begin(self.num_nodes());
        trav.stack.push(root.node());
        let mut steps = 0usize;
        while let Some(n) = trav.stack.pop() {
            if n == target {
                return Some(true);
            }
            if !self.is_gate(n) || !trav.mark(n) {
                continue;
            }
            steps += 1;
            if steps > limit {
                return None;
            }
            for c in self.children(n) {
                trav.stack.push(c.node());
            }
        }
        Some(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mig_tt::TruthTable;

    /// Builds a 4-input MIG and returns per-signal truth-table evaluation.
    fn tt_of(mig: &Mig, s: Signal) -> TruthTable {
        let mut m = mig.clone();
        m.add_output("probe", s);
        mig_sim::output_truth_tables(&m.to_network())
            .pop()
            .expect("one output")
    }

    fn setup() -> (Mig, Signal, Signal, Signal, Signal) {
        let mut mig = Mig::new("t");
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let d = mig.add_input("d");
        (mig, a, b, c, d)
    }

    #[test]
    fn omega_a_preserves_function() {
        let (mut mig, x, u, y, z) = setup();
        let inner = mig.maj(y, u, z);
        let outer = mig.maj(x, u, inner);
        let rewritten = mig.omega_a(x, u, inner, z).expect("pattern matches");
        assert_eq!(tt_of(&mig, outer), tt_of(&mig, rewritten));
    }

    #[test]
    fn omega_a_rejects_nonmatching() {
        let (mut mig, x, u, y, z) = setup();
        let inner = mig.maj(y, x, z); // shares x, not u
        assert_eq!(mig.omega_a(x, u, inner, z), None);
        assert_eq!(mig.omega_a(x, u, y, z), None, "inner must be a gate");
    }

    #[test]
    fn omega_d_lr_preserves_function() {
        let (mut mig, x, y, u, v) = setup();
        let z = mig.input(0); // reuse a as z for a 4-var test? use distinct: d
        let _ = z;
        let inner = mig.maj(u, v, x); // z := x reconvergent is fine too
        let outer = mig.maj(x, y, inner);
        let rewritten = mig.omega_d_lr(x, y, inner, x).expect("matches");
        assert_eq!(tt_of(&mig, outer), tt_of(&mig, rewritten));
    }

    #[test]
    fn omega_d_lr_distinct_vars() {
        let (mut mig, x, y, u, v) = setup();
        let inner = mig.maj(u, v, !y);
        let outer = mig.maj(x, !y, inner);
        for keep in [u, v, !y] {
            let rewritten = mig.omega_d_lr(x, !y, inner, keep).expect("matches");
            assert_eq!(tt_of(&mig, outer), tt_of(&mig, rewritten), "keep {keep}");
        }
    }

    #[test]
    fn omega_d_roundtrip() {
        let (mut mig, x, y, u, v) = setup();
        let inner = mig.maj(u, v, !x);
        let outer = mig.maj(x, y, inner);
        let distributed = mig.omega_d_lr(x, y, inner, !x).expect("matches");
        // distributed = M(M(x,y,u), M(x,y,v), x') — the first two fanins
        // share the pair (x,y), so R→L merges back.
        let kids = mig.as_maj(distributed).expect("gate");
        let merged = mig
            .omega_d_rl(kids[0], kids[1], kids[2])
            .or_else(|| mig.omega_d_rl(kids[0], kids[2], kids[1]))
            .or_else(|| mig.omega_d_rl(kids[1], kids[2], kids[0]))
            .expect("some pair shares two fanins");
        assert_eq!(tt_of(&mig, outer), tt_of(&mig, merged));
        assert_eq!(merged, outer, "strashing makes the round trip exact");
    }

    #[test]
    fn omega_d_rl_merges_shared_pair() {
        let (mut mig, x, y, u, v) = setup();
        let p = mig.maj(x, y, u);
        let q = mig.maj(x, y, v);
        let z = mig.input(0);
        let top = mig.maj(p, q, z);
        let merged = mig.omega_d_rl(p, q, z).expect("shares x,y");
        assert_eq!(tt_of(&mig, top), tt_of(&mig, merged));
        // Merged form uses one fewer level of pairing: M(x,y,M(u,v,z)).
        let kids = mig.as_maj(merged).expect("gate");
        assert!(kids.contains(&x) && kids.contains(&y));
    }

    #[test]
    fn psi_c_preserves_function() {
        let (mut mig, x, u, y, z) = setup();
        let inner = mig.maj(y, !u, z);
        let outer = mig.maj(x, u, inner);
        let rewritten = mig.psi_c(x, u, inner).expect("matches");
        assert_eq!(tt_of(&mig, outer), tt_of(&mig, rewritten));
    }

    #[test]
    fn psi_r_preserves_function() {
        let (mut mig, x, y, z, w) = setup();
        // z-cone reconverges on x: M(x, y, M(x, z, w))
        let inner = mig.maj(x, z, w);
        let outer = mig.maj(x, y, inner);
        let rewritten = mig.psi_r(x, y, inner);
        assert_eq!(tt_of(&mig, outer), tt_of(&mig, rewritten));
    }

    #[test]
    fn psi_r_complemented_occurrence() {
        let (mut mig, x, y, z, w) = setup();
        let inner = mig.maj(!x, z, w);
        let outer = mig.maj(x, y, inner);
        let rewritten = mig.psi_r(x, y, inner);
        assert_eq!(tt_of(&mig, outer), tt_of(&mig, rewritten));
        // Paper Fig. 2(d): M(x, y, M(x', z, w)) = M(x, y, M(y, z, w)).
        let expected_inner = mig.maj(y, z, w);
        let expected = mig.maj(x, y, expected_inner);
        assert_eq!(rewritten, expected);
    }

    #[test]
    fn psi_r_on_complemented_x() {
        let (mut mig, x, y, z, w) = setup();
        let inner = mig.maj(x, z, w);
        let outer = mig.maj(!x, y, inner);
        let rewritten = mig.psi_r(!x, y, inner);
        assert_eq!(tt_of(&mig, outer), tt_of(&mig, rewritten));
    }

    #[test]
    fn psi_s_preserves_function() {
        let (mut mig, a, b, c, d) = setup();
        let inner = mig.maj(a, b, c);
        let k = mig.maj(inner, c, d);
        // Substitute pair (u=d, v=a).
        let rewritten = mig.psi_s(k, d, a);
        assert_eq!(tt_of(&mig, k), tt_of(&mig, rewritten));
        // And with complemented / constant u.
        let r2 = mig.psi_s(k, !b, a);
        assert_eq!(tt_of(&mig, k), tt_of(&mig, r2));
    }

    #[test]
    fn psi_s_on_complemented_v() {
        let (mut mig, a, b, c, d) = setup();
        let inner = mig.maj(a, b, c);
        let k = mig.maj(inner, c, d);
        let rewritten = mig.psi_s(k, b, !a);
        assert_eq!(tt_of(&mig, k), tt_of(&mig, rewritten));
    }

    #[test]
    fn substitute_rebuilds_cone() {
        let (mut mig, a, b, c, d) = setup();
        let p = mig.and(a, b);
        let q = mig.or(p, c);
        let r = mig.maj(q, p, d);
        // Replace node b by d in r's cone.
        let r2 = mig.substitute(r, b.node(), d);
        let expect_p = mig.and(a, d);
        let expect_q = mig.or(expect_p, c);
        let expect_r = mig.maj(expect_q, expect_p, d);
        assert_eq!(r2, expect_r);
    }

    #[test]
    fn substitute_identity_when_absent() {
        let (mut mig, a, b, c, d) = setup();
        let p = mig.and(a, b);
        let r = mig.maj(p, c, a);
        let r2 = mig.substitute(r, d.node(), !c);
        assert_eq!(r, r2, "no occurrence ⇒ same signal");
    }

    #[test]
    fn substitute_at_root() {
        let (mut mig, a, b, _, _) = setup();
        assert_eq!(mig.substitute(a, a.node(), b), b);
        assert_eq!(mig.substitute(!a, a.node(), b), !b);
    }

    #[test]
    fn cone_queries() {
        let (mut mig, a, b, c, d) = setup();
        let p = mig.and(a, b);
        let q = mig.or(p, c);
        assert_eq!(mig.cone_contains(q, a.node(), 100), Some(true));
        assert_eq!(mig.cone_contains(q, d.node(), 100), Some(false));
        assert_eq!(mig.cone_contains(q, p.node(), 100), Some(true));
        assert_eq!(mig.cone_gates(q).len(), 2);
        assert_eq!(mig.cone_contains(q, d.node(), 0), None, "limit hit");
    }

    #[test]
    fn fig2a_manual_size_optimization() {
        // Paper Fig. 2(a): h = M(x, M(x, z', w), M(x, y, z)) reduces to x.
        let mut mig = Mig::new("fig2a");
        let x = mig.add_input("x");
        let y = mig.add_input("y");
        let z = mig.add_input("z");
        let w = mig.add_input("w");
        let m1 = mig.maj(x, !z, w);
        let m2 = mig.maj(x, y, z);
        let h = mig.maj(x, m1, m2);
        // Sanity: h is logically x.
        assert_eq!(tt_of(&mig, h), tt_of(&mig, x));
        // Ω.A: swap w out of m1 (shared child x between outer and m1):
        // M(m2, x, M(z', x, w)) = M(w, x, M(z', x, m2))
        let step1 = mig.omega_a(m2, x, m1, w).expect("m1 shares x");
        assert_eq!(tt_of(&mig, step1), tt_of(&mig, x));
        // Ψ.R on the new inner node M(z', x, m2): replace x by z inside m2
        // (x paired with z' ⇒ x := (z')' = z), giving M(z', x, M(z,y,z)) =
        // M(z', x, z) = x; the trivial rules collapse everything.
        let inner = mig
            .as_maj(step1)
            .expect("gate")
            .into_iter()
            .find(|&s| mig.as_maj(s).is_some())
            .expect("inner majority");
        let kids = mig.as_maj(inner).expect("inner is a gate");
        let m2_pos = kids.iter().position(|&s| s == m2).expect("m2 still inside");
        let (xs, zs) = match m2_pos {
            0 => (kids[1], kids[2]),
            1 => (kids[0], kids[2]),
            _ => (kids[0], kids[1]),
        };
        // Choose roles so the substituted pair is (x, z').
        let (xr, yr) = if xs == x { (xs, zs) } else { (zs, xs) };
        // psi_r returns the reassembled M(x, z', m2[x:=z]) = M(x, z', z) = x.
        let new_inner = mig.psi_r(xr, yr, kids[m2_pos]);
        let top = mig.maj(w, x, new_inner);
        assert_eq!(top, x, "Fig. 2(a): h collapses to x");
    }
}
