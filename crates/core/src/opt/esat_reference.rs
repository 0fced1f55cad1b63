//! Reference implementations of the e-graph's matcher, extraction
//! choice and congruence rebuild, kept verbatim from before the flat
//! action buffer, the dirty-frontier recost, the flat extraction view
//! and the merge-free sweep skip. The tests assert that the production
//! code applies the same actions in the same order, rebuilds to the same
//! state and extracts the same graph.

use std::collections::HashMap;

use super::{Action, EGraph, ELit, ENode};
use crate::opt::Objective;

impl EGraph {
    /// The rebuild as it was before the merge-free sweep skip and the
    /// fixed hasher: full sweeps over a freshly gathered entry list and
    /// a SipHash memo, until a sweep performs no merge. The memo it
    /// leaves is copied into the graph's.
    pub(super) fn reference_rebuild(&mut self) {
        let mut memo: HashMap<ENode, ELit> = HashMap::new();
        loop {
            // Gather every (literal, node) pair, then rebuild the class
            // lists and the memo from scratch.
            let mut entries: Vec<(ELit, ENode)> = Vec::with_capacity(self.num_enodes);
            for c in 0..self.uf.len() {
                if self.uf[c].class() != c as u32 {
                    continue;
                }
                for &(n, oc) in self.nodes[c].iter() {
                    entries.push((ELit::new(c as u32, oc), n));
                }
            }
            for list in &mut self.nodes {
                list.clear();
            }
            memo.clear();
            self.num_enodes = 0;
            let mut changed = false;
            for (lit, node) in entries {
                let lit = self.find(lit);
                let kids = [self.find(node[0]), self.find(node[1]), self.find(node[2])];
                match Self::canon(kids) {
                    Err(folded) => {
                        changed |= self.merge(lit, folded);
                    }
                    Ok((n, flip)) => {
                        // `n` computes `lit` up to `flip`.
                        let nlit = lit.complement_if(flip);
                        match memo.get(&n) {
                            Some(&prev) => {
                                let prev = self.find(prev);
                                if prev != nlit {
                                    changed |= self.merge(prev, nlit);
                                }
                            }
                            None => {
                                memo.insert(n, nlit);
                                let root = self.find(nlit);
                                self.nodes[root.class() as usize].push((n, root.is_complemented()));
                                self.num_enodes += 1;
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.memo = memo.into_iter().collect();
    }

    /// The matcher as it was before the flat action buffer: per-target
    /// action lists, interleaved round-robin into one materialized list.
    pub(super) fn reference_matches(&self, scan_cap: usize) -> Vec<Action> {
        // Snapshot the nodes so rule application never observes a
        // half-updated class list.
        let mut snapshot: Vec<(ELit, ENode)> = Vec::with_capacity(self.num_enodes);
        for c in 0..self.uf.len() {
            if self.uf[c].class() != c as u32 {
                continue;
            }
            for &(n, oc) in self.nodes[c].iter() {
                snapshot.push((ELit::new(c as u32, oc), n));
            }
        }
        let mut buckets: Vec<Vec<Action>> = Vec::with_capacity(snapshot.len());
        for &(target, n) in &snapshot {
            let mut actions = Vec::new();
            for i in 0..3 {
                let child = n[i];
                let x = n[(i + 1) % 3];
                let u = n[(i + 2) % 3];
                let inner_class = child.class() as usize;
                let inner_nodes: Vec<(ENode, bool)> = self.nodes[inner_class]
                    .iter()
                    .take(scan_cap)
                    .copied()
                    .collect();
                for (m, moc) in inner_nodes {
                    let flip = child.is_complemented() ^ moc;
                    let ik = if flip {
                        [m[0].not(), m[1].not(), m[2].not()]
                    } else {
                        m
                    };
                    // target ≡ M(x, u, M(ik)) — match the nested rules
                    // with both (x,u) and (u,x) in the outer role.
                    for (x, u) in [(x, u), (u, x)] {
                        for j in 0..3 {
                            let yj = ik[j];
                            let ya = ik[(j + 1) % 3];
                            let yb = ik[(j + 2) % 3];
                            if yj == u {
                                // Ω.A: M(x,u,M(ya,u,yb)) = M(yb,u,M(ya,u,x))
                                actions.push(Action::Nest {
                                    outer: [yb, u],
                                    inner: [ya, u, x],
                                    target,
                                });
                                // M-assoc: … = M(M(x,u,ya),u,yb)
                                actions.push(Action::Nest {
                                    outer: [u, yb],
                                    inner: [x, u, ya],
                                    target,
                                });
                            }
                            if yj == u.not() {
                                // Ψ.C: M(x,u,M(ya,u',yb)) = M(x,u,M(ya,x,yb))
                                actions.push(Action::Nest {
                                    outer: [x, u],
                                    inner: [ya, x, yb],
                                    target,
                                });
                            }
                            if yj == x {
                                // Ψ.R (one level): M(x,u,M(…x…)) =
                                // M(x,u,M(…u'…))
                                let mut inner = ik;
                                inner[j] = u.not();
                                actions.push(Action::Nest {
                                    outer: [x, u],
                                    inner,
                                    target,
                                });
                            }
                        }
                    }
                    // Ω.D left-to-right: M(x,u,M(a,b,c)) =
                    // M(M(x,u,a),M(x,u,b),c) for each choice of the
                    // child kept outside. Unconditionally this rule is
                    // explosive (it always adds up to three nodes and
                    // matches every nested pair), so it only fires when
                    // at least one of the distributed products already
                    // exists in the e-graph — then the rewrite creates
                    // sharing instead of inflation.
                    for j in 0..3 {
                        let p0 = [x, u, ik[(j + 1) % 3]];
                        let p1 = [x, u, ik[(j + 2) % 3]];
                        if self.node_exists(p0) || self.node_exists(p1) {
                            actions.push(Action::Dist {
                                ab: [x, u],
                                pair: [ik[(j + 1) % 3], ik[(j + 2) % 3]],
                                z: ik[j],
                                target,
                            });
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
                let an: Vec<(ENode, bool)> = self.nodes[a.class() as usize]
                    .iter()
                    .take(scan_cap)
                    .copied()
                    .collect();
                let bn: Vec<(ENode, bool)> = self.nodes[b.class() as usize]
                    .iter()
                    .take(scan_cap)
                    .copied()
                    .collect();
                for &(ma, aoc) in &an {
                    let ka = if a.is_complemented() ^ aoc {
                        [ma[0].not(), ma[1].not(), ma[2].not()]
                    } else {
                        ma
                    };
                    for &(mb, boc) in &bn {
                        let kb = if b.is_complemented() ^ boc {
                            [mb[0].not(), mb[1].not(), mb[2].not()]
                        } else {
                            mb
                        };
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
                                actions.push(Action::Nest {
                                    outer: [x, y],
                                    inner: [u, v, z],
                                    target,
                                });
                            }
                        }
                    }
                }
            }
            buckets.push(actions);
        }
        // Interleave round-robin across target nodes: when the apply
        // loop runs out of node budget mid-list, exploration has been
        // spread over the whole graph instead of a prefix of it.
        let total: usize = buckets.iter().map(Vec::len).sum();
        let mut interleaved = Vec::with_capacity(total);
        let mut round = 0;
        while interleaved.len() < total {
            for bucket in &buckets {
                if let Some(&a) = bucket.get(round) {
                    interleaved.push(a);
                }
            }
            round += 1;
        }
        interleaved
    }

    /// The extraction choice as it was before the marginal recost ran
    /// on the dirty frontier: the recost repeats full ascending sweeps
    /// until one changes nothing.
    pub(super) fn reference_choose(
        &self,
        objective: Objective,
        outputs: &[ELit],
    ) -> Option<Vec<Option<usize>>> {
        const SWEEP_CAP: usize = 10_000;
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
        // primary metric strictly decreases child-ward.
        //
        // Dirty-frontier scheduling: a class is only re-evaluated when a
        // child class's cost changed since its last evaluation (the
        // union-find is frozen during extraction, so the parent lists
        // are stable). Re-evaluating with unchanged children reproduces
        // candidate costs that already lost the strict `<` comparison,
        // so skipping them cannot change any assignment — and because
        // costs fall monotonically as children fall, every class
        // converges to the min over its candidates' final costs, with
        // the same `idx` tiebreak the full sweep produces. In-round
        // visibility matches the full sweep exactly: classes are visited
        // in ascending order, so a parent above the changed child joins
        // the current round and a parent at or below it waits for the
        // next. On depth extractions of near-converged e-graphs this
        // turns O(rounds · classes) rescans into work proportional to
        // the cone that actually changed.
        let mut parents: Vec<Vec<u32>> = vec![Vec::new(); n];
        for c in 0..n {
            if self.uf[c].class() != c as u32 {
                continue;
            }
            for &(node, _) in self.nodes[c].iter() {
                for kid in node {
                    let kc = self.find_nc(kid).class() as usize;
                    parents[kc].push(c as u32);
                }
            }
        }
        for list in &mut parents {
            list.sort_unstable();
            list.dedup();
        }
        let mut dirty_now = vec![true; n];
        let mut dirty_next = vec![false; n];
        for _ in 0..SWEEP_CAP {
            for c in 0..n {
                if !dirty_now[c] || self.uf[c].class() != c as u32 {
                    continue;
                }
                let mut improved = false;
                for (idx, &(node, _)) in self.nodes[c].iter().enumerate() {
                    let mut size: u64 = 1;
                    let mut depth: u64 = 0;
                    let mut viable = true;
                    for kid in node {
                        let kc = self.find_nc(kid).class() as usize;
                        match best[kc] {
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
                if improved {
                    for &p in &parents[c] {
                        if (p as usize) > c {
                            dirty_now[p as usize] = true;
                        } else {
                            dirty_next[p as usize] = true;
                        }
                    }
                }
            }
            if !dirty_next.iter().any(|&d| d) {
                break;
            }
            std::mem::swap(&mut dirty_now, &mut dirty_next);
            dirty_next.fill(false);
        }
        // The tree-cost fixpoint ignores sharing: a class used by many
        // chosen parents is paid for once in the DAG but Σ-counted once
        // per use, so extraction can prefer a "cheap tree" over a
        // smaller shared graph. Refine the size-objective choice with
        // marginal recosting: children already in the extracted set are
        // free, candidate switches are accepted only when the realized
        // class count (== emitted gate count before strashing) drops.
        // Acyclicity is kept by restricting every switch to nodes whose
        // children have strictly smaller converged tree cost than their
        // class — any mix of such choices terminates child-ward.
        let mut choice: Vec<Option<usize>> = best.iter().map(|b| b.map(|(_, _, i)| i)).collect();
        if structural == Objective::SizeThenDepth {
            let out_classes: Vec<usize> = outputs
                .iter()
                .map(|&o| self.find_nc(o).class() as usize)
                .collect();
            let mut used = self.reference_used_classes(&choice, &out_classes)?;
            let mut gates = Self::count_gates(&used, &choice);
            for _ in 0..4 {
                let mut cand = choice.clone();
                let mut mcost: Vec<Option<u64>> = vec![None; n];
                for c in 0..n {
                    if cand[c] == Some(usize::MAX) {
                        mcost[c] = Some(0);
                    }
                }
                for _ in 0..SWEEP_CAP {
                    let mut changed = false;
                    for c in 0..n {
                        if self.uf[c].class() != c as u32 || self.leaf[c].is_some() {
                            continue;
                        }
                        let Some((tp, _, _)) = best[c] else { continue };
                        let mut class_best: Option<(u64, usize)> = None;
                        for (idx, &(node, _)) in self.nodes[c].iter().enumerate() {
                            let mut cost: u64 = 1;
                            let mut safe = true;
                            for kid in node {
                                let kc = self.find_nc(kid).class() as usize;
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
                        if let Some((cost, idx)) = class_best {
                            if mcost[c].is_none_or(|m| cost < m) {
                                mcost[c] = Some(cost);
                                cand[c] = Some(idx);
                                changed = true;
                            }
                        }
                    }
                    if !changed {
                        break;
                    }
                }
                let new_used = self.reference_used_classes(&cand, &out_classes)?;
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

    /// Whether the majority of three (canonical) literals folds or is
    /// already hash-consed — a read-only membership probe used to gate
    /// the inflationary rules. The reference matcher runs before any
    /// action is applied, so it reads the live memo.
    fn node_exists(&self, kids: [ELit; 3]) -> bool {
        match Self::canon(kids) {
            Err(_) => true,
            Ok((node, _)) => self.memo.contains_key(&node),
        }
    }

    /// `used_classes` as it was before the flat extraction view: it
    /// walks the class lists.
    fn reference_used_classes(
        &self,
        choice: &[Option<usize>],
        out_classes: &[usize],
    ) -> Option<Vec<bool>> {
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
            for kid in self.nodes[c][idx].0 {
                stack.push(self.find_nc(kid).class() as usize);
            }
        }
        Some(used)
    }
}
