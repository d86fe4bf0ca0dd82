//! DEDUP-2: the single-layer symmetric optimization (§4.3, Appendix B).
//!
//! For symmetric single-layer condensed graphs (`u → v` iff `v → u`, no
//! virtual–virtual *directed* chains), the source/target split is redundant:
//! a virtual node is just a set of mutually connected real members. DEDUP-2
//! additionally allows **undirected edges between virtual nodes**: a real
//! node `u` is connected to every member of its own virtual nodes, and to
//! every member of virtual nodes one hop away from them. This can encode
//! large overlapping cliques far more compactly than DEDUP-1 (Fig. 6).
//!
//! The representation must itself be duplicate-free: for any pair `(u, w)`
//! at most one "witness" — either one shared virtual node, or one virtual
//! edge `(V, W)` with `u ∈ V, w ∈ W` — may connect them. That implies
//! (Appendix B): any two virtual nodes overlap in at most one real node, the
//! virtual neighbors of a virtual node are pairwise disjoint, no two virtual
//! nodes sharing a member are adjacent, and no member of `V` appears in a
//! virtual neighbor of `V`.
//!
//! DEDUP-2 is inherently **undirected**: `add_edge`/`delete_edge` affect
//! both directions (the paper uses it only for symmetric graphs).

use crate::api::{GraphRep, RepKind};
use crate::ids::RealId;

/// The DEDUP-2 graph.
#[derive(Debug, Clone, Default)]
pub struct Dedup2Graph {
    /// For each real node, the sorted virtual nodes it belongs to.
    memberships: Vec<Vec<u32>>,
    /// For each virtual node, its sorted real members.
    members: Vec<Vec<u32>>,
    /// Undirected virtual–virtual adjacency (stored in both directions,
    /// sorted).
    vv: Vec<Vec<u32>>,
    /// Direct (undirected) real–real edges, stored in both directions.
    /// The paper models these as singleton virtual nodes; a side list is
    /// equivalent and cheaper.
    direct: Vec<Vec<u32>>,
    alive: Vec<bool>,
    n_alive: usize,
}

impl Dedup2Graph {
    /// An empty DEDUP-2 graph over `n` real nodes.
    pub fn new(n: usize) -> Self {
        Self {
            memberships: vec![Vec::new(); n],
            members: Vec::new(),
            vv: Vec::new(),
            direct: vec![Vec::new(); n],
            alive: vec![true; n],
            n_alive: n,
        }
    }

    /// Create a virtual node with the given (deduplicated) members.
    pub fn add_virtual(&mut self, mut real_members: Vec<u32>) -> u32 {
        real_members.sort_unstable();
        real_members.dedup();
        let id = self.members.len() as u32;
        for &m in &real_members {
            let list = &mut self.memberships[m as usize];
            if let Err(pos) = list.binary_search(&id) {
                list.insert(pos, id);
            }
        }
        self.members.push(real_members);
        self.vv.push(Vec::new());
        id
    }

    /// Add an undirected virtual–virtual edge.
    pub fn add_virtual_edge(&mut self, v: u32, w: u32) {
        debug_assert_ne!(v, w);
        if let Err(pos) = self.vv[v as usize].binary_search(&w) {
            self.vv[v as usize].insert(pos, w);
        }
        if let Err(pos) = self.vv[w as usize].binary_search(&v) {
            self.vv[w as usize].insert(pos, v);
        }
    }

    /// Remove a real node from a virtual node.
    pub fn remove_member(&mut self, v: u32, u: u32) {
        if let Ok(pos) = self.members[v as usize].binary_search(&u) {
            self.members[v as usize].remove(pos);
        }
        if let Ok(pos) = self.memberships[u as usize].binary_search(&v) {
            self.memberships[u as usize].remove(pos);
        }
    }

    /// Members of a virtual node.
    pub fn members(&self, v: u32) -> &[u32] {
        &self.members[v as usize]
    }

    /// Virtual neighbors of a virtual node.
    pub fn virtual_neighbors(&self, v: u32) -> &[u32] {
        &self.vv[v as usize]
    }

    /// Virtual nodes this real node belongs to.
    pub fn memberships_of(&self, u: RealId) -> &[u32] {
        &self.memberships[u.0 as usize]
    }

    /// Number of virtual nodes (including emptied ones until compaction).
    pub fn num_virtual(&self) -> usize {
        self.members.iter().filter(|m| !m.is_empty()).count()
    }

    /// Add an undirected direct edge.
    fn add_direct(&mut self, u: u32, v: u32) {
        if let Err(pos) = self.direct[u as usize].binary_search(&v) {
            self.direct[u as usize].insert(pos, v);
        }
        if let Err(pos) = self.direct[v as usize].binary_search(&u) {
            self.direct[v as usize].insert(pos, u);
        }
    }

    fn remove_direct(&mut self, u: u32, v: u32) -> bool {
        let mut removed = false;
        if let Ok(pos) = self.direct[u as usize].binary_search(&v) {
            self.direct[u as usize].remove(pos);
            removed = true;
        }
        if let Ok(pos) = self.direct[v as usize].binary_search(&u) {
            self.direct[v as usize].remove(pos);
        }
        removed
    }

    /// Visit the raw (unfiltered, possibly duplicated if invariants are
    /// broken) neighborhood. Used by the validator.
    pub(crate) fn for_each_neighbor_raw(&self, u: RealId, f: &mut dyn FnMut(u32)) {
        for &v in &self.direct[u.0 as usize] {
            f(v);
        }
        for &vn in &self.memberships[u.0 as usize] {
            for &m in &self.members[vn as usize] {
                if m != u.0 {
                    f(m);
                }
            }
            for &wn in &self.vv[vn as usize] {
                for &m in &self.members[wn as usize] {
                    if m != u.0 {
                        f(m);
                    }
                }
            }
        }
    }
}

impl GraphRep for Dedup2Graph {
    fn kind(&self) -> RepKind {
        RepKind::Dedup2
    }

    fn num_real_slots(&self) -> usize {
        self.memberships.len()
    }

    fn is_alive(&self, u: RealId) -> bool {
        self.alive[u.0 as usize]
    }

    fn num_vertices(&self) -> usize {
        self.n_alive
    }

    fn for_each_neighbor(&self, u: RealId, f: &mut dyn FnMut(RealId)) {
        // The "extra layer of indirection" §6.3 mentions: own members, then
        // members one virtual hop away. No hashset — the invariants make
        // every neighbor appear exactly once.
        self.for_each_neighbor_raw(u, &mut |v| {
            if self.alive[v as usize] {
                f(RealId(v));
            }
        });
    }

    fn exists_edge(&self, u: RealId, v: RealId) -> bool {
        if u == v || !self.alive[u.0 as usize] || !self.alive[v.0 as usize] {
            return false;
        }
        if self.direct[u.0 as usize].binary_search(&v.0).is_ok() {
            return true;
        }
        for &vn in &self.memberships[u.0 as usize] {
            if self.members[vn as usize].binary_search(&v.0).is_ok() {
                return true;
            }
            for &wn in &self.vv[vn as usize] {
                if self.members[wn as usize].binary_search(&v.0).is_ok() {
                    return true;
                }
            }
        }
        false
    }

    fn add_vertex(&mut self) -> RealId {
        self.memberships.push(Vec::new());
        self.direct.push(Vec::new());
        self.alive.push(true);
        self.n_alive += 1;
        RealId(self.memberships.len() as u32 - 1)
    }

    fn delete_vertex(&mut self, u: RealId) {
        // Constant-time logical removal (the §6.3 microbenchmark point).
        if std::mem::replace(&mut self.alive[u.0 as usize], false) {
            self.n_alive -= 1;
        }
    }

    fn revive_vertex(&mut self, u: RealId) {
        if !std::mem::replace(&mut self.alive[u.0 as usize], true) {
            self.n_alive += 1;
        }
    }

    fn compact(&mut self) {
        let alive = &self.alive;
        for (i, list) in self.direct.iter_mut().enumerate() {
            if !alive[i] {
                list.clear();
            } else {
                list.retain(|&v| alive[v as usize]);
            }
        }
        let dead: Vec<u32> = (0..self.memberships.len() as u32)
            .filter(|&u| !self.alive[u as usize])
            .collect();
        for u in dead {
            for vn in std::mem::take(&mut self.memberships[u as usize]) {
                if let Ok(pos) = self.members[vn as usize].binary_search(&u) {
                    self.members[vn as usize].remove(pos);
                }
            }
        }
    }

    fn add_edge(&mut self, u: RealId, v: RealId) {
        // Undirected: one witness added.
        if u != v && !self.exists_edge(u, v) {
            self.add_direct(u.0, v.0);
        }
    }

    fn delete_edge(&mut self, u: RealId, v: RealId) {
        if self.remove_direct(u.0, v.0) {
            return;
        }
        // Find the (unique, by invariant) witness through u's memberships.
        let memberships = self.memberships[u.0 as usize].clone();
        for vn in memberships {
            let shared = self.members[vn as usize].binary_search(&v.0).is_ok();
            let via_vv = self.vv[vn as usize]
                .iter()
                .any(|&wn| self.members[wn as usize].binary_search(&v.0).is_ok());
            if shared || via_vv {
                // Detach u from vn; everything u reached through vn except v
                // must be re-added as direct edges.
                let mut lost: Vec<u32> = self.members[vn as usize]
                    .iter()
                    .copied()
                    .filter(|&m| m != u.0)
                    .collect();
                for &wn in &self.vv[vn as usize] {
                    lost.extend(self.members[wn as usize].iter().copied());
                }
                self.remove_member(vn, u.0);
                for w in lost {
                    if w != v.0 && w != u.0 && !self.exists_edge(u, RealId(w)) {
                        self.add_direct(u.0, w);
                    }
                }
                return;
            }
        }
    }

    fn stored_edge_count(&self) -> u64 {
        // Membership edges + vv edges (counted once: undirected) + direct
        // edges (counted once).
        let membership: u64 = self.members.iter().map(|m| m.len() as u64).sum();
        let vv: u64 = self.vv.iter().map(|l| l.len() as u64).sum::<u64>() / 2;
        let direct: u64 = self.direct.iter().map(|l| l.len() as u64).sum::<u64>() / 2;
        membership + vv + direct
    }

    fn stored_node_count(&self) -> usize {
        self.n_alive + self.num_virtual()
    }

    fn heap_bytes(&self) -> usize {
        let lists = |ls: &Vec<Vec<u32>>| {
            ls.capacity() * std::mem::size_of::<Vec<u32>>()
                + ls.iter().map(|l| l.capacity() * 4).sum::<usize>()
        };
        lists(&self.memberships)
            + lists(&self.members)
            + lists(&self.vv)
            + lists(&self.direct)
            + self.alive.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 6c shape: W1 = {u1,u2,u3}, W2 = {a,b,c}, W3 = {d,e,f},
    /// with W1—W2 and W1—W3 virtual edges.
    /// ids: u1,u2,u3 = 0,1,2; a,b,c = 3,4,5; d,e,f = 6,7,8.
    fn fig6c() -> Dedup2Graph {
        let mut g = Dedup2Graph::new(9);
        let w1 = g.add_virtual(vec![0, 1, 2]);
        let w2 = g.add_virtual(vec![3, 4, 5]);
        let w3 = g.add_virtual(vec![6, 7, 8]);
        g.add_virtual_edge(w1, w2);
        g.add_virtual_edge(w1, w3);
        g
    }

    #[test]
    fn neighbors_follow_one_hop_virtual_edges() {
        let g = fig6c();
        // a (=3) is connected to b,c through W2 and u1,u2,u3 through W2—W1,
        // but NOT to d,e,f (W3 is not adjacent to W2).
        let mut n = g
            .neighbors(RealId(3))
            .iter()
            .map(|r| r.0)
            .collect::<Vec<_>>();
        n.sort_unstable();
        assert_eq!(n, vec![0, 1, 2, 4, 5]);
        // u1 (=0) reaches everyone: u2,u3 via W1; a,b,c via W1—W2; d,e,f via W1—W3.
        let mut n0 = g
            .neighbors(RealId(0))
            .iter()
            .map(|r| r.0)
            .collect::<Vec<_>>();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn invariants_hold_on_fig6c() {
        let g = fig6c();
        assert!(crate::validate::validate_dedup2(&g).is_ok());
    }

    #[test]
    fn exists_edge_matches_neighbors() {
        let g = fig6c();
        assert!(g.exists_edge(RealId(3), RealId(0)));
        assert!(!g.exists_edge(RealId(3), RealId(6)));
        assert!(g.exists_edge(RealId(0), RealId(6)));
    }

    #[test]
    fn stored_edge_count_matches_fig6() {
        // Fig. 6c reports 11 undirected edges for the full example
        // (9 membership + 2 virtual-virtual).
        let g = fig6c();
        assert_eq!(g.stored_edge_count(), 11);
    }

    #[test]
    fn add_and_delete_direct_edge() {
        let mut g = fig6c();
        g.add_edge(RealId(3), RealId(6));
        assert!(g.exists_edge(RealId(3), RealId(6)));
        assert!(g.exists_edge(RealId(6), RealId(3))); // undirected
        assert!(crate::validate::validate_dedup2(&g).is_ok());
        g.delete_edge(RealId(3), RealId(6));
        assert!(!g.exists_edge(RealId(3), RealId(6)));
    }

    #[test]
    fn delete_structural_edge_preserves_rest() {
        let mut g = fig6c();
        // delete a—u1 (witness: W2—W1); a must keep b,c,u2,u3.
        g.delete_edge(RealId(3), RealId(0));
        assert!(!g.exists_edge(RealId(3), RealId(0)));
        for other in [1u32, 2, 4, 5] {
            assert!(
                g.exists_edge(RealId(3), RealId(other)),
                "lost edge to {other}"
            );
        }
        // b and c keep their connections to u1.
        assert!(g.exists_edge(RealId(4), RealId(0)));
        assert!(crate::validate::validate_dedup2(&g).is_ok());
    }

    #[test]
    fn delete_vertex_constant_and_lazy() {
        let mut g = fig6c();
        g.delete_vertex(RealId(0));
        assert!(!g.neighbors(RealId(3)).contains(&RealId(0)));
        g.compact();
        assert_eq!(g.members(0), &[1, 2]);
    }

    #[test]
    fn add_edge_no_duplicate_witness() {
        let mut g = fig6c();
        // already connected via virtual structure: no direct edge added
        g.add_edge(RealId(0), RealId(1));
        assert_eq!(
            g.neighbors(RealId(0)).iter().filter(|r| r.0 == 1).count(),
            1
        );
        assert!(crate::validate::validate_dedup2(&g).is_ok());
    }
}
