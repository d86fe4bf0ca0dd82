//! BITMAP: deduplication via per-(source, virtual node) bitmaps (§4.3, §5.1).
//!
//! The condensed structure is kept exactly as extracted (no edges are
//! rewired), but a virtual node `V` may carry bitmaps indexed by real source
//! node id: when a traversal that started at `u` reaches `V` and a bitmap
//! for `u` exists, only the out-edges whose bit is set are followed. The
//! preprocessing algorithms (BITMAP-1, BITMAP-2 in `graphgen-dedup`) set the
//! bits so that every real target is reached exactly once per source.
//!
//! Mutations: `add_edge` adds a direct edge; `delete_edge` detaches the
//! source from offending virtual nodes (dropping its bitmaps there) and
//! compensates with direct edges, like C-DUP.

use crate::api::{GraphRep, RepKind};
use crate::cdup::CondensedGraph;
use crate::ids::{RealId, VirtId};
use graphgen_common::{Bitmap, ByteSize, FxHashMap};

/// A condensed graph plus traversal bitmaps.
#[derive(Debug, Clone)]
pub struct BitmapGraph {
    core: CondensedGraph,
    /// For each virtual node: source real id → bitmap over the positions of
    /// `virt_out[v]`. Absent bitmap = follow all out-edges.
    bitmaps: Vec<FxHashMap<u32, Bitmap>>,
}

impl BitmapGraph {
    /// Wrap a condensed graph with no bitmaps yet (every traversal behaves
    /// like C-DUP without dedup — callers must run a BITMAP preprocessing
    /// algorithm before using it).
    pub fn new_unmasked(core: CondensedGraph) -> Self {
        let n = core.num_virtual();
        Self {
            core,
            bitmaps: vec![FxHashMap::default(); n],
        }
    }

    /// The underlying condensed structure.
    pub fn core(&self) -> &CondensedGraph {
        &self.core
    }

    /// Mutable access for the preprocessing algorithms.
    pub fn core_mut(&mut self) -> &mut CondensedGraph {
        &mut self.core
    }

    /// Get (or create, all-ones) the bitmap of `v` for source `u`.
    pub fn bitmap_entry(&mut self, v: VirtId, u: RealId) -> &mut Bitmap {
        let out_len = self.core.virt_out(v).len();
        self.bitmaps[v.0 as usize]
            .entry(u.0)
            .or_insert_with(|| Bitmap::ones(out_len))
    }

    /// Insert a fully materialized bitmap.
    pub fn set_bitmap(&mut self, v: VirtId, u: RealId, bm: Bitmap) {
        debug_assert_eq!(bm.len(), self.core.virt_out(v).len());
        self.bitmaps[v.0 as usize].insert(u.0, bm);
    }

    /// The bitmap of `v` for source `u`, if one was installed.
    pub fn bitmap(&self, v: VirtId, u: RealId) -> Option<&Bitmap> {
        self.bitmaps[v.0 as usize].get(&u.0)
    }

    /// Remove the bitmap of `v` for source `u`.
    pub fn remove_bitmap(&mut self, v: VirtId, u: RealId) {
        self.bitmaps[v.0 as usize].remove(&u.0);
    }

    /// Total number of bitmaps installed.
    pub fn bitmap_count(&self) -> usize {
        self.bitmaps.iter().map(|m| m.len()).sum()
    }

    /// Number of virtual nodes.
    pub fn num_virtual(&self) -> usize {
        self.core.num_virtual()
    }

    fn traverse(&self, u: RealId, f: &mut dyn FnMut(RealId)) {
        let mut visited_virts: graphgen_common::FxHashSet<u32> = Default::default();
        let mut stack: Vec<u32> = Vec::new();
        for a in self.core.real_out(u) {
            if let Some(r) = a.as_real() {
                if r != u && self.core.is_alive(r) {
                    f(r);
                }
            } else if let Some(v) = a.as_virtual() {
                if visited_virts.insert(v.0) {
                    stack.push(v.0);
                }
            }
        }
        while let Some(x) = stack.pop() {
            let out = self.core.virt_out(VirtId(x));
            let mask = self.bitmaps[x as usize].get(&u.0);
            for (i, a) in out.iter().enumerate() {
                if let Some(bm) = mask {
                    if !bm.get(i) {
                        continue;
                    }
                }
                if let Some(r) = a.as_real() {
                    if r != u && self.core.is_alive(r) {
                        f(r);
                    }
                } else if let Some(v) = a.as_virtual() {
                    if visited_virts.insert(v.0) {
                        stack.push(v.0);
                    }
                }
            }
        }
    }
}

impl GraphRep for BitmapGraph {
    fn kind(&self) -> RepKind {
        RepKind::Bitmap
    }

    fn num_real_slots(&self) -> usize {
        self.core.num_real_slots()
    }

    fn is_alive(&self, u: RealId) -> bool {
        self.core.is_alive(u)
    }

    fn num_vertices(&self) -> usize {
        self.core.num_vertices()
    }

    fn for_each_neighbor(&self, u: RealId, f: &mut dyn FnMut(RealId)) {
        self.traverse(u, f);
    }

    fn exists_edge(&self, u: RealId, v: RealId) -> bool {
        // Bitmaps only mask duplicates; reachability is unchanged, so the
        // core's check (with its sorted-list binary searches) is correct.
        self.core.exists_edge(u, v)
    }

    fn add_vertex(&mut self) -> RealId {
        self.core.add_vertex()
    }

    fn delete_vertex(&mut self, u: RealId) {
        self.core.delete_vertex(u);
    }

    fn revive_vertex(&mut self, u: RealId) {
        self.core.revive_vertex(u);
    }

    fn compact(&mut self) {
        // Compaction removes dead real targets from virt_out lists, which
        // shifts bitmap positions: rebuild each affected bitmap.
        let n_virt = self.core.num_virtual();
        for v in 0..n_virt {
            let out = self.core.virt_out(VirtId(v as u32));
            let keep: Vec<bool> = out
                .iter()
                .map(|a| a.as_real().is_none_or(|r| self.core.is_alive(r)))
                .collect();
            if keep.iter().all(|&k| k) {
                continue;
            }
            let new_len = keep.iter().filter(|&&k| k).count();
            for bm in self.bitmaps[v].values_mut() {
                let mut nb = Bitmap::zeros(new_len);
                let mut j = 0;
                for (i, &k) in keep.iter().enumerate() {
                    if k {
                        if bm.get(i) {
                            nb.set(j);
                        }
                        j += 1;
                    }
                }
                *bm = nb;
            }
        }
        self.core.compact();
    }

    fn add_edge(&mut self, u: RealId, v: RealId) {
        self.core.add_edge(u, v);
    }

    fn delete_edge(&mut self, u: RealId, v: RealId) {
        // Identify virtual children of u that (per u's masked view!) reach v,
        // detach u and drop its bitmaps there, compensating with direct
        // edges to whatever else u could reach through them.
        let before: Vec<u32> = {
            let mut acc = Vec::new();
            self.traverse(u, &mut |r| acc.push(r.0));
            acc
        };
        if !before.contains(&v.0) {
            // Only a direct edge (or nothing) to remove.
            self.core.delete_edge(u, v);
            return;
        }
        // Collect u's virtual children and drop the ones reaching v.
        let children: Vec<VirtId> = self
            .core
            .real_out(u)
            .iter()
            .filter_map(|a| a.as_virtual())
            .collect();
        for w in children {
            let mut reach: graphgen_common::FxHashSet<u32> = Default::default();
            self.core.virtual_reach(w, &mut reach);
            if reach.contains(&v.0) {
                self.core.detach_real_from_virtual(u, w);
                self.remove_bitmap(w, u);
            }
        }
        // Remove a possible direct edge.
        if let Ok(pos) = self
            .core
            .real_out(u)
            .binary_search(&crate::ids::Adj::real(v))
        {
            // need mutable core surgery
            let _ = pos;
            self.core.delete_edge(u, v);
        }
        // Compensate: everything u could reach before, minus v, must stay.
        let mut after: graphgen_common::FxHashSet<u32> = Default::default();
        self.traverse(u, &mut |r| {
            after.insert(r.0);
        });
        let mut missing: Vec<u32> = before
            .into_iter()
            .filter(|&w| w != v.0 && !after.contains(&w))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        for w in missing {
            self.core.insert_direct(u, RealId(w));
        }
    }

    fn stored_edge_count(&self) -> u64 {
        self.core.stored_edge_count()
    }

    fn stored_node_count(&self) -> usize {
        self.core.stored_node_count()
    }

    fn heap_bytes(&self) -> usize {
        // `ByteSize` sizes each map as its table allocation: every bucket
        // plus its control byte and a trailing control group.
        self.core.heap_bytes() + ByteSize::heap_bytes(&self.bitmaps)
    }
    fn as_condensed(&self) -> Option<&CondensedGraph> {
        Some(&self.core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CondensedBuilder;

    /// Fig. 1 graph with hand-set bitmaps deduplicating a1↔a4 (shared pubs
    /// p1 and p2): each of a1,a4 masks the other out of p2's out-edges.
    fn fig1_bitmapped() -> BitmapGraph {
        let mut b = CondensedBuilder::new(5);
        let _p1 = b.clique(&[RealId(0), RealId(1), RealId(3)]);
        let p2 = b.clique(&[RealId(0), RealId(3)]);
        let _p3 = b.clique(&[RealId(2), RealId(3), RealId(4)]);
        let mut g = BitmapGraph::new_unmasked(b.build());
        // p2's out list is sorted: [r0, r3]
        let mut m0 = Bitmap::ones(2);
        m0.unset(1); // from a1, skip a4 at p2 (already reached via p1)
        m0.unset(0); // and never emit self
        g.set_bitmap(p2, RealId(0), m0);
        let mut m3 = Bitmap::ones(2);
        m3.unset(0); // from a4, skip a1 at p2
        m3.unset(1); // self
        g.set_bitmap(p2, RealId(3), m3);
        g
    }

    #[test]
    fn masked_iteration_has_no_duplicates() {
        let g = fig1_bitmapped();
        let mut seen = Vec::new();
        g.for_each_neighbor(RealId(0), &mut |r| seen.push(r.0));
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 3]);
        assert!(crate::validate::validate_no_duplicate_emission(&g).is_ok());
    }

    #[test]
    fn unmasked_graph_emits_duplicates() {
        let mut b = CondensedBuilder::new(2);
        b.clique(&[RealId(0), RealId(1)]);
        b.clique(&[RealId(0), RealId(1)]);
        let g = BitmapGraph::new_unmasked(b.build());
        let mut count = 0;
        g.for_each_neighbor(RealId(0), &mut |_| count += 1);
        assert_eq!(count, 2, "two unmasked paths -> duplicate emission");
        assert!(crate::validate::validate_no_duplicate_emission(&g).is_err());
    }

    #[test]
    fn exists_edge_unaffected_by_masks() {
        let g = fig1_bitmapped();
        assert!(g.exists_edge(RealId(0), RealId(3)));
        assert!(g.exists_edge(RealId(3), RealId(0)));
        assert!(!g.exists_edge(RealId(0), RealId(4)));
    }

    #[test]
    fn delete_edge_respects_other_sources() {
        let mut g = fig1_bitmapped();
        g.delete_edge(RealId(0), RealId(3));
        assert!(!g.exists_edge(RealId(0), RealId(3)));
        // a1 keeps a2; a4 keeps a1.
        assert!(g.exists_edge(RealId(0), RealId(1)));
        assert!(g.exists_edge(RealId(3), RealId(0)));
        assert!(crate::validate::validate_no_duplicate_emission(&g).is_ok());
    }

    #[test]
    fn delete_vertex_then_compact_rebuilds_bitmaps() {
        let mut g = fig1_bitmapped();
        g.delete_vertex(RealId(1));
        g.compact();
        let mut seen = Vec::new();
        g.for_each_neighbor(RealId(0), &mut |r| seen.push(r.0));
        seen.sort_unstable();
        assert_eq!(seen, vec![3]);
        assert!(crate::validate::validate_no_duplicate_emission(&g).is_ok());
    }

    #[test]
    fn bitmap_count_and_bytes() {
        let g = fig1_bitmapped();
        assert_eq!(g.bitmap_count(), 2);
        assert!(g.heap_bytes() > g.core().heap_bytes());
    }

    /// A virtual node's map of `k` bitmaps is its table's buckets — a power
    /// of two, at least `k` and an eighth more — each with a control byte,
    /// a trailing control group of 16, and the bitmaps' own words.
    #[test]
    fn bitmap_maps_count_their_buckets_and_control_bytes() {
        let members: Vec<RealId> = (0..40).map(RealId).collect();
        let mut b = CondensedBuilder::new(40);
        let v = b.clique(&members);
        let mut g = BitmapGraph::new_unmasked(b.build());
        let empty = g.heap_bytes();
        let slot = std::mem::size_of::<(u32, Bitmap)>();
        let words = Bitmap::ones(40).heap_bytes();
        for (k, buckets) in [(1, 4), (3, 4), (4, 8), (7, 8), (8, 16), (15, 32), (29, 64)] {
            for u in 0..k {
                g.set_bitmap(v, RealId(u), Bitmap::ones(40));
            }
            let map = &g.bitmaps[v.0 as usize];
            assert_eq!(map.len(), k as usize);
            let table = (map.capacity() * 8 / 7).next_power_of_two();
            assert_eq!(table, buckets, "{k} bitmaps");
            assert_eq!(
                g.heap_bytes(),
                empty + buckets * slot + buckets + 16 + k as usize * words,
                "{k} bitmaps"
            );
        }
    }
}
