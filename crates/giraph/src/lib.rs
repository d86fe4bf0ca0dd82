//! `graphgen-giraph` — the Apache Giraph port prototype (§6.4).
//!
//! Unlike `graphgen-algo`'s shared-memory GAS framework, this crate models
//! a *message-passing* BSP system: vertices only communicate by sending
//! messages delivered at the next superstep, and we count every message —
//! the quantity the paper's Table 4 experiments hinge on.
//!
//! The condensed representations make **virtual nodes first-class BSP
//! vertices that aggregate messages**: a PageRank iteration becomes two
//! supersteps (real→virtual, virtual→real) with one message per stored
//! edge, i.e. `2·#edges` messages per logical iteration, instead of one
//! message per *expanded* pair. Degree and PageRank need the deduplicated
//! structure (DEDUP-1's structural guarantee, or BITMAP's per-source
//! masks); Connected Components is duplicate-insensitive and also runs on
//! raw C-DUP.
//!
//! Every run returns [`RunStats`]: supersteps, total messages, the
//! representation's heap bytes plus peak message-buffer bytes, and wall
//! time.

use graphgen_common::FxHashMap;
use graphgen_graph::{
    BitmapGraph, CondensedGraph, Dedup1Graph, ExpandedGraph, GraphRep, RealId, VirtId,
};
use std::time::Instant;

/// The representations the Giraph port supports (Table 4's columns, plus
/// C-DUP for the duplicate-insensitive kernels).
#[derive(Clone, Copy)]
pub enum GiraphRep<'a> {
    /// Fully expanded.
    Exp(&'a ExpandedGraph),
    /// Structurally deduplicated condensed.
    Dedup1(&'a Dedup1Graph),
    /// Bitmap-masked condensed.
    Bitmap(&'a BitmapGraph),
    /// Raw condensed with duplicates (Connected Components only).
    CDup(&'a CondensedGraph),
}

impl<'a> GiraphRep<'a> {
    /// Label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            GiraphRep::Exp(_) => "EXP",
            GiraphRep::Dedup1(_) => "DEDUP1",
            GiraphRep::Bitmap(_) => "BMP",
            GiraphRep::CDup(_) => "C-DUP",
        }
    }

    fn graph(&self) -> &dyn GraphRep {
        match self {
            GiraphRep::Exp(g) => *g,
            GiraphRep::Dedup1(g) => *g,
            GiraphRep::Bitmap(g) => *g,
            GiraphRep::CDup(g) => *g,
        }
    }

    /// The condensed core, if condensed.
    fn core(&self) -> Option<&'a CondensedGraph> {
        match self {
            GiraphRep::Exp(_) => None,
            GiraphRep::Dedup1(g) => Some(g.core()),
            GiraphRep::Bitmap(g) => Some(g.core()),
            GiraphRep::CDup(g) => Some(g),
        }
    }

    /// Representation heap bytes (Table 4's memory column baseline).
    pub fn heap_bytes(&self) -> usize {
        self.graph().heap_bytes()
    }
}

/// Statistics of one Giraph-style run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// BSP supersteps executed.
    pub supersteps: usize,
    /// Total messages sent.
    pub messages: u64,
    /// Representation bytes + peak message-buffer bytes.
    pub memory_bytes: usize,
    /// Wall time.
    pub millis: u128,
}

/// Out-degree of every real node, computed Giraph-style. On EXP this is a
/// local operation (0 messages); condensed representations need one
/// request/response round through the virtual nodes (2 messages per stored
/// membership edge).
pub fn degree(rep: GiraphRep<'_>) -> (Vec<u32>, RunStats) {
    let start = Instant::now();
    let mut stats = RunStats::default();
    let g = rep.graph();
    let n = g.num_real_slots();
    let mut out = vec![0u32; n];
    match rep {
        GiraphRep::Exp(exp) => {
            stats.supersteps = 1;
            for u in exp.vertices() {
                out[u.0 as usize] = exp.degree(u) as u32;
            }
            stats.memory_bytes = rep.heap_bytes();
        }
        _ => {
            // Superstep 1: each real node asks its virtual neighbors;
            // superstep 2: each virtual node replies with the per-source
            // masked/deduplicated count. Duplicate neighbors across virtual
            // nodes are resolved per the representation's guarantee.
            stats.supersteps = 2;
            let core = rep.core().expect("condensed");
            for u in g.vertices() {
                let mut deg = 0u32;
                for a in core.real_out(u) {
                    if let Some(r) = a.as_real() {
                        if r != u && core.is_alive(r) {
                            deg += 1; // direct edge, no message
                        }
                    } else if let Some(v) = a.as_virtual() {
                        stats.messages += 1; // request
                        deg += virtual_degree_reply(&rep, v, u, &mut stats);
                        stats.messages += 1; // reply
                    }
                }
                out[u.0 as usize] = deg;
            }
            stats.memory_bytes = rep.heap_bytes() + n * std::mem::size_of::<u32>();
        }
    }
    stats.millis = start.elapsed().as_millis();
    (out, stats)
}

/// What a virtual node replies to a degree request from `u`. Single-layer
/// fast path; multi-layer recursion forwards through virtual children
/// (counting messages).
fn virtual_degree_reply(rep: &GiraphRep<'_>, v: VirtId, u: RealId, stats: &mut RunStats) -> u32 {
    // For correctness on DEDUP-1 (structurally unique) and BITMAP (mask),
    // count targets visible to source u. C-DUP would over-count — its
    // degree needs the hashset path, which Giraph can't do cheaply; the
    // paper runs Degree only on deduplicated reps.
    let core = match rep {
        GiraphRep::Dedup1(g) => g.core(),
        GiraphRep::Bitmap(g) => g.core(),
        GiraphRep::CDup(g) => g,
        GiraphRep::Exp(_) => unreachable!("virtual reply on EXP"),
    };
    let out_list = core.virt_out(v);
    let mask = match rep {
        GiraphRep::Bitmap(g) => g.bitmap(v, u),
        _ => None,
    };
    let mut count = 0u32;
    for (i, a) in out_list.iter().enumerate() {
        if let Some(bm) = mask {
            if !bm.get(i) {
                continue;
            }
        }
        if let Some(r) = a.as_real() {
            if r != u && core.is_alive(r) {
                count += 1;
            }
        } else if let Some(w) = a.as_virtual() {
            stats.messages += 2; // forward + reply
            count += virtual_degree_reply(rep, w, u, stats);
        }
    }
    count
}

/// PageRank with per-virtual-node message aggregation. `2·#stored-edges`
/// messages per logical iteration (matching §6.4), two supersteps per
/// iteration on condensed representations.
pub fn pagerank(rep: GiraphRep<'_>, iterations: usize, damping: f64) -> (Vec<f64>, RunStats) {
    let start = Instant::now();
    let mut stats = RunStats::default();
    let g = rep.graph();
    let n = g.num_real_slots();
    let n_live = g.num_vertices().max(1) as f64;
    let (degs, dstats) = degree(rep);
    stats.messages += dstats.messages; // degree precomputation (the §6.4 caveat)
    stats.supersteps += dstats.supersteps;

    let mut rank = vec![0.0f64; n];
    for u in g.vertices() {
        rank[u.0 as usize] = 1.0 / n_live;
    }
    let mut peak_buffer = 0usize;
    let n_dangling = g.vertices().filter(|&u| degs[u.0 as usize] == 0).count() as f64;
    let mut dangling_mass = n_dangling / n_live;

    for _ in 0..iterations {
        let mut incoming = vec![0.0f64; n];
        match rep {
            GiraphRep::Exp(exp) => {
                stats.supersteps += 1;
                for u in exp.vertices() {
                    let d = degs[u.0 as usize];
                    if d == 0 {
                        continue;
                    }
                    let c = rank[u.0 as usize] / d as f64;
                    exp.for_each_neighbor(u, &mut |v| {
                        stats.messages += 1;
                        incoming[v.0 as usize] += c;
                    });
                }
            }
            _ => {
                // Superstep A: contributions to virtual nodes (and direct
                // targets); Superstep B: aggregated distribution.
                stats.supersteps += 2;
                let core = rep.core().expect("condensed");
                // Mailboxes at virtual nodes: (source, contribution).
                let mut vmail: Vec<Vec<(u32, f64)>> = vec![Vec::new(); core.num_virtual()];
                for u in g.vertices() {
                    let d = degs[u.0 as usize];
                    if d == 0 {
                        continue;
                    }
                    let c = rank[u.0 as usize] / d as f64;
                    for a in core.real_out(u) {
                        if let Some(r) = a.as_real() {
                            if r != u && core.is_alive(r) {
                                stats.messages += 1;
                                incoming[r.0 as usize] += c;
                            }
                        } else if let Some(v) = a.as_virtual() {
                            stats.messages += 1;
                            vmail[v.0 as usize].push((u.0, c));
                        }
                    }
                }
                peak_buffer = peak_buffer.max(
                    vmail
                        .iter()
                        .map(|m| m.capacity() * std::mem::size_of::<(u32, f64)>())
                        .sum(),
                );
                // Process virtual nodes top-down (multi-layer: forward
                // aggregated mail to child virtual nodes first).
                let order = topo_virtual(core);
                for &vi in &order {
                    if vmail[vi as usize].is_empty() {
                        continue;
                    }
                    let mail = std::mem::take(&mut vmail[vi as usize]);
                    let total: f64 = mail.iter().map(|(_, c)| c).sum();
                    let by_source: Option<FxHashMap<u32, f64>> = match rep {
                        GiraphRep::Bitmap(_) => Some(mail.iter().copied().collect()),
                        _ => None,
                    };
                    let contributed: FxHashMap<u32, f64> = mail.iter().copied().collect();
                    let out_list = core.virt_out(VirtId(vi));
                    for (i, a) in out_list.iter().enumerate() {
                        if let Some(r) = a.as_real() {
                            if !core.is_alive(r) {
                                continue;
                            }
                            stats.messages += 1;
                            let value = match (&rep, &by_source) {
                                (GiraphRep::Bitmap(bg), Some(by_source)) => {
                                    // Masked per-source sum for this target.
                                    let mut s = 0.0;
                                    for (&src, &c) in by_source {
                                        if src == r.0 {
                                            continue;
                                        }
                                        let visible = bg
                                            .bitmap(VirtId(vi), RealId(src))
                                            .is_none_or(|bm| bm.get(i));
                                        if visible {
                                            s += c;
                                        }
                                    }
                                    s
                                }
                                // DEDUP-1 / C-DUP: aggregate minus own echo.
                                _ => total - contributed.get(&r.0).copied().unwrap_or(0.0),
                            };
                            incoming[r.0 as usize] += value;
                        } else if let Some(w) = a.as_virtual() {
                            // Forward the aggregate (per-source pairs, so
                            // deeper layers can still subtract echoes).
                            stats.messages += mail.len() as u64;
                            vmail[w.0 as usize].extend(mail.iter().copied());
                        }
                    }
                }
            }
        }
        let dangling_share = damping * dangling_mass / n_live;
        let mut next_dangling = 0.0;
        for u in g.vertices() {
            let r = (1.0 - damping) / n_live + damping * incoming[u.0 as usize] + dangling_share;
            rank[u.0 as usize] = r;
            if degs[u.0 as usize] == 0 {
                next_dangling += r;
            }
        }
        dangling_mass = next_dangling;
    }
    stats.memory_bytes = rep.heap_bytes() + peak_buffer + 2 * n * std::mem::size_of::<f64>();
    stats.millis = start.elapsed().as_millis();
    (rank, stats)
}

/// Topological order of virtual nodes (parents before children) so
/// forwarded mail is processed after it arrives.
fn topo_virtual(core: &CondensedGraph) -> Vec<u32> {
    let n = core.num_virtual();
    let mut indeg = vec![0u32; n];
    for v in 0..n {
        for a in core.virt_out(VirtId(v as u32)) {
            if let Some(w) = a.as_virtual() {
                indeg[w.0 as usize] += 1;
            }
        }
    }
    let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for a in core.virt_out(VirtId(v)) {
            if let Some(w) = a.as_virtual() {
                indeg[w.0 as usize] -= 1;
                if indeg[w.0 as usize] == 0 {
                    queue.push(w.0);
                }
            }
        }
    }
    order
}

/// Connected components by min-label flooding. Duplicate-insensitive: runs
/// on every representation including raw C-DUP (virtual nodes hold the min
/// of their members, which is exactly why the paper saw a speedup here).
pub fn connected_components(rep: GiraphRep<'_>) -> (Vec<u32>, RunStats) {
    let start = Instant::now();
    let mut stats = RunStats::default();
    let g = rep.graph();
    let n = g.num_real_slots();
    let mut label: Vec<u32> = (0..n as u32).collect();
    match rep {
        GiraphRep::Exp(exp) => loop {
            stats.supersteps += 1;
            let mut changed = false;
            let mut next = label.clone();
            for u in exp.vertices() {
                exp.for_each_neighbor(u, &mut |v| {
                    stats.messages += 1;
                    if label[u.0 as usize] < next[v.0 as usize] {
                        next[v.0 as usize] = label[u.0 as usize];
                        changed = true;
                    }
                });
            }
            label = next;
            if !changed {
                break;
            }
        },
        _ => {
            let core = rep.core().expect("condensed");
            let nv = core.num_virtual();
            let mut vlabel = vec![u32::MAX; nv];
            loop {
                stats.supersteps += 2;
                let mut changed = false;
                // real -> virtual (+ direct edges)
                let mut vnext = vlabel.clone();
                let mut next = label.clone();
                for u in g.vertices() {
                    let lu = label[u.0 as usize];
                    for a in core.real_out(u) {
                        stats.messages += 1;
                        if let Some(r) = a.as_real() {
                            if core.is_alive(r) && lu < next[r.0 as usize] {
                                next[r.0 as usize] = lu;
                                changed = true;
                            }
                        } else if let Some(v) = a.as_virtual() {
                            if lu < vnext[v.0 as usize] {
                                vnext[v.0 as usize] = lu;
                                changed = true;
                            }
                        }
                    }
                }
                // virtual -> real / virtual (topological flood)
                for &vi in &topo_virtual(core) {
                    let lv = vnext[vi as usize];
                    if lv == u32::MAX {
                        continue;
                    }
                    for a in core.virt_out(VirtId(vi)) {
                        stats.messages += 1;
                        if let Some(r) = a.as_real() {
                            if core.is_alive(r) && lv < next[r.0 as usize] {
                                next[r.0 as usize] = lv;
                                changed = true;
                            }
                        } else if let Some(w) = a.as_virtual() {
                            if lv < vnext[w.0 as usize] {
                                vnext[w.0 as usize] = lv;
                                changed = true;
                            }
                        }
                    }
                }
                label = next;
                vlabel = vnext;
                if !changed {
                    break;
                }
            }
            stats.memory_bytes = nv * std::mem::size_of::<u32>();
        }
    }
    stats.memory_bytes += rep.heap_bytes() + n * std::mem::size_of::<u32>();
    stats.millis = start.elapsed().as_millis();
    (label, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen_common::VertexOrdering;
    use graphgen_dedup::{bitmap2, greedy_virtual_nodes_first};
    use graphgen_graph::CondensedBuilder;

    fn sample_cdup() -> CondensedGraph {
        let mut b = CondensedBuilder::new(8);
        let ids: Vec<RealId> = (0..8).map(RealId).collect();
        b.clique(&ids[0..4]);
        b.clique(&ids[2..6]);
        b.clique(&[ids[6], ids[7]]);
        b.build()
    }

    #[test]
    fn degree_agrees_across_representations() {
        let cdup = sample_cdup();
        let exp = ExpandedGraph::from_rep(&cdup);
        let d1 = greedy_virtual_nodes_first(&cdup, VertexOrdering::Random, 0);
        let (bmp, _) = bitmap2(cdup.clone());
        let (de, se) = degree(GiraphRep::Exp(&exp));
        let (dd, sd) = degree(GiraphRep::Dedup1(&d1));
        let (db, sb) = degree(GiraphRep::Bitmap(&bmp));
        assert_eq!(de, dd);
        assert_eq!(de, db);
        assert_eq!(se.messages, 0);
        assert!(sd.messages > 0);
        assert!(sb.messages > 0);
    }

    #[test]
    fn pagerank_agrees_with_shared_memory_engine() {
        let cdup = sample_cdup();
        let exp = ExpandedGraph::from_rep(&cdup);
        let d1 = greedy_virtual_nodes_first(&cdup, VertexOrdering::Random, 0);
        let (bmp, _) = bitmap2(cdup.clone());
        let reference = graphgen_algo::pagerank(
            &exp,
            graphgen_algo::PageRankConfig {
                damping: 0.85,
                iterations: 15,
                threads: 2,
            },
        );
        for (ranks, label) in [
            (pagerank(GiraphRep::Exp(&exp), 15, 0.85).0, "exp"),
            (pagerank(GiraphRep::Dedup1(&d1), 15, 0.85).0, "dedup1"),
            (pagerank(GiraphRep::Bitmap(&bmp), 15, 0.85).0, "bitmap"),
        ] {
            for (i, (a, b)) in ranks.iter().zip(&reference).enumerate() {
                assert!((a - b).abs() < 1e-9, "{label} vertex {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn condensed_pagerank_messages_track_stored_edges() {
        let cdup = sample_cdup();
        let d1 = greedy_virtual_nodes_first(&cdup, VertexOrdering::Random, 0);
        let stored = d1.stored_edge_count();
        let (_, stats) = pagerank(GiraphRep::Dedup1(&d1), 1, 0.85);
        // One iteration ≈ 2 * stored edges (plus the degree round).
        assert!(
            stats.messages <= 3 * stored + 10,
            "messages {} vs stored {}",
            stats.messages,
            stored
        );
    }

    #[test]
    fn exp_pagerank_messages_track_expanded_edges() {
        let cdup = sample_cdup();
        let exp = ExpandedGraph::from_rep(&cdup);
        let (_, stats) = pagerank(GiraphRep::Exp(&exp), 1, 0.85);
        assert_eq!(stats.messages, exp.expanded_edge_count());
    }

    #[test]
    fn concomp_runs_on_raw_cdup() {
        let cdup = sample_cdup();
        let exp = ExpandedGraph::from_rep(&cdup);
        let (le, _) = connected_components(GiraphRep::Exp(&exp));
        let (lc, _) = connected_components(GiraphRep::CDup(&cdup));
        assert_eq!(le, lc);
        assert_eq!(lc[0], 0);
        assert_eq!(lc[5], 0);
        assert_eq!(lc[6], 6);
        assert_eq!(lc[7], 6);
    }
}
