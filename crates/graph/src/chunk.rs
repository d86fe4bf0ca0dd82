//! Chunked, structurally shared adjacency storage.
//!
//! The serving layer publishes an immutable snapshot of every graph
//! version; with plain `Vec<Vec<Adj>>` adjacency, producing a version means
//! deep-cloning every list — publish cost tracks *graph* size, not *delta*
//! size. [`ChunkedAdj`] fixes that representation-side cost: adjacency
//! lists are grouped into fixed-size [`AdjChunk`] blocks of
//! [`CHUNK_LEN`] lists each, and the blocks are held behind [`Arc`]s.
//!
//! * **Clone** is `O(#chunks)` pointer bumps — all list payloads are
//!   shared between the clone and the original.
//! * **Mutation** goes through the sorted-edit surface
//!   ([`ChunkedAdj::insert_sorted`] / [`ChunkedAdj::remove_sorted`] / …),
//!   which [`Arc::make_mut`]s the covering chunk: the first write after a
//!   clone copies that one chunk and leaves every other chunk shared. A
//!   sorted edit searches the shared list first, so one that changes
//!   nothing copies nothing. A delta that lands in `k` chunks therefore
//!   costs `O(k × chunk bytes)` copies, never `O(graph)`.
//! * Readers holding an older clone are **immune** to later writes: their
//!   `Arc`s keep pointing at the pre-write chunks (the copy-on-write
//!   discipline the sharing-oracle suite in `graphgen-serve` asserts
//!   byte-for-byte).
//!
//! A chunk stores its lists **flat** — one concatenated [`Adj`] buffer plus
//! per-slot end offsets — so the copy-on-first-write is two allocations and
//! a straight `memcpy` (not a pointer chase through per-list allocations),
//! and iteration over a chunk's lists is sequential in memory.
//!
//! A chunk's buffer never doubles: a built or copied chunk is
//! exact-sized, and a full buffer grows by an eighth of its length. A
//! served graph is copied chunk by chunk on every publish that writes to
//! it, so a doubling buffer would leave most chunks half empty; an eighth
//! keeps the store within about an eighth of its exact size, for one
//! reallocation per `len / 8` inserts, each of which already moves
//! `O(len)` entries.

use crate::ids::Adj;
use graphgen_common::bytesize::grow_by_eighth;
use std::sync::Arc;

/// Adjacency lists per [`AdjChunk`]. 16 lists keeps the copy-on-first-write
/// unit small (a delta touching k nodes copies ≤ 16k lists) while a
/// 160k-node graph still needs only ~10k pointer bumps per clone — tens of
/// microseconds against the multi-millisecond deep clone this replaces.
pub const CHUNK_LEN: usize = 16;
const CHUNK_SHIFT: u32 = CHUNK_LEN.trailing_zeros();
const CHUNK_MASK: usize = CHUNK_LEN - 1;

/// One fixed-size block of adjacency lists (at most [`CHUNK_LEN`]; only the
/// trailing chunk of a [`ChunkedAdj`] may hold fewer). List `i` occupies
/// `data[ends[i-1]..ends[i]]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdjChunk {
    data: Vec<Adj>,
    ends: Vec<u32>,
}

impl AdjChunk {
    /// Number of lists stored.
    pub fn n_lists(&self) -> usize {
        self.ends.len()
    }

    #[inline]
    fn start(&self, slot: usize) -> usize {
        if slot == 0 {
            0
        } else {
            self.ends[slot - 1] as usize
        }
    }

    /// The list in `slot`.
    #[inline]
    pub fn list(&self, slot: usize) -> &[Adj] {
        &self.data[self.start(slot)..self.ends[slot] as usize]
    }

    /// Iterate the chunk's lists in slot order.
    pub fn lists(&self) -> impl Iterator<Item = &[Adj]> {
        (0..self.ends.len()).map(|s| self.list(s))
    }

    /// A chunk holding `lists` (at most [`CHUNK_LEN`]), sized exactly.
    pub(crate) fn from_lists<L: ExactSizeIterator<Item = Adj>>(lists: Vec<L>) -> Self {
        let mut chunk = AdjChunk {
            data: Vec::with_capacity(lists.iter().map(ExactSizeIterator::len).sum()),
            ends: Vec::with_capacity(lists.len()),
        };
        for list in lists {
            chunk.data.extend(list);
            chunk.ends.push(chunk.data.len() as u32);
        }
        chunk
    }

    /// Append a list as the next slot.
    pub(crate) fn push_list(&mut self, list: &[Adj]) {
        debug_assert!(self.ends.len() < CHUNK_LEN);
        grow_by_eighth(&mut self.data, list.len());
        self.data.extend_from_slice(list);
        self.ends.push(self.data.len() as u32);
    }

    /// Insert `a` at position `pos` of the list in `slot`.
    fn insert_at(&mut self, slot: usize, pos: usize, a: Adj) {
        grow_by_eighth(&mut self.data, 1);
        self.data.insert(self.start(slot) + pos, a);
        for end in &mut self.ends[slot..] {
            *end += 1;
        }
    }

    /// Remove the entry at position `pos` of the list in `slot`.
    fn remove_at(&mut self, slot: usize, pos: usize) {
        self.data.remove(self.start(slot) + pos);
        for end in &mut self.ends[slot..] {
            *end -= 1;
        }
    }

    /// Empty the list in `slot`.
    fn clear_list(&mut self, slot: usize) {
        let s = self.start(slot);
        let e = self.ends[slot] as usize;
        self.data.drain(s..e);
        let removed = (e - s) as u32;
        for end in &mut self.ends[slot..] {
            *end -= removed;
        }
    }

    /// Keep only entries `f(slot, adj)` approves, compacting in place and
    /// then releasing the freed capacity.
    fn retain(&mut self, base_slot: usize, mut f: impl FnMut(usize, Adj) -> bool) {
        let mut write = 0usize;
        let mut read = 0usize;
        for slot in 0..self.ends.len() {
            let end = self.ends[slot] as usize;
            while read < end {
                let a = self.data[read];
                if f(base_slot + slot, a) {
                    self.data[write] = a;
                    write += 1;
                }
                read += 1;
            }
            self.ends[slot] = write as u32;
        }
        self.data.truncate(write);
        self.data.shrink_to_fit();
    }

    fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<Adj>()
            + self.ends.capacity() * std::mem::size_of::<u32>()
    }
}

/// A growable sequence of adjacency lists stored as `Arc`-shared chunks.
/// See the module docs for the sharing/copy-on-write contract.
#[derive(Debug, Clone, Default)]
pub struct ChunkedAdj {
    chunks: Vec<Arc<AdjChunk>>,
    len: usize,
}

impl ChunkedAdj {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take ownership of flat lists, grouping them into chunks. Every chunk
    /// is sized exactly, so [`ChunkedAdj::heap_bytes`] of the result is a
    /// function of the list lengths, not of the order they were pushed in.
    pub fn from_lists(lists: Vec<Vec<Adj>>) -> Self {
        Self::collect_lists(lists.into_iter().map(Vec::into_iter))
    }

    /// [`ChunkedAdj::from_lists`] over lists handed out in slot order: each
    /// chunk is sized exactly, and a list is dropped as soon as its chunk
    /// holds it, so building from owned lists never holds them twice.
    pub(crate) fn collect_lists<L>(mut lists: impl ExactSizeIterator<Item = L>) -> Self
    where
        L: ExactSizeIterator<Item = Adj>,
    {
        let len = lists.len();
        let chunks = (0..len.div_ceil(CHUNK_LEN))
            .map(|_| {
                let group = lists.by_ref().take(CHUNK_LEN).collect();
                Arc::new(AdjChunk::from_lists(group))
            })
            .collect();
        Self { chunks, len }
    }

    /// Assemble from chunks built elsewhere (the EXP builder's). The
    /// caller guarantees the shape invariant: every chunk but the last
    /// holds exactly [`CHUNK_LEN`] lists, and the lengths sum to `len`.
    pub(crate) fn from_chunks(chunks: Vec<Arc<AdjChunk>>, len: usize) -> Self {
        debug_assert_eq!(
            chunks.iter().map(|c| c.n_lists()).sum::<usize>(),
            len,
            "chunk shape does not cover len"
        );
        Self { chunks, len }
    }

    /// Number of lists.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no lists are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing chunks (structural-sharing diagnostics and tests).
    pub fn chunks(&self) -> &[Arc<AdjChunk>] {
        &self.chunks
    }

    /// Read the list at `index`.
    #[inline]
    pub fn list(&self, index: usize) -> &[Adj] {
        self.chunks[index >> CHUNK_SHIFT].list(index & CHUNK_MASK)
    }

    /// Insert `a` into the sorted list at `index` (no-op if present),
    /// copying the covering chunk first if it is shared. Returns whether
    /// the entry was inserted; a no-op copies nothing.
    #[inline]
    pub fn insert_sorted(&mut self, index: usize, a: Adj) -> bool {
        let (chunk, slot) = (index >> CHUNK_SHIFT, index & CHUNK_MASK);
        match self.chunks[chunk].list(slot).binary_search(&a) {
            Ok(_) => false,
            Err(pos) => {
                Arc::make_mut(&mut self.chunks[chunk]).insert_at(slot, pos, a);
                true
            }
        }
    }

    /// Remove `a` from the sorted list at `index` (no-op if absent),
    /// copying the covering chunk first if it is shared. Returns whether
    /// the entry was removed; a no-op copies nothing.
    #[inline]
    pub fn remove_sorted(&mut self, index: usize, a: Adj) -> bool {
        let (chunk, slot) = (index >> CHUNK_SHIFT, index & CHUNK_MASK);
        match self.chunks[chunk].list(slot).binary_search(&a) {
            Ok(pos) => {
                Arc::make_mut(&mut self.chunks[chunk]).remove_at(slot, pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Empty the list at `index` (copy-on-write like the edits above).
    pub fn clear(&mut self, index: usize) {
        Arc::make_mut(&mut self.chunks[index >> CHUNK_SHIFT]).clear_list(index & CHUNK_MASK);
    }

    /// Append a fresh list, growing the trailing chunk (or opening a new
    /// one when it is full).
    pub fn push(&mut self, list: &[Adj]) {
        if self.len & CHUNK_MASK == 0 {
            self.chunks.push(Arc::new(AdjChunk::default()));
        }
        Arc::make_mut(self.chunks.last_mut().expect("chunk pushed above")).push_list(list);
        self.len += 1;
    }

    /// Append an empty list to this store and to `mirror`, which holds as
    /// many lists. Where the two trailing chunks are one shared chunk, or
    /// both stores end on a chunk boundary, the new trailing chunk is shared
    /// as well: two stores sharing every chunk still do.
    pub(crate) fn push_empty_mirrored(&mut self, mirror: &mut ChunkedAdj) {
        debug_assert_eq!(self.len, mirror.len, "mirror holds as many lists");
        let boundary = self.len & CHUNK_MASK == 0;
        let shared = matches!(
            (self.chunks.last(), mirror.chunks.last()),
            (Some(a), Some(b)) if Arc::ptr_eq(a, b)
        );
        if !boundary && !shared {
            self.push(&[]);
            mirror.push(&[]);
            return;
        }
        if !boundary {
            // Let go of the mirror's reference so the push below writes the
            // trailing chunk in place instead of copying it.
            mirror.chunks.pop();
        }
        self.push(&[]);
        mirror
            .chunks
            .push(Arc::clone(&self.chunks[self.chunks.len() - 1]));
        mirror.len += 1;
    }

    /// Iterate all lists in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &[Adj]> {
        self.chunks.iter().flat_map(|c| c.lists())
    }

    /// Keep only entries `f(slot, adj)` approves, leaving every chunk at its
    /// exact size. Unshares **every** chunk — meant for whole-graph
    /// rewrites (`compact`), not the delta path.
    pub fn retain(&mut self, mut f: impl FnMut(usize, Adj) -> bool) {
        for (ci, chunk) in self.chunks.iter_mut().enumerate() {
            Arc::make_mut(chunk).retain(ci << CHUNK_SHIFT, &mut f);
        }
    }

    /// Number of chunks currently shared with `other` (both stores point at
    /// the same `Arc`). Test/diagnostic surface for the CoW contract.
    pub fn shared_chunks_with(&self, other: &ChunkedAdj) -> usize {
        self.chunks
            .iter()
            .zip(other.chunks.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Heap bytes reachable from this store: every chunk's list payload and
    /// `ends`, and the vector of chunk pointers. Shared chunks are counted in
    /// full (each clone reports the whole structure, as `heap_bytes` always
    /// has). The `Arc` box each chunk lives in (its two counts and the two
    /// vector headers, 64 bytes) is not counted.
    pub fn heap_bytes(&self) -> usize {
        self.chunks.capacity() * std::mem::size_of::<Arc<AdjChunk>>()
            + self.chunks.iter().map(|c| c.heap_bytes()).sum::<usize>()
    }

    /// [`ChunkedAdj::heap_bytes`] less the chunks this store shares with
    /// `other` index by index: what this store adds to `other`'s bytes when
    /// both are kept.
    pub(crate) fn heap_bytes_beside(&self, other: &ChunkedAdj) -> usize {
        let shared: usize = self
            .chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .map(|(a, _)| a.heap_bytes())
            .sum();
        self.heap_bytes() - shared
    }
}

impl PartialEq for ChunkedAdj {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}
impl Eq for ChunkedAdj {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RealId;

    fn adj(i: u32) -> Adj {
        Adj::real(RealId(i))
    }

    #[test]
    fn push_and_index_across_chunk_boundaries() {
        let mut c = ChunkedAdj::new();
        for i in 0..(CHUNK_LEN as u32 * 2 + 5) {
            c.push(&[adj(i)]);
        }
        assert_eq!(c.len(), CHUNK_LEN * 2 + 5);
        assert_eq!(c.chunks().len(), 3);
        for i in 0..c.len() {
            assert_eq!(c.list(i), &[adj(i as u32)]);
        }
        assert_eq!(c.iter().count(), c.len());
    }

    #[test]
    fn sorted_edits_keep_lists_sorted_and_report_change() {
        let mut c = ChunkedAdj::from_lists(vec![Vec::new(); CHUNK_LEN + 3]);
        let i = CHUNK_LEN + 1;
        assert!(c.insert_sorted(i, adj(5)));
        assert!(c.insert_sorted(i, adj(1)));
        assert!(c.insert_sorted(i, adj(9)));
        assert!(!c.insert_sorted(i, adj(5)), "duplicate insert must no-op");
        assert_eq!(c.list(i), &[adj(1), adj(5), adj(9)]);
        // Neighbor slots in the same chunk are unaffected.
        assert!(c.list(i - 1).is_empty());
        assert!(c.list(i + 1).is_empty());
        assert!(c.remove_sorted(i, adj(5)));
        assert!(!c.remove_sorted(i, adj(5)), "absent remove must no-op");
        assert_eq!(c.list(i), &[adj(1), adj(9)]);
        c.clear(i);
        assert!(c.list(i).is_empty());
    }

    #[test]
    fn clone_shares_every_chunk_and_writes_unshare_one() {
        let lists: Vec<Vec<Adj>> = (0..CHUNK_LEN as u32 * 3).map(|i| vec![adj(i)]).collect();
        let mut a = ChunkedAdj::from_lists(lists);
        let b = a.clone();
        assert_eq!(a.shared_chunks_with(&b), 3);
        a.insert_sorted(CHUNK_LEN + 1, adj(999));
        // Only the middle chunk was copied.
        assert_eq!(a.shared_chunks_with(&b), 2);
        // The clone is immune to the write.
        assert_eq!(b.list(CHUNK_LEN + 1), &[adj(CHUNK_LEN as u32 + 1)]);
        assert_eq!(
            a.list(CHUNK_LEN + 1),
            &[adj(CHUNK_LEN as u32 + 1), adj(999)]
        );
        // Untouched slots of the copied chunk carried over.
        assert_eq!(a.list(CHUNK_LEN + 2), b.list(CHUNK_LEN + 2));
    }

    /// Writes after a clone copy the chunk at its exact size and then grow
    /// it by an eighth at a time: however many entries arrive, at most an
    /// eighth of the buffer (plus one entry) is ever spare.
    #[test]
    fn writes_after_a_clone_leave_at_most_an_eighth_spare() {
        let lists: Vec<Vec<Adj>> = (0..CHUNK_LEN as u32)
            .map(|i| (0..40).map(|j| adj(i * 1000 + j * 2)).collect())
            .collect();
        let mut a = ChunkedAdj::from_lists(lists);
        for round in 0..50u32 {
            let published = a.clone();
            for slot in 0..CHUNK_LEN {
                let fresh = adj(slot as u32 * 1000 + 2 * round + 1);
                assert!(a.insert_sorted(slot, fresh));
            }
            a.push(&[adj(round)]);
            for chunk in a.chunks() {
                let (len, cap) = (chunk.data.len(), chunk.data.capacity());
                assert!(cap <= len + len / 8 + 1, "round {round}: {cap} for {len}");
            }
            drop(published);
        }
        assert_eq!(a.list(3).len(), 40 + 50);
    }

    #[test]
    fn no_op_edits_on_a_clone_copy_no_chunk() {
        let lists: Vec<Vec<Adj>> = (0..CHUNK_LEN as u32 * 4).map(|i| vec![adj(i)]).collect();
        let mut a = ChunkedAdj::from_lists(lists);
        let b = a.clone();
        for i in [0, CHUNK_LEN + 3, CHUNK_LEN * 4 - 1] {
            assert!(!a.insert_sorted(i, adj(i as u32)), "present entry");
            assert!(!a.remove_sorted(i, adj(i as u32 + 1)), "absent entry");
        }
        assert!(a
            .chunks()
            .iter()
            .zip(b.chunks())
            .all(|(x, y)| Arc::ptr_eq(x, y)));
    }

    #[test]
    fn push_after_clone_does_not_disturb_the_clone() {
        let mut a = ChunkedAdj::from_lists(vec![vec![adj(1)]; 10]);
        let b = a.clone();
        a.push(&[adj(7)]);
        assert_eq!(a.len(), 11);
        assert_eq!(b.len(), 10);
        assert_eq!(b.iter().count(), 10);
        assert_eq!(a.list(10), &[adj(7)]);
    }

    #[test]
    fn from_lists_equals_pushed() {
        let lists: Vec<Vec<Adj>> = (0..150u32).map(|i| vec![adj(i), adj(i + 1)]).collect();
        let a = ChunkedAdj::from_lists(lists.clone());
        let mut b = ChunkedAdj::new();
        for l in &lists {
            b.push(l);
        }
        assert_eq!(a, b);
    }

    fn assert_sized_exactly(store: &ChunkedAdj) {
        for chunk in store.chunks() {
            assert_eq!(chunk.data.capacity(), chunk.data.len());
            assert_eq!(chunk.ends.capacity(), chunk.ends.len());
        }
    }

    #[test]
    fn from_lists_sizes_every_chunk_exactly() {
        // Lengths that make a doubling `Vec` end with slack whichever order
        // they arrive in, and a short trailing chunk.
        let lists: Vec<Vec<Adj>> = (0..(CHUNK_LEN as u32 * 3 + 5))
            .map(|i| (0..(i * 7) % 23).map(adj).collect())
            .collect();
        assert_sized_exactly(&ChunkedAdj::from_lists(lists));
        assert_sized_exactly(&ChunkedAdj::from_lists(Vec::new()));

        let mut b = crate::builder::CondensedBuilder::new(40);
        for v in 0..9u32 {
            let members: Vec<RealId> = (0..40).filter(|i| i % (v + 2) == 0).map(RealId).collect();
            b.clique(&members);
        }
        let g = b.build();
        assert_sized_exactly(g.real_out_chunks());
        assert_sized_exactly(g.virt_out_chunks());
    }

    #[test]
    fn heap_bytes_ignore_the_numbering_of_virtual_nodes() {
        use crate::api::GraphRep;
        use crate::builder::CondensedBuilder;
        // The same member sets under two numberings of the virtual nodes:
        // the member lists of one chunk arrive in a different order.
        let sets: Vec<Vec<RealId>> = (0..(CHUNK_LEN as u32 * 2 + 3))
            .map(|v| {
                (0..60)
                    .filter(|i| (i + v) % (v % 7 + 2) == 0)
                    .map(RealId)
                    .collect()
            })
            .collect();
        let build = |order: &mut dyn Iterator<Item = &Vec<RealId>>| {
            let mut b = CondensedBuilder::new(60);
            for set in order {
                b.clique(set);
            }
            b.build()
        };
        let forward = build(&mut sets.iter());
        let backward = build(&mut sets.iter().rev());
        assert_eq!(
            crate::expand_to_edge_list(&forward),
            crate::expand_to_edge_list(&backward)
        );
        assert_eq!(forward.heap_bytes(), backward.heap_bytes());
    }

    #[test]
    fn retain_filters_by_slot_and_unshares() {
        let lists: Vec<Vec<Adj>> = (0..(CHUNK_LEN as u32 * 2))
            .map(|i| vec![adj(1), adj(i + 10)])
            .collect();
        let mut a = ChunkedAdj::from_lists(lists);
        let b = a.clone();
        // Drop adj(1) everywhere and empty even slots entirely.
        a.retain(|slot, x| slot % 2 == 1 && x != adj(1));
        assert_eq!(a.shared_chunks_with(&b), 0);
        assert_sized_exactly(&a);
        for i in 0..a.len() {
            if i % 2 == 1 {
                assert_eq!(a.list(i), &[adj(i as u32 + 10)]);
            } else {
                assert!(a.list(i).is_empty());
            }
            // The clone is untouched.
            assert_eq!(b.list(i), &[adj(1), adj(i as u32 + 10)]);
        }
    }
}
