//! Counted runs: the one keyed structure of the incremental maintenance
//! state.
//!
//! A [`CountedRuns`] is a bag of id pairs `(l, r) → count` kept as sorted
//! runs, one per left id, plus a small overlay of the net changes made
//! since the last merge.
//!
//! * **Base:** one 8-byte entry per pair — the right id in the high half,
//!   the count in the low half (`entry`) — so a run's entries ascend by
//!   right id. The left id is not stored: `u32` offsets (`starts`) give
//!   each left id its slice. A pair costs 8 B, half the `(u64 key, i64
//!   count)` of the [`CountedPairs`] the relational operators emit.
//! * **Overlay:** per left id, a short list of `(r: u32, change: i32)`
//!   sorted by `r`, 8 B an entry.
//! * **Limits:** counts are `1..=u32::MAX` and a bag holds at most
//!   [`MAX_PAIRS`] pairs. Going past either is [`PatchError::Overflow`],
//!   never a wrap. A change too large for an `i32` folds the overlay into
//!   the base first and then sets the pair's base count.
//! * **Conversion:** [`CountedRuns::new`] converts operator output from the
//!   back, [`CHUNK`] pairs at a time, releasing each converted chunk of its
//!   input, so the 16-byte and the 8-byte form are never both held whole.
//!   A snapshot decoder, and the bulk loader's last join step as the join
//!   hands its runs over, write the compact form directly
//!   ([`RunsBuilder`]).
//!
//! A point probe is a binary search in the id's slice and in its list; a
//! left id's entries are the two merged; the reverse order is a counting
//! scatter of the ascending entries ([`CountedRuns::transpose_of`]), never
//! a hash rebuild or a comparison sort.
//!
//! A bag of a symmetric relation — the support of a segment that mirrors
//! itself, such as the co-author self-join — is kept once: its owner stores
//! only the pairs with `l ≤ r` and normalises every probe; the bag itself
//! does not know. [`CountedRuns::keys`] is told, and walks the whole
//! relation in key order.
//!
//! The overlay folds into the base once it outgrows a fixed fraction of it
//! (the same amortization as `Table::maybe_compact`): the fold moves the
//! base's entries up in place to make room, in `O(base + slots)`, charged
//! against the `base / MERGE_FRACTION` changes since the last one.

use crate::error::PatchError;
use graphgen_common::{ByteSize, FxHashMap};
use graphgen_reldb::exec::{pack, unpack, CountedPairs};
use graphgen_reldb::{Interner, Value, Vid};
use std::iter::Peekable;

/// The overlay merges into the base when it holds more entries than
/// `(base + offset slots) / MERGE_FRACTION`: an overlay entry costs about
/// twice a base entry, so at its largest the overlay holds about a quarter
/// of the base's bytes...
const MERGE_FRACTION: usize = 8;
/// ...and more than this many, so small bags do not merge on every add.
const MERGE_MIN: usize = 64;
/// The largest count a pair may have.
const COUNT_MAX: i64 = u32::MAX as i64;
/// The most pairs one bag holds: its offsets are `u32`.
pub(crate) const MAX_PAIRS: usize = u32::MAX as usize;
/// How many operator pairs [`CountedRuns::new`] converts before it
/// releases them: the conversion holds at most this many pairs twice.
const CHUNK: usize = 1 << 12;

/// A base entry: right id `r` in the high half, `count` in the low half.
#[inline]
fn entry(r: Vid, count: u32) -> u64 {
    (u64::from(r) << 32) | u64::from(count)
}

/// The right id of a base entry.
#[inline]
fn right(e: u64) -> Vid {
    (e >> 32) as Vid
}

/// The count of a base entry.
#[inline]
fn count(e: u64) -> i64 {
    i64::from(e as u32)
}

/// A counted bag of `(l, r)` id pairs: sorted runs plus an overlay. Every
/// count it reports is in `1..=u32::MAX`; a pair whose count returns to
/// zero is gone.
#[derive(Debug, Clone, Default)]
pub(crate) struct CountedRuns {
    /// The bag as of the last merge: one [`entry`] per pair, counts ≥ 1.
    base: Vec<u64>,
    /// `base[starts[l]..starts[l + 1]]` are left id `l`'s entries,
    /// ascending by right id, for every `l + 1 < starts.len()` (larger ids
    /// have none in `base`).
    starts: Vec<u32>,
    /// Net change since the last merge, per left id: `(r, change)`
    /// ascending by `r`, no change zero, no list empty.
    overlay: FxHashMap<Vid, Vec<(Vid, i32)>>,
    /// Entries across the overlay's lists.
    overlay_len: usize,
    /// Pairs with a positive count.
    len: usize,
}

impl CountedRuns {
    /// Keep an operator's output: `pairs` must be a valid [`CountedPairs`]
    /// (strictly ascending keys, counts ≥ 1). It is converted from the
    /// back, [`CHUNK`] pairs at a time, and each converted chunk is
    /// released, so at no point are both forms held whole. A count past
    /// `u32::MAX`, or more than [`MAX_PAIRS`] pairs, is
    /// [`PatchError::Overflow`].
    pub(crate) fn new(mut pairs: CountedPairs) -> Result<Self, PatchError> {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(pairs.iter().all(|&(_, m)| m >= 1));
        check_limits(&pairs)?;
        let len = pairs.len();
        // `starts[l + 1]` counts left id `l` until the prefix sum below.
        let slots = pairs
            .last()
            .map_or(0, |&(key, _)| unpack(key).0 as usize + 1);
        let mut starts = vec![0u32; slots + 1];
        pairs.shrink_to_fit();
        let mut chunks: Vec<Vec<u64>> = Vec::with_capacity(len.div_ceil(CHUNK));
        while !pairs.is_empty() {
            let from = pairs.len().saturating_sub(CHUNK);
            let chunk = pairs[from..].iter().map(|&(key, m)| {
                let (l, r) = unpack(key);
                starts[l as usize + 1] += 1;
                entry(r, m as u32)
            });
            chunks.push(chunk.collect());
            pairs.truncate(from);
            pairs.shrink_to_fit();
        }
        for l in 0..slots {
            starts[l + 1] += starts[l];
        }
        let mut base = Vec::with_capacity(len);
        for chunk in chunks.into_iter().rev() {
            base.extend_from_slice(&chunk);
        }
        Ok(Self {
            base,
            starts,
            overlay: FxHashMap::default(),
            overlay_len: 0,
            len,
        })
    }

    /// How many pairs have a positive count.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn base_run(&self, l: Vid) -> &[u64] {
        let l = l as usize;
        match (self.starts.get(l), self.starts.get(l + 1)) {
            (Some(&a), Some(&b)) => &self.base[a as usize..b as usize],
            _ => &[],
        }
    }

    /// The count of `key` (0 when absent).
    pub(crate) fn get(&self, key: u64) -> i64 {
        let (l, r) = unpack(key);
        let run = self.base_run(l);
        let base = run
            .binary_search_by_key(&r, |&e| right(e))
            .map_or(0, |i| count(run[i]));
        let adj = self.overlay.get(&l).map_or(&[][..], Vec::as_slice);
        base + adj
            .binary_search_by_key(&r, |&(r, _)| r)
            .map_or(0, |i| i64::from(adj[i].1))
    }

    /// Add `d` to the count of `key` and return the count before. A count
    /// driven below zero (a delta removing what the bag never held) is
    /// [`PatchError::Inconsistent`]; a count driven past `u32::MAX`, or a
    /// new pair beyond [`MAX_PAIRS`], is [`PatchError::Overflow`]. Either
    /// names the pair by its values in `dict` as `what` and leaves the bag
    /// unchanged.
    pub(crate) fn add(
        &mut self,
        key: u64,
        d: i64,
        what: &str,
        dict: &Interner,
    ) -> Result<i64, PatchError> {
        let old = self.get(key);
        let now = old + d;
        let grows = old == 0 && now > 0 && self.len == MAX_PAIRS;
        if !(0..=COUNT_MAX).contains(&now) || grows {
            let (l, r) = unpack(key);
            let value = |v| dict.resolve(v).cloned().unwrap_or(Value::Null);
            let pair = format!("{what} of ({}, {})", value(l), value(r));
            return Err(if now < 0 {
                PatchError::Inconsistent(format!("delta drives {pair} negative"))
            } else if grows {
                PatchError::Overflow(format!("delta adds {pair} to a bag of {MAX_PAIRS} pairs"))
            } else {
                PatchError::Overflow(format!("delta takes {pair} to {now}"))
            });
        }
        if d != 0 {
            self.apply(key, old, d);
        }
        Ok(old)
    }

    /// Add `d` to the count of `key` without checking it: for an index
    /// derived from a bag whose [`CountedRuns::add`] already checked the
    /// change, so the count stays within the limits.
    pub(crate) fn adjust(&mut self, key: u64, d: i64) {
        if d != 0 {
            self.apply(key, self.get(key), d);
        }
    }

    /// Record the change `d ≠ 0` of `key`, whose count is `old`, in the
    /// overlay, and fold the overlay when it has grown too large. A change
    /// that does not fit the overlay's `i32` folds the rest of the overlay
    /// and then sets the pair's base count.
    fn apply(&mut self, key: u64, old: i64, d: i64) {
        let now = old + d;
        self.len = self.len + usize::from(now > 0) - usize::from(old > 0);
        let (l, r) = unpack(key);
        let adj = self.overlay.entry(l).or_default();
        let at = adj.binary_search_by_key(&r, |&(r, _)| r);
        let change = i32::try_from(at.map_or(0, |i| i64::from(adj[i].1)) + d);
        match (at, change) {
            (Ok(i), Ok(0) | Err(_)) => {
                adj.remove(i);
                self.overlay_len -= 1;
            }
            (Ok(i), Ok(c)) => adj[i].1 = c,
            (Err(i), Ok(c)) => {
                adj.insert(i, (r, c));
                self.overlay_len += 1;
            }
            (Err(_), Err(_)) => {}
        }
        if adj.is_empty() {
            self.overlay.remove(&l);
        }
        if change.is_err() {
            self.merge_overlay();
            self.set_base(l, r, now);
        } else if self.overlay_len
            > MERGE_MIN.max((self.base.len() + self.starts.len()) / MERGE_FRACTION)
        {
            self.merge_overlay();
        }
    }

    /// Fold the overlay into the base, in place: walking down from the top
    /// left id with changes, the runs above it move up by the room the
    /// changes below them need, and its own run takes its changes from the
    /// top (an entry summed with its base count when it has one). Pairs
    /// that cancel leave a gap above the untouched bottom, closed once at
    /// the end; then every offset moves by what the runs below it gained.
    fn merge_overlay(&mut self) {
        let overlay = std::mem::take(&mut self.overlay);
        let mut lefts: Vec<Vid> = overlay.keys().copied().collect();
        lefts.sort_unstable();
        let n = self.base.len();
        let start = |starts: &[u32], l: usize| starts.get(l).map_or(n, |&s| s as usize);
        self.base.reserve_exact(self.overlay_len);
        self.base.resize(n + self.overlay_len, 0);
        let (mut read, mut write) = (n, n + self.overlay_len);
        // Per left id with changes, from the top: the entries its run gains.
        let mut grown: Vec<i64> = Vec::with_capacity(lefts.len());
        for &l in lefts.iter().rev() {
            let (lo, hi) = (
                start(&self.starts, l as usize),
                start(&self.starts, l as usize + 1),
            );
            self.base.copy_within(hi..read, write - (read - hi));
            write -= read - hi;
            read = hi;
            let top = write;
            for &(r, d) in overlay[&l].iter().rev() {
                while read > lo && right(self.base[read - 1]) > r {
                    read -= 1;
                    write -= 1;
                    self.base[write] = self.base[read];
                }
                let mut m = i64::from(d);
                if read > lo && right(self.base[read - 1]) == r {
                    read -= 1;
                    m += count(self.base[read]);
                }
                if m != 0 {
                    write -= 1;
                    self.base[write] = entry(r, m as u32);
                }
            }
            self.base.copy_within(lo..read, write - (read - lo));
            write -= read - lo;
            read = lo;
            grown.push((top - write) as i64 - (hi - lo) as i64);
        }
        self.base.drain(read..write);
        self.base.shrink_to_fit();
        let slots = self
            .starts
            .len()
            .max(lefts.last().map_or(0, |&l| l as usize + 2));
        self.starts.resize(slots, n as u32);
        let mut below = lefts.iter().zip(grown.into_iter().rev()).peekable();
        let mut shift = 0;
        for (x, s) in self.starts.iter_mut().enumerate() {
            while let Some((_, g)) = below.next_if(|&(&l, _)| (l as usize) < x) {
                shift += g;
            }
            *s = (i64::from(*s) + shift) as u32;
        }
        let end = self.base.len() as u32;
        while self.starts.len() > 1 && self.starts[self.starts.len() - 2] == end {
            self.starts.pop();
        }
        self.overlay_len = 0;
    }

    /// Set the base count of `(l, r)` to `now`, 0 removing the pair, while
    /// the overlay is empty: for a change too large for the overlay, in
    /// `O(base + slots)` like a merge.
    fn set_base(&mut self, l: Vid, r: Vid, now: i64) {
        let l = l as usize;
        if self.starts.len() < l + 2 {
            let end = self.base.len() as u32;
            self.starts.resize(l + 2, end);
        }
        let (lo, hi) = (self.starts[l] as usize, self.starts[l + 1] as usize);
        let at = lo + self.base[lo..hi].partition_point(|&e| right(e) < r);
        let shift = match (at < hi && right(self.base[at]) == r, now) {
            (true, 0) => {
                self.base.remove(at);
                -1
            }
            (true, _) => {
                self.base[at] = entry(r, now as u32);
                0
            }
            (false, _) => {
                self.base.insert(at, entry(r, now as u32));
                1
            }
        };
        for s in &mut self.starts[l + 1..] {
            *s = (i64::from(*s) + shift) as u32;
        }
    }

    /// `(r, count)` for every pair with left id `l`, ascending by `r`.
    pub(crate) fn run(&self, l: Vid) -> impl Iterator<Item = (Vid, i64)> + '_ {
        let base = self.base_run(l).iter().map(|&e| (right(e), count(e)));
        let adj = self.overlay.get(&l).into_iter().flatten();
        merge(base, adj.map(|&(r, d)| (r, i64::from(d))))
    }

    /// Every left id with at least one pair, ascending.
    pub(crate) fn lefts(&self) -> Vec<Vid> {
        let mut changed: Vec<Vid> = self.overlay.keys().copied().collect();
        changed.sort_unstable();
        let slots =
            (self.starts.len().saturating_sub(1) as Vid).max(changed.last().map_or(0, |&l| l + 1));
        let mut changed = changed.into_iter().peekable();
        (0..slots)
            .filter(|&l| match changed.next_if_eq(&l) {
                Some(_) => self.run(l).next().is_some(),
                None => !self.base_run(l).is_empty(),
            })
            .collect()
    }

    /// Every `(key, count)`, ascending by key.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, i64)> + '_ {
        let base = self.starts.windows(2).zip(0..).flat_map(move |(w, l)| {
            let run = self.base[w[0] as usize..w[1] as usize].iter();
            run.map(move |&e| (pack(l, right(e)), count(e)))
        });
        let mut lefts: Vec<Vid> = self.overlay.keys().copied().collect();
        lefts.sort_unstable();
        let adj = lefts.into_iter().flat_map(|l| {
            let changes = self.overlay[&l].iter();
            changes.map(move |&(r, d)| (pack(l, r), i64::from(d)))
        });
        merge(base, adj)
    }

    /// The transposed key set: `(r, l)` with count 1 for every pair.
    pub(crate) fn transposed_keys(&self) -> Self {
        scatter(|| self.iter(), |_| 1)
    }

    /// Every key, ascending. With `mirrored` the bag keeps each pair of a
    /// symmetric relation once, as `(l, r)` with `l ≤ r`, and the keys
    /// below the diagonal come too: those above it transposed by a
    /// counting scatter and merged in, so a walk of the whole relation
    /// sees every left id's run in order.
    pub(crate) fn keys(&self, mirrored: bool) -> impl Iterator<Item = u64> + '_ {
        let above = || {
            self.iter().filter(|&(key, _)| {
                let (l, r) = unpack(key);
                l < r
            })
        };
        let below = mirrored.then(|| scatter(above, |_| 1));
        merge(self.iter(), below.unwrap_or_default().into_entries()).map(|(key, _)| key)
    }

    /// Every `(key, count)` of a bag without an overlay, ascending, taking
    /// the bag.
    fn into_entries(self) -> impl Iterator<Item = (u64, i64)> {
        debug_assert!(self.overlay.is_empty());
        let Self { base, starts, .. } = self;
        let mut l = 0;
        base.into_iter().enumerate().map(move |(i, e)| {
            while starts[l + 1] as usize <= i {
                l += 1;
            }
            (pack(l as Vid, right(e)), count(e))
        })
    }

    /// The operator output `pairs` (a valid [`CountedPairs`]) with every
    /// pair stored as `(r, l)`: one counting scatter of the ascending
    /// entries, which leaves each `r`'s run already ascending by `l`. The
    /// limits are [`CountedRuns::new`]'s.
    pub(crate) fn transpose_of(pairs: &[(u64, i64)]) -> Result<Self, PatchError> {
        check_limits(pairs)?;
        Ok(scatter(|| pairs.iter().copied(), |m| m as u32))
    }
}

impl ByteSize for CountedRuns {
    fn heap_bytes(&self) -> usize {
        self.base.heap_bytes() + self.starts.heap_bytes() + self.overlay.heap_bytes()
    }
}

/// Refuse operator output that a [`CountedRuns`] cannot hold.
fn check_limits(pairs: &[(u64, i64)]) -> Result<(), PatchError> {
    if pairs.len() > MAX_PAIRS {
        let n = pairs.len();
        return Err(PatchError::Overflow(format!(
            "{n} pairs in one bag, past {MAX_PAIRS}"
        )));
    }
    match pairs.iter().find(|&&(_, m)| m > COUNT_MAX) {
        Some(&(key, m)) => {
            let (l, r) = unpack(key);
            let what = format!("count {m} of id pair ({l}, {r})");
            Err(PatchError::Overflow(what))
        }
        None => Ok(()),
    }
}

/// A [`CountedRuns`] written in ascending key order — pair by pair as a
/// snapshot decoder reads one, or run by run as `reldb::exec::join_runs`
/// hands a join's output over — in the compact form from the start.
#[derive(Debug, Default)]
pub(crate) struct RunsBuilder {
    base: Vec<u64>,
    /// Per left id with pairs, ascending: the id and where its run starts.
    lefts: Vec<(Vid, u32)>,
}

impl RunsBuilder {
    pub(crate) fn with_capacity(pairs: usize) -> Self {
        Self {
            base: Vec::with_capacity(pairs),
            lefts: Vec::new(),
        }
    }

    /// How many pairs were pushed.
    pub(crate) fn len(&self) -> usize {
        self.base.len()
    }

    /// Append `(l, r)` with `count`. The caller keeps the keys strictly
    /// ascending, every count ≥ 1 and the pairs at most [`MAX_PAIRS`].
    pub(crate) fn push(&mut self, l: Vid, r: Vid, count: u32) {
        if self.lefts.last().is_none_or(|&(last, _)| last != l) {
            self.lefts.push((l, self.base.len() as u32));
        }
        self.base.push(entry(r, count));
    }

    /// Append one left id's run as a join hands it over: strictly
    /// ascending keys above every key so far, counts ≥ 1. The limits are
    /// [`CountedRuns::new`]'s.
    pub(crate) fn extend_run(&mut self, run: &[(u64, i64)]) -> Result<(), PatchError> {
        check_limits(run)?;
        if self.len() + run.len() > MAX_PAIRS {
            return Err(PatchError::Overflow(format!(
                "a bag past {MAX_PAIRS} pairs"
            )));
        }
        for &(key, m) in run {
            let (l, r) = unpack(key);
            self.push(l, r, m as u32);
        }
        Ok(())
    }

    /// One bag from builders of consecutive ranges of left ids, in order.
    pub(crate) fn concat(parts: Vec<RunsBuilder>) -> Result<CountedRuns, PatchError> {
        if parts.iter().map(RunsBuilder::len).sum::<usize>() > MAX_PAIRS {
            return Err(PatchError::Overflow(format!(
                "a bag past {MAX_PAIRS} pairs"
            )));
        }
        let mut parts = parts.into_iter();
        let mut all = parts.next().unwrap_or_default();
        for part in parts {
            let at = all.base.len() as u32;
            all.base.extend_from_slice(&part.base);
            all.lefts
                .extend(part.lefts.iter().map(|&(l, s)| (l, s + at)));
        }
        Ok(all.finish())
    }

    pub(crate) fn finish(self) -> CountedRuns {
        let Self { mut base, lefts } = self;
        let slots = lefts.last().map_or(0, |&(l, _)| l as usize + 1);
        let mut starts = Vec::with_capacity(slots + 1);
        // Ids without a run get an empty one where the next run starts.
        for (l, at) in lefts {
            starts.resize(l as usize + 1, at);
        }
        starts.push(base.len() as u32);
        base.shrink_to_fit();
        CountedRuns {
            len: base.len(),
            base,
            starts,
            overlay: FxHashMap::default(),
            overlay_len: 0,
        }
    }
}

/// Store every `(l, r)` of the ascending `entries` as `(r, l)` with count
/// `count(m)`. `entries` is walked twice: to count each right id, then to
/// place every pair.
fn scatter<I>(entries: impl Fn() -> I, count: impl Fn(i64) -> u32) -> CountedRuns
where
    I: Iterator<Item = (u64, i64)>,
{
    // `starts[r + 2]` counts right id `r`; after the prefix sum
    // `starts[r + 1]` is where its run begins, and it serves as the
    // write cursor, so the scatter leaves `starts[r]` = begin of `r`.
    let mut starts: Vec<u32> = vec![0; 2];
    for (key, _) in entries() {
        let r = unpack(key).1 as usize;
        if starts.len() < r + 3 {
            starts.resize(r + 3, 0);
        }
        starts[r + 2] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    let mut base = vec![0; starts[starts.len() - 1] as usize];
    for (key, m) in entries() {
        let (l, r) = unpack(key);
        let at = &mut starts[r as usize + 1];
        base[*at as usize] = entry(l, count(m));
        *at += 1;
    }
    starts.pop();
    CountedRuns {
        len: base.len(),
        base,
        starts,
        overlay: FxHashMap::default(),
        overlay_len: 0,
    }
}

/// Merge two sequences of `(key, count)` ascending by key, summing the
/// counts of a key in both and dropping keys whose sum is zero.
fn merge<K, B, O>(base: B, overlay: O) -> Merge<B, O>
where
    K: Ord + Copy,
    B: Iterator<Item = (K, i64)>,
    O: Iterator<Item = (K, i64)>,
{
    Merge {
        base: base.peekable(),
        overlay: overlay.peekable(),
    }
}

/// The iterator [`merge`] returns.
struct Merge<B: Iterator, O: Iterator> {
    base: Peekable<B>,
    overlay: Peekable<O>,
}

impl<K, B, O> Iterator for Merge<B, O>
where
    K: Ord + Copy,
    B: Iterator<Item = (K, i64)>,
    O: Iterator<Item = (K, i64)>,
{
    type Item = (K, i64);

    fn next(&mut self) -> Option<(K, i64)> {
        loop {
            let (key, m) = match (self.base.peek(), self.overlay.peek()) {
                (None, None) => return None,
                (Some(&(kb, mb)), Some(&(ko, mo))) if kb == ko => {
                    self.base.next();
                    self.overlay.next();
                    (kb, mb + mo)
                }
                (Some(&(kb, _)), Some(&(ko, _))) if ko < kb => self.overlay.next()?,
                (Some(_), _) => self.base.next()?,
                (None, Some(_)) => self.overlay.next()?,
            };
            if m != 0 {
                return Some((key, m));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{CountedRuns, RunsBuilder, CHUNK, MERGE_MIN};
    use crate::error::PatchError;
    use graphgen_common::SplitMix64;
    use graphgen_reldb::exec::{pack, unpack};
    use graphgen_reldb::Interner;
    use std::collections::{BTreeMap, BTreeSet};

    /// Compare every read of `runs` against the model.
    fn check(runs: &CountedRuns, model: &BTreeMap<u64, i64>, what: &str) {
        let all: Vec<(u64, i64)> = model.iter().map(|(&k, &m)| (k, m)).collect();
        assert_eq!(runs.iter().collect::<Vec<_>>(), all, "{what}: iteration");
        assert_eq!(runs.len(), model.len(), "{what}: len");
        let lefts: BTreeSet<u32> = model.keys().map(|&k| unpack(k).0).chain(0..4).collect();
        for &l in &lefts {
            let want: Vec<(u32, i64)> = model
                .range(pack(l, 0)..=pack(l, u32::MAX))
                .map(|(&k, &m)| (unpack(k).1, m))
                .collect();
            assert_eq!(runs.run(l).collect::<Vec<_>>(), want, "{what}: run {l}");
        }
        for (&k, &m) in model {
            assert_eq!(runs.get(k), m, "{what}: get");
        }
        let mut flipped: Vec<(u64, i64)> = all
            .iter()
            .map(|&(k, m)| {
                let (l, r) = unpack(k);
                (pack(r, l), m)
            })
            .collect();
        flipped.sort_unstable();
        let of = CountedRuns::transpose_of(&all).unwrap();
        assert_eq!(
            of.iter().collect::<Vec<_>>(),
            flipped,
            "{what}: pairs transpose"
        );
        for &(k, m) in &flipped {
            assert_eq!(of.get(k), m, "{what}: transposed get");
        }
        let keys: Vec<(u64, i64)> = flipped.iter().map(|&(k, _)| (k, 1)).collect();
        let tk = runs.transposed_keys();
        assert_eq!(tk.iter().collect::<Vec<_>>(), keys, "{what}: key transpose");
    }

    /// Random signed adds over a small id space (so keys repeat, counts
    /// return to zero and rise again), long enough to cross the merge
    /// threshold many times, checked against a `BTreeMap` after every add;
    /// an add driving a count negative must be refused.
    #[test]
    fn counted_runs_match_a_btreemap_model() {
        let dict = Interner::new();
        for seed in 1..=6u64 {
            let mut rng = SplitMix64::new(seed);
            let ids = 12 + rng.next_below(36);
            let key =
                |rng: &mut SplitMix64| pack(rng.next_below(ids) as u32, rng.next_below(ids) as u32);
            // Start from an operator-shaped base half the time.
            let mut model: BTreeMap<u64, i64> = BTreeMap::new();
            if seed % 2 == 0 {
                for _ in 0..200 {
                    *model.entry(key(&mut rng)).or_insert(0) += 1 + rng.next_below(3) as i64;
                }
            }
            let mut runs = CountedRuns::new(model.iter().map(|(&k, &m)| (k, m)).collect()).unwrap();
            check(&runs, &model, &format!("seed {seed}: base"));
            let (mut merges, mut refused) = (0, 0);
            for step in 0..1500 {
                let key = key(&mut rng);
                let d = rng.next_below(7) as i64 - 3;
                let have = model.get(&key).copied().unwrap_or(0);
                let overlay_before = runs.overlay_len;
                let result = runs.add(key, d, "count", &dict);
                let what = format!("seed {seed} step {step}");
                if have + d < 0 {
                    assert!(
                        matches!(result, Err(PatchError::Inconsistent(_))),
                        "{what}: negative count accepted"
                    );
                    refused += 1;
                } else {
                    assert_eq!(result, Ok(have), "{what}: old count");
                    match have + d {
                        0 => model.remove(&key),
                        n => model.insert(key, n),
                    };
                }
                // One add moves the overlay by one entry, unless it merged.
                if overlay_before >= MERGE_MIN && runs.overlay_len == 0 {
                    merges += 1;
                }
                check(&runs, &model, &what);
            }
            assert!(merges >= 3, "seed {seed}: only {merges} merges");
            assert!(refused >= 10, "seed {seed}: only {refused} refusals");
        }
    }

    #[test]
    fn a_refused_add_leaves_the_bag_unchanged() {
        let dict = Interner::new();
        let mut runs = CountedRuns::new(vec![(pack(1, 2), 2), (pack(3, 0), 1)]).unwrap();
        assert_eq!(runs.add(pack(1, 2), -1, "count", &dict), Ok(2));
        for (key, d) in [(pack(1, 2), -2), (pack(9, 9), -1)] {
            let err = runs.add(key, d, "count", &dict);
            assert!(matches!(err, Err(PatchError::Inconsistent(_))));
        }
        assert_eq!(runs.get(pack(1, 2)), 1);
        assert_eq!(runs.get(pack(9, 9)), 0);
        assert_eq!(runs.len(), 2);
        // The overlay holds one entry; this many more force a merge, and
        // the base takes them over.
        for r in 0..MERGE_MIN as u32 {
            runs.add(pack(5, r), 1, "count", &dict).unwrap();
        }
        assert!(runs.overlay.is_empty());
        assert_eq!(runs.len(), MERGE_MIN + 2);
        assert_eq!(runs.run(5).count(), MERGE_MIN);
        assert_eq!(runs.get(pack(1, 2)), 1);
    }

    /// A count may reach `u32::MAX` but not pass it: an add past it is
    /// refused as `Overflow` and leaves the bag unchanged. A change too
    /// large for the overlay's `i32` folds the overlay and lands in the
    /// base, also for a left id beyond the offsets.
    #[test]
    fn an_add_past_the_count_limit_is_refused_and_leaves_the_bag_unchanged() {
        let dict = Interner::new();
        let top = i64::from(u32::MAX);
        let mut model = BTreeMap::from([(pack(1, 2), top - 5), (pack(3, 0), 1)]);
        let mut runs = CountedRuns::new(model.iter().map(|(&k, &m)| (k, m)).collect()).unwrap();
        // Small changes in the overlay, for the folds below to carry.
        for (key, d) in [(pack(0, 4), 2), (pack(3, 0), 1), (pack(6, 1), 1)] {
            assert_eq!(
                runs.add(key, d, "count", &dict),
                Ok(model.get(&key).copied().unwrap_or(0))
            );
            *model.entry(key).or_insert(0) += d;
        }
        for (key, d) in [(pack(1, 2), 6), (pack(4, 4), top + 1), (pack(3, 0), top)] {
            let err = runs.add(key, d, "count", &dict);
            assert!(matches!(err, Err(PatchError::Overflow(_))), "{err:?}");
            check(&runs, &model, &format!("refused {d}"));
        }
        let steps = [
            (pack(1, 2), 5),
            (pack(1, 2), -top),
            (pack(9, 7), top),
            (pack(0, 4), -2),
            (pack(9, 7), 1 - top),
        ];
        for (key, d) in steps {
            let old = model.get(&key).copied().unwrap_or(0);
            assert_eq!(runs.add(key, d, "count", &dict), Ok(old));
            match old + d {
                0 => model.remove(&key),
                n => model.insert(key, n),
            };
            check(&runs, &model, &format!("add {d}"));
            let lefts: BTreeSet<u32> = model.keys().map(|&k| unpack(k).0).collect();
            assert_eq!(runs.lefts(), lefts.into_iter().collect::<Vec<_>>());
        }
        // Operator output past the limit is refused whole.
        let over = vec![(pack(0, 0), 1), (pack(0, 1), top + 1)];
        let err = CountedRuns::transpose_of(&over);
        assert!(matches!(err, Err(PatchError::Overflow(_))), "{err:?}");
        let err = CountedRuns::new(over);
        assert!(matches!(err, Err(PatchError::Overflow(_))), "{err:?}");
    }

    /// A bag holding the upper half of a symmetric relation gives every
    /// key of the relation, ascending, through `keys(true)`, also through
    /// its overlay; `keys(false)` gives the bag's own.
    #[test]
    fn mirrored_keys_are_both_orientations_ascending() {
        let dict = Interner::new();
        let mut rng = SplitMix64::new(4);
        let mut full: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..300 {
            let (a, b) = (rng.next_below(40) as u32, rng.next_below(40) as u32);
            full.extend([pack(a, b), pack(b, a)]);
        }
        let kept: Vec<(u64, i64)> = full
            .iter()
            .filter(|&&key| unpack(key).0 <= unpack(key).1)
            .map(|&key| (key, 2))
            .collect();
        let mut runs = CountedRuns::new(kept.clone()).unwrap();
        assert!(runs.keys(true).eq(full.iter().copied()));
        assert!(runs.keys(false).eq(kept.iter().map(|&(key, _)| key)));
        let (added, gone) = (pack(3, 41), kept[5].0);
        runs.add(added, 1, "count", &dict).unwrap();
        runs.add(gone, -2, "count", &dict).unwrap();
        let (l, r) = unpack(gone);
        full.extend([added, pack(41, 3)]);
        full.retain(|&key| key != gone && key != pack(r, l));
        assert!(runs.keys(true).eq(full.iter().copied()));
    }

    /// Operator output longer than a conversion chunk keeps every pair in
    /// order, and equals what a decoder builds pair by pair and what a
    /// join's morsels build run by run.
    #[test]
    fn operator_output_converts_chunk_by_chunk() {
        let mut rng = SplitMix64::new(9);
        let pairs: Vec<(u64, i64)> = (0..3 * CHUNK as u64 + 5)
            .map(|i| {
                let key = pack((i / 7) as u32 * 2, (i % 7) as u32);
                (key, 1 + rng.next_below(5) as i64)
            })
            .collect();
        let runs = CountedRuns::new(pairs.clone()).unwrap();
        assert_eq!(runs.len(), pairs.len());
        assert!(runs.iter().eq(pairs.iter().copied()));
        let last = unpack(pairs[pairs.len() - 1].0).0;
        assert_eq!(runs.lefts(), (0..=last).step_by(2).collect::<Vec<_>>());
        let mut builder = RunsBuilder::with_capacity(pairs.len());
        for &(key, m) in &pairs {
            let (l, r) = unpack(key);
            builder.push(l, r, m as u32);
        }
        let built = builder.finish();
        assert_eq!((&built.base, &built.starts), (&runs.base, &runs.starts));
        assert_eq!(built.len(), runs.len());
        // Run by run, in three parts cut between left ids, as a join
        // hands its morsels over.
        let mut parts: Vec<RunsBuilder> = (0..3).map(|_| RunsBuilder::default()).collect();
        for run in pairs.chunk_by(|a, b| unpack(a.0).0 == unpack(b.0).0) {
            let part = (unpack(run[0].0).0 as usize * 3 / (last as usize + 1)).min(2);
            parts[part].extend_run(run).unwrap();
        }
        let joined = RunsBuilder::concat(parts).unwrap();
        assert_eq!((&joined.base, &joined.starts), (&runs.base, &runs.starts));
        let over = [(pack(last + 1, 0), i64::from(u32::MAX) + 1)];
        let err = RunsBuilder::default().extend_run(&over);
        assert!(matches!(err, Err(PatchError::Overflow(_))), "{err:?}");
    }
}
