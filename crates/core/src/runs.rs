//! Counted runs: the one keyed structure of the incremental maintenance
//! state.
//!
//! A [`CountedRuns`] is a bag of id pairs `(l, r) → count` kept the way the
//! relational operators emit it — a [`CountedPairs`] sorted by the
//! [`pack`]ed key, with `reldb::exec::left_runs` offsets so one left id's
//! entries are a slice — plus a small overlay of the net changes made
//! since: per left id, a short list of its changes sorted by right id. A
//! point probe is a binary search in the id's slice and in its list; a left
//! id's entries are the two merged; the reverse order is a counting scatter
//! of the ascending entries ([`CountedRuns::transpose_of`]), never a hash
//! rebuild or a comparison sort.
//!
//! The overlay folds into the base once it outgrows a fixed fraction of it
//! (the same amortization as `Table::maybe_compact`): the fold moves the
//! base's entries up in place to make room, in `O(base + slots)`, charged
//! against the `base / MERGE_FRACTION` changes since the last one.

use crate::error::PatchError;
use graphgen_common::{ByteSize, FxHashMap};
use graphgen_reldb::exec::{left_runs, pack, unpack, CountedPairs};
use graphgen_reldb::{Interner, Value, Vid};
use std::iter::Peekable;

/// The overlay merges into the base when it holds more entries than
/// `(base + offset slots) / MERGE_FRACTION`...
const MERGE_FRACTION: usize = 4;
/// ...and more than this many, so small bags do not merge on every add.
const MERGE_MIN: usize = 64;

/// A counted bag of `(l, r)` id pairs: sorted runs plus an overlay. Every
/// count it reports is ≥ 1; a pair whose count returns to zero is gone.
#[derive(Debug, Clone, Default)]
pub(crate) struct CountedRuns {
    /// The bag as of the last merge: strictly ascending keys, counts ≥ 1.
    base: CountedPairs,
    /// `base[starts[l]..starts[l + 1]]` are left id `l`'s entries, for
    /// every `l + 1 < starts.len()` (larger ids have none in `base`).
    starts: Vec<usize>,
    /// Net change since the last merge, per left id: `(r, change)`
    /// ascending by `r`, no change zero, no list empty.
    overlay: FxHashMap<Vid, Vec<(Vid, i64)>>,
    /// Entries across the overlay's lists.
    overlay_len: usize,
}

impl CountedRuns {
    /// Keep an operator's output as it is: `base` must be a valid
    /// [`CountedPairs`] (strictly ascending keys, counts ≥ 1). The spare
    /// capacity its producer grew it with is released.
    pub(crate) fn new(mut base: CountedPairs) -> Self {
        base.shrink_to_fit();
        debug_assert!(base.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(base.iter().all(|&(_, m)| m >= 1));
        Self {
            starts: left_runs(&base, slots(&base)),
            base,
            overlay: FxHashMap::default(),
            overlay_len: 0,
        }
    }

    /// How many pairs have a positive count.
    pub(crate) fn len(&self) -> usize {
        self.iter().count()
    }

    fn base_run(&self, l: Vid) -> &[(u64, i64)] {
        let l = l as usize;
        match (self.starts.get(l), self.starts.get(l + 1)) {
            (Some(&a), Some(&b)) => &self.base[a..b],
            _ => &[],
        }
    }

    /// The count of `key` (0 when absent).
    pub(crate) fn get(&self, key: u64) -> i64 {
        let (l, r) = unpack(key);
        let run = self.base_run(l);
        let base = run
            .binary_search_by_key(&key, |&(k, _)| k)
            .map_or(0, |i| run[i].1);
        let adj = self.overlay.get(&l).map_or(&[][..], Vec::as_slice);
        base + adj
            .binary_search_by_key(&r, |&(r, _)| r)
            .map_or(0, |i| adj[i].1)
    }

    /// Add `d` to the count of `key` and return the count before. A count
    /// driven below zero (a delta removing what the bag never held) is
    /// [`PatchError::Inconsistent`], naming the pair by its values in
    /// `dict` as `what`, and leaves the bag unchanged.
    pub(crate) fn add(
        &mut self,
        key: u64,
        d: i64,
        what: &str,
        dict: &Interner,
    ) -> Result<i64, PatchError> {
        let old = self.get(key);
        if old + d < 0 {
            let (l, r) = unpack(key);
            let value = |v| dict.resolve(v).cloned().unwrap_or(Value::Null);
            return Err(PatchError::Inconsistent(format!(
                "delta drives {what} of ({}, {}) negative",
                value(l),
                value(r)
            )));
        }
        self.adjust(key, d);
        Ok(old)
    }

    /// Add `d` to the count of `key` without reading it: for an index
    /// derived from a bag whose [`CountedRuns::add`] already checked the
    /// change, so the count cannot go negative.
    pub(crate) fn adjust(&mut self, key: u64, d: i64) {
        if d == 0 {
            return;
        }
        let (l, r) = unpack(key);
        let adj = self.overlay.entry(l).or_default();
        match adj.binary_search_by_key(&r, |&(r, _)| r) {
            Ok(i) if adj[i].1 + d == 0 => {
                adj.remove(i);
                self.overlay_len -= 1;
                if adj.is_empty() {
                    self.overlay.remove(&l);
                }
            }
            Ok(i) => adj[i].1 += d,
            Err(i) => {
                adj.insert(i, (r, d));
                self.overlay_len += 1;
            }
        }
        if self.overlay_len > MERGE_MIN.max((self.base.len() + self.starts.len()) / MERGE_FRACTION)
        {
            self.merge_overlay();
        }
    }

    /// Fold the overlay into the base, in place: walking down from the
    /// top, each base entry above the next overlay key moves up by the room
    /// the overlay entries below it need, and the overlay entry lands
    /// beneath them (summed with its base count when it has one). Pairs
    /// that cancel leave a gap above the untouched bottom, closed once at
    /// the end.
    fn merge_overlay(&mut self) {
        let overlay = std::mem::take(&mut self.overlay);
        let mut lefts: Vec<Vid> = overlay.keys().copied().collect();
        lefts.sort_unstable();
        let n = self.base.len();
        self.base.reserve_exact(self.overlay_len);
        self.base.resize(n + self.overlay_len, (0, 0));
        let (mut read, mut write) = (n, n + self.overlay_len);
        for &l in lefts.iter().rev() {
            for &(r, d) in overlay[&l].iter().rev() {
                let key = pack(l, r);
                while read > 0 && self.base[read - 1].0 > key {
                    read -= 1;
                    write -= 1;
                    self.base[write] = self.base[read];
                }
                let mut m = d;
                if read > 0 && self.base[read - 1].0 == key {
                    read -= 1;
                    m += self.base[read].1;
                }
                if m != 0 {
                    write -= 1;
                    self.base[write] = (key, m);
                }
            }
        }
        self.base.drain(read..write);
        self.starts = left_runs(&self.base, slots(&self.base));
        self.overlay_len = 0;
    }

    /// `(r, count)` for every pair with left id `l`, ascending by `r`.
    pub(crate) fn run(&self, l: Vid) -> impl Iterator<Item = (Vid, i64)> + '_ {
        let adj = self.overlay.get(&l).into_iter().flatten();
        let adj = adj.map(move |&(r, m)| (pack(l, r), m));
        merge(self.base_run(l).iter().copied(), adj).map(|(key, m)| (unpack(key).1, m))
    }

    /// Every `(key, count)`, ascending by key.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, i64)> + '_ {
        let mut lefts: Vec<Vid> = self.overlay.keys().copied().collect();
        lefts.sort_unstable();
        let adj = lefts
            .into_iter()
            .flat_map(|l| self.overlay[&l].iter().map(move |&(r, m)| (pack(l, r), m)));
        merge(self.base.iter().copied(), adj)
    }

    /// The transposed key set: `(r, l)` with count 1 for every pair.
    pub(crate) fn transposed_keys(&self) -> Self {
        scatter(|| self.iter(), |_| 1)
    }

    /// The operator output `pairs` (a valid [`CountedPairs`]) with every
    /// pair stored as `(r, l)`: one counting scatter of the ascending
    /// entries, which leaves each `r`'s run already ascending by `l`.
    pub(crate) fn transpose_of(pairs: &[(u64, i64)]) -> Self {
        scatter(|| pairs.iter().copied(), |m| m)
    }
}

impl ByteSize for CountedRuns {
    fn heap_bytes(&self) -> usize {
        self.base.capacity() * std::mem::size_of::<(u64, i64)>()
            + self.starts.capacity() * std::mem::size_of::<usize>()
            + self.overlay.heap_bytes()
    }
}

/// Store every `(l, r)` of the ascending `entries` as `(r, l)` with count
/// `count(m)`. `entries` is walked twice: to count each right id, then to
/// place every pair.
fn scatter<I>(entries: impl Fn() -> I, count: impl Fn(i64) -> i64) -> CountedRuns
where
    I: Iterator<Item = (u64, i64)>,
{
    // `starts[r + 2]` counts right id `r`; after the prefix sum
    // `starts[r + 1]` is where its run begins, and it serves as the
    // write cursor, so the scatter leaves `starts[r]` = begin of `r`.
    let mut starts: Vec<usize> = vec![0; 2];
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
    let mut base = vec![(0, 0); starts[starts.len() - 1]];
    for (key, m) in entries() {
        let (l, r) = unpack(key);
        let at = &mut starts[r as usize + 1];
        base[*at] = (pack(r, l), count(m));
        *at += 1;
    }
    starts.pop();
    CountedRuns {
        base,
        starts,
        overlay: FxHashMap::default(),
        overlay_len: 0,
    }
}

/// One offset slot per left id up to the last of `base`'s.
fn slots(base: &[(u64, i64)]) -> usize {
    base.last()
        .map_or(0, |&(key, _)| unpack(key).0 as usize + 1)
}

/// Merge two ascending `(key, count)` sequences, summing the counts of a
/// key in both and dropping keys whose sum is zero.
pub(crate) fn merge<B, O>(base: B, overlay: O) -> Merge<B, O>
where
    B: Iterator<Item = (u64, i64)>,
    O: Iterator<Item = (u64, i64)>,
{
    Merge {
        base: base.peekable(),
        overlay: overlay.peekable(),
    }
}

/// The iterator [`merge`] returns.
pub(crate) struct Merge<B: Iterator, O: Iterator> {
    base: Peekable<B>,
    overlay: Peekable<O>,
}

impl<B, O> Iterator for Merge<B, O>
where
    B: Iterator<Item = (u64, i64)>,
    O: Iterator<Item = (u64, i64)>,
{
    type Item = (u64, i64);

    fn next(&mut self) -> Option<(u64, i64)> {
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
    use super::{CountedRuns, MERGE_MIN};
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
        let of = CountedRuns::transpose_of(&all);
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
            let mut runs = CountedRuns::new(model.iter().map(|(&k, &m)| (k, m)).collect());
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
        let mut runs = CountedRuns::new(vec![(pack(1, 2), 2), (pack(3, 0), 1)]);
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
}
