//! Counted runs: the one keyed structure of the incremental maintenance
//! state.
//!
//! A [`CountedRuns`] is a bag of id pairs `(l, r) → count` kept as the
//! relational operators write it — a [`Bag`]: sorted runs of 8-byte
//! entries, one per left id, under `u32` offsets — plus a small overlay of
//! the net changes made since the last merge.
//!
//! * **Base:** the [`Bag`] as of the last merge. The bulk loader adopts the
//!   operators' bags as they are.
//! * **Overlay:** per left id, a short list of `(r: u32, change: i32)`
//!   sorted by `r`, 8 B an entry.
//! * **Limits:** counts are `1..=u32::MAX` and a bag holds at most
//!   [`MAX_BAG_LEN`] pairs, as every [`Bag`] does. A change going past
//!   either is [`PatchError::Overflow`], never a wrap. A change too large
//!   for an `i32` folds the overlay into the base first and then sets the
//!   pair's base count.
//!
//! A point probe is a binary search in the id's run and in its list; a
//! left id's entries are the two merged; the reverse order is the bag's
//! counting scatter ([`Bag::transposed`]), never a hash rebuild or a
//! comparison sort.
//!
//! A bag of a symmetric relation — the support of a segment that mirrors
//! itself, such as the co-author self-join — is kept once: its owner stores
//! only the pairs with `l ≤ r` and normalises every probe; the bag itself
//! does not know. [`CountedRuns::keys`] is told, and walks the whole
//! relation in key order.
//!
//! The overlay folds into the base once it outgrows a fixed fraction of it
//! (the same amortization as `Table::maybe_compact`): [`Bag::merge`] moves
//! the base's entries up in place to make room, in `O(base + slots)`,
//! charged against the `base / MERGE_FRACTION` changes since the last one.

use crate::error::PatchError;
use graphgen_common::{ByteSize, FxHashMap};
use graphgen_reldb::exec::{count_of, right_of, unpack, Bag, MAX_BAG_LEN};
use graphgen_reldb::Vid;
use std::iter::Peekable;

/// The overlay merges into the base when it holds more entries than
/// `(base + offset slots / 2) / MERGE_FRACTION` — the base's bytes counted
/// in 8-byte entries, an offset slot taking four: an overlay entry costs
/// about twice a base entry, so at its largest the overlay holds about a
/// quarter of the base's bytes, however sparse the left ids are (database
/// ids of a key column interleaved with another column's values leave
/// every other slot empty)...
const MERGE_FRACTION: usize = 8;
/// ...and more than this many, so small bags do not merge on every add.
const MERGE_MIN: usize = 64;
/// The largest count a pair may have.
const COUNT_MAX: i64 = u32::MAX as i64;

/// A counted bag of `(l, r)` id pairs: a [`Bag`] plus an overlay. Every
/// count it reports is in `1..=u32::MAX`; a pair whose count returns to
/// zero is gone.
#[derive(Debug, Clone, Default)]
pub(crate) struct CountedRuns {
    /// The bag as of the last merge.
    base: Bag,
    /// Net change since the last merge, per left id: `(r, change)`
    /// ascending by `r`, no change zero, no list empty.
    overlay: FxHashMap<Vid, Vec<(Vid, i32)>>,
    /// Entries across the overlay's lists.
    overlay_len: usize,
    /// Pairs with a positive count.
    len: usize,
}

impl From<Bag> for CountedRuns {
    /// Keep an operator's bag as it is.
    fn from(base: Bag) -> Self {
        Self {
            len: base.len(),
            base,
            overlay: FxHashMap::default(),
            overlay_len: 0,
        }
    }
}

impl CountedRuns {
    /// The count of `key` (0 when absent).
    pub(crate) fn get(&self, key: u64) -> i64 {
        let (l, r) = unpack(key);
        let adj = self.overlay.get(&l).map_or(&[][..], Vec::as_slice);
        i64::from(self.base.get(l, r))
            + adj
                .binary_search_by_key(&r, |&(r, _)| r)
                .map_or(0, |i| i64::from(adj[i].1))
    }

    /// Add `d` to the count of `key` and return the count before. A count
    /// driven below zero (a delta removing what the bag never held) is
    /// [`PatchError::Inconsistent`]; a count driven past `u32::MAX`, or a
    /// new pair beyond [`MAX_BAG_LEN`], is [`PatchError::Overflow`]. Either
    /// names the pair by its database ids as `what` and leaves the bag
    /// unchanged.
    pub(crate) fn add(&mut self, key: u64, d: i64, what: &str) -> Result<i64, PatchError> {
        let old = self.get(key);
        let now = old + d;
        let grows = old == 0 && now > 0 && self.len == MAX_BAG_LEN;
        if !(0..=COUNT_MAX).contains(&now) || grows {
            let (l, r) = unpack(key);
            let pair = format!("{what} of the ids ({l}, {r})");
            return Err(if now < 0 {
                PatchError::Inconsistent(format!("delta drives {pair} negative"))
            } else if grows {
                PatchError::Overflow(format!("delta adds {pair} to a bag of {MAX_BAG_LEN} pairs"))
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
            self.base.set(l, r, now as u32);
        } else if self.overlay_len
            > MERGE_MIN.max((self.base.len() + self.base.slots() / 2) / MERGE_FRACTION)
        {
            self.merge_overlay();
        }
    }

    /// Fold the overlay into the base, in place ([`Bag::merge`]).
    fn merge_overlay(&mut self) {
        let mut changes: Vec<(Vid, Vec<(Vid, i32)>)> =
            std::mem::take(&mut self.overlay).into_iter().collect();
        changes.sort_unstable_by_key(|&(l, _)| l);
        self.base.merge(&changes);
        self.overlay_len = 0;
    }

    /// `(r, count)` for every pair with left id `l`, ascending by `r`.
    pub(crate) fn run(&self, l: Vid) -> impl Iterator<Item = (Vid, i64)> + '_ {
        let base = self.base.run(l).iter();
        let adj = self.overlay.get(&l).into_iter().flatten();
        merge(
            base.map(|&e| (right_of(e), i64::from(count_of(e)))),
            adj.map(|&(r, d)| (r, i64::from(d))),
        )
    }

    /// Every `((l, r), count)`, ascending by `(l, r)`.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = ((Vid, Vid), i64)> + '_ {
        let base = self.base.iter().map(|(l, r, m)| ((l, r), i64::from(m)));
        let mut lefts: Vec<Vid> = self.overlay.keys().copied().collect();
        lefts.sort_unstable();
        let adj = lefts.into_iter().flat_map(|l| {
            let changes = self.overlay[&l].iter();
            changes.map(move |&(r, d)| ((l, r), i64::from(d)))
        });
        merge(base, adj)
    }

    /// The transposed key set: `(r, l)` with count 1 for every pair.
    pub(crate) fn transposed_keys(&self) -> Self {
        Self::from(Bag::transposed(|| {
            self.pairs().map(|((l, r), _)| (l, r, 1))
        }))
    }

    /// Every pair, ascending. With `mirrored` the bag keeps each pair of a
    /// symmetric relation once, as `(l, r)` with `l ≤ r`, and the pairs
    /// below the diagonal come too: those above it transposed and merged
    /// in, so a walk of the whole relation sees every left id's run in
    /// order.
    pub(crate) fn keys(&self, mirrored: bool) -> impl Iterator<Item = (Vid, Vid)> + '_ {
        let above = || {
            let above = self.pairs().filter(|&((l, r), _)| l < r);
            above.map(|((l, r), _)| (l, r, 1))
        };
        let below = if mirrored {
            Bag::transposed(above)
        } else {
            Bag::default()
        };
        let below = below.into_pairs().map(|(l, r, m)| ((l, r), i64::from(m)));
        merge(self.pairs(), below).map(|(pair, _)| pair)
    }
}

impl ByteSize for CountedRuns {
    fn heap_bytes(&self) -> usize {
        self.base.heap_bytes() + self.overlay.heap_bytes()
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
    use super::{CountedRuns, MERGE_MIN};
    use crate::error::PatchError;
    use graphgen_common::SplitMix64;
    use graphgen_reldb::exec::{pack, unpack, BagBuilder};
    use std::collections::{BTreeMap, BTreeSet};

    /// The operator bag of `pairs` (strictly ascending keys, counts in
    /// `1..=u32::MAX`), kept.
    fn runs_of<'a>(pairs: impl IntoIterator<Item = (&'a u64, &'a i64)>) -> CountedRuns {
        let mut bag = BagBuilder::default();
        for (&key, &m) in pairs {
            let (l, r) = unpack(key);
            bag.push(l, r, m as u32);
        }
        CountedRuns::from(bag.finish())
    }

    /// Every `(key, count)` of `runs`, ascending by key.
    fn entries(runs: &CountedRuns) -> Vec<(u64, i64)> {
        runs.pairs().map(|((l, r), m)| (pack(l, r), m)).collect()
    }

    /// Compare every read of `runs` against the model.
    fn check(runs: &CountedRuns, model: &BTreeMap<u64, i64>, what: &str) {
        let all: Vec<(u64, i64)> = model.iter().map(|(&k, &m)| (k, m)).collect();
        assert_eq!(entries(runs), all, "{what}: iteration");
        assert_eq!(runs.len, model.len(), "{what}: len");
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
        let keys: Vec<(u64, i64)> = flipped.iter().map(|&(k, _)| (k, 1)).collect();
        let tk = runs.transposed_keys();
        assert_eq!(entries(&tk), keys, "{what}: key transpose");
        for &(k, _) in &flipped {
            assert_eq!(tk.get(k), 1, "{what}: transposed get");
        }
    }

    /// Random signed adds over a small id space (so keys repeat, counts
    /// return to zero and rise again), long enough to cross the merge
    /// threshold many times, checked against a `BTreeMap` after every add;
    /// an add driving a count negative must be refused.
    #[test]
    fn counted_runs_match_a_btreemap_model() {
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
            let mut runs = runs_of(&model);
            check(&runs, &model, &format!("seed {seed}: base"));
            let (mut merges, mut refused) = (0, 0);
            for step in 0..1500 {
                let key = key(&mut rng);
                let d = rng.next_below(7) as i64 - 3;
                let have = model.get(&key).copied().unwrap_or(0);
                let overlay_before = runs.overlay_len;
                let result = runs.add(key, d, "count");
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
        let mut runs = runs_of(&BTreeMap::from([(pack(1, 2), 2), (pack(3, 0), 1)]));
        assert_eq!(runs.add(pack(1, 2), -1, "count"), Ok(2));
        for (key, d) in [(pack(1, 2), -2), (pack(9, 9), -1)] {
            let err = runs.add(key, d, "count");
            assert!(matches!(err, Err(PatchError::Inconsistent(_))));
        }
        assert_eq!(runs.get(pack(1, 2)), 1);
        assert_eq!(runs.get(pack(9, 9)), 0);
        assert_eq!(runs.len, 2);
        // The overlay holds one entry; this many more force a merge, and
        // the base takes them over.
        for r in 0..MERGE_MIN as u32 {
            runs.add(pack(5, r), 1, "count").unwrap();
        }
        assert!(runs.overlay.is_empty());
        assert_eq!(runs.len, MERGE_MIN + 2);
        assert_eq!(runs.run(5).count(), MERGE_MIN);
        assert_eq!(runs.get(pack(1, 2)), 1);
    }

    /// A count may reach `u32::MAX` but not pass it: an add past it is
    /// refused as `Overflow` and leaves the bag unchanged. A change too
    /// large for the overlay's `i32` folds the overlay and lands in the
    /// base, also for a left id beyond the offsets.
    #[test]
    fn an_add_past_the_count_limit_is_refused_and_leaves_the_bag_unchanged() {
        let top = i64::from(u32::MAX);
        let mut model = BTreeMap::from([(pack(1, 2), top - 5), (pack(3, 0), 1)]);
        let mut runs = runs_of(&model);
        // Small changes in the overlay, for the folds below to carry.
        for (key, d) in [(pack(0, 4), 2), (pack(3, 0), 1), (pack(6, 1), 1)] {
            assert_eq!(
                runs.add(key, d, "count"),
                Ok(model.get(&key).copied().unwrap_or(0))
            );
            *model.entry(key).or_insert(0) += d;
        }
        for (key, d) in [(pack(1, 2), 6), (pack(4, 4), top + 1), (pack(3, 0), top)] {
            let err = runs.add(key, d, "count");
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
            assert_eq!(runs.add(key, d, "count"), Ok(old));
            match old + d {
                0 => model.remove(&key),
                n => model.insert(key, n),
            };
            check(&runs, &model, &format!("add {d}"));
        }
    }

    /// A bag holding the upper half of a symmetric relation gives every
    /// key of the relation, ascending, through `keys(true)`, also through
    /// its overlay; `keys(false)` gives the bag's own.
    #[test]
    fn mirrored_keys_are_both_orientations_ascending() {
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
        let mut runs = runs_of(kept.iter().map(|(k, m)| (k, m)));
        assert!(runs
            .keys(true)
            .map(|(l, r)| pack(l, r))
            .eq(full.iter().copied()));
        assert!(runs
            .keys(false)
            .map(|(l, r)| pack(l, r))
            .eq(kept.iter().map(|&(key, _)| key)));
        let (added, gone) = (pack(3, 41), kept[5].0);
        runs.add(added, 1, "count").unwrap();
        runs.add(gone, -2, "count").unwrap();
        let (l, r) = unpack(gone);
        full.extend([added, pack(41, 3)]);
        full.retain(|&key| key != gone && key != pack(r, l));
        assert!(runs
            .keys(true)
            .map(|(l, r)| pack(l, r))
            .eq(full.iter().copied()));
    }
}
