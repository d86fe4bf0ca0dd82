//! Morsel-driven parallelism helpers (std scoped threads, no external deps).
//!
//! The extraction hot paths — table scans, join probes, delta probes, the
//! dedup preprocessing scan — all follow the same shape, **morsels**: split
//! `0..n` into contiguous ranges, process each range on its own scoped
//! thread, and merge the per-morsel outputs *in morsel order*, so the
//! merged result is byte-identical to a serial run.
//!
//! Centralizing the pattern keeps every parallel operator deterministic and
//! keeps thread management out of the operator code itself.

use std::ops::Range;

/// Below this many items a parallel fan-out costs more in thread spawns than
/// it saves; [`effective_threads`] degrades to serial under it.
pub const MIN_PARALLEL_ITEMS: usize = 1024;

/// Hard ceiling on worker threads, so an absurd request (e.g. a typo'd
/// `GRAPHGEN_THREADS`) cannot exhaust OS thread limits and abort in
/// `scope.spawn`.
pub const MAX_THREADS: usize = 256;

/// Clamp a requested thread count for a workload of `items` units: serial
/// for tiny inputs, at least [`MIN_PARALLEL_ITEMS`] of work per thread,
/// never more than [`MAX_THREADS`], never zero.
pub fn effective_threads(threads: usize, items: usize) -> usize {
    threads_for(threads, items, MIN_PARALLEL_ITEMS)
}

/// [`effective_threads`] with a floor of its own: at least `per_thread`
/// items per thread, for an operator whose fan-out was measured to cost
/// more than it saves below that.
pub fn threads_for(threads: usize, items: usize, per_thread: usize) -> usize {
    threads.min(items / per_thread.max(1)).clamp(1, MAX_THREADS)
}

/// Split `items` into at most `threads` (clamped to `1..=`[`MAX_THREADS`])
/// contiguous near-equal chunks and run `work(base, chunk)` on each —
/// the first on the calling thread, the rest on scoped threads — returning
/// the chunks' results in chunk order. `base` is the index of the chunk's
/// first element; an empty `items` is one empty chunk. Every chunk writes
/// only its own slots, which is what lets parallel kernels promise results
/// identical to a serial run.
pub fn map_chunks<T, R, W>(items: &mut [T], threads: usize, work: W) -> Vec<R>
where
    T: Send,
    R: Send,
    W: Fn(usize, &mut [T]) -> R + Sync,
{
    let chunk = items.len().div_ceil(threads.clamp(1, MAX_THREADS));
    if chunk >= items.len() {
        return vec![work(0, items)];
    }
    map_parts(items.chunks_mut(chunk).collect(), |i, slot| {
        work(i * chunk, slot)
    })
}

/// Run `work(i, part)` on each of `parts` — the first on the calling
/// thread, the rest on one scoped thread each — returning the results in
/// part order. This is the one place a fan-out spawns threads: the caller
/// cuts its input into disjoint parts (at most [`MAX_THREADS`] of them),
/// typically slices of different lengths cut at data-dependent points.
/// Workers inherit the caller's allocation-region label, so the counting
/// allocator attributes their allocations to the operator that fanned out
/// (thread-locals do not propagate on their own).
///
/// # Panics
///
/// If there are more than [`MAX_THREADS`] parts, or a worker panics.
pub fn map_parts<P, R, W>(parts: Vec<P>, work: W) -> Vec<R>
where
    P: Send,
    R: Send,
    W: Fn(usize, P) -> R + Sync,
{
    assert!(parts.len() <= MAX_THREADS, "{} parts", parts.len());
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    if parts.len() == 0 {
        return vec![work(0, first)];
    }
    let region = crate::region::current();
    let work = &work;
    std::thread::scope(|scope| {
        let rest: Vec<_> = (1..)
            .zip(parts)
            .map(|(i, part)| {
                scope.spawn(move || {
                    let _region = crate::region::enter(region);
                    work(i, part)
                })
            })
            .collect();
        let mut results = vec![work(0, first)];
        results.extend(rest.into_iter().map(|h| h.join().expect("worker panicked")));
        results
    })
}

/// Map `f` over contiguous morsels of `0..n` — [`map_chunks`]' chunks of
/// `n` items, as ranges — returning the per-morsel outputs in morsel
/// order. With `threads <= 1` this is a single serial call; the output
/// sequence is identical either way, which is what lets parallel operators
/// promise byte-identical results.
pub fn map_morsels<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    map_chunks(&mut vec![(); n], threads, |base, morsel| {
        f(base..base + morsel.len())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsels_cover_range_in_order() {
        for n in [0usize, 1, 7, 1000, 1025] {
            for parts in [1usize, 2, 3, 8, 9] {
                let ms = map_morsels(n, parts, |r| r);
                let mut next = 0;
                for m in &ms {
                    assert_eq!(m.start, next);
                    next = m.end;
                }
                assert_eq!(next, n);
                assert!(ms.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn map_morsels_matches_serial() {
        let n = 10_000usize;
        let serial: usize = (0..n).sum();
        for threads in [1, 2, 8] {
            let parts = map_morsels(n, threads, |r| r.sum::<usize>());
            assert_eq!(parts.into_iter().sum::<usize>(), serial);
        }
    }

    #[test]
    fn map_morsels_preserves_order() {
        let out = map_morsels(5000, 4, |r| r.collect::<Vec<_>>()).concat();
        assert_eq!(out, (0..5000).collect::<Vec<_>>());
    }

    #[test]
    fn map_parts_runs_uneven_parts_in_order() {
        let mut items: Vec<usize> = (0..100).collect();
        let (a, rest) = items.split_at_mut(7);
        let (b, c) = rest.split_at_mut(90);
        let sums = map_parts(vec![a, b, c], |i, part| {
            part.iter_mut().for_each(|x| *x += i);
            part.iter().sum::<usize>()
        });
        assert_eq!(sums, [21, (7..97).sum::<usize>() + 90, 300]);
        assert_eq!(items[6..8], [6, 8]);
        assert!(map_parts(Vec::<()>::new(), |_, ()| ()).is_empty());
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(8, 10), 1);
        assert_eq!(effective_threads(8, 100_000), 8);
        assert_eq!(effective_threads(0, 100_000), 1);
        // At least MIN_PARALLEL_ITEMS of work per thread...
        assert_eq!(effective_threads(1 << 20, 2048), 2);
        // ...and never more than MAX_THREADS, however huge the input.
        assert_eq!(effective_threads(1 << 20, 1 << 30), MAX_THREADS);
        assert_eq!(threads_for(8, 3 << 14, 1 << 14), 3);
        assert_eq!(threads_for(8, (1 << 14) - 1, 1 << 14), 1);
    }
}
