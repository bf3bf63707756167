//! Deterministic fork-join helpers for the workspace's embarrassingly
//! parallel loops (rayon stand-in).
//!
//! The build container cannot fetch rayon, so the `parallel` cargo feature
//! is backed by this tiny crate instead: `std::thread::scope` fork-join
//! over contiguous chunks, with results stitched back **in input order**.
//! That ordering guarantee is what lets callers promise bit-identical
//! results between serial and parallel runs — the parallel path changes
//! *where* work executes, never the order in which results are combined.
//!
//! Only order-independent workloads belong here. In `agemul` that means
//! period sweeps (each period replays an immutable profile), functional
//! batch-simulation chunks (stateless per pattern), and whole repro figures
//! (each gets its own context). Neither timing kernel — the event-driven
//! `EventSim` nor the levelized `LevelSim` — is fanned out: tri-state
//! hold semantics make every pattern depend on simulator history, and a
//! pattern's dirty cone is far too small to pay for spawning threads
//! inside one step (a per-level fan-out in `LevelSim` once made the
//! parallel build's kernel up to 3.4× slower than the serial one).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads to use: the machine's available parallelism,
/// clamped to the job count (at least 1).
pub fn thread_count(jobs: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(jobs).max(1)
}

/// Maps `f` over `items` on scoped worker threads, returning results in
/// input order.
///
/// Contiguous chunks of `items` are assigned to threads; panics in `f`
/// propagate to the caller (the scope re-raises them). With one item, one
/// hardware thread, or an empty input, this degrades to a plain serial
/// map — same results, no thread spawn.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = thread_count(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    // Ceil-divided contiguous chunks; chunk i starts at i * chunk_len, so
    // concatenating per-chunk outputs reproduces input order exactly.
    let chunk_len = items.len().div_ceil(threads);
    let mut results: Vec<Vec<R>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(|| chunk.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        results = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });
    results.into_iter().flatten().collect()
}

/// Maps `f` over owned `items` on scoped worker threads, returning results
/// in input order.
///
/// Like [`par_map`] but consumes the items, for workloads whose tasks are
/// built per-call (e.g. one repro figure id + fresh context per task).
pub fn par_map_owned<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = thread_count(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    let chunk_len = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut items = items;
    while !items.is_empty() {
        let rest = items.split_off(chunk_len.min(items.len()));
        chunks.push(std::mem::replace(&mut items, rest));
    }

    let mut results: Vec<Vec<R>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(|| chunk.into_iter().map(&f).collect::<Vec<R>>()))
            .collect();
        results = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });
    results.into_iter().flatten().collect()
}

/// Maps `f` over `items` with **dynamic chunk scheduling**: workers claim
/// fixed-size chunks from a shared atomic counter, so a thread that drew
/// cheap items immediately steals the next chunk instead of idling while a
/// neighbour grinds through expensive ones. Results are stitched back in
/// input order (chunks are indexed), preserving the crate's bit-identity
/// contract.
///
/// Use this instead of [`par_map`] when per-item cost is *uneven* — Monte
/// Carlo corners whose dirty cones differ wildly, fault cases of mixed
/// severity. For uniform work the static split has slightly less
/// coordination overhead.
///
/// `chunk` is the claim granularity (clamped to ≥ 1): small enough to
/// balance, large enough to amortize the atomic claim. Panics in `f`
/// propagate to the caller.
pub fn par_map_stealing<T, R, F>(items: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_stealing_with(items, chunk, || (), |(), item| f(item))
}

/// [`par_map_stealing`] with **per-worker state**: each worker thread calls
/// `init` once and threads the resulting scratch through every item it
/// claims. This is the shape the plan-reuse Monte Carlo driver needs — one
/// retimeable simulation kernel per worker, reused across every corner
/// that worker steals, instead of one kernel per corner.
///
/// `f` must produce a result that depends only on the item (the state is
/// *scratch*, not an accumulator); under that contract the output is
/// bit-identical to a serial map regardless of how chunks land on workers.
/// With one thread or an empty input this degrades to a serial map over a
/// single state, no threads spawned.
pub fn par_map_stealing_with<T, R, S, I, F>(items: &[T], chunk: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let threads = thread_count(items.len());
    if threads <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }

    let chunk = chunk.max(1);
    let chunk_count = items.len().div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let mut buckets: Vec<(usize, Vec<R>)> = Vec::with_capacity(chunk_count);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(chunk_count))
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut claimed: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= chunk_count {
                            break;
                        }
                        let start = c * chunk;
                        let end = (start + chunk).min(items.len());
                        claimed.push((
                            c,
                            items[start..end]
                                .iter()
                                .map(|item| f(&mut state, item))
                                .collect(),
                        ));
                    }
                    claimed
                })
            })
            .collect();
        for h in handles {
            buckets.extend(h.join().unwrap());
        }
    });
    // Reassemble in input order: chunk indices are a permutation of
    // 0..chunk_count, so sorting restores the serial result layout.
    buckets.sort_unstable_by_key(|(c, _)| *c);
    buckets.into_iter().flat_map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 3);
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn owned_variant_preserves_order() {
        let items: Vec<String> = (0..57).map(|i| format!("job{i}")).collect();
        let out = par_map_owned(items.clone(), |s| s.len());
        assert_eq!(out, items.iter().map(|s| s.len()).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u8> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[9u8], |&x| x + 1), vec![10]);
    }

    #[test]
    fn matches_serial_map_exactly() {
        let items: Vec<f64> = (0..321).map(|i| f64::from(i) * 0.37).collect();
        let serial: Vec<f64> = items.iter().map(|x| x.sin() * x.cos()).collect();
        let parallel = par_map(&items, |x| x.sin() * x.cos());
        // Bit-identical, not approximately equal: same code on same input.
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.to_bits(), p.to_bits());
        }
    }

    #[test]
    fn thread_count_is_clamped() {
        assert_eq!(thread_count(0), 1);
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(64) >= 1);
    }

    #[test]
    fn stealing_preserves_input_order() {
        let items: Vec<u64> = (0..1003).collect();
        for chunk in [1, 3, 16, 64, 5000] {
            let out = par_map_stealing(&items, chunk, |&x| x * 7 + 1);
            assert_eq!(out, items.iter().map(|&x| x * 7 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn stealing_balances_uneven_work() {
        // Items with wildly different costs still produce ordered results.
        let items: Vec<u32> = (0..257)
            .map(|i| if i % 17 == 0 { 20_000 } else { 10 })
            .collect();
        let spin = |n: u32| (0..n).fold(0u64, |acc, i| acc.wrapping_add(u64::from(i) * 31));
        let serial: Vec<u64> = items.iter().map(|&n| spin(n)).collect();
        let stolen = par_map_stealing(&items, 4, |&n| spin(n));
        assert_eq!(serial, stolen);
    }

    #[test]
    fn stealing_with_state_reuses_worker_scratch() {
        // Each worker's state counts how many items it processed; results
        // must not depend on that distribution.
        let items: Vec<u64> = (0..500).collect();
        let out = par_map_stealing_with(
            &items,
            8,
            || 0u64,
            |seen, &x| {
                *seen += 1;
                assert!(*seen > 0, "state threads through every claimed item");
                x * 2
            },
        );
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn stealing_handles_empty_single_and_zero_chunk() {
        let empty: Vec<u8> = vec![];
        assert!(par_map_stealing(&empty, 0, |&x| x).is_empty());
        assert_eq!(par_map_stealing(&[5u8], 0, |&x| x + 1), vec![6]);
    }
}
