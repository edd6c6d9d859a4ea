//! Offline stand-in for `rayon`, covering the parallelism subset this
//! workspace uses — now backed by a **persistent work-stealing thread
//! pool** ([`pool`]) instead of per-call scoped threads.
//!
//! Supported surface:
//!
//! * `slice.par_iter()` / `vec.par_iter()` — borrowed items;
//! * `vec.into_par_iter()` — owned items (bulk line construction);
//! * `slice.par_chunks(n)` — contiguous subslices;
//! * `.map(..)` / `.filter_map(..)` / `.enumerate()` → `.collect()`,
//!   always flattening per-item outputs **in input order** — the same
//!   ordering guarantee rayon's indexed parallel iterators provide, and
//!   the root of this workspace's thread-count-invariance contract;
//! * [`join`] — two-way fork-join. **Extends rayon:** its caller-side
//!   closure need not be `Send` (this pool never moves it off the calling
//!   thread); the golden search's overlapped probe relies on that, so the
//!   workspace no longer builds against upstream rayon unchanged;
//! * [`current_num_threads`] / [`with_threads`] — parallelism
//!   introspection and a scoped per-thread override (`SBP_THREADS` sets
//!   the process default; see [`pool`] for the full contract).
//!
//! Work is split into contiguous chunks — several per worker, so the
//! pool's stealing can rebalance non-uniform loads — executed on the
//! persistent workers, and concatenated in input order. With an
//! effective parallelism of 1 every combinator degenerates to an inline
//! loop on the caller with zero pool interaction.

pub mod pool;

pub use pool::{current_num_threads, join, with_threads};

/// Everything call sites need in scope.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, ParFilterMap, ParIter, ParMap, ParallelSlice,
    };
}

/// `&collection → parallel iterator` entry point (`par_iter`).
pub trait IntoParallelRefIterator<'data> {
    /// Item yielded by the parallel iterator.
    type Item: Send + 'data;
    /// Produces the parallel iterator.
    fn par_iter(&'data self) -> ParIter<Self::Item>;
}

impl<'data, T: Sync + Send + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'data, T: Sync + Send + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        self.as_slice().par_iter()
    }
}

/// `collection → parallel iterator` over **owned** items
/// (`into_par_iter`) — how the sparse `StorageBuilder` hands each line's
/// raw cell vector to its worker without cloning.
pub trait IntoParallelIterator {
    /// Item yielded by the parallel iterator.
    type Item: Send;
    /// Produces the parallel iterator, consuming the collection.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// Parallel iteration over contiguous subslices (`par_chunks`) — part
/// of the rayon-compatible surface (no workspace kernel uses it today;
/// the fixed-shape reductions chunk by index ranges through `par_iter`).
pub trait ParallelSlice<T: Sync> {
    /// Splits into chunks of at most `chunk_size` items (the last may be
    /// shorter), yielded in order.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync + Send> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        ParIter {
            items: self.chunks(chunk_size.max(1)).collect(),
        }
    }
}

/// A materialized parallel iterator over `T` items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel map preserving input order.
    pub fn map<U, F>(self, f: F) -> ParMap<T, F>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        ParMap { base: self, f }
    }

    /// Parallel filter-map preserving input order.
    pub fn filter_map<U, F>(self, f: F) -> ParFilterMap<T, F>
    where
        U: Send,
        F: Fn(T) -> Option<U> + Sync,
    {
        ParFilterMap { base: self, f }
    }

    /// Pairs every item with its input index (rayon's indexed
    /// `enumerate`), preserving order.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }
}

/// Runs `f` over `items` on the persistent pool, chunked contiguously
/// (several chunks per worker so stealing can rebalance), and returns the
/// per-item outputs flattened in input order. Inline when the effective
/// parallelism is 1.
fn run_chunked<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> Option<U> + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        return items.into_iter().filter_map(f).collect();
    }
    // Over-decompose: ~4 chunks per worker gives the deques something to
    // steal when chunk costs are skewed, at negligible per-chunk cost.
    let target_chunks = (threads * 4).min(n);
    let chunk_len = n.div_ceil(target_chunks);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(target_chunks);
    let mut items = items;
    // Split from the back to avoid shifting; reverse to restore order.
    while items.len() > chunk_len {
        let tail = items.split_off(items.len() - chunk_len);
        chunks.push(tail);
    }
    chunks.push(items);
    chunks.reverse();
    let f = &f;
    let parts: Vec<Vec<U>> = pool::run_batch(
        chunks
            .into_iter()
            .map(|chunk| move || chunk.into_iter().filter_map(f).collect::<Vec<U>>())
            .collect(),
    );
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part);
    }
    out
}

/// Pending parallel map; `collect` executes it.
pub struct ParMap<T, F> {
    base: ParIter<T>,
    f: F,
}

impl<T, U, F> ParMap<T, F>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    /// Executes the map in parallel, preserving input order.
    pub fn collect<C: FromParallel<U>>(self) -> C {
        let f = self.f;
        C::from_vec(run_chunked(self.base.items, |t| Some(f(t))))
    }
}

/// Pending parallel filter-map; `collect` executes it.
pub struct ParFilterMap<T, F> {
    base: ParIter<T>,
    f: F,
}

impl<T, U, F> ParFilterMap<T, F>
where
    T: Send,
    U: Send,
    F: Fn(T) -> Option<U> + Sync,
{
    /// Executes the filter-map in parallel, preserving input order.
    pub fn collect<C: FromParallel<U>>(self) -> C {
        C::from_vec(run_chunked(self.base.items, self.f))
    }
}

/// Collection targets for `collect` (rayon's `FromParallelIterator`,
/// reduced to the shapes used here).
pub trait FromParallel<U> {
    /// Builds the collection from ordered results.
    fn from_vec(v: Vec<U>) -> Self;
}

impl<U> FromParallel<U> for Vec<U> {
    fn from_vec(v: Vec<U>) -> Self {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{join, with_threads};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Every test that wants real pool execution forces 4 workers; the
    /// box CI runs on may expose a single core, which would otherwise
    /// keep everything on the inline path.
    fn pooled<R>(f: impl FnOnce() -> R) -> R {
        with_threads(4, f)
    }

    #[test]
    fn map_preserves_order() {
        pooled(|| {
            let xs: Vec<u64> = (0..10_000).collect();
            let doubled: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
            assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
        });
    }

    #[test]
    fn filter_map_preserves_order_and_drops() {
        pooled(|| {
            let xs: Vec<u32> = (0..1000).collect();
            let evens: Vec<u32> = xs
                .par_iter()
                .filter_map(|&x| (x % 2 == 0).then_some(x))
                .collect();
            assert_eq!(evens.len(), 500);
            assert!(evens.windows(2).all(|w| w[0] < w[1]));
        });
    }

    #[test]
    fn closure_by_reference_works() {
        let xs: Vec<u32> = (0..64).collect();
        let f = |x: &u32| -> Option<u32> { Some(*x + 1) };
        let ys: Vec<u32> = xs.par_iter().filter_map(&f).collect();
        assert_eq!(ys[0], 1);
        assert_eq!(ys.len(), 64);
    }

    #[test]
    fn empty_input() {
        let xs: Vec<u8> = Vec::new();
        let ys: Vec<u8> = xs.par_iter().map(|&x| x).collect();
        assert!(ys.is_empty());
    }

    #[test]
    fn into_par_iter_moves_items() {
        pooled(|| {
            let xs: Vec<Vec<u32>> = (0..256).map(|i| vec![i, i + 1]).collect();
            let sums: Vec<u32> = xs
                .into_par_iter()
                .map(|v| v.into_iter().sum::<u32>())
                .collect();
            assert_eq!(sums[0], 1);
            assert_eq!(sums[255], 511);
            assert_eq!(sums.len(), 256);
        });
    }

    #[test]
    fn par_chunks_covers_slice_in_order() {
        pooled(|| {
            let xs: Vec<u32> = (0..1003).collect();
            let partial: Vec<u32> = xs.par_chunks(64).map(|c| c.iter().sum::<u32>()).collect();
            assert_eq!(partial.len(), 1003usize.div_ceil(64));
            assert_eq!(partial.iter().sum::<u32>(), xs.iter().sum::<u32>());
            // First chunk is exactly 0..64.
            assert_eq!(partial[0], (0..64).sum::<u32>());
        });
    }

    #[test]
    fn enumerate_pairs_input_indices() {
        pooled(|| {
            let xs: Vec<u32> = (100..400).collect();
            let pairs: Vec<(usize, u32)> =
                xs.par_iter().enumerate().map(|(i, &x)| (i, x)).collect();
            assert!(pairs
                .iter()
                .enumerate()
                .all(|(i, &(j, x))| i == j && x == 100 + i as u32));
        });
    }

    #[test]
    fn join_runs_both_sides() {
        pooled(|| {
            let (a, b) = join(|| 2 + 2, || "ok".to_string());
            assert_eq!(a, 4);
            assert_eq!(b, "ok");
        });
    }

    #[test]
    fn nested_join_and_par_iter_do_not_deadlock() {
        pooled(|| {
            let total = AtomicUsize::new(0);
            let (l, r) = join(
                || {
                    let xs: Vec<usize> = (0..128).collect();
                    let ys: Vec<usize> = xs
                        .par_iter()
                        .map(|&x| {
                            let (a, b) = join(|| x, || x + 1);
                            a + b
                        })
                        .collect();
                    ys.into_iter().sum::<usize>()
                },
                || {
                    total.fetch_add(1, Ordering::Relaxed);
                    join(|| 1usize, || 2usize)
                },
            );
            assert_eq!(l, (0..128).map(|x| 2 * x + 1).sum::<usize>());
            assert_eq!(r, (1, 2));
            assert_eq!(total.load(Ordering::Relaxed), 1);
        });
    }

    #[test]
    fn worker_panic_propagates_to_collect() {
        pooled(|| {
            let xs: Vec<u32> = (0..512).collect();
            let res = std::panic::catch_unwind(|| {
                let _: Vec<u32> = xs
                    .par_iter()
                    .map(|&x| {
                        if x == 300 {
                            panic!("boom {x}");
                        }
                        x
                    })
                    .collect();
            });
            let err = res.expect_err("panic must propagate");
            let msg = err.downcast_ref::<String>().expect("panic payload");
            assert!(msg.contains("boom 300"), "got {msg}");
            // The pool survives a panicking batch.
            let ys: Vec<u32> = xs.par_iter().map(|&x| x + 1).collect();
            assert_eq!(ys.len(), 512);
        });
    }

    #[test]
    fn join_propagates_panics_from_either_side() {
        pooled(|| {
            let a = std::panic::catch_unwind(|| join(|| panic!("left"), || 1));
            assert!(a.is_err());
            let b = std::panic::catch_unwind(|| join(|| 1, || panic!("right")));
            assert!(b.is_err());
            // Still usable afterwards.
            assert_eq!(join(|| 1, || 2), (1, 2));
        });
    }

    #[test]
    fn nonuniform_loads_still_produce_ordered_output() {
        // Heavily skewed per-item cost: stealing rebalances, order must
        // still be input order.
        pooled(|| {
            let xs: Vec<u64> = (0..64).collect();
            let ys: Vec<u64> = xs
                .par_iter()
                .map(|&x| {
                    let spins = if x % 16 == 0 { 20_000 } else { 10 };
                    let mut acc = x;
                    for i in 0..spins {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                    }
                    std::hint::black_box(acc);
                    x
                })
                .collect();
            assert_eq!(ys, xs);
        });
    }

    #[test]
    fn with_threads_is_scoped_and_restores() {
        let outside = super::current_num_threads();
        with_threads(3, || {
            assert_eq!(super::current_num_threads(), 3);
            with_threads(1, || assert_eq!(super::current_num_threads(), 1));
            assert_eq!(super::current_num_threads(), 3);
        });
        assert_eq!(super::current_num_threads(), outside);
    }

    #[test]
    fn serial_and_pooled_results_are_identical() {
        let xs: Vec<u64> = (0..4096).collect();
        let work = || -> Vec<u64> {
            xs.par_iter()
                .filter_map(|&x| (x % 3 != 0).then(|| x.wrapping_mul(x)))
                .collect()
        };
        let serial = with_threads(1, work);
        let pooled4 = with_threads(4, work);
        let pooled7 = with_threads(7, work);
        assert_eq!(serial, pooled4);
        assert_eq!(serial, pooled7);
    }
}
