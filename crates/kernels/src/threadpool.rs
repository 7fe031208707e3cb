//! A reusable broadcast worker pool for intra-walk parallelism.
//!
//! One [`QGraph`](crate::QGraph) walk executes nodes **serially** (the
//! DAG's dependency order and the arena's in-place recycling demand it),
//! but the work *inside* a node splits into disjoint output ranges with
//! no cross-range dataflow. Every kernel splits the same way: contiguous
//! **output rows** (output pixels × batch, each row holding all of its
//! output channels in NHWC order) — the im2col gather and the blocked
//! GEMM as much as the direct and depthwise convolutions. `split_rows`
//! is that one split: it partitions the rows, broadcasts them to a fixed
//! team of workers, joins them before the node returns and merges their
//! data-dependent [`OpCounts`] tallies, so the walk stays sequentially
//! consistent while each node uses every core. PULP-NN (Bruschi et al.
//! 2020, arXiv:2007.07759) parallelizes its kernels the same way,
//! splitting the output feature map spatially across cores.
//!
//! A pool attaches in exactly one place:
//! [`ActivationArena::set_pool`](crate::ActivationArena::set_pool). Every
//! node executed through that arena then splits its rows across the
//! pool; without one, every node runs its rows serially.
//!
//! Design constraints, in order:
//!
//! * **bit-identity** — workers produce disjoint row ranges computed with
//!   the exact serial arithmetic; the merge is a concatenation, so any
//!   worker count (including 1) yields byte-identical codes and ledgers;
//! * **allocation-free steady state** — the pool is created once by the
//!   arena's owner and reused for every node of every walk; a broadcast
//!   takes a lock and two condvar signals but never touches the heap,
//!   preserving the `tests/alloc_free.rs` guarantee with `threads ≥ 2`;
//! * **no new dependencies** — plain `std` `Mutex`/`Condvar` epoch
//!   signalling instead of a crossbeam/rayon import.
//!
//! The pool caps at [`MAX_POOL_THREADS`] so the split can keep its
//! partition tables in fixed stack arrays.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::OpCounts;

/// Upper bound on pool width (callers size stack-allocated partition
/// tables as `[usize; MAX_POOL_THREADS + 1]`).
pub const MAX_POOL_THREADS: usize = 32;

/// A type-erased pointer to the broadcast closure. The erased lifetime is
/// sound because [`ThreadPool::broadcast`] blocks until every worker has
/// finished running the closure before returning (and therefore before
/// the closure can be dropped).
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared `&` calls from many threads are
// allowed), and the pointer only crosses threads while `broadcast` keeps
// the underlying closure alive and borrowed.
unsafe impl Send for Job {}

struct State {
    /// Bumped once per broadcast; workers run one job per observed bump.
    epoch: u64,
    job: Option<Job>,
    /// Workers still running the current job.
    remaining: usize,
    /// First panic payload caught from a worker's job this epoch; the
    /// broadcaster re-raises it after the join (allocated by the panic
    /// machinery itself, so the non-panicking path stays heap-free).
    panic_payload: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers: new epoch or shutdown.
    start: Condvar,
    /// Signals the broadcaster: `remaining` hit zero.
    done: Condvar,
    /// Total broadcast-job panics ever caught (any worker, any epoch) —
    /// the observability hook serving-layer supervisors poll to tell a
    /// healthy pool from one that keeps eating poisoned jobs.
    panics: AtomicU64,
}

/// The reusable worker team; see the [module docs](self).
///
/// `ThreadPool::new(n)` spawns `n − 1` OS threads — the broadcasting
/// thread itself always participates as worker 0, so `n = 1` is the
/// serial case with zero threads and zero synchronization.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool of `threads` total workers (including the caller).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or exceeds [`MAX_POOL_THREADS`], or if the
    /// OS refuses to spawn a thread.
    pub fn new(threads: usize) -> ThreadPool {
        assert!(
            (1..=MAX_POOL_THREADS).contains(&threads),
            "thread count must be in 1..={MAX_POOL_THREADS}"
        );
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                remaining: 0,
                panic_payload: None,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            panics: AtomicU64::new(0),
        });
        let handles = (1..threads)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mixq-pool-{worker}"))
                    .spawn(move || worker_loop(worker, &shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            threads,
        }
    }

    /// Total worker count, including the broadcasting thread.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total broadcast-job panics this pool has caught and re-raised so
    /// far, across all workers (the broadcasting thread included). The
    /// pool survives every one of them — this counter lets a serving
    /// supervisor report how often its walks hit poisoned work.
    pub fn panics_observed(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Runs `f(worker)` once per worker (`0..threads()`), the caller
    /// executing worker 0, and returns after **all** workers finished.
    /// Allocation-free. Must not be called reentrantly from inside a
    /// broadcast closure (the pool has a single job slot).
    ///
    /// # Panics
    ///
    /// If `f` panics on any worker, the pool still joins every worker
    /// (so the closure borrow never dangles and the pool stays usable),
    /// then re-raises the panic on the broadcasting thread — worker 0's
    /// own payload first, else the first one a pool thread caught.
    pub fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.threads == 1 {
            f(0);
            return;
        }
        {
            let mut st = self.shared.state.lock().unwrap();
            assert!(st.remaining == 0 && st.job.is_none(), "nested broadcast");
            // SAFETY: erasing the borrow's lifetime into a raw pointer is
            // sound because this function joins all workers (below) before
            // returning — even when `f` panics here or on a worker — so
            // the pointee outlives every dereference.
            st.job = Some(Job(unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
            }));
            st.epoch += 1;
            st.remaining = self.threads - 1;
            self.shared.start.notify_all();
        }
        let local = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(0)));
        let worker_payload = {
            let mut st = self.shared.state.lock().unwrap();
            while st.remaining > 0 {
                st = self.shared.done.wait(st).unwrap();
            }
            st.job = None;
            st.panic_payload.take()
        };
        if let Err(payload) = local {
            self.shared.panics.fetch_add(1, Ordering::Relaxed);
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Splits `buf_a` and `buf_b` at their own split tables (monotone
    /// ascending, starting at 0, ending at the buffer's length, one range
    /// per part, same part count) and runs `f(part, &mut buf_a[..],
    /// &mut buf_b[..])` with each part's disjoint ranges across the pool —
    /// the safe facade `split_rows` uses to let each worker write its
    /// own output rows and its own private scratch. Parts may number fewer
    /// than `threads()`; surplus workers idle. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if either split table is not a monotone cover of its buffer,
    /// the tables disagree on the part count, or parts exceed workers.
    pub fn broadcast_slices2<T, U, F>(
        &self,
        buf_a: &mut [T],
        bounds_a: &[usize],
        buf_b: &mut [U],
        bounds_b: &[usize],
        f: F,
    ) where
        T: Send,
        U: Send,
        F: Fn(usize, &mut [T], &mut [U]) + Sync,
    {
        let parts = bounds_a.len().checked_sub(1).expect("at least one bound");
        assert_eq!(bounds_b.len(), parts + 1, "split tables agree on parts");
        assert!(parts <= self.threads, "more parts than workers");
        for (bounds, len) in [(bounds_a, buf_a.len()), (bounds_b, buf_b.len())] {
            assert!(bounds.windows(2).all(|p| p[0] <= p[1]), "bounds ascend");
            assert_eq!(bounds[0], 0, "bounds start at 0");
            assert_eq!(bounds[parts], len, "bounds cover the buffer");
        }
        let base_a = buf_a.as_mut_ptr() as usize;
        let base_b = buf_b.as_mut_ptr() as usize;
        self.broadcast(&|worker: usize| {
            if worker < parts {
                let (alo, ahi) = (bounds_a[worker], bounds_a[worker + 1]);
                let (blo, bhi) = (bounds_b[worker], bounds_b[worker + 1]);
                // SAFETY: both validated split tables give every part
                // disjoint in-range sub-slices of buffers whose exclusive
                // borrows this call holds (unused) for the whole broadcast.
                let (chunk_a, chunk_b) = unsafe {
                    (
                        std::slice::from_raw_parts_mut((base_a as *mut T).add(alo), ahi - alo),
                        std::slice::from_raw_parts_mut((base_b as *mut U).add(blo), bhi - blo),
                    )
                };
                f(worker, chunk_a, chunk_b);
            }
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.start.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(worker: usize, shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            while !st.shutdown && st.epoch == seen_epoch {
                st = shared.start.wait(st).unwrap();
            }
            if st.shutdown {
                return;
            }
            seen_epoch = st.epoch;
            st.job.expect("job set for new epoch")
        };
        // SAFETY: the broadcaster keeps the closure alive and borrowed
        // until `remaining` reaches zero, which happens strictly after
        // this call returns. A panicking job is caught so `remaining`
        // always reaches zero — otherwise the broadcaster would block on
        // `done` forever; the payload is re-raised on its thread instead.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe { (*job.0)(worker) }));
        let mut st = shared.state.lock().unwrap();
        if let Err(payload) = result {
            shared.panics.fetch_add(1, Ordering::Relaxed);
            st.panic_payload.get_or_insert(payload);
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

/// Fills `bounds[..=parts]` with an even contiguous partition of `n`
/// items over at most `max_parts` parts (each part gets at least one item
/// unless `n == 0`) and returns the part count actually used — the shared
/// split rule of every parallel kernel path, also exported so benches can
/// golden the exact per-thread ranges.
///
/// # Panics
///
/// Panics if `max_parts` is 0 or `bounds` is shorter than `parts + 1`.
pub fn partition_bounds(n: usize, max_parts: usize, bounds: &mut [usize]) -> usize {
    assert!(max_parts > 0, "at least one part");
    let parts = max_parts.min(n).max(1);
    // The first `n % parts` parts take one extra item, so sizes differ by
    // at most one and no part is empty (for `n > 0`).
    let (chunk, rem) = (n / parts, n % parts);
    bounds[0] = 0;
    for i in 0..parts {
        bounds[i + 1] = bounds[i] + chunk + usize::from(i < rem);
    }
    parts
}

/// Runs `f(lo, hi, chunk, part_scratch, tally)` over the output rows
/// `[0, rows)` of `out` — the one intra-walk split of every kernel. `out`
/// holds `rows` equal-length rows; `chunk` is its slice of rows
/// `[lo, hi)` and `part_scratch` a private `scratch_per_part` slice of
/// `scratch` (cleared and resized here), both exclusive to that call.
///
/// Without a pool, or with fewer than two rows, `f` runs once over every
/// row on the caller's thread. With a [`ThreadPool`], [`partition_bounds`]
/// cuts the rows into contiguous blocks, one per worker. Each call counts
/// its data-dependent work (MACs, requantizations, threshold comparisons,
/// loads) into its own `tally`; the tallies are sums over disjoint rows,
/// so the merged total, added into `ops` and returned, is identical for
/// any worker count.
///
/// # Panics
///
/// Panics if `out` does not hold whole rows, or re-raises a panic of `f`.
pub(crate) fn split_rows<F>(
    pool: Option<&ThreadPool>,
    rows: usize,
    out: &mut [u8],
    scratch: &mut Vec<i32>,
    scratch_per_part: usize,
    ops: &mut OpCounts,
    f: F,
) -> OpCounts
where
    F: Fn(usize, usize, &mut [u8], &mut [i32], &mut OpCounts) + Sync,
{
    let row_len = out.len().checked_div(rows).unwrap_or(0);
    assert_eq!(row_len * rows, out.len(), "output holds whole rows");
    let mut row_bounds = [0usize; MAX_POOL_THREADS + 1];
    let parts = partition_bounds(rows, pool.map_or(1, ThreadPool::threads), &mut row_bounds);
    scratch.clear();
    scratch.resize(parts * scratch_per_part, 0);
    let mut tally = OpCounts::default();
    if parts == 1 {
        f(0, rows, out, scratch, &mut tally);
    } else {
        let mut out_bounds = [0usize; MAX_POOL_THREADS + 1];
        let mut scratch_bounds = [0usize; MAX_POOL_THREADS + 1];
        for p in 0..=parts {
            out_bounds[p] = row_bounds[p] * row_len;
            scratch_bounds[p] = p * scratch_per_part;
        }
        let merged = Mutex::new(OpCounts::default());
        pool.expect("several parts imply a pool").broadcast_slices2(
            out,
            &out_bounds[..=parts],
            scratch,
            &scratch_bounds[..=parts],
            |w, chunk, part_scratch| {
                let mut local = OpCounts::default();
                f(
                    row_bounds[w],
                    row_bounds[w + 1],
                    chunk,
                    part_scratch,
                    &mut local,
                );
                *merged.lock().unwrap() += local;
            },
        );
        tally = merged.into_inner().unwrap();
    }
    *ops += tally;
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_runs_every_worker_exactly_once() {
        let pool = ThreadPool::new(4);
        for _ in 0..100 {
            let hits = [const { AtomicUsize::new(0) }; 4];
            pool.broadcast(&|w| {
                hits[w].fetch_add(1, Ordering::SeqCst);
            });
            for h in &hits {
                assert_eq!(h.load(Ordering::SeqCst), 1);
            }
        }
    }

    #[test]
    fn single_thread_pool_is_inline() {
        let pool = ThreadPool::new(1);
        let (mut a, mut b) = (vec![0u32; 10], vec![0u8; 3]);
        pool.broadcast_slices2(&mut a, &[0, 10], &mut b, &[0, 3], |w, ca, cb| {
            assert_eq!(w, 0);
            ca.fill(7);
            cb.fill(1);
        });
        assert_eq!(a, vec![7; 10]);
        assert_eq!(b, vec![1; 3]);
    }

    #[test]
    fn broadcast_slices_parts_are_disjoint_and_cover() {
        // `split_rows` hands every row to exactly one worker, in ascending
        // part order, with a private scratch slice per part, and merges
        // the per-part tallies.
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let mut out = vec![0u8; 31 * 2];
            let mut scratch = Vec::new();
            let mut ops = OpCounts::default();
            let tally = split_rows(
                Some(&pool),
                31,
                &mut out,
                &mut scratch,
                4,
                &mut ops,
                |lo, hi, rows, s, t| {
                    assert_eq!(rows.len(), (hi - lo) * 2);
                    assert_eq!(s.len(), 4);
                    for (r, row) in rows.chunks_exact_mut(2).enumerate() {
                        row.fill((lo + r) as u8);
                    }
                    t.macs += (hi - lo) as u64;
                },
            );
            let expect: Vec<u8> = (0..31u8).flat_map(|r| [r, r]).collect();
            assert_eq!(out, expect, "threads={threads}");
            assert_eq!(tally.macs, 31);
            assert_eq!(ops, tally);
            assert_eq!(scratch.len(), threads.min(31) * 4);
        }
    }

    #[test]
    fn partition_bounds_covers_edge_cases() {
        let mut b = [0usize; MAX_POOL_THREADS + 1];
        assert_eq!(partition_bounds(0, 4, &mut b), 1);
        assert_eq!(&b[..2], &[0, 0]);
        assert_eq!(partition_bounds(3, 8, &mut b), 3);
        assert_eq!(&b[..4], &[0, 1, 2, 3]);
        assert_eq!(partition_bounds(10, 3, &mut b), 3);
        assert_eq!(&b[..4], &[0, 4, 7, 10]);
        assert_eq!(partition_bounds(10, 1, &mut b), 1);
        assert_eq!(&b[..2], &[0, 10]);
        // ceil-chunking would exhaust n early here ([0, 2, 4, 5, 5]);
        // remainder distribution keeps every part non-empty.
        assert_eq!(partition_bounds(5, 4, &mut b), 4);
        assert_eq!(&b[..5], &[0, 2, 3, 4, 5]);
    }

    #[test]
    fn every_part_nonempty_unless_n_is_zero() {
        let mut b = [0usize; MAX_POOL_THREADS + 1];
        for n in 1..200 {
            for max_parts in 1..=MAX_POOL_THREADS {
                let parts = partition_bounds(n, max_parts, &mut b);
                assert_eq!(b[0], 0);
                assert_eq!(b[parts], n);
                assert!(
                    b[..=parts].windows(2).all(|p| p[0] < p[1]),
                    "empty part: n={n} max_parts={max_parts} bounds={:?}",
                    &b[..=parts]
                );
            }
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        // A job that panics on a pool thread (worker 2) must neither hang
        // the broadcast nor poison the pool for later jobs.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.broadcast(&|w| {
                if w == 2 {
                    panic!("boom on worker {w}");
                }
            });
        }));
        let payload = caught.expect_err("worker panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("boom on worker 2"), "payload: {msg}");
        assert_eq!(pool.panics_observed(), 1, "caught panic is counted");
        let counter = AtomicUsize::new(0);
        pool.broadcast(&|_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn pool_is_reusable_across_distinct_jobs() {
        let pool = ThreadPool::new(2);
        let counter = AtomicUsize::new(0);
        pool.broadcast(&|_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        pool.broadcast(&|_| {
            counter.fetch_add(10, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 22);
    }
}
