//! Per-thread scratch-buffer pool — the `Workspace` API.
//!
//! Every dense op in this stack needs short-lived `f32` scratch: column
//! matrices, packed GEMM panels, DCT block buffers, the litho aerial
//! intermediate. Allocating those fresh on every call dominates small-op
//! runtime and fragments the heap, so this module keeps a **per-thread,
//! arena-style pool** of retained buffers:
//!
//! * [`take`] hands out a zero-filled buffer of the requested length,
//!   reusing the smallest retained buffer whose capacity suffices
//!   (best fit) and allocating only on a miss;
//! * on a miss, the largest retained buffer (too small, or it would
//!   have been a hit) is retired before the new one is allocated, so a
//!   growing request replaces its predecessor instead of joining it;
//! * dropping the returned [`WsGuard`] gives the buffer back to the
//!   thread's pool, capacity intact, ready for the next op.
//!
//! A thread therefore retains at most as many buffers as it ever held
//! at once, and a repeated sequence of requests stops allocating after
//! a few repetitions: every miss grows the retained capacities, which
//! the largest requests bound.
//!
//! The pool is a `thread_local`, which is exactly the right granularity
//! for `rhsd-par`: each worker thread of the pool warms its own arena
//! once and then reuses it across every chunk it executes, with no
//! locking and no cross-thread contention. Nested pool sections (a
//! parallel op invoked from inside a worker runs inline on that worker)
//! simply take and return buffers on the same thread-local pool —
//! re-entrancy is free because no borrow is held across user code.
//!
//! # Lifetime rules
//!
//! A `WsGuard` must stay strictly scoped to the op that took it: it is
//! scratch, not storage. Results that escape an op (returned `Tensor`s)
//! are allocated normally — the steady-state guarantee is that the
//! *workspace* performs zero allocations once warm, which the
//! [`stats`] counters make observable:
//!
//! * `allocs` — pool misses that allocated or grew a buffer;
//! * `bytes_reused` — bytes served from retained buffers;
//! * `high_water` — peak total bytes retained across all pools.
//!
//! The pool is also one of the four first-class caches in the
//! `rhsd-obs` gauge namespace: every take mirrors into
//! `cache.workspace.hits` / `cache.workspace.misses` /
//! `cache.workspace.evictions` / `cache.workspace.bytes` (plus the
//! `cache.workspace.high_water` delta counter), which the bench record
//! surfaces in its `caches` block.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES_REUSED: AtomicU64 = AtomicU64::new(0);
static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
static HIGH_WATER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TL_ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static TL_BYTES_REUSED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Always-on workspace telemetry, readable without `rhsd-obs` being
/// enabled (the steady-state-allocation test asserts on these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WsStats {
    /// Pool misses that allocated (or grew) a buffer.
    pub allocs: u64,
    /// Bytes served from retained buffers without allocating.
    pub bytes_reused: u64,
    /// Peak total bytes retained across all thread pools.
    pub high_water: u64,
}

/// Reads the global workspace counters (relaxed; exact once quiescent).
pub fn stats() -> WsStats {
    WsStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes_reused: BYTES_REUSED.load(Ordering::Relaxed),
        high_water: HIGH_WATER.load(Ordering::Relaxed),
    }
}

/// Reads the calling thread's own take counters — deterministic even
/// while other threads use their workspaces (`high_water` is global).
pub fn thread_stats() -> WsStats {
    WsStats {
        allocs: TL_ALLOCS.with(|c| c.get()),
        bytes_reused: TL_BYTES_REUSED.with(|c| c.get()),
        high_water: HIGH_WATER.load(Ordering::Relaxed),
    }
}

/// A thread's retained buffers. The wrapper exists for its `Drop`: when
/// a worker thread exits, the bytes it retained leave `CURRENT_BYTES`.
struct PoolCell {
    bufs: Vec<Vec<f32>>,
}

impl Drop for PoolCell {
    fn drop(&mut self) {
        let bytes: u64 = self.bufs.iter().map(|b| b.capacity() as u64 * 4).sum();
        CURRENT_BYTES.fetch_sub(bytes, Ordering::Relaxed);
    }
}

thread_local! {
    static POOL: RefCell<PoolCell> = const { RefCell::new(PoolCell { bufs: Vec::new() }) };
}

/// A scratch buffer on loan from the thread-local pool; returns itself
/// on drop. Derefs to `[f32]`.
pub struct WsGuard {
    buf: Vec<f32>,
}

impl WsGuard {
    /// The buffer as an immutable slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.buf
    }

    /// The buffer as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Deref for WsGuard {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl DerefMut for WsGuard {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for WsGuard {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        if buf.capacity() == 0 {
            return;
        }
        POOL.with(|p| p.borrow_mut().bufs.push(buf));
    }
}

/// Borrows a zero-filled scratch buffer of exactly `len` elements from
/// the current thread's pool, allocating only when no retained buffer
/// has sufficient capacity.
///
/// The returned guard must not outlive the op that took it (see the
/// module docs for the lifetime rules).
pub fn take(len: usize) -> WsGuard {
    let reused = POOL.with(|p| {
        let pool = &mut p.borrow_mut().bufs;
        // Best fit: the smallest retained buffer that can hold `len`.
        let best = pool
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        match best {
            Some(i) => Some(pool.swap_remove(i)),
            None => {
                // Miss: retire the largest retained buffer, which the new
                // allocation supersedes.
                let largest = pool.iter().enumerate().max_by_key(|(_, b)| b.capacity());
                if let Some((i, _)) = largest {
                    let retired = pool.swap_remove(i);
                    CURRENT_BYTES.fetch_sub(retired.capacity() as u64 * 4, Ordering::Relaxed);
                    rhsd_obs::counter("cache.workspace.evictions", 1);
                }
                None
            }
        }
    });
    let mut buf = match reused {
        Some(b) => {
            BYTES_REUSED.fetch_add(len as u64 * 4, Ordering::Relaxed);
            TL_BYTES_REUSED.with(|c| c.set(c.get() + len as u64 * 4));
            rhsd_obs::counter("cache.workspace.hits", 1);
            rhsd_obs::counter("cache.workspace.bytes", len as u64 * 4);
            b
        }
        None => {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            TL_ALLOCS.with(|c| c.set(c.get() + 1));
            rhsd_obs::counter("cache.workspace.misses", 1);
            let b = Vec::with_capacity(len);
            let now = CURRENT_BYTES.fetch_add(len as u64 * 4, Ordering::Relaxed) + len as u64 * 4;
            let prev = HIGH_WATER.fetch_max(now, Ordering::Relaxed);
            if now > prev {
                rhsd_obs::counter("cache.workspace.high_water", now - prev);
            }
            b
        }
    };
    buf.clear();
    buf.resize(len, 0.0);
    WsGuard { buf }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_buffer_of_len() {
        let mut g = take(17);
        assert_eq!(g.len(), 17);
        assert!(g.iter().all(|&v| v == 0.0));
        g.as_mut_slice()[3] = 5.0;
        drop(g);
        // the dirtied buffer comes back zeroed
        let g2 = take(17);
        assert!(g2.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn second_take_reuses_without_allocating() {
        // Thread-local counters: concurrent tests on other threads
        // cannot perturb this thread's pool or its counters.
        let warm = take(4099);
        drop(warm);
        let before = thread_stats();
        let g = take(4099);
        drop(g);
        let after = thread_stats();
        assert_eq!(after.allocs, before.allocs, "steady-state take allocated");
        assert_eq!(after.bytes_reused, before.bytes_reused + 4099 * 4);
    }

    #[test]
    fn nested_takes_use_distinct_buffers() {
        let mut a = take(64);
        let mut b = take(64);
        a.as_mut_slice()[0] = 1.0;
        b.as_mut_slice()[0] = 2.0;
        assert_eq!(a.as_slice()[0], 1.0);
        assert_eq!(b.as_slice()[0], 2.0);
        drop(b);
        drop(a);
    }

    #[test]
    fn reuse_across_nested_pool_sections() {
        // An op that takes a buffer, then runs a "nested" op that takes
        // its own scratch while the outer guard is live — the shape of
        // conv2d_backward's column-gradient buffer staying live across
        // the packed GEMM's block take, whose parallel section executes
        // inline inside a pool worker.
        let nested_op = || {
            let outer = take(2053);
            let inner = take(977);
            assert_eq!(outer.len() + inner.len(), 2053 + 977);
            drop(inner);
            let inner2 = take(977); // nested re-take while outer is live
            drop(inner2);
            drop(outer);
        };
        nested_op(); // warm this thread's pool
        let before = thread_stats();
        nested_op();
        nested_op();
        let after = thread_stats();
        assert_eq!(
            after.allocs, before.allocs,
            "warm nested sections must not allocate"
        );
        assert_eq!(
            after.bytes_reused,
            before.bytes_reused + 2 * (2053 + 2 * 977) * 4
        );
    }

    #[test]
    fn parallel_sections_produce_identical_results_when_warm() {
        // Functional reuse across a real pool section: workers each warm
        // a private pool on the first run; the second run reuses it and
        // must produce identical output.
        let run = || {
            let mut out = vec![0.0f32; 8];
            rhsd_par::for_each_mut(&mut out, 2, |ci, chunk| {
                let g = take(1031); // per-worker scratch, zeroed
                for (i, o) in chunk.iter_mut().enumerate() {
                    *o = g.as_slice()[0] + (ci * 2 + i) as f32;
                }
            });
            out
        };
        assert_eq!(run(), run());
    }

    /// Capacities retained by this thread's pool, ascending.
    fn retained() -> Vec<usize> {
        let mut caps: Vec<usize> =
            POOL.with(|p| p.borrow().bufs.iter().map(|b| b.capacity()).collect());
        caps.sort_unstable();
        caps
    }

    #[test]
    fn miss_retires_the_largest_retained_buffer() {
        // A growing request replaces its predecessor…
        for len in [100, 200, 300] {
            drop(take(len));
        }
        assert_eq!(retained(), vec![300]);
        // …while buffers held at the same time are all kept.
        let outer = take(300);
        let inner = take(50);
        drop(inner);
        drop(outer);
        assert_eq!(retained(), vec![50, 300]);
        // A request above both retires only the larger.
        drop(take(400));
        assert_eq!(retained(), vec![50, 400]);
        let before = thread_stats();
        for len in [50, 300, 400, 10] {
            drop(take(len));
        }
        assert_eq!(
            thread_stats().allocs,
            before.allocs,
            "warm requests allocate"
        );
    }

    #[test]
    fn high_water_is_monotone() {
        let a = stats().high_water;
        let g = take(1 << 16);
        drop(g);
        let b = stats().high_water;
        assert!(b >= a);
        assert!(b > 0);
    }
}
