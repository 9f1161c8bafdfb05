//! RAII span timers: nestable and thread-safe. A closing span adds its
//! duration to the registry's totals for its stack path — the one record
//! of it, which [`crate::span_tree`] reads and the run ledger's `run_end`
//! line carries.
//!
//! Every thread keeps a **live span stack** — the names of its
//! currently-open spans, rooted at an optional *base stack* installed by
//! `rhsd-par` when a task is handed to a worker. Each closing span
//! records its full path (`outer;inner;leaf`), whose per-path totals
//! [`crate::span_tree`] renders as a hierarchical attribution tree that
//! is identical at any worker-thread count. Only the owning thread reads
//! its stack, so it is a plain thread-local with no lock.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{enabled, registry, WallClock};

/// Separator between frames in a span path (Brendan-Gregg collapsed
/// stack convention). Span names must not contain it.
pub const PATH_SEP: char = ';';

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's logical id in span totals and ledger lines.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Open frames, base (inherited) frames first.
    static FRAMES: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn with_frames<R>(f: impl FnOnce(&mut Vec<String>) -> R) -> R {
    FRAMES.with(|frames| f(&mut frames.borrow_mut()))
}

/// Snapshot of the current thread's live span stack (base frames first).
/// Used by `rhsd-par` to propagate the submitting thread's stack onto
/// workers; empty while no spans are open.
pub fn current_stack() -> Vec<String> {
    with_frames(|frames| frames.clone())
}

/// Installs `frames` as the current thread's base span stack for the
/// guard's lifetime. Spans opened while the guard is alive nest under
/// the base frames in their span paths — this is how `rhsd-par` workers
/// attribute task time to the submitting thread's open spans. No-op for
/// an empty `frames`.
pub fn base_stack(frames: &[String]) -> BaseStackGuard {
    if frames.is_empty() {
        return BaseStackGuard { pushed: 0 };
    }
    with_frames(|live| live.extend(frames.iter().cloned()));
    BaseStackGuard {
        pushed: frames.len(),
    }
}

/// RAII guard of an installed base stack (see [`base_stack`]).
pub struct BaseStackGuard {
    pushed: usize,
}

impl Drop for BaseStackGuard {
    fn drop(&mut self) {
        if self.pushed == 0 {
            return;
        }
        with_frames(|frames| {
            let keep = frames.len().saturating_sub(self.pushed);
            frames.truncate(keep);
        });
    }
}

/// Opens a span; the returned guard records the span on drop.
///
/// While observability is disabled this is a no-op costing one atomic
/// load. Spans opened on the same thread nest: each guard pushes the
/// span's name onto the thread's live stack and its drop pops it, so
/// guards must drop in reverse open order (the natural RAII scoping).
pub fn span(name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    let path = with_frames(|frames| {
        frames.push(name.into().into_owned());
        let mut path = String::with_capacity(frames.iter().map(|f| f.len() + 1).sum());
        for (i, f) in frames.iter().enumerate() {
            if i > 0 {
                path.push(PATH_SEP);
            }
            path.push_str(f);
        }
        path
    });
    let tid = TID.with(|tid| *tid);
    SpanGuard {
        inner: Some(SpanInner {
            path,
            start: WallClock::now(),
            tid,
        }),
    }
}

struct SpanInner {
    path: String,
    start: WallClock,
    tid: u64,
}

/// RAII guard of an open span (see [`span`]).
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

impl SpanGuard {
    /// Seconds elapsed since the span opened (0.0 while disabled).
    pub fn elapsed_secs(&self) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |i| i.start.elapsed().as_secs_f64())
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_secs = inner.start.elapsed().as_secs_f64();
        with_frames(|frames| frames.pop());
        registry().close_span(&inner.path, inner.tid, dur_secs);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialises tests that touch the global registry/enabled flag.
    pub(crate) fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = global_lock();
        crate::set_enabled(false);
        crate::reset();
        {
            let s = span("off");
            assert_eq!(s.elapsed_secs(), 0.0);
        }
        crate::counter("off-counter", 1);
        crate::record("off-hist", 1.0);
        let snap = crate::snapshot();
        assert!(crate::span_tree().is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(current_stack().is_empty());
    }

    #[test]
    fn nested_spans_record_depth_path_and_containment() {
        let _g = global_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
                assert_eq!(current_stack(), vec!["outer", "inner"]);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let tree = crate::span_tree();
        crate::set_enabled(false);
        assert_eq!(
            tree.shape(),
            vec![("outer".to_owned(), 1), ("outer;inner".to_owned(), 1)]
        );
        let outer = &tree.roots["outer"];
        let inner = &outer.children["inner"];
        // both ran on this thread
        assert_eq!(outer.by_thread.len(), 1);
        assert_eq!(
            inner.by_thread.keys().collect::<Vec<_>>(),
            outer.by_thread.keys().collect::<Vec<_>>()
        );
        // time containment: the outer span covers the inner one
        assert!(outer.incl_secs >= inner.incl_secs);
        assert!(inner.incl_secs > 0.0);
        assert!(current_stack().is_empty(), "stack unwinds with the guards");
    }

    #[test]
    fn span_totals_stay_exact_past_any_close_count() {
        let _g = global_lock();
        crate::set_enabled(true);
        crate::reset();
        // More closes than the 2^18 an in-memory event buffer once kept.
        const CLOSES: u64 = 300_000;
        for _ in 0..CLOSES {
            let _s = span("bounded");
        }
        let tree = crate::span_tree();
        crate::set_enabled(false);
        crate::reset();
        assert_eq!(tree.shape(), vec![("bounded".to_owned(), CLOSES)]);
        let bounded = &tree.roots["bounded"];
        assert!(bounded.incl_secs > 0.0);
        assert_eq!(bounded.by_thread.len(), 1);
        assert_eq!(bounded.by_thread.values().sum::<f64>(), bounded.incl_secs);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test needs threads outside the pool"
    )]
    fn threads_get_distinct_tids() {
        let _g = global_lock();
        crate::set_enabled(true);
        crate::reset();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = span("worker");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let tree = crate::span_tree();
        crate::set_enabled(false);
        assert_eq!(tree.shape(), vec![("worker".to_owned(), 2)]);
        assert_eq!(tree.roots["worker"].by_thread.len(), 2);
    }

    #[test]
    fn base_stack_prefixes_paths_and_unwinds() {
        let _g = global_lock();
        crate::set_enabled(true);
        crate::reset();
        let base: Vec<String> = vec!["scan".into(), "scan-region".into()];
        {
            let _b = base_stack(&base);
            assert_eq!(current_stack(), base);
            let _s = span("cpn");
            assert_eq!(current_stack(), vec!["scan", "scan-region", "cpn"]);
        }
        assert!(current_stack().is_empty());
        let tree = crate::span_tree();
        crate::set_enabled(false);
        assert_eq!(
            tree.shape(),
            vec![
                ("scan".to_owned(), 0),
                ("scan;scan-region".to_owned(), 0),
                ("scan;scan-region;cpn".to_owned(), 1),
            ]
        );
    }

    #[test]
    fn empty_base_stack_is_a_no_op() {
        let _g = global_lock();
        let before = current_stack();
        {
            let _b = base_stack(&[]);
            assert_eq!(current_stack(), before);
        }
        assert_eq!(current_stack(), before);
    }
}
