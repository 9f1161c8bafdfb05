//! In-process sampling profiler.
//!
//! A background thread wakes at a configurable rate (default off), reads
//! every registered thread's live span stack (see [`crate::span`]), and
//! accumulates `stack path → sample count`. The result exports as
//! Brendan-Gregg collapsed-stacks text (pipe into `flamegraph.pl` or any
//! flame-graph viewer) and as a self-contained HTML icicle chart with no
//! external assets.
//!
//! The sampler only ever *reads* shared state — it takes no RNG, touches
//! no pipeline data, and never blocks a worker beyond a brief stack-lock
//! hand-off — so a profiled run is bit-identical to an unprofiled one
//! (pinned by the `profile_integration` tests).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::span::{sample_stacks, PATH_SEP};

/// Default sampling rate in Hz (prime, to avoid phase-locking with
/// periodic pipeline work).
pub const DEFAULT_HZ: u32 = 97;

/// Why a `--profile=<hz>` rate string was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RateError {
    /// The string is empty or not an unsigned integer.
    NotANumber(String),
    /// The string parsed as a number, but the rate is zero or negative.
    NotPositive(String),
}

impl std::fmt::Display for RateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RateError::NotANumber(s) => {
                write!(f, "`{s}` is not a number (expected a Hz rate like 97)")
            }
            RateError::NotPositive(s) => {
                write!(f, "sampling rate must be a positive integer, got `{s}`")
            }
        }
    }
}

impl std::error::Error for RateError {}

/// Parses a sampling rate in Hz: a positive integer. Zero, negative and
/// non-numeric inputs get a typed [`RateError`] so callers can print a
/// precise message. ([`Profiler::start`] additionally clamps the rate to
/// 1..=10_000 at spawn time.)
pub fn parse_rate(s: &str) -> Result<u32, RateError> {
    let t = s.trim();
    if let Some(digits) = t.strip_prefix('-') {
        // "-5" fails a u32 parse, but the user wrote a number — classify
        // it as non-positive, not non-numeric.
        return Err(
            if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
                RateError::NotPositive(s.to_owned())
            } else {
                RateError::NotANumber(s.to_owned())
            },
        );
    }
    match t.parse::<u32>() {
        Ok(0) => Err(RateError::NotPositive(s.to_owned())),
        Ok(n) => Ok(n),
        Err(_) => Err(RateError::NotANumber(s.to_owned())),
    }
}

/// The finished output of a sampling session.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Sampling rate the session ran at.
    pub hz: u32,
    /// Wall-clock length of the session in seconds.
    pub duration_secs: f64,
    /// Samples per `;`-joined stack path, deterministic order.
    pub stacks: BTreeMap<String, u64>,
    /// Total per-thread samples taken (including idle).
    pub total_samples: u64,
    /// Samples that found a thread with no open span.
    pub idle_samples: u64,
}

impl Profile {
    /// Brendan-Gregg collapsed-stacks text: one `path count` line per
    /// stack, `;`-separated frames, sorted by path.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (path, count) in &self.stacks {
            out.push_str(path);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// Samples attributed to at least one open span.
    pub fn busy_samples(&self) -> u64 {
        self.total_samples.saturating_sub(self.idle_samples)
    }

    /// A self-contained HTML icicle/flame chart (inline CSS, no external
    /// assets, no scripts): depth grows downward, width is proportional
    /// to the sample share, hover shows exact counts.
    pub fn flame_html(&self, title: &str) -> String {
        let root = FlameNode::build(&self.stacks);
        let total = root.samples.max(1);
        let mut rows: Vec<String> = Vec::new();
        let mut max_depth = 0usize;
        root.emit(0.0, total, 0, &mut rows, &mut max_depth);
        let mut html = String::with_capacity(4096 + rows.len() * 96);
        html.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
        html.push_str(&format!("<title>{}</title>\n", html_escape(title)));
        html.push_str(
            "<style>\n\
             body{font:13px/1.4 system-ui,sans-serif;margin:16px;background:#fff;color:#222}\n\
             .chart{position:relative;border:1px solid #ccc;overflow:hidden}\n\
             .f{position:absolute;height:18px;box-sizing:border-box;border:1px solid #fff;\
             overflow:hidden;white-space:nowrap;text-overflow:ellipsis;font-size:11px;\
             padding:1px 3px;color:#402}\n\
             .meta{color:#666;margin:6px 0 12px}\n\
             </style>\n</head>\n<body>\n",
        );
        html.push_str(&format!("<h1>{}</h1>\n", html_escape(title)));
        html.push_str(&format!(
            "<p class=\"meta\">{} Hz &middot; {:.2}s &middot; {} samples \
             ({} busy, {} idle)</p>\n",
            self.hz,
            self.duration_secs,
            self.total_samples,
            self.busy_samples(),
            self.idle_samples,
        ));
        let height = (max_depth + 1) * 18;
        html.push_str(&format!(
            "<div class=\"chart\" style=\"height:{height}px\">\n"
        ));
        for row in &rows {
            html.push_str(row);
            html.push('\n');
        }
        html.push_str("</div>\n");
        if self.stacks.is_empty() {
            html.push_str("<p class=\"meta\">(no busy samples were collected)</p>\n");
        }
        html.push_str("</body>\n</html>\n");
        html
    }
}

/// Aggregation tree behind the flame chart.
struct FlameNode {
    samples: u64,
    children: BTreeMap<String, FlameNode>,
}

impl FlameNode {
    fn build(stacks: &BTreeMap<String, u64>) -> FlameNode {
        let mut root = FlameNode {
            samples: 0,
            children: BTreeMap::new(),
        };
        for (path, count) in stacks {
            root.samples += count;
            let mut node = &mut root;
            for frame in path.split(PATH_SEP) {
                node = node.children.entry(frame.to_owned()).or_insert(FlameNode {
                    samples: 0,
                    children: BTreeMap::new(),
                });
                node.samples += count;
            }
        }
        root
    }

    /// Emits one absolutely-positioned div per node (depth-first,
    /// children left-to-right in name order).
    fn emit(
        &self,
        left_pct: f64,
        total: u64,
        depth: usize,
        rows: &mut Vec<String>,
        max_depth: &mut usize,
    ) {
        let mut cursor = left_pct;
        for (name, child) in &self.children {
            let width = child.samples as f64 * 100.0 / total as f64;
            let hue = color_hue(name);
            rows.push(format!(
                "<div class=\"f\" style=\"left:{cursor:.4}%;top:{}px;width:{width:.4}%;\
                 background:hsl({hue},70%,78%)\" title=\"{} — {} samples ({width:.1}%)\">{}</div>",
                depth * 18,
                html_escape(name),
                child.samples,
                html_escape(name),
            ));
            *max_depth = (*max_depth).max(depth);
            child.emit(cursor, total, depth + 1, rows, max_depth);
            cursor += width;
        }
    }
}

/// Deterministic frame-name hue (FNV-1a over the name), so a name keeps
/// its colour across charts.
pub fn color_hue(name: &str) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % 360) as u32
}

/// Escapes `s` for HTML text and attribute values.
pub fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// A running sampling session; stop it to obtain the [`Profile`].
pub struct Profiler {
    stop: Arc<AtomicBool>,
    /// `None` when the sampler thread could not be spawned — profiling
    /// is best-effort and must never take the instrumented process down.
    handle: Option<JoinHandle<Profile>>,
}

impl Profiler {
    /// Spawns the sampler thread at `hz` samples per second (clamped to
    /// 1..=10_000). If the OS refuses the thread, the session degrades
    /// to a no-op whose [`Profiler::stop`] yields an empty profile.
    pub fn start(hz: u32) -> Profiler {
        let hz = hz.clamp(1, 10_000);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("rhsd-profiler".into())
            .spawn(move || sampler_loop(hz, &stop2))
            .ok();
        Profiler { stop, handle }
    }

    /// Stops the sampler and returns the collected profile (empty if
    /// the sampler thread never started or panicked).
    pub fn stop(self) -> Profile {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .and_then(|h| h.join().ok())
            .unwrap_or_else(|| Profile {
                hz: 0,
                duration_secs: 0.0,
                stacks: BTreeMap::new(),
                total_samples: 0,
                idle_samples: 0,
            })
    }
}

fn sampler_loop(hz: u32, stop: &AtomicBool) -> Profile {
    let interval = Duration::from_secs_f64(1.0 / f64::from(hz));
    let started = Instant::now();
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    let mut total = 0u64;
    let mut idle = 0u64;
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(interval);
        for (_tid, frames) in sample_stacks() {
            total += 1;
            if frames.is_empty() {
                idle += 1;
            } else {
                *stacks.entry(frames.join(";")).or_insert(0) += 1;
            }
        }
    }
    Profile {
        hz,
        duration_secs: started.elapsed().as_secs_f64(),
        stacks,
        total_samples: total,
        idle_samples: idle,
    }
}

/// Process-global profiler slot used by the repro binaries (mirrors the
/// global ledger sink: one profiled run per process at a time).
fn global_slot() -> &'static Mutex<Option<Profiler>> {
    static SLOT: OnceLock<Mutex<Option<Profiler>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Starts the process-global sampler at `hz`; replaces (and discards)
/// any session already running.
pub fn start_global(hz: u32) {
    let mut slot = global_slot().lock().unwrap_or_else(|p| p.into_inner());
    if let Some(old) = slot.take() {
        let _ = old.stop();
    }
    *slot = Some(Profiler::start(hz));
}

/// Stops the process-global sampler, returning its profile (or `None`
/// when no session was running).
pub fn stop_global() -> Option<Profile> {
    let mut slot = global_slot().lock().unwrap_or_else(|p| p.into_inner());
    slot.take().map(Profiler::stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::tests::global_lock;

    #[test]
    fn parse_rate_accepts_positive_integers() {
        assert_eq!(parse_rate("97"), Ok(97));
        assert_eq!(parse_rate("1"), Ok(1));
        assert_eq!(parse_rate(" 250 "), Ok(250), "surrounding whitespace ok");
        assert_eq!(parse_rate("10000"), Ok(10_000));
    }

    #[test]
    fn parse_rate_rejects_zero_negative_and_non_numeric() {
        assert_eq!(parse_rate("0"), Err(RateError::NotPositive("0".to_owned())));
        assert_eq!(
            parse_rate("-5"),
            Err(RateError::NotPositive("-5".to_owned()))
        );
        for bad in ["", "fast", "9.5", "-", "-x", "1e3"] {
            assert_eq!(
                parse_rate(bad),
                Err(RateError::NotANumber(bad.to_owned())),
                "{bad:?} must be non-numeric"
            );
        }
        // The typed errors render actionable messages.
        let msg = RateError::NotPositive("0".to_owned()).to_string();
        assert!(msg.contains("positive"), "{msg}");
        let msg = RateError::NotANumber("fast".to_owned()).to_string();
        assert!(msg.contains("fast"), "{msg}");
    }

    #[test]
    fn sampler_captures_open_spans() {
        let _g = global_lock();
        crate::set_enabled(true);
        crate::reset();
        let profiler = Profiler::start(500);
        {
            let _outer = crate::span("prof-outer");
            let _inner = crate::span("prof-inner");
            std::thread::sleep(Duration::from_millis(40));
        }
        let profile = profiler.stop();
        crate::set_enabled(false);
        crate::reset();
        assert!(profile.total_samples > 0, "sampler took samples");
        let hit = profile
            .stacks
            .keys()
            .any(|k| k.ends_with("prof-outer;prof-inner"));
        assert!(hit, "expected nested stack in {:?}", profile.stacks);
        let collapsed = profile.collapsed();
        assert!(collapsed.contains("prof-outer;prof-inner "), "{collapsed}");
        // Every collapsed line is `path count`.
        for line in collapsed.lines() {
            let (path, count) = line.rsplit_once(' ').expect("line has a count");
            assert!(!path.is_empty());
            assert!(count.parse::<u64>().is_ok(), "bad count in {line:?}");
        }
    }

    #[test]
    fn idle_threads_count_as_idle_samples() {
        let _g = global_lock();
        crate::set_enabled(true);
        crate::reset();
        // Register this thread with the sampler: a thread appears in
        // the stack registry once it has opened at least one span. The
        // span is closed again before sampling starts, so every sample
        // of this thread observes an empty stack — i.e. idle.
        drop(crate::span("prof-idle-warmup"));
        let profiler = Profiler::start(500);
        std::thread::sleep(Duration::from_millis(30));
        let profile = profiler.stop();
        crate::set_enabled(false);
        assert!(profile.total_samples > 0);
        assert!(profile.idle_samples > 0, "no open spans → idle samples");
    }

    #[test]
    fn flame_html_is_self_contained_and_escaped() {
        let mut stacks = BTreeMap::new();
        stacks.insert("scan;cpn".to_owned(), 30u64);
        stacks.insert("scan;raster".to_owned(), 10u64);
        stacks.insert("train<x>".to_owned(), 60u64);
        let profile = Profile {
            hz: 97,
            duration_secs: 1.0,
            stacks,
            total_samples: 100,
            idle_samples: 0,
        };
        let html = profile.flame_html("unit \"test\" & co");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>\n"));
        assert!(html.contains("unit &quot;test&quot; &amp; co"));
        assert!(html.contains("train&lt;x&gt;"));
        assert!(!html.contains("<script"), "chart must not need scripts");
        assert!(!html.contains("http"), "chart must not fetch assets");
        // scan got 40/100 samples → its div is 40% wide.
        assert!(html.contains("width:40.0000%"), "{html}");
    }

    #[test]
    fn empty_profile_renders_without_divs() {
        let profile = Profile {
            hz: 97,
            duration_secs: 0.5,
            stacks: BTreeMap::new(),
            total_samples: 12,
            idle_samples: 12,
        };
        assert_eq!(profile.collapsed(), "");
        let html = profile.flame_html("empty");
        assert!(html.contains("no busy samples"));
        assert!(html.starts_with("<!DOCTYPE html>"));
    }

    #[test]
    fn global_slot_start_stop_roundtrip() {
        let _g = global_lock();
        crate::set_enabled(true);
        assert!(stop_global().is_none());
        start_global(200);
        std::thread::sleep(Duration::from_millis(10));
        let p = stop_global().expect("session was running");
        assert_eq!(p.hz, 200);
        assert!(stop_global().is_none());
        crate::set_enabled(false);
    }
}
