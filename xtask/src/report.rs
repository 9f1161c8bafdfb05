//! `cargo xtask report`: renders a run ledger as a human-readable run
//! report.
//!
//! Reads the JSONL ledger a repro binary writes (`LEDGER_*.jsonl`),
//! reconstructs the run from its typed events, and prints:
//!
//! - the `run_start` manifest (binary, seed, effort, threads, host);
//! - the span tree from the `run_end` line's per-path totals —
//!   hierarchical inclusive/exclusive wall-clock attribution per stack
//!   path, with the threads that ran each node;
//! - the top exclusive-time span paths (where the run actually spent
//!   its time);
//! - cache-efficiency gauges from the `run_end` counters: hit/miss/
//!   eviction/byte totals and the hit rate per `cache.*` family;
//! - training dynamics from `epoch` events, per training run (a ledger
//!   of several trained networks holds one run each, told apart by the
//!   epoch index starting over) — the loss/lr/grad-norm/entropy
//!   trajectory, the per-layer table from the run's last epoch, and
//!   any divergence-sentinel trips;
//! - the evaluation table (per detector and case);
//! - with `--html <out>`, a self-contained zero-dependency HTML page: an
//!   icicle chart of the span tree (width = inclusive seconds) and the
//!   learning-dynamics dashboard (inline SVG charts, no scripts).
//!
//! A ledger without a `run_end` line (crashed run) still reports
//! everything up to the crash — that is the point of a flushed JSONL
//! stream — but has no span tree: the span totals are written once, at
//! `run_end`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rhsd_obs::json::{parse, Value};
use rhsd_obs::ledger::run_end_spans;
use rhsd_obs::span::PATH_SEP;
use rhsd_obs::spantree::SpanNode;
use rhsd_obs::SpanTree;

/// One per-layer dynamics row from an `epoch` event's `layers` array.
#[derive(Debug, Clone)]
struct LayerRow {
    key: String,
    grad_norm: f64,
    update_ratio: f64,
    weight_norm: f64,
}

/// One `epoch` event. Entropies are `None` on pre-/8 ledgers, which
/// must keep rendering.
#[derive(Debug)]
struct EpochRow {
    epoch: u64,
    mean_loss: f64,
    grad_norm: f64,
    lr: f64,
    pred_entropy: Option<f64>,
    label_entropy: Option<f64>,
    layers: Vec<LayerRow>,
}

/// One divergence-sentinel trip: `(epoch, reason, detail, action)`.
type SentinelRow = (u64, String, String, String);

/// One trained network's `epoch` events and the sentinel trips that
/// follow them.
#[derive(Debug, Default)]
struct TrainingRun {
    /// The detector the epochs name; `None` on ledgers whose epochs
    /// name none.
    detector: Option<String>,
    epochs: Vec<EpochRow>,
    sentinels: Vec<SentinelRow>,
}

impl TrainingRun {
    /// The run's label: its detector's name, else `run n` (1-based).
    fn label(&self, n: usize) -> String {
        self.detector.clone().unwrap_or_else(|| format!("run {n}"))
    }
}

/// Everything extracted from one ledger file.
#[derive(Debug, Default)]
struct LedgerRun {
    manifest: Vec<(String, String)>,
    /// The span tree from `run_end`; empty without one.
    spans: SpanTree,
    /// Training runs in ledger order: a new one starts wherever an
    /// epoch index does not follow the previous epoch's, or the epoch
    /// names another detector.
    training: Vec<TrainingRun>,
    evals: Vec<(String, String, f64, u64, f64)>,
    status: Option<String>,
    wall_secs: Option<f64>,
    counters: Vec<(String, u64)>,
    /// Lines that failed to parse (truncated tail of a crashed run).
    bad_lines: usize,
}

impl LedgerRun {
    /// The training run the next event belongs to (a first one if the
    /// ledger has none yet).
    fn current_training(&mut self) -> &mut TrainingRun {
        if self.training.is_empty() {
            self.training.push(TrainingRun::default());
        }
        let last = self.training.len() - 1;
        &mut self.training[last]
    }
}

fn parse_ledger(text: &str) -> LedgerRun {
    let mut run = LedgerRun::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = parse(line) else {
            run.bad_lines += 1;
            continue;
        };
        match v.get("event").and_then(Value::as_str) {
            Some("run_start") => {
                for key in [
                    "bin", "seed", "config", "effort", "threads", "host", "version",
                ] {
                    if let Some(val) = v.get(key) {
                        let rendered = match val {
                            Value::Str(s) => s.clone(),
                            // f64's Display drops a zero fraction: `103`.
                            Value::Num(n) => n.to_string(),
                            other => format!("{other:?}"),
                        };
                        run.manifest.push((key.to_owned(), rendered));
                    }
                }
            }
            Some("epoch") => {
                let f = |key: &str| v.get(key).and_then(Value::as_f64);
                let layers = v
                    .get("layers")
                    .and_then(Value::as_arr)
                    .map(|rows| {
                        rows.iter()
                            .filter_map(|l| {
                                let g = |key: &str| l.get(key).and_then(Value::as_f64);
                                Some(LayerRow {
                                    key: l.get("key")?.as_str()?.to_owned(),
                                    grad_norm: g("grad_norm")?,
                                    update_ratio: g("update_ratio")?,
                                    weight_norm: g("weight_norm")?,
                                })
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                let epoch = v.get("epoch").and_then(Value::as_u64).unwrap_or(0);
                let detector = v.get("detector").and_then(Value::as_str).map(str::to_owned);
                let follows = run.training.last().is_some_and(|t| {
                    t.detector == detector
                        && t.epochs.last().is_some_and(|prev| epoch == prev.epoch + 1)
                });
                if !follows {
                    run.training.push(TrainingRun {
                        detector,
                        ..TrainingRun::default()
                    });
                }
                run.current_training().epochs.push(EpochRow {
                    epoch,
                    mean_loss: f("mean_loss").unwrap_or(f64::NAN),
                    grad_norm: f("grad_norm").unwrap_or(f64::NAN),
                    lr: f("lr").unwrap_or(f64::NAN),
                    pred_entropy: f("pred_entropy"),
                    label_entropy: f("label_entropy"),
                    layers,
                });
            }
            Some("sentinel") => {
                let s = |key: &str| v.get(key).and_then(Value::as_str).unwrap_or("?").to_owned();
                run.current_training().sentinels.push((
                    v.get("epoch").and_then(Value::as_u64).unwrap_or(0),
                    s("reason"),
                    s("detail"),
                    s("action"),
                ));
            }
            Some("eval") => {
                run.evals.push((
                    v.get("detector")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_owned(),
                    v.get("case")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_owned(),
                    v.get("accuracy_pct").and_then(Value::as_f64).unwrap_or(0.0),
                    v.get("false_alarms").and_then(Value::as_u64).unwrap_or(0),
                    v.get("seconds").and_then(Value::as_f64).unwrap_or(0.0),
                ));
            }
            Some("run_end") => {
                run.status = v.get("status").and_then(Value::as_str).map(str::to_owned);
                run.wall_secs = v.get("wall_secs").and_then(Value::as_f64);
                if let Some(Value::Obj(fields)) = v.get("counters") {
                    for (k, val) in fields {
                        if let Some(n) = val.as_u64() {
                            run.counters.push((k.clone(), n));
                        }
                    }
                }
                run.spans = run_end_spans(&v);
            }
            _ => {}
        }
    }
    run
}

/// The cache families surfaced in the report, in display order.
const CACHE_FAMILIES: [&str; 4] = ["region_tile", "stem_feature", "aerial_dedup", "workspace"];

fn render_caches(counters: &[(String, u64)], out: &mut String) {
    let get = |name: String| {
        counters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    let mut any = false;
    for family in CACHE_FAMILIES {
        let hits = get(format!("cache.{family}.hits"));
        let misses = get(format!("cache.{family}.misses"));
        let evictions = get(format!("cache.{family}.evictions"));
        let bytes = get(format!("cache.{family}.bytes"));
        let total = hits + misses;
        if total == 0 && evictions == 0 && bytes == 0 {
            continue;
        }
        if !any {
            let _ = writeln!(out, "\ncache efficiency:");
            any = true;
        }
        let rate = if total > 0 {
            format!("{:5.1}%", 100.0 * hits as f64 / total as f64)
        } else {
            "    —".to_owned()
        };
        let _ = writeln!(
            out,
            "  {family:<13} {hits:>9} hits {misses:>9} misses {evictions:>7} evicted  \
             {rate} hit rate  {} reused",
            fmt_bytes(bytes)
        );
    }
    if !any {
        let _ = writeln!(
            out,
            "\ncache efficiency: (no cache.* counters in the ledger — run \
             with observability enabled)"
        );
    }
}

/// Renders the training-dynamics section, one block per training run,
/// labelled with its detector (`run 1…n` when the epochs name none):
/// the per-epoch trajectory, the per-layer table from the run's last
/// epoch carrying layer rows, and the run's sentinel trips. An entropy
/// an epoch does not have (it refined no RoI) prints as `—`. Silent
/// when the ledger has no `epoch` events (inference-only runs).
fn render_training(run: &LedgerRun, out: &mut String) {
    for (n, t) in (1..).zip(&run.training) {
        let label = t.label(n);
        let _ = writeln!(
            out,
            "\ntraining dynamics, {label} ({} epoch(s)):",
            t.epochs.len()
        );
        if !t.epochs.is_empty() {
            let _ = writeln!(
                out,
                "  {:>5} {:>10} {:>10} {:>9} {:>7} {:>8}",
                "epoch", "loss", "grad-norm", "lr", "pred-H", "label-H"
            );
        }
        let ent = |e: Option<f64>| match e {
            Some(x) => format!("{x:.3}"),
            None => "—".to_owned(),
        };
        for e in &t.epochs {
            let _ = writeln!(
                out,
                "  {:>5} {:>10.4} {:>10.4} {:>9.5} {:>7} {:>8}",
                e.epoch,
                e.mean_loss,
                e.grad_norm,
                e.lr,
                ent(e.pred_entropy),
                ent(e.label_entropy),
            );
        }
        if let Some(last) = last_layers(t) {
            let _ = writeln!(out, "\n  layer dynamics ({label}, epoch {}):", last.epoch);
            let _ = writeln!(
                out,
                "  {:<26} {:>9} {:>9} {:>9}",
                "layer", "grad", "upd/w", "|w|"
            );
            for l in &last.layers {
                let _ = writeln!(
                    out,
                    "  {:<26} {:>9.3e} {:>9.3e} {:>9.3}",
                    l.key, l.grad_norm, l.update_ratio, l.weight_norm,
                );
            }
        }
        if !t.sentinels.is_empty() {
            let _ = writeln!(out, "\n  sentinel trips ({label}):");
            for (epoch, reason, detail, action) in &t.sentinels {
                let _ = writeln!(
                    out,
                    "  epoch {epoch}  {reason} ({action}): {}",
                    trip_detail(*epoch, detail)
                );
            }
        }
    }
}

/// The run's last epoch that carries layer rows.
fn last_layers(t: &TrainingRun) -> Option<&EpochRow> {
    t.epochs.iter().rev().find(|e| !e.layers.is_empty())
}

/// A trip's detail without the epoch prefix the ledger repeats (the
/// rendered line already leads with the epoch).
fn trip_detail(epoch: u64, detail: &str) -> &str {
    detail
        .strip_prefix(&format!("epoch {epoch}: "))
        .unwrap_or(detail)
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

/// Pure core: renders the full report from the ledger text.
pub fn render(ledger_text: &str, top: usize) -> String {
    let run = parse_ledger(ledger_text);
    let mut o = String::new();

    let _ = writeln!(o, "run report");
    for (k, v) in &run.manifest {
        let _ = writeln!(o, "  {k:<9} {v}");
    }
    match (&run.status, run.wall_secs) {
        (Some(status), Some(wall)) => {
            let _ = writeln!(o, "  status    {status} after {wall:.2}s");
        }
        _ => {
            let _ = writeln!(
                o,
                "  status    (no run_end line — crashed or still running)"
            );
        }
    }
    if run.bad_lines > 0 {
        let _ = writeln!(o, "  ({} unparseable line(s) skipped)", run.bad_lines);
    }

    let _ = writeln!(o);
    o.push_str(&run.spans.render());
    if !run.spans.is_empty() {
        let _ = writeln!(o, "\ntop exclusive time:");
        for (path, secs, count) in run.spans.top_exclusive(top) {
            let _ = writeln!(o, "  {:>9.3}s  {count:>7} call(s)  {path}", secs);
        }
    }

    render_caches(&run.counters, &mut o);
    render_training(&run, &mut o);

    if !run.evals.is_empty() {
        let _ = writeln!(o, "\nevaluation:");
        let _ = writeln!(
            o,
            "  {:<14} {:<10} {:>9} {:>6} {:>10}",
            "detector", "case", "accuracy", "FA", "seconds"
        );
        for (det, case, acc, fa, secs) in &run.evals {
            let _ = writeln!(o, "  {det:<14} {case:<10} {acc:>8.2}% {fa:>6} {secs:>10.3}",);
        }
    }
    o
}

// ---------------------------------------------------------------------
// HTML page: span-tree icicle and learning-dynamics dashboard
// ---------------------------------------------------------------------

/// Deterministic frame-name hue (FNV-1a over the name), so a name keeps
/// its colour across charts.
fn color_hue(name: &str) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % 360) as u32
}

/// Escapes `s` for HTML text and attribute values.
fn html_escape(s: &str) -> String {
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

/// Height of one icicle row in pixels.
const ICICLE_ROW_PX: usize = 18;

/// Renders the span tree as an icicle chart: one absolutely positioned
/// box per node, depth growing downward, width proportional to the
/// node's inclusive seconds. Children that ran concurrently on workers
/// can out-sum their parent; such a row is scaled to fit under it, and
/// every box's hover title gives the exact seconds.
fn icicle_html(tree: &SpanTree) -> String {
    /// Writes one box per node of `children`, laid side by side from
    /// `left` over a `width`% row that stands for `denom` seconds.
    fn emit(
        out: &mut String,
        path: &str,
        children: &BTreeMap<String, SpanNode>,
        left: f64,
        width: f64,
        denom: f64,
        depth: usize,
    ) {
        let mut cursor = left;
        for (name, node) in children {
            let w = if denom > 0.0 {
                width * node.incl_secs / denom
            } else {
                0.0
            };
            let full = if path.is_empty() {
                name.clone()
            } else {
                format!("{path};{name}")
            };
            let _ = writeln!(
                out,
                "<div class=\"f\" style=\"left:{cursor:.4}%;top:{}px;width:{w:.4}%;\
                 background:hsl({},70%,78%)\" title=\"{} — {:.3}s incl, {:.3}s excl, \
                 {} call(s)\">{}</div>",
                depth * ICICLE_ROW_PX,
                color_hue(name),
                html_escape(&full),
                node.incl_secs,
                node.excl_secs,
                node.count,
                html_escape(name),
            );
            let below: f64 = node.children.values().map(|c| c.incl_secs).sum();
            let denom = node.incl_secs.max(below);
            emit(out, &full, &node.children, cursor, w, denom, depth + 1);
            cursor += w;
        }
    }
    let mut out = String::from("<h2>span tree — width is inclusive seconds</h2>\n");
    if tree.is_empty() {
        out.push_str("<p class=\"meta\">(no span totals in this ledger)</p>\n");
        return out;
    }
    let rows = tree
        .nodes()
        .iter()
        .map(|(path, _)| path.split(PATH_SEP).count())
        .max()
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "<div class=\"icicle\" style=\"height:{}px\">",
        rows * ICICLE_ROW_PX
    );
    emit(&mut out, "", &tree.roots, 0.0, 100.0, tree.total_secs(), 0);
    out.push_str("</div>\n");
    out
}

/// Maximum per-layer curves in one chart; beyond that the layers with
/// the largest final gradient norm win and the cut is announced.
const MAX_LAYER_CURVES: usize = 12;

/// One named series of `(x, y)` points for an SVG chart.
type Series = (String, Vec<(f64, f64)>);

/// Renders one inline SVG line chart (multi-series, linear axes, min/max
/// labels, no scripts). Non-finite points are dropped; an all-empty
/// chart renders a placeholder note instead of a broken viewBox.
fn svg_chart(title: &str, series: &[Series]) -> String {
    const W: f64 = 460.0;
    const H: f64 = 180.0;
    const PAD_L: f64 = 46.0;
    const PAD_R: f64 = 8.0;
    const PAD_T: f64 = 8.0;
    const PAD_B: f64 = 22.0;
    let points: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "<div class=\"card\">");
    let _ = writeln!(out, "<h2>{}</h2>", html_escape(title));
    if points.is_empty() {
        let _ = writeln!(out, "<p class=\"meta\">(no data)</p>\n</div>");
        return out;
    }
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for (x, y) in &points {
        x0 = x0.min(*x);
        x1 = x1.max(*x);
        y0 = y0.min(*y);
        y1 = y1.max(*y);
    }
    if (x1 - x0).abs() < 1e-12 {
        x1 = x0 + 1.0;
    }
    if (y1 - y0).abs() < 1e-12 {
        y1 = y0 + 1.0;
        y0 -= 1.0;
    }
    let sx = |x: f64| PAD_L + (x - x0) / (x1 - x0) * (W - PAD_L - PAD_R);
    let sy = |y: f64| H - PAD_B - (y - y0) / (y1 - y0) * (H - PAD_T - PAD_B);
    let _ = writeln!(
        out,
        "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" role=\"img\">"
    );
    let _ = writeln!(
        out,
        "<rect x=\"{PAD_L}\" y=\"{PAD_T}\" width=\"{}\" height=\"{}\" class=\"plot\"/>",
        W - PAD_L - PAD_R,
        H - PAD_T - PAD_B
    );
    for (name, pts) in series {
        let finite: Vec<(f64, f64)> = pts
            .iter()
            .copied()
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect();
        if finite.is_empty() {
            continue;
        }
        let path: Vec<String> = finite
            .iter()
            .map(|(x, y)| format!("{:.1},{:.1}", sx(*x), sy(*y)))
            .collect();
        let hue = color_hue(name);
        let _ = writeln!(
            out,
            "<polyline points=\"{}\" fill=\"none\" stroke=\"hsl({hue},70%,45%)\" \
             stroke-width=\"1.5\"><title>{}</title></polyline>",
            path.join(" "),
            html_escape(name),
        );
    }
    for (label, x, y, anchor) in [
        (format!("{y1:.3}"), PAD_L - 4.0, PAD_T + 8.0, "end"),
        (format!("{y0:.3}"), PAD_L - 4.0, H - PAD_B, "end"),
        (format!("{x0:.0}"), PAD_L, H - 6.0, "start"),
        (format!("{x1:.0}"), W - PAD_R, H - 6.0, "end"),
    ] {
        let _ = writeln!(
            out,
            "<text x=\"{x:.1}\" y=\"{y:.1}\" text-anchor=\"{anchor}\" class=\"ax\">{label}</text>"
        );
    }
    let _ = writeln!(out, "</svg>");
    if series.len() > 1 {
        let _ = write!(out, "<p class=\"legend\">");
        for (name, _) in series {
            let hue = color_hue(name);
            let _ = write!(
                out,
                "<span><i style=\"background:hsl({hue},70%,45%)\"></i>{}</span> ",
                html_escape(name)
            );
        }
        let _ = writeln!(out, "</p>");
    }
    let _ = writeln!(out, "</div>");
    out
}

/// One run's per-layer gradient-norm series, one per layer key
/// (first-seen order), trimmed to [`MAX_LAYER_CURVES`] by final gradient
/// norm; also returns the untrimmed key count.
fn layer_series(run: &TrainingRun) -> (Vec<Series>, usize) {
    let mut keys: Vec<String> = Vec::new();
    for e in &run.epochs {
        for l in &e.layers {
            if !keys.contains(&l.key) {
                keys.push(l.key.clone());
            }
        }
    }
    let total = keys.len();
    if total > MAX_LAYER_CURVES {
        // Rank by the layer's last reported gradient norm, keep input order.
        let last_grad = |key: &String| -> f64 {
            run.epochs
                .iter()
                .rev()
                .flat_map(|e| &e.layers)
                .find(|l| &l.key == key)
                .map(|l| l.grad_norm)
                .unwrap_or(0.0)
        };
        let mut ranked = keys.clone();
        ranked.sort_by(|a, b| {
            last_grad(b)
                .partial_cmp(&last_grad(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let keep: Vec<String> = ranked.into_iter().take(MAX_LAYER_CURVES).collect();
        keys.retain(|k| keep.contains(k));
    }
    let series = keys
        .into_iter()
        .map(|key| {
            let pts = run
                .epochs
                .iter()
                .filter_map(|e| {
                    e.layers
                        .iter()
                        .find(|l| l.key == key)
                        .map(|l| (e.epoch as f64, l.grad_norm))
                })
                .collect();
            (key, pts)
        })
        .collect();
    (series, total)
}

/// Pure core of `--html`: the self-contained run page — the span-tree
/// icicle and the learning-dynamics dashboard (inline CSS + SVG, no
/// scripts, no external assets).
pub fn render_html(ledger_text: &str, title: &str) -> String {
    let run = parse_ledger(ledger_text);
    let mut html = String::with_capacity(16 * 1024);
    html.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    html.push_str(&format!("<title>{}</title>\n", html_escape(title)));
    html.push_str(
        "<style>\n\
         body{font:13px/1.4 system-ui,sans-serif;margin:16px;background:#fff;color:#222}\n\
         .meta{color:#666;margin:6px 0 12px}\n\
         .cards{display:flex;flex-wrap:wrap;gap:12px}\n\
         .card{border:1px solid #ccc;border-radius:4px;padding:8px 12px}\n\
         .card h2{font-size:13px;margin:0 0 6px}\n\
         .plot{fill:#fafafa;stroke:#ddd}\n\
         .ax{font-size:10px;fill:#666}\n\
         .legend{font-size:11px;color:#444;max-width:460px}\n\
         .legend i{display:inline-block;width:9px;height:9px;margin-right:3px;\
         border-radius:2px}\n\
         .legend span{margin-right:10px;white-space:nowrap}\n\
         table{border-collapse:collapse;font-size:12px;margin-top:8px}\n\
         th,td{border:1px solid #ddd;padding:2px 8px;text-align:right}\n\
         th:first-child,td:first-child{text-align:left}\n\
         .trip{color:#a00;font-weight:600}\n\
         .icicle{position:relative;border:1px solid #ccc;overflow:hidden}\n\
         .f{position:absolute;height:18px;box-sizing:border-box;border:1px solid #fff;\
         overflow:hidden;white-space:nowrap;text-overflow:ellipsis;font-size:11px;\
         padding:1px 3px;color:#402}\n\
         </style>\n</head>\n<body>\n",
    );
    html.push_str(&format!("<h1>{}</h1>\n", html_escape(title)));
    let meta: Vec<String> = run
        .manifest
        .iter()
        .map(|(k, v)| format!("{}: {}", html_escape(k), html_escape(v)))
        .collect();
    let status = match (&run.status, run.wall_secs) {
        (Some(s), Some(w)) => format!("status: {} after {w:.2}s", html_escape(s)),
        _ => "status: no run_end (crashed or still running)".to_owned(),
    };
    html.push_str(&format!(
        "<p class=\"meta\">{} &middot; {status}</p>\n",
        meta.join(" &middot; ")
    ));
    html.push_str(&icicle_html(&run.spans));

    if run.training.is_empty() {
        html.push_str(
            "<p class=\"meta\">(no epoch events in this ledger — \
                       nothing trained)</p>\n",
        );
    }
    for (n, t) in (1..).zip(&run.training) {
        training_html(n, t, &mut html);
    }
    html.push_str("</body>\n</html>\n");
    html
}

/// Training run `n`'s block of the page: its sentinel trips, learning
/// curves, per-layer gradient-norm curves and final layer table.
fn training_html(n: usize, run: &TrainingRun, html: &mut String) {
    let label = html_escape(&run.label(n));
    html.push_str(&format!(
        "<h2>training {label} ({} epoch(s))</h2>\n",
        run.epochs.len()
    ));
    if !run.sentinels.is_empty() {
        html.push_str("<p class=\"trip\">sentinel trips:</p>\n<ul>\n");
        for (epoch, reason, detail, action) in &run.sentinels {
            html.push_str(&format!(
                "<li class=\"trip\">epoch {epoch} — {} ({}): {}</li>\n",
                html_escape(reason),
                html_escape(action),
                html_escape(trip_detail(*epoch, detail)),
            ));
        }
        html.push_str("</ul>\n");
    }
    let per_epoch = |f: fn(&EpochRow) -> Option<f64>| -> Vec<(f64, f64)> {
        run.epochs
            .iter()
            .filter_map(|e| f(e).map(|y| (e.epoch as f64, y)))
            .collect()
    };
    html.push_str("<div class=\"cards\">\n");
    html.push_str(&svg_chart(
        "training loss",
        &[("mean_loss".to_owned(), per_epoch(|e| Some(e.mean_loss)))],
    ));
    html.push_str(&svg_chart(
        "learning rate",
        &[("lr".to_owned(), per_epoch(|e| Some(e.lr)))],
    ));
    html.push_str(&svg_chart(
        "global gradient norm",
        &[("grad_norm".to_owned(), per_epoch(|e| Some(e.grad_norm)))],
    ));
    html.push_str(&svg_chart(
        "prediction vs label entropy (bits)",
        &[
            ("pred_entropy".to_owned(), per_epoch(|e| e.pred_entropy)),
            ("label_entropy".to_owned(), per_epoch(|e| e.label_entropy)),
        ],
    ));
    let (grad_curves, total_layers) = layer_series(run);
    html.push_str(&svg_chart("per-layer gradient norm", &grad_curves));
    html.push_str("</div>\n");
    if total_layers > MAX_LAYER_CURVES {
        html.push_str(&format!(
            "<p class=\"meta\">the layer chart shows the {MAX_LAYER_CURVES} layers with the \
             largest final gradient norm (of {total_layers}); the full table is below.</p>\n"
        ));
    }
    if let Some(last) = last_layers(run) {
        html.push_str(&format!(
            "<h2>layer dynamics — {label}, epoch {}</h2>\n<table>\n<tr><th>layer</th>\
             <th>‖g‖</th><th>upd/w</th><th>‖w‖</th></tr>\n",
            last.epoch
        ));
        for l in &last.layers {
            html.push_str(&format!(
                "<tr><td>{}</td><td>{:.3e}</td><td>{:.3e}</td><td>{:.3}</td></tr>\n",
                html_escape(&l.key),
                l.grad_norm,
                l.update_ratio,
                l.weight_norm,
            ));
        }
        html.push_str("</table>\n");
    }
}

// ---------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------

/// CLI entry point: `cargo xtask report <ledger.jsonl> [--top <n>]
/// [--html <out.html>]`.
pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut ledger: Option<PathBuf> = None;
    let mut html_out: Option<PathBuf> = None;
    let mut top = 8usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--html" => {
                let v = it.next().ok_or("--html needs an output path")?;
                html_out = Some(PathBuf::from(v));
            }
            "--top" => {
                let v = it.next().ok_or("--top needs a count")?;
                top = v
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| format!("--top: `{v}` is not a positive integer"))?;
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown report option `{other}`"));
            }
            path if ledger.is_none() => ledger = Some(PathBuf::from(path)),
            extra => return Err(format!("unexpected extra argument `{extra}`")),
        }
    }
    let ledger = ledger.ok_or("report needs a ledger path: <ledger.jsonl>")?;
    let ledger_text = read(&ledger)?;
    print!("{}", render(&ledger_text, top));
    if let Some(out) = html_out {
        let title = format!("run report — {}", ledger.display());
        let html = render_html(&ledger_text, &title);
        std::fs::write(&out, html).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        eprintln!("report: wrote {}", out.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ledger() -> String {
        [
            r#"{"event":"run_start","seq":0,"t":0,"bin":"repro_quick","seed":103,"config":"demo","effort":"Quick","host":"linux/x86_64","version":"0.1.0","threads":2}"#,
            // old-style epoch event (pre-/8 ledger): no entropies, no layers
            r#"{"event":"epoch","seq":1,"t":0.5,"epoch":0,"mean_loss":0.8,"mean_cpn_cls":0.3,"mean_cpn_reg":0.2,"mean_refine_cls":0.3,"grad_norm":2.0,"lr":0.01,"samples":8}"#,
            // new-style epoch event with entropies and per-layer rows
            r#"{"event":"epoch","seq":2,"t":0.9,"epoch":1,"mean_loss":0.6,"mean_cpn_cls":0.2,"mean_cpn_reg":0.15,"mean_refine_cls":0.25,"grad_norm":1.5,"lr":0.009,"samples":8,"pred_entropy":0.62,"label_entropy":0.97,"layers":[{"key":"backbone/Conv2d#1","grad_norm":0.8,"update_ratio":0.004,"weight_norm":3.5},{"key":"refine/fc","grad_norm":0.2,"update_ratio":0.001,"weight_norm":2.0}]}"#,
            r#"{"event":"sentinel","seq":3,"t":0.95,"epoch":1,"reason":"loss_spike","detail":"loss 9.0 is 4.0x the window median 0.7","action":"warn"}"#,
            r#"{"event":"eval","seq":4,"t":2.0,"detector":"Ours","case":"Case2","accuracy_pct":87.5,"false_alarms":9,"seconds":1.25}"#,
            r#"{"event":"run_end","seq":5,"t":2.5,"status":"ok","wall_secs":2.5,"counters":{"cache.region_tile.hits":18,"cache.region_tile.misses":18,"cache.stem_feature.hits":3,"cache.stem_feature.misses":9,"cache.stem_feature.bytes":4096},"peaks":{},"spans":{"scan":{"calls":1,"secs":1,"tid_secs":{"1":1}},"scan;raster":{"calls":1,"secs":0.25,"tid_secs":{"2":0.25}}}}"#,
        ]
        .join("\n")
    }

    #[test]
    fn report_renders_manifest_tree_caches_and_evals() {
        let out = render(&sample_ledger(), 8);
        assert!(out.contains("repro_quick"), "{out}");
        // integral manifest numbers print as integers, not `103.0`
        assert!(out.contains("seed      103\n"), "{out}");
        assert!(out.contains("threads   2\n"), "{out}");
        assert!(out.contains("status    ok after 2.50s"), "{out}");
        // span tree with both nodes and exclusive attribution
        assert!(out.contains("scan"), "{out}");
        assert!(out.contains("raster"), "{out}");
        assert!(out.contains("top exclusive time:"), "{out}");
        // cache hit rates from run_end counters
        assert!(out.contains("region_tile"), "{out}");
        assert!(out.contains(" 50.0% hit rate"), "{out}");
        assert!(out.contains("stem_feature"), "{out}");
        assert!(out.contains(" 25.0% hit rate"), "{out}");
        assert!(out.contains("4.00 KiB"), "{out}");
        // eval table
        assert!(out.contains("Ours"), "{out}");
        assert!(out.contains("87.50%"), "{out}");
    }

    #[test]
    fn crashed_ledger_reports_prefix_without_run_end() {
        let full = sample_ledger();
        let crashed: String = full.lines().take(5).collect::<Vec<_>>().join("\n");
        let out = render(&crashed, 8);
        assert!(out.contains("crashed or still running"), "{out}");
        assert!(out.contains("87.50%"), "evals before the crash render");
        assert!(
            out.contains("span tree: (no spans recorded)"),
            "span totals are written only at run_end:\n{out}"
        );
        assert!(
            out.contains("no cache.* counters"),
            "no run_end → no counters:\n{out}"
        );
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let text = format!("{}\nnot json at all\n{{\"trunc", sample_ledger());
        let out = render(&text, 8);
        assert!(out.contains("2 unparseable line(s) skipped"), "{out}");
    }

    #[test]
    fn training_dynamics_section_renders_epochs_layers_and_trips() {
        let out = render(&sample_ledger(), 8);
        assert!(
            out.contains("training dynamics, run 1 (2 epoch(s)):"),
            "{out}"
        );
        // pre-/8 epoch renders with em-dash entropies, new one with values
        assert!(out.contains("0.620"), "pred entropy column:\n{out}");
        assert!(out.contains("0.970"), "label entropy column:\n{out}");
        assert!(out.contains("—"), "old epoch renders placeholder:\n{out}");
        // layer table comes from the last epoch carrying layer rows
        assert!(out.contains("layer dynamics (run 1, epoch 1):"), "{out}");
        assert!(out.contains("backbone/Conv2d#1"), "{out}");
        assert!(out.contains("refine/fc"), "{out}");
        assert!(out.contains("4.000e-3"), "update ratio column:\n{out}");
        // sentinel trip with reason, action and detail
        assert!(out.contains("sentinel trips (run 1):"), "{out}");
        assert!(
            out.contains("epoch 1  loss_spike (warn): loss 9.0 is 4.0x the window median 0.7"),
            "{out}"
        );
    }

    /// An epoch line of `detector` for `epoch` with one `refine/fc`
    /// row, and entropies when the epoch has them.
    fn epoch_line(detector: &str, epoch: u64, fc_grad: f64, entropy: Option<f64>) -> String {
        let h = entropy.map_or_else(|| "null".to_owned(), |h| h.to_string());
        format!(
            r#"{{"event":"epoch","detector":"{detector}","epoch":{epoch},"mean_loss":0.5,"grad_norm":1.0,"lr":0.005,"pred_entropy":{h},"label_entropy":{h},"layers":[{{"key":"refine/fc","grad_norm":{fc_grad},"update_ratio":0.001,"weight_norm":2.0}}]}}"#
        )
    }

    /// Two networks trained into one ledger, as Table 1 does: the epoch
    /// index starting over splits them into runs, each labelled with its
    /// detector and with its own trajectory, final layer table, trips and
    /// curves. The second refined no RoI: its entropies print as `—`.
    #[test]
    fn epoch_index_starting_over_splits_training_runs() {
        let mut lines: Vec<String> = (0..3)
            .map(|e| epoch_line("Faster R-CNN", e, 2.0 - 0.5 * e as f64, Some(0.625)))
            .collect();
        lines.push(
            r#"{"event":"sentinel","epoch":2,"reason":"bias_collapse","detail":"epoch 2: collapse","action":"warn"}"#
                .to_owned(),
        );
        lines.extend((0..2).map(|e| epoch_line("SSD", e, 7.25, None)));
        let text = lines.join("\n");
        let run = parse_ledger(&text);
        let epochs: Vec<Vec<u64>> = run
            .training
            .iter()
            .map(|t| t.epochs.iter().map(|e| e.epoch).collect())
            .collect();
        assert_eq!(epochs, [vec![0, 1, 2], vec![0, 1]]);
        assert_eq!(run.training[0].sentinels.len(), 1, "a trip joins its run");
        assert!(run.training[1].sentinels.is_empty());

        let out = render(&text, 8);
        assert!(
            out.contains("training dynamics, Faster R-CNN (3 epoch(s)):"),
            "{out}"
        );
        assert!(
            out.contains("training dynamics, SSD (2 epoch(s)):"),
            "{out}"
        );
        assert_eq!(out.matches("  layer dynamics (").count(), 2, "{out}");
        assert!(
            out.contains("layer dynamics (Faster R-CNN, epoch 2):"),
            "{out}"
        );
        assert!(out.contains("layer dynamics (SSD, epoch 1):"), "{out}");
        assert!(out.contains("1.000e0"), "run 1's final fc row:\n{out}");
        assert!(out.contains("7.250e0"), "run 2's final fc row:\n{out}");
        assert!(out.contains("sentinel trips (Faster R-CNN):"), "{out}");
        assert!(!out.contains("sentinel trips (SSD)"), "{out}");
        // Faster R-CNN's entropies print; SSD's are absent, never 0.000.
        assert_eq!(out.matches("0.625").count(), 6, "{out}");
        let absent = out.lines().filter(|l| l.ends_with("       —        —"));
        assert_eq!(absent.count(), 2, "{out}");
        assert!(!out.contains("0.000 "), "{out}");

        let html = render_html(&text, "two runs");
        for heading in [
            "training Faster R-CNN (3 epoch(s))",
            "training SSD (2 epoch(s))",
        ] {
            assert!(html.contains(heading), "{heading}:\n{html}");
        }
        // One refine/fc curve per run, never one joined across both.
        assert_eq!(html.matches("per-layer gradient norm").count(), 2, "{html}");
        let fc_curves: Vec<&str> = html
            .split("<polyline points=\"")
            .skip(1)
            .filter(|p| p.contains("<title>refine/fc</title>"))
            .map(|p| p.split('"').next().unwrap_or(""))
            .collect();
        assert_eq!(fc_curves.len(), 2, "{html}");
        assert_eq!(fc_curves[0].split(' ').count(), 3, "{}", fc_curves[0]);
        assert_eq!(fc_curves[1].split(' ').count(), 2, "{}", fc_curves[1]);
    }

    #[test]
    fn inference_only_ledger_has_no_training_section() {
        let lines: String = sample_ledger()
            .lines()
            .filter(|l| !l.contains("\"epoch\"") && !l.contains("\"sentinel\""))
            .collect::<Vec<_>>()
            .join("\n");
        let out = render(&lines, 8);
        assert!(!out.contains("training dynamics"), "{out}");
        assert!(!out.contains("sentinel trips"), "{out}");
    }

    #[test]
    fn html_dashboard_is_self_contained_and_escaped() {
        let html = render_html(&sample_ledger(), "dyn \"report\" & co");
        assert!(html.starts_with("<!DOCTYPE html>"), "doctype first");
        assert!(html.contains("dyn &quot;report&quot; &amp; co"));
        // zero-dep contract: no scripts, no external references
        assert!(!html.contains("<script"), "must not contain scripts");
        assert!(!html.contains("http://"), "no external assets");
        assert!(!html.contains("https://"), "no external assets");
        // the four core charts plus the per-layer one
        for chart in [
            "training loss",
            "learning rate",
            "global gradient norm",
            "prediction vs label entropy",
            "per-layer gradient norm",
        ] {
            assert!(html.contains(chart), "missing chart {chart}:\n{html}");
        }
        assert!(html.contains("<polyline"), "curves are SVG polylines");
        assert!(html.contains("backbone/Conv2d#1"), "layer table present");
        assert!(html.contains("loss_spike"), "sentinel trip surfaced");
        // the span-tree icicle: `scan` (1.0 s) spans the full width and
        // its child `raster` (0.25 s) a quarter of it, one row down
        assert!(
            html.contains("class=\"icicle\" style=\"height:36px\""),
            "{html}"
        );
        assert!(
            html.contains("left:0.0000%;top:0px;width:100.0000%"),
            "{html}"
        );
        assert!(
            html.contains("left:0.0000%;top:18px;width:25.0000%"),
            "{html}"
        );
        assert!(html.contains("title=\"scan;raster — 0.250s incl"), "{html}");
    }

    #[test]
    fn icicle_scales_concurrent_children_to_fit_their_parent() {
        // Two workers' `cpn` (1.5 s each) under a 2 s `scan`: the row
        // under `scan` sums to 3 s and is scaled to the parent's width.
        let text = r#"{"event":"run_end","spans":{"scan":{"calls":1,"secs":2,"tid_secs":{"1":2}},"scan;cpn":{"calls":1,"secs":1.5,"tid_secs":{"2":1.5}},"scan;rpn":{"calls":1,"secs":1.5,"tid_secs":{"3":1.5}}}}"#;
        let html = icicle_html(&parse_ledger(text).spans);
        assert!(
            html.contains("left:0.0000%;top:18px;width:50.0000%"),
            "{html}"
        );
        assert!(
            html.contains("left:50.0000%;top:18px;width:50.0000%"),
            "{html}"
        );
        assert!(icicle_html(&SpanTree::default()).contains("no span totals"));
    }

    #[test]
    fn html_dashboard_handles_a_ledger_without_epochs() {
        let html = render_html(
            r#"{"event":"run_start","seq":0,"t":0,"bin":"x","seed":1}"#,
            "empty",
        );
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("no epoch events"), "{html}");
    }

    #[test]
    fn span_tree_counts_threads_from_tids() {
        let text = r#"{"event":"run_end","spans":{"cpn":{"calls":2,"secs":1,"tid_secs":{"1":0.5,"2":0.5}}}}"#;
        let out = render(text, 8);
        assert!(out.contains("2 call(s)"), "{out}");
        assert!(out.contains("2 thread(s)"), "{out}");
    }

    #[test]
    fn ledger_path_is_required() {
        let err = run(&["--top".to_owned(), "3".to_owned()]).unwrap_err();
        assert!(err.contains("needs a ledger path"), "{err}");
    }

    #[test]
    fn trace_is_an_unknown_option() {
        let err = run(&["--trace".to_owned(), "trace.json".to_owned()]).unwrap_err();
        assert!(err.contains("unknown report option `--trace`"), "{err}");
    }
}
