//! The shared reproduction pipeline: build benchmarks, train every
//! detector, evaluate with timing — the machinery behind the Table 1 and
//! Figure 10 binaries.

use std::path::Path;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd_baselines::{
    average_row, faster_rcnn_config, ssd_config, CaseResult, LayoutClip, Tcad18Config,
    Tcad18Detector,
};
use rhsd_core::{RegionDetector, RhsdConfig, RhsdNetwork, TrainConfig};
use rhsd_data::augment::{flip_region, Flip};
use rhsd_data::{sample_regions, train_regions, Benchmark, RegionConfig, RegionSample};
use rhsd_layout::synth::CaseId;

/// Primary RNG seed of the "Ours" detector — also the seed recorded in
/// run-ledger manifests and bench records of the Table-1/Figure-10 runs.
pub const OURS_SEED: u64 = 103;

/// Effort level of a reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Minutes-scale: all three cases, full demo training.
    Full,
    /// Seconds-to-a-minute: fewer epochs, no augmentation.
    Quick,
}

impl Effort {
    /// The start line's note on how to get a fast run, empty when this
    /// is one.
    pub fn hint(self) -> &'static str {
        match self {
            Effort::Full => " (pass --quick for a fast run)",
            Effort::Quick => "",
        }
    }
}

/// Builds the three evaluated benchmark cases (demo scale).
pub fn build_benchmarks() -> Vec<Benchmark> {
    CaseId::EVALUATED
        .iter()
        .map(|&id| Benchmark::demo(id))
        .collect()
}

/// Merges the training halves of all cases into one region set (the paper:
/// "three training layouts are merged together to train one model"),
/// optionally with flip augmentation.
pub fn merged_train_regions(
    benches: &[Benchmark],
    region: &RegionConfig,
    augment: bool,
) -> Vec<RegionSample> {
    let mut samples = Vec::new();
    for (i, b) in benches.iter().enumerate() {
        samples.extend(train_regions(b, region));
        if augment {
            // randomly-shifted crops: hotspots appear at varied positions
            samples.extend(sample_regions(
                b,
                &b.train_extent.clone(),
                region,
                24,
                900 + i as u64,
            ));
        }
    }
    if augment {
        let flipped: Vec<RegionSample> = samples
            .iter()
            .flat_map(|s| {
                [
                    flip_region(s, Flip::Horizontal),
                    flip_region(s, Flip::Vertical),
                ]
            })
            .collect();
        samples.extend(flipped);
    }
    samples
}

/// Training schedule for an effort level.
pub fn train_config(effort: Effort) -> TrainConfig {
    let mut tc = TrainConfig::demo();
    match effort {
        Effort::Full => {
            tc.epochs = 10;
        }
        Effort::Quick => {
            // Quick must report non-zero accuracy on every case: an
            // all-zero accuracy row blinds the bench-diff accuracy gate
            // (any regression still compares equal to a floor of zero).
            // The refinement head spends its first ~150 optimiser steps
            // fitting the class prior before it starts discriminating,
            // and the breakout is driven by the *step* count, not the
            // number of samples seen — so quick halves the batch to
            // double the steps per pass instead of paying for more
            // epochs (54 samples → 27 steps/epoch; 14 epochs ≈ 380
            // steps, comfortably past the plateau).
            tc.epochs = 14;
            tc.batch_size = 2;
        }
    }
    tc
}

/// Training-dynamics summary of one detector's training run, carried
/// into the bench record's per-detector `training` block (schema `/6`).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSummary {
    /// Epochs actually trained (sentinel aborts truncate this).
    pub epochs: u64,
    /// Final-epoch mean total loss.
    pub final_loss: f64,
    /// Final-epoch mean pre-clip global gradient norm.
    pub final_grad_norm: f64,
    /// Final-epoch predicted-label histogram entropy (nats).
    pub final_label_entropy: f64,
    /// Final-epoch mean per-RoI prediction entropy (nats).
    pub final_pred_entropy: f64,
    /// Reason tags of every sentinel trip observed (empty = clean run).
    pub sentinel_trips: Vec<String>,
}

impl TrainingSummary {
    /// Summarises a training history plus its sentinel trips; `None`
    /// for an empty history (no epochs ran).
    pub fn from_history(
        history: &[rhsd_core::EpochStats],
        trips: &[rhsd_core::TripReason],
    ) -> Option<Self> {
        let last = history.last()?;
        Some(TrainingSummary {
            epochs: history.len() as u64,
            final_loss: f64::from(last.mean_loss),
            final_grad_norm: f64::from(last.mean_grad_norm),
            final_label_entropy: f64::from(last.label_entropy()),
            final_pred_entropy: f64::from(last.pred_entropy),
            sentinel_trips: trips.iter().map(|t| t.tag().to_owned()).collect(),
        })
    }
}

/// Trains one region-based network (ours or an ablation/generic config),
/// returning the detector plus the training-dynamics summary for the
/// bench record (`None` when no epochs ran). Its ledger `epoch` events
/// carry no detector name: [`train_detector`] names them.
pub fn train_region_network(
    config: RhsdConfig,
    samples: &[RegionSample],
    effort: Effort,
    seed: u64,
) -> (RegionDetector, Option<TrainingSummary>) {
    train_detector("", config, samples, effort, seed)
}

/// [`train_region_network`], with every ledger `epoch` event naming the
/// trained detector `detector`, so a report of a ledger that trains
/// several labels each run with its detector.
pub fn train_detector(
    detector: &str,
    config: RhsdConfig,
    samples: &[RegionSample],
    effort: Effort,
    seed: u64,
) -> (RegionDetector, Option<TrainingSummary>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut net = RhsdNetwork::new(config, &mut rng);
    let tc = TrainConfig {
        detector: detector.to_owned(),
        ..train_config(effort)
    };
    // The default Warn policy never aborts, but stay typed about it.
    let (history, trips) = match rhsd_core::train_checked(&mut net, samples, &tc) {
        Ok(report) => (report.history, report.trips),
        Err(abort) => {
            let reason = abort.reason.clone();
            (abort.history, vec![reason])
        }
    };
    let summary = TrainingSummary::from_history(&history, &trips);
    (RegionDetector::new(net, RegionConfig::demo()), summary)
}

/// The demo-scale "ours" configuration (full techniques).
pub fn ours_config() -> RhsdConfig {
    RhsdConfig::demo()
}

/// Evaluates a region detector on a case's test half, timing the scan.
pub fn evaluate_region_detector(det: &RegionDetector, bench: &Benchmark) -> CaseResult {
    let timer = rhsd_obs::Stopwatch::start();
    let result = det.scan_test_half(bench);
    CaseResult::new(bench.id.name(), &result.evaluation, timer.secs())
}

/// Trains the TCAD'18-style clip detector on the merged training halves.
pub fn train_tcad18(benches: &[Benchmark], effort: Effort) -> Tcad18Detector {
    let mut cfg = Tcad18Config::demo();
    if effort == Effort::Quick {
        // As with `train_config`, quick must stay above the accuracy
        // floor — see the 0%-row warning in `xtask bench-diff`.
        cfg.epochs = 4;
        cfg.biased_epochs = 2;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut det = Tcad18Detector::new(cfg, &mut rng);
    // Merge clips from all training halves.
    let mut clips = Vec::new();
    for b in benches {
        let set = rhsd_data::clips::build_clip_set(
            b,
            &b.train_extent.clone(),
            det.config().clip_px,
            3, // jittered positives: hotspot anywhere within the core
            3,
            det.config().seed,
        );
        let px = det.config().raster_px();
        clips.extend(set.iter().map(|c| {
            (
                rhsd_data::clips::rasterize_window(b, &c.window, px),
                c.is_hotspot,
            )
        }));
    }
    det.train(&clips);
    det
}

/// Evaluates the clip detector on a case's test half, timing the scan.
pub fn evaluate_tcad18(det: &Tcad18Detector, bench: &Benchmark) -> (CaseResult, Vec<LayoutClip>) {
    let timer = rhsd_obs::Stopwatch::start();
    let (marked, eval) = det.scan(bench, &bench.test_extent.clone());
    let secs = timer.secs();
    (CaseResult::new(bench.id.name(), &eval, secs), marked)
}

/// One detector's full Table 1 block: per-case rows plus the average.
#[derive(Debug, Clone)]
pub struct DetectorReport {
    /// Detector label ("Ours", "TCAD'18", …).
    pub name: String,
    /// Per-case rows followed by the average row.
    pub rows: Vec<CaseResult>,
    /// Training-dynamics summary (`None` for detectors without a
    /// region-network training run, e.g. TCAD'18).
    pub training: Option<TrainingSummary>,
}

impl DetectorReport {
    /// Builds a report, appending the average row. Every row (including
    /// the average) is mirrored into the run ledger as an `eval` event,
    /// so baseline and region-detector results land in the same stream.
    pub fn new(name: impl Into<String>, mut rows: Vec<CaseResult>) -> Self {
        let name = name.into();
        let avg = average_row(&rows);
        rows.push(avg);
        for row in &rows {
            row.emit_ledger(&name);
        }
        DetectorReport {
            name,
            rows,
            training: None,
        }
    }

    /// Attaches a training-dynamics summary for the bench record.
    pub fn with_training(mut self, training: Option<TrainingSummary>) -> Self {
        self.training = training;
        self
    }

    /// The average row ([`DetectorReport::new`] always appends one; an
    /// empty report — possible through the public field — averages to the
    /// all-zero row).
    pub fn average(&self) -> CaseResult {
        match self.rows.last() {
            Some(r) => r.clone(),
            None => average_row(&self.rows),
        }
    }

    /// Per-case rows, excluding the trailing average row.
    pub fn case_rows(&self) -> &[CaseResult] {
        &self.rows[..self.rows.len().saturating_sub(1)]
    }
}

/// Per-stage wall-clock totals for the bench record: the span tree's
/// inclusive seconds by full stack path, for every path a span closed
/// at. Empty when observability was disabled.
fn stage_secs() -> Vec<(String, f64)> {
    rhsd_obs::span_tree()
        .nodes()
        .into_iter()
        .filter(|(_, node)| node.count > 0)
        .map(|(path, node)| (path, node.incl_secs))
        .collect()
}

/// One result row as a JSON object: `case`, `accuracy_pct`,
/// `false_alarms` and `seconds`.
pub fn row_json(r: &CaseResult) -> String {
    use rhsd_obs::json::{escape, number};
    format!(
        "{{\"case\": \"{}\", \"accuracy_pct\": {}, \"false_alarms\": {}, \"seconds\": {}}}",
        escape(&r.case),
        number(r.accuracy_pct),
        r.false_alarms,
        number(r.seconds),
    )
}

/// Serialises detector reports as the machine-readable benchmark record
/// tracked across revisions (`BENCH_table1.json`, schema
/// `rhsd-bench-table/8`): the run's primary seed, the worker-thread count
/// of the `rhsd-par` pool (runtimes are only comparable like-for-like;
/// accuracy rows are thread-count invariant), the tensor-workspace
/// counters (allocations, reused bytes, high-water residency — new in
/// `/4`), a `caches` block of hit/miss/eviction/byte gauges for the
/// offline run's caches (`cache.*` counter families — new in `/5`; zero
/// when observability was disabled), `stage_secs`, per detector the
/// per-case accuracy / false-alarm / runtime rows plus the average, and
/// — new in `/6` — an optional per-detector `training` block
/// (final-epoch loss/gradient/entropy stats plus sentinel-trip tags)
/// summarising the training dynamics behind the rows. New in `/7`: the
/// top-level `isa` string (the SIMD instruction set the kernel
/// dispatcher selected, e.g. `avx2` — hardware-dependent like
/// `threads`). Older `/7` records also carry a `precision` string, which
/// `bench-diff` accepts only as `"f32"`. New in `/8`: `stage_secs` is
/// keyed by full span path (`tcad18-scan;raster`), each value the path's
/// inclusive seconds from the span tree — before, it summed spans by
/// their last name and mixed in the `eval.*`/`scaling.*` stopwatch
/// series — and `caches` drops `region_tile` and `stem_feature`, which
/// only `rhsd-serve` fills. Readers treat the newer blocks as optional
/// so `/2`–`/7` records still parse.
/// This is the record `cargo xtask bench-diff` compares across commits.
pub fn bench_json(source: &str, quick: bool, seed: u64, reports: &[DetectorReport]) -> String {
    use rhsd_obs::json::{escape, number};
    // `escape` yields string *contents*; `quoted` adds the delimiters.
    fn quoted(s: &str) -> String {
        format!("\"{}\"", escape(s))
    }
    // One cache family's gauges from the obs counter namespace.
    fn cache_json(snap: &rhsd_obs::MetricsSnapshot, family: &str) -> String {
        let g = |k: &str| {
            snap.counters
                .get(&format!("cache.{family}.{k}"))
                .copied()
                .unwrap_or(0)
        };
        format!(
            "{{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"bytes\": {}}}",
            g("hits"),
            g("misses"),
            g("evictions"),
            g("bytes"),
        )
    }
    let mut o = String::with_capacity(2048);
    o.push_str("{\n  \"schema\": \"rhsd-bench-table/8\",\n");
    o.push_str(&format!("  \"source\": {},\n", quoted(source)));
    o.push_str(&format!("  \"quick\": {quick},\n"));
    o.push_str(&format!("  \"seed\": {seed},\n"));
    o.push_str(&format!("  \"threads\": {},\n", rhsd_par::threads()));
    // The ISA tag is, like the thread count, a property of the machine
    // the record was made on.
    o.push_str(&format!(
        "  \"isa\": {},\n",
        quoted(rhsd_tensor::ops::kernels::isa_name())
    ));
    // Single line: scheduling-dependent (like the thread count), so the
    // determinism harness can strip it the same way it strips "threads".
    let ws = rhsd_tensor::workspace::stats();
    o.push_str(&format!(
        "  \"workspace\": {{\"allocs\": {}, \"bytes_reused\": {}, \"high_water_bytes\": {}}},\n",
        ws.allocs, ws.bytes_reused, ws.high_water
    ));
    // Cache-efficiency gauges (`cache.*` obs counters; zero when
    // observability was off). The workspace family is kept on its own
    // line: its counts are scheduling-dependent, so the determinism
    // harness strips that line exactly as it strips "threads".
    let snap = rhsd_obs::snapshot();
    o.push_str("  \"caches\": {\n");
    o.push_str(&format!(
        "    \"aerial_dedup\": {},\n",
        cache_json(&snap, "aerial_dedup")
    ));
    o.push_str(&format!(
        "    \"workspace\": {}\n",
        cache_json(&snap, "workspace")
    ));
    o.push_str("  },\n");
    o.push_str("  \"stage_secs\": {");
    let stages = stage_secs();
    for (i, (name, secs)) in stages.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!("\n    {}: {}", quoted(name), number(*secs)));
    }
    if !stages.is_empty() {
        o.push_str("\n  ");
    }
    o.push_str("},\n  \"detectors\": [");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!("\n    {{\n      \"name\": {},\n", quoted(&r.name)));
        o.push_str("      \"cases\": [");
        for (j, row) in r.case_rows().iter().enumerate() {
            if j > 0 {
                o.push(',');
            }
            o.push_str("\n        ");
            o.push_str(&row_json(row));
        }
        if !r.case_rows().is_empty() {
            o.push_str("\n      ");
        }
        o.push_str("],\n      \"average\": ");
        o.push_str(&row_json(&r.average()));
        if let Some(t) = &r.training {
            let trips = t
                .sentinel_trips
                .iter()
                .map(|s| quoted(s))
                .collect::<Vec<_>>()
                .join(", ");
            o.push_str(&format!(
                ",\n      \"training\": {{\"epochs\": {}, \"final_loss\": {}, \
                 \"final_grad_norm\": {}, \"final_label_entropy\": {}, \
                 \"final_pred_entropy\": {}, \"sentinel_trips\": [{trips}]}}",
                t.epochs,
                number(t.final_loss),
                number(t.final_grad_norm),
                number(t.final_label_entropy),
                number(t.final_pred_entropy),
            ));
        }
        o.push_str("\n    }");
    }
    if !reports.is_empty() {
        o.push_str("\n  ");
    }
    o.push_str("]\n}\n");
    debug_assert!(rhsd_obs::json::validate(&o).is_ok());
    o
}

/// Writes [`bench_json`] to `path`.
pub fn write_bench_json(
    path: impl AsRef<Path>,
    source: &str,
    quick: bool,
    seed: u64,
    reports: &[DetectorReport],
) -> std::io::Result<()> {
    std::fs::write(path, bench_json(source, quick, seed, reports))
}

/// Runs the full Table 1 comparison: TCAD'18, Faster R-CNN, SSD, Ours.
/// Also returns the trained "Ours" detector so callers can persist it
/// (`--save-model`) for the serving flow.
pub fn run_table1(effort: Effort) -> (Vec<DetectorReport>, RegionDetector) {
    let benches = build_benchmarks();
    let region = RegionConfig::demo();
    let augment = effort == Effort::Full;
    let samples = merged_train_regions(&benches, &region, augment);

    let mut reports = Vec::new();

    // TCAD'18 clip-based baseline.
    let tcad = train_tcad18(&benches, effort);
    let rows = benches
        .iter()
        .map(|b| evaluate_tcad18(&tcad, b).0)
        .collect();
    reports.push(DetectorReport::new("TCAD'18", rows));

    // Faster R-CNN-style, SSD-style, then ours.
    let networks = [
        ("Faster R-CNN", faster_rcnn_config(&region), 101),
        ("SSD", ssd_config(&region), 102),
        ("Ours", ours_config(), OURS_SEED),
    ];
    let [_, _, ours] = networks.map(|(name, config, seed)| {
        let (det, training) = train_detector(name, config, &samples, effort, seed);
        let rows = benches
            .iter()
            .map(|b| evaluate_region_detector(&det, b))
            .collect();
        reports.push(DetectorReport::new(name, rows).with_training(training));
        det
    });
    (reports, ours)
}

/// An in-place edit of an [`RhsdConfig`] naming one ablation variant.
type ConfigTweak = fn(&mut RhsdConfig);

/// Runs the Figure 10 ablation: w/o ED, w/o L2, w/o Refine, Full.
/// Also returns the trained "Full" detector for `--save-model`.
pub fn run_fig10(effort: Effort) -> (Vec<DetectorReport>, RegionDetector) {
    let benches = build_benchmarks();
    let region = RegionConfig::demo();
    let augment = effort == Effort::Full;
    let samples = merged_train_regions(&benches, &region, augment);

    let variants: [(&str, ConfigTweak); 4] = [
        ("w/o. ED", |c| c.use_encoder_decoder = false),
        ("w/o. L2", |c| c.use_l2 = false),
        ("w/o. Refine", |c| c.use_refinement = false),
        ("Full", |_| {}),
    ];

    let mut reports = Vec::new();
    let mut full: Option<RegionDetector> = None;
    for (name, tweak) in &variants {
        let mut cfg = ours_config();
        tweak(&mut cfg);
        let (det, training) = train_detector(name, cfg, &samples, effort, OURS_SEED);
        let rows = benches
            .iter()
            .map(|b| evaluate_region_detector(&det, b))
            .collect();
        reports.push(DetectorReport::new(*name, rows).with_training(training));
        if *name == "Full" {
            full = Some(det);
        }
    }
    let full = full.unwrap_or_else(|| unreachable!("variant list always contains Full"));
    (reports, full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhsd_baselines::CaseResult;
    use rhsd_obs::json;

    #[test]
    fn only_a_full_run_hints_at_quick() {
        assert_eq!(Effort::Full.hint(), " (pass --quick for a fast run)");
        assert_eq!(Effort::Quick.hint(), "");
    }

    fn report(name: &str, secs: f64, acc: f64) -> DetectorReport {
        let row = |case: &str| CaseResult {
            case: case.to_owned(),
            accuracy_pct: acc,
            false_alarms: 3,
            seconds: secs,
        };
        DetectorReport::new(name, vec![row("Case2"), row("Case3")])
    }

    #[test]
    fn bench_json_is_valid_and_carries_schema_seed_and_rows() {
        let summary = TrainingSummary {
            epochs: 4,
            final_loss: 0.25,
            final_grad_norm: 1.5,
            final_label_entropy: 0.62,
            final_pred_entropy: 0.58,
            sentinel_trips: vec!["loss_spike".to_owned()],
        };
        let doc = bench_json(
            "unit",
            true,
            103,
            &[report("Ours", 0.5, 90.0).with_training(Some(summary))],
        );
        let v = json::parse(&doc).expect("bench record parses");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("rhsd-bench-table/8")
        );
        assert_eq!(
            v.get("isa").and_then(|i| i.as_str()),
            Some(rhsd_tensor::ops::kernels::isa_name())
        );
        let ws = v.get("workspace").expect("workspace counters present");
        assert!(ws.get("allocs").and_then(|a| a.as_u64()).is_some());
        assert!(ws.get("bytes_reused").and_then(|a| a.as_u64()).is_some());
        assert!(ws
            .get("high_water_bytes")
            .and_then(|a| a.as_u64())
            .is_some());
        let caches = v.get("caches").expect("caches block present");
        for family in ["aerial_dedup", "workspace"] {
            let c = caches.get(family).expect("cache family present");
            for gauge in ["hits", "misses", "evictions", "bytes"] {
                assert!(
                    c.get(gauge).and_then(|g| g.as_u64()).is_some(),
                    "caches.{family}.{gauge} missing"
                );
            }
        }
        // Only rhsd-serve fills these; the offline record leaves them out.
        assert!(caches.get("region_tile").is_none());
        assert!(caches.get("stem_feature").is_none());
        assert_eq!(v.get("seed").and_then(|s| s.as_u64()), Some(103));
        assert_eq!(v.get("quick").and_then(|q| q.as_bool()), Some(true));
        assert_eq!(
            v.get("threads").and_then(|t| t.as_u64()),
            Some(rhsd_par::threads() as u64)
        );
        let dets = v
            .get("detectors")
            .and_then(|d| d.as_arr())
            .expect("detectors array");
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].get("name").and_then(|n| n.as_str()), Some("Ours"));
        let cases = dets[0]
            .get("cases")
            .and_then(|c| c.as_arr())
            .expect("cases");
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].get("case").and_then(|c| c.as_str()), Some("Case2"));
        let avg = dets[0].get("average").expect("average row");
        assert_eq!(avg.get("accuracy_pct").and_then(|a| a.as_f64()), Some(90.0));
        assert_eq!(avg.get("false_alarms").and_then(|f| f.as_u64()), Some(3));
        // The /6 training block is attached per detector when present.
        let training = dets[0].get("training").expect("training block");
        assert_eq!(training.get("epochs").and_then(|e| e.as_u64()), Some(4));
        assert_eq!(
            training.get("final_loss").and_then(|l| l.as_f64()),
            Some(0.25)
        );
        let trips = training
            .get("sentinel_trips")
            .and_then(|t| t.as_arr())
            .expect("sentinel_trips array");
        assert_eq!(trips.len(), 1);
        assert_eq!(trips[0].as_str(), Some("loss_spike"));
    }

    #[test]
    fn bench_json_omits_training_block_when_absent() {
        let doc = bench_json("unit", true, 103, &[report("Ours", 0.5, 90.0)]);
        let v = json::parse(&doc).expect("bench record parses");
        let dets = v
            .get("detectors")
            .and_then(|d| d.as_arr())
            .expect("detectors array");
        assert!(dets[0].get("training").is_none());
    }

    #[test]
    fn bench_json_handles_empty_reports() {
        let doc = bench_json("unit", false, 0, &[]);
        let v = json::parse(&doc).expect("empty record parses");
        assert_eq!(
            v.get("detectors").and_then(|d| d.as_arr()).map(<[_]>::len),
            Some(0)
        );
    }
}
