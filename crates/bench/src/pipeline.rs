//! The shared reproduction pipeline: build benchmarks, train every
//! detector, evaluate with timing — the machinery behind the `repro`
//! binary's experiments. A [`Run`] holds one run's benchmarks, training
//! regions, trained detectors and their test-half scans, so each network
//! trains once and scans each test half once per run.

use std::cell::OnceCell;
use std::rc::Rc;

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
/// carry no detector name: [`Run::network`] names them.
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
fn train_detector(
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
fn evaluate_tcad18(det: &Tcad18Detector, bench: &Benchmark) -> (CaseResult, Vec<LayoutClip>) {
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
/// that `cargo xtask bench-diff` compares across commits
/// (`BENCH_table1.json`, schema `rhsd-bench-table/8`): the run's primary
/// seed; the `rhsd-par` thread count and the dispatched SIMD `isa`
/// (machine properties: runtimes compare only like-for-like, accuracy
/// rows are invariant); the tensor-workspace counters; the gauges of the
/// offline run's two caches (`cache.*` counters, zero when observability
/// was off); `stage_secs`, the inclusive seconds of every span path; and
/// per detector its per-case and average accuracy, false-alarm and
/// runtime rows, with an optional `training` block of final-epoch
/// dynamics and sentinel-trip tags.
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

/// A region network trained once for a [`Run`], with its training
/// summary and, once a report asked for them, its test-half scans.
pub struct TrainedNetwork {
    /// The trained detector.
    pub detector: RegionDetector,
    /// Its training-dynamics summary (`None` when no epochs ran).
    training: Option<TrainingSummary>,
    /// One timed test-half scan row per case of the run.
    rows: OnceCell<Vec<CaseResult>>,
}

/// One TCAD'18 test-half scan: its Table 1 row and the clips it marked.
pub type ClipScan = (CaseResult, Vec<LayoutClip>);

/// One reproduction run's shared state: the evaluated benchmark cases,
/// their merged training regions and every detector trained so far. A
/// region network trains once per `(RhsdConfig, seed)` and TCAD'18 once,
/// and each scans every test half once, however many experiments ask
/// for them.
pub struct Run {
    effort: Effort,
    /// The three evaluated benchmark cases (demo scale).
    pub benches: Vec<Benchmark>,
    samples: Vec<RegionSample>,
    /// The region networks trained so far, keyed by config and seed.
    networks: Vec<(RhsdConfig, u64, Rc<TrainedNetwork>)>,
    tcad18: Option<Rc<[ClipScan]>>,
}

impl Run {
    /// Builds the benchmarks and their merged training regions
    /// (augmented at full effort). Trains nothing yet.
    pub fn new(effort: Effort) -> Self {
        let benches = build_benchmarks();
        let samples = merged_train_regions(&benches, &RegionConfig::demo(), effort == Effort::Full);
        Run {
            effort,
            benches,
            samples,
            networks: Vec::new(),
            tcad18: None,
        }
    }

    /// The network trained on `config` from `seed`, trained on the first
    /// request, whose `label` names its ledger `epoch` events.
    pub fn network(&mut self, label: &str, config: RhsdConfig, seed: u64) -> Rc<TrainedNetwork> {
        let known = self
            .networks
            .iter()
            .find(|(c, s, _)| *c == config && *s == seed);
        if let Some((_, _, net)) = known {
            return Rc::clone(net);
        }
        let (detector, training) =
            train_detector(label, config.clone(), &self.samples, self.effort, seed);
        let net = Rc::new(TrainedNetwork {
            detector,
            training,
            rows: OnceCell::new(),
        });
        self.networks.push((config, seed, Rc::clone(&net)));
        net
    }

    /// The Ours network: [`ours_config`] from [`OURS_SEED`].
    pub fn ours(&mut self) -> Rc<TrainedNetwork> {
        self.network("Ours", ours_config(), OURS_SEED)
    }

    /// The TCAD'18 clip detector's scan of each case's test half, in
    /// case order; the detector trains and scans on the first request.
    pub fn tcad18(&mut self) -> Rc<[ClipScan]> {
        let (benches, effort) = (&self.benches, self.effort);
        Rc::clone(self.tcad18.get_or_insert_with(|| {
            let det = train_tcad18(benches, effort);
            benches.iter().map(|b| evaluate_tcad18(&det, b)).collect()
        }))
    }

    /// A region network's report named `name`: per-case rows of a timed
    /// scan of every test half, plus its training summary. The network
    /// scans on its first report; later ones reuse the rows.
    fn report(&mut self, name: &str, config: RhsdConfig, seed: u64) -> DetectorReport {
        let net = self.network(name, config, seed);
        let rows = net.rows.get_or_init(|| {
            self.benches
                .iter()
                .map(|b| {
                    let timer = rhsd_obs::Stopwatch::start();
                    let result = net.detector.scan_test_half(b);
                    CaseResult::new(b.id.name(), &result.evaluation, timer.secs())
                })
                .collect()
        });
        DetectorReport::new(name, rows.clone()).with_training(net.training.clone())
    }
}

/// Runs the full Table 1 comparison: TCAD'18, Faster R-CNN, SSD, Ours.
pub fn run_table1(run: &mut Run) -> Vec<DetectorReport> {
    let rows = run.tcad18().iter().map(|(row, _)| row.clone()).collect();
    let mut reports = vec![DetectorReport::new("TCAD'18", rows)];
    let region = RegionConfig::demo();
    for (name, config, seed) in [
        ("Faster R-CNN", faster_rcnn_config(&region), 101),
        ("SSD", ssd_config(&region), 102),
        ("Ours", ours_config(), OURS_SEED),
    ] {
        reports.push(run.report(name, config, seed));
    }
    reports
}

/// An in-place edit of an [`RhsdConfig`] naming one ablation variant.
type ConfigTweak = fn(&mut RhsdConfig);

/// Runs the Figure 10 ablation: w/o ED, w/o L2, w/o Refine, Full. Full
/// is the Ours configuration, so a run that has scanned Ours reuses its
/// rows, timings included.
pub fn run_fig10(run: &mut Run) -> Vec<DetectorReport> {
    let variants: [(&str, ConfigTweak); 4] = [
        ("w/o. ED", |c| c.use_encoder_decoder = false),
        ("w/o. L2", |c| c.use_l2 = false),
        ("w/o. Refine", |c| c.use_refinement = false),
        ("Full", |_| {}),
    ];
    variants
        .iter()
        .map(|(name, tweak)| {
            let mut cfg = ours_config();
            tweak(&mut cfg);
            run.report(name, cfg, OURS_SEED)
        })
        .collect()
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
