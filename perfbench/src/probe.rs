//! Per-layer measurements for traced runs.
//!
//! Every number here is taken from outside the crates: a stopwatch
//! around one public call, a count of what it returned, or a delta of a
//! counter the crates already keep (`rhsd_obs` snapshot, tensor
//! workspace stats, the server's `stats` reply). The result format asks
//! every traced run for every per-layer metric, and a time that reads
//! the same on every run is refused, so the few layers a workload's main
//! path does not run (training, serving) are probed on that workload's
//! inputs, or for `rhsd-serve` on its eight fixed scans.

use std::path::Path;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd_bench::pipeline::{train_config, Effort};
use rhsd_core::{persist, train_checked, Evaluation, RhsdNetwork};
use rhsd_data::{tile_regions, Benchmark, RegionConfig, RegionSample, NM_PER_PX};
use rhsd_layout::synth::CaseSpec;
use rhsd_layout::{Rect, METAL1};
use rhsd_litho::{label_layout, ProcessWindow};

use crate::inputs::{self, RegionMix, Scheduled, OPEN_RATE, SCANS};
use crate::metrics::Outcome;
use crate::model::ModelFiles;
use crate::serve::{self, ServerProc, ServerStats};
use crate::stats::{median, ratio};
use crate::Args;

/// Regions the per-region inference probe times, spread evenly over the
/// workload's regions.
const INFER_REGIONS: usize = 24;

/// Regions the training probe steps through.
const TRAIN_REGIONS: usize = 8;

/// Requests of the serving probe of the non-`serve` workloads.
const SERVE_PROBE_REQUESTS: usize = 8;

/// Litho labelling tile, as `Benchmark::from_spec` uses it.
const LABEL_TILE_NM: i64 = 2_560;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `layout.generate_s` and `litho.label_s`: `CaseSpec::build` and
/// `label_layout` over `specs`, summed.
pub fn setup_layers(specs: &[CaseSpec], out: &mut Outcome) {
    let (mut generate, mut label) = (0.0, 0.0);
    for spec in specs {
        let t = Instant::now();
        let (layout, _) = spec.build();
        generate += secs(t);
        let t = Instant::now();
        let defects = label_layout(
            &layout,
            METAL1,
            &ProcessWindow::euv_default(),
            LABEL_TILE_NM,
            NM_PER_PX,
        );
        label += secs(t);
        std::hint::black_box(defects);
    }
    out.set("layout.generate_s", generate);
    out.set("litho.label_s", label);
}

/// `data.tile_s` and the region mix: `tile_regions` over each extent.
pub fn tile(extents: &[(&Benchmark, Rect)], out: &mut Outcome) -> Vec<RegionSample> {
    let t = Instant::now();
    let regions: Vec<RegionSample> = extents
        .iter()
        .flat_map(|(bench, extent)| tile_regions(bench, extent, &RegionConfig::demo()))
        .collect();
    out.set("data.tile_s", secs(t));
    let mix = RegionMix::of(&regions);
    out.set("data.regions", mix.regions as f64);
    out.set(
        "data.low_density_frac",
        ratio(mix.low_density as f64, mix.regions as f64),
    );
    out.set(
        "data.quiet_frac",
        ratio(mix.quiet as f64, mix.regions as f64),
    );
    eprintln!(
        "perfbench: regions {}: {} under {} metal, {} without hotspots, {} hotspots",
        mix.regions,
        mix.low_density,
        inputs::LOW_DENSITY,
        mix.quiet,
        mix.hotspots
    );
    regions
}

/// `core.model_load_s`: `persist::load_from_path`.
pub fn model_load(path: &Path, out: &mut Outcome) -> Result<RhsdNetwork, String> {
    let t = Instant::now();
    let net = persist::load_from_path(path).map_err(|e| format!("loading the model: {e}"))?;
    out.set("core.model_load_s", secs(t));
    Ok(net)
}

/// Up to `k` items spread evenly over `items`.
fn spread<T>(items: &[T], k: usize) -> Vec<&T> {
    let n = items.len();
    let k = k.min(n);
    (0..k).map(|i| &items[i * n / k]).collect()
}

/// Per-region inference layers, p50 over the probed regions of each
/// call's own time: `forward_stem`, `forward_rest`, `proposals` (backbone
/// and stage 1) and `detect` (everything). Stage 1 and refinement are
/// the differences of these; they are not reported as metrics because a
/// difference of two separately timed calls reads negative when the host
/// slows one of them.
pub fn inference(model: &RhsdNetwork, regions: &[RegionSample], out: &mut Outcome) {
    let mut net = model.clone();
    let (mut stem, mut rest, mut proposals_ms, mut detect_ms) = (vec![], vec![], vec![], vec![]);
    let (mut proposals, mut detections) = (0usize, 0usize);
    let probed = spread(regions, INFER_REGIONS);
    for s in &probed {
        let t = Instant::now();
        let stem_out = net.extractor_mut().forward_stem(&s.image);
        let stem_s = secs(t);
        let t = Instant::now();
        std::hint::black_box(net.extractor_mut().forward_rest(&stem_out));
        let rest_s = secs(t);
        let t = Instant::now();
        proposals += net.proposals(&s.image).len();
        let proposals_s = secs(t);
        let t = Instant::now();
        detections += net.detect(&s.image).len();
        let detect_s = secs(t);
        stem.push(stem_s * 1e3);
        rest.push(rest_s * 1e3);
        proposals_ms.push(proposals_s * 1e3);
        detect_ms.push(detect_s * 1e3);
    }
    let n = probed.len() as f64;
    out.set("core.probe_regions", n);
    out.set("core.stem_ms", median(&stem).unwrap_or(0.0));
    out.set("core.rest_ms", median(&rest).unwrap_or(0.0));
    out.set("core.proposals_ms", median(&proposals_ms).unwrap_or(0.0));
    out.set("core.detect_ms", median(&detect_ms).unwrap_or(0.0));
    out.set("core.proposals_per_region", ratio(proposals as f64, n));
    out.set("core.detections_per_region", ratio(detections as f64, n));
}

/// The training layers on a copy of `model`: `train_step` and its
/// forward share per region (p50), RoIs per step, and the wall time of
/// one `train_checked` epoch over the same regions, per region (what it
/// adds over `train_step` is optimiser, clipping, sentinel and telemetry
/// time). Returns that epoch's mean loss.
pub fn training(
    model: &RhsdNetwork,
    regions: &[RegionSample],
    seed: u64,
    out: &mut Outcome,
) -> f64 {
    let probed: Vec<RegionSample> = spread(regions, TRAIN_REGIONS)
        .into_iter()
        .cloned()
        .collect();
    let mut net = model.clone();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (mut step, mut fwd, mut rois) = (vec![], vec![], 0usize);
    for s in &probed {
        let t = Instant::now();
        let stem = net.extractor_mut().forward_stem(&s.image);
        std::hint::black_box(net.extractor_mut().forward_rest(&stem));
        fwd.push(secs(t) * 1e3);
        let t = Instant::now();
        rois += net.train_step(s, &mut rng).rois;
        step.push(secs(t) * 1e3);
        net.zero_grad();
    }
    let mut tc = train_config(Effort::Quick);
    tc.epochs = 1;
    let mut net = model.clone();
    let t = Instant::now();
    let loss = match train_checked(&mut net, &probed, &tc) {
        Ok(report) => report
            .history
            .last()
            .map_or(f64::NAN, |h| f64::from(h.mean_loss)),
        Err(abort) => {
            eprintln!("perfbench: training probe aborted: {}", abort.reason);
            f64::NAN
        }
    };
    let epoch_s = secs(t);
    let n = probed.len() as f64;
    out.set("core.train_step_ms", median(&step).unwrap_or(0.0));
    out.set("core.train_fwd_ms", median(&fwd).unwrap_or(0.0));
    out.set("core.train_rois_per_step", ratio(rois as f64, n));
    out.set("core.train_epoch_ms", ratio(epoch_s * 1e3, n));
    loss
}

/// Counter values at the start of a traced phase.
pub struct Counters {
    obs: rhsd_obs::MetricsSnapshot,
    ws: rhsd_tensor::workspace::WsStats,
}

/// Takes the start values of the crates' own counters. The `rhsd_obs`
/// ones only count while `rhsd_obs::set_enabled(true)`.
pub fn counters_begin() -> Counters {
    Counters {
        obs: rhsd_obs::snapshot(),
        ws: rhsd_tensor::workspace::stats(),
    }
}

/// `par.*` and `tensor.*`: what the counters gained since `begin`.
pub fn counters_end(begin: &Counters, out: &mut Outcome) {
    let now = rhsd_obs::snapshot();
    let ws = rhsd_tensor::workspace::stats();
    let count =
        |s: &rhsd_obs::MetricsSnapshot, k: &str| s.counters.get(k).copied().unwrap_or(0) as f64;
    let wait =
        |s: &rhsd_obs::MetricsSnapshot| s.histograms.get("par.queue_wait").map_or(0.0, |h| h.sum);
    out.set("par.threads", rhsd_par::threads() as f64);
    out.set(
        "par.sections",
        count(&now, "par.sections") - count(&begin.obs, "par.sections"),
    );
    out.set(
        "par.inline_sections",
        count(&now, "par.inline_sections") - count(&begin.obs, "par.inline_sections"),
    );
    let tasks = count(&now, "par.tasks") - count(&begin.obs, "par.tasks");
    out.set("par.tasks", tasks);
    out.set(
        "par.queue_wait_ms",
        ratio(wait(&now) - wait(&begin.obs), tasks) * 1e3,
    );
    out.set(
        "tensor.workspace_allocs",
        (ws.allocs - begin.ws.allocs) as f64,
    );
    out.set(
        "tensor.workspace_high_water_mb",
        ws.high_water as f64 / (1024.0 * 1024.0),
    );
}

/// The serving layers from a `stats` delta.
pub fn serve_layers(
    stats: &ServerStats,
    ready_s: f64,
    requests: usize,
    late_ms: &[f64],
    out: &mut Outcome,
) {
    let stem_lookups = stats.stem_hits + stats.stem_misses;
    let tile_lookups = stats.tile_hits + stats.tile_misses;
    out.set("serve.ready_s", ready_s);
    out.set("serve.requests", requests as f64);
    out.set("serve.batches", stats.batches);
    out.set(
        "serve.mean_batch_requests",
        ratio(stats.batched_requests, stats.batches),
    );
    out.set("serve.max_batch_requests", stats.max_batch_requests);
    out.set("core.stem_lookups", stem_lookups);
    out.set("core.stem_hit_rate", ratio(stats.stem_hits, stem_lookups));
    out.set("data.tile_lookups", tile_lookups);
    out.set("data.tile_hit_rate", ratio(stats.tile_hits, tile_lookups));
    out.set(
        "serve.gen_late_max_ms",
        late_ms.iter().copied().fold(0.0, f64::max),
    );
}

/// For the workloads that do not serve: start `rhsd-serve` on the model
/// under test, warm it with one closed pass over its eight scans as
/// `serve` does, then send the first [`SERVE_PROBE_REQUESTS`] requests of
/// the seed's `serve` open-loop schedule, check every reply and report
/// the serving layers of that pass. (Repeating the warm-up's order would
/// take no stem-cache hits: 144 regions cycle through 128 entries.)
pub fn serve_pass(args: &Args, model: &ModelFiles, out: &mut Outcome) -> Result<(), String> {
    let server = ServerProc::start(&args.serve_bin, &model.path, crate::THREADS)?;
    warm_up(&server, model, out)?;
    let before = server.stats()?;
    let schedule: Vec<Scheduled> = inputs::open_schedule(args.seed, OPEN_RATE, 600.0)
        .into_iter()
        .take(SERVE_PROBE_REQUESTS)
        .collect();
    let mut streams = serve::connect_all(server.addr())?;
    let result = serve::open_loop(&mut streams, &schedule);
    drop(streams);
    for (r, reply) in schedule.iter().zip(&result.replies) {
        out.check(reply.as_deref() == Some(model.references[r.scan].as_str()));
    }
    let stats = server.stats()?.since(&before);
    serve_layers(&stats, server.ready_s, schedule.len(), &result.late_ms, out);
    let latency_ms: Vec<f64> = result
        .latency_ms
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .collect();
    out.set("serve.open_p50_ms", median(&latency_ms).unwrap_or(f64::NAN));
    server.shutdown()
}

/// Sends every scan once, half of them on each connection, and checks
/// each reply against its offline reference.
pub fn warm_up(server: &ServerProc, model: &ModelFiles, out: &mut Outcome) -> Result<(), String> {
    let warm: Vec<Vec<usize>> = (0..inputs::CONNECTIONS)
        .map(|c| (c..SCANS.len()).step_by(inputs::CONNECTIONS).collect())
        .collect();
    let (rows, _) = serve::closed_loop(server.addr(), &warm, std::time::Duration::MAX)?;
    for (scan, _, reply) in rows.iter().flatten() {
        out.check(reply.as_deref() == Some(model.references[*scan].as_str()));
    }
    Ok(())
}

/// `quality.*` from a pooled Def. 1/Def. 2 evaluation and a loss.
pub fn quality(eval: &Evaluation, loss: f64, out: &mut Outcome) {
    out.set("quality.ground_truth", eval.ground_truth as f64);
    out.set(
        "quality.accuracy_pct",
        100.0 * ratio(eval.true_positives as f64, eval.ground_truth as f64),
    );
    out.set("quality.false_alarms", eval.false_alarms as f64);
    out.set("quality.train_loss", loss);
}
