//! Sampling-profiler non-interference: running the background sampler
//! at full rate while a train + scan executes must not change a single
//! reported number. The profiler only *reads* the per-thread live span
//! stacks — these tests pin that it never perturbs results, and that a
//! profiled run produces well-formed collapsed-stacks and flame-chart
//! artifacts.

use std::sync::{Mutex, MutexGuard};

use rand::SeedableRng;
use rhsd::core::{persist, train, RegionDetector, RhsdConfig, RhsdNetwork, TrainConfig};
use rhsd::data::{train_regions, Benchmark, RegionConfig};
use rhsd::layout::synth::CaseId;
use rhsd::obs::profile::Profiler;
use rhsd::serve::{Client, Half, ServeConfig, Server};
use rhsd_bench::pipeline::{bench_json, DetectorReport};

/// Serialises tests that touch the process-global observability switch
/// (an obs-enabled neighbour would make cache counters visible in one
/// record but not the other).
static OBS: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    OBS.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// One tiny end-to-end train + scan, rendered to a bench record.
fn tiny_run() -> (String, Vec<u32>) {
    let bench = Benchmark::demo(CaseId::Case2);
    let region = RegionConfig::demo();
    let mut samples = train_regions(&bench, &region);
    samples.truncate(4);
    let mut cfg = RhsdConfig::tiny();
    cfg.region_px = region.region_px;
    cfg.clip_px = region.clip_px;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let mut net = RhsdNetwork::new(cfg, &mut rng);
    train(&mut net, &samples, &TrainConfig::tiny());
    let det = RegionDetector::new(net, region);
    let result = det.scan_test_half(&bench);
    let score_bits = result
        .detections
        .iter()
        .map(|d| d.score.to_bits())
        .collect();
    let row = rhsd::baselines::CaseResult::new(bench.id.name(), &result.evaluation, 0.0);
    let report = DetectorReport::new("Ours", vec![row]);
    (bench_json("profile-test", true, 7, &[report]), score_bits)
}

/// Strips the lines of a bench record that are timing- or
/// scheduling-dependent by design; everything else must be
/// bit-identical with and without the sampler.
fn strip_volatile(record: &str) -> String {
    record
        .lines()
        .filter(|l| {
            let l = l.trim_start();
            !l.starts_with("\"seconds\"")
                && !l.starts_with("\"stage_secs\"")
                && !l.starts_with("\"workspace\"")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn sampler_does_not_perturb_bench_results() {
    let _guard = obs_lock();
    let (baseline_json, baseline_scores) = tiny_run();

    // Second run under an aggressive sampler (well above the default
    // 97 Hz) so samples land *during* the measured work.
    let profiler = Profiler::start(997);
    let (sampled_json, sampled_scores) = tiny_run();
    let profile = profiler.stop();

    assert_eq!(
        baseline_scores, sampled_scores,
        "detection scores must be bit-identical under the sampler"
    );
    assert_eq!(
        strip_volatile(&baseline_json),
        strip_volatile(&sampled_json),
        "bench records must agree modulo wall-clock lines"
    );

    // The profiler itself ran: it observed the sampling clock even if
    // no spans were live (observability may be off in this process).
    assert!(profile.hz >= 1);
}

#[test]
fn profiled_spans_produce_wellformed_artifacts() {
    let _guard = obs_lock();
    rhsd::obs::reset();
    rhsd::obs::set_enabled(true);
    let profiler = Profiler::start(2003);
    // Hold named spans long enough for the sampler to observe them.
    {
        let _outer = rhsd::obs::span("scan");
        let _inner = rhsd::obs::span("raster");
        std::thread::sleep(std::time::Duration::from_millis(40));
    }
    let profile = profiler.stop();
    rhsd::obs::set_enabled(false);
    rhsd::obs::reset();

    assert!(profile.busy_samples() > 0, "sampler saw the live spans");
    let collapsed = profile.collapsed();
    assert!(
        collapsed.lines().any(|l| l.starts_with("scan;raster ")),
        "collapsed stacks carry the full path:\n{collapsed}"
    );
    for line in collapsed.lines() {
        let (_, count) = line.rsplit_once(' ').expect("`path count` shape");
        count.parse::<u64>().expect("sample count is an integer");
    }
    let html = profile.flame_html("profile-integration");
    assert!(html.starts_with("<!DOCTYPE html>"), "self-contained page");
    assert!(html.contains("profile-integration"), "title is embedded");
    assert!(html.contains("scan"), "frames are embedded");
}

#[test]
fn second_cached_scan_populates_caches_block() {
    let _guard = obs_lock();
    rhsd::obs::reset();
    rhsd::obs::set_enabled(true);

    let region = RegionConfig::demo();
    let mut cfg = RhsdConfig::tiny();
    cfg.region_px = region.region_px;
    cfg.clip_px = region.clip_px;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let net = RhsdNetwork::new(cfg, &mut rng);
    let model = std::env::temp_dir().join(format!("rhsd_profile_it_{}.model", std::process::id()));
    persist::save_to_path(&net, &model).expect("save model");

    // The first scan fills the server's scan cache (misses); the second
    // replays every tile and stem (hits).
    let server = Server::start(&ServeConfig {
        model: model.clone(),
        port: 0,
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    let first = client.scan(CaseId::Case2, Half::Test).expect("first scan");
    let second = client.scan(CaseId::Case2, Half::Test).expect("second scan");
    assert_eq!(first, second);
    client.shutdown().expect("shutdown");
    drop(client);
    let summary = server.wait();
    std::fs::remove_file(&model).ok();
    assert!(summary.tile_hits > 0 && summary.stem_hits > 0);

    let record = bench_json("cache-telemetry-test", true, 7, &[]);
    rhsd::obs::set_enabled(false);
    rhsd::obs::reset();

    let v = rhsd::obs::json::parse(&record).expect("bench record parses");
    let caches = v.get("caches").expect("caches block present");
    for family in ["region_tile", "stem_feature"] {
        let c = caches.get(family).expect("cache family present");
        for gauge in ["hits", "misses"] {
            let n = c.get(gauge).and_then(|g| g.as_u64()).expect("gauge");
            assert!(n > 0, "caches.{family}.{gauge} must be non-zero, got {n}");
        }
    }
}
