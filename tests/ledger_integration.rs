//! End-to-end run-ledger test: a demo-scale train → evaluate run with the
//! global ledger open must leave a JSONL file where every line is valid
//! JSON, the stream starts with a `run_start` manifest (seed + config),
//! epoch telemetry arrives in order, eval rows carry the detector name,
//! and the stream ends with `run_end`.
//!
//! Kept as a single `#[test]` in its own binary: the obs registry and the
//! global ledger sink are process-global, so this test must not share a
//! process with other tests that open ledgers or reset the registry.

use rand::SeedableRng;
use rhsd::baselines::CaseResult;
use rhsd::core::{train, RegionDetector, RhsdConfig, RhsdNetwork, TrainConfig};
use rhsd::data::{train_regions, Benchmark, RegionConfig};
use rhsd::layout::synth::CaseId;
use rhsd::obs;
use rhsd::obs::json::Value;
use rhsd::obs::ledger::{Event, Manifest};

#[test]
fn demo_run_leaves_a_valid_ordered_ledger() {
    obs::reset();
    obs::set_enabled(true);

    let path = std::env::temp_dir().join(format!("rhsd_ledger_it_{}.jsonl", std::process::id()));
    let manifest = Manifest {
        bin: "ledger_integration".to_owned(),
        seed: 5,
        config: "tiny demo config".to_owned(),
        effort: "Quick".to_owned(),
        host: obs::ledger::host_string(),
        version: env!("CARGO_PKG_VERSION").to_owned(),
        threads: rhsd::par::threads() as u64,
        isa: rhsd::tensor::ops::kernels::isa_name().to_owned(),
    };
    obs::ledger::open(&path, manifest).expect("open global ledger");
    assert!(obs::ledger::active());

    // Train two epochs on a handful of regions — `train` emits one
    // `epoch` event per epoch — then evaluate and mirror the row.
    let bench = Benchmark::demo(CaseId::Case2);
    let region = RegionConfig::demo();
    let mut samples = train_regions(&bench, &region);
    samples.truncate(4);
    let mut cfg = RhsdConfig::tiny();
    cfg.region_px = region.region_px;
    cfg.clip_px = region.clip_px;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
    let mut net = RhsdNetwork::new(cfg, &mut rng);
    let history = train(&mut net, &samples, &TrainConfig::tiny());
    assert_eq!(history.len(), 2);

    let detector = RegionDetector::new(net, region);
    let result = detector.scan_test_half(&bench);
    let row = CaseResult::new(bench.id.name(), &result.evaluation, 0.25);
    row.emit_ledger("Ours");

    // A custom event through the global sink, then close.
    obs::ledger::emit(&Event::Eval {
        detector: "control".to_owned(),
        case: "Case2".to_owned(),
        accuracy_pct: 100.0,
        false_alarms: 0,
        seconds: 0.125,
    });
    let closed = obs::ledger::close("ok").expect("close returns the path");
    assert_eq!(closed, path);
    assert!(!obs::ledger::active());
    obs::set_enabled(false);
    obs::reset();

    // --- Re-read the file: every line is one valid JSON object.
    let text = std::fs::read_to_string(&path).expect("ledger file exists");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() >= 5,
        "expected run_start + 2 epochs + evals + run_end, got {} lines",
        lines.len()
    );
    let mut parsed: Vec<Value> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        obs::json::validate(line).unwrap_or_else(|pos| {
            panic!("line {} invalid at byte {pos}: {line}", i + 1);
        });
        parsed.push(obs::json::parse(line).expect("validated line parses"));
    }

    let field = |v: &Value, key: &str| -> String {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .unwrap_or_default()
    };

    // --- First line: the run_start manifest with seed and config.
    let first = &parsed[0];
    assert_eq!(field(first, "event"), "run_start");
    assert_eq!(first.get("seed").and_then(Value::as_u64), Some(5));
    assert_eq!(field(first, "config"), "tiny demo config");
    assert_eq!(field(first, "bin"), "ledger_integration");
    assert!(!field(first, "host").is_empty());
    assert!(!field(first, "version").is_empty());
    assert!(!field(first, "isa").is_empty());

    // --- Last line: run_end with "ok" status.
    let last = parsed.last().expect("nonempty");
    assert_eq!(field(last, "event"), "run_end");
    assert_eq!(field(last, "status"), "ok");
    assert!(last.get("wall_secs").and_then(Value::as_f64).is_some());

    // --- Sequence numbers are contiguous from 0; timestamps never run
    // backwards (the crash-readability contract: a prefix is meaningful).
    for (i, v) in parsed.iter().enumerate() {
        assert_eq!(
            v.get("seq").and_then(Value::as_u64),
            Some(i as u64),
            "line {} has wrong seq",
            i + 1
        );
    }
    let times: Vec<f64> = parsed
        .iter()
        .map(|v| v.get("t").and_then(Value::as_f64).unwrap_or(f64::NAN))
        .collect();
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "timestamps must be monotonic: {times:?}"
    );

    // --- Epoch telemetry: one event per epoch, in order, with the
    // training-stats fields populated.
    let epochs: Vec<&Value> = parsed
        .iter()
        .filter(|v| field(v, "event") == "epoch")
        .collect();
    assert_eq!(epochs.len(), 2, "one epoch event per training epoch");
    for (i, e) in epochs.iter().enumerate() {
        assert_eq!(e.get("epoch").and_then(Value::as_u64), Some(i as u64));
        for key in [
            "mean_loss",
            "grad_norm",
            "lr",
            "pred_entropy",
            "label_entropy",
        ] {
            assert!(
                e.get(key).and_then(Value::as_f64).is_some(),
                "epoch event missing {key}"
            );
        }
        assert_eq!(e.get("samples").and_then(Value::as_u64), Some(4));
        // Per-parameter-group rows ride along, each with the full stat
        // set.
        let layers = e
            .get("layers")
            .and_then(Value::as_arr)
            .expect("epoch event carries a layers array");
        assert!(!layers.is_empty(), "every epoch carries its group rows");
        for l in layers {
            assert!(l.get("key").and_then(Value::as_str).is_some());
            for key in ["grad_norm", "update_ratio", "weight_norm"] {
                assert!(
                    l.get(key).and_then(Value::as_f64).is_some(),
                    "layer row missing {key}"
                );
            }
        }
    }

    // --- Eval rows: the mirrored CaseResult and the control event.
    let evals: Vec<&Value> = parsed
        .iter()
        .filter(|v| field(v, "event") == "eval")
        .collect();
    assert!(evals.iter().any(|v| field(v, "detector") == "Ours"
        && field(v, "case") == "Case2"
        && v.get("seconds").and_then(Value::as_f64) == Some(0.25)));
    assert!(evals.iter().any(|v| field(v, "detector") == "control"
        && v.get("false_alarms").and_then(Value::as_u64) == Some(0)));

    // --- run_end carries counters and peak metrics from the registry.
    assert!(last.get("counters").is_some(), "run_end lists counters");
    assert!(last.get("peaks").is_some(), "run_end lists peak metrics");
}
