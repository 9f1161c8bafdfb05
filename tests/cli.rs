//! Smoke tests for the `rhsd` command-line binary.

use std::process::Command;

fn rhsd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rhsd"))
}

#[test]
fn help_prints_usage() {
    let out = rhsd().arg("help").output().expect("run rhsd help");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    let listed: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("  rhsd "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(listed, ["gen", "label", "detect", "drc", "eval"]);
}

#[test]
fn unknown_command_fails_with_message() {
    let out = rhsd().arg("frobnicate").output().expect("run rhsd");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
}

#[test]
fn missing_required_option_fails() {
    let out = rhsd()
        .args(["gen", "--case", "2"])
        .output()
        .expect("run rhsd gen");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--out"));
}

#[test]
fn gen_writes_parseable_rlf() {
    let dir = std::env::temp_dir().join("rhsd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("case1.rlf");
    let out = rhsd()
        .args(["gen", "--case", "1", "--out", path.to_str().unwrap()])
        .output()
        .expect("run rhsd gen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let file = std::fs::File::open(&path).unwrap();
    let layout = rhsd::layout::io::read_rlf(std::io::BufReader::new(file)).unwrap();
    assert!(layout.shape_count(rhsd::layout::METAL1) > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn gen_rejects_bad_case() {
    let out = rhsd()
        .args(["gen", "--case", "9", "--out", "/tmp/never.rlf"])
        .output()
        .expect("run rhsd gen");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown case"));
}

#[test]
fn label_writes_every_defect_as_json() {
    use rhsd::litho::{label_layout, DefectKind, ProcessWindow};
    use rhsd::obs::json::{parse, Value};

    let dir = std::env::temp_dir().join("rhsd_cli_label_test");
    std::fs::create_dir_all(&dir).unwrap();
    let layout_path = dir.join("case2.rlf");
    let out_path = dir.join("defects.json");
    let (layout_arg, out_arg) = (layout_path.to_str().unwrap(), out_path.to_str().unwrap());
    for args in [
        ["gen", "--case", "2", "--out", layout_arg],
        ["label", "--layout", layout_arg, "--out", out_arg],
    ] {
        let out = rhsd().args(args).output().expect("run rhsd");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let file = std::fs::File::open(&layout_path).unwrap();
    let layout = rhsd::layout::io::read_rlf(std::io::BufReader::new(file)).unwrap();
    let want = label_layout(
        &layout,
        rhsd::layout::METAL1,
        &ProcessWindow::euv_default(),
        2560,
        rhsd::data::NM_PER_PX,
    );
    assert!(!want.is_empty(), "Case2 has hotspots to label");

    let doc = parse(&std::fs::read_to_string(&out_path).unwrap()).expect("label output is JSON");
    let rows = doc.as_arr().expect("a JSON array of defects");
    assert_eq!(rows.len(), want.len());
    for (row, d) in rows.iter().zip(&want) {
        let kind = match d.kind {
            DefectKind::Bridge => "Bridge",
            DefectKind::Pinch => "Pinch",
        };
        assert_eq!(row.get("kind").and_then(Value::as_str), Some(kind));
        let at = |axis| row.get("location")?.get(axis)?.as_f64();
        assert_eq!(at("x"), Some(d.location.x as f64));
        assert_eq!(at("y"), Some(d.location.y as f64));
        assert_eq!(
            row.get("corner").and_then(Value::as_str),
            Some(d.corner.as_str())
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An untrained network built from `cfg`; the CLI only needs a
/// loadable model.
fn untrained(cfg: rhsd::core::RhsdConfig) -> rhsd::core::RhsdNetwork {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    rhsd::core::RhsdNetwork::new(cfg, &mut rng)
}

#[test]
fn detect_writes_the_offline_scan_bit_for_bit() {
    use rhsd::core::RegionDetector;
    use rhsd::data::{Benchmark, RegionConfig};
    use rhsd::layout::synth::CaseId;
    use rhsd::layout::Rect;
    use rhsd::obs::json::{parse, Value};

    let dir = std::env::temp_dir().join(format!("rhsd_cli_detect_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let layout_path = dir.join("case2.rlf");
    let out_path = dir.join("detections.json");
    let model_path = dir.join("model.json");
    rhsd::core::persist::save_to_path(&untrained(rhsd::core::RhsdConfig::demo()), &model_path)
        .unwrap();
    let (layout_arg, out_arg) = (layout_path.to_str().unwrap(), out_path.to_str().unwrap());
    let model_arg = model_path.to_str().unwrap();
    for args in [
        vec!["gen", "--case", "2", "--out", layout_arg],
        vec![
            "detect", "--model", model_arg, "--layout", layout_arg, "--out", out_arg,
        ],
    ] {
        let out = rhsd().args(&args).output().expect("run rhsd");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let file = std::fs::File::open(&layout_path).unwrap();
    let layout = rhsd::layout::io::read_rlf(std::io::BufReader::new(file)).unwrap();
    let extent = layout.extent();
    let bench = Benchmark {
        id: CaseId::Case2,
        layout,
        defects: Vec::new(),
        train_extent: Rect::new(extent.x0, extent.y0, extent.x0, extent.y1),
        test_extent: extent,
    };
    let net = rhsd::core::persist::load_from_path(&model_path).unwrap();
    let want = RegionDetector::new(net, RegionConfig::demo())
        .scan(&bench, &extent)
        .detections;
    assert!(!want.is_empty(), "an untrained demo network still fires");

    let text = std::fs::read_to_string(&out_path).unwrap();
    let doc = parse(&text).expect("detect output is JSON");
    let rows = doc.as_arr().expect("a JSON array of detections");
    assert_eq!(rows.len(), want.len());
    for (row, d) in rows.iter().zip(&want) {
        let clip: Vec<f64> = row
            .get("clip")
            .and_then(Value::as_arr)
            .expect("clip array")
            .iter()
            .map(|v| v.as_f64().expect("clip coordinate"))
            .collect();
        let c = d.clip;
        assert_eq!(clip, [c.x0, c.y0, c.x1, c.y1].map(|v| v as f64));
        // `detect` writes each score through `obs::json::number`.
        let score = row.get("score").and_then(Value::as_f64).expect("score");
        assert_eq!(score.to_bits(), f64::from(d.score).to_bits());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn detect_and_eval_reject_a_model_of_unknown_scale() {
    let dir = std::env::temp_dir().join(format!("rhsd_cli_scale_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // `tiny` scans 64-px regions: neither demo nor paper geometry.
    let model_path = dir.join("model.json");
    rhsd::core::persist::save_to_path(&untrained(rhsd::core::RhsdConfig::tiny()), &model_path)
        .unwrap();
    let model_arg = model_path.to_str().unwrap();
    let layout_arg = dir.join("absent.rlf");
    let out_arg = dir.join("absent.json");
    for args in [
        vec![
            "detect",
            "--model",
            model_arg,
            "--layout",
            layout_arg.to_str().unwrap(),
            "--out",
            out_arg.to_str().unwrap(),
        ],
        vec!["eval", "--model", model_arg, "--case", "2"],
    ] {
        let out = rhsd().args(&args).output().expect("run rhsd");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {err}", args[0]);
        assert!(err.contains("64-px"), "{}: {err}", args[0]);
    }
    std::fs::remove_dir_all(&dir).ok();
}
