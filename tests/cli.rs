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
    for cmd in ["gen", "label", "train", "detect", "eval"] {
        assert!(text.contains(cmd), "usage must mention '{cmd}'");
    }
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
