//! `rhsd` — command-line front end for the region-based hotspot
//! detection stack.
//!
//! ```text
//! rhsd gen    --case <1|2|3|4> [--full] --out <layout.rlf>
//! rhsd label  --layout <layout.rlf> --out <defects.json>
//! rhsd detect --model <model.json> --layout <layout.rlf> --out <detections.json>
//! rhsd drc    --layout <layout.rlf> [--min-width N] [--min-space N]
//! rhsd eval   --model <model.json> [--case <2|3|4>]...
//! ```
//!
//! All commands are deterministic. `detect` and `eval` take the region
//! geometry and benchmark scale from the model's input size. Models come
//! from `repro ... --save-model`.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary owns the terminal"
)]

use std::collections::BTreeMap;
use std::process::ExitCode;

use rhsd::core::persist::load_from_path;
use rhsd::core::RegionDetector;
use rhsd::data::{Benchmark, Scale, NM_PER_PX};
use rhsd::layout::io::{read_rlf, write_rlf};
use rhsd::layout::synth::{CaseId, CaseSpec};
use rhsd::layout::{Layout, Rect, METAL1};
use rhsd::litho::{label_layout, ProcessWindow};
use rhsd::obs::json::{escape, number};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = parse_opts(&args[1..]);
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&opts),
        "label" => cmd_label(&opts),
        "detect" => cmd_detect(&opts),
        "drc" => cmd_drc(&opts),
        "eval" => cmd_eval(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
rhsd — faster region-based hotspot detection (DAC 2019 reproduction)

USAGE:
  rhsd gen    --case <1|2|3|4> [--full] --out <layout.rlf>
  rhsd label  --layout <layout.rlf> --out <defects.json>
  rhsd detect --model <model.json> --layout <layout.rlf> --out <detections.json>
  rhsd drc    --layout <layout.rlf> [--min-width N] [--min-space N]
  rhsd eval   --model <model.json> [--case <2|3|4>]...";

/// Parses `--key value` pairs and bare `--flag`s; repeated keys collect.
fn parse_opts(args: &[String]) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            let value = args.get(i + 1);
            match value {
                Some(v) if !v.starts_with("--") => {
                    out.entry(key.to_owned()).or_default().push(v.clone());
                    i += 2;
                }
                _ => {
                    out.entry(key.to_owned()).or_default().push(String::new());
                    i += 1;
                }
            }
        } else {
            i += 1;
        }
    }
    out
}

fn one<'a>(opts: &'a BTreeMap<String, Vec<String>>, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .and_then(|v| v.first())
        .map(String::as_str)
        .filter(|s| !s.is_empty())
        .ok_or_else(|| format!("missing --{key} <value>"))
}

fn flag(opts: &BTreeMap<String, Vec<String>>, key: &str) -> bool {
    opts.contains_key(key)
}

fn parse_case(s: &str) -> Result<CaseId, String> {
    match s {
        "1" | "case1" | "Case1" => Ok(CaseId::Case1),
        "2" | "case2" | "Case2" => Ok(CaseId::Case2),
        "3" | "case3" | "Case3" => Ok(CaseId::Case3),
        "4" | "case4" | "Case4" => Ok(CaseId::Case4),
        other => Err(format!("unknown case '{other}' (use 1–4)")),
    }
}

fn cases_or_default(opts: &BTreeMap<String, Vec<String>>) -> Result<Vec<CaseId>, String> {
    match opts.get("case") {
        Some(v) if !v.is_empty() => v.iter().map(|s| parse_case(s)).collect(),
        _ => Ok(CaseId::EVALUATED.to_vec()),
    }
}

fn cmd_gen(opts: &BTreeMap<String, Vec<String>>) -> Result<(), String> {
    let case = parse_case(one(opts, "case")?)?;
    let out = one(opts, "out")?;
    let spec = if flag(opts, "full") {
        CaseSpec::full(case)
    } else {
        CaseSpec::demo(case)
    };
    let (layout, stress) = spec.build();
    let file = std::fs::File::create(out).map_err(|e| e.to_string())?;
    write_rlf(&layout, std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {} shapes, {} stress sites",
        layout.shape_count(METAL1),
        stress.tight_gaps.len() + stress.necks.len()
    );
    Ok(())
}

fn load_layout(path: &str) -> Result<Layout, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    read_rlf(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

fn cmd_label(opts: &BTreeMap<String, Vec<String>>) -> Result<(), String> {
    let layout = load_layout(one(opts, "layout")?)?;
    let out = one(opts, "out")?;
    let pw = ProcessWindow::euv_default();
    let defects = label_layout(&layout, METAL1, &pw, 2560, NM_PER_PX);
    // `DefectKind`'s variant names (`Bridge`, `Pinch`) are the wire tags.
    let rows: Vec<String> = defects
        .iter()
        .map(|d| {
            format!(
                "{{\"kind\": \"{:?}\", \"location\": {{\"x\": {}, \"y\": {}}}, \"corner\": \"{}\"}}",
                d.kind,
                d.location.x,
                d.location.y,
                escape(&d.corner)
            )
        })
        .collect();
    std::fs::write(out, json_array(&rows)).map_err(|e| e.to_string())?;
    println!("wrote {out}: {} defects", defects.len());
    Ok(())
}

/// Loads a model and builds its detector at the scale its input size
/// names; an input size of neither scale is an error, not a panic.
fn load_detector(path: &str) -> Result<(RegionDetector, Scale), String> {
    let net = load_from_path(path).map_err(|e| format!("{path}: {e}"))?;
    let scale = Scale::for_region_px(net.config().region_px).map_err(|e| format!("{path}: {e}"))?;
    Ok((RegionDetector::new(net, scale.region_config()), scale))
}

fn cmd_detect(opts: &BTreeMap<String, Vec<String>>) -> Result<(), String> {
    let (det, _) = load_detector(one(opts, "model")?)?;
    let layout = load_layout(one(opts, "layout")?)?;
    let out = one(opts, "out")?;

    // Wrap the raw layout in a label-free benchmark shell for scanning.
    let extent = layout.extent();
    let bench = Benchmark {
        id: CaseId::Case1,
        layout,
        defects: Vec::new(),
        train_extent: Rect::new(extent.x0, extent.y0, extent.x0, extent.y1),
        test_extent: extent,
    };
    let result = det.scan(&bench, &extent);
    let rows: Vec<String> = result
        .detections
        .iter()
        .map(|d| {
            format!(
                "{{\"clip\": [{}, {}, {}, {}], \"score\": {}}}",
                d.clip.x0,
                d.clip.y0,
                d.clip.x1,
                d.clip.y1,
                number(f64::from(d.score))
            )
        })
        .collect();
    std::fs::write(out, json_array(&rows)).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {} detections over {} regions",
        rows.len(),
        result.regions
    );
    Ok(())
}

/// A JSON array of already-rendered values, one per line.
fn json_array(items: &[String]) -> String {
    if items.is_empty() {
        return "[]\n".to_owned();
    }
    format!("[\n  {}\n]\n", items.join(",\n  "))
}

fn cmd_drc(opts: &BTreeMap<String, Vec<String>>) -> Result<(), String> {
    let layout = load_layout(one(opts, "layout")?)?;
    let num = |key: &str, default: i64| -> i64 {
        opts.get(key)
            .and_then(|v| v.first())
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    };
    let min_width = num("min-width", 40);
    let min_space = num("min-space", 50);
    let violations = rhsd::layout::drc::check(&layout, METAL1, min_width, min_space);
    for v in &violations {
        println!("{v}");
    }
    println!(
        "{} violations (min width {min_width} nm, min spacing {min_space} nm)",
        violations.len()
    );
    Ok(())
}

fn cmd_eval(opts: &BTreeMap<String, Vec<String>>) -> Result<(), String> {
    let (det, scale) = load_detector(one(opts, "model")?)?;
    let cases = cases_or_default(opts)?;
    for &c in &cases {
        let bench = scale.benchmark()(c);
        let timer = rhsd::obs::Stopwatch::start();
        let result = det.scan_test_half(&bench);
        println!(
            "{c}: {} ({:.2}s, {} regions)",
            result.evaluation,
            timer.secs(),
            result.regions
        );
    }
    Ok(())
}
