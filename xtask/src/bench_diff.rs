//! `cargo xtask bench-diff`: the benchmark regression gate.
//!
//! Compares two machine-readable benchmark records (the
//! `BENCH_table1.json` files written by `repro table1 --bench-out`,
//! schema `rhsd-bench-table/8`; any other table schema is refused, exit
//! 2; the gate reads only the detector rows, `threads` and `isa`) and
//! fails when the current run regresses past the tolerances:
//!
//! - **runtime**: any detector's average scan time grew by more than
//!   `--max-runtime-regress` percent (default 10). Runtime is
//!   machine-dependent, so CI diffs against a committed baseline pass
//!   `--skip-runtime` and gate on the deterministic columns only.
//! - **accuracy**: any detector's average accuracy dropped by more than
//!   `--max-accuracy-drop` points (default 0.5).
//! - **false alarms**: informational — printed in the table but never
//!   fails the gate on its own (FA changes surface as accuracy changes
//!   in this pipeline).
//! - **accuracy floor** (opt-in): `--min-accuracy <pct>` fails the gate
//!   when any detector in the *current* record averages below `<pct>`
//!   percent accuracy. This turns the 0%-accuracy loud warning into an
//!   enforceable check: a silently collapsed model (the PR-6 failure
//!   mode) cannot pass CI even when the baseline collapsed too.
//!
//! A baseline detector row with 0% accuracy triggers a loud warning:
//! the accuracy gate cannot see regressions against a floor of zero, so
//! such baselines should be refreshed with a longer training schedule.
//! Every detector of the current record whose training tripped the
//! divergence sentinel gets a `NOTE:` line counting each trip reason
//! (`training.sentinel_trips`); the note never fails the gate.
//!
//! Records produced at different `--threads` counts are **refused** for
//! runtime comparison (exit 2): parallel speedup would masquerade as a
//! runtime improvement or regression. Pass `--skip-runtime` to compare
//! the deterministic accuracy/FA columns across thread counts — those are
//! bit-identical at any thread count by design.
//!
//! **Serve records**: when both inputs carry the `rhsd-serve-bench/1`
//! schema (written by `cargo xtask loadgen`), the gate compares serving
//! throughput instead of detector rows: it fails when requests/sec
//! dropped, or p99 latency grew, by more than `--max-runtime-regress`
//! percent. Both columns are machine- and load-dependent, so
//! `--skip-runtime` turns the comparison into an informational report
//! (cache hit rates are always printed). Serve records from different
//! thread counts or load-generator modes (closed vs open loop) are
//! refused for throughput comparison, exactly like cross-thread table
//! records. A current record reporting
//! bit-identity mismatches always fails. Mixing a table record with a
//! serve record is a usage error (exit 2).
//!
//! Exit codes: 0 clean, 1 regression, 2 malformed input / usage error.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rhsd_obs::json::{parse, Value};

/// The one table-record schema the gate reads (what `repro table1
/// --bench-out` writes).
const TABLE_SCHEMA: &str = "rhsd-bench-table/8";

/// Comparison tolerances (percentages / accuracy points).
pub struct Tolerance {
    /// Maximum allowed runtime growth, in percent of the baseline.
    pub max_runtime_regress_pct: f64,
    /// Maximum allowed accuracy drop, in percentage points.
    pub max_accuracy_drop_pt: f64,
    /// Ignore the runtime column entirely (cross-machine CI gates).
    pub skip_runtime: bool,
    /// Absolute accuracy floor (percent) every detector in the current
    /// record must clear; `None` disables the gate.
    pub min_accuracy_pct: Option<f64>,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            max_runtime_regress_pct: 10.0,
            max_accuracy_drop_pt: 0.5,
            skip_runtime: false,
            min_accuracy_pct: None,
        }
    }
}

/// One detector row extracted from a bench record.
#[derive(Debug, Clone, PartialEq)]
struct DetectorRow {
    name: String,
    accuracy_pct: f64,
    false_alarms: u64,
    seconds: f64,
    /// Reason tags of the training's sentinel trips, one per trip.
    sentinel_trips: Vec<String>,
}

/// A parsed bench record: source tag and per-detector average rows.
#[derive(Debug, Clone)]
struct BenchRecord {
    source: String,
    quick: bool,
    /// `rhsd-par` worker-thread count of the run.
    threads: u64,
    /// SIMD ISA the kernel dispatcher selected.
    isa: String,
    detectors: Vec<DetectorRow>,
}

/// Reads a detector entry: its average row and its training's sentinel
/// trips (none when the entry has no `training` summary).
fn row_from(name: &str, d: &Value) -> Result<DetectorRow, String> {
    let avg = d
        .get("average")
        .ok_or_else(|| format!("detector `{name}` missing `average` row"))?;
    let num = |key: &str| {
        avg.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("detector `{name}`: average row missing numeric `{key}`"))
    };
    let sentinel_trips = d
        .get("training")
        .and_then(|t| t.get("sentinel_trips"))
        .and_then(Value::as_arr)
        .map(|trips| {
            trips
                .iter()
                .filter_map(Value::as_str)
                .map(str::to_owned)
                .collect()
        })
        .unwrap_or_default();
    Ok(DetectorRow {
        name: name.to_owned(),
        accuracy_pct: num("accuracy_pct")?,
        false_alarms: avg.get("false_alarms").and_then(Value::as_u64).unwrap_or(0),
        seconds: num("seconds")?,
        sentinel_trips,
    })
}

/// Parses a table record (its schema already checked by
/// [`schema_kind`]), extracting each detector's average row.
fn parse_record(text: &str, label: &str) -> Result<BenchRecord, String> {
    let v = parse(text).map_err(|pos| format!("{label}: invalid JSON at byte {pos}"))?;
    let detectors = v
        .get("detectors")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{label}: missing `detectors` array"))?;
    let mut rows = Vec::new();
    for d in detectors {
        let name = d
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{label}: detector entry missing `name`"))?;
        rows.push(row_from(name, d).map_err(|e| format!("{label}: {e}"))?);
    }
    if rows.is_empty() {
        return Err(format!("{label}: no detectors in record"));
    }
    Ok(BenchRecord {
        source: v
            .get("source")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned(),
        quick: v.get("quick").and_then(Value::as_bool).unwrap_or(false),
        threads: v
            .get("threads")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{label}: missing integer `threads` field"))?,
        isa: v
            .get("isa")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{label}: missing `isa` field"))?
            .to_owned(),
        detectors: rows,
    })
}

/// One detector's comparison outcome.
#[derive(Debug)]
struct RowDiff {
    name: String,
    accuracy_delta_pt: f64,
    fa_delta: i64,
    runtime_delta_pct: Option<f64>,
    regressions: Vec<String>,
}

/// Compares `current` against `baseline` under `tol`. Detectors present
/// in only one record are reported but never fail the gate.
fn diff(
    baseline: &BenchRecord,
    current: &BenchRecord,
    tol: &Tolerance,
) -> (Vec<RowDiff>, Vec<String>) {
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for b in &baseline.detectors {
        let Some(c) = current.detectors.iter().find(|c| c.name == b.name) else {
            notes.push(format!("detector `{}` missing from current record", b.name));
            continue;
        };
        let accuracy_delta_pt = c.accuracy_pct - b.accuracy_pct;
        let fa_delta = c.false_alarms as i64 - b.false_alarms as i64;
        let runtime_delta_pct = (!tol.skip_runtime && b.seconds > 0.0)
            .then(|| 100.0 * (c.seconds - b.seconds) / b.seconds);
        let mut regressions = Vec::new();
        if accuracy_delta_pt < -tol.max_accuracy_drop_pt {
            regressions.push(format!(
                "accuracy dropped {:.2}pt (tolerance {:.2}pt)",
                -accuracy_delta_pt, tol.max_accuracy_drop_pt
            ));
        }
        if let Some(rt) = runtime_delta_pct {
            if rt > tol.max_runtime_regress_pct {
                regressions.push(format!(
                    "runtime grew {:.1}% (tolerance {:.1}%)",
                    rt, tol.max_runtime_regress_pct
                ));
            }
        }
        rows.push(RowDiff {
            name: b.name.clone(),
            accuracy_delta_pt,
            fa_delta,
            runtime_delta_pct,
            regressions,
        });
    }
    for c in &current.detectors {
        if !baseline.detectors.iter().any(|b| b.name == c.name) {
            notes.push(format!("detector `{}` new in current record", c.name));
        }
    }
    for b in &baseline.detectors {
        if b.accuracy_pct == 0.0 {
            notes.push(format!(
                "WARNING: baseline detector `{}` reports 0% accuracy — the \
                 accuracy gate cannot see regressions against a floor of \
                 zero; refresh the baseline with a longer training schedule",
                b.name
            ));
        }
    }
    (rows, notes)
}

/// Renders the human-readable comparison table.
fn render(
    baseline: &BenchRecord,
    current: &BenchRecord,
    rows: &[RowDiff],
    notes: &[String],
) -> String {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "bench-diff: {} (quick={}) vs {} (quick={})",
        baseline.source, baseline.quick, current.source, current.quick
    );
    let _ = writeln!(
        o,
        "isa: baseline {} / current {}",
        baseline.isa, current.isa
    );
    let _ = writeln!(
        o,
        "{:<14} {:>12} {:>8} {:>12}  status",
        "detector", "Δacc(pt)", "ΔFA", "Δruntime"
    );
    for r in rows {
        let rt = match r.runtime_delta_pct {
            Some(pct) => format!("{pct:+.1}%"),
            None => "skipped".to_owned(),
        };
        let status = if r.regressions.is_empty() {
            "ok".to_owned()
        } else {
            format!("REGRESSION: {}", r.regressions.join("; "))
        };
        let _ = writeln!(
            o,
            "{:<14} {:>12} {:>8} {:>12}  {}",
            r.name,
            format!("{:+.2}", r.accuracy_delta_pt),
            format!("{:+}", r.fa_delta),
            rt,
            status
        );
    }
    for n in notes {
        let _ = writeln!(o, "note: {n}");
    }
    for d in &current.detectors {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for tag in &d.sentinel_trips {
            *counts.entry(tag).or_default() += 1;
        }
        if !counts.is_empty() {
            let trips: Vec<String> = counts.iter().map(|(t, n)| format!("{t} ×{n}")).collect();
            let _ = writeln!(o, "NOTE: {} tripped {}", d.name, trips.join(", "));
        }
    }
    o
}

/// The two record families the gate understands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SchemaKind {
    /// [`TABLE_SCHEMA`] — detector accuracy/FA/runtime rows.
    Table,
    /// `rhsd-serve-bench/*` — serve throughput/latency records.
    Serve,
}

/// Peeks at a record's `schema` tag to pick the comparison family.
fn schema_kind(text: &str, label: &str) -> Result<SchemaKind, String> {
    let v = parse(text).map_err(|pos| format!("{label}: invalid JSON at byte {pos}"))?;
    let schema = v
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{label}: missing `schema` field"))?;
    if schema == TABLE_SCHEMA {
        Ok(SchemaKind::Table)
    } else if schema.starts_with("rhsd-bench-table/") {
        Err(format!(
            "{label}: table schema `{schema}` is not read; rerun \
             `repro table1 --bench-out` for a `{TABLE_SCHEMA}` record"
        ))
    } else if schema.starts_with("rhsd-serve-bench/") {
        Ok(SchemaKind::Serve)
    } else {
        Err(format!("{label}: unsupported schema `{schema}`"))
    }
}

/// A parsed `rhsd-serve-bench/1` record (written by `xtask loadgen`).
#[derive(Debug, Clone)]
struct ServeRecord {
    source: String,
    /// Load-generator mode: `closed` or `open` loop.
    mode: String,
    /// Server worker-thread count reported by the stats endpoint.
    threads: Option<u64>,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// Hit rates in percent (already normalised by loadgen).
    tile_hit_rate_pct: f64,
    stem_hit_rate_pct: f64,
    bit_identity_mismatches: u64,
}

/// Parses a serve-throughput record, requiring the latency/throughput
/// columns the gate compares on.
fn parse_serve_record(text: &str, label: &str) -> Result<ServeRecord, String> {
    let v = parse(text).map_err(|pos| format!("{label}: invalid JSON at byte {pos}"))?;
    let num = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{label}: serve record missing numeric `{key}`"))
    };
    let opt = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    Ok(ServeRecord {
        source: v
            .get("source")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned(),
        mode: v
            .get("mode")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned(),
        threads: v.get("threads").and_then(Value::as_f64).map(|t| t as u64),
        rps: num("rps")?,
        p50_ms: opt("p50_ms"),
        p99_ms: num("p99_ms")?,
        tile_hit_rate_pct: opt("tile_hit_rate"),
        stem_hit_rate_pct: opt("stem_hit_rate"),
        bit_identity_mismatches: opt("bit_identity_mismatches") as u64,
    })
}

/// Serve-record comparison: throughput must not drop, and p99 latency
/// must not grow, past the runtime tolerance. Under `--skip-runtime`
/// both columns are informational only (they are machine- and
/// load-dependent, like table runtimes).
fn compare_serve(
    baseline_text: &str,
    current_text: &str,
    tol: &Tolerance,
) -> Result<(String, bool), String> {
    if tol.min_accuracy_pct.is_some() {
        return Err("--min-accuracy applies to table records only".into());
    }
    let b = parse_serve_record(baseline_text, "baseline")?;
    let c = parse_serve_record(current_text, "current")?;
    if !tol.skip_runtime {
        if let (Some(bt), Some(ct)) = (b.threads, c.threads) {
            if bt != ct {
                return Err(format!(
                    "serve records were produced at different thread counts \
                     (baseline {bt}, current {ct}); throughput and latency are \
                     not comparable — pass --skip-runtime for an informational \
                     report only"
                ));
            }
        }
        if b.mode != c.mode {
            return Err(format!(
                "serve records were produced in different load-generator modes \
                 (baseline `{}`, current `{}`); closed- and open-loop latencies \
                 are not comparable — pass --skip-runtime for an informational \
                 report only",
                b.mode, c.mode
            ));
        }
        if b.rps <= 0.0 || b.p99_ms <= 0.0 {
            return Err(format!(
                "baseline serve record has no usable throughput columns \
                 (rps {}, p99_ms {}); the baseline run produced no requests",
                b.rps, b.p99_ms
            ));
        }
    }
    let mut o = String::new();
    let mut regressed = false;
    let _ = writeln!(
        o,
        "bench-diff (serve): {} (mode={}, threads={}) vs {} (mode={}, threads={})",
        b.source,
        b.mode,
        b.threads.map_or("?".into(), |t| t.to_string()),
        c.source,
        c.mode,
        c.threads.map_or("?".into(), |t| t.to_string()),
    );
    let _ = writeln!(
        o,
        "{:<22} {:>12} {:>12} {:>10}  status",
        "metric", "baseline", "current", "delta"
    );
    // (metric, baseline, current, regression-when: +1 growth fails,
    //  -1 drop fails, 0 informational)
    let columns: [(&str, f64, f64, i8); 4] = [
        ("requests/sec", b.rps, c.rps, -1),
        ("p50 latency (ms)", b.p50_ms, c.p50_ms, 0),
        ("p99 latency (ms)", b.p99_ms, c.p99_ms, 1),
        (
            "tile hit rate (%)",
            b.tile_hit_rate_pct,
            c.tile_hit_rate_pct,
            0,
        ),
    ];
    for (name, bv, cv, direction) in columns {
        let delta_pct = (bv > 0.0).then(|| 100.0 * (cv - bv) / bv);
        let gated = direction != 0 && !tol.skip_runtime;
        let status = match delta_pct {
            Some(pct) if gated && direction > 0 && pct > tol.max_runtime_regress_pct => {
                regressed = true;
                format!(
                    "REGRESSION: p99 latency grew {pct:.1}% (tolerance {:.1}%)",
                    tol.max_runtime_regress_pct
                )
            }
            Some(pct) if gated && direction < 0 && -pct > tol.max_runtime_regress_pct => {
                regressed = true;
                format!(
                    "REGRESSION: throughput dropped {:.1}% (tolerance {:.1}%)",
                    -pct, tol.max_runtime_regress_pct
                )
            }
            _ if direction != 0 && tol.skip_runtime => "skipped".to_owned(),
            _ if direction == 0 => "info".to_owned(),
            _ => "ok".to_owned(),
        };
        let _ = writeln!(
            o,
            "{:<22} {:>12.2} {:>12.2} {:>10}  {}",
            name,
            bv,
            cv,
            delta_pct.map_or("n/a".to_owned(), |p| format!("{p:+.1}%")),
            status
        );
    }
    let _ = writeln!(
        o,
        "stem hit rate: baseline {:.1}%, current {:.1}%",
        b.stem_hit_rate_pct, c.stem_hit_rate_pct
    );
    if c.bit_identity_mismatches > 0 {
        let _ = writeln!(
            o,
            "REGRESSION: current serve run reported {} bit-identity \
             mismatch(es) against the offline scan",
            c.bit_identity_mismatches
        );
        regressed = true;
    }
    Ok((o, regressed))
}

/// Pure core of the gate: compares two record texts, returning the
/// rendered report and whether any detector regressed. Dispatches on
/// the `schema` tag: two table records compare detector rows, two
/// serve records compare throughput/latency; mixing families is an
/// error, as `Err` is for any malformed record.
pub fn compare(
    baseline_text: &str,
    current_text: &str,
    tol: &Tolerance,
) -> Result<(String, bool), String> {
    let kinds = (
        schema_kind(baseline_text, "baseline")?,
        schema_kind(current_text, "current")?,
    );
    match kinds {
        (SchemaKind::Serve, SchemaKind::Serve) => {
            return compare_serve(baseline_text, current_text, tol)
        }
        (SchemaKind::Table, SchemaKind::Table) => {}
        (b, c) => {
            return Err(format!(
                "mixed record families: baseline is a {b:?} record but current \
                 is a {c:?} record — compare table records with table records \
                 and serve records with serve records"
            ))
        }
    }
    let baseline = parse_record(baseline_text, "baseline")?;
    let current = parse_record(current_text, "current")?;
    let (b, c) = (baseline.threads, current.threads);
    if b != c && !tol.skip_runtime {
        return Err(format!(
            "records were produced at different thread counts \
             (baseline {b}, current {c}); runtimes are not comparable — \
             pass --skip-runtime to gate on the thread-count-invariant \
             accuracy columns only"
        ));
    }
    let (rows, notes) = diff(&baseline, &current, tol);
    let mut regressed = rows.iter().any(|r| !r.regressions.is_empty());
    let mut report = render(&baseline, &current, &rows, &notes);
    if let Some(floor) = tol.min_accuracy_pct {
        for d in &current.detectors {
            if d.accuracy_pct < floor {
                report.push_str(&format!(
                    "REGRESSION: detector `{}` averages {:.2}% accuracy, below \
                     the {floor:.1}% floor — the model likely collapsed during \
                     training (check the run ledger's sentinel events)\n",
                    d.name, d.accuracy_pct
                ));
                regressed = true;
            }
        }
    }
    Ok((report, regressed))
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// CLI entry point: `cargo xtask bench-diff <baseline.json> <current.json>
/// [--max-runtime-regress <pct>] [--max-accuracy-drop <pt>]
/// [--skip-runtime] [--min-accuracy <pct>]`.
pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut tol = Tolerance::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-runtime-regress" => {
                tol.max_runtime_regress_pct = num_arg(it.next(), "--max-runtime-regress")?;
            }
            "--max-accuracy-drop" => {
                tol.max_accuracy_drop_pt = num_arg(it.next(), "--max-accuracy-drop")?;
            }
            "--skip-runtime" => tol.skip_runtime = true,
            "--min-accuracy" => {
                tol.min_accuracy_pct = Some(num_arg(it.next(), "--min-accuracy")?);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown bench-diff option `{other}`"));
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    let [baseline, current] = paths.as_slice() else {
        return Err(
            "bench-diff needs exactly two record paths: <baseline.json> <current.json>".into(),
        );
    };
    let (report, regressed) = compare(&read(baseline)?, &read(current)?, &tol)
        .map_err(|e| format!("malformed record: {e}"))?;
    print!("{report}");
    Ok(if regressed {
        println!("bench-diff: FAIL (regression past tolerance)");
        ExitCode::FAILURE
    } else {
        println!("bench-diff: ok");
        ExitCode::SUCCESS
    })
}

fn num_arg(v: Option<&String>, flag: &str) -> Result<f64, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a number"))?;
    let n: f64 = v
        .parse()
        .map_err(|_| format!("{flag}: `{v}` is not a number"))?;
    if n.is_finite() && n >= 0.0 {
        Ok(n)
    } else {
        Err(format!(
            "{flag}: `{v}` must be a finite non-negative number"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal table record at 2 threads with one detector whose
    /// average row has the given runtime and accuracy.
    fn record(secs: f64, acc: f64) -> String {
        record_at(secs, acc, 2)
    }

    /// [`record`] produced at `threads` worker threads.
    fn record_at(secs: f64, acc: f64, threads: u64) -> String {
        format!(
            r#"{{
  "schema": "rhsd-bench-table/8",
  "source": "repro",
  "quick": true,
  "seed": 103,
  "threads": {threads},
  "isa": "avx2",
  "stage_secs": {{"scan": {secs}, "scan;scan-region": {secs}}},
  "detectors": [
    {{
      "name": "Ours",
      "cases": [
        {{"case": "Case2", "accuracy_pct": {acc}, "false_alarms": 4, "seconds": {secs}}}
      ],
      "average": {{"case": "Average", "accuracy_pct": {acc}, "false_alarms": 4, "seconds": {secs}}}
    }}
  ]
}}"#
        )
    }

    #[test]
    fn identical_records_pass() {
        let r = record(1.0, 90.0);
        let (report, regressed) = compare(&r, &r, &Tolerance::default()).expect("valid");
        assert!(!regressed, "identical records must not regress:\n{report}");
        assert!(report.contains("Ours"));
    }

    #[test]
    fn twenty_percent_runtime_regression_fails() {
        let base = record(1.0, 90.0);
        let cur = record(1.2, 90.0);
        let (report, regressed) = compare(&base, &cur, &Tolerance::default()).expect("valid");
        assert!(regressed, "1.2x runtime must fail the 10% gate:\n{report}");
        assert!(report.contains("runtime grew"));
    }

    #[test]
    fn runtime_regression_is_ignored_with_skip_runtime() {
        let base = record(1.0, 90.0);
        let cur = record(10.0, 90.0);
        let tol = Tolerance {
            skip_runtime: true,
            ..Tolerance::default()
        };
        let (report, regressed) = compare(&base, &cur, &tol).expect("valid");
        assert!(!regressed, "--skip-runtime must ignore runtime:\n{report}");
        assert!(report.contains("skipped"));
    }

    #[test]
    fn accuracy_drop_fails() {
        let base = record(1.0, 90.0);
        let cur = record(1.0, 89.0);
        let (report, regressed) = compare(&base, &cur, &Tolerance::default()).expect("valid");
        assert!(
            regressed,
            "1pt accuracy drop must fail the 0.5pt gate:\n{report}"
        );
        assert!(report.contains("accuracy dropped"));
    }

    #[test]
    fn small_drift_within_tolerance_passes() {
        let base = record(1.0, 90.0);
        let cur = record(1.05, 89.8);
        let (_, regressed) = compare(&base, &cur, &Tolerance::default()).expect("valid");
        assert!(
            !regressed,
            "5% runtime / 0.2pt accuracy drift is within tolerance"
        );
    }

    #[test]
    fn malformed_input_is_an_error() {
        let good = record(1.0, 90.0);
        assert!(compare("not json", &good, &Tolerance::default()).is_err());
        assert!(compare(
            &good,
            "{\"schema\": \"rhsd-bench-table/8\"}",
            &Tolerance::default()
        )
        .is_err());
        let wrong_schema = good.replace("rhsd-bench-table/8", "other/1");
        assert!(compare(&wrong_schema, &good, &Tolerance::default()).is_err());
        let no_avg = good.replace("\"average\"", "\"avg\"");
        assert!(compare(&good, &no_avg, &Tolerance::default()).is_err());
        // `threads` and `isa` are required.
        let no_threads = good.replace("\"threads\": 2,", "");
        let err = compare(&good, &no_threads, &Tolerance::default()).unwrap_err();
        assert!(err.contains("`threads`"), "{err}");
        let no_isa = good.replace("\"isa\": \"avx2\",", "");
        let err = compare(&no_isa, &good, &Tolerance::default()).unwrap_err();
        assert!(err.contains("`isa`"), "{err}");
    }

    #[test]
    fn cross_thread_count_runtime_comparison_is_refused() {
        let base = record_at(1.0, 90.0, 1);
        let cur = record_at(0.3, 90.0, 4);
        let err = compare(&base, &cur, &Tolerance::default()).unwrap_err();
        assert!(err.contains("thread counts"), "{err}");
        assert!(err.contains("--skip-runtime"), "{err}");
    }

    #[test]
    fn cross_thread_count_accuracy_comparison_works_with_skip_runtime() {
        let base = record_at(1.0, 90.0, 1);
        let cur = record_at(0.3, 90.0, 4);
        let tol = Tolerance {
            skip_runtime: true,
            ..Tolerance::default()
        };
        let (report, regressed) = compare(&base, &cur, &tol).expect("valid");
        assert!(!regressed, "accuracy is identical:\n{report}");
        // ... and a real accuracy drop still fails across thread counts
        let bad = record_at(0.3, 80.0, 4);
        let (_, regressed) = compare(&base, &bad, &tol).expect("valid");
        assert!(regressed, "accuracy drop must still gate");
    }

    #[test]
    fn same_thread_count_records_compare_runtimes() {
        let base = record_at(1.0, 90.0, 4);
        let cur = record_at(1.2, 90.0, 4);
        let (_, regressed) = compare(&base, &cur, &Tolerance::default()).expect("valid");
        assert!(regressed, "same-thread runtime regression still gates");
    }

    #[test]
    fn other_table_schemas_are_refused() {
        let v8 = record(1.0, 90.0);
        let tol = Tolerance {
            skip_runtime: true,
            ..Tolerance::default()
        };
        // On either side, and even under --skip-runtime.
        for old in ["rhsd-bench-table/7", "rhsd-bench-table/2"] {
            let stale = v8.replace("rhsd-bench-table/8", old);
            let err = compare(&v8, &stale, &tol).unwrap_err();
            assert!(err.starts_with("current: table schema"), "{err}");
            assert!(err.contains(old), "{err}");
            let err = compare(&stale, &v8, &tol).unwrap_err();
            assert!(err.starts_with("baseline:"), "{err}");
        }
    }

    #[test]
    fn zero_accuracy_baseline_row_warns_loudly() {
        let base = record(1.0, 0.0);
        let cur = record(1.0, 0.0);
        let (report, regressed) = compare(&base, &cur, &Tolerance::default()).expect("valid");
        assert!(!regressed, "the warning is not a gate failure");
        assert!(report.contains("WARNING"), "{report}");
        assert!(report.contains("0% accuracy"), "{report}");
        // A healthy baseline does not warn.
        let healthy = record(1.0, 90.0);
        let (report, _) = compare(&healthy, &healthy, &Tolerance::default()).expect("valid");
        assert!(!report.contains("WARNING"), "{report}");
    }

    #[test]
    fn accuracy_floor_gate_catches_collapsed_models() {
        let tol = Tolerance {
            min_accuracy_pct: Some(10.0),
            ..Tolerance::default()
        };
        // Both records collapsed to 0%: the drop gate sees no change, but
        // the floor catches it anyway.
        let collapsed = record(1.0, 0.0);
        let (report, regressed) = compare(&collapsed, &collapsed, &tol).expect("valid");
        assert!(regressed, "0% accuracy must fail a 10% floor:\n{report}");
        assert!(report.contains("below the 10.0% floor"), "{report}");
        assert!(report.contains("collapsed during training"), "{report}");
        // A healthy record clears the floor.
        let healthy = record(1.0, 34.0);
        let (report, regressed) = compare(&healthy, &healthy, &tol).expect("valid");
        assert!(!regressed, "34% clears a 10% floor:\n{report}");
        // The gate only inspects the current record: a collapsed baseline
        // with a healthy current run passes.
        let (_, regressed) = compare(&collapsed, &healthy, &tol).expect("valid");
        assert!(!regressed, "floor gates the current record only");
        // ... and it is opt-in.
        let (_, regressed) = compare(&collapsed, &collapsed, &Tolerance::default()).expect("valid");
        assert!(!regressed, "floor gate must be opt-in");
    }

    #[test]
    fn min_accuracy_rejects_malformed_values() {
        assert!(num_arg(Some(&"10".to_owned()), "--min-accuracy").is_ok());
        assert!(num_arg(Some(&"abc".to_owned()), "--min-accuracy").is_err());
        assert!(num_arg(Some(&"-5".to_owned()), "--min-accuracy").is_err());
        assert!(num_arg(None, "--min-accuracy").is_err());
    }

    /// A minimal `rhsd-serve-bench/1` record with the given throughput,
    /// p99 latency and thread count.
    fn serve_record(rps: f64, p99_ms: f64, threads: u64) -> String {
        format!(
            r#"{{
  "schema": "rhsd-serve-bench/1",
  "source": "loadgen",
  "mode": "closed",
  "seed": 7,
  "threads": {threads},
  "connections": 4,
  "requests_per_connection": 8,
  "requests": 32,
  "wall_secs": 0.5,
  "rps": {rps},
  "p50_ms": 4.0,
  "p95_ms": 9.0,
  "p99_ms": {p99_ms},
  "regions": 128,
  "tile_hit_rate": 75.0,
  "stem_hit_rate": 60.0,
  "bit_identity_checked": true,
  "bit_identity_mismatches": 0
}}"#
        )
    }

    #[test]
    fn identical_serve_records_pass() {
        let r = serve_record(120.0, 12.0, 4);
        let (report, regressed) = compare(&r, &r, &Tolerance::default()).expect("valid");
        assert!(!regressed, "identical serve records must pass:\n{report}");
        assert!(report.contains("requests/sec"), "{report}");
        assert!(report.contains("p99 latency"), "{report}");
    }

    #[test]
    fn serve_throughput_drop_fails() {
        let base = serve_record(120.0, 12.0, 4);
        let cur = serve_record(100.0, 12.0, 4); // -16.7% rps
        let (report, regressed) = compare(&base, &cur, &Tolerance::default()).expect("valid");
        assert!(
            regressed,
            "16.7% rps drop must fail the 10% gate:\n{report}"
        );
        assert!(report.contains("throughput dropped"), "{report}");
        // An rps *gain* never fails.
        let faster = serve_record(200.0, 12.0, 4);
        let (report, regressed) = compare(&base, &faster, &Tolerance::default()).expect("valid");
        assert!(!regressed, "faster serving is not a regression:\n{report}");
    }

    #[test]
    fn serve_p99_growth_fails() {
        let base = serve_record(120.0, 12.0, 4);
        let cur = serve_record(120.0, 15.0, 4); // +25% p99
        let (report, regressed) = compare(&base, &cur, &Tolerance::default()).expect("valid");
        assert!(
            regressed,
            "25% p99 growth must fail the 10% gate:\n{report}"
        );
        assert!(report.contains("p99 latency grew"), "{report}");
        // Small drift stays within tolerance.
        let drift = serve_record(115.0, 12.8, 4);
        let (report, regressed) = compare(&base, &drift, &Tolerance::default()).expect("valid");
        assert!(!regressed, "~5% drift is within tolerance:\n{report}");
    }

    #[test]
    fn serve_skip_runtime_is_informational_only() {
        let base = serve_record(120.0, 12.0, 4);
        let cur = serve_record(10.0, 120.0, 4);
        let tol = Tolerance {
            skip_runtime: true,
            ..Tolerance::default()
        };
        let (report, regressed) = compare(&base, &cur, &tol).expect("valid");
        assert!(
            !regressed,
            "--skip-runtime must not gate serve columns:\n{report}"
        );
        assert!(report.contains("skipped"), "{report}");
    }

    #[test]
    fn serve_cross_thread_count_comparison_is_refused() {
        let base = serve_record(120.0, 12.0, 1);
        let cur = serve_record(300.0, 6.0, 4);
        let err = compare(&base, &cur, &Tolerance::default()).unwrap_err();
        assert!(err.contains("thread counts"), "{err}");
        assert!(err.contains("--skip-runtime"), "{err}");
        // ... but --skip-runtime still produces the informational report.
        let tol = Tolerance {
            skip_runtime: true,
            ..Tolerance::default()
        };
        let (report, regressed) = compare(&base, &cur, &tol).expect("valid");
        assert!(!regressed, "{report}");
    }

    #[test]
    fn serve_cross_mode_comparison_is_refused() {
        let base = serve_record(120.0, 12.0, 4);
        let cur = base.replace("\"mode\": \"closed\"", "\"mode\": \"open\"");
        let err = compare(&base, &cur, &Tolerance::default()).unwrap_err();
        assert!(err.contains("load-generator modes"), "{err}");
    }

    #[test]
    fn serve_bit_identity_mismatch_always_fails() {
        let base = serve_record(120.0, 12.0, 4);
        let cur = base.replace(
            "\"bit_identity_mismatches\": 0",
            "\"bit_identity_mismatches\": 2",
        );
        // Even under --skip-runtime: correctness is not machine-dependent.
        let tol = Tolerance {
            skip_runtime: true,
            ..Tolerance::default()
        };
        let (report, regressed) = compare(&base, &cur, &tol).expect("valid");
        assert!(regressed, "bit-identity mismatches must fail:\n{report}");
        assert!(report.contains("bit-identity"), "{report}");
    }

    #[test]
    fn mixed_record_families_are_an_error() {
        let table = record(1.0, 90.0);
        let serve = serve_record(120.0, 12.0, 4);
        let err = compare(&table, &serve, &Tolerance::default()).unwrap_err();
        assert!(err.contains("mixed record families"), "{err}");
        let err = compare(&serve, &table, &Tolerance::default()).unwrap_err();
        assert!(err.contains("mixed record families"), "{err}");
        // --min-accuracy has no meaning for serve records.
        let tol = Tolerance {
            min_accuracy_pct: Some(10.0),
            ..Tolerance::default()
        };
        let err = compare(&serve, &serve, &tol).unwrap_err();
        assert!(err.contains("table records only"), "{err}");
    }

    #[test]
    fn malformed_serve_record_is_an_error() {
        let good = serve_record(120.0, 12.0, 4);
        let no_rps = good.replace("\"rps\"", "\"req_s\"");
        let err = compare(&no_rps, &good, &Tolerance::default()).unwrap_err();
        assert!(err.contains("missing numeric `rps`"), "{err}");
        // A zero-throughput baseline is a misconfigured gate, not a pass.
        let dead = serve_record(0.0, 0.0, 4);
        let err = compare(&dead, &good, &Tolerance::default()).unwrap_err();
        assert!(err.contains("no usable throughput"), "{err}");
    }

    #[test]
    fn sentinel_trips_print_a_note_and_never_fail() {
        let base = record(1.0, 90.0);
        let cur = base.replace(
            "\"average\": {\"case\": \"Average\", \"accuracy_pct\": 90, \"false_alarms\": 4, \"seconds\": 1}",
            "\"average\": {\"case\": \"Average\", \"accuracy_pct\": 90, \"false_alarms\": 4, \"seconds\": 1},\n      \
             \"training\": {\"epochs\": 14, \"sentinel_trips\": [\"bias_collapse\", \"loss_spike\", \"bias_collapse\"]}",
        );
        assert_ne!(cur, base, "fixture gained a training summary");
        let (report, regressed) = compare(&base, &cur, &Tolerance::default()).expect("valid");
        assert!(!regressed);
        assert!(
            report.contains("NOTE: Ours tripped bias_collapse ×2, loss_spike ×1\n"),
            "{report}"
        );
        // Only the current record's trips are noted.
        let (report, _) = compare(&cur, &base, &Tolerance::default()).expect("valid");
        assert!(!report.contains("NOTE:"), "{report}");
        // The committed baseline's empty trip lists print no note.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_baseline_quick.json");
        let committed = std::fs::read_to_string(path).expect("committed baseline");
        let tol = Tolerance {
            skip_runtime: true,
            ..Tolerance::default()
        };
        let (report, regressed) = compare(&committed, &committed, &tol).expect("valid");
        assert!(!regressed);
        assert!(!report.contains("NOTE:"), "{report}");
    }

    #[test]
    fn missing_detector_is_a_note_not_a_failure() {
        let base = record(1.0, 90.0);
        let cur = base.replace("\"Ours\"", "\"Renamed\"");
        let (report, regressed) = compare(&base, &cur, &Tolerance::default()).expect("valid");
        assert!(!regressed);
        assert!(report.contains("missing from current record"));
        assert!(report.contains("new in current record"));
    }
}
