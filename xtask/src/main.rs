//! Workspace automation tasks, invoked as `cargo xtask <task>`.
//!
//! The tasks: `lint`, the workspace-specific static-analysis gate
//! described in DESIGN.md §Correctness tooling; `bench-diff`, the
//! benchmark regression gate over `BENCH_*.json` records;
//! `microbench`, the per-kernel timing harness that localises runtime
//! regressions to a kernel family; `loadgen`, the serve load generator;
//! `report`, which renders a run ledger as a readable run report; and
//! `isa`, which prints the kernel tiers this host runs. All are kept
//! dependency-free beyond the workspace's own crates so they build
//! instantly and work offline.

mod bench_diff;
mod lint;
mod loadgen;
mod microbench;
mod report;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo xtask <task>

tasks:
  lint [--root <dir>] [--format <fmt>] [--out <file>] [--check-allow]
      Run the workspace lint rules clippy cannot express (L4, L6/L12,
      L8, L9, L11, L13) over crates/*/src/**/*.rs on the token engine
      (lexer + scope parser); L1, L2, L3, L5, L7 and L10 are clippy
      lints (`cargo clippy --workspace --all-features -- -D warnings`).
      --root         workspace root (default: parent of the xtask crate)
      --format       text (default) | json (rhsd-lint-report/1) |
                     github (::error workflow annotations)
      --out          also write the JSON report to <file>
      --check-allow  fail (exit 1) when an inline `// lint:allow`
                     marker no longer matches anything

  microbench [--quick] [--threads <n>] [--out <file>]
      Time the hot kernels (in-place conv, fold, FC, litho aerial) over
      a fixed shape table — each case twice, scalar-forced then with the
      detected ISA, recording the speedup — and write a
      `rhsd-microbench/2` JSON record.
      --quick    small shape table / few reps (CI smoke mode)
      --threads  rhsd-par pool size (default: machine default)
      --out      output path (default: <workspace root>/MICROBENCH.json)

  loadgen [--addr <host:port>] [--connections <n>] [--requests <m>]
          [--mode closed|open] [--case <Case2,Case3>] [--seed <n>]
          [--expect <Case>=<file>] [--out <file>] [--shutdown] [--quick]
      Drive a running rhsd-serve with N connections x M scan requests
      (deterministic case schedule) and write a `rhsd-serve-bench/1`
      record (req/s, p50/p95/p99 latency, regions scanned, cache hit
      rates) for bench-diff.
      --mode      closed (wait per reply; default) or open (pipeline all
                  requests, then drain)
      --expect    byte-compare every reply for <Case> against <file>
                  (written by `rhsd-serve --offline-scan`); any mismatch
                  fails the run (exit 1)
      --shutdown  send a graceful shutdown after collecting stats
      --quick     CI smoke shape: 2 connections x 3 requests on Case2

  bench-diff <baseline.json> <current.json> [options]
      Compare two benchmark records — Table-1 records written by
      `repro table1` (`--bench-out`), or serve-throughput records written by
      `xtask loadgen` — and fail on regression past tolerance.
      --max-runtime-regress <pct>  runtime growth tolerance (default 10)
      --max-accuracy-drop <pt>     accuracy drop tolerance (default 0.5)
      --skip-runtime               ignore the machine-dependent runtime
                                   column (cross-machine CI gates)
      --min-accuracy <pct>         opt-in gate: fail when any detector
                                   in the current record averages below
                                   <pct> percent accuracy (catches
                                   silently collapsed models)

  report <ledger.jsonl> [--top <n>] [--html <out.html>]
      Render a JSONL run ledger as a run report: manifest, span tree
      (from the run_end line) with inclusive/exclusive time, cache hit
      rates, training dynamics (per-epoch trajectory, per-layer stats,
      sentinel trips), and the eval table.
      --top      rows in the top-exclusive list (default 8)
      --html     also write a self-contained HTML page: an icicle chart
                 of the span tree (width = inclusive seconds) and the
                 learning-dynamics dashboard (loss/lr/grad-norm/entropy
                 curves, per-layer tables; no scripts or external assets)

  isa
      Print the instruction set the kernels dispatch to on this host
      (honouring RHSD_FORCE_SCALAR=1) and the tiers at or below it,
      which the kernel tests run in turn.

exit codes: 0 clean, 1 violations/regression found, 2 usage error or
malformed input";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("microbench") => match microbench::run(&args[1..]) {
            Ok(code) => code,
            Err(msg) => usage_error(&msg),
        },
        Some("bench-diff") => match bench_diff::run(&args[1..]) {
            Ok(code) => code,
            Err(msg) => usage_error(&msg),
        },
        Some("loadgen") => match loadgen::run(&args[1..]) {
            Ok(code) => code,
            Err(msg) => usage_error(&msg),
        },
        Some("report") => match report::run(&args[1..]) {
            Ok(code) => code,
            Err(msg) => usage_error(&msg),
        },
        Some("isa") => {
            use rhsd_tensor::ops::kernels::{self, Isa};
            let active = kernels::isa();
            let tiers: Vec<&str> = [Isa::Scalar, Isa::Avx2, Isa::Avx512]
                .into_iter()
                .filter(|&t| t <= active)
                .map(Isa::name)
                .collect();
            println!(
                "dispatched isa: {} (tiers run: {})",
                active.name(),
                tiers.join(", ")
            );
            ExitCode::SUCCESS
        }
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => usage_error(&format!("unknown task `{other}`")),
        None => usage_error("missing task"),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn default_root() -> PathBuf {
    // CARGO_MANIFEST_DIR points at the xtask crate; the workspace root is
    // its parent. Fall back to the current directory when run directly.
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(|d| {
            let d = PathBuf::from(d);
            d.parent().map(PathBuf::from).unwrap_or(d)
        })
        .unwrap_or_else(|| PathBuf::from("."))
}

fn run_lint(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = "text".to_string();
    let mut out_path: Option<PathBuf> = None;
    let mut check_allow = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_error("--root needs a directory"),
            },
            "--format" => match it.next() {
                Some(v) if matches!(v.as_str(), "text" | "json" | "github") => {
                    format = v.clone();
                }
                Some(v) => {
                    return usage_error(&format!(
                        "--format must be text, json or github (got `{v}`)"
                    ))
                }
                None => return usage_error("--format needs a value"),
            },
            "--out" => match it.next() {
                Some(v) => out_path = Some(PathBuf::from(v)),
                None => return usage_error("--out needs a file"),
            },
            "--check-allow" => check_allow = true,
            other => return usage_error(&format!("unknown lint option `{other}`")),
        }
    }
    let root = root.unwrap_or_else(default_root);

    match lint::run(&root) {
        Ok(report) => {
            match format.as_str() {
                "json" => print!("{}", report.to_json()),
                "github" => print!("{}", report.to_github()),
                _ => print!("{report}"),
            }
            if let Some(out) = out_path {
                if let Err(e) = std::fs::write(&out, report.to_json()) {
                    eprintln!("error: write {}: {e}", out.display());
                    return ExitCode::from(2);
                }
            }
            let stale_fails = check_allow && !report.stale_allow().is_empty();
            if report.is_clean() && !stale_fails {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
