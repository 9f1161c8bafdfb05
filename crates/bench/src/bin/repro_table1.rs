//! Regenerates **Table 1** of the paper: accuracy, false-alarm count and
//! detection runtime of TCAD'18, Faster R-CNN, SSD and Ours on the three
//! evaluated benchmark cases, plus Average and Ratio rows.
//!
//! Usage: `cargo run -p rhsd-bench --release --bin repro_table1 --
//! [--quick] [--ledger <path>] [--threads <n>]
//! [--bench-out <path>] [--save-model <path>]`
//!
//! The run is deterministic (all seeds fixed). Results are printed to
//! stdout; the machine-readable benchmark record lands in
//! `BENCH_table1.json` (override with `--bench-out`) — the input of
//! `cargo xtask bench-diff` — and the full run ledger in
//! `LEDGER_table1.jsonl` unless `--no-ledger` is given.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary owns the terminal"
)]

use std::path::PathBuf;

use rhsd_bench::args::BenchArgs;
use rhsd_bench::pipeline::{run_table1, write_bench_json, OURS_SEED};
use rhsd_bench::table::render_table1;

fn main() {
    let mut args = BenchArgs::parse("repro_table1");
    let effort = args.effort();
    args.start_run(
        "repro_table1",
        OURS_SEED,
        "demo-scale Table 1: TCAD'18, Faster R-CNN, SSD, Ours on Case2/3/4",
    );
    eprintln!("repro_table1: effort = {effort:?}{}", effort.hint());
    eprintln!("building benchmarks, training 4 detectors, scanning test halves…");
    let timer = rhsd_obs::Stopwatch::start();
    let (reports, ours) = run_table1(effort);
    eprintln!("total wall clock: {:.1}s", timer.secs());
    args.save_model_if_requested(&ours);

    println!("\nTable 1: Comparison with State-of-the-art (synthetic reproduction)\n");
    println!("{}", render_table1(&reports));

    // headline claims relative to TCAD'18 (paper: +6.14% accuracy, 45×
    // speedup, ~200 fewer false alarms)
    if let (Some(base), Some(ours)) = (
        reports.iter().find(|r| r.name == "TCAD'18"),
        reports.iter().find(|r| r.name == "Ours"),
    ) {
        let b = base.average();
        let o = ours.average();
        println!("Headline vs TCAD'18:");
        println!(
            "  accuracy: {:+.2}% (paper: +6.14%)",
            o.accuracy_pct - b.accuracy_pct
        );
        println!(
            "  false alarms: {:+} (paper: ≈ −190)",
            o.false_alarms as i64 - b.false_alarms as i64
        );
        if o.seconds > 0.0 {
            println!(
                "  speedup: {:.1}× (paper: ≈ 42× on GPU hardware)",
                b.seconds / o.seconds
            );
        }
    }

    let bench_out = args
        .bench_out
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_table1.json"));
    write_bench_json(&bench_out, "repro_table1", args.quick, OURS_SEED, &reports)
        .unwrap_or_else(|e| rhsd_bench::fail("write bench record", e));
    args.note_artifact(bench_out);

    args.finish_run("ok");
}
