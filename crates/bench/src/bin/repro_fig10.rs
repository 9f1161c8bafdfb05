//! Regenerates **Figure 10** of the paper: the contribution of the
//! encoder–decoder structure, L2 regularisation and the refinement stage —
//! average accuracy (a) and average false alarms (b) for the variants
//! "w/o. ED", "w/o. L2", "w/o. Refine" and "Full".
//!
//! Usage: `cargo run -p rhsd-bench --release --bin repro_fig10 --
//! [--quick] [--ledger <path>] [--threads <n>]`

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary owns the terminal"
)]

use rhsd_bench::args::BenchArgs;
use rhsd_bench::pipeline::{row_json, run_fig10, OURS_SEED};
use rhsd_bench::table::render_fig10;

fn main() {
    let mut args = BenchArgs::parse("repro_fig10");
    let effort = args.effort();
    args.start_run(
        "repro_fig10",
        OURS_SEED,
        "demo-scale Figure 10 ablations: w/o ED, w/o L2, w/o Refine, Full",
    );
    eprintln!("repro_fig10: effort = {effort:?}{}", effort.hint());
    eprintln!("training 4 ablation variants…");
    let timer = rhsd_obs::Stopwatch::start();
    let (reports, full) = run_fig10(effort);
    eprintln!("total wall clock: {:.1}s", timer.secs());
    args.save_model_if_requested(&full);

    println!("\nFigure 10: ablation of ED / L2 / Refinement (synthetic reproduction)\n");
    println!("{}", render_fig10(&reports));

    // paper's stated deltas: ED +7% accuracy, L2 +2.2%, Refine −59.2% FA
    // and +5.88% accuracy
    let get = |name: &str| reports.iter().find(|r| r.name == name);
    if let (Some(full), Some(ed), Some(l2), Some(refine)) = (
        get("Full"),
        get("w/o. ED"),
        get("w/o. L2"),
        get("w/o. Refine"),
    ) {
        let f = full.average();
        println!("Deltas of the full model vs each ablation:");
        println!(
            "  ED contributes  {:+.2}% accuracy (paper: +7%)",
            f.accuracy_pct - ed.average().accuracy_pct
        );
        println!(
            "  L2 contributes  {:+.2}% accuracy (paper: +2.2%)",
            f.accuracy_pct - l2.average().accuracy_pct
        );
        let r = refine.average();
        println!(
            "  Refinement: {:+.2}% accuracy (paper: +5.88%), {:.1}% FA reduction (paper: −59.2%)",
            f.accuracy_pct - r.accuracy_pct,
            if r.false_alarms > 0 {
                100.0 * (1.0 - f.false_alarms as f64 / r.false_alarms as f64)
            } else {
                0.0
            }
        );
    }

    // One `[name, rows]` pair per variant.
    let variants: Vec<String> = reports
        .iter()
        .map(|r| {
            let rows: Vec<String> = r.rows.iter().map(row_json).collect();
            format!(
                "[\"{}\", [\n    {}\n  ]]",
                rhsd_obs::json::escape(&r.name),
                rows.join(",\n    ")
            )
        })
        .collect();
    let pretty = format!("[\n  {}\n]\n", variants.join(",\n  "));
    std::fs::write("fig10_results.json", pretty)
        .unwrap_or_else(|e| rhsd_bench::fail("write fig10_results.json", e));
    args.note_artifact("fig10_results.json");

    args.finish_run("ok");
}
