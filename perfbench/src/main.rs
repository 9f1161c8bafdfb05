//! `perfbench` — the repository benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <train|scan_dense|scan_sparse|serve>
//!                       [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Builds the workload's inputs from the seed, runs it for about `S`
//! seconds through the public API of the crates under test (and, for
//! `serve`, the shipped `rhsd-serve` binary), checks the outputs, and
//! prints one JSON result line last on stdout: the end-to-end metrics,
//! or with `--trace 1` the per-layer metrics. See README.md.

mod host;
mod inputs;
mod metrics;
mod model;
mod probe;
mod serve;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["train", "scan_dense", "scan_sparse", "serve"];

/// `rhsd-par` pool size of every run, the server included.
pub const THREADS: usize = 2;

const USAGE: &str =
    "usage: perfbench --serve-bin <path> --workload <train|scan_dense|scan_sparse|serve>
                 [--seed N] [--seconds S] [--trace 0|1]";

/// Parsed command line.
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// The `rhsd-serve` binary built from this checkout.
    pub serve_bin: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = inputs::DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut serve_bin = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_owned())?;
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_owned())?;
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value("--serve-bin")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        serve_bin: serve_bin.ok_or("--serve-bin is required (run through run.sh)")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    rhsd_par::set_threads(THREADS);
    if let [flag, dir] = argv.as_slice() {
        if flag == "--prepare" {
            return match model::prepare(&PathBuf::from(dir)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: preparing the model failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\n{USAGE}\n(default seed {}, held-out seed {})",
                inputs::DEFAULT_SEED,
                inputs::HELD_OUT_SEED
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(correct) if correct => ExitCode::SUCCESS,
        Ok(_) => {
            eprintln!("perfbench: correctness checks failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload and prints its result line; returns whether every
/// check passed.
fn run(args: &Args) -> Result<bool, String> {
    let model = model::ensure(&args.serve_bin)?;
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} threads {} isa {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rhsd_par::threads(),
        rhsd_tensor::ops::kernels::isa_name()
    );
    let steal_before = host::steal_ticks();
    let mut outcome = match args.workload.as_str() {
        "train" => workloads::train(args, &model)?,
        "scan_dense" => workloads::scan(args, &model, inputs::dense_spec(args.seed))?,
        "scan_sparse" => workloads::scan(args, &model, inputs::sparse_spec(args.seed))?,
        "serve" => workloads::serve(args, &model)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    // Stolen time slows every wall-clock figure, not the CPU-time ones.
    let steal = host::steal_share(steal_before, host::steal_ticks());
    eprintln!(
        "perfbench: the host stole {:.1}% of this machine's CPU time during the run",
        100.0 * steal
    );
    outcome.set("host.steal_share", steal);
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", outcome.result_json(catalogue)?);
    Ok(outcome.failed == 0)
}
