//! `rhsd-serve` — the serving daemon and its offline reference writer.
//!
//! Serve mode (long-lived):
//!
//! ```text
//! rhsd-serve --model model.json [--port 7878] [--threads N] [--ledger serve.jsonl]
//! ```
//!
//! Prints `rhsd-serve listening on <addr>` once ready (scripts parse
//! this line to learn an ephemeral port), then blocks until a client
//! sends `{"op":"shutdown"}`.
//!
//! Offline mode (for bit-identity checks):
//!
//! ```text
//! rhsd-serve --model model.json --offline-scan Case2 [--half test] --out ref.json
//! ```
//!
//! Writes the offline scan result through the same canonical serialiser
//! the server uses for scan replies, so `cmp` against a served reply
//! proves bit-identity.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary owns the terminal"
)]

use std::path::PathBuf;
use std::process::ExitCode;

use rhsd_core::Precision;
use rhsd_layout::synth::CaseId;
use rhsd_obs::ledger::{host_string, Manifest};
use rhsd_serve::proto::{case_from_name, scan_response_json, Half};
use rhsd_serve::{offline_scan, ServeConfig, Server};

struct Args {
    model: PathBuf,
    port: u16,
    threads: Option<usize>,
    ledger: Option<PathBuf>,
    offline: Option<CaseId>,
    half: Half,
    out: Option<PathBuf>,
}

const USAGE: &str =
    "usage: rhsd-serve --model <model.json> [--port N] [--threads N] [--ledger <path>]
       rhsd-serve --model <model.json> --offline-scan <Case> [--half train|test] --out <path>";

fn parse_args() -> Result<Args, String> {
    let mut model = None;
    let mut port = 7878u16;
    let mut threads = None;
    let mut ledger = None;
    let mut offline = None;
    let mut half = Half::Test;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--model" => model = Some(PathBuf::from(value("--model")?)),
            "--port" => {
                port = value("--port")?
                    .parse()
                    .map_err(|_| "--port needs a number".to_owned())?;
            }
            "--threads" => {
                threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|_| "--threads needs a number".to_owned())?,
                );
            }
            "--ledger" => ledger = Some(PathBuf::from(value("--ledger")?)),
            "--offline-scan" => offline = Some(case_from_name(&value("--offline-scan")?)?),
            "--half" => {
                half = match value("--half")?.as_str() {
                    "train" => Half::Train,
                    "test" => Half::Test,
                    other => return Err(format!("unknown half `{other}`")),
                };
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let model = model.ok_or("--model is required".to_owned())?;
    Ok(Args {
        model,
        port,
        threads,
        ledger,
        offline,
        half,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("rhsd-serve: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(threads) = args.threads {
        rhsd_par::set_threads(threads);
    }

    if let Some(case) = args.offline {
        return run_offline(&args, case);
    }
    run_serve(&args)
}

fn run_offline(args: &Args, case: CaseId) -> ExitCode {
    let Some(out) = &args.out else {
        eprintln!("rhsd-serve: --offline-scan needs --out <path>");
        return ExitCode::from(2);
    };
    let result = match offline_scan(&args.model, case, args.half, Precision::F32) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rhsd-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let body = scan_response_json(case, args.half, &result);
    if let Err(e) = std::fs::write(out, &body) {
        eprintln!("rhsd-serve: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "rhsd-serve: offline scan of {case} ({}) -> {} ({} detections, {} regions)",
        args.half.name(),
        out.display(),
        result.detections.len(),
        result.regions
    );
    ExitCode::SUCCESS
}

fn run_serve(args: &Args) -> ExitCode {
    // The ledger is the server's only telemetry reader. Without one, an
    // enabled registry would just keep every span event and latency
    // sample in memory, growing with each request served.
    rhsd_obs::set_enabled(args.ledger.is_some());
    if let Some(path) = &args.ledger {
        let manifest = Manifest {
            bin: "rhsd-serve".into(),
            seed: 0,
            config: format!("model {}", args.model.display()),
            isa: rhsd_tensor::ops::kernels::isa_name().to_owned(),
            effort: "Serve".into(),
            host: host_string(),
            version: env!("CARGO_PKG_VERSION").into(),
            threads: rhsd_par::threads() as u64,
        };
        if let Err(e) = rhsd_obs::ledger::open(path, manifest) {
            eprintln!("rhsd-serve: cannot open ledger {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    let server = match Server::start(&ServeConfig {
        model: args.model.clone(),
        port: args.port,
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rhsd-serve: {e}");
            let _ = rhsd_obs::ledger::close("error");
            return ExitCode::FAILURE;
        }
    };
    println!("rhsd-serve listening on {}", server.addr());

    let summary = server.wait();
    println!(
        "rhsd-serve: served {} requests ({} scans); tile cache {}h/{}m, stem cache {}h/{}m",
        summary.requests,
        summary.scan_requests,
        summary.tile_hits,
        summary.tile_misses,
        summary.stem_hits,
        summary.stem_misses
    );
    let _ = rhsd_obs::ledger::close("ok");
    ExitCode::SUCCESS
}
