//! Shared command-line handling for the `repro_*` binaries.
//!
//! Every reproduction binary accepts the same flags:
//!
//! - `--quick` — reduced effort (fewer epochs, fewer cases/sizes);
//! - `--ledger <path>` — write the JSONL run ledger there instead of the
//!   default `LEDGER_<name>.jsonl` (the ledger is **on by default** for
//!   every repro run; see `rhsd_obs::ledger`);
//! - `--no-ledger` — disable the run ledger;
//! - `--bench-out <path>` — where to write the machine-readable benchmark
//!   record (used by `repro_table1`; default `BENCH_table1.json`);
//! - `--save-model <path>` — save the run's trained model as a loadable
//!   `rhsd-model/2` file (what `rhsd-serve --model` consumes);
//! - `--threads <n>` — worker-thread count for the `rhsd-par` pool
//!   (default: the `RHSD_THREADS` environment variable, else the
//!   machine's available parallelism; results are bit-identical at any
//!   value);
//! - `--help` — print usage.
//!
//! The span tree of a run and its icicle chart are rendered from the
//! ledger's `run_end` line: `cargo xtask report <ledger> [--html
//! <out.html>]`.
//!
//! Unknown flags are rejected with a usage message instead of being
//! silently ignored.
//!
//! On exit every binary prints the paths of all artifacts it wrote
//! (bench record, figures, saved model, ledger) via
//! [`BenchArgs::finish_run`], so CI logs show where outputs went.
//!
//! Exit codes: `0` on success (and `--help`), `1` on a runtime failure
//! reported via [`fail`], `2` on a usage error.

// Usage text, error reports and the artifact summary are this module's
// job; prints anywhere else in the crate still fail the workspace lints.
#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the audited CLI surface shared by every repro binary"
)]

use std::path::PathBuf;

use crate::pipeline::Effort;

/// Parsed options shared by every reproduction binary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchArgs {
    /// Run at reduced effort (`--quick`).
    pub quick: bool,
    /// Run-ledger output path (`--ledger <path>`, or the per-binary
    /// default unless `--no-ledger` was given).
    pub ledger: Option<PathBuf>,
    /// The run ledger was explicitly disabled (`--no-ledger`).
    pub no_ledger: bool,
    /// Machine-readable benchmark record path (`--bench-out <path>`).
    pub bench_out: Option<PathBuf>,
    /// Worker-thread count override (`--threads <n>`); `None` keeps the
    /// pool default (`RHSD_THREADS` or available parallelism).
    pub threads: Option<usize>,
    /// Save the run's trained model there (`--save-model <path>`), so
    /// `rhsd-serve` and users get weights without patching code.
    pub save_model: Option<PathBuf>,
    /// Artifact paths written so far (printed by [`BenchArgs::finish_run`]).
    artifacts: Vec<PathBuf>,
}

/// Reports a fatal runtime error (as opposed to a usage error, which
/// exits with code 2 via [`BenchArgs::parse`]) and exits with code 1.
/// An open run ledger is closed with status `"error"` first, so the
/// failure is recorded in the stream.
pub fn fail(context: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("error: {context}: {err}");
    let _ = rhsd_obs::ledger::close("error");
    std::process::exit(1);
}

/// The default run-ledger path for a binary named `bin`
/// (`repro_table1` → `LEDGER_table1.jsonl`).
pub fn default_ledger_path(bin: &str) -> PathBuf {
    let name = bin.strip_prefix("repro_").unwrap_or(bin);
    PathBuf::from(format!("LEDGER_{name}.jsonl"))
}

/// Usage text for a binary named `bin`.
pub fn usage(bin: &str) -> String {
    format!(
        "usage: {bin} [--quick] [--ledger <path>] [--no-ledger]\n\
         \x20           [--bench-out <path>] [--save-model <path>]\n\
         \x20           [--threads <n>]\n\
         \n\
         --quick            reduced-effort run (seconds instead of minutes)\n\
         --ledger <path>    write the JSONL run ledger there (default: {ledger})\n\
         --no-ledger        disable the run ledger\n\
         --bench-out <path> machine-readable benchmark record (repro_table1;\n\
         \x20                  default: BENCH_table1.json)\n\
         --save-model <path> save the run's trained model as a loadable\n\
         \x20                  rhsd-model/2 file (for `rhsd-serve --model`)\n\
         --threads <n>      rhsd-par worker threads (default: RHSD_THREADS or\n\
         \x20                  available parallelism; output is bit-identical\n\
         \x20                  at any value)\n\
         --help             show this message\n\
         \n\
         span tree and icicle page:\n\
         \x20 cargo xtask report <ledger> [--html <out.html>]",
        ledger = default_ledger_path(bin).display(),
    )
}

impl BenchArgs {
    /// Parses the process arguments; prints usage and exits on `--help`
    /// or on an invalid flag. Applies the per-binary default ledger path
    /// and enables observability when the run ledger is active.
    pub fn parse(bin: &str) -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(Some(mut args)) => {
                if args.ledger.is_none() && !args.no_ledger {
                    args.ledger = Some(default_ledger_path(bin));
                }
                if let Some(n) = args.threads {
                    rhsd_par::set_threads(n);
                }
                args.init_obs();
                args
            }
            Ok(None) => {
                println!("{}", usage(bin));
                std::process::exit(0);
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{}", usage(bin));
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list. Returns `Ok(None)` when `--help`
    /// was requested, `Err` with a message on invalid input. (No default
    /// ledger path is applied here — that needs the binary name; see
    /// [`BenchArgs::parse`].)
    pub fn parse_from<I, S>(args: I) -> Result<Option<Self>, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter().map(Into::into);
        let path_flag =
            |slot: &mut Option<PathBuf>, flag: &str, value: Option<String>| -> Result<(), String> {
                if slot.is_some() {
                    return Err(format!("{flag} given more than once"));
                }
                let path = value.ok_or(format!("{flag} requires a path argument"))?;
                *slot = Some(PathBuf::from(path));
                Ok(())
            };
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => out.quick = true,
                "--ledger" => path_flag(&mut out.ledger, "--ledger", it.next())?,
                "--bench-out" => path_flag(&mut out.bench_out, "--bench-out", it.next())?,
                "--save-model" => path_flag(&mut out.save_model, "--save-model", it.next())?,
                "--threads" => {
                    if out.threads.is_some() {
                        return Err("--threads given more than once".into());
                    }
                    let value = it.next().ok_or("--threads requires a count argument")?;
                    match rhsd_par::parse_threads(Some(&value)) {
                        Some(n) => out.threads = Some(n),
                        None => {
                            return Err(format!(
                                "--threads needs a positive integer, got `{value}`"
                            ))
                        }
                    }
                }
                "--no-ledger" => out.no_ledger = true,
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if out.no_ledger && out.ledger.is_some() {
            return Err("--ledger and --no-ledger are mutually exclusive".into());
        }
        Ok(Some(out))
    }

    /// The effort level the flags select.
    pub fn effort(&self) -> Effort {
        if self.quick {
            Effort::Quick
        } else {
            Effort::Full
        }
    }

    /// Turns observability on when the run ledger is active.
    pub fn init_obs(&self) {
        if self.ledger.is_some() {
            rhsd_obs::set_enabled(true);
        }
    }

    /// Opens the run ledger (when enabled) and writes its `run_start`
    /// manifest: binary name, primary seed, config summary, effort, host,
    /// crate version and worker-thread count. Call once, right after
    /// parsing.
    ///
    /// A ledger that cannot be opened is reported and disabled rather
    /// than failing the run.
    pub fn start_run(&mut self, bin: &str, seed: u64, config: &str) {
        let Some(path) = self.ledger.clone() else {
            return;
        };
        let manifest = rhsd_obs::ledger::Manifest {
            bin: bin.to_owned(),
            seed,
            config: config.to_owned(),
            effort: format!("{:?}", self.effort()),
            host: rhsd_obs::ledger::host_string(),
            version: env!("CARGO_PKG_VERSION").to_owned(),
            threads: rhsd_par::threads() as u64,
            isa: rhsd_tensor::ops::kernels::isa_name().to_owned(),
        };
        if let Err(e) = rhsd_obs::ledger::open(&path, manifest) {
            eprintln!("failed to open ledger {}: {e}", path.display());
            self.ledger = None;
        }
    }

    /// Records an artifact path for the exit summary printed by
    /// [`BenchArgs::finish_run`], and emits an `artifact` line to the
    /// run ledger (when one is active) so downstream tooling can find
    /// the file from the ledger alone.
    pub fn note_artifact(&mut self, path: impl Into<PathBuf>) {
        let path = path.into();
        rhsd_obs::ledger::emit(&rhsd_obs::ledger::Event::Artifact {
            path: path.display().to_string(),
        });
        self.artifacts.push(path);
    }

    /// Saves the trained model when `--save-model` was given (a no-op
    /// otherwise), noting the artifact. A model that cannot be written
    /// fails the run via [`fail`] — a silently missing model would break
    /// the serve flow the flag exists for.
    pub fn save_model_if_requested(&mut self, detector: &rhsd_core::RegionDetector) {
        let Some(path) = self.save_model.clone() else {
            return;
        };
        match rhsd_core::persist::save_to_path(detector.network(), &path) {
            Ok(()) => {
                eprintln!("saved trained model: {}", path.display());
                self.note_artifact(path);
            }
            Err(e) => fail("save model", e),
        }
    }

    /// Finishes the run: closes the run ledger with `status` (emitting
    /// its `run_end` line) and prints the path of every artifact the run
    /// wrote.
    pub fn finish_run(&mut self, status: &str) {
        if let Some(path) = rhsd_obs::ledger::close(status) {
            self.artifacts.push(path);
        }
        if !self.artifacts.is_empty() {
            eprintln!("artifacts:");
            for a in &self.artifacts {
                eprintln!("  {}", a.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_flags() {
        let args = BenchArgs::parse_from([
            "--quick",
            "--ledger",
            "run.jsonl",
            "--bench-out",
            "b.json",
            "--save-model",
            "model.json",
        ])
        .unwrap()
        .unwrap();
        assert!(args.quick);
        assert_eq!(
            args.ledger.as_deref(),
            Some(std::path::Path::new("run.jsonl"))
        );
        assert_eq!(
            args.bench_out.as_deref(),
            Some(std::path::Path::new("b.json"))
        );
        assert_eq!(
            args.save_model.as_deref(),
            Some(std::path::Path::new("model.json"))
        );
        assert_eq!(args.effort(), Effort::Quick);
    }

    #[test]
    fn empty_args_are_full_effort() {
        let args = BenchArgs::parse_from(Vec::<String>::new())
            .unwrap()
            .unwrap();
        assert_eq!(args, BenchArgs::default());
        assert_eq!(args.effort(), Effort::Full);
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = BenchArgs::parse_from(["--qiuck"]).unwrap_err();
        assert!(err.contains("--qiuck"), "{err}");
    }

    #[test]
    fn missing_path_is_rejected() {
        assert!(BenchArgs::parse_from(["--ledger"]).is_err());
        assert!(BenchArgs::parse_from(["--bench-out"]).is_err());
        assert!(BenchArgs::parse_from(["--save-model"]).is_err());
    }

    #[test]
    fn duplicate_path_flags_are_rejected() {
        for flag in ["--ledger", "--bench-out", "--save-model"] {
            let err = BenchArgs::parse_from([flag, "a", flag, "b"]).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn no_ledger_disables_and_conflicts_with_ledger() {
        let args = BenchArgs::parse_from(["--no-ledger"]).unwrap().unwrap();
        assert!(args.no_ledger);
        assert_eq!(args.ledger, None);
        let err = BenchArgs::parse_from(["--no-ledger", "--ledger", "x.jsonl"]).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn threads_flag_parses_and_rejects_bad_values() {
        let args = BenchArgs::parse_from(["--threads", "4"]).unwrap().unwrap();
        assert_eq!(args.threads, Some(4));
        let args = BenchArgs::parse_from(Vec::<String>::new())
            .unwrap()
            .unwrap();
        assert_eq!(args.threads, None);
        for bad in ["0", "-1", "four", ""] {
            let err = BenchArgs::parse_from(["--threads", bad]).unwrap_err();
            assert!(err.contains("--threads"), "{err}");
        }
        assert!(BenchArgs::parse_from(["--threads"]).is_err());
        let err = BenchArgs::parse_from(["--threads", "2", "--threads", "3"]).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn removed_export_flags_are_unknown() {
        // The ledger's `run_end` carries the counters, peaks and span
        // tree; `xtask report` renders them.
        for flag in [
            "--metrics",
            "--trace",
            "--span-tree",
            "--profile",
            "--profile=97",
        ] {
            let err = BenchArgs::parse_from([flag, "t.json"]).unwrap_err();
            assert!(err.contains(&format!("unknown argument `{flag}`")), "{err}");
        }
    }

    #[test]
    fn default_ledger_path_strips_repro_prefix() {
        assert_eq!(
            default_ledger_path("repro_table1"),
            PathBuf::from("LEDGER_table1.jsonl")
        );
        assert_eq!(
            default_ledger_path("other_bin"),
            PathBuf::from("LEDGER_other_bin.jsonl")
        );
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(BenchArgs::parse_from(["--help"]).unwrap(), None);
        assert_eq!(BenchArgs::parse_from(["-h", "--junk"]).unwrap(), None);
    }

    #[test]
    fn usage_names_every_flag() {
        let u = usage("repro_table1");
        for flag in [
            "--quick",
            "--ledger",
            "--no-ledger",
            "--bench-out",
            "--save-model",
            "--threads",
            "--help",
        ] {
            assert!(u.contains(flag), "usage missing {flag}");
        }
        assert!(u.contains("LEDGER_table1.jsonl"), "{u}");
    }
}
