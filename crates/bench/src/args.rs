//! Command-line handling for the `repro` binary: the experiment names
//! and flags that [`usage`] lists, and the run's lifecycle (ledger,
//! artifacts, saved model).
//!
//! Experiments always run in [`Experiment::ALL`]'s order, whatever order
//! they are named in. Unknown flags, unknown or repeated experiment
//! names, `--bench-out` without `table1` and `--save-model` with only
//! `scaling` are usage errors rather than silently ignored. On exit the
//! binary prints the path of every artifact it wrote via
//! [`BenchArgs::finish_run`], so CI logs show where outputs went.
//!
//! Exit codes: `0` on success (and `--help`), `1` on a runtime failure
//! reported via [`fail`], `2` on a usage error.

// Usage text, error reports and the artifact summary are this module's
// job; prints anywhere else in the crate still fail the workspace lints.
#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the audited CLI surface of the repro binary"
)]

use std::path::PathBuf;

use crate::pipeline::{Effort, Run, OURS_SEED};

/// The run ledger's path unless `--ledger` or `--no-ledger` is given.
pub const DEFAULT_LEDGER: &str = "LEDGER_repro.jsonl";

/// One experiment of the `repro` binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Experiment {
    /// Table 1: TCAD'18, Faster R-CNN, SSD and Ours on Case2/3/4.
    Table1,
    /// Figure 9: ground truth vs TCAD'18 vs Ours, drawn as SVGs.
    Fig9,
    /// Figure 10: the encoder–decoder / L2 / refinement ablation.
    Fig10,
    /// Evaluation-time ablations: h-NMS vs NMS, score-threshold sweep.
    Ablations,
    /// Region scan vs clip scan runtime over growing layout area.
    Scaling,
}

impl Experiment {
    /// Every experiment, in run order.
    pub const ALL: [Experiment; 5] = [
        Experiment::Table1,
        Experiment::Fig9,
        Experiment::Fig10,
        Experiment::Ablations,
        Experiment::Scaling,
    ];

    /// The experiment's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Fig9 => "fig9",
            Experiment::Fig10 => "fig10",
            Experiment::Ablations => "ablations",
            Experiment::Scaling => "scaling",
        }
    }
}

/// Parsed command line of the `repro` binary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchArgs {
    /// Run at reduced effort (`--quick`).
    pub quick: bool,
    /// Run-ledger output path (`--ledger <path>`, or [`DEFAULT_LEDGER`]
    /// unless `--no-ledger` was given).
    pub ledger: Option<PathBuf>,
    /// The run ledger was explicitly disabled (`--no-ledger`).
    pub no_ledger: bool,
    /// Machine-readable benchmark record path (`--bench-out <path>`).
    pub bench_out: Option<PathBuf>,
    /// Worker-thread count override (`--threads <n>`); `None` keeps the
    /// pool default (`RHSD_THREADS` or available parallelism).
    pub threads: Option<usize>,
    /// Save the trained Ours network there (`--save-model <path>`), so
    /// `rhsd-serve` and users get weights without patching code.
    pub save_model: Option<PathBuf>,
    /// The experiments named on the command line, in run order; empty
    /// runs all of them (see [`BenchArgs::experiments`]).
    experiments: Vec<Experiment>,
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

/// Usage text of the `repro` binary.
pub fn usage() -> String {
    format!(
        "usage: repro [table1] [fig9] [fig10] [ablations] [scaling]\n\
         \x20            [--quick] [--ledger <path>] [--no-ledger]\n\
         \x20            [--bench-out <path>] [--save-model <path>]\n\
         \x20            [--threads <n>]\n\
         \n\
         Runs the named experiments (all five when none is named), always\n\
         in this order, training each network once:\n\
         \x20 table1     Table 1: TCAD'18, Faster R-CNN, SSD and Ours on Case2/3/4\n\
         \x20 fig9       Figure 9: truth vs TCAD'18 vs Ours (fig9_*.svg)\n\
         \x20 fig10      Figure 10: w/o. ED, L2, Refine and Full (fig10_results.json)\n\
         \x20 ablations  h-NMS vs NMS, score-threshold sweep (ablation_roc.json)\n\
         \x20 scaling    region scan vs clip scan time as the layout grows\n\
         \n\
         --quick            reduced-effort run (seconds instead of minutes)\n\
         --ledger <path>    write the JSONL run ledger there (default: {DEFAULT_LEDGER})\n\
         --no-ledger        disable the run ledger\n\
         --bench-out <path> table1's machine-readable benchmark record\n\
         \x20                  (default: BENCH_table1.json)\n\
         --save-model <path> save the trained Ours network as a loadable\n\
         \x20                  rhsd-model/2 file (for `rhsd-serve --model`)\n\
         --threads <n>      rhsd-par worker threads (default: RHSD_THREADS or\n\
         \x20                  available parallelism; output is bit-identical\n\
         \x20                  at any value)\n\
         --help             show this message\n\
         \n\
         span tree and icicle page:\n\
         \x20 cargo xtask report <ledger> [--html <out.html>]",
    )
}

impl BenchArgs {
    /// Parses the process arguments; prints usage and exits on `--help`
    /// or on an invalid command line. Applies the default ledger path
    /// and enables observability when the run ledger is active.
    pub fn parse() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(Some(mut args)) => {
                if args.ledger.is_none() && !args.no_ledger {
                    args.ledger = Some(PathBuf::from(DEFAULT_LEDGER));
                }
                if let Some(n) = args.threads {
                    rhsd_par::set_threads(n);
                }
                if args.ledger.is_some() {
                    rhsd_obs::set_enabled(true);
                }
                args
            }
            Ok(None) => {
                println!("{}", usage());
                std::process::exit(0);
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{}", usage());
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list. Returns `Ok(None)` when `--help`
    /// was requested, `Err` with a message on invalid input. (No default
    /// ledger path is applied here; see [`BenchArgs::parse`].)
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
                flag if flag.starts_with('-') => return Err(format!("unknown argument `{flag}`")),
                name => {
                    let Some(e) = Experiment::ALL.into_iter().find(|e| e.name() == name) else {
                        let names = Experiment::ALL.map(Experiment::name).join(", ");
                        return Err(format!(
                            "unknown experiment `{name}` (the experiments are {names})"
                        ));
                    };
                    if out.experiments.contains(&e) {
                        return Err(format!("experiment `{name}` named more than once"));
                    }
                    out.experiments.push(e);
                }
            }
        }
        out.experiments.sort_unstable();
        if out.no_ledger && out.ledger.is_some() {
            return Err("--ledger and --no-ledger are mutually exclusive".into());
        }
        if out.bench_out.is_some() && !out.experiments().contains(&Experiment::Table1) {
            return Err("--bench-out is table1's record, and table1 does not run".into());
        }
        if out.save_model.is_some() && out.experiments() == [Experiment::Scaling] {
            return Err("--save-model needs a trained network, and scaling trains none".into());
        }
        Ok(Some(out))
    }

    /// The experiments to run, in run order: the named ones, or all of
    /// them when none was named.
    pub fn experiments(&self) -> &[Experiment] {
        if self.experiments.is_empty() {
            &Experiment::ALL
        } else {
            &self.experiments
        }
    }

    /// The effort level the flags select.
    pub fn effort(&self) -> Effort {
        if self.quick {
            Effort::Quick
        } else {
            Effort::Full
        }
    }

    /// Opens the run ledger (when enabled) and writes its `run_start`
    /// manifest: binary name, primary seed, the experiments, effort,
    /// host, crate version and worker-thread count. Call once, right
    /// after parsing.
    ///
    /// A ledger that cannot be opened is reported and disabled rather
    /// than failing the run.
    pub fn start_run(&mut self) {
        let Some(path) = self.ledger.clone() else {
            return;
        };
        let manifest = rhsd_obs::ledger::Manifest {
            bin: "repro".to_owned(),
            seed: OURS_SEED,
            config: format!("demo scale: {}", self.experiment_names()),
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

    /// The experiments to run, by name, space-separated.
    pub fn experiment_names(&self) -> String {
        self.experiments()
            .iter()
            .map(|e| e.name())
            .collect::<Vec<_>>()
            .join(" ")
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

    /// Saves the run's Ours network when `--save-model` was given (a
    /// no-op otherwise), noting the artifact. A model that cannot be
    /// written fails the run via [`fail`] — a silently missing model would
    /// break the serve flow the flag exists for.
    pub fn save_model_if_requested(&mut self, run: &mut Run) {
        let Some(path) = self.save_model.clone() else {
            return;
        };
        match rhsd_core::persist::save_to_path(run.ours().detector.network(), &path) {
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
        let paths = [&args.ledger, &args.bench_out, &args.save_model];
        let paths = paths.map(|p| p.as_deref().and_then(std::path::Path::to_str));
        assert_eq!(
            paths,
            [Some("run.jsonl"), Some("b.json"), Some("model.json")]
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
    fn experiments_default_to_all_and_run_in_fixed_order() {
        let all = BenchArgs::parse_from(["--quick"]).unwrap().unwrap();
        assert_eq!(all.experiments(), Experiment::ALL);
        assert_eq!(
            all.experiment_names(),
            "table1 fig9 fig10 ablations scaling"
        );
        let some = BenchArgs::parse_from(["scaling", "--quick", "fig10", "table1"]);
        let some = some.unwrap().unwrap();
        let want = [Experiment::Table1, Experiment::Fig10, Experiment::Scaling];
        assert_eq!(some.experiments(), want);
    }

    #[test]
    fn unknown_and_repeated_experiments_are_rejected() {
        let err = BenchArgs::parse_from(["table2"]).unwrap_err();
        assert!(err.contains("unknown experiment `table2`"), "{err}");
        let err = BenchArgs::parse_from(["fig9", "table1", "fig9"]).unwrap_err();
        assert!(err.contains("`fig9` named more than once"), "{err}");
    }

    #[test]
    fn bench_out_needs_table1_and_save_model_a_trained_network() {
        let err = BenchArgs::parse_from(["fig10", "--bench-out", "b.json"]).unwrap_err();
        assert!(err.contains("--bench-out"), "{err}");
        assert!(BenchArgs::parse_from(["fig10", "table1", "--bench-out", "b.json"]).is_ok());
        let err = BenchArgs::parse_from(["scaling", "--save-model", "m.json"]).unwrap_err();
        assert!(err.contains("--save-model"), "{err}");
        for trains in ["table1", "fig9", "fig10", "ablations"] {
            let args = BenchArgs::parse_from(["scaling", trains, "--save-model", "m.json"]);
            assert!(args.is_ok(), "{trains}: {args:?}");
        }
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(BenchArgs::parse_from(["--help"]).unwrap(), None);
        assert_eq!(BenchArgs::parse_from(["-h", "--junk"]).unwrap(), None);
    }

    #[test]
    fn usage_names_every_flag_and_experiment() {
        let u = usage();
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
        for experiment in Experiment::ALL {
            assert!(
                u.contains(experiment.name()),
                "usage missing {experiment:?}"
            );
        }
        assert!(u.contains(DEFAULT_LEDGER), "{u}");
    }
}
