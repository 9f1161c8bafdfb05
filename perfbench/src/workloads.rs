//! The four workloads.
//!
//! An untraced run sets up several times (reporting the median), then
//! measures for `--seconds`. Every piece of timed work is measured two
//! ways: its wall time and the CPU time of the process doing it. The
//! end-to-end metrics report CPU time, because a busy virtual-machine
//! host moves it least (see [`crate::host`]); the traced run reports wall
//! time beside it. A
//! traced run measures for as long, in pairs of passes with the crates'
//! counters off in one and on in the other (the median CPU-time ratio of
//! a pair gives the tracing overhead), takes the counter deltas of those
//! passes, and then probes the layers on the same inputs.

use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd_bench::pipeline::{merged_train_regions, ours_config, train_config, Effort, OURS_SEED};
use rhsd_core::{persist, train_checked, Evaluation, RegionDetector, RhsdNetwork, ScanResult};
use rhsd_data::{Benchmark, RegionConfig, RegionSample};
use rhsd_layout::synth::{CaseId, CaseSpec};

use crate::host;
use crate::inputs::{self, CONNECTIONS, OPEN_RATE, SCANS};
use crate::metrics::Outcome;
use crate::model::ModelFiles;
use crate::probe;
use crate::serve::{self, ServerProc};
use crate::stats::{highest_supported, median, ratio};
use crate::Args;

/// Fewest set-ups per run; `setup_s` is the median of all of them. The
/// first one or two of a process run slowest, so the median needs
/// several more behind them.
const MIN_SETUPS: usize = 5;

/// Set-ups repeat, up to [`MAX_SETUPS`], until this many seconds of
/// set-up have passed.
const SETUP_BUDGET_S: f64 = 4.0;

/// Most set-ups per run.
const MAX_SETUPS: usize = 12;

/// Length of the traced `serve` run's open loop, as a share of
/// `--seconds`; it runs after a closed loop as long as an untraced run's.
const OPEN_SHARE: f64 = 0.6;

/// Wall and CPU seconds of one timed piece of work.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Pass {
    wall_s: f64,
    /// CPU seconds of the process doing the work.
    cpu_s: f64,
}

impl Pass {
    /// Runs `f` and times it on the wall clock and on the CPU clock of
    /// process `pid` (`self` or a process id).
    fn time<T>(pid: &str, f: impl FnOnce() -> T) -> Result<(T, Pass), String> {
        let cpu = host::cpu_s(pid)?;
        let t = Instant::now();
        let value = f();
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = host::cpu_s(pid)? - cpu;
        Ok((value, Pass { wall_s, cpu_s }))
    }

    /// Field-wise median of `passes`.
    fn median(passes: &[Pass]) -> Pass {
        let of = |f: fn(&Pass) -> f64| {
            median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        Pass {
            wall_s: of(|p| p.wall_s),
            cpu_s: of(|p| p.cpu_s),
        }
    }
}

/// Whether another set-up runs after `done` of them took `elapsed_s`.
fn more_setups(done: usize, elapsed_s: f64) -> bool {
    done < MIN_SETUPS || (done < MAX_SETUPS && elapsed_s < SETUP_BUDGET_S)
}

/// Runs `f` as [`more_setups`] says; returns the last result and the
/// median timing of one call.
fn setup_median<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, Pass), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while more_setups(times.len(), start.elapsed().as_secs_f64()) {
        let (value, pass) = Pass::time("self", &mut f)?;
        last = Some(value?);
        times.push(pass);
    }
    let value = last.ok_or("no set-up ran")?;
    eprintln!("perfbench: set-ups {}", show(&times));
    Ok((value, Pass::median(&times)))
}

/// `passes` as (wall, CPU) seconds.
fn show(passes: &[Pass]) -> String {
    let rows: Vec<String> = passes
        .iter()
        .map(|p| format!("({:.3}, {:.3})", p.wall_s, p.cpu_s))
        .collect();
    format!("(wall, CPU seconds) {}", rows.join(" "))
}

/// Whether pass `i` of an alternating run is traced. The passes pair up
/// as (0, 1), (2, 3), ...; the traced one comes second in even pairs and
/// first in odd ones, so that neither side always runs first.
fn traced_pass(i: usize) -> bool {
    (i % 2 == 1) != ((i / 2) % 2 == 1)
}

/// Runs `pass` until `seconds` have passed and at least `min` passes ran.
/// With `alternate`, one pass of each pair runs with the crates' counters
/// on (see [`traced_pass`]) and the count is kept even.
fn passes(
    seconds: f64,
    min: usize,
    alternate: bool,
    mut pass: impl FnMut(),
) -> Result<Vec<Pass>, String> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min
        || start.elapsed().as_secs_f64() < seconds
        || (alternate && times.len() % 2 == 1)
    {
        rhsd_obs::set_enabled(alternate && traced_pass(times.len()));
        let timed = Pass::time("self", &mut pass);
        rhsd_obs::set_enabled(false);
        times.push(timed?.1);
    }
    Ok(times)
}

/// The passes run with the counters off: all of them, or with
/// `alternate` the untraced one of each pair.
fn untraced(times: &[Pass], alternate: bool) -> Vec<Pass> {
    (0..times.len())
        .filter(|&i| !(alternate && traced_pass(i)))
        .map(|i| times[i])
        .collect()
}

/// `trace.time_ratio` and its base `trace.pairs`, from the passes of an
/// alternating run: the median over pairs of traced over untraced CPU
/// time. The tracing overhead is that ratio minus 1.
fn overhead(out: &mut Outcome, times: &[Pass]) {
    let ratios: Vec<f64> = times
        .chunks_exact(2)
        .enumerate()
        .map(|(k, p)| {
            let (plain, traced) = if traced_pass(2 * k) {
                (p[1], p[0])
            } else {
                (p[0], p[1])
            };
            traced.cpu_s / plain.cpu_s
        })
        .collect();
    let ratio = median(&ratios).unwrap_or(f64::NAN);
    eprintln!(
        "perfbench: tracing overhead {:+.1}% of CPU time (median of {} pairs)",
        100.0 * (ratio - 1.0),
        ratios.len()
    );
    out.set("trace.pairs", ratios.len() as f64);
    out.set("trace.time_ratio", ratio);
}

fn load(path: &std::path::Path) -> Result<RhsdNetwork, String> {
    persist::load_from_path(path).map_err(|e| format!("loading the model: {e}"))
}

/// Records what a run measured: the median set-up, and the measured work
/// `work` (the median untraced pass, or a serving loop), which covered
/// `regions` regions. The end-to-end metrics take CPU time, the `run.*`
/// layers wall time; the quality guards are those of the model under
/// test.
fn record(out: &mut Outcome, setup: Pass, regions: usize, work: Pass, model: &ModelFiles) {
    let regions = regions as f64;
    eprintln!(
        "perfbench: {regions} regions: CPU {:.2} ms per region, {:.2} regions per wall second",
        1e3 * work.cpu_s / regions,
        regions / work.wall_s
    );
    out.set("setup_s", setup.cpu_s);
    out.set("cpu_ms_per_region", 1e3 * work.cpu_s / regions);
    out.set("run.wall_setup_s", setup.wall_s);
    out.set("run.wall_regions_per_s", regions / work.wall_s);
    out.set("run.cpu_per_wall", ratio(work.cpu_s, work.wall_s));
    out.set("accuracy_pct", 100.0 * model.reference_eval.accuracy());
    out.set("false_alarms", model.reference_eval.false_alarms as f64);
    out.set("train_loss", model.train_loss);
}

/// [`record`] for the passes of a layout workload.
fn record_passes(
    out: &mut Outcome,
    setup: Pass,
    regions: usize,
    times: &[Pass],
    model: &ModelFiles,
) {
    eprintln!("perfbench: passes {}", show(times));
    record(out, setup, regions, Pass::median(times), model);
}

/// `train`: `train_checked` with the quick schedule on a fresh demo
/// "Ours" network over the 54 training-half regions of three seeded demo
/// layouts, one epoch per call, for `--seconds` (at least 2 epochs).
pub fn train(args: &Args, model: &ModelFiles) -> Result<Outcome, String> {
    let specs = inputs::train_specs(args.seed);
    let ((benches, samples), setup) = setup_median(|| {
        let benches: Vec<Benchmark> = specs.iter().map(Benchmark::from_spec).collect();
        let samples = merged_train_regions(&benches, &RegionConfig::demo(), false);
        Ok((benches, samples))
    })?;
    let mut out = Outcome::default();
    let counters = probe::counters_begin();
    let (times, loss) = train_epochs(&samples, args, &mut out)?;
    eprintln!("perfbench: final epoch loss {loss}");
    record_passes(
        &mut out,
        setup,
        samples.len(),
        &untraced(&times, args.trace),
        model,
    );
    out.set("peak_rss_mb", host::vm_hwm_mb("self")?);
    if !args.trace {
        return Ok(out);
    }
    probe::counters_end(&counters, &mut out);
    overhead(&mut out, &times);
    probe::setup_layers(&specs, &mut out);
    let extents: Vec<_> = benches.iter().map(|b| (b, b.train_extent)).collect();
    let regions = probe::tile(&extents, &mut out);
    let net = probe::model_load(&model.path, &mut out)?;
    probe::inference(&net, &regions, &mut out);
    probe::training(&net, &regions, args.seed, &mut out);
    // Def. 1/2 quality of the model under test on these layouts.
    let mut det = RegionDetector::new(net, RegionConfig::demo());
    let mut eval = Evaluation::default();
    for b in &benches {
        eval.merge(&det.scan(b, &b.train_extent).evaluation);
    }
    probe::quality(&eval, loss, &mut out);
    probe::serve_pass(args, model, &mut out)?;
    Ok(out)
}

/// One-epoch `train_checked` calls on a fresh network for `seconds`, at
/// least 2 (alternating untraced and traced with `alternate`). Each epoch
/// must end without a `TrainAbort` and with a finite loss. Returns the
/// epoch times and the last epoch's mean loss.
fn train_epochs(
    samples: &[RegionSample],
    args: &Args,
    out: &mut Outcome,
) -> Result<(Vec<Pass>, f64), String> {
    let mut rng = ChaCha8Rng::seed_from_u64(OURS_SEED);
    let mut net = RhsdNetwork::new(ours_config(), &mut rng);
    let mut loss = f64::NAN;
    let mut epoch = 0u64;
    let times = passes(args.seconds, 2, args.trace, || {
        let mut tc = train_config(Effort::Quick);
        tc.epochs = 1;
        tc.seed = tc.seed.wrapping_add(epoch);
        loss = match train_checked(&mut net, samples, &tc) {
            Ok(report) => report
                .history
                .last()
                .map_or(f64::NAN, |h| f64::from(h.mean_loss)),
            Err(abort) => {
                eprintln!("perfbench: epoch {epoch} aborted: {}", abort.reason);
                f64::NAN
            }
        };
        if !loss.is_finite() {
            eprintln!("perfbench: epoch {epoch} ended with loss {loss}");
        }
        out.check(loss.is_finite());
        epoch += 1;
    })?;
    Ok((times, loss))
}

/// `scan_dense` / `scan_sparse`: offline, uncached `RegionDetector::scan`
/// over the whole of one seeded 15 360 nm layout, repeated.
pub fn scan(args: &Args, model: &ModelFiles, spec: CaseSpec) -> Result<Outcome, String> {
    let ((bench, network), setup) =
        setup_median(|| Ok((Benchmark::from_spec(&spec), load(&model.path)?)))?;
    let extent = bench.layout.extent();
    let mut det = RegionDetector::new(network, RegionConfig::demo());
    let mut out = Outcome::default();
    let mut first: Option<ScanResult> = None;
    let counters = probe::counters_begin();
    let times = passes(args.seconds, 2, args.trace, || {
        let result = det.scan(&bench, &extent);
        let reference = first.get_or_insert_with(|| result.clone());
        let same = result.regions == reference.regions
            && result.evaluation == reference.evaluation
            && result.detections == reference.detections;
        if !same {
            eprintln!("perfbench: a repeated scan differs from the run's first scan");
        }
        out.check(same);
    })?;
    let first = first.ok_or("no scan ran")?;
    eprintln!(
        "perfbench: {} hotspots, accuracy {:.2}%, {} false alarms",
        first.evaluation.ground_truth,
        100.0 * first.evaluation.accuracy(),
        first.evaluation.false_alarms
    );
    record_passes(
        &mut out,
        setup,
        first.regions,
        &untraced(&times, args.trace),
        model,
    );
    out.set("peak_rss_mb", host::vm_hwm_mb("self")?);
    if !args.trace {
        return Ok(out);
    }
    probe::counters_end(&counters, &mut out);
    overhead(&mut out, &times);
    probe::setup_layers(std::slice::from_ref(&spec), &mut out);
    let regions = probe::tile(&[(&bench, extent)], &mut out);
    let net = probe::model_load(&model.path, &mut out)?;
    probe::inference(&net, &regions, &mut out);
    let loss = probe::training(&net, &regions, args.seed, &mut out);
    probe::quality(&first.evaluation, loss, &mut out);
    probe::serve_pass(args, model, &mut out)?;
    Ok(out)
}

/// `serve`: the shipped `rhsd-serve` binary under a closed loop for
/// `--seconds`, after a warm-up pass over all scans. Its timings are the
/// server process's. A traced run follows the closed loop with an open
/// loop at [`OPEN_RATE`].
pub fn serve(args: &Args, model: &ModelFiles) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t = Instant::now();
    let mut starts = Vec::new();
    let mut server: Option<ServerProc> = None;
    while more_setups(starts.len(), t.elapsed().as_secs_f64()) {
        if let Some(s) = server.take() {
            s.shutdown()?;
        }
        let s = ServerProc::start(&args.serve_bin, &model.path, crate::THREADS)?;
        starts.push((s.ready_s, s.cpu_s()?));
        server = Some(s);
    }
    let server = server.ok_or("no server started")?;
    let pid = server.pid();
    let (warmed, warm) = Pass::time(&pid, || probe::warm_up(&server, model, &mut out))?;
    warmed?;
    let start_wall = median(&starts.iter().map(|s| s.0).collect::<Vec<_>>()).unwrap_or(f64::NAN);
    let start_cpu = median(&starts.iter().map(|s| s.1).collect::<Vec<_>>()).unwrap_or(f64::NAN);
    eprintln!(
        "perfbench: {} server starts (wall, CPU seconds to ready) {starts:.3?}; warm-up {}",
        starts.len(),
        show(&[warm])
    );
    let setup = Pass {
        wall_s: start_wall + warm.wall_s,
        cpu_s: start_cpu + warm.cpu_s,
    };

    let before = server.stats()?;
    let mut eval = Evaluation::default();
    let mut check = |scan: usize, reply: &Option<String>, out: &mut Outcome| {
        let ok = reply.as_deref() == Some(model.references[scan].as_str());
        if ok {
            eval.merge(&model.evaluations[scan]);
        } else {
            eprintln!(
                "perfbench: {:?} reply differs from the offline scan",
                SCANS[scan]
            );
        }
        out.check(ok);
    };
    let seqs: Vec<Vec<usize>> = (0..CONNECTIONS)
        .map(|c| inputs::closed_sequence(args.seed, c, 100_000))
        .collect();
    let loop_s = Duration::from_secs_f64(args.seconds);
    let (rows, closed_loop) =
        Pass::time(&pid, || serve::closed_loop(server.addr(), &seqs, loop_s))?;
    let (rows, _) = rows?;
    let (mut regions, mut closed) = (0, 0);
    for (scan, _, reply) in rows.iter().flatten() {
        check(*scan, reply, &mut out);
        regions += model.regions[*scan];
        closed += 1;
    }
    eprintln!("perfbench: closed loop {closed} requests");
    record(&mut out, setup, regions, closed_loop, model);
    if !args.trace {
        out.set("peak_rss_mb", server.peak_rss_mb()?);
        return server.shutdown().map(|()| out);
    }

    let schedule = inputs::open_schedule(args.seed, OPEN_RATE, args.seconds * OPEN_SHARE);
    let mut streams = serve::connect_all(server.addr())?;
    let open = serve::open_loop(&mut streams, &schedule);
    drop(streams);
    for (r, reply) in schedule.iter().zip(&open.replies) {
        check(r.scan, reply, &mut out);
    }
    let latency_ms: Vec<f64> = open
        .latency_ms
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .collect();
    let p50 = median(&latency_ms).unwrap_or(f64::NAN);
    let tail = highest_supported(&latency_ms).map_or(
        "no percentile above p50 has 10 samples beyond it".to_owned(),
        |(p, v)| format!("p{p} {v:.1} ms"),
    );
    eprintln!(
        "perfbench: open loop {} requests, p50 {p50:.1} ms, {tail}",
        latency_ms.len()
    );
    let stats = server.stats()?.since(&before);
    out.set("peak_rss_mb", server.peak_rss_mb()?);
    server.shutdown()?;
    out.set("serve.open_p50_ms", p50);
    // `rhsd-serve` always keeps its own counters on, so there is no
    // untraced server to compare with: 0 pairs, and the ratio reads 1.
    out.set("trace.pairs", 0.0);
    out.set("trace.time_ratio", 1.0);
    let requests = closed + schedule.len();
    probe::serve_layers(&stats, start_wall, requests, &open.late_ms, &mut out);
    // The layers below the server, probed in this process on the same
    // eight scans the server answers. The server reports no `par` or
    // workspace counters, so those cover the inference probe here.
    let specs: Vec<CaseSpec> = [CaseId::Case1, CaseId::Case2, CaseId::Case3, CaseId::Case4]
        .iter()
        .map(|&id| CaseSpec::demo(id))
        .collect();
    probe::setup_layers(&specs, &mut out);
    let benches: Vec<Benchmark> = specs.iter().map(Benchmark::from_spec).collect();
    let extents: Vec<_> = benches
        .iter()
        .flat_map(|b| [(b, b.train_extent), (b, b.test_extent)])
        .collect();
    let regions = probe::tile(&extents, &mut out);
    let net = probe::model_load(&model.path, &mut out)?;
    let counters = probe::counters_begin();
    rhsd_obs::set_enabled(true);
    probe::inference(&net, &regions, &mut out);
    rhsd_obs::set_enabled(false);
    probe::counters_end(&counters, &mut out);
    let loss = probe::training(&net, &regions, args.seed, &mut out);
    probe::quality(&eval, loss, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_up_repeats_until_both_the_count_and_the_budget_are_met() {
        assert!(more_setups(0, 0.0));
        assert!(more_setups(MIN_SETUPS - 1, 10.0));
        assert!(more_setups(MIN_SETUPS, 0.5));
        assert!(!more_setups(MIN_SETUPS, SETUP_BUDGET_S));
        assert!(!more_setups(MAX_SETUPS, 0.1));
    }

    #[test]
    fn alternating_passes_pair_untraced_with_traced() {
        let mut seen = Vec::new();
        let times = passes(0.0, 5, true, || seen.push(rhsd_obs::enabled())).unwrap();
        assert_eq!(seen, [false, true, true, false, false, true]);
        assert_eq!(times.len(), 6);
        assert_eq!(untraced(&times, true).len(), 3);
        assert!(!rhsd_obs::enabled());

        let mut seen = Vec::new();
        let times = passes(0.0, 3, false, || seen.push(rhsd_obs::enabled())).unwrap();
        assert_eq!(seen, [false; 3]);
        assert_eq!(untraced(&times, false), times);
    }

    #[test]
    fn overhead_is_the_median_cpu_ratio_of_a_pair() {
        let pass = |cpu_s| Pass { wall_s: 9.0, cpu_s };
        // Pairs (untraced, traced), (traced, untraced), (untraced, traced).
        let times = [
            pass(1.0),
            pass(1.1),
            pass(2.4),
            pass(2.0),
            pass(1.0),
            pass(1.0),
        ];
        let mut out = Outcome::default();
        overhead(&mut out, &times);
        assert_eq!(out.values["trace.pairs"], 3.0);
        assert!((out.values["trace.time_ratio"] - 1.1).abs() < 1e-9);
        let plain: Vec<f64> = untraced(&times, true).iter().map(|p| p.cpu_s).collect();
        assert_eq!(plain, [1.0, 2.0, 1.0]);
    }

    #[test]
    fn a_pass_is_charged_the_cpu_time_of_its_work_not_of_its_sleep() {
        let ((), slept) =
            Pass::time("self", || std::thread::sleep(Duration::from_millis(200))).unwrap();
        assert!(slept.wall_s >= 0.2);
        assert!(slept.cpu_s < 0.1, "sleep charged {} s", slept.cpu_s);
        let one = Pass {
            wall_s: 1.0,
            cpu_s: 2.0,
        };
        assert_eq!(Pass::median(&[one, Pass::default(), one]), one);
    }
}
