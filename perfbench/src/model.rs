//! The model under test and the served-scan references.
//!
//! The detector the scans and the server load is trained by the code
//! under test with the quick "Ours" recipe, once per build: it lives in
//! the build directory under a key hashed from the perfbench and server
//! binaries, so a rebuilt program gets a fresh model and two builds never
//! share one. Training runs in a child process and counts in no metric.
//! The same step records the training's final loss and writes the offline
//! reference reply of each of the eight servable scans.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use rhsd_bench::pipeline::{
    build_benchmarks, merged_train_regions, ours_config, train_region_network, Effort, OURS_SEED,
};
use rhsd_core::{persist, Evaluation, Precision};
use rhsd_data::RegionConfig;
use rhsd_obs::json::{self, Value};
use rhsd_serve::offline_scan;
use rhsd_serve::proto::scan_response_json;

use crate::inputs::SCANS;

/// The prepared files of one build.
pub struct ModelFiles {
    /// The saved model (`persist::save_to_path`).
    pub path: PathBuf,
    /// Offline reference reply of each entry of [`SCANS`].
    pub references: Vec<String>,
    /// Def. 1/Def. 2 counts of each reference.
    pub evaluations: Vec<Evaluation>,
    /// Regions each reference scanned.
    pub regions: Vec<usize>,
    /// The same counts pooled over all references.
    pub reference_eval: Evaluation,
    /// Final-epoch mean loss of the training that made the model.
    pub train_loss: f64,
}

/// Returns the build's model, training it first if this build has none.
pub fn ensure(serve_bin: &Path) -> Result<ModelFiles, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let key = fnv1a(&read(&exe)?) ^ fnv1a(&read(serve_bin)?).rotate_left(1);
    let build_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the perfbench binary has no build directory")?;
    let dir = build_dir
        .join("perfbench-model")
        .join(format!("{key:016x}"));
    if !dir.join("complete").exists() {
        eprintln!(
            "perfbench: training the model under test into {}",
            dir.display()
        );
        let status = Command::new(&exe)
            .arg("--prepare")
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(std::io::stderr())
            .status()
            .map_err(|e| format!("cannot run the model preparation: {e}"))?;
        if !status.success() {
            return Err(format!("model preparation exited with {status}"));
        }
    }
    let references: Vec<String> = (0..SCANS.len())
        .map(|i| std::fs::read_to_string(reference_path(&dir, i)).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let (evaluations, regions): (Vec<Evaluation>, Vec<usize>) = references
        .iter()
        .map(|r| reply_counts(r))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    let mut reference_eval = Evaluation::default();
    for e in &evaluations {
        reference_eval.merge(e);
    }
    let loss = std::fs::read_to_string(dir.join(LOSS_FILE)).map_err(|e| e.to_string())?;
    let train_loss = loss
        .trim()
        .parse()
        .map_err(|_| format!("bad final loss `{}`", loss.trim()))?;
    Ok(ModelFiles {
        path: dir.join("model.json"),
        references,
        evaluations,
        regions,
        reference_eval,
        train_loss,
    })
}

/// The Def. 1/2 counts and the region count of a scan reply.
fn reply_counts(body: &str) -> Result<(Evaluation, usize), String> {
    let v = json::parse(body).map_err(|at| format!("reference reply not JSON at {at}"))?;
    let regions = v
        .get("regions")
        .and_then(Value::as_u64)
        .ok_or("reference reply lacks regions")? as usize;
    let get = |k: &str| {
        v.get("evaluation")
            .and_then(|e| e.get(k))
            .and_then(Value::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("reference reply lacks evaluation.{k}"))
    };
    let eval = Evaluation {
        ground_truth: get("ground_truth")?,
        true_positives: get("true_positives")?,
        false_alarms: get("false_alarms")?,
    };
    Ok((eval, regions))
}

/// File of the training's final loss, beside the model.
const LOSS_FILE: &str = "final_loss";

fn reference_path(dir: &Path, scan: usize) -> PathBuf {
    let (case, half) = SCANS[scan];
    dir.join(format!("{case}-{}.json", half.name()))
}

/// Trains the model under test and writes it and the references to `dir`.
/// Works in a directory of its own and renames it into place, so a
/// concurrent preparation of the same build cannot see a partial model.
pub fn prepare(dir: &Path) -> Result<(), String> {
    let tmp = dir.with_extension(format!("partial-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let t = std::time::Instant::now();
    let samples = merged_train_regions(&build_benchmarks(), &RegionConfig::demo(), false);
    let (mut detector, summary) =
        train_region_network(ours_config(), &samples, Effort::Quick, OURS_SEED);
    let model = tmp.join("model.json");
    persist::save_to_path(detector.network_mut(), &model).map_err(|e| e.to_string())?;
    let loss = summary
        .map(|s| s.final_loss)
        .filter(|l| l.is_finite())
        .ok_or("the model's training ended without a finite loss")?;
    eprintln!(
        "perfbench: trained on {} regions in {:.1}s, final loss {loss}",
        samples.len(),
        t.elapsed().as_secs_f64()
    );
    std::fs::write(tmp.join(LOSS_FILE), loss.to_string()).map_err(|e| e.to_string())?;
    for (i, &(case, half)) in SCANS.iter().enumerate() {
        let result = offline_scan(&model, case, half, Precision::F32).map_err(|e| e.to_string())?;
        std::fs::write(
            reference_path(&tmp, i),
            scan_response_json(case, half, &result),
        )
        .map_err(|e| e.to_string())?;
    }
    std::fs::write(tmp.join("complete"), "").map_err(|e| e.to_string())?;
    if let Err(e) = std::fs::rename(&tmp, dir) {
        let _ = std::fs::remove_dir_all(&tmp);
        if !dir.join("complete").exists() {
            return Err(format!("rename to {}: {e}", dir.display()));
        }
    }
    Ok(())
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
