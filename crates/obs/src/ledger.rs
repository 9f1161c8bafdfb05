//! Append-only JSONL **run ledger**: a typed event stream that captures a
//! whole run — the `run_start` manifest (seed, config, effort, host,
//! version), per-epoch training telemetry, per-case evaluation rows and
//! a final `run_end` line with the status, counters and the span tree's
//! per-path totals — one JSON object per line, flushed after every event
//! so a crashed run still leaves a readable prefix. Spans are not
//! streamed: however many close, a ledger grows only with epochs, eval
//! rows and artifacts.
//!
//! Two layers:
//!
//! - [`Ledger`] — an explicit writer over one file, for tests and
//!   embedding;
//! - a **process-global sink** ([`open`], [`emit`], [`close`]) used by
//!   the pipeline crates: instrumentation points call [`emit`], which is
//!   a no-op (one relaxed atomic load) until a ledger is opened, mirroring
//!   the crate's global enabled gate.
//!
//! Every line carries `"event"` (the type tag), `"seq"` (dense, 0-based)
//! and `"t"` (seconds since the ledger opened), then the event's own
//! fields. Lines are independent JSON values: a reader can stop at the
//! first truncated line and keep everything before it.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::json::{escape, number, object_of, Value};
use crate::spantree::{SpanNode, SpanTree};
use crate::WallClock;

/// The `run_start` manifest identifying a run — always the first ledger
/// line, so even a crashed run records what it was.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// Binary or harness name (`"repro"`).
    pub bin: String,
    /// Primary RNG seed of the run.
    pub seed: u64,
    /// Human-readable config summary (scale, detector set, …).
    pub config: String,
    /// Effort level (`"Full"` / `"Quick"`).
    pub effort: String,
    /// Host platform, e.g. `"linux/x86_64"` (see [`host_string`]).
    pub host: String,
    /// Version of the crate that produced the ledger.
    pub version: String,
    /// Worker-thread count of the run's `rhsd-par` pool (1 = serial).
    /// Recorded so ledger readers and `bench-diff` can compare runs
    /// like-for-like; set by the bench caller, since this crate does not
    /// depend on `rhsd-par`.
    pub threads: u64,
    /// Detected SIMD instruction set the kernels dispatched to
    /// (`"scalar"` / `"avx2"` / `"avx512"`); empty for older runs. Purely
    /// informational — default-dispatch results are bit-identical
    /// across ISAs.
    pub isa: String,
}

/// The host platform tag recorded in manifests (`os/arch`).
pub fn host_string() -> String {
    format!("{}/{}", std::env::consts::OS, std::env::consts::ARCH)
}

/// One parameter group's training dynamics inside an `epoch` ledger
/// event — the serialised form of the core crate's per-layer epoch
/// stats.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerDyn {
    /// Parameter-group name (`backbone/Conv2d#1`, `cpn/cls_head`, …).
    pub key: String,
    /// RMS parameter-gradient L2 norm over the epoch's steps.
    pub grad_norm: f64,
    /// Weight-update-to-weight ratio `‖Δw‖ / ‖w‖`.
    pub update_ratio: f64,
    /// RMS parameter L2 norm.
    pub weight_norm: f64,
}

impl LayerDyn {
    fn to_json(&self) -> String {
        object_of([
            ("key", format!("\"{}\"", escape(&self.key))),
            ("grad_norm", number(self.grad_norm)),
            ("update_ratio", number(self.update_ratio)),
            ("weight_norm", number(self.weight_norm)),
        ])
    }
}

/// One typed ledger event, serialised as a single JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Run manifest; always the first line of a ledger.
    RunStart(Manifest),
    /// Per-epoch training telemetry (the `EpochStats` fields plus the
    /// sample count).
    Epoch {
        /// The trained detector's name (`"Ours"`, `"SSD"`, …); empty
        /// when the trainer's caller named none, and then not written.
        detector: String,
        /// 0-based epoch index.
        epoch: u64,
        /// Mean total loss over the epoch's samples.
        mean_loss: f64,
        /// Mean first-stage classification loss.
        mean_cpn_cls: f64,
        /// Mean first-stage localisation loss.
        mean_cpn_reg: f64,
        /// Mean refinement classification loss.
        mean_refine_cls: f64,
        /// Mean pre-clip global gradient norm over the epoch's steps.
        grad_norm: f64,
        /// Learning rate at the end of the epoch.
        lr: f64,
        /// Samples seen this epoch.
        samples: u64,
        /// Mean per-RoI refinement prediction entropy (nats); `None`
        /// (written `null`) when the epoch refined no RoI.
        pred_entropy: Option<f64>,
        /// Entropy of the predicted-label histogram (nats); `None` when
        /// the epoch refined no RoI.
        label_entropy: Option<f64>,
        /// Per-parameter-group dynamics rows, in parameter order.
        layers: Vec<LayerDyn>,
    },
    /// A divergence-sentinel trip.
    Sentinel {
        /// Epoch the trip happened in.
        epoch: u64,
        /// Stable reason tag (`non_finite_loss`, `bias_collapse`, …).
        reason: String,
        /// Human-readable trip description with the evidence.
        detail: String,
        /// Policy applied (`warn` or `abort`).
        action: String,
    },
    /// One evaluation row: a detector's result on one case (or the
    /// per-detector `"Average"` row).
    Eval {
        /// Detector label (`"Ours"`, `"TCAD'18"`, …).
        detector: String,
        /// Case name (`"Case2"`, …, or `"Average"`).
        case: String,
        /// Detection accuracy in percent (Def. 1).
        accuracy_pct: f64,
        /// False-alarm count (Def. 2).
        false_alarms: u64,
        /// Wall-clock detection time in seconds.
        seconds: f64,
    },
    /// An artifact the run wrote (bench record, saved model, figure…),
    /// recorded in-stream so a crashed run's partial ledger still names
    /// everything produced before the crash.
    Artifact {
        /// Path of the artifact, as the writer saw it.
        path: String,
    },
    /// Aggregate serving statistics, emitted by `rhsd-serve` when a
    /// server drains and shuts down (per-request latencies live in the
    /// metrics registry and surface through `run_end` counters/peaks).
    ServeStats {
        /// Total protocol requests handled (all ops).
        requests: u64,
        /// Scan requests among them.
        scan_requests: u64,
    },
    /// Final line: exit status, peak metrics and span totals from the
    /// registry.
    RunEnd {
        /// Exit status (`"ok"` or `"error"`).
        status: String,
        /// Seconds between ledger open and this line.
        wall_secs: f64,
        /// Counter totals at run end, by name.
        counters: Vec<(String, u64)>,
        /// Per-histogram peak (max) values at run end, by name.
        peaks: Vec<(String, f64)>,
        /// The span tree, written as the totals of every path a span
        /// closed at — calls, inclusive seconds and seconds per logical
        /// thread id: `{"<path>":{"calls":n,"secs":s,"tid_secs":{"<tid>":s}}}`.
        /// [`run_end_spans`] reads it back.
        spans: SpanTree,
    },
}

impl Event {
    /// The event's type tag, as written in the `"event"` field.
    pub fn tag(&self) -> &'static str {
        match self {
            Event::RunStart(_) => "run_start",
            Event::Epoch { .. } => "epoch",
            Event::Sentinel { .. } => "sentinel",
            Event::Eval { .. } => "eval",
            Event::Artifact { .. } => "artifact",
            Event::ServeStats { .. } => "serve_stats",
            Event::RunEnd { .. } => "run_end",
        }
    }

    /// Serialises the event as one JSON object (no trailing newline).
    pub fn to_json(&self, seq: u64, t_secs: f64) -> String {
        let mut o = String::with_capacity(160);
        o.push('{');
        fld_str(&mut o, "event", self.tag());
        fld_raw(&mut o, "seq", &seq.to_string());
        fld_raw(&mut o, "t", &number(t_secs));
        match self {
            Event::RunStart(m) => {
                fld_str(&mut o, "bin", &m.bin);
                fld_raw(&mut o, "seed", &m.seed.to_string());
                fld_str(&mut o, "config", &m.config);
                fld_str(&mut o, "effort", &m.effort);
                fld_str(&mut o, "host", &m.host);
                fld_str(&mut o, "version", &m.version);
                fld_raw(&mut o, "threads", &m.threads.to_string());
                fld_str(&mut o, "isa", &m.isa);
            }
            Event::Epoch {
                detector,
                epoch,
                mean_loss,
                mean_cpn_cls,
                mean_cpn_reg,
                mean_refine_cls,
                grad_norm,
                lr,
                samples,
                pred_entropy,
                label_entropy,
                layers,
            } => {
                if !detector.is_empty() {
                    fld_str(&mut o, "detector", detector);
                }
                fld_raw(&mut o, "epoch", &epoch.to_string());
                fld_raw(&mut o, "mean_loss", &number(*mean_loss));
                fld_raw(&mut o, "mean_cpn_cls", &number(*mean_cpn_cls));
                fld_raw(&mut o, "mean_cpn_reg", &number(*mean_cpn_reg));
                fld_raw(&mut o, "mean_refine_cls", &number(*mean_refine_cls));
                fld_raw(&mut o, "grad_norm", &number(*grad_norm));
                fld_raw(&mut o, "lr", &number(*lr));
                fld_raw(&mut o, "samples", &samples.to_string());
                let entropy = |e: Option<f64>| e.map_or_else(|| "null".to_owned(), number);
                fld_raw(&mut o, "pred_entropy", &entropy(*pred_entropy));
                fld_raw(&mut o, "label_entropy", &entropy(*label_entropy));
                let layers: Vec<String> = layers.iter().map(LayerDyn::to_json).collect();
                fld_raw(&mut o, "layers", &format!("[{}]", layers.join(",")));
            }
            Event::Sentinel {
                epoch,
                reason,
                detail,
                action,
            } => {
                fld_raw(&mut o, "epoch", &epoch.to_string());
                fld_str(&mut o, "reason", reason);
                fld_str(&mut o, "detail", detail);
                fld_str(&mut o, "action", action);
            }
            Event::Eval {
                detector,
                case,
                accuracy_pct,
                false_alarms,
                seconds,
            } => {
                fld_str(&mut o, "detector", detector);
                fld_str(&mut o, "case", case);
                fld_raw(&mut o, "accuracy_pct", &number(*accuracy_pct));
                fld_raw(&mut o, "false_alarms", &false_alarms.to_string());
                fld_raw(&mut o, "seconds", &number(*seconds));
            }
            Event::Artifact { path } => {
                fld_str(&mut o, "path", path);
            }
            Event::ServeStats {
                requests,
                scan_requests,
            } => {
                fld_raw(&mut o, "requests", &requests.to_string());
                fld_raw(&mut o, "scan_requests", &scan_requests.to_string());
            }
            Event::RunEnd {
                status,
                wall_secs,
                counters,
                peaks,
                spans,
            } => {
                fld_str(&mut o, "status", status);
                fld_raw(&mut o, "wall_secs", &number(*wall_secs));
                let counters = counters.iter().map(|(k, v)| (k, v.to_string()));
                fld_raw(&mut o, "counters", &object_of(counters));
                let peaks = peaks.iter().map(|(k, v)| (k, number(*v)));
                fld_raw(&mut o, "peaks", &object_of(peaks));
                let closed = spans.nodes().into_iter().filter(|(_, node)| node.count > 0);
                let spans = closed.map(|(path, node)| {
                    let tids = node.by_thread.iter();
                    let tid_secs = object_of(tids.map(|(t, s)| (t.to_string(), number(*s))));
                    let fields = [
                        ("calls", node.count.to_string()),
                        ("secs", number(node.incl_secs)),
                        ("tid_secs", tid_secs),
                    ];
                    (path, object_of(fields))
                });
                fld_raw(&mut o, "spans", &object_of(spans));
            }
        }
        o.push('}');
        o
    }
}

fn fld_str(out: &mut String, key: &str, val: &str) {
    if out.len() > 1 {
        out.push(',');
    }
    out.push_str(&format!("\"{}\":\"{}\"", escape(key), escape(val)));
}

fn fld_raw(out: &mut String, key: &str, rendered: &str) {
    if out.len() > 1 {
        out.push(',');
    }
    out.push_str(&format!("\"{}\":{}", escape(key), rendered));
}

/// An open JSONL ledger file. Every [`Ledger::emit`] appends one line and
/// flushes it, so partial files from crashed runs stay readable up to the
/// last completed event.
#[derive(Debug)]
pub struct Ledger {
    out: BufWriter<File>,
    path: PathBuf,
    seq: u64,
    opened: WallClock,
}

impl Ledger {
    /// Creates (truncating) the ledger file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Ledger> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Ledger {
            out: BufWriter::new(file),
            path,
            seq: 0,
            opened: WallClock::now(),
        })
    }

    /// Appends one event as a JSONL line and flushes it to disk.
    pub fn emit(&mut self, event: &Event) -> io::Result<()> {
        let line = event.to_json(self.seq, self.opened.elapsed().as_secs_f64());
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()?;
        self.seq += 1;
        Ok(())
    }

    /// The path this ledger writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Events written so far.
    pub fn len(&self) -> u64 {
        self.seq
    }

    /// Whether no event has been written yet.
    pub fn is_empty(&self) -> bool {
        self.seq == 0
    }

    /// Seconds since the ledger was opened.
    pub fn elapsed_secs(&self) -> f64 {
        self.opened.elapsed().as_secs_f64()
    }
}

/// Fast global gate: `true` while a process-global ledger is open.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn global() -> MutexGuard<'static, Option<Ledger>> {
    static GLOBAL: OnceLock<Mutex<Option<Ledger>>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| Mutex::new(None))
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// Opens the process-global ledger at `path` and writes the `run_start`
/// manifest line. Replaces (closing without a `run_end` line) any ledger
/// already open.
pub fn open(path: impl AsRef<Path>, manifest: Manifest) -> io::Result<()> {
    let mut led = Ledger::create(path)?;
    led.emit(&Event::RunStart(manifest))?;
    *global() = Some(led);
    ACTIVE.store(true, Ordering::Relaxed);
    Ok(())
}

/// Whether a process-global ledger is currently open.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Emits an event to the global ledger; a no-op while none is open.
///
/// Write failures never fail the pipeline: they bump the
/// `ledger.write_errors` counter (when observability is enabled) instead.
pub fn emit(event: &Event) {
    if !active() {
        return;
    }
    let failed = match global().as_mut() {
        Some(led) => led.emit(event).is_err(),
        None => false,
    };
    // The ledger guard is a temporary inside the match scrutinee: it
    // drops when the match *statement* ends, so the counter below runs
    // with no lock held. L9's lexical call-order scan can't see that.
    if failed {
        crate::counter("ledger.write_errors", 1); // lint:allow(L9)
    }
}

/// Writes the `run_end` line — `status`, peak metrics and the span
/// totals from the current registry — then closes the global ledger,
/// returning its path. `None` when no ledger was open.
pub fn close(status: &str) -> Option<PathBuf> {
    if !active() {
        return None;
    }
    // Read the registry first: its lock and the ledger's never nest.
    let (snap, spans) = (crate::snapshot(), crate::span_tree());
    let mut guard = global();
    let mut led = guard.take()?;
    ACTIVE.store(false, Ordering::Relaxed);
    drop(guard);
    let event = Event::RunEnd {
        status: status.to_owned(),
        wall_secs: led.elapsed_secs(),
        counters: snap.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        peaks: snap
            .histograms
            .iter()
            .map(|(k, s)| (k.clone(), s.max))
            .collect(),
        spans,
    };
    let _ = led.emit(&event);
    Some(led.path().to_path_buf())
}

/// Rebuilds the span tree from a parsed `run_end` line's `spans` object
/// (see [`Event::RunEnd`]); empty when the line has none. Numbers are
/// written in their shortest round-trip form, so the totals come back
/// bit for bit.
pub fn run_end_spans(run_end: &Value) -> SpanTree {
    let spans = run_end.get("spans").and_then(Value::entries);
    let totals = spans.unwrap_or_default().iter().map(|(path, v)| {
        let tid_secs = v.get("tid_secs").and_then(Value::entries);
        let node = SpanNode {
            count: v.get("calls").and_then(Value::as_u64).unwrap_or(0),
            incl_secs: v.get("secs").and_then(Value::as_f64).unwrap_or(0.0),
            by_thread: tid_secs
                .unwrap_or_default()
                .iter()
                .filter_map(|(tid, s)| Some((tid.parse().ok()?, s.as_f64()?)))
                .collect(),
            ..SpanNode::default()
        };
        (path.clone(), node)
    });
    SpanTree::from_totals(&totals.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, validate, Value};

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rhsd_ledger_{tag}_{}.jsonl", std::process::id()))
    }

    fn manifest() -> Manifest {
        Manifest {
            bin: "test_bin".into(),
            seed: 103,
            config: "demo-scale \"quick\"".into(),
            effort: "Quick".into(),
            host: host_string(),
            version: "0.1.0".into(),
            threads: 4,
            isa: "avx2".into(),
        }
    }

    #[test]
    fn every_event_serialises_to_valid_json() {
        let events = [
            Event::RunStart(manifest()),
            Event::Epoch {
                detector: "Ours".into(),
                epoch: 3,
                mean_loss: 0.5,
                mean_cpn_cls: 0.2,
                mean_cpn_reg: 0.1,
                mean_refine_cls: 0.2,
                grad_norm: 4.25,
                lr: 0.01,
                samples: 12,
                pred_entropy: Some(0.55),
                label_entropy: Some(0.69),
                layers: vec![LayerDyn {
                    key: "backbone/Conv2d#1".into(),
                    grad_norm: 2.0,
                    update_ratio: 0.01,
                    weight_norm: 3.5,
                }],
            },
            Event::Sentinel {
                epoch: 4,
                reason: "bias_collapse".into(),
                detail: "epoch 4: bias-only collapse".into(),
                action: "warn".into(),
            },
            Event::Eval {
                detector: "TCAD'18".into(),
                case: "Case2".into(),
                accuracy_pct: 87.5,
                false_alarms: 9,
                seconds: 1.25,
            },
            Event::RunEnd {
                status: "ok".into(),
                wall_secs: 2.5,
                counters: vec![("train.samples".into(), 8)],
                peaks: vec![("train.loss".into(), 1.5)],
                spans: tree(vec![("train;train-epoch", span_total(2, &[(3, 0.125)]))]),
            },
            Event::Artifact {
                path: "out/model.json".into(),
            },
            Event::ServeStats {
                requests: 12,
                scan_requests: 9,
            },
        ];
        for (i, e) in events.iter().enumerate() {
            let line = e.to_json(i as u64, 0.5);
            validate(&line).unwrap_or_else(|at| panic!("invalid at {at}: {line}"));
            let v = parse(&line).unwrap();
            assert_eq!(v.get("event").and_then(Value::as_str), Some(e.tag()));
            assert_eq!(v.get("seq").and_then(Value::as_u64), Some(i as u64));
            assert_eq!(v.get("t").and_then(Value::as_f64), Some(0.5));
        }
    }

    #[test]
    fn nonfinite_values_serialise_as_null() {
        let e = Event::Epoch {
            detector: String::new(),
            epoch: 0,
            mean_loss: f64::NAN,
            mean_cpn_cls: f64::INFINITY,
            mean_cpn_reg: 0.0,
            mean_refine_cls: 0.0,
            grad_norm: 0.0,
            lr: 0.0,
            samples: 0,
            pred_entropy: None,
            label_entropy: None,
            layers: Vec::new(),
        };
        let line = e.to_json(0, 0.0);
        assert!(validate(&line).is_ok(), "{line}");
        let v = parse(&line).unwrap();
        assert_eq!(v.get("mean_loss"), Some(&Value::Null));
        assert_eq!(v.get("mean_cpn_cls"), Some(&Value::Null));
        // No RoI refined: the entropies are absent, not the 0 of a
        // collapse; an unnamed detector writes no name.
        assert_eq!(v.get("pred_entropy"), Some(&Value::Null));
        assert_eq!(v.get("label_entropy"), Some(&Value::Null));
        assert_eq!(v.get("detector"), None);
    }

    #[test]
    fn ledger_file_roundtrips_with_ordering_and_manifest() {
        let path = temp_path("roundtrip");
        {
            let mut led = Ledger::create(&path).unwrap();
            assert!(led.is_empty());
            led.emit(&Event::RunStart(manifest())).unwrap();
            for epoch in 0..3u64 {
                led.emit(&Event::Epoch {
                    detector: "SSD".into(),
                    epoch,
                    mean_loss: 1.0 / (epoch + 1) as f64,
                    mean_cpn_cls: 0.1,
                    mean_cpn_reg: 0.1,
                    mean_refine_cls: 0.1,
                    grad_norm: 2.0,
                    lr: 0.01,
                    samples: 4,
                    pred_entropy: Some(0.5),
                    label_entropy: Some(0.6),
                    layers: Vec::new(),
                })
                .unwrap();
            }
            led.emit(&Event::Eval {
                detector: "Ours".into(),
                case: "Case2".into(),
                accuracy_pct: 92.0,
                false_alarms: 3,
                seconds: 0.5,
            })
            .unwrap();
            led.emit(&Event::RunEnd {
                status: "ok".into(),
                wall_secs: 1.0,
                counters: vec![],
                peaks: vec![],
                spans: SpanTree::default(),
            })
            .unwrap();
            assert_eq!(led.len(), 6);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        // every line is independently valid JSON with a dense seq
        let mut parsed = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            validate(line).unwrap_or_else(|at| panic!("line {i} invalid at {at}: {line}"));
            let v = parse(line).unwrap();
            assert_eq!(v.get("seq").and_then(Value::as_u64), Some(i as u64));
            parsed.push(v);
        }
        // ordering: run_start first, run_end last, epochs in order
        assert_eq!(
            parsed[0].get("event").and_then(Value::as_str),
            Some("run_start")
        );
        assert_eq!(
            parsed[5].get("event").and_then(Value::as_str),
            Some("run_end")
        );
        let epochs: Vec<u64> = parsed
            .iter()
            .filter(|v| v.get("event").and_then(Value::as_str) == Some("epoch"))
            .filter_map(|v| v.get("epoch").and_then(Value::as_u64))
            .collect();
        assert_eq!(epochs, vec![0, 1, 2]);
        assert_eq!(
            parsed[1].get("detector").and_then(Value::as_str),
            Some("SSD")
        );
        // manifest fields survive the trip (including escaped quotes)
        let m = &parsed[0];
        assert_eq!(m.get("bin").and_then(Value::as_str), Some("test_bin"));
        assert_eq!(m.get("seed").and_then(Value::as_u64), Some(103));
        assert_eq!(
            m.get("config").and_then(Value::as_str),
            Some("demo-scale \"quick\"")
        );
        assert_eq!(m.get("effort").and_then(Value::as_str), Some("Quick"));
        assert_eq!(m.get("version").and_then(Value::as_str), Some("0.1.0"));
        assert_eq!(m.get("threads").and_then(Value::as_u64), Some(4));
        assert_eq!(m.get("isa").and_then(Value::as_str), Some("avx2"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crashed_run_prefix_is_readable() {
        let path = temp_path("crash");
        {
            let mut led = Ledger::create(&path).unwrap();
            led.emit(&Event::RunStart(manifest())).unwrap();
            led.emit(&Event::Artifact {
                path: "out/model.json".into(),
            })
            .unwrap();
            // dropped without a run_end — simulating a crash
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "both flushed lines survive");
        for line in &lines {
            assert!(validate(line).is_ok(), "{line}");
        }
        assert!(lines[0].contains("run_start"));
        std::fs::remove_file(&path).ok();
    }

    /// The tree of the given per-path totals.
    fn tree(totals: Vec<(&str, SpanNode)>) -> SpanTree {
        let totals = totals.into_iter().map(|(p, n)| (p.to_owned(), n));
        SpanTree::from_totals(&totals.collect())
    }

    /// A per-path total of `calls` spans with the given per-thread
    /// seconds.
    fn span_total(calls: u64, tid_secs: &[(u64, f64)]) -> SpanNode {
        SpanNode {
            count: calls,
            incl_secs: tid_secs.iter().map(|(_, s)| s).sum(),
            by_thread: tid_secs.iter().copied().collect(),
            ..SpanNode::default()
        }
    }

    #[test]
    fn run_end_spans_round_trip_bit_for_bit() {
        // Sums that no short decimal represents exactly.
        let spans = tree(vec![
            ("scan", span_total(1, &[(1, 0.1 + 0.2)])),
            (
                "scan;cpn \"x\"",
                span_total(3, &[(2, 1.0 / 3.0), (3, 2.5e-7)]),
            ),
            ("train", span_total(7, &[(1, 123_456.789_012_345)])),
        ]);
        let line = Event::RunEnd {
            status: "ok".into(),
            wall_secs: 1.0,
            counters: vec![],
            peaks: vec![],
            spans: spans.clone(),
        }
        .to_json(0, 0.0);
        let back = run_end_spans(&parse(&line).unwrap());
        assert_eq!(back.nodes().len(), 3, "{line}");
        // `f64` equality is bitwise here: none of the values is NaN or -0.
        assert_eq!(back, spans, "{line}");
        assert!(run_end_spans(&parse("{}").unwrap()).is_empty());
    }

    #[test]
    fn closed_spans_add_no_ledger_lines() {
        let _g = crate::span::tests::global_lock();
        crate::set_enabled(true);
        crate::reset();
        let path = temp_path("bounded");
        open(&path, manifest()).unwrap();
        for _ in 0..10_000 {
            let _s = crate::span("stage");
        }
        close("ok");
        crate::set_enabled(false);
        crate::reset();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "run_start and run_end only");
        let stage = run_end_spans(&parse(lines[1]).unwrap());
        assert_eq!(stage.shape(), vec![("stage".to_owned(), 10_000)]);
    }
}
