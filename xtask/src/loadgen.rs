//! `cargo xtask loadgen` — a deterministic load generator for
//! `rhsd-serve`.
//!
//! Opens N connections, issues M scan requests per connection (cases
//! chosen by a fixed seed, so two runs against equivalent servers issue
//! the identical request stream), measures per-request latency, fetches
//! the server's counters, and writes a `rhsd-serve-bench/1` JSON record
//! (requests/sec, p50/p95/p99 latency, regions scanned, cache hit
//! rates) that `cargo xtask bench-diff` can gate on.
//!
//! Two traffic shapes:
//! - **closed-loop** (default): each connection waits for a reply
//!   before sending the next request — latency under no queueing.
//! - **open-loop**: each connection writes its whole request stream
//!   immediately and then drains replies — latencies include queueing
//!   on the server.
//!
//! With `--expect <Case>=<file>` every reply for that case is compared
//! byte-for-byte against the reference file (written by
//! `rhsd-serve --offline-scan`), turning the load test into the
//! bit-identity check the CI bench gate (`./ci.sh --bench-gate`)
//! relies on.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;

use rhsd_layout::synth::CaseId;
use rhsd_obs::json::{self, Value};
use rhsd_obs::Stopwatch;
use rhsd_serve::proto::{case_from_name, read_frame, request_json, write_frame, Half, Request};
use rhsd_serve::Client;

/// Schema tag of the emitted record.
pub const SCHEMA: &str = "rhsd-serve-bench/1";

struct Options {
    addr: String,
    connections: usize,
    requests: usize,
    mode: Mode,
    seed: u64,
    cases: Vec<CaseId>,
    expect: Vec<(CaseId, PathBuf)>,
    out: PathBuf,
    shutdown: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Closed,
    Open,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Closed => "closed",
            Mode::Open => "open",
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut connections = 4usize;
    let mut requests = 8usize;
    let mut mode = Mode::Closed;
    let mut seed = 7u64;
    let mut cases = vec![CaseId::Case2, CaseId::Case3];
    let mut expect = Vec::new();
    let mut out = PathBuf::from("BENCH_serve.json");
    let mut shutdown = false;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr")?,
            "--connections" => {
                connections = value("--connections")?
                    .parse()
                    .map_err(|_| "--connections needs a positive integer".to_owned())?;
            }
            "--requests" => {
                requests = value("--requests")?
                    .parse()
                    .map_err(|_| "--requests needs a positive integer".to_owned())?;
            }
            "--mode" => {
                mode = match value("--mode")?.as_str() {
                    "closed" => Mode::Closed,
                    "open" => Mode::Open,
                    other => return Err(format!("unknown mode `{other}`")),
                };
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_owned())?;
            }
            "--case" => {
                cases = value("--case")?
                    .split(',')
                    .map(case_from_name)
                    .collect::<Result<_, _>>()?;
            }
            "--expect" => {
                let spec = value("--expect")?;
                let (case, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--expect wants <Case>=<file>, got `{spec}`"))?;
                expect.push((case_from_name(case)?, PathBuf::from(path)));
            }
            "--out" => out = PathBuf::from(value("--out")?),
            "--shutdown" => shutdown = true,
            "--quick" => quick = true,
            other => return Err(format!("unknown loadgen option `{other}`")),
        }
    }
    if quick {
        // Small but still concurrent: enough traffic to share the pool
        // and warm caches inside a CI smoke budget.
        connections = 2;
        requests = 3;
        cases = vec![CaseId::Case2];
    }
    if connections == 0 || requests == 0 {
        return Err("--connections and --requests must be at least 1".into());
    }
    if cases.is_empty() {
        return Err("--case list must not be empty".into());
    }
    Ok(Options {
        addr,
        connections,
        requests,
        mode,
        seed,
        cases,
        expect,
        out,
        shutdown,
    })
}

/// The deterministic case for request `i` of connection `conn`.
fn pick_case(opts: &Options, conn: usize, i: usize) -> CaseId {
    let idx = (opts.seed as usize)
        .wrapping_add(conn * opts.requests)
        .wrapping_add(i)
        % opts.cases.len();
    opts.cases[idx]
}

/// One connection's completed requests: `(case, latency_ms, reply body)`
/// in request order.
type ConnRows = Vec<(CaseId, f64, String)>;

/// One connection's worth of traffic; returns per-request latencies in
/// milliseconds (request order) and the reply bodies.
fn drive_connection(opts: &Options, conn: usize) -> Result<ConnRows, String> {
    let fail = |e: &dyn std::fmt::Display| format!("connection {conn}: {e}");
    match opts.mode {
        Mode::Closed => {
            let mut client = Client::connect(&*opts.addr).map_err(|e| fail(&e))?;
            let mut out = Vec::with_capacity(opts.requests);
            for i in 0..opts.requests {
                let case = pick_case(opts, conn, i);
                let t = Stopwatch::start();
                let body = client.scan(case, Half::Test).map_err(|e| fail(&e))?;
                out.push((case, t.secs() * 1e3, body));
            }
            Ok(out)
        }
        Mode::Open => {
            let stream = TcpStream::connect(&*opts.addr).map_err(|e| fail(&e))?;
            stream.set_nodelay(true).map_err(|e| fail(&e))?;
            let mut reader = BufReader::new(stream.try_clone().map_err(|e| fail(&e))?);
            let mut writer = BufWriter::new(stream);
            let mut sent = Vec::with_capacity(opts.requests);
            for i in 0..opts.requests {
                let case = pick_case(opts, conn, i);
                let req = request_json(&Request::Scan {
                    case,
                    half: Half::Test,
                });
                write_frame(&mut writer, &req).map_err(|e| fail(&e))?;
                sent.push((case, Stopwatch::start()));
            }
            let mut out = Vec::with_capacity(opts.requests);
            for (case, t) in sent {
                let body = read_frame(&mut reader)
                    .map_err(|e| fail(&e))?
                    .ok_or_else(|| fail(&"server closed mid-stream"))?;
                out.push((case, t.secs() * 1e3, body));
            }
            Ok(out)
        }
    }
}

/// Nearest-rank percentile over an (unsorted) latency list.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn hit_rate(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        100.0 * hits / (hits + misses)
    } else {
        0.0
    }
}

/// Runs the load generator. Returns `Err` for usage errors (exit 2);
/// runtime failures (unreachable server, bit-identity mismatch) exit 1.
pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_options(args)?;
    let references: Vec<(CaseId, String)> = opts
        .expect
        .iter()
        .map(|(case, path)| {
            std::fs::read_to_string(path)
                .map(|body| (*case, body))
                .map_err(|e| format!("cannot read reference {}: {e}", path.display()))
        })
        .collect::<Result<_, _>>()?;

    eprintln!(
        "loadgen: {} connections x {} requests ({}-loop, seed {}) -> {}",
        opts.connections,
        opts.requests,
        opts.mode.name(),
        opts.seed,
        opts.addr
    );

    let wall = Stopwatch::start();
    let results: Vec<Result<ConnRows, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.connections)
            .map(|conn| {
                let opts = &opts;
                scope.spawn(move || drive_connection(opts, conn))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection thread panicked".into()))
            })
            .collect()
    });
    let wall_secs = wall.secs();

    let mut latencies: Vec<f64> = Vec::new();
    let mut mismatches = 0usize;
    for result in &results {
        let rows = match result {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("loadgen: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        for (case, ms, body) in rows {
            latencies.push(*ms);
            if let Some((_, expected)) = references.iter().find(|(c, _)| c == case) {
                if body != expected {
                    mismatches += 1;
                    eprintln!(
                        "loadgen: BIT-IDENTITY VIOLATION: served {case} reply ({} bytes) \
                         differs from offline reference ({} bytes)",
                        body.len(),
                        expected.len()
                    );
                }
            }
        }
    }
    let total = latencies.len();

    // Server-side counters (stem lookups, cache rates, thread count).
    let mut control =
        Client::connect(&*opts.addr).map_err(|e| format!("cannot reconnect for stats: {e}"))?;
    let stats_body = control
        .stats()
        .map_err(|e| format!("stats request failed: {e}"))?;
    let stats = json::parse(&stats_body)
        .map_err(|at| format!("stats reply is not JSON (at byte {at}): {stats_body}"))?;
    let stat = |k: &str| stats.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    // The SIMD ISA the server's kernel dispatcher selected rides along
    // in the record, like the thread count.
    let isa = stats
        .get("isa")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_owned();
    if opts.shutdown {
        control
            .shutdown()
            .map_err(|e| format!("shutdown request failed: {e}"))?;
    }
    drop(control);

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rps = if wall_secs > 0.0 {
        total as f64 / wall_secs
    } else {
        0.0
    };
    let record = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"source\": \"loadgen\",\n  \"mode\": \"{mode}\",\n  \"seed\": {seed},\n  \"threads\": {threads},\n  \"isa\": \"{isa}\",\n  \"connections\": {connections},\n  \"requests_per_connection\": {rpc},\n  \"requests\": {total},\n  \"wall_secs\": {wall},\n  \"rps\": {rps},\n  \"p50_ms\": {p50},\n  \"p95_ms\": {p95},\n  \"p99_ms\": {p99},\n  \"regions\": {regions},\n  \"tile_hit_rate\": {tile},\n  \"stem_hit_rate\": {stem},\n  \"bit_identity_checked\": {checked},\n  \"bit_identity_mismatches\": {mismatches}\n}}\n",
        mode = opts.mode.name(),
        seed = opts.seed,
        threads = stat("threads"),
        isa = isa,
        connections = opts.connections,
        rpc = opts.requests,
        wall = json::number(wall_secs),
        rps = json::number(rps),
        p50 = json::number(percentile(&latencies, 50.0)),
        p95 = json::number(percentile(&latencies, 95.0)),
        p99 = json::number(percentile(&latencies, 99.0)),
        // Every region the server scans is one stem lookup.
        regions = stat("stem_hits") + stat("stem_misses"),
        tile = json::number(hit_rate(stat("tile_hits"), stat("tile_misses"))),
        stem = json::number(hit_rate(stat("stem_hits"), stat("stem_misses"))),
        checked = !references.is_empty(),
    );
    std::fs::write(&opts.out, &record)
        .map_err(|e| format!("cannot write {}: {e}", opts.out.display()))?;

    eprintln!(
        "loadgen: {total} requests in {wall_secs:.2}s ({rps:.1} req/s), p50 {:.1}ms p99 {:.1}ms; \
         record -> {}",
        percentile(&latencies, 50.0),
        percentile(&latencies, 99.0),
        opts.out.display()
    );
    if mismatches > 0 {
        eprintln!("loadgen: {mismatches} bit-identity mismatches");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_quick_mode() {
        let o = opts(&[]).unwrap();
        assert_eq!(o.connections, 4);
        assert_eq!(o.requests, 8);
        assert_eq!(o.mode, Mode::Closed);
        let q = opts(&["--quick"]).unwrap();
        assert_eq!(q.connections, 2);
        assert_eq!(q.requests, 3);
        assert_eq!(q.cases, vec![CaseId::Case2]);
    }

    #[test]
    fn parses_cases_expect_and_mode() {
        let o = opts(&[
            "--case",
            "Case2,Case4",
            "--mode",
            "open",
            "--expect",
            "Case2=ref.json",
            "--shutdown",
        ])
        .unwrap();
        assert_eq!(o.cases, vec![CaseId::Case2, CaseId::Case4]);
        assert_eq!(o.mode, Mode::Open);
        assert_eq!(o.expect, vec![(CaseId::Case2, PathBuf::from("ref.json"))]);
        assert!(o.shutdown);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(opts(&["--mode", "sideways"]).is_err());
        assert!(opts(&["--case", "Case9"]).is_err());
        assert!(opts(&["--expect", "Case2"]).is_err());
        assert!(opts(&["--connections", "0"]).is_err());
        assert!(opts(&["--bogus"]).is_err());
    }

    #[test]
    fn case_schedule_is_deterministic_and_seed_dependent() {
        let a = opts(&["--seed", "1"]).unwrap();
        let b = opts(&["--seed", "1"]).unwrap();
        let c = opts(&["--seed", "2"]).unwrap();
        let schedule =
            |o: &Options| -> Vec<CaseId> { (0..6).map(|i| pick_case(o, 1, i)).collect() };
        assert_eq!(schedule(&a), schedule(&b));
        assert_ne!(schedule(&a), schedule(&c));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&sorted, 50.0), 5.0);
        assert_eq!(percentile(&sorted, 95.0), 10.0);
        assert_eq!(percentile(&sorted, 99.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
    }

    #[test]
    fn hit_rate_handles_cold_caches() {
        assert_eq!(hit_rate(0.0, 0.0), 0.0);
        assert_eq!(hit_rate(3.0, 1.0), 75.0);
    }
}
