//! End-to-end serving tests: a real `Server` on an ephemeral loopback
//! port, real TCP clients, and the bit-identity pin the CI bench gate
//! relies on — a served scan's reply must equal, byte for byte, the
//! offline scan written through the same canonical serialiser.

#![expect(clippy::expect_used, reason = "test helpers fail loudly")]

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd::core::{persist, Precision, RhsdConfig, RhsdNetwork};
use rhsd::data::RegionConfig;
use rhsd::layout::synth::CaseId;
use rhsd::serve::proto::{scan_response_json, Half};
use rhsd::serve::{offline_scan, Client, Request, ServeConfig, Server};
use rhsd_bench::pipeline::bench_json;

/// Serialises tests that touch the process-global observability switch.
static OBS: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    OBS.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Saves a demo-geometry model (tiny channels, 128-px input) to a temp
/// file; serving does not require a *trained* model, only a loadable one.
fn saved_model(tag: &str) -> PathBuf {
    let mut cfg = RhsdConfig::tiny();
    cfg.region_px = 128;
    let mut rng = ChaCha8Rng::seed_from_u64(90);
    let net = RhsdNetwork::new(cfg, &mut rng);
    let path =
        std::env::temp_dir().join(format!("rhsd_serve_it_{tag}_{}.json", std::process::id()));
    persist::save_to_path(&net, &path).expect("save model");
    path
}

fn start(model: &Path) -> Server {
    Server::start(&ServeConfig {
        model: model.to_path_buf(),
        port: 0,
    })
    .expect("server must start on an ephemeral port")
}

#[test]
fn served_scan_is_bit_identical_to_offline_scan() {
    let model = saved_model("bitident");
    let expected = {
        let result = offline_scan(&model, CaseId::Case2, Half::Test, Precision::F32).unwrap();
        scan_response_json(CaseId::Case2, Half::Test, &result)
    };
    assert!(
        expected.contains("\"detections\""),
        "reference body must be a scan reply: {expected}"
    );

    let server = start(&model);
    let mut client = Client::connect(server.addr()).unwrap();
    // Before any scan the compatibility keys all read 0.
    let stats = client.stats().unwrap();
    for key in [
        "batches",
        "batched_regions",
        "batched_requests",
        "max_batch_requests",
    ] {
        assert!(stats.contains(&format!("\"{key}\":0,")), "{key}: {stats}");
    }
    let served = client.scan(CaseId::Case2, Half::Test).unwrap();
    assert_eq!(
        served, expected,
        "served reply must equal offline reference"
    );

    // A rescan is served through warm caches and stays bit-identical.
    let again = client.scan(CaseId::Case2, Half::Test).unwrap();
    assert_eq!(again, expected);

    client.shutdown().unwrap();
    drop(client);
    let summary = server.wait();
    assert_eq!(summary.scan_requests, 2);
    // Every tile handed out runs through the network once.
    assert_eq!(
        summary.stem_hits + summary.stem_misses,
        summary.tile_hits + summary.tile_misses
    );
    assert!(summary.tile_hits > 0, "rescan must hit the tile cache");
    assert!(summary.stem_hits > 0, "rescan must hit the stem cache");
    std::fs::remove_file(&model).ok();
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the clients run on their own threads"
)]
fn concurrent_clients_all_get_exact_results() {
    let model = saved_model("concurrent");
    let cases = [CaseId::Case2, CaseId::Case3];
    let expected: Vec<String> = cases
        .iter()
        .map(|&c| {
            let r = offline_scan(&model, c, Half::Test, Precision::F32).unwrap();
            scan_response_json(c, Half::Test, &r)
        })
        .collect();

    let server = start(&model);
    let addr = server.addr();
    let clients: Vec<_> = (0..4)
        .map(|i| {
            let case = cases[i % cases.len()];
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.scan(case, Half::Test).unwrap()
            })
        })
        .collect();
    for (i, c) in clients.into_iter().enumerate() {
        assert_eq!(
            c.join().unwrap(),
            expected[i % expected.len()],
            "client {i}"
        );
    }

    let mut control = Client::connect(addr).unwrap();
    let stats = control.stats().unwrap();
    let v = rhsd::obs::json::parse(&stats).unwrap();
    let field = |k: &str| v.get(k).and_then(rhsd::obs::json::Value::as_u64).unwrap();
    assert_eq!(field("scan_requests"), 4);
    // The compatibility keys: each scan is one pool pass of its own.
    assert_eq!(field("batches"), 4);
    assert_eq!(field("batched_requests"), 4);
    assert_eq!(field("max_batch_requests"), 1);
    let regions: u64 = expected
        .iter()
        .map(|body| {
            let v = rhsd::obs::json::parse(body).unwrap();
            v.get("regions")
                .and_then(rhsd::obs::json::Value::as_u64)
                .unwrap()
        })
        .sum();
    assert_eq!(field("batched_regions"), 2 * regions);
    // Stats and info both report the kernel ISA the server dispatches to.
    let info = control.request(&Request::Info).unwrap();
    for reply in [&stats, &info] {
        let v = rhsd::obs::json::parse(reply).unwrap();
        let isa = v.get("isa").and_then(rhsd::obs::json::Value::as_str);
        assert!(isa.is_some_and(|s| !s.is_empty()), "{reply}");
    }
    control.shutdown().unwrap();
    drop(control);
    let summary = server.wait();
    assert_eq!(summary.requests, 7); // 4 scans + stats + info + shutdown
    std::fs::remove_file(&model).ok();
}

#[test]
fn protocol_errors_keep_the_connection_alive() {
    use rhsd::serve::proto::{read_frame, write_frame};

    let model = saved_model("errors");
    let server = start(&model);
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = std::io::BufWriter::new(stream);

    // Malformed JSON and a bad op each get a typed error reply...
    for bad in ["garbage", "{\"op\":\"launch\"}"] {
        write_frame(&mut writer, bad).unwrap();
        let reply = read_frame(&mut reader).unwrap().unwrap();
        assert!(reply.contains("\"op\":\"error\""), "{bad}: {reply}");
    }

    // ...and the connection still serves valid requests afterwards.
    write_frame(&mut writer, "{\"op\":\"ping\"}").unwrap();
    assert_eq!(
        read_frame(&mut reader).unwrap().unwrap(),
        "{\"op\":\"pong\"}"
    );

    let mut client = Client::connect(server.addr()).unwrap();
    client.request(&Request::Shutdown).unwrap();
    drop(client);
    drop(writer);
    drop(reader);
    server.wait();
    std::fs::remove_file(&model).ok();
}

#[test]
fn wrong_model_geometry_is_a_typed_startup_error() {
    let mut cfg = RhsdConfig::tiny(); // 64-px input: matches no scale
    cfg.region_px = 64;
    let mut rng = ChaCha8Rng::seed_from_u64(91);
    let net = RhsdNetwork::new(cfg, &mut rng);
    let path = std::env::temp_dir().join(format!("rhsd_serve_it_geom_{}.json", std::process::id()));
    persist::save_to_path(&net, &path).expect("save model");
    let err = match Server::start(&ServeConfig {
        model: path.clone(),
        port: 0,
    }) {
        Err(e) => e,
        Ok(_) => unreachable!("64-px model must not serve"),
    };
    let msg = err.to_string();
    assert!(msg.contains("64-px"), "{msg}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn second_cached_scan_populates_caches_block() {
    let _guard = obs_lock();
    rhsd::obs::reset();
    rhsd::obs::set_enabled(true);

    let region = RegionConfig::demo();
    let mut cfg = RhsdConfig::tiny();
    cfg.region_px = region.region_px;
    cfg.clip_px = region.clip_px;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let net = RhsdNetwork::new(cfg, &mut rng);
    let model = std::env::temp_dir().join(format!("rhsd_profile_it_{}.model", std::process::id()));
    persist::save_to_path(&net, &model).expect("save model");
    let ledger = model.with_extension("jsonl");
    rhsd::obs::ledger::open(&ledger, Default::default()).expect("open ledger");

    // The first scan fills the server's scan cache (misses); the second
    // replays every tile and stem (hits).
    let server = Server::start(&ServeConfig {
        model: model.clone(),
        port: 0,
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    let first = client.scan(CaseId::Case2, Half::Test).expect("first scan");
    let second = client.scan(CaseId::Case2, Half::Test).expect("second scan");
    assert_eq!(first, second);
    client.shutdown().expect("shutdown");
    drop(client);
    let summary = server.wait();
    std::fs::remove_file(&model).ok();
    assert!(summary.tile_hits > 0 && summary.stem_hits > 0);

    rhsd::obs::ledger::close("ok");
    let record = bench_json("cache-telemetry-test", true, 7, &[]);
    rhsd::obs::set_enabled(false);
    rhsd::obs::reset();

    // The server's cache families reach the `run_end` counters, which
    // `xtask report` renders as its cache-efficiency block.
    let text = std::fs::read_to_string(&ledger).expect("read ledger");
    std::fs::remove_file(&ledger).ok();
    let run_end = text.lines().last().expect("run_end line");
    let run_end = rhsd::obs::json::parse(run_end).expect("run_end parses");
    let counters = run_end.get("counters").expect("run_end counters");
    for family in ["region_tile", "stem_feature"] {
        for gauge in ["hits", "misses"] {
            let key = format!("cache.{family}.{gauge}");
            let n = counters.get(&key).and_then(|g| g.as_u64()).expect("gauge");
            assert!(n > 0, "{key} must be non-zero, got {n}");
        }
    }
    // The offline bench record (schema /8) leaves these families out:
    // offline scans cache nothing.
    let v = rhsd::obs::json::parse(&record).expect("bench record parses");
    let caches = v.get("caches").expect("caches block present");
    assert!(caches.get("region_tile").is_none());
    assert!(caches.get("stem_feature").is_none());
}
