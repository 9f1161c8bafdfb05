//! The serving loop: a TCP listener, per-connection handler threads, and
//! the shared scan state (detector, scan cache, counters).
//!
//! One process loads the trained model once, then serves any number of
//! scan requests. A scan request runs on its connection thread as one
//! `rhsd-par` pass over its cached tiles, one task per region; scans
//! from concurrent connections meet in the pool's own task queue. The
//! [`ScanCache`] keeps each scan's region tiles and their stem
//! activations across requests, so repeated traffic over the same
//! layouts is served mostly from cache. Replies are bit-identical to
//! offline scans by construction — see
//! [`crate::proto::scan_response_json`].
//!
//! Shutdown protocol: a `shutdown` request is acknowledged, the listener
//! stops accepting, open connections finish their in-flight requests and
//! close, and [`Server::wait`] returns a final [`ServeSummary`] (also
//! emitted as a `serve_stats` ledger event).

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use rhsd_core::detector::ScanResult;
use rhsd_core::persist::{self, PersistError, MODEL_FORMAT};
use rhsd_core::{evaluate_region, merge_scan, Detection, Evaluation, Precision, RegionDetector};
use rhsd_data::{Scale, UnknownScale};
use rhsd_layout::synth::CaseId;
use rhsd_obs::ledger::Event;

use crate::cache::{ScanCache, Tile};
use crate::proto::{
    error_json, read_frame, scan_response_json, write_frame, Half, ProtoError, Request,
    PROTO_VERSION,
};

/// How the server starts: which model, which port.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Path to a saved model (an `rhsd-model/2` file).
    pub model: PathBuf,
    /// TCP port on loopback; 0 binds an ephemeral port (the bound
    /// address is reported by [`Server::addr`]).
    pub port: u16,
}

/// Errors from starting a server or running an offline reference scan.
#[derive(Debug)]
pub enum ServeError {
    /// The model file failed to load.
    Persist(PersistError),
    /// The model's input geometry matches no known benchmark scale.
    Geometry(UnknownScale),
    /// Binding or configuring the listener failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Persist(e) => write!(f, "cannot load model: {e}"),
            ServeError::Geometry(e) => write!(f, "{e}"),
            ServeError::Io(e) => write!(f, "server I/O error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Persist(e) => Some(e),
            ServeError::Geometry(e) => Some(e),
            ServeError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// State shared between the acceptor and the connection handlers.
struct Shared {
    addr: SocketAddr,
    detector: RegionDetector,
    cache: ScanCache,
    requests: AtomicU64,
    scan_requests: AtomicU64,
    shutting_down: AtomicBool,
}

impl Shared {
    /// The `stats` reply. `batches`, `batched_requests`,
    /// `batched_regions` and `max_batch_requests` are compatibility keys
    /// that clients still parse: each scan is one pool pass of its own,
    /// so the first two equal `scan_requests`, `batched_regions` counts
    /// the regions scanned (one stem lookup each), and
    /// `max_batch_requests` is 1 once any scan has run.
    fn stats_json(&self) -> String {
        let scans = self.scan_requests.load(Ordering::Relaxed);
        format!(
            "{{\"op\":\"stats\",\"requests\":{},\"scan_requests\":{},\"batches\":{},\"batched_regions\":{},\"batched_requests\":{},\"max_batch_requests\":{},\"tile_hits\":{},\"tile_misses\":{},\"stem_hits\":{},\"stem_misses\":{},\"threads\":{},\"isa\":\"{}\"}}",
            self.requests.load(Ordering::Relaxed),
            scans,
            scans,
            self.cache.stem_hits() + self.cache.stem_misses(),
            scans,
            scans.min(1),
            self.cache.tile_hits(),
            self.cache.tile_misses(),
            self.cache.stem_hits(),
            self.cache.stem_misses(),
            rhsd_par::threads(),
            rhsd_tensor::ops::kernels::isa_name(),
        )
    }

    fn info_json(&self) -> String {
        format!(
            "{{\"op\":\"info\",\"proto\":\"{PROTO_VERSION}\",\"model_format\":\"{MODEL_FORMAT}\",\"region_px\":{},\"threads\":{},\"isa\":\"{}\"}}",
            self.detector.region_config().region_px,
            rhsd_par::threads(),
            rhsd_tensor::ops::kernels::isa_name(),
        )
    }
}

/// Final counters of a server's lifetime, returned by [`Server::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests handled (all ops).
    pub requests: u64,
    /// Scan requests handled.
    pub scan_requests: u64,
    /// Tile lookups served from the scan cache.
    pub tile_hits: u64,
    /// Tile lookups that extracted the tile.
    pub tile_misses: u64,
    /// Stem lookups served from the scan cache.
    pub stem_hits: u64,
    /// Stem lookups that computed the stem.
    pub stem_misses: u64,
}

/// A running server: listener + connection threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Loads the model and starts listening on loopback.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when the model does not load,
    /// [`ServeError::Geometry`] when its input size matches no benchmark
    /// scale, [`ServeError::Io`] when the port cannot be bound.
    pub fn start(config: &ServeConfig) -> Result<Server, ServeError> {
        let network = persist::load_from_path(&config.model).map_err(ServeError::Persist)?;
        let scale =
            Scale::for_region_px(network.config().region_px).map_err(ServeError::Geometry)?;
        let detector = RegionDetector::new(network, scale.region_config());

        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            addr,
            detector,
            cache: ScanCache::new(scale.benchmark(), scale.region_config()),
            requests: AtomicU64::new(0),
            scan_requests: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
        });

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        #[expect(
            clippy::disallowed_methods,
            reason = "the acceptor and per-connection threads do I/O; scans compute on the rhsd-par pool"
        )]
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutting_down.load(Ordering::SeqCst) {
                        break; // the wake-up connection from shutdown
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = Arc::clone(&shared);
                    let handle = std::thread::spawn(move || handle_connection(stream, &shared));
                    conns.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
                }
            })
        };

        Ok(Server {
            addr,
            shared,
            acceptor,
            conns,
        })
    }

    /// The bound listen address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a `shutdown` request lands and open connections
    /// drain; returns the lifetime counters and emits
    /// them as a `serve_stats` ledger event (when a ledger is active).
    pub fn wait(self) -> ServeSummary {
        let _ = self.acceptor.join();
        let handles: Vec<JoinHandle<()>> = {
            let mut conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            conns.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }

        let cache = &self.shared.cache;
        let summary = ServeSummary {
            requests: self.shared.requests.load(Ordering::Relaxed),
            scan_requests: self.shared.scan_requests.load(Ordering::Relaxed),
            tile_hits: cache.tile_hits(),
            tile_misses: cache.tile_misses(),
            stem_hits: cache.stem_hits(),
            stem_misses: cache.stem_misses(),
        };
        rhsd_obs::ledger::emit(&Event::ServeStats {
            requests: summary.requests,
            scan_requests: summary.scan_requests,
        });
        summary
    }
}

/// Serves one connection until the peer closes or shutdown is requested.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        let body = match read_frame(&mut reader) {
            Ok(Some(body)) => body,
            Ok(None) => return, // clean close
            Err(_) => return,   // broken stream: nothing to reply to
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        rhsd_obs::counter("serve.requests", 1);
        let reply = match crate::proto::parse_request(&body) {
            Ok(req) => match handle_request(&req, shared) {
                Reply::Body(json) => json,
                Reply::ShutdownAck(json) => {
                    let _ = write_frame(&mut writer, &json);
                    initiate_shutdown(shared);
                    return;
                }
            },
            Err(e @ (ProtoError::BadJson(_) | ProtoError::BadRequest(_))) => {
                error_json(&e.to_string())
            }
            Err(_) => return,
        };
        if write_frame(&mut writer, &reply).is_err() {
            return;
        }
    }
}

enum Reply {
    Body(String),
    ShutdownAck(String),
}

fn handle_request(req: &Request, shared: &Shared) -> Reply {
    match req {
        Request::Ping => Reply::Body("{\"op\":\"pong\"}".to_owned()),
        Request::Info => Reply::Body(shared.info_json()),
        Request::Stats => Reply::Body(shared.stats_json()),
        Request::Shutdown => {
            Reply::ShutdownAck("{\"op\":\"shutdown\",\"status\":\"ok\"}".to_owned())
        }
        Request::Scan { case, half } => {
            shared.scan_requests.fetch_add(1, Ordering::Relaxed);
            rhsd_obs::counter("serve.scan_requests", 1);
            let sw = rhsd_obs::Stopwatch::start();
            let result = scan(&shared.detector, &shared.cache, *case, *half);
            sw.stop_into("serve.scan_secs");
            Reply::Body(scan_response_json(*case, *half, &result))
        }
    }
}

/// Serves one scan: the cached tiles of `half` of `case`, one pass over
/// the `rhsd-par` pool with one task per region, merged in grid order.
/// Per-region detection reads the network without mutating it, so the
/// result is [`RegionDetector::scan`]'s, whatever other scans share the
/// pool's queue meanwhile.
fn scan(detector: &RegionDetector, cache: &ScanCache, case: CaseId, half: Half) -> ScanResult {
    let tiles = cache.tiles(case, half);
    let per_region = rhsd_par::map(tiles.len(), 1, |i| scan_region(detector, cache, &tiles[i]));
    merge_scan(tiles.iter().map(|t| t.sample()), per_region)
}

/// Detects on one cached tile and scores it against its ground truth.
fn scan_region(
    detector: &RegionDetector,
    cache: &ScanCache,
    tile: &Tile,
) -> (Vec<Detection>, Evaluation) {
    let _rsp = rhsd_obs::span("scan-region");
    let net = detector.network();
    let feats = {
        let _sp = rhsd_obs::span("backbone");
        let stem = cache.stem(tile, |image| net.extractor().forward_stem(image));
        net.extractor().forward_rest(stem)
    };
    let dets = net.detect_features(&feats);
    let eval = evaluate_region(&dets, &tile.sample().gt_centers);
    (dets, eval)
}

/// Flags shutdown and pokes the blocking accept loop awake with a
/// throwaway connection to our own listen address.
fn initiate_shutdown(shared: &Shared) {
    shared.shutting_down.store(true, Ordering::SeqCst);
    // The acceptor is parked in `accept`; the throwaway connection wakes
    // it, at which point it observes the flag and exits.
    wake_acceptor(shared.addr);
}

/// Runs the offline reference scan for bit-identity checks: loads the
/// model exactly as the server does, scans `case`/`half` through
/// [`RegionDetector::scan`] (no cache), and returns the result. The
/// only `precision` is [`Precision::F32`].
///
/// # Errors
///
/// As [`Server::start`], minus the listener.
pub fn offline_scan(
    model: &std::path::Path,
    case: CaseId,
    half: Half,
    _precision: Precision,
) -> Result<ScanResult, ServeError> {
    let network = persist::load_from_path(model).map_err(ServeError::Persist)?;
    let scale = Scale::for_region_px(network.config().region_px).map_err(ServeError::Geometry)?;
    let detector = RegionDetector::new(network, scale.region_config());
    let bench = scale.benchmark()(case);
    Ok(detector.scan(&bench, &half.extent(&bench)))
}

/// Connects to `addr` after [`initiate_shutdown`] so the acceptor
/// observes the flag (used by the shutdown handler and by tests).
pub(crate) fn wake_acceptor(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rhsd_core::{RhsdConfig, RhsdNetwork};
    use rhsd_data::{Benchmark, RegionConfig};

    fn tiny_detector() -> RegionDetector {
        let mut cfg = RhsdConfig::tiny();
        cfg.region_px = 128;
        let mut rng = ChaCha8Rng::seed_from_u64(90);
        RegionDetector::new(RhsdNetwork::new(cfg, &mut rng), RegionConfig::demo())
    }

    fn demo_cache() -> ScanCache {
        ScanCache::new(Benchmark::demo, RegionConfig::demo())
    }

    fn assert_same(got: &ScanResult, want: &ScanResult) {
        assert_eq!(got.detections, want.detections);
        assert_eq!(got.evaluation, want.evaluation);
        assert_eq!(got.regions, want.regions);
    }

    #[test]
    fn served_scans_equal_the_offline_scan() {
        let detector = tiny_detector();
        let cache = demo_cache();
        let offline = detector.scan_test_half(cache.benchmark(CaseId::Case2));

        // The first scan computes every stem, the second replays them.
        let first = scan(&detector, &cache, CaseId::Case2, Half::Test);
        assert_same(&first, &offline);
        let n = first.regions as u64;
        assert_eq!((cache.stem_hits(), cache.stem_misses()), (0, n));
        let second = scan(&detector, &cache, CaseId::Case2, Half::Test);
        assert_same(&second, &offline);
        assert_eq!((cache.stem_hits(), cache.stem_misses()), (n, n));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "two scans race on their own threads, as two connections do"
    )]
    fn concurrent_scans_each_get_the_offline_result() {
        let detector = Arc::new(tiny_detector());
        let cache = Arc::new(demo_cache());
        let offline = detector.scan_test_half(cache.benchmark(CaseId::Case2));
        // Both scans start together, so their tasks share the pool.
        let start = Arc::new(std::sync::Barrier::new(2));
        let scans: Vec<_> = (0..2)
            .map(|_| {
                let (detector, cache) = (Arc::clone(&detector), Arc::clone(&cache));
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    scan(&detector, &cache, CaseId::Case2, Half::Test)
                })
            })
            .collect();
        for s in scans {
            assert_same(&s.join().unwrap(), &offline);
        }
        // Two scans racing on one tile may both compute its stem, so only
        // the totals are scheduling-independent.
        let n = offline.regions as u64;
        assert_eq!(cache.stem_hits() + cache.stem_misses(), 2 * n);
        assert!(cache.stem_misses() >= n);
    }
}
