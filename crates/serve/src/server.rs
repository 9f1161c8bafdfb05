//! The serving loop: a TCP listener, per-connection handler threads, and
//! the shared scan state (detector, caches, batch queue, counters).
//!
//! One process loads the trained model once, then serves any number of
//! scan requests. Scans from concurrent connections meet in the shared
//! [`BatchQueue`] and run as coalesced forward passes; the
//! [`ScanCache`] keeps each scan's region tiles and their stem
//! activations across requests, so repeated traffic over the same
//! layouts is served mostly from cache. Replies are bit-identical to
//! offline scans by construction — see
//! [`crate::proto::scan_response_json`].
//!
//! Shutdown protocol: a `shutdown` request is acknowledged, the listener
//! stops accepting, open connections finish their in-flight requests and
//! close, the batch queue drains, and [`Server::wait`] returns a final
//! [`ServeSummary`] (also emitted as a `serve_stats` ledger event).

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use rhsd_core::detector::ScanResult;
use rhsd_core::persist::{self, PersistError, MODEL_FORMAT};
use rhsd_core::{merge_scan, Precision, RegionDetector};
use rhsd_data::{Benchmark, RegionConfig};
use rhsd_layout::synth::CaseId;
use rhsd_obs::ledger::Event;

use crate::batch::BatchQueue;
use crate::cache::ScanCache;
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
    Geometry {
        /// The model's region side in pixels.
        model_px: usize,
    },
    /// Binding or configuring the listener failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Persist(e) => write!(f, "cannot load model: {e}"),
            ServeError::Geometry { model_px } => write!(
                f,
                "model scans {model_px}-px regions, which is neither demo ({}) nor paper ({}) geometry",
                RegionConfig::demo().region_px,
                RegionConfig::paper().region_px
            ),
            ServeError::Io(e) => write!(f, "server I/O error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Persist(e) => Some(e),
            ServeError::Geometry { .. } => None,
            ServeError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Benchmark scale implied by the model geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Demo,
    Paper,
}

impl Scale {
    fn for_region_px(model_px: usize) -> Result<Scale, ServeError> {
        if model_px == RegionConfig::demo().region_px {
            Ok(Scale::Demo)
        } else if model_px == RegionConfig::paper().region_px {
            Ok(Scale::Paper)
        } else {
            Err(ServeError::Geometry { model_px })
        }
    }

    fn region_config(self) -> RegionConfig {
        match self {
            Scale::Demo => RegionConfig::demo(),
            Scale::Paper => RegionConfig::paper(),
        }
    }

    fn benchmark(self) -> fn(CaseId) -> Benchmark {
        match self {
            Scale::Demo => Benchmark::demo,
            Scale::Paper => Benchmark::full,
        }
    }
}

/// State shared between the acceptor, connection handlers and batcher.
struct Shared {
    addr: SocketAddr,
    detector: RegionDetector,
    queue: Arc<BatchQueue>,
    cache: ScanCache,
    requests: AtomicU64,
    scan_requests: AtomicU64,
    shutting_down: AtomicBool,
}

impl Shared {
    fn stats_json(&self) -> String {
        format!(
            "{{\"op\":\"stats\",\"requests\":{},\"scan_requests\":{},\"batches\":{},\"batched_regions\":{},\"batched_requests\":{},\"max_batch_requests\":{},\"tile_hits\":{},\"tile_misses\":{},\"stem_hits\":{},\"stem_misses\":{},\"threads\":{},\"isa\":\"{}\"}}",
            self.requests.load(Ordering::Relaxed),
            self.scan_requests.load(Ordering::Relaxed),
            self.queue.batches(),
            self.queue.batched_regions(),
            self.queue.batched_requests(),
            self.queue.max_batch_requests(),
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
    /// Batched forward passes run.
    pub batches: u64,
    /// Regions pushed through batched passes.
    pub batched_regions: u64,
    /// Largest number of requests coalesced into one pass.
    pub max_batch_requests: u64,
    /// Tile lookups served from the scan cache.
    pub tile_hits: u64,
    /// Tile lookups that extracted the tile.
    pub tile_misses: u64,
    /// Stem lookups served from the scan cache.
    pub stem_hits: u64,
    /// Stem lookups that computed the stem.
    pub stem_misses: u64,
}

/// A running server: listener + batcher + connection threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    batcher: JoinHandle<()>,
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
        let scale = Scale::for_region_px(network.config().region_px)?;
        let detector = RegionDetector::new(network, scale.region_config());

        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            addr,
            detector,
            queue: BatchQueue::new(),
            cache: ScanCache::new(scale.benchmark(), scale.region_config()),
            requests: AtomicU64::new(0),
            scan_requests: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
        });

        #[expect(
            clippy::disallowed_methods,
            reason = "the batcher thread; its batches compute on the rhsd-par pool"
        )]
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let queue = Arc::clone(&shared.queue);
                queue.run(&shared.detector, &shared.cache);
            })
        };

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
            batcher,
            conns,
        })
    }

    /// The bound listen address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a `shutdown` request lands, open connections drain
    /// and the batcher stops; returns the lifetime counters and emits
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
        self.shared.queue.shutdown();
        let _ = self.batcher.join();

        let cache = &self.shared.cache;
        let summary = ServeSummary {
            requests: self.shared.requests.load(Ordering::Relaxed),
            scan_requests: self.shared.scan_requests.load(Ordering::Relaxed),
            batches: self.shared.queue.batches(),
            batched_regions: self.shared.queue.batched_regions(),
            max_batch_requests: self.shared.queue.max_batch_requests(),
            tile_hits: cache.tile_hits(),
            tile_misses: cache.tile_misses(),
            stem_hits: cache.stem_hits(),
            stem_misses: cache.stem_misses(),
        };
        rhsd_obs::ledger::emit(&Event::ServeStats {
            requests: summary.requests,
            scan_requests: summary.scan_requests,
            batches: summary.batches,
            batched_regions: summary.batched_regions,
            max_batch_requests: summary.max_batch_requests,
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
            let tiles = shared.cache.tiles(*case, *half);
            let rx = shared.queue.submit(Arc::clone(&tiles));
            let Ok(per_region) = rx.recv() else {
                return Reply::Body(error_json("server is shutting down"));
            };
            let result = merge_scan(tiles.iter().map(|t| t.sample()), per_region);
            sw.stop_into("serve.scan_secs");
            Reply::Body(scan_response_json(*case, *half, &result))
        }
    }
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
/// [`RegionDetector::scan`] (no cache, no batching), and returns the result. The
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
    let scale = Scale::for_region_px(network.config().region_px)?;
    let detector = RegionDetector::new(network, scale.region_config());
    let bench = scale.benchmark()(case);
    Ok(detector.scan(&bench, &half.extent(&bench)))
}

/// Connects to `addr` after [`initiate_shutdown`] so the acceptor
/// observes the flag (used by the shutdown handler and by tests).
pub(crate) fn wake_acceptor(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}
