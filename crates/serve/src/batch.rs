//! Cross-request batch coalescing.
//!
//! Connection handlers never run the network themselves. They submit
//! their cached region tiles ([`Tile`]) to a shared [`BatchQueue`] and
//! block on a reply channel; a single batcher thread drains *every*
//! queued job at once, concatenates the tiles into one slice, and runs
//! one pass over the `rhsd-par` pool: one task per region, all on the
//! one shared network. Under concurrent load the pool therefore sees
//! large batches (good thread occupancy) instead of many small competing
//! scans.
//!
//! Each region task runs `stem → forward_rest → detect_features →
//! evaluate_region`, taking the stem from the tile's slot in the
//! [`ScanCache`] or computing and storing it. Per-region detection is
//! independent and reads the network without mutating it, so each job
//! gets back exactly the per-region results of an offline
//! [`RegionDetector::scan`] — coalescing and caching change throughput,
//! never output.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

use rhsd_core::{evaluate_region, Detection, Evaluation, RegionDetector};

use crate::cache::{ScanCache, Tile};

/// Per-region results for one submitted job, in sample order.
pub type JobResult = Vec<(Vec<Detection>, Evaluation)>;

struct Job {
    tiles: Arc<[Tile]>,
    reply: mpsc::Sender<JobResult>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// The shared coalescing queue between connection handlers and the
/// batcher thread.
pub struct BatchQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    batches: AtomicU64,
    batched_regions: AtomicU64,
    batched_requests: AtomicU64,
    max_batch_requests: AtomicU64,
}

impl BatchQueue {
    /// Creates an empty queue.
    pub fn new() -> Arc<BatchQueue> {
        Arc::new(BatchQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            batches: AtomicU64::new(0),
            batched_regions: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            max_batch_requests: AtomicU64::new(0),
        })
    }

    /// Submits one scan's tiles; the returned receiver yields the
    /// per-region results once a batch containing this job completes.
    /// After [`BatchQueue::shutdown`] the job is dropped and the
    /// receiver disconnects.
    pub fn submit(&self, tiles: Arc<[Tile]>) -> mpsc::Receiver<JobResult> {
        let (tx, rx) = mpsc::channel();
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if !state.shutdown {
            state.jobs.push_back(Job { tiles, reply: tx });
            self.ready.notify_one();
        }
        rx
    }

    /// Stops the batcher after it drains the jobs already queued.
    pub fn shutdown(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.shutdown = true;
        self.ready.notify_all();
    }

    /// Batched forward passes run so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Total regions pushed through batched passes.
    pub fn batched_regions(&self) -> u64 {
        self.batched_regions.load(Ordering::Relaxed)
    }

    /// Total jobs (requests) served through batched passes.
    pub fn batched_requests(&self) -> u64 {
        self.batched_requests.load(Ordering::Relaxed)
    }

    /// Largest number of requests coalesced into one pass.
    pub fn max_batch_requests(&self) -> u64 {
        self.max_batch_requests.load(Ordering::Relaxed)
    }

    /// Runs the batcher loop until [`BatchQueue::shutdown`] and the queue
    /// drains. Intended to own a dedicated thread.
    pub fn run(&self, detector: &RegionDetector, cache: &ScanCache) {
        loop {
            let jobs: Vec<Job> = {
                let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                while state.jobs.is_empty() && !state.shutdown {
                    state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                if state.jobs.is_empty() {
                    return; // shutdown with nothing left to drain
                }
                state.jobs.drain(..).collect()
            };

            let all: Vec<&Tile> = jobs.iter().flat_map(|j| j.tiles.iter()).collect();
            let sw = rhsd_obs::Stopwatch::start();
            let mut results = rhsd_par::map(all.len(), 1, |i| scan_region(detector, cache, all[i]));
            sw.stop_into("serve.batch_secs");

            self.batches.fetch_add(1, Ordering::Relaxed);
            self.batched_regions
                .fetch_add(all.len() as u64, Ordering::Relaxed);
            self.batched_requests
                .fetch_add(jobs.len() as u64, Ordering::Relaxed);
            self.max_batch_requests
                .fetch_max(jobs.len() as u64, Ordering::Relaxed);
            rhsd_obs::counter("serve.batches", 1);
            rhsd_obs::counter("serve.batched_regions", all.len() as u64);
            rhsd_obs::record("serve.batch_requests", jobs.len() as f64);

            // Split the concatenated results back out in job order; a
            // receiver that hung up just drops its slice.
            for job in jobs {
                let rest = results.split_off(job.tiles.len());
                let own = std::mem::replace(&mut results, rest);
                let _ = job.reply.send(own);
            }
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rhsd_core::{merge_scan, RhsdConfig, RhsdNetwork};
    use rhsd_data::{Benchmark, RegionConfig};
    use rhsd_layout::synth::CaseId;

    use crate::proto::Half;

    fn tiny_detector() -> RegionDetector {
        let mut cfg = RhsdConfig::tiny();
        cfg.region_px = 128;
        let mut rng = ChaCha8Rng::seed_from_u64(90);
        RegionDetector::new(RhsdNetwork::new(cfg, &mut rng), RegionConfig::demo())
    }

    fn demo_cache() -> ScanCache {
        ScanCache::new(Benchmark::demo, RegionConfig::demo())
    }

    /// The offline per-region results: plain `detect` on each raster.
    fn solo(detector: &RegionDetector, tiles: &[Tile]) -> JobResult {
        tiles
            .iter()
            .map(|t| detector.detect_region(t.sample()))
            .collect()
    }

    #[test]
    fn coalesced_jobs_get_their_solo_scan_results() {
        let detector = Arc::new(tiny_detector());
        let cache = demo_cache();
        let queue = BatchQueue::new();
        let t2 = cache.tiles(CaseId::Case2, Half::Test);
        let t3 = cache.tiles(CaseId::Case3, Half::Test);
        let expect2 = solo(&detector, &t2);
        let expect3 = solo(&detector, &t3);

        // Enqueue both jobs *before* the batcher starts so they are
        // provably coalesced into a single pass; the second Case2 job
        // replays the stems the first one stores.
        let rx2 = queue.submit(Arc::clone(&t2));
        let rx3 = queue.submit(Arc::clone(&t3));
        let rx2_again = queue.submit(Arc::clone(&t2));
        queue.shutdown();
        queue.run(&detector, &cache);

        let got2 = rx2.recv().unwrap();
        assert_eq!(got2, expect2);
        assert_eq!(rx3.recv().unwrap(), expect3);
        assert_eq!(rx2_again.recv().unwrap(), expect2);
        assert_eq!(queue.batches(), 1, "all jobs must share one pass");
        assert_eq!(queue.batched_requests(), 3);
        assert_eq!(queue.max_batch_requests(), 3);
        let regions = (2 * t2.len() + t3.len()) as u64;
        assert_eq!(queue.batched_regions(), regions);
        assert_eq!(cache.stem_hits() + cache.stem_misses(), regions);

        // ... and the merged result equals the offline scan.
        let merged = merge_scan(t2.iter().map(|t| t.sample()), got2);
        let offline = detector.scan_test_half(cache.benchmark(CaseId::Case2));
        assert_eq!(merged.detections, offline.detections);
        assert_eq!(merged.evaluation, offline.evaluation);
        assert_eq!(merged.regions, offline.regions);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the queue and its submitters run on their own threads"
    )]
    fn concurrent_submitters_are_served() {
        let detector = Arc::new(tiny_detector());
        let cache = Arc::new(demo_cache());
        let queue = BatchQueue::new();
        let t2 = cache.tiles(CaseId::Case2, Half::Test);
        let expect = solo(&detector, &t2);

        let batcher = {
            let (queue, detector, cache) = (
                Arc::clone(&queue),
                Arc::clone(&detector),
                Arc::clone(&cache),
            );
            std::thread::spawn(move || queue.run(&detector, &cache))
        };
        let clients: Vec<_> = (0..3)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let t = Arc::clone(&t2);
                std::thread::spawn(move || queue.submit(t).recv().unwrap())
            })
            .collect();
        for c in clients {
            assert_eq!(c.join().unwrap(), expect);
        }
        queue.shutdown();
        batcher.join().unwrap();
        assert_eq!(queue.batched_requests(), 3);
        assert!(queue.batches() >= 1 && queue.batches() <= 3);
        // Copies of one tile coalesced into a pass may both compute its
        // stem, so only the totals are scheduling-independent.
        let lookups = cache.stem_hits() + cache.stem_misses();
        assert_eq!(lookups, queue.batched_regions());
        assert!(cache.stem_misses() >= t2.len() as u64);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the queue runs on its own thread"
    )]
    fn sequential_rescans_compute_each_stem_once() {
        let detector = Arc::new(tiny_detector());
        let cache = Arc::new(demo_cache());
        let queue = BatchQueue::new();
        let t2 = cache.tiles(CaseId::Case2, Half::Test);
        let expect = solo(&detector, &t2);

        let batcher = {
            let (queue, detector, cache) = (
                Arc::clone(&queue),
                Arc::clone(&detector),
                Arc::clone(&cache),
            );
            std::thread::spawn(move || queue.run(&detector, &cache))
        };
        for _ in 0..3 {
            assert_eq!(queue.submit(Arc::clone(&t2)).recv().unwrap(), expect);
        }
        queue.shutdown();
        batcher.join().unwrap();
        let n = t2.len() as u64;
        assert_eq!(queue.batches(), 3);
        assert_eq!(cache.stem_misses(), n, "one stem per tile");
        assert_eq!(cache.stem_hits(), 2 * n);
    }

    #[test]
    fn submit_after_shutdown_disconnects() {
        let queue = BatchQueue::new();
        queue.shutdown();
        let rx = queue.submit(Arc::new([]));
        assert!(rx.recv().is_err(), "post-shutdown job must not be queued");
    }
}
