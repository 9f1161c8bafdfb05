//! Cross-request batch coalescing.
//!
//! Connection handlers never run the network themselves. They submit
//! their prepared region samples to a shared [`BatchQueue`] and block on
//! a reply channel; a single batcher thread drains *every* queued job at
//! once, concatenates the samples into one slice, and runs a single
//! [`RegionDetector::scan_batch`] pass over the `rhsd-par` pool: one
//! task per region, all on the one shared network. Under concurrent
//! load the pool therefore sees large batches (good thread occupancy)
//! instead of many small competing scans.
//!
//! Correctness rests on the batch-decomposition property documented on
//! [`RegionDetector::scan_batch`]: per-region detection is independent
//! and reads the network without mutating it, so each job gets back
//! exactly the per-region results it would get from a solo scan —
//! coalescing changes throughput, never output.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

use rhsd_core::{Detection, Evaluation, RegionDetector, StemFeatureCache};
use rhsd_data::RegionSample;

/// Per-region results for one submitted job, in sample order.
pub type JobResult = Vec<(Vec<Detection>, Evaluation)>;

struct Job {
    samples: Vec<Arc<RegionSample>>,
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

    /// Submits one scan's samples; the returned receiver yields the
    /// per-region results once a batch containing this job completes.
    /// After [`BatchQueue::shutdown`] the job is dropped and the
    /// receiver disconnects.
    pub fn submit(&self, samples: Vec<Arc<RegionSample>>) -> mpsc::Receiver<JobResult> {
        let (tx, rx) = mpsc::channel();
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if !state.shutdown {
            state.jobs.push_back(Job { samples, reply: tx });
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
    pub fn run(&self, detector: &RegionDetector, stems: &StemFeatureCache) {
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

            let mut all: Vec<Arc<RegionSample>> = Vec::new();
            for job in &jobs {
                all.extend(job.samples.iter().cloned());
            }
            let sw = rhsd_obs::Stopwatch::start();
            let mut results = detector.scan_batch(&all, Some(stems));
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
                let rest = results.split_off(job.samples.len());
                let own = std::mem::replace(&mut results, rest);
                let _ = job.reply.send(own);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rhsd_core::{RhsdConfig, RhsdNetwork, DEFAULT_STEM_CACHE_CAP};
    use rhsd_data::{tile_regions, Benchmark, RegionConfig};
    use rhsd_layout::synth::CaseId;

    fn tiny_detector() -> RegionDetector {
        let mut cfg = RhsdConfig::tiny();
        cfg.region_px = 128;
        let mut rng = ChaCha8Rng::seed_from_u64(90);
        RegionDetector::new(RhsdNetwork::new(cfg, &mut rng), RegionConfig::demo())
    }

    fn samples(case: CaseId) -> Vec<Arc<RegionSample>> {
        let bench = Benchmark::demo(case);
        tile_regions(&bench, &bench.test_extent.clone(), &RegionConfig::demo())
            .into_iter()
            .map(Arc::new)
            .collect()
    }

    #[test]
    fn coalesced_jobs_get_their_solo_scan_results() {
        let detector = Arc::new(tiny_detector());
        let stems = StemFeatureCache::new(DEFAULT_STEM_CACHE_CAP);
        let queue = BatchQueue::new();
        let s2 = samples(CaseId::Case2);
        let s3 = samples(CaseId::Case3);
        let expect2 = detector.scan_batch(&s2, None);
        let expect3 = detector.scan_batch(&s3, None);

        // Enqueue both jobs *before* the batcher starts so they are
        // provably coalesced into a single pass.
        let rx2 = queue.submit(s2);
        let rx3 = queue.submit(s3);
        queue.shutdown();
        queue.run(&detector, &stems);

        assert_eq!(rx2.recv().unwrap(), expect2);
        assert_eq!(rx3.recv().unwrap(), expect3);
        assert_eq!(queue.batches(), 1, "both jobs must share one pass");
        assert_eq!(queue.batched_requests(), 2);
        assert_eq!(queue.max_batch_requests(), 2);
        assert_eq!(
            queue.batched_regions(),
            (expect2.len() + expect3.len()) as u64
        );
    }

    #[test]
    fn concurrent_submitters_are_served() {
        let detector = Arc::new(tiny_detector());
        let queue = BatchQueue::new();
        let s2 = samples(CaseId::Case2);
        let expect = detector.scan_batch(&s2, None);

        let batcher = {
            let queue = Arc::clone(&queue);
            let detector = Arc::clone(&detector);
            std::thread::spawn(move || {
                let stems = StemFeatureCache::new(DEFAULT_STEM_CACHE_CAP);
                queue.run(&detector, &stems);
            })
        };
        let clients: Vec<_> = (0..3)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let s = s2.clone();
                std::thread::spawn(move || queue.submit(s).recv().unwrap())
            })
            .collect();
        for c in clients {
            assert_eq!(c.join().unwrap(), expect);
        }
        queue.shutdown();
        batcher.join().unwrap();
        assert_eq!(queue.batched_requests(), 3);
        assert!(queue.batches() >= 1 && queue.batches() <= 3);
    }

    #[test]
    fn submit_after_shutdown_disconnects() {
        let queue = BatchQueue::new();
        queue.shutdown();
        let rx = queue.submit(Vec::new());
        assert!(rx.recv().is_err(), "post-shutdown job must not be queued");
    }
}
