//! The scan table: one entry per scan a server can answer, kept across
//! requests.
//!
//! A request names one of eight scans, `{Case1..Case4} × {train, test}`,
//! so [`ScanCache`] is a fixed table with a set-once slot per case for
//! its labelled [`Benchmark`] and a set-once slot per `(case, half)` for
//! that scan's region tiles, built by [`rhsd_data::tile_regions`] on the
//! scan's first request. Each [`Tile`] holds
//!
//! - the extracted [`RegionSample`] (raster plus ground truth), and
//! - a set-once slot for the tile's stem activations
//!   ([`rhsd_core::FeatureExtractor::forward_stem`]), filled by the first
//!   scan that reaches the tile.
//!
//! The server owns one immutable network for its whole life and one
//! region geometry, so `(case, half)` determines every raster and stem
//! exactly. A replayed stem is the stored output of the same arithmetic
//! on the same bits, so cached and uncached scans are bit-identical.
//!
//! Every entry stays resident: at most the 416 tiles of the eight
//! paper-scale scans. A request that finds a slot empty builds it while
//! concurrent requests for the same slot wait; only connection threads
//! build or wait there, never pool tasks. A stem is computed outside any
//! lock and the first stored value wins, so no pool task ever waits on
//! another task's stem — which matters because `forward_stem` opens pool
//! sections of its own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use rhsd_data::{tile_regions, Benchmark, RegionConfig, RegionSample};
use rhsd_layout::synth::CaseId;
use rhsd_tensor::Tensor;

use crate::proto::Half;

/// One cached region tile: its sample and, once a scan computed it, its
/// stem activations.
pub struct Tile {
    sample: RegionSample,
    stem: OnceLock<Tensor>,
}

impl Tile {
    /// The region's raster and ground truth.
    pub fn sample(&self) -> &RegionSample {
        &self.sample
    }
}

/// One case's slots: its labelled benchmark and the tiles of its train
/// and test halves.
#[derive(Default)]
struct CaseSlots {
    bench: OnceLock<Benchmark>,
    halves: [OnceLock<Arc<[Tile]>>; 2],
}

/// The thread-safe table of one server's benchmarks, tiles and stems.
pub struct ScanCache {
    build: fn(CaseId) -> Benchmark,
    region: RegionConfig,
    cases: [CaseSlots; 4],
    tile_hits: AtomicU64,
    tile_misses: AtomicU64,
    stem_hits: AtomicU64,
    stem_misses: AtomicU64,
}

impl ScanCache {
    /// An empty table whose benchmarks `build` makes and whose tiles
    /// follow `region`.
    pub fn new(build: fn(CaseId) -> Benchmark, region: RegionConfig) -> Self {
        ScanCache {
            build,
            region,
            cases: Default::default(),
            tile_hits: AtomicU64::new(0),
            tile_misses: AtomicU64::new(0),
            stem_hits: AtomicU64::new(0),
            stem_misses: AtomicU64::new(0),
        }
    }

    /// The labelled benchmark of `case`, built on first use.
    pub(crate) fn benchmark(&self, case: CaseId) -> &Benchmark {
        self.cases[case as usize]
            .bench
            .get_or_init(|| (self.build)(case))
    }

    /// The tiles of `half` of `case`, in grid order, built on the scan's
    /// first request. The request that builds them counts them as
    /// misses; one that finds them, or waits while another builds them,
    /// counts them as hits.
    pub fn tiles(&self, case: CaseId, half: Half) -> Arc<[Tile]> {
        let mut built = false;
        let tiles = self.slot(case, half).get_or_init(|| {
            built = true;
            let bench = self.benchmark(case);
            tile_regions(bench, &half.extent(bench), &self.region)
                .into_iter()
                .map(|sample| Tile {
                    sample,
                    stem: OnceLock::new(),
                })
                .collect()
        });
        let n = tiles.len() as u64;
        if built {
            self.tile_misses.fetch_add(n, Ordering::Relaxed);
            rhsd_obs::counter("cache.region_tile.misses", n);
        } else {
            self.tile_hits.fetch_add(n, Ordering::Relaxed);
            rhsd_obs::counter("cache.region_tile.hits", n);
            let saved = tiles.iter().map(|t| bytes(&t.sample.image)).sum();
            rhsd_obs::counter("cache.region_tile.bytes", saved);
        }
        Arc::clone(tiles)
    }

    fn slot(&self, case: CaseId, half: Half) -> &OnceLock<Arc<[Tile]>> {
        &self.cases[case as usize].halves[half as usize]
    }

    /// The stem activations of `tile`: read from its slot, or computed by
    /// `forward_stem` from the tile's raster and stored. If another task
    /// filled the slot meanwhile, its value wins and is returned.
    pub fn stem<'t>(
        &self,
        tile: &'t Tile,
        forward_stem: impl FnOnce(&Tensor) -> Tensor,
    ) -> &'t Tensor {
        if let Some(stem) = tile.stem.get() {
            self.stem_hits.fetch_add(1, Ordering::Relaxed);
            rhsd_obs::counter("cache.stem_feature.hits", 1);
            rhsd_obs::counter("cache.stem_feature.bytes", bytes(stem));
            return stem;
        }
        self.stem_misses.fetch_add(1, Ordering::Relaxed);
        rhsd_obs::counter("cache.stem_feature.misses", 1);
        let computed = forward_stem(&tile.sample.image);
        tile.stem.get_or_init(|| computed)
    }

    /// Tiles handed out from a built entry.
    pub fn tile_hits(&self) -> u64 {
        self.tile_hits.load(Ordering::Relaxed)
    }

    /// Tiles built.
    pub fn tile_misses(&self) -> u64 {
        self.tile_misses.load(Ordering::Relaxed)
    }

    /// Stem lookups answered from a filled slot.
    pub fn stem_hits(&self) -> u64 {
        self.stem_hits.load(Ordering::Relaxed)
    }

    /// Stem lookups that computed the stem.
    pub fn stem_misses(&self) -> u64 {
        self.stem_misses.load(Ordering::Relaxed)
    }
}

/// Bytes a hit saved recomputing (the `bytes` counters).
fn bytes(t: &Tensor) -> u64 {
    t.as_slice().len() as u64 * 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rhsd_core::{RhsdConfig, RhsdNetwork};
    use rhsd_layout::{RasterSpec, Rect};

    fn demo() -> ScanCache {
        ScanCache::new(Benchmark::demo, RegionConfig::demo())
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_stem_replay_reproduces_the_computed_bits() {
        let mut cfg = RhsdConfig::tiny();
        cfg.region_px = 128;
        let net = RhsdNetwork::new(cfg, &mut ChaCha8Rng::seed_from_u64(90));
        let cache = demo();
        let tiles = cache.tiles(CaseId::Case2, Half::Test);
        let tile = &tiles[0];

        let computed = bits(cache.stem(tile, |x| net.extractor().forward_stem(x)));
        let again = cache.tiles(CaseId::Case2, Half::Test);
        assert!(Arc::ptr_eq(&tiles, &again), "the rescan reuses the tiles");
        let replayed = cache.stem(&again[0], |_| unreachable!("stem is stored"));
        assert_eq!(bits(replayed), computed);
        assert_eq!(
            bits(&net.extractor().forward_stem(&tile.sample().image)),
            computed
        );
        let dets = net.detect_features(&net.extractor().forward_rest(replayed));
        assert_eq!(dets, net.detect(&tile.sample().image));
        let n = tiles.len() as u64;
        assert_eq!((cache.tile_hits(), cache.tile_misses()), (n, n));
        assert_eq!((cache.stem_hits(), cache.stem_misses()), (1, 1));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "two requests race on their own threads"
    )]
    fn concurrent_requests_build_an_entry_once() {
        // Whether the second request finds the entry or waits on its
        // build, the tiles are built and counted as misses once.
        let cache = Arc::new(demo());
        let requests: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || cache.tiles(CaseId::Case2, Half::Test))
            })
            .collect();
        let got: Vec<Arc<[Tile]>> = requests.into_iter().map(|r| r.join().unwrap()).collect();
        assert!(Arc::ptr_eq(&got[0], &got[1]), "one build serves both");
        let n = got[0].len() as u64;
        assert_eq!((cache.tile_hits(), cache.tile_misses()), (n, n));
    }

    #[test]
    fn the_eight_entries_are_distinct() {
        let cache = demo();
        let cases = [CaseId::Case1, CaseId::Case2, CaseId::Case3, CaseId::Case4];
        let slots: Vec<_> = cases
            .into_iter()
            .flat_map(|case| [Half::Train, Half::Test].map(|half| cache.slot(case, half)))
            .collect();
        for (i, a) in slots.iter().enumerate() {
            assert!(
                slots[i + 1..].iter().all(|b| !std::ptr::eq(*a, *b)),
                "slot {i} is shared"
            );
        }
    }

    #[test]
    fn a_racing_second_set_keeps_the_first_value() {
        let cache = demo();
        let window = Rect::new(0, 0, 1, 1);
        let tile = Tile {
            sample: RegionSample {
                image: Tensor::zeros([1, 1, 1]),
                window,
                spec: RasterSpec::new(window, 1, 1),
                gt_clips: Vec::new(),
                gt_centers: Vec::new(),
            },
            stem: OnceLock::new(),
        };
        // The inner call plays a task that finishes its stem while the
        // outer task is still computing: the outer value is dropped.
        let stem = cache.stem(&tile, |_| {
            cache.stem(&tile, |_| Tensor::full([1], 1.0));
            Tensor::full([1], 2.0)
        });
        assert_eq!(stem.as_slice(), &[1.0]);
        assert_eq!(cache.stem(&tile, |_| unreachable!()).as_slice(), &[1.0]);
        assert_eq!((cache.stem_hits(), cache.stem_misses()), (1, 2));
    }
}
