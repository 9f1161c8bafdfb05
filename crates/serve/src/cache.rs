//! The scan cache: each served region's raster and its stem activations,
//! kept across requests.
//!
//! Served traffic repeats: clients scan the same few `(case, half)`
//! layouts again and again. [`ScanCache`] keys every region tile by
//! `(case, region origin)` and keeps, per tile,
//!
//! - the extracted [`RegionSample`] (raster plus ground truth), built on
//!   first use, and
//! - a set-once slot for the tile's stem activations
//!   ([`rhsd_core::FeatureExtractor::forward_stem`]), filled by the first
//!   scan that reaches the tile.
//!
//! The server owns one immutable network for its whole life and one
//! region geometry, so `(case, origin)` determines both the raster and
//! the stem exactly. A replayed stem is the stored output of the same
//! arithmetic on the same bits, so cached and uncached scans are
//! bit-identical.
//!
//! One FIFO bound covers every case. It is the number of distinct tiles
//! a paper-scale server can be asked for, so no served tile is ever
//! evicted (see `CAPACITY`). Concurrent first
//! requests for one tile both build it and one result is kept; both are
//! identical. A stem is computed outside any lock and the first stored
//! value wins, so no pool task ever waits on another task's stem — which
//! matters because `forward_stem` opens pool sections of its own.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rhsd_data::{extract_region, tile_origins, Benchmark, RegionConfig, RegionSample};
use rhsd_layout::synth::CaseId;
use rhsd_layout::{Point, Rect};
use rhsd_tensor::Tensor;

/// Tiles resident at once, across all cases: the 416 distinct tiles of
/// the eight paper-scale `(case, half)` scans (32 per Case1/2 half and 72
/// per Case3/4 half of 2,560 nm regions), which also covers the 144 demo
/// tiles. A smaller FIFO would evict each tile of a client cycling
/// through every scan just before its next pass, and never hit.
///
/// Residency is set by the server's own traffic: about 18 MiB at demo
/// scale (64 KiB raster + 64 KiB stem per tile) and at most 728 MiB at
/// paper scale (256 KiB raster + 1.5 MiB `[96, 64, 64]` stem per tile).
const CAPACITY: usize = 416;

/// `(case, origin x, origin y)`.
type TileKey = (CaseId, i64, i64);

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

struct Resident {
    map: BTreeMap<TileKey, Arc<Tile>>,
    /// Insertion order, for FIFO eviction.
    order: VecDeque<TileKey>,
}

/// The bounded, thread-safe tile-and-stem cache of one server.
pub struct ScanCache {
    resident: Mutex<Resident>,
    tile_hits: AtomicU64,
    tile_misses: AtomicU64,
    stem_hits: AtomicU64,
    stem_misses: AtomicU64,
}

impl ScanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ScanCache {
            resident: Mutex::new(Resident {
                map: BTreeMap::new(),
                order: VecDeque::new(),
            }),
            tile_hits: AtomicU64::new(0),
            tile_misses: AtomicU64::new(0),
            stem_hits: AtomicU64::new(0),
            stem_misses: AtomicU64::new(0),
        }
    }

    /// The tiles covering `extent` of `bench`, in grid order: resident
    /// ones from the cache, the others extracted (in parallel) and
    /// stored.
    pub fn tiles(&self, bench: &Benchmark, extent: &Rect, config: &RegionConfig) -> Vec<Arc<Tile>> {
        let origins = tile_origins(extent, config.region_nm());
        rhsd_par::map(origins.len(), 1, |i| {
            self.tile(bench.id, origins[i], || {
                extract_region(bench, origins[i], config)
            })
        })
    }

    /// The tile of `case` at `origin`, calling `extract` (outside the
    /// lock) to build its sample when it is not resident.
    fn tile(
        &self,
        case: CaseId,
        origin: Point,
        extract: impl FnOnce() -> RegionSample,
    ) -> Arc<Tile> {
        let key = (case, origin.x, origin.y);
        if let Some(hit) = self.lock().map.get(&key) {
            self.tile_hits.fetch_add(1, Ordering::Relaxed);
            rhsd_obs::counter("cache.region_tile.hits", 1);
            rhsd_obs::counter("cache.region_tile.bytes", bytes(&hit.sample.image));
            return Arc::clone(hit);
        }
        self.tile_misses.fetch_add(1, Ordering::Relaxed);
        rhsd_obs::counter("cache.region_tile.misses", 1);
        let built = Arc::new(Tile {
            sample: extract(),
            stem: OnceLock::new(),
        });
        let mut resident = self.lock();
        if let Some(raced) = resident.map.get(&key) {
            return Arc::clone(raced);
        }
        resident.map.insert(key, Arc::clone(&built));
        resident.order.push_back(key);
        while resident.order.len() > CAPACITY {
            let Some(old) = resident.order.pop_front() else {
                break;
            };
            if let Some(evicted) = resident.map.remove(&old) {
                rhsd_obs::counter("cache.region_tile.evictions", 1);
                if evicted.stem.get().is_some() {
                    rhsd_obs::counter("cache.stem_feature.evictions", 1);
                }
            }
        }
        built
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

    /// Tile lookups served from the cache.
    pub fn tile_hits(&self) -> u64 {
        self.tile_hits.load(Ordering::Relaxed)
    }

    /// Tile lookups that built the tile.
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

    fn lock(&self) -> std::sync::MutexGuard<'_, Resident> {
        // no invariant spans a panic — recover the data
        self.resident.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Default for ScanCache {
    fn default() -> Self {
        ScanCache::new()
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
    use rhsd_layout::synth::CaseSpec;
    use rhsd_layout::RasterSpec;

    /// A blank one-pixel sample: cheap enough to fill the cache with.
    fn blank() -> RegionSample {
        let window = Rect::new(0, 0, 1, 1);
        RegionSample {
            image: Tensor::zeros([1, 1, 1]),
            window,
            spec: RasterSpec::new(window, 1, 1),
            gt_clips: Vec::new(),
            gt_centers: Vec::new(),
        }
    }

    fn origin(i: usize) -> Point {
        Point::new(i as i64, 0)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_stem_replay_reproduces_the_computed_bits() {
        let mut cfg = RhsdConfig::tiny();
        cfg.region_px = 128;
        let net = RhsdNetwork::new(cfg, &mut ChaCha8Rng::seed_from_u64(90));
        let bench = Benchmark::demo(CaseId::Case2);
        let (extent, region) = (bench.test_extent, RegionConfig::demo());
        let cache = ScanCache::new();
        let tiles = cache.tiles(&bench, &extent, &region);
        let tile = &tiles[0];

        let computed = bits(cache.stem(tile, |x| net.extractor().forward_stem(x)));
        let again = cache.tiles(&bench, &extent, &region);
        assert!(Arc::ptr_eq(tile, &again[0]), "the rescan reuses the tile");
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
    fn the_bound_evicts_the_oldest_tile() {
        let cache = ScanCache::new();
        for i in 0..=CAPACITY {
            cache.tile(CaseId::Case2, origin(i), blank);
        }
        assert_eq!(cache.lock().map.len(), CAPACITY);
        cache.tile(CaseId::Case2, origin(CAPACITY), || {
            unreachable!("newest stays")
        });
        cache.tile(CaseId::Case2, origin(1), || {
            unreachable!("second-oldest stays")
        });
        assert_eq!(cache.tile_misses(), CAPACITY as u64 + 1);
        cache.tile(CaseId::Case2, origin(0), blank);
        assert_eq!(
            cache.tile_misses(),
            CAPACITY as u64 + 2,
            "oldest was evicted"
        );
        assert_eq!(cache.tile_hits(), 2);
    }

    #[test]
    fn the_bound_holds_every_tile_a_server_scans() {
        // A server scans both halves of the four cases at one scale; the
        // halves split each layout extent at its middle column.
        let distinct = |spec: fn(CaseId) -> CaseSpec, region: RegionConfig| -> usize {
            let cases = [CaseId::Case1, CaseId::Case2, CaseId::Case3, CaseId::Case4];
            cases
                .into_iter()
                .map(|id| {
                    let e = spec(id).extent;
                    let mid = (e.x0 + e.x1) / 2;
                    [
                        Rect::new(e.x0, e.y0, mid, e.y1),
                        Rect::new(mid, e.y0, e.x1, e.y1),
                    ]
                    .iter()
                    .map(|half| tile_origins(half, region.region_nm()).len())
                    .sum::<usize>()
                })
                .sum()
        };
        assert_eq!(distinct(CaseSpec::demo, RegionConfig::demo()), 144);
        assert_eq!(distinct(CaseSpec::full, RegionConfig::paper()), CAPACITY);
    }

    #[test]
    fn cases_do_not_share_tiles() {
        let cache = ScanCache::new();
        cache.tile(CaseId::Case2, origin(0), blank);
        cache.tile(CaseId::Case3, origin(0), blank);
        assert_eq!((cache.tile_hits(), cache.tile_misses()), (0, 2));
    }

    #[test]
    fn a_racing_second_set_keeps_the_first_value() {
        let cache = ScanCache::new();
        let tile = cache.tile(CaseId::Case2, origin(0), blank);
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

    #[test]
    fn a_second_pass_over_more_tiles_than_the_old_stem_bound_computes_no_stem() {
        // Row-major passes over every tile of the eight paper-scale scans:
        // a stem FIFO smaller than the pass (128 entries) evicts each stem
        // just before the next pass reaches it and never hits. Stems live
        // in their tiles, under the tile bound.
        let cache = ScanCache::new();
        let computed = AtomicU64::new(0);
        let forward_stem = |_: &Tensor| {
            computed.fetch_add(1, Ordering::Relaxed);
            Tensor::zeros([1])
        };
        for _pass in 0..2 {
            for i in 0..CAPACITY {
                let tile = cache.tile(CaseId::Case2, origin(i), blank);
                cache.stem(&tile, forward_stem);
            }
        }
        let n = CAPACITY as u64;
        assert_eq!(computed.load(Ordering::Relaxed), n);
        assert_eq!((cache.stem_hits(), cache.stem_misses()), (n, n));
        assert_eq!((cache.tile_hits(), cache.tile_misses()), (n, n));
    }
}
