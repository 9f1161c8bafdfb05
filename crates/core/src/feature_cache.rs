//! Stem-activation memoisation: the incremental half of the region scan.
//!
//! The extractor's stem (encoder–decoder + compressing convolutions, see
//! [`crate::FeatureExtractor::forward_stem`]) is a pure function of the
//! region raster and the stem weights. When the same raster is scanned
//! again with unchanged weights — a detector re-evaluated on a case, a
//! layout with repeating (often empty) tiles, diagnostics re-running a
//! region — the stem convolutions are the same arithmetic on the same
//! bits. [`StemFeatureCache`] memoises that work: entries are keyed by a
//! fingerprint of the raster *content* and guarded by the owning
//! network's identity and weights version, so a hit can only ever replay
//! activations the current weights would recompute.
//!
//! ## Determinism and safety
//!
//! - A hit returns the stored stem tensor, which carries exactly the bits
//!   a fresh `forward_stem` would produce; `forward_rest` then runs the
//!   identical remaining layer sequence. Cached and uncached detection
//!   are bit-identical.
//! - The fingerprint is a 64-bit FNV-1a hash of the raster bits; to rule
//!   out collisions entirely, each entry also stores its raster and a hit
//!   requires bit equality. A colliding image can therefore never replay
//!   the wrong activations.
//! - Entries are invalidated by construction: the key embeds
//!   `(network identity, weights version)`, both of which change whenever
//!   a different network (or freshly-updated weights) queries the cache.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rhsd_tensor::Tensor;

/// Default entry capacity: a few scans' worth of demo-scale regions.
pub const DEFAULT_STEM_CACHE_CAP: usize = 128;

/// Cache key: owning network identity, its weights version, and the
/// FNV-1a fingerprint of the input raster bits.
type StemKey = (u64, u64, u64);

struct StemEntry {
    /// The raster that produced the activations (collision guard).
    image: Tensor,
    /// The stem output to replay.
    stem: Arc<Tensor>,
}

struct StemCacheInner {
    map: BTreeMap<StemKey, StemEntry>,
    order: VecDeque<StemKey>,
}

/// A bounded, thread-safe memo of stem activations. See the module docs
/// for keying and safety; used via
/// [`crate::RhsdNetwork::detect_cached`].
pub struct StemFeatureCache {
    inner: Mutex<StemCacheInner>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl StemFeatureCache {
    /// Creates a cache holding at most `cap` entries (FIFO eviction).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "stem cache capacity must be positive");
        StemFeatureCache {
            inner: Mutex::new(StemCacheInner {
                map: BTreeMap::new(),
                order: VecDeque::new(),
            }),
            cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up the stem activations for `image` under the given network
    /// identity and weights version. Counts a miss when absent.
    ///
    /// Shapes: `image` is any raster tensor; shape participates in the
    /// fingerprint, so differently-shaped rasters never collide.
    pub fn get(&self, identity: u64, version: u64, image: &Tensor) -> Option<Arc<Tensor>> {
        let key = (identity, version, fingerprint(image));
        let mut found = None;
        {
            let g = lock(&self.inner);
            if let Some(e) = g.map.get(&key) {
                if bits_eq(&e.image, image) {
                    found = Some(Arc::clone(&e.stem));
                }
            }
        }
        match &found {
            Some(stem) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                rhsd_obs::counter("cache.stem_feature.hits", 1);
                rhsd_obs::counter("cache.stem_feature.bytes", stem.as_slice().len() as u64 * 4);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                rhsd_obs::counter("cache.stem_feature.misses", 1);
            }
        }
        found
    }

    /// Stores stem activations computed for `image`. Keeps the earlier
    /// entry if another thread raced the same key (both are identical).
    ///
    /// Shapes: `image` is the raster passed to `get`; `stem` is the stem
    /// activation map computed from it (any shapes).
    pub fn put(&self, identity: u64, version: u64, image: &Tensor, stem: Tensor) {
        let key = (identity, version, fingerprint(image));
        let mut g = lock(&self.inner);
        if g.map.contains_key(&key) {
            return;
        }
        g.map.insert(
            key,
            StemEntry {
                image: image.clone(),
                stem: Arc::new(stem),
            },
        );
        g.order.push_back(key);
        while g.order.len() > self.cap {
            if let Some(old) = g.order.pop_front() {
                g.map.remove(&old);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                rhsd_obs::counter("cache.stem_feature.evictions", 1);
            }
        }
    }

    /// Number of cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of entries evicted by the FIFO bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of entries currently resident.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn lock(m: &Mutex<StemCacheInner>) -> std::sync::MutexGuard<'_, StemCacheInner> {
    // no invariants span a panic — recover the data
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// FNV-1a-64 offset basis: the hash of no input.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a-64 step: folds `word` into the running hash `h`. A step is
/// a bijection on `h` for a fixed `word` and on `word` for a fixed `h`,
/// so changing any one input word always changes the final hash.
pub(crate) fn fnv1a(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// FNV-1a over the raster's shape and element bits.
fn fingerprint(image: &Tensor) -> u64 {
    let dims = image.dims().iter().map(|&d| d as u64);
    let bits = image.as_slice().iter().map(|v| u64::from(v.to_bits()));
    dims.chain(bits).fold(FNV_OFFSET, fnv1a)
}

/// Bit-exact tensor equality (shape and element bits).
fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(seed: f32) -> Tensor {
        Tensor::from_fn([1, 4, 4], |c| seed + (c[1] * 4 + c[2]) as f32)
    }

    #[test]
    fn put_then_get_round_trips() {
        let cache = StemFeatureCache::new(8);
        let x = img(0.0);
        assert!(cache.get(1, 0, &x).is_none());
        cache.put(1, 0, &x, Tensor::full([2, 2, 2], 3.0));
        let hit = cache.get(1, 0, &x).expect("stored entry");
        assert_eq!(hit.as_slice(), &[3.0; 8]);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn version_and_identity_partition_entries() {
        let cache = StemFeatureCache::new(8);
        let x = img(1.0);
        cache.put(1, 0, &x, Tensor::full([1], 1.0));
        assert!(cache.get(1, 1, &x).is_none(), "new weights, no replay");
        assert!(cache.get(2, 0, &x).is_none(), "other network, no replay");
        assert!(cache.get(1, 0, &x).is_some());
    }

    #[test]
    fn differing_content_never_hits() {
        let cache = StemFeatureCache::new(8);
        cache.put(1, 0, &img(0.0), Tensor::full([1], 1.0));
        assert!(cache.get(1, 0, &img(5.0)).is_none());
    }

    #[test]
    fn fifo_eviction_bounds_residency() {
        let cache = StemFeatureCache::new(2);
        for i in 0..5 {
            cache.put(1, 0, &img(i as f32), Tensor::full([1], i as f32));
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1, 0, &img(4.0)).is_some(), "newest survives");
        assert!(cache.get(1, 0, &img(0.0)).is_none(), "oldest evicted");
    }

    #[test]
    fn negative_zero_rasters_are_distinct() {
        // fingerprints and the equality guard work on bits, not values
        let pz = Tensor::from_fn([1, 1, 2], |_| 0.0);
        let nz = Tensor::from_fn([1, 1, 2], |_| -0.0);
        let cache = StemFeatureCache::new(4);
        cache.put(1, 0, &pz, Tensor::full([1], 7.0));
        assert!(cache.get(1, 0, &nz).is_none());
    }
}
