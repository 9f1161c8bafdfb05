//! Workload inputs, all derived from the workload seed: the layouts the
//! layout workloads generate and the request schedules of `serve`.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rhsd_data::RegionSample;
use rhsd_layout::synth::{CaseId, CaseSpec, DesignRules, PatternProfile};
use rhsd_layout::Rect;
use rhsd_serve::Half;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Seed kept out of all tuning, for validating a later claim.
pub const HELD_OUT_SEED: u64 = 20_190_602;

/// Side of the scan workloads' square layouts, in nm (12×12 regions of
/// 1 280 nm at demo geometry).
pub const SCAN_EXTENT_NM: i64 = 15_360;

/// Metal density below which a region counts as low-density.
pub const LOW_DENSITY: f32 = 0.05;

/// Open-loop arrival rate of the `serve` workload, requests per second.
pub const OPEN_RATE: f64 = 1.5;

/// Connections the `serve` load uses.
pub const CONNECTIONS: usize = 2;

/// Every scan the server can answer: `{Case1..Case4} × {train, test}`.
pub const SCANS: [(CaseId, Half); 8] = [
    (CaseId::Case1, Half::Train),
    (CaseId::Case1, Half::Test),
    (CaseId::Case2, Half::Train),
    (CaseId::Case2, Half::Test),
    (CaseId::Case3, Half::Train),
    (CaseId::Case3, Half::Test),
    (CaseId::Case4, Half::Train),
    (CaseId::Case4, Half::Test),
];

/// SplitMix64 finaliser: spreads `seed` and a per-use `salt` into an
/// independent generator seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The dense scan layout: the Case3 profile on a 15 360 nm square.
pub fn dense_spec(seed: u64) -> CaseSpec {
    scan_spec(
        CaseId::Case3,
        PatternProfile {
            fill: 0.8,
            stress_rate: 0.12,
            neck_rate: 0.08,
            jog_rate: 0.2,
        },
        mix(seed, 1),
    )
}

/// The sparse scan layout: a low-fill profile on a 15 360 nm square.
pub fn sparse_spec(seed: u64) -> CaseSpec {
    scan_spec(
        CaseId::Case2,
        PatternProfile {
            fill: 0.2,
            stress_rate: 0.03,
            neck_rate: 0.03,
            jog_rate: 0.12,
        },
        mix(seed, 2),
    )
}

fn scan_spec(id: CaseId, profile: PatternProfile, seed: u64) -> CaseSpec {
    CaseSpec {
        id,
        extent: Rect::new(0, 0, SCAN_EXTENT_NM, SCAN_EXTENT_NM),
        rules: DesignRules::euv_metal(),
        profile,
        seed,
    }
}

/// The training layouts: the three evaluated demo cases (7 680 nm, the
/// Case2/3/4 profiles), each generated from its own seed.
pub fn train_specs(seed: u64) -> Vec<CaseSpec> {
    CaseId::EVALUATED
        .iter()
        .zip(10u64..)
        .map(|(&id, salt)| {
            let mut spec = CaseSpec::demo(id);
            spec.seed = mix(seed, salt);
            spec
        })
        .collect()
}

/// One open-loop request: when it is due (seconds after the loop
/// starts), the connection it goes out on, and what it scans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheduled {
    /// Due time, seconds from the start of the loop.
    pub due_s: f64,
    /// Connection index.
    pub conn: usize,
    /// Index into [`SCANS`].
    pub scan: usize,
}

/// `len` indices into [`SCANS`] drawn from `rng`.
fn draw_scans(rng: &mut ChaCha8Rng, len: usize) -> Vec<usize> {
    (0..len).map(|_| rng.gen_range(0..SCANS.len())).collect()
}

/// Poisson arrivals at `rate` per second for `duration_s` seconds,
/// dealt round-robin over [`CONNECTIONS`], each scanning a case and half
/// drawn from the seed.
pub fn open_schedule(seed: u64, rate: f64, duration_s: f64) -> Vec<Scheduled> {
    let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, 100));
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= duration_s {
            break;
        }
        due.push(t);
    }
    let scans = draw_scans(&mut rng, due.len());
    due.into_iter()
        .zip(scans)
        .enumerate()
        .map(|(i, (due_s, scan))| Scheduled {
            due_s,
            conn: i % CONNECTIONS,
            scan,
        })
        .collect()
}

/// The closed-loop scan sequence of connection `conn` (indices into
/// [`SCANS`]), long enough for any run.
pub fn closed_sequence(seed: u64, conn: usize, len: usize) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, 200 + conn as u64));
    draw_scans(&mut rng, len)
}

/// Mean metal coverage of a region raster.
pub fn density(sample: &RegionSample) -> f32 {
    let px = sample.image.as_slice();
    px.iter().sum::<f32>() / px.len().max(1) as f32
}

/// Region counts behind `data.low_density_frac` and `data.quiet_frac`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RegionMix {
    /// Regions.
    pub regions: usize,
    /// Regions under [`LOW_DENSITY`] metal.
    pub low_density: usize,
    /// Regions with no ground-truth hotspot.
    pub quiet: usize,
    /// Ground-truth hotspots over all regions.
    pub hotspots: usize,
}

impl RegionMix {
    /// Counts over `samples`.
    pub fn of<'a>(samples: impl IntoIterator<Item = &'a RegionSample>) -> RegionMix {
        let mut mix = RegionMix::default();
        for s in samples {
            mix.regions += 1;
            mix.low_density += usize::from(density(s) < LOW_DENSITY);
            mix.quiet += usize::from(s.gt_centers.is_empty());
            mix.hotspots += s.gt_centers.len();
        }
        mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhsd_layout::METAL1;

    #[test]
    fn same_seed_same_layouts_other_seed_other_layouts() {
        for spec in [dense_spec, sparse_spec] {
            let (a, _) = spec(7).build();
            let (b, _) = spec(7).build();
            let (c, _) = spec(8).build();
            assert_eq!(a.shapes(METAL1), b.shapes(METAL1));
            assert_ne!(a.shapes(METAL1), c.shapes(METAL1));
        }
        let a: Vec<_> = train_specs(7).iter().map(|s| s.build().0).collect();
        let b: Vec<_> = train_specs(7).iter().map(|s| s.build().0).collect();
        let c: Vec<_> = train_specs(8).iter().map(|s| s.build().0).collect();
        for i in 0..3 {
            assert_eq!(a[i].shapes(METAL1), b[i].shapes(METAL1));
            assert_ne!(a[i].shapes(METAL1), c[i].shapes(METAL1));
        }
    }

    #[test]
    fn scan_layouts_keep_their_size_and_profile() {
        let dense = dense_spec(1);
        let sparse = sparse_spec(1);
        assert_eq!(
            dense.extent,
            Rect::new(0, 0, SCAN_EXTENT_NM, SCAN_EXTENT_NM)
        );
        assert_eq!(sparse.extent, dense.extent);
        assert!(sparse.profile.fill < dense.profile.fill);
        assert_eq!(train_specs(1).len(), 3);
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = open_schedule(7, OPEN_RATE, 30.0);
        assert_eq!(a, open_schedule(7, OPEN_RATE, 30.0));
        assert_ne!(a, open_schedule(8, OPEN_RATE, 30.0));
        assert_eq!(closed_sequence(7, 0, 50), closed_sequence(7, 0, 50));
        assert_ne!(closed_sequence(7, 0, 50), closed_sequence(8, 0, 50));
        assert_ne!(closed_sequence(7, 0, 50), closed_sequence(7, 1, 50));
    }

    #[test]
    fn schedule_is_poisson_at_the_rate_and_round_robin() {
        let s = open_schedule(3, OPEN_RATE, 1_000.0);
        // Poisson count: mean = variance = rate × time; allow 5 sigma.
        let mean = OPEN_RATE * 1_000.0;
        let n = s.len() as f64;
        assert!(
            (n - mean).abs() < 5.0 * mean.sqrt(),
            "{n} arrivals, {mean} expected"
        );
        assert!(s.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(s.iter().enumerate().all(|(i, r)| r.conn == i % CONNECTIONS));
        for scan in 0..SCANS.len() {
            let k = s.iter().filter(|r| r.scan == scan).count() as f64;
            assert!(
                (k - n / 8.0).abs() < 5.0 * (n / 8.0).sqrt(),
                "scan {scan} drawn {k} times"
            );
        }
    }
}
