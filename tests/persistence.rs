//! Model persistence across the full stack: a trained detector survives a
//! save/load roundtrip with identical behaviour on real benchmark data.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rhsd::core::persist::{load_from_reader, save_to_writer};
use rhsd::core::{RegionDetector, RhsdConfig, RhsdNetwork, TrainConfig};
use rhsd::data::{train_regions, Benchmark, RegionConfig};
use rhsd::layout::synth::CaseId;

#[test]
fn trained_model_roundtrips_through_json() {
    let bench = Benchmark::demo(CaseId::Case2);
    let region_cfg = RegionConfig::demo();
    let regions: Vec<_> = train_regions(&bench, &region_cfg)
        .into_iter()
        .filter(|r| !r.gt_clips.is_empty())
        .take(2)
        .collect();

    let mut cfg = RhsdConfig::tiny();
    cfg.region_px = region_cfg.region_px;
    cfg.clip_px = region_cfg.clip_px;
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut net = RhsdNetwork::new(cfg, &mut rng);
    let mut tc = TrainConfig::tiny();
    tc.epochs = 1;
    rhsd::core::train(&mut net, &regions, &tc);

    let mut buf = Vec::new();
    save_to_writer(&net, &mut buf).expect("save");
    let restored = load_from_reader(buf.as_slice()).expect("load");

    let a = RegionDetector::new(net, region_cfg);
    let b = RegionDetector::new(restored, region_cfg);
    for r in &regions {
        let (da, ea) = a.detect_region(r);
        let (db, eb) = b.detect_region(r);
        assert_eq!(ea, eb, "metrics must match after restore");
        assert_eq!(da.len(), db.len());
        for (x, y) in da.iter().zip(db.iter()) {
            assert!((x.score - y.score).abs() < 1e-6);
            assert!((x.bbox.cx - y.bbox.cx).abs() < 1e-4);
        }
    }
}
