//! Process-window exploration: Bossung-style CD analysis of the geometry
//! classes the benchmarks contain — why tight gaps and narrow necks are
//! hotspots and nominal geometry is not.
//!
//! Run with: `cargo run --release --example process_window`

#![expect(clippy::print_stdout, reason = "an example prints its results")]

use rhsd::litho::cd::{measure_cd, process_window_cd, Cut};
use rhsd::litho::{simulate_print, ProcessWindow};
use rhsd::tensor::Tensor;

/// A horizontal wire of `width_px` pixels in a 64×64 raster.
fn wire(width_px: usize) -> Tensor {
    let y0 = 32 - width_px / 2;
    Tensor::from_fn([1, 64, 64], |c| {
        if c[1] >= y0 && c[1] < y0 + width_px {
            1.0
        } else {
            0.0
        }
    })
}

/// Two wire tips separated by `gap_px` pixels.
fn tip_to_tip(gap_px: usize) -> Tensor {
    Tensor::from_fn([1, 64, 64], |c| {
        let in_wire_band = c[1] >= 30 && c[1] < 34;
        let in_gap = c[2] >= 32 - gap_px / 2 && c[2] < 32 - gap_px / 2 + gap_px;
        if in_wire_band && !in_gap {
            1.0
        } else {
            0.0
        }
    })
}

fn main() {
    let pw = ProcessWindow::euv_default();
    const NM_PER_PX: f64 = 10.0;

    println!("== Wire CD through the process window (drawn width sweep) ==");
    println!(
        "{:>10} {:>24} {:>24} {:>24}",
        "drawn", "overexpose", "nominal", "underexpose"
    );
    for width_px in [2usize, 3, 4, 6] {
        let rows = process_window_cd(&wire(width_px), Cut::Vertical { x: 32 }, 32, &pw, NM_PER_PX);
        let fmt = |name: &str| {
            rows.iter()
                .find(|r| r.corner.starts_with(name))
                .map(|r| match r.cd_nm {
                    Some(cd) => format!("{cd:.0} nm"),
                    None => "VANISHED".to_owned(),
                })
                .unwrap_or_default()
        };
        println!(
            "{:>8}nm {:>24} {:>24} {:>24}",
            width_px * 10,
            fmt("overexpose"),
            fmt("nominal"),
            fmt("underexpose"),
        );
    }

    println!("\n== Tip-to-tip gap survival (bridge check) ==");
    println!(
        "{:>10} {:>16} {:>16} {:>16}",
        "drawn gap", "overexpose", "nominal", "underexpose"
    );
    for gap_px in [2usize, 3, 6, 10] {
        let design = tip_to_tip(gap_px);
        let mut cols = Vec::new();
        for corner in pw.all_corners() {
            let printed = simulate_print(&design, &corner, NM_PER_PX);
            // the gap survives if the centre of the gap is NOT printed
            let bridged = measure_cd(&printed, Cut::Horizontal { y: 32 }, 32).is_some();
            cols.push(if bridged { "BRIDGED" } else { "open" });
        }
        println!(
            "{:>8}nm {:>16} {:>16} {:>16}",
            gap_px * 10,
            cols[1], // overexpose
            cols[0], // nominal
            cols[2], // underexpose
        );
    }

    println!(
        "\nThe hotspot ground truth of every benchmark comes from exactly\n\
         this physics: geometry whose printed connectivity flips at some\n\
         corner of the window is labelled a hotspot."
    );
}
