//! Geometric augmentation of region samples.
//!
//! Layout patterns are orientation-meaningful but mirror-symmetric in
//! printability, so flips are label-preserving augmentations: the image is
//! flipped and every ground-truth clip is flipped with it.

use rhsd_tensor::Tensor;

use crate::bbox::BBox;
use crate::region::RegionSample;

/// An axis flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flip {
    /// Mirror left–right.
    Horizontal,
    /// Mirror top–bottom.
    Vertical,
}

/// Flips a `[C, H, W]` tensor.
///
/// # Panics
///
/// Panics if `image` is not rank 3.
pub fn flip_image(image: &Tensor, flip: Flip) -> Tensor {
    assert_eq!(
        image.rank(),
        3,
        "flip expects [C,H,W], got {}",
        image.shape()
    );
    let (c, h, w) = (image.dim(0), image.dim(1), image.dim(2));
    Tensor::from_fn([c, h, w], |idx| match flip {
        Flip::Horizontal => image.get(&[idx[0], idx[1], w - 1 - idx[2]]),
        Flip::Vertical => image.get(&[idx[0], h - 1 - idx[1], idx[2]]),
    })
}

/// Flips a box within a raster of the given size.
pub fn flip_bbox(b: &BBox, flip: Flip, width: f32, height: f32) -> BBox {
    match flip {
        Flip::Horizontal => BBox::new(width - b.cx, b.cy, b.w, b.h),
        Flip::Vertical => BBox::new(b.cx, height - b.cy, b.w, b.h),
    }
}

/// Produces the flipped version of a region sample (window and spec keep
/// referring to the original layout location; only raster-space content
/// and labels are flipped).
pub fn flip_region(sample: &RegionSample, flip: Flip) -> RegionSample {
    let h = sample.image.dim(1) as f32;
    let w = sample.image.dim(2) as f32;
    RegionSample {
        image: flip_image(&sample.image, flip),
        window: sample.window,
        spec: sample.spec,
        gt_clips: sample
            .gt_clips
            .iter()
            .map(|b| flip_bbox(b, flip, w, h))
            .collect(),
        gt_centers: sample
            .gt_centers
            .iter()
            .map(|&(x, y)| match flip {
                Flip::Horizontal => (w - x, y),
                Flip::Vertical => (x, h - y),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_flip_restores_the_image() {
        let img = Tensor::from_fn([1, 4, 6], |c| (c[1] * 6 + c[2]) as f32);
        for f in [Flip::Horizontal, Flip::Vertical] {
            assert_eq!(flip_image(&flip_image(&img, f), f), img);
        }
    }

    #[test]
    fn horizontal_flip_mirrors_columns() {
        let img = Tensor::from_fn([1, 1, 4], |c| c[2] as f32);
        let f = flip_image(&img, Flip::Horizontal);
        assert_eq!(f.as_slice(), &[3., 2., 1., 0.]);
    }

    #[test]
    fn bbox_flip_tracks_image_flip() {
        // put a marker pixel, flip, and check the flipped bbox covers it
        let mut img = Tensor::zeros([1, 8, 8]);
        img.set(&[0, 2, 6], 1.0);
        let b = BBox::new(6.5, 2.5, 1.0, 1.0);
        assert!(b.contains(6.5, 2.5));
        let fi = flip_image(&img, Flip::Horizontal);
        let fb = flip_bbox(&b, Flip::Horizontal, 8.0, 8.0);
        // marker moved to x=1
        assert_eq!(fi.get(&[0, 2, 1]), 1.0);
        assert!(fb.contains(1.5, 2.5));
    }

    #[test]
    fn flip_preserves_box_size_and_iou_structure() {
        let a = BBox::new(3.0, 3.0, 2.0, 4.0);
        let b = BBox::new(4.0, 3.0, 2.0, 4.0);
        let fa = flip_bbox(&a, Flip::Vertical, 10.0, 10.0);
        let fb = flip_bbox(&b, Flip::Vertical, 10.0, 10.0);
        assert_eq!(fa.w, a.w);
        assert_eq!(fa.h, a.h);
        assert!((a.iou(&b) - fa.iou(&fb)).abs() < 1e-6);
    }
}
