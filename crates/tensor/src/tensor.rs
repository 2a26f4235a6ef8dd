use std::fmt;

use crate::error::TensorError;
use crate::shape::{Region, Shape};

/// A dense `f32` tensor in NHWC layout.
///
/// This is the full-precision feature-map representation used for
/// calibration, the float reference executor, and entropy estimation.
///
/// # Example
///
/// ```
/// use quantmcu_tensor::{Shape, Tensor};
///
/// let t = Tensor::from_fn(Shape::hwc(2, 2, 1), |i| i as f32);
/// assert_eq!(t.at(0, 1, 1, 0), 3.0);
/// assert_eq!(t.data().len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(shape: Shape) -> Self {
        Tensor { shape, data: vec![0.0; shape.len()] }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        Tensor { shape, data: vec![value; shape.len()] }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the buffer length does not
    /// equal `shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != shape.len() {
            return Err(TensorError::ShapeMismatch { expected: shape.len(), actual: data.len() });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor by evaluating `f` at each flat NHWC index.
    pub fn from_fn(shape: Shape, f: impl FnMut(usize) -> f32) -> Self {
        let data = (0..shape.len()).map(f).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Read-only view of the backing buffer in NHWC order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer in NHWC order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Value at `(n, y, x, c)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when a coordinate is out of bounds.
    #[inline]
    pub fn at(&self, n: usize, y: usize, x: usize, c: usize) -> f32 {
        self.data[self.shape.index(n, y, x, c)]
    }

    /// Sets the value at `(n, y, x, c)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when a coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, n: usize, y: usize, x: usize, c: usize, v: f32) {
        let i = self.shape.index(n, y, x, c);
        self.data[i] = v;
    }

    /// Extracts the spatial crop `region` (all batch items and channels).
    ///
    /// This is the patch-extraction primitive of the patch-based inference
    /// engine.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RegionOutOfBounds`] when `region` extends past
    /// the spatial bounds.
    pub fn crop(&self, region: Region) -> Result<Tensor, TensorError> {
        // Validate before sizing the output: a bogus region must error,
        // not drive a huge zero-fill allocation.
        region.check_within(self.shape.h, self.shape.w)?;
        let Shape { n, h, w, c } = self.shape;
        let mut data = Vec::with_capacity(n * region.h * region.w * c);
        for b in 0..n {
            for y in region.y..region.y_end() {
                let start = ((b * h + y) * w + region.x) * c;
                data.extend_from_slice(&self.data[start..start + region.w * c]);
            }
        }
        Ok(Tensor { shape: Shape::new(n, region.h, region.w, c), data })
    }

    /// Copies the spatial region `region` of `src` (all batch items and
    /// channels) into the same region of `self`, leaving the rest of
    /// `self` untouched — how patch outputs are stitched into one map.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ, or
    /// [`TensorError::RegionOutOfBounds`] when `region` does not fit.
    pub fn copy_region(&mut self, src: &Tensor, region: Region) -> Result<(), TensorError> {
        if src.shape != self.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.len(),
                actual: src.shape.len(),
            });
        }
        region.check_within(self.shape.h, self.shape.w)?;
        let Shape { h, w, c, .. } = self.shape;
        let run = region.w * c;
        for n in 0..self.shape.n {
            for y in region.y..region.y_end() {
                let start = ((n * h + y) * w + region.x) * c;
                self.data[start..start + run].copy_from_slice(&src.data[start..start + run]);
            }
        }
        Ok(())
    }

    /// Returns a new tensor with `f` applied elementwise.
    pub fn map(&self, f: impl FnMut(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape, data: self.data.iter().copied().map(f).collect() }
    }

    /// Index of the largest value in batch item `n` (over `h*w*c`).
    ///
    /// Returns `None` for empty tensors. Ties resolve to the first maximum,
    /// which keeps classification results deterministic.
    pub fn argmax(&self, n: usize) -> Option<usize> {
        let per = self.shape.per_sample();
        if per == 0 {
            return None;
        }
        let slice = &self.data[n * per..(n + 1) * per];
        let mut best = 0;
        for (i, &v) in slice.iter().enumerate() {
            if v > slice[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Indices of the `k` largest values in batch item `n`, descending.
    pub fn top_k(&self, n: usize, k: usize) -> Vec<usize> {
        let per = self.shape.per_sample();
        let slice = &self.data[n * per..(n + 1) * per];
        let mut idx: Vec<usize> = (0..per).collect();
        idx.sort_by(|&a, &b| slice[b].partial_cmp(&slice[a]).unwrap_or(std::cmp::Ordering::Equal));
        idx.truncate(k);
        idx
    }

    /// Mean absolute difference against another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn mean_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "mean_abs_diff requires equal shapes");
        if self.data.is_empty() {
            return 0.0;
        }
        let sum: f32 = self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).sum();
        sum / self.data.len() as f32
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}, {} elems)", self.shape, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(shape: Shape) -> Tensor {
        Tensor::from_fn(shape, |i| i as f32)
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(Shape::hwc(2, 2, 1), vec![0.0; 4]).is_ok());
        assert!(Tensor::from_vec(Shape::hwc(2, 2, 1), vec![0.0; 5]).is_err());
    }

    #[test]
    fn crop_extracts_expected_values() {
        let t = seq(Shape::hwc(4, 4, 2));
        let c = t.crop(Region::new(1, 1, 2, 2)).unwrap();
        assert_eq!(c.shape(), Shape::hwc(2, 2, 2));
        assert_eq!(c.at(0, 0, 0, 0), t.at(0, 1, 1, 0));
        assert_eq!(c.at(0, 1, 1, 1), t.at(0, 2, 2, 1));
        // Every batch item, row and channel lands in place.
        let t = seq(Shape::new(2, 5, 4, 3));
        let c = t.crop(Region::new(1, 2, 3, 2)).unwrap();
        assert_eq!(c.shape(), Shape::new(2, 3, 2, 3));
        for n in 0..2 {
            for y in 0..3 {
                for x in 0..2 {
                    for ch in 0..3 {
                        assert_eq!(c.at(n, y, x, ch), t.at(n, 1 + y, 2 + x, ch));
                    }
                }
            }
        }
    }

    #[test]
    fn crop_out_of_bounds_fails() {
        let t = seq(Shape::hwc(4, 4, 1));
        assert!(t.crop(Region::new(3, 0, 2, 1)).is_err());
    }

    #[test]
    fn copy_region_copies_only_the_region() {
        let src = seq(Shape::new(2, 4, 4, 3));
        let region = Region::new(1, 2, 3, 2);
        let mut out = Tensor::full(src.shape(), -1.0);
        out.copy_region(&src, region).unwrap();
        for n in 0..2 {
            for y in 0..4 {
                for x in 0..4 {
                    let inside = (1..4).contains(&y) && (2..4).contains(&x);
                    for ch in 0..3 {
                        let expected = if inside { src.at(n, y, x, ch) } else { -1.0 };
                        assert_eq!(out.at(n, y, x, ch), expected);
                    }
                }
            }
        }
    }

    #[test]
    fn copy_region_rejects_wrong_shapes() {
        let src = seq(Shape::hwc(4, 4, 3));
        let mut out = Tensor::zeros(src.shape());
        assert!(out.copy_region(&src, Region::new(2, 0, 3, 1)).is_err());
        assert!(out
            .copy_region(&Tensor::zeros(Shape::hwc(4, 3, 3)), Region::new(0, 0, 2, 2))
            .is_err());
    }

    #[test]
    fn argmax_and_top_k() {
        let t =
            Tensor::from_vec(Shape::new(2, 1, 1, 3), vec![0.1, 0.9, 0.3, 5.0, -1.0, 2.0]).unwrap();
        assert_eq!(t.argmax(0), Some(1));
        assert_eq!(t.argmax(1), Some(0));
        assert_eq!(t.top_k(0, 2), vec![1, 2]);
        assert_eq!(t.top_k(1, 3), vec![0, 2, 1]);
    }

    #[test]
    fn argmax_prefers_first_on_ties() {
        let t = Tensor::from_vec(Shape::new(1, 1, 1, 3), vec![1.0, 1.0, 1.0]).unwrap();
        assert_eq!(t.argmax(0), Some(0));
    }

    #[test]
    fn mean_abs_diff_zero_for_identical() {
        let t = seq(Shape::hwc(3, 3, 1));
        assert_eq!(t.mean_abs_diff(&t), 0.0);
        let u = t.map(|v| v + 1.0);
        assert!((t.mean_abs_diff(&u) - 1.0).abs() < 1e-6);
    }
}
