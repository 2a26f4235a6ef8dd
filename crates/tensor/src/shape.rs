use std::fmt;

use crate::error::TensorError;

/// An NHWC tensor shape (batch, height, width, channels).
///
/// All feature maps in the workspace use NHWC layout, matching the layout
/// used by TFLite-Micro and CMSIS-NN on Cortex-M devices.
///
/// # Example
///
/// ```
/// use quantmcu_tensor::Shape;
///
/// let s = Shape::new(1, 4, 4, 8);
/// assert_eq!(s.len(), 128);
/// assert_eq!(s.index(0, 1, 2, 3), 1 * 4 * 8 + 2 * 8 + 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Batch size.
    pub n: usize,
    /// Spatial height.
    pub h: usize,
    /// Spatial width.
    pub w: usize,
    /// Channel count.
    pub c: usize,
}

impl Shape {
    /// Creates a new NHWC shape.
    pub fn new(n: usize, h: usize, w: usize, c: usize) -> Self {
        Shape { n, h, w, c }
    }

    /// A shape with batch 1, convenience for single-image feature maps.
    pub fn hwc(h: usize, w: usize, c: usize) -> Self {
        Shape::new(1, h, w, c)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.n * self.h * self.w * self.c
    }

    /// `true` when the shape contains no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of elements per batch item.
    pub fn per_sample(&self) -> usize {
        self.h * self.w * self.c
    }

    /// Flat index of `(n, y, x, c)` in NHWC order.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any coordinate is out of bounds.
    #[inline]
    pub fn index(&self, n: usize, y: usize, x: usize, c: usize) -> usize {
        debug_assert!(n < self.n && y < self.h && x < self.w && c < self.c);
        ((n * self.h + y) * self.w + x) * self.c + c
    }

    /// The full spatial region covered by this shape.
    pub fn full_region(&self) -> Region {
        Region::new(0, 0, self.h, self.w)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}x{}", self.n, self.h, self.w, self.c)
    }
}

/// A spatial crop (patch) of a feature map: rows `[y, y + h)`, columns
/// `[x, x + w)` across all channels and batch items.
///
/// Regions are the unit of patch-based inference: the patch grid splits a
/// feature map into regions, and receptive-field propagation maps an output
/// region to the input region (with halo) needed to compute it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// Top row (inclusive).
    pub y: usize,
    /// Left column (inclusive).
    pub x: usize,
    /// Height in rows.
    pub h: usize,
    /// Width in columns.
    pub w: usize,
}

impl Region {
    /// Creates a region at `(y, x)` with extent `h`×`w`.
    pub fn new(y: usize, x: usize, h: usize, w: usize) -> Self {
        Region { y, x, h, w }
    }

    /// Number of spatial positions covered.
    pub fn area(&self) -> usize {
        self.h * self.w
    }

    /// Exclusive bottom row.
    pub fn y_end(&self) -> usize {
        self.y + self.h
    }

    /// Exclusive right column.
    pub fn x_end(&self) -> usize {
        self.x + self.w
    }

    /// Checks the region fits inside a feature map of spatial size `h`×`w`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RegionOutOfBounds`] when the region extends
    /// past either spatial bound.
    pub fn check_within(&self, h: usize, w: usize) -> Result<(), TensorError> {
        if self.y_end() > h || self.x_end() > w {
            Err(TensorError::RegionOutOfBounds {
                region: (self.y, self.x, self.h, self.w),
                bounds: (h, w),
            })
        } else {
            Ok(())
        }
    }

    /// The overlap between two regions, or `None` when disjoint.
    pub fn intersect(&self, other: &Region) -> Option<Region> {
        let y0 = self.y.max(other.y);
        let x0 = self.x.max(other.x);
        let y1 = self.y_end().min(other.y_end());
        let x1 = self.x_end().min(other.x_end());
        if y0 < y1 && x0 < x1 {
            Some(Region::new(y0, x0, y1 - y0, x1 - x0))
        } else {
            None
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[y={}..{}, x={}..{}]", self.y, self.y_end(), self.x, self.x_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_nhwc_row_major() {
        let s = Shape::new(2, 3, 4, 5);
        assert_eq!(s.index(0, 0, 0, 0), 0);
        assert_eq!(s.index(0, 0, 0, 4), 4);
        assert_eq!(s.index(0, 0, 1, 0), 5);
        assert_eq!(s.index(0, 1, 0, 0), 20);
        assert_eq!(s.index(1, 0, 0, 0), 60);
        assert_eq!(s.index(1, 2, 3, 4), s.len() - 1);
    }

    #[test]
    fn region_bounds_check() {
        let r = Region::new(1, 1, 3, 3);
        assert!(r.check_within(4, 4).is_ok());
        assert!(r.check_within(3, 4).is_err());
        assert!(r.check_within(4, 3).is_err());
    }

    #[test]
    fn region_intersection() {
        let a = Region::new(0, 0, 4, 4);
        let b = Region::new(2, 2, 4, 4);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, Region::new(2, 2, 2, 2));
        let c = Region::new(4, 4, 2, 2);
        assert!(a.intersect(&c).is_none());
        // Intersection is symmetric.
        assert_eq!(a.intersect(&b), b.intersect(&a));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Shape::new(1, 2, 3, 4).to_string(), "1x2x3x4");
        assert_eq!(Region::new(0, 1, 2, 3).to_string(), "[y=0..2, x=1..4]");
    }

    #[test]
    fn empty_shape() {
        assert!(Shape::new(1, 0, 3, 4).is_empty());
        assert!(!Shape::new(1, 1, 1, 1).is_empty());
    }
}
