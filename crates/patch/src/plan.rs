use quantmcu_nn::{GraphSpec, OpSpec};
use quantmcu_tensor::Region;

use crate::error::PatchError;

/// The largest node boundary `at` such that nodes `0..at` form a valid
/// per-patch stage: all-spatial operators (residual adds and concats
/// allowed) with no skip edge crossing the boundary — the maximal stage
/// the engine can use.
pub fn largest_straight_prefix(spec: &GraphSpec) -> usize {
    let mut best = 0;
    for at in 0..=spec.len() {
        if at > 0 {
            let op = spec.nodes()[at - 1].op;
            if matches!(op, OpSpec::Dense { .. } | OpSpec::GlobalAvgPool) {
                break;
            }
        }
        if spec.splittable_at(at) {
            best = at;
        }
    }
    best
}

/// A patch-based inference plan: where to split the network and how to
/// grid the stage output.
///
/// # Example
///
/// ```
/// use quantmcu_nn::GraphSpecBuilder;
/// use quantmcu_patch::PatchPlan;
/// use quantmcu_tensor::Shape;
///
/// let spec = GraphSpecBuilder::new(Shape::hwc(16, 16, 3))
///     .conv2d(8, 3, 2, 1)
///     .relu6()
///     .global_avg_pool()
///     .dense(10)
///     .build()?;
/// let plan = PatchPlan::new(&spec, 2, 2, 2)?;
/// assert_eq!(plan.patch_regions().len(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchPlan {
    split_at: usize,
    rows: usize,
    cols: usize,
    stage_out_h: usize,
    stage_out_w: usize,
}

impl PatchPlan {
    /// Creates a plan splitting `spec` at node boundary `split_at` with a
    /// `rows`×`cols` patch grid over the stage output.
    ///
    /// # Errors
    ///
    /// Returns [`PatchError::NotSplittable`] when the prefix is not a
    /// straight chain, and [`PatchError::GridTooFine`] when the grid has
    /// more cells than stage-output positions.
    pub fn new(
        spec: &GraphSpec,
        split_at: usize,
        rows: usize,
        cols: usize,
    ) -> Result<Self, PatchError> {
        if !spec.splittable_at(split_at) {
            return Err(PatchError::NotSplittable { at: split_at });
        }
        // Reject non-spatial ops inside the head.
        for node in &spec.nodes()[..split_at] {
            if matches!(node.op, OpSpec::Dense { .. } | OpSpec::GlobalAvgPool) {
                return Err(PatchError::NotSplittable { at: split_at });
            }
        }
        let out = if split_at == 0 { spec.input_shape() } else { spec.node_shape(split_at - 1) };
        if rows == 0 || cols == 0 || rows > out.h || cols > out.w {
            return Err(PatchError::GridTooFine { rows, cols, out_h: out.h, out_w: out.w });
        }
        Ok(PatchPlan { split_at, rows, cols, stage_out_h: out.h, stage_out_w: out.w })
    }

    /// A plan using the deepest valid per-patch stage and a `grid`×`grid`
    /// patch grid. Deep stages maximize memory savings but maximize halo
    /// recomputation; prefer [`PatchPlan::fitted`] when an SRAM budget is
    /// known.
    ///
    /// # Errors
    ///
    /// Returns [`PatchError::GridTooFine`] when the stage output cannot
    /// host the grid.
    pub fn auto(spec: &GraphSpec, grid: usize) -> Result<Self, PatchError> {
        PatchPlan::new(spec, largest_straight_prefix(spec), grid, grid)
    }

    /// The QuantMCU split policy: a *deep* per-patch stage, so mixed
    /// precision has maximal scope. Picks the deepest valid boundary whose
    /// stage output still hosts the grid and has not downsampled past 1/8
    /// of the input (the regime MCUNetV2-family deployments patch to;
    /// deeper stages make every branch's receptive field cover the whole
    /// input).
    ///
    /// # Errors
    ///
    /// Returns [`PatchError::NotSplittable`] when no boundary satisfies
    /// the constraints.
    pub fn deep(spec: &GraphSpec, grid: usize) -> Result<Self, PatchError> {
        let min_stage = grid.max(spec.input_shape().h / 8);
        let deepest = largest_straight_prefix(spec);
        for at in (1..=deepest).rev() {
            if !spec.splittable_at(at) {
                continue;
            }
            let out = spec.node_shape(at - 1);
            if out.h < min_stage || out.w < min_stage {
                continue;
            }
            if let Ok(plan) = PatchPlan::new(spec, at, grid, grid) {
                return Ok(plan);
            }
        }
        Err(PatchError::NotSplittable { at: deepest })
    }

    /// The MCUNetV2 split policy: patch *only what must be patched*. Walks
    /// the valid boundaries from shallow to deep and returns the first
    /// plan whose uniform-8-bit peak memory fits `sram_bytes`; when none
    /// fits, returns the minimum-peak plan (the deployment simply exceeds
    /// the device, which Table I reports as-is).
    ///
    /// # Errors
    ///
    /// Returns [`PatchError::NotSplittable`] when the spec admits no
    /// per-patch stage hosting the grid at all.
    pub fn fitted(spec: &GraphSpec, grid: usize, sram_bytes: usize) -> Result<Self, PatchError> {
        let deepest = largest_straight_prefix(spec);
        let mut fallback: Option<(PatchPlan, usize)> = None;
        for at in 1..=deepest {
            if !spec.splittable_at(at) {
                continue;
            }
            let Ok(plan) = PatchPlan::new(spec, at, grid, grid) else { continue };
            let Ok(peak) = crate::memory::uniform8_peak(spec, &plan) else { continue };
            if peak <= sram_bytes {
                return Ok(plan);
            }
            match &fallback {
                Some((_, best)) if *best <= peak => {}
                _ => fallback = Some((plan, peak)),
            }
        }
        fallback.map(|(p, _)| p).ok_or(PatchError::NotSplittable { at: deepest })
    }

    /// The node boundary separating the per-patch stage from the tail.
    pub fn split_at(&self) -> usize {
        self.split_at
    }

    /// Patch grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Patch grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The `(height, width)` of the stage output the grid tiles.
    pub fn stage_size(&self) -> (usize, usize) {
        (self.stage_out_h, self.stage_out_w)
    }

    /// Number of dataflow branches (`rows × cols`).
    pub fn branch_count(&self) -> usize {
        self.rows * self.cols
    }

    /// The stage-output regions of all patches, row-major, tiling the stage
    /// output exactly (edge patches absorb the remainder).
    pub fn patch_regions(&self) -> Vec<Region> {
        grid_regions(self.stage_out_h, self.stage_out_w, self.rows, self.cols)
    }

    /// The *non-overlapping* input tiles of the patch grid: the `h`×`w`
    /// input feature map split by the same grid, row-major, aligned with
    /// [`PatchPlan::patch_regions`]. This is the "patch" of Fig. 1a / Fig. 3
    /// — what VDPC classifies — as opposed to the halo-expanded region a
    /// branch actually reads.
    pub fn input_tiles(&self, h: usize, w: usize) -> Vec<Region> {
        grid_regions(h, w, self.rows, self.cols)
    }
}

/// Splits an `h`×`w` plane into a `rows`×`cols` grid of exact tiles,
/// row-major; edge tiles absorb the remainder.
pub fn grid_regions(h: usize, w: usize, rows: usize, cols: usize) -> Vec<Region> {
    let ys = split_points(h, rows);
    let xs = split_points(w, cols);
    let mut regions = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            regions.push(Region::new(ys[r], xs[c], ys[r + 1] - ys[r], xs[c + 1] - xs[c]));
        }
    }
    regions
}

/// `parts + 1` cut points dividing `len` as evenly as possible.
fn split_points(len: usize, parts: usize) -> Vec<usize> {
    (0..=parts).map(|i| i * len / parts).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantmcu_nn::GraphSpecBuilder;
    use quantmcu_tensor::Shape;

    fn spec() -> GraphSpec {
        GraphSpecBuilder::new(Shape::hwc(16, 16, 3))
            .conv2d(8, 3, 2, 1) // 8x8
            .relu6()
            .conv2d(16, 3, 2, 1) // 4x4
            .global_avg_pool()
            .dense(10)
            .build()
            .unwrap()
    }

    #[test]
    fn regions_tile_exactly() {
        let plan = PatchPlan::new(&spec(), 3, 2, 2).unwrap();
        let regions = plan.patch_regions();
        assert_eq!(regions.len(), 4);
        let area: usize = regions.iter().map(Region::area).sum();
        assert_eq!(area, 4 * 4);
        // No pairwise overlap.
        for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                assert!(regions[i].intersect(&regions[j]).is_none());
            }
        }
    }

    #[test]
    fn uneven_grids_absorb_remainder() {
        let plan = PatchPlan::new(&spec(), 1, 3, 3).unwrap(); // 8x8 into 3x3
        let regions = plan.patch_regions();
        let area: usize = regions.iter().map(Region::area).sum();
        assert_eq!(area, 64);
        assert_eq!(regions.len(), 9);
    }

    #[test]
    fn grid_finer_than_output_rejected() {
        assert!(matches!(PatchPlan::new(&spec(), 3, 5, 5), Err(PatchError::GridTooFine { .. })));
    }

    #[test]
    fn split_through_dense_rejected() {
        let s = spec();
        assert!(PatchPlan::new(&s, 5, 2, 2).is_err());
    }

    #[test]
    fn largest_prefix_stops_before_gap() {
        let s = spec();
        assert_eq!(largest_straight_prefix(&s), 3);
        let plan = PatchPlan::auto(&s, 2).unwrap();
        assert_eq!(plan.split_at(), 3);
    }

    #[test]
    fn split_points_are_monotone_and_cover() {
        assert_eq!(split_points(8, 2), vec![0, 4, 8]);
        assert_eq!(split_points(7, 2), vec![0, 3, 7]);
        assert_eq!(split_points(9, 3), vec![0, 3, 6, 9]);
    }
}
