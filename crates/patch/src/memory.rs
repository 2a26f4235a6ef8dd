//! Peak-SRAM model for patch-based inference (Table I's "Peak Memory").
//!
//! The model follows the buffer discipline of MCUNetV2/TinyEngine deployment:
//!
//! * **Branch phase** — resident at once: the input image, the stage-output
//!   accumulation buffer (each patch stored at its branch's stage-output
//!   bitwidth), and the currently-executing branch's working set (its
//!   largest adjacent pair of region-restricted feature maps).
//! * **Tail phase** — the layer-based liveness peak of the tail under its
//!   bitwidth assignment ([`quantmcu_nn::cost::peak_activation_bytes`]).
//!
//! The overall peak is the maximum of the two phases. The same discipline
//! is applied to every method in Table I, so comparisons are apples to
//! apples.

use quantmcu_nn::cost::{self, BitwidthAssignment};
use quantmcu_nn::{FeatureMapId, GraphSpec};
use quantmcu_tensor::{Bitwidth, Region};

use crate::branch::Branch;
use crate::error::PatchError;
use crate::plan::PatchPlan;

/// Bytes of a region-restricted feature map slice: `area × channels` values
/// at `bits`, sub-byte packed.
pub fn region_bytes(region: Region, channels: usize, bits: Bitwidth) -> usize {
    bits.bytes_for(region.area() * channels)
}

/// The working set of one branch: the largest adjacent (input-region,
/// output-region) pair across the head's layers, under a per-feature-map
/// bitwidth vector (`bits.len() == head.len() + 1`).
///
/// # Panics
///
/// Panics when `bits` has the wrong length.
pub fn branch_working_bytes(head: &GraphSpec, branch: &Branch, bits: &[Bitwidth]) -> usize {
    assert_eq!(bits.len(), head.len() + 1, "one bitwidth per branch feature map");
    let regions = branch.regions();
    let ch = |fm: usize| head.feature_map_shape(FeatureMapId(fm)).c;
    (0..head.len())
        .map(|i| {
            region_bytes(regions[i], ch(i), bits[i])
                + region_bytes(regions[i + 1], ch(i + 1), bits[i + 1])
        })
        .max()
        .unwrap_or_else(|| region_bytes(regions[0], ch(0), bits[0]))
}

/// Peak SRAM of a full patch-based inference.
///
/// `branch_bits[b]` is branch `b`'s per-feature-map bitwidth vector;
/// `tail_bits` assigns the tail's feature maps (tail input first). Uniform
/// 8-bit everywhere reproduces the MCUNetV2 baseline.
///
/// # Errors
///
/// Returns [`PatchError::Graph`] for an invalid split and
/// [`PatchError::BitwidthLength`] for malformed bitwidth vectors.
pub fn patch_peak_bytes(
    spec: &GraphSpec,
    plan: &PatchPlan,
    branch_bits: &[Vec<Bitwidth>],
    tail_bits: &[Bitwidth],
) -> Result<usize, PatchError> {
    let (head, tail) = spec.split_at(plan.split_at())?;
    let branches = Branch::build_all(spec, plan);
    if branch_bits.len() != branches.len() {
        return Err(PatchError::BitwidthLength {
            expected: branches.len(),
            actual: branch_bits.len(),
        });
    }
    for bits in branch_bits {
        if bits.len() != head.len() + 1 {
            return Err(PatchError::BitwidthLength {
                expected: head.len() + 1,
                actual: bits.len(),
            });
        }
    }
    if tail_bits.len() != tail.feature_map_count() {
        return Err(PatchError::BitwidthLength {
            expected: tail.feature_map_count(),
            actual: tail_bits.len(),
        });
    }

    let input_bytes = {
        // The input is consumed patchwise; the branch with the widest input
        // bitwidth dictates the buffer (stored once, at the max bitwidth).
        let max_in = branch_bits.iter().map(|b| b[0]).max().unwrap_or(Bitwidth::W8);
        cost::feature_map_bytes(head.input_shape(), max_in)
    };
    // Stage-output accumulation: each patch at its branch's final bitwidth.
    let stage_ch = head.output_shape().c;
    let stage_bytes: usize = branches
        .iter()
        .zip(branch_bits)
        .map(|(br, bits)| {
            region_bytes(br.output_region(), stage_ch, *bits.last().expect("nonempty"))
        })
        .sum();
    let worst_branch = branches
        .iter()
        .zip(branch_bits)
        .map(|(br, bits)| branch_working_bytes(&head, br, bits))
        .max()
        .unwrap_or(0);
    let branch_phase = input_bytes + stage_bytes + worst_branch;

    let tail_assignment = BitwidthAssignment::from_vec(&tail, tail_bits.to_vec());
    let tail_phase = cost::peak_activation_bytes(&tail, &tail_assignment);

    Ok(branch_phase.max(tail_phase))
}

/// [`patch_peak_bytes`] with every feature map at 8 bits: the MCUNetV2
/// baseline's peak and the fit policy's criterion
/// ([`PatchPlan::fitted`]).
///
/// # Errors
///
/// Returns [`PatchError::Graph`] for an invalid split.
pub fn uniform8_peak(spec: &GraphSpec, plan: &PatchPlan) -> Result<usize, PatchError> {
    let (head, tail) = spec.split_at(plan.split_at())?;
    let branch_bits = vec![vec![Bitwidth::W8; head.len() + 1]; plan.branch_count()];
    let tail_bits = vec![Bitwidth::W8; tail.feature_map_count()];
    patch_peak_bytes(spec, plan, &branch_bits, &tail_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantmcu_nn::GraphSpecBuilder;
    use quantmcu_tensor::Shape;

    fn spec() -> GraphSpec {
        GraphSpecBuilder::new(Shape::hwc(32, 32, 3))
            .conv2d(16, 3, 1, 1) // fat 32x32x16 map: the memory hog
            .relu6()
            .conv2d(16, 3, 2, 1) // 16x16x16
            .relu6()
            .conv2d(32, 3, 2, 1) // 8x8x32
            .global_avg_pool()
            .dense(10)
            .build()
            .unwrap()
    }

    fn uniform(n: usize, b: Bitwidth) -> Vec<Bitwidth> {
        vec![b; n]
    }

    #[test]
    fn patch_inference_cuts_peak_memory() {
        let s = spec();
        let plan = PatchPlan::new(&s, 5, 2, 2).unwrap();
        let (head, tail) = s.split_at(5).unwrap();
        let branch_bits = vec![uniform(head.len() + 1, Bitwidth::W8); 4];
        let tail_bits = uniform(tail.feature_map_count(), Bitwidth::W8);
        let patch = patch_peak_bytes(&s, &plan, &branch_bits, &tail_bits).unwrap();
        let layer = cost::peak_activation_bytes(&s, &BitwidthAssignment::uniform(&s, Bitwidth::W8));
        assert!(patch < layer, "patch {patch} should be below layer {layer}");
    }

    #[test]
    fn lower_branch_bits_cut_memory_further() {
        let s = spec();
        let plan = PatchPlan::new(&s, 5, 2, 2).unwrap();
        let (head, tail) = s.split_at(5).unwrap();
        let tail_bits = uniform(tail.feature_map_count(), Bitwidth::W8);
        let m8 = patch_peak_bytes(
            &s,
            &plan,
            &vec![uniform(head.len() + 1, Bitwidth::W8); 4],
            &tail_bits,
        )
        .unwrap();
        // Keep the input at 8-bit (cameras hand over bytes) but drop the
        // intermediate branch maps to 2-bit.
        let mut low = uniform(head.len() + 1, Bitwidth::W2);
        low[0] = Bitwidth::W8;
        let m2 = patch_peak_bytes(&s, &plan, &vec![low; 4], &tail_bits).unwrap();
        assert!(m2 < m8, "2-bit branches {m2} should beat 8-bit {m8}");
    }

    #[test]
    fn malformed_bit_vectors_rejected() {
        let s = spec();
        let plan = PatchPlan::new(&s, 5, 2, 2).unwrap();
        let bad = vec![uniform(2, Bitwidth::W8); 4];
        let tail_bits = uniform(3, Bitwidth::W8);
        assert!(matches!(
            patch_peak_bytes(&s, &plan, &bad, &tail_bits),
            Err(PatchError::BitwidthLength { .. })
        ));
    }

    #[test]
    fn region_bytes_pack_sub_byte() {
        let r = Region::new(0, 0, 4, 4);
        assert_eq!(region_bytes(r, 8, Bitwidth::W8), 128);
        assert_eq!(region_bytes(r, 8, Bitwidth::W4), 64);
        assert_eq!(region_bytes(r, 8, Bitwidth::W2), 32);
    }
}
