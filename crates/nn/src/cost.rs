//! Analytic cost model: MACs, BitOPs, parameters and activation memory.
//!
//! Everything here runs on [`GraphSpec`]s alone — no weights, no execution —
//! so paper-scale networks are costed instantly.
//!
//! **BitOPs** follow the standard definition used by the paper and by HAQ /
//! HAWQ: `BitOPs = MACs × w_bits × a_bits`, where `a_bits` is the bitwidth
//! of the feature map the layer *reads*. This reproduces the paper's
//! anchors: MobileNetV2 at 224×224 has ≈300 M MACs ⇒ 19.2 G BitOPs at 8/8
//! (Table II), and the MCU-scale variant ≈24 M MACs ⇒ 1536 M BitOPs
//! (Table I, layer-based).
//!
//! **ΔB(i, b)** of Eq. (2) — the BitOPs reduction from quantizing feature
//! map `i` to `b` bits — is the sum over all consumers of map `i` of
//! `MACs × w_bits × (8 − b)`, relative to the 8-bit deployment reference.

use quantmcu_tensor::{Bitwidth, Shape};

use crate::spec::{FeatureMapId, GraphSpec, OpSpec};

/// Multiply-accumulate count of node `i`.
///
/// Pooling/activation/add/concat nodes are counted as zero MACs, matching
/// the convention of the papers being reproduced (their cost is folded into
/// the latency model's per-element overhead instead).
pub fn node_macs(spec: &GraphSpec, i: usize) -> u64 {
    let out = spec.node_shape(i);
    let input = spec.input_shapes_of(i)[0];
    match spec.nodes()[i].op {
        OpSpec::Conv2d { out_ch, kernel, .. } => {
            (out.n * out.h * out.w * out_ch * kernel * kernel * input.c) as u64
        }
        OpSpec::DepthwiseConv2d { kernel, .. } => {
            (out.n * out.h * out.w * out.c * kernel * kernel) as u64
        }
        OpSpec::Dense { out: out_f } => (input.n * input.per_sample() * out_f) as u64,
        _ => 0,
    }
}

/// Total MACs of the whole graph.
pub fn total_macs(spec: &GraphSpec) -> u64 {
    (0..spec.len()).map(|i| node_macs(spec, i)).sum()
}

/// Parameter count of node `i` (weights + bias).
pub fn node_params(spec: &GraphSpec, i: usize) -> u64 {
    let input = spec.input_shapes_of(i)[0];
    match spec.nodes()[i].op {
        OpSpec::Conv2d { out_ch, kernel, .. } => {
            (out_ch * kernel * kernel * input.c + out_ch) as u64
        }
        OpSpec::DepthwiseConv2d { kernel, .. } => (kernel * kernel * input.c + input.c) as u64,
        OpSpec::Dense { out } => (out * input.per_sample() + out) as u64,
        _ => 0,
    }
}

/// Total parameters of the graph.
pub fn total_params(spec: &GraphSpec) -> u64 {
    (0..spec.len()).map(|i| node_params(spec, i)).sum()
}

/// Flash bytes needed for the weights at `weight_bits`.
pub fn flash_bytes(spec: &GraphSpec, weight_bits: Bitwidth) -> usize {
    weight_bits.bytes_for(total_params(spec) as usize)
}

/// BitOPs of node `i` given the weight bitwidth and the bitwidth of the
/// feature map it reads.
pub fn node_bitops(spec: &GraphSpec, i: usize, weight_bits: Bitwidth, a_bits: Bitwidth) -> u64 {
    node_macs(spec, i) * weight_bits.bits() as u64 * a_bits.bits() as u64
}

/// A per-feature-map activation bitwidth assignment (the output of the
/// VDQS search). Index 0 is the graph input; index `i + 1` is node `i`'s
/// output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitwidthAssignment {
    bits: Vec<Bitwidth>,
}

impl BitwidthAssignment {
    /// A uniform assignment (e.g. all-8-bit for the deployment baseline).
    pub fn uniform(spec: &GraphSpec, b: Bitwidth) -> Self {
        BitwidthAssignment { bits: vec![b; spec.feature_map_count()] }
    }

    /// Wraps an explicit per-feature-map vector.
    ///
    /// # Panics
    ///
    /// Panics when `bits.len()` differs from the spec's feature-map count.
    pub fn from_vec(spec: &GraphSpec, bits: Vec<Bitwidth>) -> Self {
        assert_eq!(bits.len(), spec.feature_map_count(), "one bitwidth per feature map");
        BitwidthAssignment { bits }
    }

    /// Bitwidth of feature map `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn of(&self, id: FeatureMapId) -> Bitwidth {
        self.bits[id.0]
    }

    /// Sets the bitwidth of feature map `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn set(&mut self, id: FeatureMapId, b: Bitwidth) {
        self.bits[id.0] = b;
    }

    /// The raw per-feature-map vector.
    pub fn as_slice(&self) -> &[Bitwidth] {
        &self.bits
    }
}

/// Total BitOPs of the graph under an activation assignment: each node is
/// charged at the bitwidth of its (first) input feature map.
pub fn total_bitops(
    spec: &GraphSpec,
    weight_bits: Bitwidth,
    assignment: &BitwidthAssignment,
) -> u64 {
    (0..spec.len())
        .map(|i| {
            let a = assignment.of(spec.nodes()[i].inputs[0].feature_map());
            node_bitops(spec, i, weight_bits, a)
        })
        .sum()
}

/// ΔB(i, b) of Eq. (2): BitOPs saved by quantizing feature map `id` from the
/// 8-bit reference down to `b`, summed over every consumer of the map.
pub fn bitops_reduction(
    spec: &GraphSpec,
    id: FeatureMapId,
    b: Bitwidth,
    weight_bits: Bitwidth,
) -> u64 {
    let saved_bits = Bitwidth::W8.bits().saturating_sub(b.bits()) as u64;
    spec.consumers_of(id)
        .into_iter()
        .map(|n| node_macs(spec, n) * weight_bits.bits() as u64 * saved_bits)
        .sum()
}

/// Deployed bytes of a feature map at a bitwidth (Eq. 7's `Mem(i, b_i)`),
/// with sub-byte packing.
pub fn feature_map_bytes(shape: Shape, b: Bitwidth) -> usize {
    b.bytes_for(shape.len())
}

/// Peak activation memory of layer-by-layer execution under an assignment.
///
/// Uses exact liveness on the DAG: at each step the live set is the node's
/// inputs, its output, and every earlier feature map still needed by a later
/// node (residual edges). The peak is the maximum live-set footprint —
/// the quantity a static SRAM allocator must provision.
pub fn peak_activation_bytes(spec: &GraphSpec, assignment: &BitwidthAssignment) -> usize {
    peak_activation(spec, assignment).0
}

/// [`peak_activation_bytes`] together with the first node at which the
/// peak occurs (`0` for an empty spec, whose peak is the input alone).
pub fn peak_activation(spec: &GraphSpec, assignment: &BitwidthAssignment) -> (usize, usize) {
    if spec.is_empty() {
        return (feature_map_bytes(spec.input_shape(), assignment.of(FeatureMapId::INPUT)), 0);
    }
    // last_use[fm] = last node index that reads the feature map.
    let fm_count = spec.feature_map_count();
    let mut last_use = vec![0usize; fm_count];
    for (i, node) in spec.nodes().iter().enumerate() {
        for src in &node.inputs {
            last_use[src.feature_map().0] = i;
        }
    }
    let bytes = |fm: usize| {
        let shape = spec.feature_map_shape(FeatureMapId(fm));
        feature_map_bytes(shape, assignment.of(FeatureMapId(fm)))
    };
    let (mut peak, mut peak_node) = (0usize, 0usize);
    for i in 0..spec.len() {
        // Live during node i: its output plus every map produced earlier
        // (or the input) whose last use is >= i.
        let mut live = bytes(i + 1);
        for (fm, &lu) in last_use.iter().enumerate().take(i + 1) {
            if lu >= i {
                live += bytes(fm);
            }
        }
        if live > peak {
            (peak, peak_node) = (live, i);
        }
    }
    (peak, peak_node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphSpecBuilder;

    fn spec() -> GraphSpec {
        GraphSpecBuilder::new(Shape::hwc(8, 8, 3))
            .conv2d(16, 3, 2, 1) // out 4x4x16
            .relu6()
            .dwconv(3, 1, 1) // out 4x4x16
            .pwconv(8) // out 4x4x8
            .global_avg_pool()
            .dense(10)
            .build()
            .unwrap()
    }

    #[test]
    fn mac_counts() {
        let s = spec();
        assert_eq!(node_macs(&s, 0), (4 * 4 * 16 * 3 * 3 * 3) as u64);
        assert_eq!(node_macs(&s, 1), 0); // relu6
        assert_eq!(node_macs(&s, 2), (4 * 4 * 16 * 9) as u64);
        assert_eq!(node_macs(&s, 3), (4 * 4 * 8 * 16) as u64);
        assert_eq!(node_macs(&s, 5), (8 * 10) as u64);
        assert_eq!(
            total_macs(&s),
            node_macs(&s, 0) + node_macs(&s, 2) + node_macs(&s, 3) + node_macs(&s, 5)
        );
    }

    #[test]
    fn param_counts() {
        let s = spec();
        assert_eq!(node_params(&s, 0), (16 * 27 + 16) as u64);
        assert_eq!(node_params(&s, 2), (9 * 16 + 16) as u64);
        assert_eq!(node_params(&s, 3), (16 * 8 + 8) as u64);
        assert_eq!(node_params(&s, 5), (8 * 10 + 10) as u64);
    }

    #[test]
    fn bitops_scale_with_bits() {
        let s = spec();
        let a8 = BitwidthAssignment::uniform(&s, Bitwidth::W8);
        let a4 = BitwidthAssignment::uniform(&s, Bitwidth::W4);
        let b8 = total_bitops(&s, Bitwidth::W8, &a8);
        let b4 = total_bitops(&s, Bitwidth::W8, &a4);
        assert_eq!(b8, total_macs(&s) * 64);
        assert_eq!(b4, total_macs(&s) * 32);
    }

    #[test]
    fn bitops_reduction_counts_consumers() {
        let s = spec();
        // Input feature map feeds only node 0.
        let r = bitops_reduction(&s, FeatureMapId::INPUT, Bitwidth::W4, Bitwidth::W8);
        assert_eq!(r, node_macs(&s, 0) * 8 * 4);
        // 8-bit "reduction" is zero.
        assert_eq!(bitops_reduction(&s, FeatureMapId::INPUT, Bitwidth::W8, Bitwidth::W8), 0);
    }

    #[test]
    fn reduction_consistent_with_total() {
        let s = spec();
        let mut a = BitwidthAssignment::uniform(&s, Bitwidth::W8);
        let before = total_bitops(&s, Bitwidth::W8, &a);
        let target = FeatureMapId(1); // output of the first conv
        let dr = bitops_reduction(&s, target, Bitwidth::W2, Bitwidth::W8);
        a.set(target, Bitwidth::W2);
        let after = total_bitops(&s, Bitwidth::W8, &a);
        assert_eq!(before - after, dr);
    }

    #[test]
    fn memory_shrinks_with_bits() {
        let s = spec();
        let m8 = peak_activation_bytes(&s, &BitwidthAssignment::uniform(&s, Bitwidth::W8));
        let m4 = peak_activation_bytes(&s, &BitwidthAssignment::uniform(&s, Bitwidth::W4));
        let m2 = peak_activation_bytes(&s, &BitwidthAssignment::uniform(&s, Bitwidth::W2));
        assert!(m8 > m4 && m4 > m2);
        // Peak is at least the largest single pair of adjacent maps.
        assert!(m8 >= feature_map_bytes(Shape::hwc(8, 8, 3), Bitwidth::W8));
    }

    #[test]
    fn residual_extends_liveness() {
        let plain = GraphSpecBuilder::new(Shape::hwc(8, 8, 8))
            .conv2d(8, 3, 1, 1)
            .relu()
            .conv2d(8, 3, 1, 1)
            .build()
            .unwrap();
        let residual =
            GraphSpecBuilder::new(Shape::hwc(8, 8, 8)).basic_residual(8, 1).build().unwrap();
        let a_plain = BitwidthAssignment::uniform(&plain, Bitwidth::W8);
        let a_res = BitwidthAssignment::uniform(&residual, Bitwidth::W8);
        // The residual keeps the block input alive across both convs, so
        // its peak must exceed the plain chain's.
        assert!(peak_activation_bytes(&residual, &a_res) > peak_activation_bytes(&plain, &a_plain));
    }

    #[test]
    fn flash_accounts_weight_bits() {
        let s = spec();
        assert_eq!(flash_bytes(&s, Bitwidth::W8), total_params(&s) as usize);
        assert_eq!(flash_bytes(&s, Bitwidth::W4), total_params(&s).div_ceil(2) as usize);
    }
}
