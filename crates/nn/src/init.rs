//! Structured weight initialization.
//!
//! The paper evaluates trained networks; trained ImageNet weights are not
//! available offline, so the reproduction substitutes *structured random*
//! weights: each convolution filter is a seeded mixture of a DC component,
//! an oriented edge component and Gaussian noise, scaled He-style. This matters because value-driven patch classification relies
//! on activation distributions being bell-shaped with genuine heavy-tail
//! outliers — pure i.i.d. noise weights produce nearly perfect Gaussians
//! with no structure, while structured filters respond strongly (outliers)
//! wherever the input contains matching edges.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::{expected_param_lens, Graph, OpParams};
use crate::spec::{GraphSpec, OpSpec};

/// Materializes `spec` with structured random weights from `seed`.
///
/// Deterministic: the same spec and seed always produce identical weights.
pub fn with_structured_weights(spec: GraphSpec, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = Vec::with_capacity(spec.len());
    for i in 0..spec.len() {
        let (w_len, b_len) = expected_param_lens(&spec, i);
        if w_len == 0 {
            params.push(OpParams::None);
            continue;
        }
        let node = &spec.nodes()[i];
        let in_shape = spec.input_shapes_of(i)[0];
        let weights = match node.op {
            OpSpec::Conv2d { out_ch, kernel, .. } => {
                structured_filters(&mut rng, out_ch, kernel, in_shape.c)
            }
            OpSpec::DepthwiseConv2d { kernel, .. } => {
                // Depthwise: one k×k filter per channel, laid out [kh][kw][c].
                let per_ch = structured_filters(&mut rng, in_shape.c, kernel, 1);
                // Transpose [c][kh][kw] -> [kh][kw][c].
                let mut w = vec![0.0f32; w_len];
                for c in 0..in_shape.c {
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            w[(ky * kernel + kx) * in_shape.c + c] =
                                per_ch[(c * kernel + ky) * kernel + kx];
                        }
                    }
                }
                w
            }
            OpSpec::Dense { out } => {
                let fan_in = in_shape.per_sample();
                let scale = (2.0 / fan_in as f32).sqrt();
                (0..out * fan_in).map(|_| gaussian(&mut rng) * scale).collect()
            }
            _ => unreachable!("only weighted ops reach here"),
        };
        let bias = (0..b_len).map(|_| gaussian(&mut rng) * 0.05).collect();
        params.push(OpParams::Weights { weights, bias });
    }
    Graph::new(spec, params)
}

/// Generates `out_ch` structured `k`×`k`×`in_ch` filters in OHWI layout.
///
/// Every filter is normalized to L2 norm √2 — the He-init magnitude that
/// keeps activation variance roughly constant through ReLU layers. Without
/// this, structured components make ranges grow geometrically with depth
/// (real networks rely on batch-norm for the same stabilization), and
/// quantization error compounds unrealistically.
fn structured_filters(rng: &mut StdRng, out_ch: usize, k: usize, in_ch: usize) -> Vec<f32> {
    let mut w = Vec::with_capacity(out_ch * k * k * in_ch);
    for o in 0..out_ch {
        // Alternate filter archetypes so different output channels respond
        // to different structure: DC (blur), horizontal edge, vertical edge
        // and pure noise.
        let archetype = o % 4;
        let start = w.len();
        for ky in 0..k {
            for kx in 0..k {
                let structural = match archetype {
                    0 => 1.0,
                    1 => edge_profile(ky, k),
                    2 => edge_profile(kx, k),
                    _ => 0.0,
                };
                for _ in 0..in_ch {
                    let noise = gaussian(rng);
                    w.push(0.6 * structural + 0.8 * noise);
                }
            }
        }
        let norm = w[start..].iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
        let target = std::f32::consts::SQRT_2;
        for v in &mut w[start..] {
            *v *= target / norm;
        }
    }
    w
}

/// Antisymmetric profile across the kernel: -1 at one edge, +1 at the other.
fn edge_profile(pos: usize, k: usize) -> f32 {
    if k <= 1 {
        return 0.0;
    }
    2.0 * pos as f32 / (k - 1) as f32 - 1.0
}

/// Standard normal sample via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(1e-7f32..1.0);
    let u2: f32 = rng.gen_range(0.0f32..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphSpecBuilder;
    use quantmcu_tensor::Shape;

    fn sample_spec() -> GraphSpec {
        GraphSpecBuilder::new(Shape::hwc(8, 8, 3))
            .conv2d(8, 3, 2, 1)
            .relu6()
            .dwconv(3, 1, 1)
            .global_avg_pool()
            .dense(4)
            .build()
            .unwrap()
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = with_structured_weights(sample_spec(), 7);
        let b = with_structured_weights(sample_spec(), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = with_structured_weights(sample_spec(), 7);
        let b = with_structured_weights(sample_spec(), 8);
        assert_ne!(a, b);
    }

    #[test]
    fn weights_are_finite_and_nontrivial() {
        let g = with_structured_weights(sample_spec(), 3);
        let w = g.params(0).weights();
        assert!(w.iter().all(|v| v.is_finite()));
        let nonzero = w.iter().filter(|v| v.abs() > 1e-9).count();
        assert!(nonzero > w.len() / 2);
    }

    #[test]
    fn edge_profile_is_antisymmetric() {
        assert_eq!(edge_profile(0, 3), -1.0);
        assert_eq!(edge_profile(1, 3), 0.0);
        assert_eq!(edge_profile(2, 3), 1.0);
        assert_eq!(edge_profile(0, 1), 0.0);
    }
}
