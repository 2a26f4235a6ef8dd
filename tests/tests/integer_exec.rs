//! The integer executor's lookup-table activations on zoo graphs:
//! every `Relu`, `Relu6` and `MaxPool` node must produce exactly what the
//! dequantize → float kernel → requantize round trip produces from the
//! same input map, so whole-graph outputs are unchanged by the tables.

use quantmcu::models::Model;
use quantmcu::nn::exec::{calibrate_ranges, CompiledGraph, ExecState};
use quantmcu::nn::{kernels, OpSpec};
use quantmcu::tensor::{Bitwidth, Shape, Tensor};
use quantmcu_integration::{calib, eval, graph};

/// Runs `model` through the integer path at mixed storage bitwidths and
/// re-derives every table node's output from its input map with the
/// float round trip. Induction over the nodes makes node-wise equality
/// whole-graph equality: every other node is untouched by the tables.
fn table_nodes_match_the_round_trip(model: Model) -> usize {
    let g = graph(model);
    let spec = g.spec();
    let fm_count = spec.feature_map_count();
    let ranges = calibrate_ranges(&g, &calib(4)).unwrap();
    let cycle = [Bitwidth::W8, Bitwidth::W4, Bitwidth::W8, Bitwidth::W2];
    let bits: Vec<Bitwidth> = (0..fm_count).map(|i| cycle[i % cycle.len()]).collect();
    let bits = match CompiledGraph::with_quantization(&g, &ranges, &bits, Bitwidth::W8) {
        Ok(_) => bits,
        // Some zoo fan-ins only pass the overflow proof at 8 bits.
        Err(_) => vec![Bitwidth::W8; fm_count],
    };
    let compiled = CompiledGraph::with_quantization(&g, &ranges, &bits, Bitwidth::W8).unwrap();
    let mut state = ExecState::new();
    let mut checked = 0;
    for image in eval(3) {
        let mut maps: Vec<Option<Tensor>> = vec![None; fm_count];
        compiled.run_quant_with(&mut state, &image, |fm, t| maps[fm.0] = Some(t.clone())).unwrap();
        for (i, node) in spec.nodes().iter().enumerate() {
            let in_fm = node.inputs[0].feature_map().0;
            let p_out = compiled.activation_params(i + 1);
            let input = maps[in_fm].as_ref().unwrap();
            let observed = maps[i + 1].as_ref().unwrap();
            let out_shape: Shape = observed.shape();
            let region = out_shape.full_region();
            let mut real = vec![0.0f32; out_shape.len()];
            match node.op {
                OpSpec::Relu => {
                    kernels::relu(input.data(), input.shape(), &mut real, f32::INFINITY, region)
                }
                OpSpec::Relu6 => kernels::relu(input.data(), input.shape(), &mut real, 6.0, region),
                OpSpec::MaxPool { kernel, stride } => kernels::max_pool(
                    input.data(),
                    input.shape(),
                    &mut real,
                    kernel,
                    stride,
                    region,
                ),
                _ => continue,
            }
            for (j, (&r, &o)) in real.iter().zip(observed.data()).enumerate() {
                let expected = p_out.dequantize(p_out.quantize(r));
                assert_eq!(
                    o.to_bits(),
                    expected.to_bits(),
                    "{model} node {i} ({}) element {j}",
                    node.op.name()
                );
            }
            checked += 1;
        }
    }
    checked
}

#[test]
fn table_activations_match_the_round_trip_on_zoo_graphs_with_max_pool() {
    for model in [Model::SqueezeNet, Model::ResNet18] {
        let checked = table_nodes_match_the_round_trip(model);
        assert!(checked > 0, "{model} has table nodes");
    }
}
