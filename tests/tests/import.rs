//! Model import round-trip, fused-vs-unfused parity, and corrupted-input
//! suites.
//!
//! * Every zoo model serializes (`save_model`) and re-imports
//!   (`load_model_unoptimized`) to a bit-identical graph, with
//!   bit-identical float and quantized executor outputs.
//! * The optimizing import path (`load_model`) preserves outputs:
//!   bit-exactly for removal-type passes (dead nodes, identity ops, relu
//!   chains — float *and* int), within a ULP-level float bound where
//!   constant folding reassociates arithmetic (a dense pair here; no zoo
//!   model holds a fold that saves MACs, so every zoo model imports
//!   unchanged and never costs more MACs than the graph it was saved
//!   from).
//! * An externally loaded model file reaches `Engine::deploy` end to
//!   end: `Engine::from_model_path` → plan → `Session::run`.
//! * Property test: corrupting, truncating or version-bumping a valid
//!   byte stream yields a typed `ImportError`, never a panic.
//!
//! `QUANTMCU_SMOKE=1` shrinks the zoo sweeps for CI.

use proptest::prelude::*;

use quantmcu::models::Model;
use quantmcu::nn::analyze::{analyze_ir, AnalyzeOptions, Code, RawInput};
use quantmcu::nn::cost::total_macs;
use quantmcu::nn::exec::{calibrate_ranges, CompiledGraph, ExecState, FloatExecutor};
use quantmcu::nn::import::{
    decode, load_model, load_model_unoptimized, load_model_with_stats, save_model,
    save_model_to_path, ImportError, FORMAT_VERSION,
};
use quantmcu::nn::opt::{IrNode, IrOp, ModelIr};
use quantmcu::nn::{Graph, OpSpec};
use quantmcu::tensor::{Bitwidth, Shape, Tensor};
use quantmcu::{Engine, SramBudget};
use quantmcu_integration::{calib, dataset, eval, graph, SEED};

fn zoo() -> Vec<Model> {
    if std::env::var_os("QUANTMCU_SMOKE").is_some() {
        vec![Model::MobileNetV2, Model::SqueezeNet, Model::McuNet]
    } else {
        Model::ALL.to_vec()
    }
}

fn float_outputs(g: &Graph, inputs: &[Tensor]) -> Vec<Tensor> {
    let mut exec = FloatExecutor::new(g);
    inputs.iter().map(|x| exec.run(x).unwrap()).collect()
}

fn quant_outputs(g: &Graph, calibration: &[Tensor], inputs: &[Tensor]) -> Vec<Tensor> {
    let ranges = calibrate_ranges(g, calibration).unwrap();
    let act_bits = vec![Bitwidth::W8; g.spec().feature_map_count()];
    let compiled = CompiledGraph::with_quantization(g, &ranges, &act_bits, Bitwidth::W8).unwrap();
    let mut state = ExecState::new();
    inputs.iter().map(|x| compiled.run_quant(&mut state, x).unwrap()).collect()
}

fn assert_bit_identical(a: &[Tensor], b: &[Tensor], what: &str) {
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.shape(), y.shape(), "{what}: shape diverged");
        for (va, vb) in x.data().iter().zip(y.data()) {
            assert_eq!(va.to_bits(), vb.to_bits(), "{what}: outputs not bit-identical");
        }
    }
}

fn assert_ulp_close(a: &[Tensor], b: &[Tensor], rel: f32, what: &str) {
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.shape(), y.shape(), "{what}: shape diverged");
        for (va, vb) in x.data().iter().zip(y.data()) {
            let scale = va.abs().max(vb.abs()).max(1.0);
            assert!((va - vb).abs() <= rel * scale, "{what}: |{va} - {vb}| > {rel} * {scale}");
        }
    }
}

// --- round trips ------------------------------------------------------

#[test]
fn zoo_round_trip_is_bit_exact() {
    for model in zoo() {
        let g = graph(model);
        let bytes = save_model(&g);
        let back = load_model_unoptimized(&bytes).expect("round trip");
        assert_eq!(back, g, "{model}: graph did not round-trip bit-exactly");
    }
}

#[test]
fn round_trip_outputs_bit_identical_on_both_executors() {
    let inputs = eval(2);
    let calibration = calib(4);
    for model in [Model::MobileNetV2, Model::SqueezeNet] {
        let g = graph(model);
        let back = load_model_unoptimized(&save_model(&g)).unwrap();
        assert_bit_identical(
            &float_outputs(&g, &inputs),
            &float_outputs(&back, &inputs),
            &format!("{model} float"),
        );
        assert_bit_identical(
            &quant_outputs(&g, &calibration, &inputs),
            &quant_outputs(&back, &calibration, &inputs),
            &format!("{model} quant"),
        );
    }
}

#[test]
fn optimized_zoo_load_preserves_outputs_within_ulp() {
    let inputs = eval(2);
    for model in zoo() {
        let g = graph(model);
        let (opt, stats) = load_model_with_stats(&save_model(&g)).unwrap();
        if stats.total() == 0 {
            assert_eq!(opt, g, "{model}: no rewrites must mean an identical graph");
        } else {
            assert!(opt.spec().len() < g.spec().len(), "{model}: rewrites must shrink the graph");
        }
        // Constant folding reassociates float sums, so a model with a
        // fold would be ULP-close, not bit-equal.
        assert_ulp_close(
            &float_outputs(&g, &inputs),
            &float_outputs(&opt, &inputs),
            1e-4,
            &format!("{model} fused-vs-unfused"),
        );
    }
}

#[test]
fn optimized_zoo_import_never_adds_macs() {
    for model in zoo() {
        let g = graph(model);
        let (opt, stats) = load_model_with_stats(&save_model(&g)).unwrap();
        let (before, after) = (total_macs(g.spec()), total_macs(opt.spec()));
        assert!(after <= before, "{model}: import raised MACs {before} -> {after} ({stats})");
    }
    // Its two linear bottlenecks (16→8→48 in the head, 480→160→640 in the
    // tail) would each cost more MACs folded than as a pair.
    let g = graph(Model::MobileNetV2);
    let (opt, stats) = load_model_with_stats(&save_model(&g)).unwrap();
    assert_eq!(stats.total(), 0, "{stats}");
    assert_eq!(opt, g);
}

// --- fused-vs-unfused parity on targeted pass patterns ----------------

/// conv → relu → relu → 1×1 maxpool → gap → dense, plus a dead branch.
/// Removal-type passes only: the optimized graph computes the same
/// values through the same arithmetic.
fn removal_pattern_ir() -> ModelIr {
    let conv = |id, out_ch, input| IrNode {
        id,
        op: IrOp::Core(OpSpec::Conv2d { out_ch, kernel: 3, stride: 1, pad: 1 }),
        inputs: vec![input],
        weights: (0..out_ch * 3 * 3 * 3).map(|i| (i % 13) as f32 * 0.05 - 0.3).collect(),
        bias: (0..out_ch).map(|i| i as f32 * 0.1).collect(),
    };
    let plain = |id, op, input| IrNode {
        id,
        op: IrOp::Core(op),
        inputs: vec![input],
        weights: vec![],
        bias: vec![],
    };
    ModelIr {
        input_shape: Shape::hwc(8, 8, 3),
        nodes: vec![
            conv(0, 4, RawInput::Image),
            plain(1, OpSpec::Relu, RawInput::Node(0)),
            plain(2, OpSpec::Relu, RawInput::Node(1)),
            plain(3, OpSpec::MaxPool { kernel: 1, stride: 1 }, RawInput::Node(2)),
            // Dead branch off the input.
            conv(4, 2, RawInput::Image),
            plain(5, OpSpec::Relu6, RawInput::Node(4)),
            plain(6, OpSpec::GlobalAvgPool, RawInput::Node(3)),
            IrNode {
                id: 7,
                op: IrOp::Core(OpSpec::Dense { out: 5 }),
                inputs: vec![RawInput::Node(6)],
                weights: (0..5 * 4).map(|i| (i % 7) as f32 * 0.2 - 0.6).collect(),
                bias: vec![0.1; 5],
            },
        ],
        output: Some(7),
    }
}

#[test]
fn removal_passes_are_bit_exact_float_and_int() {
    let ir = removal_pattern_ir();
    let bytes = quantmcu::nn::import::encode(&ir);
    let unopt = load_model_unoptimized(&bytes).unwrap();
    let (opt, stats) = load_model_with_stats(&bytes).unwrap();
    // relu∘relu collapsed, identity pool dropped, dead branch removed.
    assert!(stats.total() >= 4, "expected >= 4 rewrites, got {stats}");
    assert_eq!(opt.spec().len(), 4);

    let inputs: Vec<Tensor> = (0..3).map(|i| dataset().sample(2000 + i).0).collect();
    let inputs: Vec<Tensor> = inputs
        .iter()
        .map(|t| {
            // Fixture images are 32×32; crop via a fresh 8×8 tensor.
            let mut small = vec![0.0f32; 8 * 8 * 3];
            small.copy_from_slice(&t.data()[..8 * 8 * 3]);
            Tensor::from_vec(Shape::hwc(8, 8, 3), small).unwrap()
        })
        .collect();
    assert_bit_identical(
        &float_outputs(&unopt, &inputs),
        &float_outputs(&opt, &inputs),
        "removal passes float",
    );
    let calibration = inputs.clone();
    assert_bit_identical(
        &quant_outputs(&unopt, &calibration, &inputs),
        &quant_outputs(&opt, &calibration, &inputs),
        "removal passes int",
    );
}

#[test]
fn dense_fold_is_ulp_close() {
    let ir = ModelIr {
        input_shape: Shape::hwc(4, 4, 2),
        nodes: vec![
            IrNode {
                id: 0,
                op: IrOp::Core(OpSpec::GlobalAvgPool),
                inputs: vec![RawInput::Image],
                weights: vec![],
                bias: vec![],
            },
            IrNode {
                id: 1,
                op: IrOp::Core(OpSpec::Dense { out: 6 }),
                inputs: vec![RawInput::Node(0)],
                weights: (0..12).map(|i| i as f32 * 0.3 - 1.5).collect(),
                bias: (0..6).map(|i| i as f32 * 0.05).collect(),
            },
            IrNode {
                id: 2,
                op: IrOp::Core(OpSpec::Dense { out: 3 }),
                inputs: vec![RawInput::Node(1)],
                weights: (0..18).map(|i| (i % 5) as f32 * 0.4 - 0.8).collect(),
                bias: vec![0.25, -0.5, 0.75],
            },
        ],
        output: Some(2),
    };
    let bytes = quantmcu::nn::import::encode(&ir);
    let unopt = load_model_unoptimized(&bytes).unwrap();
    let (opt, stats) = load_model_with_stats(&bytes).unwrap();
    assert_eq!(stats.total(), 1);
    assert_eq!(opt.spec().len(), 2);

    let inputs: Vec<Tensor> = (0..4)
        .map(|i| {
            let data: Vec<f32> =
                (0..4 * 4 * 2).map(|j| ((i * 31 + j) % 11) as f32 * 0.2 - 1.0).collect();
            Tensor::from_vec(Shape::hwc(4, 4, 2), data).unwrap()
        })
        .collect();
    assert_ulp_close(
        &float_outputs(&unopt, &inputs),
        &float_outputs(&opt, &inputs),
        1e-5,
        "dense fold",
    );
}

// --- end to end through the Engine ------------------------------------

#[test]
fn imported_model_file_reaches_deploy_end_to_end() {
    let model = Model::SqueezeNet; // no foldable pairs: import == original
    let g = graph(model);
    let path = std::env::temp_dir().join(format!(
        "quantmcu-import-e2e-{}-{}.qmcu",
        std::process::id(),
        SEED
    ));
    save_model_to_path(&g, &path).unwrap();

    let budget = SramBudget::kib(256);
    let engine = Engine::from_model_path(&path).unwrap().sram_budget(budget).build();
    let _ = std::fs::remove_file(&path);
    assert_eq!(engine.graph().as_ref(), &g, "import must reproduce the zoo graph");

    let calibration = calib(4);
    let plan = engine.plan(calibration.clone()).unwrap();
    let deployment = engine.deploy(plan.clone()).unwrap();
    let input = eval(1).remove(0);
    let out = deployment.session().run(&input).unwrap();
    assert!(out.data().iter().all(|v| v.is_finite()));

    // Bit-identical to serving the zoo-built graph directly.
    let reference = Engine::builder(g).sram_budget(budget).build();
    let ref_plan = reference.plan(calibration).unwrap();
    assert_eq!(
        ref_plan.clone().timeless(),
        plan.timeless(),
        "plans must agree between imported and zoo graphs"
    );
    let ref_out = reference.deploy(ref_plan).unwrap().session().run(&input).unwrap();
    assert_bit_identical(
        std::slice::from_ref(&out),
        std::slice::from_ref(&ref_out),
        "deployed import",
    );
}

// --- optimizer pipeline smoke through the public surface --------------

#[test]
fn d001_dead_node_warning_becomes_auto_fix() {
    let mut ir = removal_pattern_ir();
    // The raw graph carries a dead branch: analyzer flags D001 on load…
    let bytes = quantmcu::nn::import::encode(&ir);
    let unopt = load_model_unoptimized(&bytes).unwrap();
    // Lowering keeps only the nodes that reach the output.
    assert_eq!(unopt.spec().len(), 6);
    // …and the optimizing path removes it instead of warning.
    let stats = ir.optimize();
    assert!(stats.fixed_point);
    assert!(ir.nodes.iter().all(|n| ![4usize, 5].contains(&n.id)), "dead branch must be gone");
}

/// An explicit output stays the output when a dead node sorts after it:
/// lowering (optimized or not) and the analyzer's SRAM pass all see the
/// 4-channel conv, never the dead 8-channel one declared last.
#[test]
fn explicit_output_survives_a_dead_node_declared_after_it() {
    let conv = |id, out_ch: usize| IrNode {
        id,
        op: IrOp::Core(OpSpec::Conv2d { out_ch, kernel: 1, stride: 1, pad: 0 }),
        inputs: vec![RawInput::Image],
        weights: vec![0.25; out_ch * 3],
        bias: vec![],
    };
    let ir = ModelIr {
        input_shape: Shape::hwc(4, 4, 3),
        nodes: vec![conv(0, 4), conv(1, 8)],
        output: Some(0),
    };
    let lowered = ir.clone().lower().unwrap();
    assert_eq!(lowered.spec().len(), 1);
    assert_eq!(lowered.spec().output_shape(), Shape::hwc(4, 4, 4));
    let bytes = quantmcu::nn::import::encode(&ir);
    assert_eq!(load_model_unoptimized(&bytes).unwrap(), lowered);
    assert_eq!(load_model(&bytes).unwrap(), lowered);

    // At 2 bits the live graph needs (48 + 64) values = 28 B; the dead
    // conv's 4x4x8 output would push layer-at-a-time past 32 B.
    let opts = AnalyzeOptions { sram_budget: Some(32), ..AnalyzeOptions::default() };
    let report = analyze_ir(&ir, &opts);
    assert!(report.has_code(Code::DeadNode), "{report}");
    assert!(!report.has_code(Code::PatchingRequired), "{report}");
    assert!(!report.has_code(Code::InfeasibleSram), "{report}");
}

// --- malformed IR through the import pipeline -------------------------

/// An inner dense whose bias is longer than its output-channel count must
/// reach `lower()` unfolded and come back as a typed `ParamLength` error
/// (surfaced as `ImportError::Model`), never a fold-time panic.
#[test]
fn malformed_bias_length_is_a_typed_model_error() {
    let ir = ModelIr {
        input_shape: Shape::hwc(1, 1, 2),
        nodes: vec![
            IrNode {
                id: 0,
                op: IrOp::Core(OpSpec::Dense { out: 2 }),
                inputs: vec![RawInput::Image],
                weights: vec![1.0, 2.0, 3.0, 4.0],
                bias: vec![1.0, 2.0, 3.0], // too long: out = 2
            },
            IrNode {
                id: 1,
                op: IrOp::Core(OpSpec::Dense { out: 1 }),
                inputs: vec![RawInput::Node(0)],
                weights: vec![1.0, 1.0],
                bias: vec![],
            },
        ],
        output: None,
    };
    let bytes = quantmcu::nn::import::encode(&ir);
    match load_model(&bytes) {
        Err(ImportError::Model { node: Some(0), detail }) => {
            assert!(detail.contains("bias"), "detail must name the bias buffer: {detail}");
        }
        other => panic!("expected ImportError::Model for node 0, got {other:?}"),
    }
}

/// A zero-input activation feeding a collapsible chain must flow to the
/// analyzer's S004 arity diagnostic (surfaced as `ImportError::Analysis`),
/// never an optimizer index-out-of-bounds.
#[test]
fn zero_input_node_is_a_typed_analysis_error() {
    let ir = ModelIr {
        input_shape: Shape::hwc(2, 2, 1),
        nodes: vec![
            IrNode {
                id: 0,
                op: IrOp::Core(OpSpec::Relu),
                inputs: vec![], // malformed: no inputs
                weights: vec![],
                bias: vec![],
            },
            IrNode {
                id: 1,
                op: IrOp::Core(OpSpec::Relu6),
                inputs: vec![RawInput::Node(0)],
                weights: vec![],
                bias: vec![],
            },
        ],
        output: Some(1),
    };
    let bytes = quantmcu::nn::import::encode(&ir);
    match load_model(&bytes) {
        Err(ImportError::Analysis(report)) => {
            assert!(
                report.diagnostics().iter().any(|d| d.code.as_str() == "S004"),
                "expected an S004 arity diagnostic, got {report}"
            );
        }
        other => panic!("expected ImportError::Analysis, got {other:?}"),
    }
}

// --- corruption properties --------------------------------------------

fn reference_bytes() -> Vec<u8> {
    let spec = quantmcu::nn::GraphSpecBuilder::new(Shape::hwc(8, 8, 3))
        .conv2d(4, 3, 1, 1)
        .relu6()
        .dwconv(3, 1, 1)
        .relu6()
        .global_avg_pool()
        .dense(10)
        .build()
        .unwrap();
    save_model(&quantmcu::nn::init::with_structured_weights(spec, SEED))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any byte yields a typed error (or, for bytes the format
    /// ignores, a clean parse) — never a panic.
    #[test]
    fn byte_flips_never_panic(pos in 0usize..4096, xor in 1u8..=255) {
        let mut bytes = reference_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= xor;
        match load_model(&bytes) {
            Ok(_) => {}
            Err(
                ImportError::BadMagic { .. }
                | ImportError::UnsupportedVersion { .. }
                | ImportError::ChecksumMismatch { .. }
                | ImportError::Truncated { .. }
                | ImportError::UnknownOpcode { .. }
                | ImportError::Corrupted { .. }
                | ImportError::Analysis(_)
                | ImportError::Model { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
    }

    /// Truncating at any length yields a typed error, never a panic.
    #[test]
    fn truncations_yield_typed_errors(len in 0usize..4096) {
        let bytes = reference_bytes();
        let len = len % bytes.len();
        let err = load_model(&bytes[..len]).expect_err("truncated stream must fail");
        prop_assert!(matches!(
            err,
            ImportError::BadMagic { .. }
                | ImportError::Truncated { .. }
                | ImportError::ChecksumMismatch { .. }
                | ImportError::Corrupted { .. }
        ), "unexpected error at len {}: {:?}", len, err);
    }

    /// Body corruption *with a recomputed checksum* still decodes to a
    /// typed error or a valid model — the structural guards hold even
    /// when the integrity layer is defeated.
    #[test]
    fn checksum_repaired_corruption_never_panics(pos in 16usize..4096, val in 0u8..=255) {
        let mut bytes = reference_bytes();
        let pos = 16 + (pos - 16) % (bytes.len() - 16);
        bytes[pos] = val;
        // Re-stamp the checksum so decoding reaches the body parser.
        let sum = quantmcu::nn::codec::checksum(&bytes[16..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
        match load_model(&bytes) {
            Ok(g) => prop_assert!(!g.spec().is_empty()),
            Err(e) => prop_assert!(!format!("{e}").is_empty()),
        }
    }

    /// Any version other than the supported one is rejected, typed.
    #[test]
    fn version_bumps_are_rejected(version in 0u32..1000) {
        prop_assume!(version != FORMAT_VERSION);
        let mut bytes = reference_bytes();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        prop_assert_eq!(
            decode(&bytes).unwrap_err(),
            ImportError::UnsupportedVersion { found: version, supported: FORMAT_VERSION }
        );
    }
}
