//! Static-analyzer contract tests: a seed-defect corpus with one bad
//! graph per diagnostic class (asserting the exact code and severity the
//! analyzer documents), the import-only `BiasAdd` operator, the whole
//! model zoo linting clean, and a property test pinning analyzer shape
//! inference to the shapes the float executor actually produces.

use proptest::prelude::*;

use quantmcu::models::{Model, ModelConfig};
use quantmcu::nn::analyze::{
    analyze_ir, analyze_spec, infer_shapes, AnalyzeOptions, Code, RawInput, Report, Severity,
};
use quantmcu::nn::opt::{IrNode, IrOp, ModelIr};
use quantmcu::nn::{exec::FloatExecutor, init, GraphSpecBuilder, OpSpec};
use quantmcu::tensor::{Bitwidth, Shape, Tensor};

fn conv(out_ch: usize) -> OpSpec {
    OpSpec::Conv2d { out_ch, kernel: 3, stride: 1, pad: 1 }
}

/// A weightless IR node: the analyzer reads only op, inputs and ids.
fn node(id: usize, op: IrOp, inputs: Vec<RawInput>) -> IrNode {
    IrNode { id, op, inputs, weights: vec![], bias: vec![] }
}

fn core(id: usize, op: OpSpec, inputs: Vec<RawInput>) -> IrNode {
    node(id, IrOp::Core(op), inputs)
}

/// An IR over an 8x8x3 image.
fn ir(nodes: Vec<IrNode>, output: usize) -> ModelIr {
    ModelIr { input_shape: Shape::hwc(8, 8, 3), nodes, output: Some(output) }
}

/// The single diagnostic of `code` in `report`, asserting it exists.
fn only(report: &Report, code: Code) -> &quantmcu::nn::analyze::Diagnostic {
    assert!(report.has_code(code), "expected {code:?} in: {report}");
    report
        .diagnostics()
        .iter()
        .find(|d| d.code == code)
        .expect("has_code implies a matching diagnostic")
}

// --- seed-defect corpus: one bad graph per diagnostic class -----------

#[test]
fn dangling_reference_fires_s001_as_error() {
    let ir = ir(vec![core(0, conv(4), vec![RawInput::Node(99)])], 0);
    let report = analyze_ir(&ir, &AnalyzeOptions::default());
    let d = only(&report, Code::DanglingReference);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.node, Some(0));
    assert!(d.message.contains("99"), "message: {}", d.message);
}

#[test]
fn cycle_fires_s002_as_error_naming_a_member() {
    // 0 -> 1 -> 2 -> 0: no topological order exists.
    let ir = ir(
        vec![
            core(0, conv(4), vec![RawInput::Node(2)]),
            core(1, conv(4), vec![RawInput::Node(0)]),
            core(2, conv(4), vec![RawInput::Node(1)]),
        ],
        2,
    );
    let report = analyze_ir(&ir, &AnalyzeOptions::default());
    let d = only(&report, Code::Cycle);
    assert_eq!(d.severity, Severity::Error);
    assert!(d.node.is_some(), "cycle diagnostics anchor at a member node");
    let mut members = d.related.clone();
    members.sort_unstable();
    assert_eq!(members, vec![0, 1, 2], "the cycle lists each member once");
}

#[test]
fn duplicate_id_fires_s003_as_error() {
    let ir = ir(
        vec![core(7, conv(4), vec![RawInput::Image]), core(7, conv(8), vec![RawInput::Image])],
        7,
    );
    let report = analyze_ir(&ir, &AnalyzeOptions::default());
    let d = only(&report, Code::DuplicateId);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.node, Some(7));
}

#[test]
fn bad_arity_fires_s004_as_error() {
    // Add is binary; give it one input.
    let ir = ir(
        vec![
            core(0, conv(4), vec![RawInput::Image]),
            core(1, OpSpec::Add, vec![RawInput::Node(0)]),
        ],
        1,
    );
    let report = analyze_ir(&ir, &AnalyzeOptions::default());
    let d = only(&report, Code::BadArity);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.node, Some(1));
}

#[test]
fn dead_node_fires_d001_as_warning_only() {
    // Node 1 is never consumed and is not the output.
    let ir = ir(
        vec![
            core(0, conv(4), vec![RawInput::Image]),
            core(1, conv(8), vec![RawInput::Node(0)]),
            core(2, OpSpec::Relu, vec![RawInput::Node(0)]),
        ],
        2,
    );
    let report = analyze_ir(&ir, &AnalyzeOptions::default());
    let d = only(&report, Code::DeadNode);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.node, Some(1));
    // A warning alone must not trip strict mode.
    assert!(!report.has_errors(), "dead code is a warning, not an error: {report}");
}

#[test]
fn shape_mismatch_fires_t001_naming_both_producers() {
    // Two branches with different channel counts feed an Add.
    let ir = ir(
        vec![
            core(0, conv(4), vec![RawInput::Image]),
            core(1, conv(8), vec![RawInput::Image]),
            core(2, OpSpec::Add, vec![RawInput::Node(0), RawInput::Node(1)]),
        ],
        2,
    );
    let report = analyze_ir(&ir, &AnalyzeOptions::default());
    let d = only(&report, Code::ShapeMismatch);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.node, Some(2));
    assert_eq!(d.related, vec![0, 1], "mismatch diagnostics name both producers");
    assert!(d.message.contains("node 0") && d.message.contains("node 1"), "message: {}", d.message);
}

#[test]
fn overflowable_width_fires_q001_as_error() {
    // fan-in 64*64*12 = 49152 at 8-bit activations x 8-bit weights
    // exceeds the i32 accumulator headroom the deployment guarantees.
    let ir = ModelIr {
        input_shape: Shape::hwc(64, 64, 12),
        nodes: vec![core(0, OpSpec::Dense { out: 10 }, vec![RawInput::Image])],
        output: Some(0),
    };
    let report = analyze_ir(&ir, &AnalyzeOptions::default());
    let d = only(&report, Code::AccumulatorOverflow);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.node, Some(0));
    // The same layer is provably safe at 2-bit activations.
    let narrow = AnalyzeOptions { act_bits: Bitwidth::W2, ..Default::default() };
    let report = analyze_ir(&ir, &narrow);
    assert!(report.is_empty(), "unexpected diagnostics: {report}");
}

#[test]
fn infeasible_budget_fires_m001_as_error() {
    let spec = GraphSpecBuilder::new(Shape::hwc(16, 16, 3))
        .conv2d(8, 3, 1, 1)
        .global_avg_pool()
        .dense(10)
        .build()
        .unwrap();
    let opts = AnalyzeOptions { sram_budget: Some(8), ..Default::default() };
    let report = analyze_spec(&spec, &opts);
    let d = only(&report, Code::InfeasibleSram);
    assert_eq!(d.severity, Severity::Error);
    assert!(d.node.is_some(), "M001 anchors at the peak node");
    // A generous budget clears it.
    let roomy = AnalyzeOptions { sram_budget: Some(1 << 20), ..Default::default() };
    let report = analyze_spec(&spec, &roomy);
    assert!(report.is_empty(), "unexpected diagnostics: {report}");
}

// --- the import-only BiasAdd -------------------------------------------

#[test]
fn clean_biasadd_has_no_findings_and_keeps_its_input_shape() {
    let ir = ir(
        vec![
            core(0, conv(4), vec![RawInput::Image]),
            node(1, IrOp::BiasAdd, vec![RawInput::Node(0)]),
            core(2, OpSpec::Relu, vec![RawInput::Node(1)]),
        ],
        2,
    );
    let report = analyze_ir(&ir, &AnalyzeOptions::default());
    assert!(report.is_empty(), "unexpected diagnostics: {report}");
    let (table, _) = infer_shapes(&ir);
    assert_eq!(table.node(1), Some(Shape::hwc(8, 8, 4)));
    assert_eq!(table.node(1), table.node(0));
}

#[test]
fn biasadd_with_two_inputs_fires_s004() {
    let ir = ir(
        vec![
            core(0, conv(3), vec![RawInput::Image]),
            node(1, IrOp::BiasAdd, vec![RawInput::Node(0), RawInput::Image]),
        ],
        1,
    );
    let report = analyze_ir(&ir, &AnalyzeOptions::default());
    let d = only(&report, Code::BadArity);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.node, Some(1));
}

#[test]
fn sram_pass_tolerates_an_unfused_biasadd() {
    let ir = ir(
        vec![
            core(0, conv(4), vec![RawInput::Image]),
            node(1, IrOp::BiasAdd, vec![RawInput::Node(0)]),
        ],
        1,
    );
    // The IR does not lower until the optimizer fuses the BiasAdd, so
    // the SRAM pass adds nothing to the structural and shape findings.
    let unbudgeted = analyze_ir(&ir, &AnalyzeOptions::default());
    for budget in [8, 1 << 20] {
        let opts = AnalyzeOptions { sram_budget: Some(budget), ..Default::default() };
        assert_eq!(analyze_ir(&ir, &opts), unbudgeted, "budget {budget}");
    }
}

// --- the zoo lints clean ----------------------------------------------

#[test]
fn entire_zoo_lints_clean_at_exec_scale() {
    for model in Model::ALL {
        let spec = model.spec(ModelConfig::exec_scale()).expect("zoo specs build");
        let opts = AnalyzeOptions { sram_budget: Some(256 * 1024), ..Default::default() };
        let report = analyze_spec(&spec, &opts);
        let findings: Vec<_> =
            report.diagnostics().iter().filter(|d| d.severity >= Severity::Warning).collect();
        assert!(findings.is_empty(), "{} has findings: {report}", model.name());
    }
}

// --- property: inferred shapes match executed shapes ------------------

/// One randomized "zoo-like" op: applied against a tracked (h, w) so the
/// resulting builder chain is always constructible. `code` packs the op
/// kind in its low 3 bits and a size selector above them (the shim's
/// proptest has no tuple strategies).
fn apply(b: GraphSpecBuilder, h: &mut usize, w: &mut usize, code: u8) -> GraphSpecBuilder {
    let sel = (code >> 3) as usize % 4;
    match code % 8 {
        0 => b.conv2d(2 + sel, 3, 1, 1),
        1 if *h >= 3 && *w >= 3 => {
            *h = (*h - 1) / 2 + 1;
            *w = (*w - 1) / 2 + 1;
            b.conv2d(2 + sel, 3, 2, 1)
        }
        2 => b.dwconv(3, 1, 1),
        3 => b.pwconv(1 + sel),
        4 => b.relu6(),
        5 if *h >= 2 && *w >= 2 => {
            *h = (*h - 2) / 2 + 1;
            *w = (*w - 2) / 2 + 1;
            b.max_pool(2, 2)
        }
        6 => b.inverted_residual(2 + sel, 2, 1),
        _ => b.relu(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Analyzer-inferred shapes are bit-identical to the shapes the
    /// float executor materializes, for arbitrary zoo-like graphs.
    #[test]
    fn inferred_shapes_match_executed_shapes(
        h in 4usize..20,
        w in 4usize..20,
        c in 1usize..5,
        ops in prop::collection::vec(0u8..32, 1..8),
        seed in 0u64..1000,
    ) {
        let (mut ch, mut cw) = (h, w);
        let mut b = GraphSpecBuilder::new(Shape::hwc(h, w, c));
        for op in ops {
            b = apply(b, &mut ch, &mut cw, op);
        }
        let spec = b.global_avg_pool().dense(10).build().unwrap();

        // The analyzer's shape table must be complete and error-free.
        let (table, report) = infer_shapes(&ModelIr::from_spec(&spec));
        prop_assert!(!report.has_errors(), "analyzer rejected a valid graph: {report}");
        prop_assert!(table.is_complete());

        // Execute and compare every feature map the executor produces.
        let graph = init::with_structured_weights(spec, seed);
        let mut exec = FloatExecutor::new(&graph);
        let mut checked = 0usize;
        exec.run_with(&Tensor::zeros(Shape::hwc(h, w, c)), |fm, t| {
            assert_eq!(
                table.feature_map(fm),
                Some(t.shape()),
                "feature map {} shape drifted from inference",
                fm.0
            );
            checked += 1;
        }).unwrap();
        prop_assert_eq!(checked, graph.spec().feature_map_count());
    }
}
