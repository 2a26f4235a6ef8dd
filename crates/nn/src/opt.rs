//! Graph-optimizer pass pipeline over the importer IR.
//!
//! The optimizer works on [`ModelIr`], the one graph IR between decode and
//! lowering, which the static analyzer ([`crate::analyze`]) also reads:
//! explicit node ids, declaration order free of topological meaning,
//! per-node weight/bias payloads, and one operator ([`IrOp::BiasAdd`])
//! that exists only at import time. The rewrite passes run *before*
//! lowering, so the float and integer loops of `CompiledGraph`, the patch
//! engine and the planner all execute the optimized graph.
//!
//! [`ModelIr::optimize`] runs four passes, in this order, to a fixed point:
//!
//! 1. `fuse-conv-bias-relu` — folds ONNX-style `BiasAdd` nodes into the
//!    producing conv/dwconv/dense node's fused bias, and collapses
//!    value-exact activation chains (`relu∘relu`, `relu∘relu6`,
//!    `relu6∘relu6`, `relu6∘relu`).
//! 2. `fold-constants` — composes adjacent `dense∘dense` and
//!    1×1-`conv∘conv` pairs into a single node by multiplying their
//!    weight matrices at compile time, when the folded node costs fewer
//!    MACs than the pair.
//! 3. `remove-identity` — drops no-op nodes: 1×1/stride-1 pooling and
//!    single-input concat.
//! 4. `eliminate-dead` — removes nodes unreachable from the output,
//!    turning the analyzer's `D001` dead-node *warning* into an auto-fix.
//!
//! Every rewrite strictly reduces the node count, so the fixed point is
//! reached in at most `nodes + 1` rounds; the loop also stops at that cap
//! and reports both in [`OptStats`].
//!
//! [`ModelIr::lower`] validates the result through the analyzer's
//! structural and shape passes and through parameter-length checks, keeps
//! the nodes that reach the output, and returns typed [`LowerError`]s
//! instead of panicking.

use std::fmt;

use quantmcu_tensor::Shape;

use crate::analyze::{self, RawInput, Report};
use crate::graph::expected_param_lens;
use crate::{Graph, GraphError, GraphSpec, OpParams, OpSpec, Source};

// ---------------------------------------------------------------------------
// IR
// ---------------------------------------------------------------------------

/// An operator in the importer IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrOp {
    /// An operator of the core executable IR ([`OpSpec`]).
    Core(OpSpec),
    /// Per-channel bias addition (ONNX `Conv` + `Add` idiom): one input,
    /// whose shape it keeps. Exists only at import time: the
    /// `fuse-conv-bias-relu` pass folds it into the producing node's fused
    /// bias, and lowering rejects any live instance that survives.
    BiasAdd,
}

impl IrOp {
    /// A short lowercase operator name for display and errors.
    pub fn name(&self) -> &'static str {
        match self {
            IrOp::Core(op) => op.name(),
            IrOp::BiasAdd => "biasadd",
        }
    }

    /// Number of inputs the operator consumes (`usize::MAX` marks
    /// variadic), as [`OpSpec::arity`].
    pub fn arity(&self) -> usize {
        match self {
            IrOp::Core(op) => op.arity(),
            IrOp::BiasAdd => 1,
        }
    }

    /// Infers the output shape from the input shapes, as
    /// [`OpSpec::output_shape`]; `BiasAdd` keeps its input's shape.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] when arity or shapes are incompatible.
    pub fn output_shape(&self, inputs: &[Shape]) -> Result<Shape, GraphError> {
        match self {
            IrOp::Core(op) => op.output_shape(inputs),
            IrOp::BiasAdd => inputs.first().copied().ok_or(GraphError::ArityMismatch {
                op: self.name(),
                expected: 1,
                actual: 0,
            }),
        }
    }
}

impl fmt::Display for IrOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrOp::Core(op) => op.fmt(f),
            IrOp::BiasAdd => f.write_str("biasadd"),
        }
    }
}

/// One node of a [`ModelIr`]: an operator, its inputs, and its payload.
#[derive(Debug, Clone, PartialEq)]
pub struct IrNode {
    /// The node's id (referenced by [`RawInput::Node`]). Ids are arbitrary
    /// but unique; declaration order carries no meaning.
    pub id: usize,
    /// The operator.
    pub op: IrOp,
    /// Input sources, in operator order.
    pub inputs: Vec<RawInput>,
    /// Flattened weight buffer in the operator's canonical layout
    /// (see [`OpParams`]); empty for weightless operators.
    pub weights: Vec<f32>,
    /// Per-output-channel bias; for conv/dwconv/dense an empty buffer
    /// means all-zero bias. For [`IrOp::BiasAdd`] this is the addend.
    pub bias: Vec<f32>,
}

/// The graph IR: nodes with explicit ids and per-node parameters.
///
/// This is the form the [`crate::import`] decoder produces, the analyzer
/// checks and the optimizer passes rewrite. [`ModelIr::lower`] turns it
/// into an executable [`Graph`] after analyzer validation.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelIr {
    /// Shape of the input image.
    pub input_shape: Shape,
    /// The nodes, in declaration (not necessarily execution) order.
    pub nodes: Vec<IrNode>,
    /// Id of the output node; `None` selects the last declared node.
    pub output: Option<usize>,
}

impl ModelIr {
    /// Re-expresses a validated spec in IR form, without parameters (ids =
    /// node indices, the last node as explicit output).
    pub fn from_spec(spec: &GraphSpec) -> Self {
        let nodes = spec
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, n)| IrNode {
                id: i,
                op: IrOp::Core(n.op),
                inputs: n
                    .inputs
                    .iter()
                    .map(|s| match *s {
                        Source::Input => RawInput::Image,
                        Source::Node(j) => RawInput::Node(j),
                    })
                    .collect(),
                weights: Vec::new(),
                bias: Vec::new(),
            })
            .collect();
        ModelIr { input_shape: spec.input_shape(), nodes, output: spec.len().checked_sub(1) }
    }

    /// Re-expresses an executable graph in IR form: [`ModelIr::from_spec`]
    /// plus the parameters.
    pub fn from_graph(graph: &Graph) -> Self {
        let mut ir = ModelIr::from_spec(graph.spec());
        for (i, node) in ir.nodes.iter_mut().enumerate() {
            node.weights = graph.params(i).weights().to_vec();
            node.bias = graph.params(i).bias().to_vec();
        }
        ir
    }

    /// The id of the output node: the explicit `output`, or the last
    /// declared node. `None` for an empty graph.
    pub fn output_id(&self) -> Option<usize> {
        self.output.or_else(|| self.nodes.last().map(|n| n.id))
    }

    /// Index of the node with `id`, if any.
    fn index_of(&self, id: usize) -> Option<usize> {
        self.nodes.iter().position(|n| n.id == id)
    }

    /// Indices of nodes that read the output of node `id`.
    fn consumers(&self, id: usize) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.inputs.contains(&RawInput::Node(id)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Rewrites every reference to node `from` (inputs and output) to
    /// point at `to`, then removes node `from`.
    fn splice_out(&mut self, from: usize, to: RawInput) {
        for n in &mut self.nodes {
            for inp in &mut n.inputs {
                if *inp == RawInput::Node(from) {
                    *inp = to;
                }
            }
        }
        if self.output_id() == Some(from) {
            self.output = match to {
                RawInput::Node(id) => Some(id),
                RawInput::Image => self.output, // caller guards this case
            };
        }
        let idx = self.index_of(from).expect("splice_out target exists");
        self.nodes.remove(idx);
    }

    /// Lowers the IR into an executable [`Graph`]: analyzer validation
    /// (structure + shape inference), topological order over the nodes
    /// that reach the output (dead nodes are dropped), parameter
    /// reordering into that order, and parameter-length validation. Never
    /// panics on malformed input.
    ///
    /// # Errors
    ///
    /// [`LowerError::Analysis`] when the analyzer rejects the structure or
    /// shapes, [`LowerError::Unlowerable`] when a live import-only
    /// operator (an unfused `BiasAdd`) survives, and
    /// [`LowerError::ParamLength`] when a weight or bias buffer does not
    /// match its operator's required length.
    pub fn lower(mut self) -> Result<Graph, LowerError> {
        let (spec, order) = analyze::lower(&self)?;
        let mut params = Vec::with_capacity(order.len());
        for (p, &idx) in order.iter().enumerate() {
            // `order` names each live node once, so every payload moves
            // into the graph without a copy.
            let node = &mut self.nodes[idx];
            let (expect_w, expect_b) = expected_param_lens(&spec, p);
            if expect_w == 0 {
                if !node.weights.is_empty() || !node.bias.is_empty() {
                    return Err(LowerError::ParamLength {
                        id: node.id,
                        kind: "weights",
                        expected: 0,
                        actual: node.weights.len().max(node.bias.len()),
                    });
                }
                params.push(OpParams::None);
                continue;
            }
            if node.weights.len() != expect_w {
                return Err(LowerError::ParamLength {
                    id: node.id,
                    kind: "weights",
                    expected: expect_w,
                    actual: node.weights.len(),
                });
            }
            let bias = if node.bias.is_empty() {
                vec![0.0; expect_b]
            } else if node.bias.len() == expect_b {
                std::mem::take(&mut node.bias)
            } else {
                return Err(LowerError::ParamLength {
                    id: node.id,
                    kind: "bias",
                    expected: expect_b,
                    actual: node.bias.len(),
                });
            };
            params.push(OpParams::Weights { weights: std::mem::take(&mut node.weights), bias });
        }
        Ok(Graph::new(spec, params))
    }
}

/// Why an IR could not be lowered into an executable [`Graph`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LowerError {
    /// An import-only operator survived optimization (e.g. a `BiasAdd`
    /// whose producer could not absorb it).
    Unlowerable {
        /// Offending node id.
        id: usize,
        /// Operator name.
        op: &'static str,
    },
    /// A node's weight or bias buffer has the wrong length for its
    /// operator and input shape.
    ParamLength {
        /// Offending node id.
        id: usize,
        /// `"weights"` or `"bias"`.
        kind: &'static str,
        /// Required buffer length.
        expected: usize,
        /// Actual buffer length.
        actual: usize,
    },
    /// The static analyzer rejected the graph's structure or shapes.
    Analysis(Report),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::Unlowerable { id, op } => {
                write!(f, "node {id}: import-only operator `{op}` cannot be lowered")
            }
            LowerError::ParamLength { id, kind, expected, actual } => {
                write!(f, "node {id}: {kind} length {actual}, operator requires {expected}")
            }
            LowerError::Analysis(report) => write!(f, "analysis failed: {report}"),
        }
    }
}

impl std::error::Error for LowerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LowerError::Analysis(report) => Some(report),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Pass pipeline
// ---------------------------------------------------------------------------

/// Rewrite counts accumulated by a [`ModelIr::optimize`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptStats {
    /// Rounds executed (including the final all-quiet round).
    pub rounds: usize,
    /// Total rewrites per pass, in pipeline order.
    pub rewrites: Vec<(&'static str, usize)>,
    /// `true` when the run ended because no pass fired (as opposed to
    /// hitting the round cap).
    pub fixed_point: bool,
}

impl OptStats {
    /// Total rewrites across all passes.
    pub fn total(&self) -> usize {
        self.rewrites.iter().map(|&(_, n)| n).sum()
    }
}

impl fmt::Display for OptStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} rewrite(s) in {} round(s)", self.total(), self.rounds)?;
        for (name, n) in self.rewrites.iter().filter(|&&(_, n)| n > 0) {
            write!(f, ", {name}: {n}")?;
        }
        if !self.fixed_point {
            write!(f, " (round cap hit)")?;
        }
        Ok(())
    }
}

/// One application of a rewrite pass, returning the number of rewrites it
/// performed. Every rewrite must strictly reduce the node count; the round
/// cap relies on it.
type Pass = fn(&mut ModelIr) -> usize;

/// The pipeline in order, each pass under the name [`OptStats`] reports.
const PASSES: [(&str, Pass); 4] = [
    ("fuse-conv-bias-relu", fuse_conv_bias_relu),
    ("fold-constants", fold_constants),
    ("remove-identity", remove_identity),
    ("eliminate-dead", eliminate_dead),
];

impl ModelIr {
    /// Runs the four rewrite passes, in order, until a round fires none
    /// or `nodes + 1` rounds have run.
    pub fn optimize(&mut self) -> OptStats {
        let mut rewrites: Vec<(&'static str, usize)> =
            PASSES.iter().map(|&(name, _)| (name, 0)).collect();
        // Each rewrite removes at least one node, so `nodes + 1` rounds
        // suffice.
        let bound = self.nodes.len() + 1;
        let mut rounds = 0;
        let mut fixed_point = false;
        while rounds < bound {
            rounds += 1;
            let mut fired = 0;
            for (count, &(_, pass)) in rewrites.iter_mut().zip(&PASSES) {
                let n = pass(self);
                count.1 += n;
                fired += n;
            }
            if fired == 0 {
                fixed_point = true;
                break;
            }
        }
        OptStats { rounds, rewrites, fixed_point }
    }
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// Folds `BiasAdd` nodes into their producing conv/dwconv/dense node's
/// fused bias, and collapses value-exact activation chains.
///
/// Bias folding requires the producer to (a) carry weights, (b) have the
/// `BiasAdd` as its *only* consumer, and (c) not be the graph output —
/// otherwise the pre-bias value is observable and the rewrite is skipped.
/// Activation collapses are value-exact: `relu(relu(x)) = relu(x)`,
/// `relu(relu6(x)) = relu6(x)`, `relu6(relu6(x)) = relu6(x)` and
/// `relu6(relu(x)) = relu6(x)` (the last removes the inner node and so
/// additionally requires the inner `relu` to be single-consumer and not
/// the output).
fn fuse_conv_bias_relu(ir: &mut ModelIr) -> usize {
    let mut fired = 0;
    // One rewrite per scan keeps index bookkeeping trivial; the loop
    // rescans until quiet.
    loop {
        if let Some((node_id, producer)) = find_foldable_bias(ir) {
            let bidx = ir.index_of(node_id).expect("bias node exists");
            let addend = std::mem::take(&mut ir.nodes[bidx].bias);
            let pidx = ir.index_of(producer).expect("producer exists");
            if ir.nodes[pidx].bias.is_empty() {
                ir.nodes[pidx].bias = addend;
            } else {
                for (b, a) in ir.nodes[pidx].bias.iter_mut().zip(&addend) {
                    *b += a;
                }
            }
            ir.splice_out(node_id, RawInput::Node(producer));
            fired += 1;
            continue;
        }
        if let Some((drop_id, keep)) = find_collapsible_activation(ir) {
            ir.splice_out(drop_id, keep);
            fired += 1;
            continue;
        }
        return fired;
    }
}

/// A `BiasAdd` node whose producer can absorb it: returns
/// `(biasadd_id, producer_id)`.
fn find_foldable_bias(ir: &ModelIr) -> Option<(usize, usize)> {
    for n in &ir.nodes {
        if n.op != IrOp::BiasAdd {
            continue;
        }
        let [RawInput::Node(pid)] = n.inputs[..] else { continue };
        let Some(pidx) = ir.index_of(pid) else { continue };
        let p = &ir.nodes[pidx];
        let IrOp::Core(op) = p.op else { continue };
        if !op.has_weights() {
            continue;
        }
        // The addend must be one bias per output channel; when the
        // producer already has a bias the lengths must agree.
        if !p.bias.is_empty() && p.bias.len() != n.bias.len() {
            continue;
        }
        if ir.consumers(pid).len() != 1 || ir.output_id() == Some(pid) {
            continue;
        }
        return Some((n.id, pid));
    }
    None
}

/// A redundant activation in a `relu`/`relu6` chain: returns
/// `(node_id_to_drop, input_to_redirect_consumers_to)`.
fn find_collapsible_activation(ir: &ModelIr) -> Option<(usize, RawInput)> {
    for n in &ir.nodes {
        let outer = match n.op {
            IrOp::Core(OpSpec::Relu) => OpSpec::Relu,
            IrOp::Core(OpSpec::Relu6) => OpSpec::Relu6,
            _ => continue,
        };
        let [RawInput::Node(pid)] = n.inputs[..] else { continue };
        let Some(pidx) = ir.index_of(pid) else { continue };
        let inner = match ir.nodes[pidx].op {
            IrOp::Core(OpSpec::Relu) => OpSpec::Relu,
            IrOp::Core(OpSpec::Relu6) => OpSpec::Relu6,
            _ => continue,
        };
        match (inner, outer) {
            // Outer node is a no-op on an already-clamped value.
            (OpSpec::Relu, OpSpec::Relu)
            | (OpSpec::Relu6, OpSpec::Relu6)
            | (OpSpec::Relu6, OpSpec::Relu) => {
                return Some((n.id, RawInput::Node(pid)));
            }
            // relu6(relu(x)) = relu6(x): drop the inner relu, but only
            // when nothing else observes it. A malformed inner node with
            // the wrong arity is left for the analyzer's S004 diagnostic.
            (OpSpec::Relu, OpSpec::Relu6) => {
                if ir.consumers(pid).len() != 1 || ir.output_id() == Some(pid) {
                    continue;
                }
                let [keep] = ir.nodes[pidx].inputs[..] else { continue };
                return Some((pid, keep));
            }
            _ => continue,
        }
    }
    None
}

/// Composes adjacent affine pairs — `dense∘dense` and
/// 1×1/stride-1/pad-0 `conv2d∘conv2d` — into one node by multiplying
/// their weight matrices and folding biases (`W = W₂W₁`,
/// `b = W₂b₁ + b₂`) at compile time.
///
/// A pair folds only when the product is cheaper to run than the pair:
/// `in → out₁ → out₂` costs `out₁·in + out₂·out₁` MACs per pixel, the
/// folded node `out₂·in`. A bottleneck (`out₁` below both `in` and
/// `out₂`, as in MobileNetV2's linear bottlenecks) therefore stays two
/// nodes, and so does the narrow feature map between them.
///
/// The intermediate node must have a single consumer and must not be the
/// output. Floating-point composition reassociates sums, so downstream
/// outputs match the unfolded graph to within ULP-level error (covered by
/// the parity suite), not bit-exactly.
fn fold_constants(ir: &mut ModelIr) -> usize {
    let mut fired = 0;
    while let Some((outer_id, inner_id, out2, out1)) = find_affine_pair(ir) {
        let iidx = ir.index_of(inner_id).expect("inner exists");
        let inner = ir.nodes.remove(iidx);
        let oidx = ir.index_of(outer_id).expect("outer exists");
        let outer = &mut ir.nodes[oidx];
        let w1 = &inner.weights;
        let w2 = &outer.weights;
        let input_len = w1.len() / out1;
        // W[o][i] = Σ_k W2[o][k] · W1[k][i]
        let mut w = vec![0.0f32; out2 * input_len];
        for o in 0..out2 {
            for k in 0..out1 {
                let w2ok = w2[o * out1 + k];
                if w2ok == 0.0 {
                    continue;
                }
                let row1 = &w1[k * input_len..(k + 1) * input_len];
                let row = &mut w[o * input_len..(o + 1) * input_len];
                for (wi, w1ki) in row.iter_mut().zip(row1) {
                    *wi += w2ok * w1ki;
                }
            }
        }
        // b[o] = Σ_k W2[o][k] · b1[k] + b2[o]
        let mut b = vec![0.0f32; out2];
        if !inner.bias.is_empty() {
            for (o, bo) in b.iter_mut().enumerate() {
                for (k, b1k) in inner.bias.iter().enumerate() {
                    *bo += w2[o * out1 + k] * b1k;
                }
            }
        }
        for (bo, b2o) in b.iter_mut().zip(&outer.bias) {
            *bo += b2o;
        }
        outer.weights = w;
        outer.bias = b;
        outer.inputs = inner.inputs;
        fired += 1;
    }
    fired
}

/// An adjacent affine pair eligible for folding: returns
/// `(outer_id, inner_id, outer_out, inner_out)`.
fn find_affine_pair(ir: &ModelIr) -> Option<(usize, usize, usize, usize)> {
    let affine_out = |op: IrOp| -> Option<(usize, bool)> {
        match op {
            IrOp::Core(OpSpec::Dense { out }) => Some((out, false)),
            IrOp::Core(OpSpec::Conv2d { out_ch, kernel: 1, stride: 1, pad: 0 }) => {
                Some((out_ch, true))
            }
            _ => None,
        }
    };
    for n in &ir.nodes {
        let Some((out2, outer_is_conv)) = affine_out(n.op) else { continue };
        let [RawInput::Node(pid)] = n.inputs[..] else { continue };
        let Some(pidx) = ir.index_of(pid) else { continue };
        let p = &ir.nodes[pidx];
        let Some((out1, inner_is_conv)) = affine_out(p.op) else { continue };
        if outer_is_conv != inner_is_conv {
            continue;
        }
        if ir.consumers(pid).len() != 1 || ir.output_id() == Some(pid) {
            continue;
        }
        // Both weight and bias buffers must already be shape-consistent;
        // malformed payloads are left for `lower()` to reject with a
        // typed error rather than folded out of range or truncated.
        if out1 == 0 || p.weights.len() % out1 != 0 || n.weights.len() != out2 * out1 {
            continue;
        }
        if !(p.bias.is_empty() || p.bias.len() == out1)
            || !(n.bias.is_empty() || n.bias.len() == out2)
        {
            continue;
        }
        // A dense or 1×1 conv node costs one MAC per weight per pixel, so
        // the fold pays when its `out₂ × in` matrix is smaller than the
        // pair's two (checked: shapes may come from a damaged file).
        let pair = p.weights.len() + n.weights.len();
        if out2.checked_mul(p.weights.len() / out1).map_or(true, |folded| folded >= pair) {
            continue;
        }
        return Some((n.id, pid, out2, out1));
    }
    None
}

/// Removes no-op nodes: `maxpool`/`avgpool` with a 1×1 window and
/// stride 1, and `concat` over a single input. Consumers are redirected
/// to the node's input; a no-op that *is* the output and reads the raw
/// image is kept (a [`Graph`] output must be a node).
fn remove_identity(ir: &mut ModelIr) -> usize {
    let mut fired = 0;
    loop {
        let target = ir.nodes.iter().find_map(|n| {
            let identity = matches!(
                n.op,
                IrOp::Core(OpSpec::MaxPool { kernel: 1, stride: 1 })
                    | IrOp::Core(OpSpec::AvgPool { kernel: 1, stride: 1 })
            ) || (n.op == IrOp::Core(OpSpec::Concat) && n.inputs.len() == 1);
            if !identity || n.inputs.len() != 1 {
                return None;
            }
            if n.inputs[0] == RawInput::Image && ir.output_id() == Some(n.id) {
                return None;
            }
            Some((n.id, n.inputs[0]))
        });
        match target {
            Some((id, input)) => {
                ir.splice_out(id, input);
                fired += 1;
            }
            None => return fired,
        }
    }
}

/// Removes nodes unreachable from the output — the auto-fix for the
/// analyzer's `D001` dead-node warning. Skipped entirely when the output
/// id does not resolve (the analyzer reports that as `S001`).
fn eliminate_dead(ir: &mut ModelIr) -> usize {
    let Some(out_id) = ir.output_id() else { return 0 };
    let Some(out_idx) = ir.index_of(out_id) else { return 0 };
    let mut live = vec![false; ir.nodes.len()];
    let mut stack = vec![out_idx];
    live[out_idx] = true;
    while let Some(idx) = stack.pop() {
        for inp in &ir.nodes[idx].inputs {
            if let RawInput::Node(id) = *inp {
                if let Some(i) = ir.index_of(id) {
                    if !live[i] {
                        live[i] = true;
                        stack.push(i);
                    }
                }
            }
        }
    }
    let before = ir.nodes.len();
    let mut keep = live.into_iter();
    ir.nodes.retain(|_| keep.next().unwrap_or(false));
    // Pin the output: "last declared" may now name a different node.
    ir.output = Some(out_id);
    before - ir.nodes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze_ir, Code};
    use crate::builder::GraphSpecBuilder;
    use crate::init;

    fn conv(id: usize, input: RawInput, out_ch: usize, bias: Vec<f32>) -> IrNode {
        IrNode {
            id,
            op: IrOp::Core(OpSpec::Conv2d { out_ch, kernel: 1, stride: 1, pad: 0 }),
            inputs: vec![input],
            weights: (0..out_ch * 3).map(|i| i as f32 * 0.25 - 0.5).collect(),
            bias,
        }
    }

    fn plain(id: usize, op: OpSpec, input: RawInput) -> IrNode {
        IrNode { id, op: IrOp::Core(op), inputs: vec![input], weights: vec![], bias: vec![] }
    }

    fn ir(nodes: Vec<IrNode>) -> ModelIr {
        ModelIr { input_shape: Shape::hwc(4, 4, 3), nodes, output: None }
    }

    #[test]
    fn biasadd_folds_into_conv() {
        let mut m = ir(vec![
            conv(0, RawInput::Image, 2, vec![]),
            IrNode {
                id: 1,
                op: IrOp::BiasAdd,
                inputs: vec![RawInput::Node(0)],
                weights: vec![],
                bias: vec![0.5, -1.0],
            },
            plain(2, OpSpec::Relu, RawInput::Node(1)),
        ]);
        // Wrong weight count for c=3 input would fail lowering; fix lens.
        m.nodes[0].weights = vec![0.1; 2 * 3];
        let stats = m.optimize();
        assert!(stats.fixed_point);
        assert_eq!(m.nodes.len(), 2);
        assert_eq!(m.nodes[0].bias, vec![0.5, -1.0]);
        assert_eq!(m.nodes[1].inputs, vec![RawInput::Node(0)]);
        // Reference: the same graph with the bias built in.
        let spec =
            GraphSpecBuilder::new(Shape::hwc(4, 4, 3)).conv2d(2, 1, 1, 0).relu().build().unwrap();
        let reference = Graph::new(
            spec,
            vec![
                OpParams::Weights { weights: vec![0.1; 6], bias: vec![0.5, -1.0] },
                OpParams::None,
            ],
        );
        assert_eq!(m.lower().unwrap(), reference);
    }

    #[test]
    fn biasadd_not_folded_when_producer_shared() {
        let mut m = ir(vec![
            conv(0, RawInput::Image, 3, vec![]),
            IrNode {
                id: 1,
                op: IrOp::BiasAdd,
                inputs: vec![RawInput::Node(0)],
                weights: vec![],
                bias: vec![1.0, 1.0, 1.0],
            },
            IrNode {
                id: 2,
                op: IrOp::Core(OpSpec::Add),
                inputs: vec![RawInput::Node(1), RawInput::Node(0)],
                weights: vec![],
                bias: vec![],
            },
        ]);
        m.nodes[0].weights = vec![0.1; 9];
        let before = m.clone();
        assert_eq!(fuse_conv_bias_relu(&mut m), 0);
        assert_eq!(m, before);
        // And an unfused BiasAdd is a typed lowering error, not a panic.
        assert!(matches!(m.lower(), Err(LowerError::Unlowerable { id: 1, .. })));
    }

    #[test]
    fn relu_chains_collapse() {
        let mut m = ir(vec![
            plain(0, OpSpec::Relu, RawInput::Image),
            plain(1, OpSpec::Relu, RawInput::Node(0)),
            plain(2, OpSpec::Relu6, RawInput::Node(1)),
            plain(3, OpSpec::Relu6, RawInput::Node(2)),
            plain(4, OpSpec::Relu, RawInput::Node(3)),
        ]);
        let stats = m.optimize();
        assert!(stats.fixed_point);
        // relu∘relu → relu; relu6∘relu → relu6; relu6∘relu6 → relu6;
        // relu∘relu6 → relu6. Everything collapses to relu6(relu(x)),
        // and then the inner relu is absorbed too → single relu6.
        assert_eq!(m.nodes.len(), 1);
        assert_eq!(m.nodes[0].op, IrOp::Core(OpSpec::Relu6));
        assert_eq!(m.nodes[0].inputs, vec![RawInput::Image]);
    }

    #[test]
    fn dense_pair_folds_to_reference_values() {
        // x (len 2) → dense([ [1,2],[3,4] ], b=[1,0]) → dense([ [1,1] ], b=[10])
        let mut m = ModelIr {
            input_shape: Shape::hwc(1, 1, 2),
            nodes: vec![
                IrNode {
                    id: 0,
                    op: IrOp::Core(OpSpec::Dense { out: 2 }),
                    inputs: vec![RawInput::Image],
                    weights: vec![1.0, 2.0, 3.0, 4.0],
                    bias: vec![1.0, 0.0],
                },
                IrNode {
                    id: 1,
                    op: IrOp::Core(OpSpec::Dense { out: 1 }),
                    inputs: vec![RawInput::Node(0)],
                    weights: vec![1.0, 1.0],
                    bias: vec![10.0],
                },
            ],
            output: None,
        };
        assert_eq!(fold_constants(&mut m), 1);
        assert_eq!(m.nodes.len(), 1);
        // W = [1,1]·[[1,2],[3,4]] = [4,6]; b = [1,1]·[1,0] + 10 = 11.
        assert_eq!(m.nodes[0].weights, vec![4.0, 6.0]);
        assert_eq!(m.nodes[0].bias, vec![11.0]);
        assert_eq!(m.nodes[0].op, IrOp::Core(OpSpec::Dense { out: 1 }));
        assert_eq!(m.nodes[0].inputs, vec![RawInput::Image]);
        m.lower().unwrap();
    }

    /// `in → mid → out` as two 1×1 convs over a 4×4 map.
    fn pointwise_pair(input: usize, mid: usize, out: usize) -> ModelIr {
        let pw = |id, input_src, c_in: usize, c_out: usize| IrNode {
            id,
            op: IrOp::Core(OpSpec::Conv2d { out_ch: c_out, kernel: 1, stride: 1, pad: 0 }),
            inputs: vec![input_src],
            weights: (0..c_out * c_in).map(|i| (i % 7) as f32 * 0.125 - 0.375).collect(),
            bias: (0..c_out).map(|i| i as f32 * 0.01).collect(),
        };
        ModelIr {
            input_shape: Shape::hwc(4, 4, input),
            nodes: vec![
                pw(0, RawInput::Image, input, mid),
                pw(1, RawInput::Node(0), mid, out),
                plain(2, OpSpec::Relu6, RawInput::Node(1)),
            ],
            output: None,
        }
    }

    #[test]
    fn bottleneck_pair_is_not_folded() {
        // MobileNetV2's head: a 16→8 linear bottleneck, then the 8→48
        // expansion. Folded it would cost 48·16 = 768 MACs per pixel
        // against 16·8 + 8·48 = 512.
        let mut m = pointwise_pair(16, 8, 48);
        let before = m.clone();
        assert_eq!(fold_constants(&mut m), 0);
        assert_eq!(m, before);
        // Equal cost is no gain either: 8·8 = 64 = 8·4 + 4·8.
        let mut m = pointwise_pair(8, 4, 8);
        assert_eq!(fold_constants(&mut m), 0);
    }

    #[test]
    fn expanding_pair_folds() {
        // 16→32→8: 8·16 = 128 MACs per pixel folded, 16·32 + 32·8 = 768
        // unfolded.
        let mut m = pointwise_pair(16, 32, 8);
        assert_eq!(fold_constants(&mut m), 1);
        assert_eq!(m.nodes.len(), 2);
        assert_eq!(m.nodes[0].weights.len(), 8 * 16);
        assert_eq!(m.nodes[0].inputs, vec![RawInput::Image]);
        m.lower().unwrap();
    }

    #[test]
    fn identity_pool_and_single_concat_removed() {
        let mut m = ir(vec![
            plain(0, OpSpec::Relu, RawInput::Image),
            plain(1, OpSpec::MaxPool { kernel: 1, stride: 1 }, RawInput::Node(0)),
            plain(2, OpSpec::Concat, RawInput::Node(1)),
            plain(3, OpSpec::AvgPool { kernel: 1, stride: 1 }, RawInput::Node(2)),
            plain(4, OpSpec::Relu6, RawInput::Node(3)),
        ]);
        let stats = m.optimize();
        assert!(stats.fixed_point);
        assert_eq!(m.nodes.len(), 1);
        assert_eq!(m.nodes[0].op, IrOp::Core(OpSpec::Relu6));
    }

    #[test]
    fn identity_at_output_reading_image_is_kept() {
        let mut m = ir(vec![plain(7, OpSpec::MaxPool { kernel: 1, stride: 1 }, RawInput::Image)]);
        let stats = m.optimize();
        assert!(stats.fixed_point);
        assert_eq!(m.nodes.len(), 1);
        m.lower().unwrap();
    }

    #[test]
    fn dead_nodes_removed_and_d001_cleared() {
        let m0 = ir(vec![
            plain(0, OpSpec::Relu, RawInput::Image),
            plain(1, OpSpec::Relu6, RawInput::Image), // dead
            conv(2, RawInput::Node(1), 2, vec![]),    // dead (depends on dead)
            plain(3, OpSpec::GlobalAvgPool, RawInput::Node(0)),
        ]);
        let mut m = ModelIr { output: Some(3), ..m0 };
        let report = analyze_ir(&m, &Default::default());
        assert!(report.diagnostics().iter().any(|d| d.code == Code::DeadNode));

        let stats = m.optimize();
        assert!(stats.fixed_point);
        assert_eq!(m.nodes.len(), 2);
        let after = analyze_ir(&m, &Default::default());
        assert!(!after.diagnostics().iter().any(|d| d.code == Code::DeadNode));
    }

    #[test]
    fn pass_manager_terminates_on_pathological_chain() {
        // A long all-identity chain: every round fires, node count
        // strictly decreases, fixed point reached well under the bound.
        let mut nodes = vec![plain(0, OpSpec::Relu, RawInput::Image)];
        for i in 1..64 {
            nodes.push(plain(i, OpSpec::MaxPool { kernel: 1, stride: 1 }, RawInput::Node(i - 1)));
        }
        let mut m = ir(nodes);
        let stats = m.optimize();
        assert!(stats.fixed_point);
        assert!(stats.rounds <= 65);
        assert_eq!(m.nodes.len(), 1);
    }

    #[test]
    fn optimize_zoo_like_graph_is_value_preserving_shape() {
        let spec = GraphSpecBuilder::new(Shape::hwc(8, 8, 3))
            .conv2d(8, 3, 1, 1)
            .relu6()
            .dwconv(3, 1, 1)
            .relu6()
            .global_avg_pool()
            .dense(10)
            .build()
            .unwrap();
        let g = init::with_structured_weights(spec, 9);
        let mut ir = ModelIr::from_graph(&g);
        let stats = ir.optimize();
        // Nothing fusible: graph must come back identical.
        assert_eq!(stats.total(), 0);
        assert_eq!(ir.lower().unwrap(), g);
    }

    #[test]
    fn fold_skips_mismatched_bias_and_lower_rejects_it() {
        // Inner dense carries a 3-entry bias but only 2 output channels:
        // folding must skip the pair (no OOB, no silent truncation) and
        // lowering must reject the bias with a typed error.
        let mut m = ModelIr {
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
        assert_eq!(fold_constants(&mut m), 0);
        let stats = m.optimize();
        assert!(stats.fixed_point);
        assert_eq!(m.nodes.len(), 2, "malformed pair must survive unfolded");
        assert!(matches!(
            m.lower(),
            Err(LowerError::ParamLength { id: 0, kind: "bias", expected: 2, actual: 3 })
        ));
    }

    #[test]
    fn fold_skips_mismatched_outer_bias() {
        // Outer dense bias too short (zip would silently truncate).
        let mut m = ModelIr {
            input_shape: Shape::hwc(1, 1, 2),
            nodes: vec![
                IrNode {
                    id: 0,
                    op: IrOp::Core(OpSpec::Dense { out: 2 }),
                    inputs: vec![RawInput::Image],
                    weights: vec![1.0, 2.0, 3.0, 4.0],
                    bias: vec![],
                },
                IrNode {
                    id: 1,
                    op: IrOp::Core(OpSpec::Dense { out: 2 }),
                    inputs: vec![RawInput::Node(0)],
                    weights: vec![1.0, 1.0, 1.0, 1.0],
                    bias: vec![5.0], // too short: out = 2
                },
            ],
            output: None,
        };
        assert_eq!(fold_constants(&mut m), 0);
        assert!(matches!(
            m.lower(),
            Err(LowerError::ParamLength { id: 1, kind: "bias", expected: 2, actual: 1 })
        ));
    }

    #[test]
    fn activation_collapse_tolerates_zero_input_nodes() {
        // relu6(relu(x)) where the inner relu has NO inputs: the collapse
        // must skip it and the arity error surfaces as analyzer S004.
        let mut m = ModelIr {
            input_shape: Shape::hwc(2, 2, 1),
            nodes: vec![
                IrNode {
                    id: 0,
                    op: IrOp::Core(OpSpec::Relu),
                    inputs: vec![],
                    weights: vec![],
                    bias: vec![],
                },
                plain(1, OpSpec::Relu6, RawInput::Node(0)),
            ],
            output: Some(1),
        };
        let stats = m.optimize();
        assert!(stats.fixed_point);
        assert_eq!(m.nodes.len(), 2, "zero-input node must not be spliced");
        match m.lower() {
            Err(LowerError::Analysis(report)) => {
                assert!(report.diagnostics().iter().any(|d| d.code == Code::BadArity));
            }
            other => panic!("expected S004 analysis error, got {other:?}"),
        }
    }

    #[test]
    fn identity_removal_tolerates_zero_input_nodes() {
        // A zero-input single-input-class identity candidate (concat with
        // no inputs is not an identity; pool with no inputs must be left
        // for the analyzer) — passes must not index out of bounds.
        let mut m = ir(vec![
            IrNode {
                id: 0,
                op: IrOp::Core(OpSpec::MaxPool { kernel: 1, stride: 1 }),
                inputs: vec![],
                weights: vec![],
                bias: vec![],
            },
            plain(1, OpSpec::Relu, RawInput::Node(0)),
        ]);
        let stats = m.optimize();
        assert!(stats.fixed_point);
        assert_eq!(m.nodes.len(), 2);
        match m.lower() {
            Err(LowerError::Analysis(report)) => {
                assert!(report.diagnostics().iter().any(|d| d.code == Code::BadArity));
            }
            other => panic!("expected S004 analysis error, got {other:?}"),
        }
    }

    #[test]
    fn lower_reports_param_length_not_panic() {
        let mut m = ir(vec![conv(0, RawInput::Image, 2, vec![])]);
        m.nodes[0].weights = vec![0.0; 5]; // needs 2*1*1*3 = 6
        assert!(matches!(
            m.lower(),
            Err(LowerError::ParamLength { id: 0, kind: "weights", expected: 6, actual: 5 })
        ));
    }

    #[test]
    fn lower_surfaces_analysis_report() {
        let m = ir(vec![plain(0, OpSpec::Relu, RawInput::Node(99))]);
        match m.lower() {
            Err(LowerError::Analysis(report)) => assert!(report.has_errors()),
            other => panic!("expected analysis error, got {other:?}"),
        }
    }
}
