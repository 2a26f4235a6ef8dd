//! Multi-pass static analysis over the graph IR.
//!
//! The analyzer runs *before* compilation and planning and is the gate a
//! model importer lowers through. It makes four passes:
//!
//! 1. **Structural verification** — dangling node references, dependency
//!    cycles, duplicate ids, wrong arity, and unreachable (dead) nodes.
//! 2. **Shape inference** — one typing pass that computes every
//!    intermediate tensor shape (the single source of truth the executors
//!    trust) and reports mismatches naming *both* offending nodes.
//! 3. **Quantized-range / overflow analysis** — statically bounds each
//!    deployed `i32` accumulator from the kernel fan-in and the candidate
//!    activation/weight bitwidths, so the integer kernels never need a
//!    runtime overflow check.
//! 4. **SRAM feasibility** — bounds the peak activation memory from the
//!    liveness schedule (and the best patch split) and checks it against
//!    the device budget before any calibration work runs.
//!
//! Results come back as a [`Report`] of structured [`Diagnostic`]s. The
//! passes read the one graph IR, [`ModelIr`]: explicit node ids and free
//! declaration order, so every structural defect is representable. The
//! `.qmcu` decoder produces it ([`analyze_ir`]); a validated
//! [`GraphSpec`] is viewed through [`ModelIr::from_spec`]
//! ([`analyze_spec`]). The import-only [`IrOp::BiasAdd`] takes one input
//! and keeps its shape; having no accumulator, it is exempt from `Q001`.
//!
//! Diagnostic codes are stable strings (grep-able, CI-pinnable):
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | `S001` | error | reference to an undefined node |
//! | `S002` | error | dependency cycle |
//! | `S003` | error | duplicate node id |
//! | `S004` | error | wrong operator arity |
//! | `D001` | warning | node unreachable from the graph output |
//! | `T001` | error | shape mismatch between producers |
//! | `T002` | error | hyperparameter invalid for the input shape |
//! | `Q001` | error | `i32` accumulator can overflow |
//! | `M001` | error | SRAM budget infeasible even with patching |
//! | `M002` | info | layer-at-a-time infeasible; patching required |

use std::fmt;

use quantmcu_tensor::{Bitwidth, Shape};

use crate::cost::{self, BitwidthAssignment};
use crate::error::GraphError;
use crate::opt::{IrOp, LowerError, ModelIr};
use crate::spec::{FeatureMapId, GraphSpec, NodeSpec, OpSpec, Source};

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Purely informational (e.g. "patching will be required").
    Info,
    /// Suspicious but not fatal (e.g. a dead node).
    Warning,
    /// The graph must not be compiled or planned.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable identifier of a diagnostic class (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Code {
    /// `S001`: a node input references an id no node defines.
    DanglingReference,
    /// `S002`: the dependency graph contains a cycle.
    Cycle,
    /// `S003`: two nodes declare the same id.
    DuplicateId,
    /// `S004`: an operator has the wrong number of inputs.
    BadArity,
    /// `D001`: a node cannot reach the graph output (dead code).
    DeadNode,
    /// `T001`: a join operator received incompatible input shapes.
    ShapeMismatch,
    /// `T002`: an operator hyperparameter is invalid for its input shape.
    BadHyperparameter,
    /// `Q001`: a deployed `i32` accumulator can overflow at the analyzed
    /// bitwidths.
    AccumulatorOverflow,
    /// `M001`: peak activation memory exceeds the SRAM budget even under
    /// the most aggressive quantization and the best patch split.
    InfeasibleSram,
    /// `M002`: layer-at-a-time execution exceeds the budget but a patch
    /// split can fit — the planner must patch.
    PatchingRequired,
}

impl Code {
    /// The stable string code (`"S002"`, `"M001"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::DanglingReference => "S001",
            Code::Cycle => "S002",
            Code::DuplicateId => "S003",
            Code::BadArity => "S004",
            Code::DeadNode => "D001",
            Code::ShapeMismatch => "T001",
            Code::BadHyperparameter => "T002",
            Code::AccumulatorOverflow => "Q001",
            Code::InfeasibleSram => "M001",
            Code::PatchingRequired => "M002",
        }
    }

    /// The severity this class is reported at.
    pub fn severity(self) -> Severity {
        match self {
            Code::DeadNode => Severity::Warning,
            Code::PatchingRequired => Severity::Info,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The diagnostic class.
    pub code: Code,
    /// Severity (defaults to [`Code::severity`]).
    pub severity: Severity,
    /// The primary node the finding is anchored at, when there is one.
    pub node: Option<usize>,
    /// Other nodes involved (e.g. the second producer of a shape clash).
    pub related: Vec<usize>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic at `code`'s default severity.
    pub fn new(code: Code, node: Option<usize>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            node,
            related: Vec::new(),
            message: message.into(),
        }
    }

    /// Attaches related node ids.
    #[must_use]
    pub fn with_related(mut self, related: Vec<usize>) -> Self {
        self.related = related;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(n) = self.node {
            write!(f, " node {n}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The result of an analysis run: every diagnostic, in pass order.
///
/// A report with no `Error`-severity entries is *clean* — the graph may be
/// compiled and planned. `Report` implements [`std::error::Error`] so it
/// can ride inside `GraphError::Analysis` / `quantmcu::Error::Analysis`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// All diagnostics, in the order the passes emitted them.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Iterates over the `Error`-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// `true` when any diagnostic is an error (strict mode must reject).
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Number of diagnostics of any severity.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// `true` when no diagnostics at all were produced.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when a diagnostic with `code` is present.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Merges another report's diagnostics into this one.
    pub fn extend(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return f.write_str("no diagnostics");
        }
        let errors = self.errors().count();
        writeln!(f, "{} diagnostic(s), {} error(s):", self.diagnostics.len(), errors)?;
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Report {}

// ---------------------------------------------------------------------------
// IR edges and lowering
// ---------------------------------------------------------------------------

/// Where an IR node ([`crate::opt::IrNode`]) reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RawInput {
    /// The graph's input image.
    Image,
    /// The output of the node with this id.
    Node(usize),
}

/// Lowers an IR into a validated [`GraphSpec`]: the nodes that reach the
/// output, topologically sorted and renumbered to execution indices.
/// Dead nodes are dropped, so an explicit output stays the graph output
/// even when a dead node sorts after it.
///
/// Also returns the execution-order permutation: `order[p]` is the
/// declaration index of the node at execution position `p`, which
/// callers use to reorder per-node payloads (weights, biases).
///
/// # Errors
///
/// [`LowerError::Analysis`] with the structural and shape diagnostics
/// when the IR has errors, and [`LowerError::Unlowerable`] when a live
/// node is an import-only [`IrOp::BiasAdd`].
pub(crate) fn lower(ir: &ModelIr) -> Result<(GraphSpec, Vec<usize>), LowerError> {
    let mut report = Report::new();
    let structure = check_structure(ir, &mut report);
    infer_shapes_inner(ir, structure.as_ref(), &mut report);
    let Some(structure) = structure.filter(|_| !report.has_errors()) else {
        return Err(LowerError::Analysis(report));
    };
    let order: Vec<usize> =
        structure.order.iter().copied().filter(|&idx| structure.live[idx]).collect();
    // Renumber: declaration index -> execution position. Live nodes only
    // read live nodes, so every input resolves.
    let mut pos = vec![usize::MAX; ir.nodes.len()];
    for (p, &idx) in order.iter().enumerate() {
        pos[idx] = p;
    }
    let mut nodes = Vec::with_capacity(order.len());
    for &idx in &order {
        let n = &ir.nodes[idx];
        let IrOp::Core(op) = n.op else {
            return Err(LowerError::Unlowerable { id: n.id, op: n.op.name() });
        };
        let inputs = n
            .inputs
            .iter()
            .map(|&inp| match inp {
                RawInput::Image => Source::Input,
                RawInput::Node(id) => Source::Node(
                    pos[resolve(&structure.ids, id).expect("live nodes read defined ids")],
                ),
            })
            .collect();
        nodes.push(NodeSpec { op, inputs });
    }
    let spec = GraphSpec::new(ir.input_shape, nodes).map_err(|e| {
        let mut r = Report::new();
        r.push(Diagnostic::new(Code::BadHyperparameter, None, e.to_string()));
        LowerError::Analysis(r)
    })?;
    Ok((spec, order))
}

// ---------------------------------------------------------------------------
// Pass 1: structural verification
// ---------------------------------------------------------------------------

/// Resolved structure of an IR, produced by the structural pass.
struct Structure {
    /// Declaration indices in a valid execution order (nodes on cycles
    /// are absent).
    order: Vec<usize>,
    /// id -> first defining declaration index, sorted by id.
    ids: Vec<(usize, usize)>,
    /// Per declaration index: does the node reach the graph output?
    live: Vec<bool>,
}

/// The declaration index defining `id`, if any.
fn resolve(ids: &[(usize, usize)], id: usize) -> Option<usize> {
    ids.binary_search_by_key(&id, |&(i, _)| i).ok().map(|at| ids[at].1)
}

/// Structural verification: duplicate ids (`S003`), dangling references
/// (`S001`), arity (`S004`), cycles (`S002`), dead nodes (`D001`).
///
/// Returns `None` when the structure is too broken for later passes
/// (duplicate ids or cycles).
fn check_structure(ir: &ModelIr, report: &mut Report) -> Option<Structure> {
    let n = ir.nodes.len();
    // Duplicate ids; keep the first definition for resolution.
    let mut ids: Vec<(usize, usize)> = Vec::with_capacity(n);
    for (idx, node) in ir.nodes.iter().enumerate() {
        match ids.binary_search_by_key(&node.id, |&(i, _)| i) {
            Ok(at) => {
                let first = ids[at].1;
                report.push(
                    Diagnostic::new(
                        Code::DuplicateId,
                        Some(node.id),
                        format!(
                            "node id {} is defined more than once (positions {first} and {idx})",
                            node.id
                        ),
                    )
                    .with_related(vec![first]),
                );
            }
            Err(at) => ids.insert(at, (node.id, idx)),
        }
    }

    // Arity and dangling references.
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (idx, node) in ir.nodes.iter().enumerate() {
        let arity = node.op.arity();
        if node.inputs.is_empty() || (arity != usize::MAX && node.inputs.len() != arity) {
            let expected = if arity == usize::MAX { 1 } else { arity };
            report.push(Diagnostic::new(
                Code::BadArity,
                Some(node.id),
                format!(
                    "operator {} expects {expected}{} input(s), got {}",
                    node.op.name(),
                    if arity == usize::MAX { "+" } else { "" },
                    node.inputs.len()
                ),
            ));
        }
        for &inp in &node.inputs {
            if let RawInput::Node(target) = inp {
                match resolve(&ids, target) {
                    Some(t) => deps[idx].push(t),
                    None => report.push(
                        Diagnostic::new(
                            Code::DanglingReference,
                            Some(node.id),
                            format!("node {} reads undefined node {target}", node.id),
                        )
                        .with_related(vec![target]),
                    ),
                }
            }
        }
    }

    // Cycle detection: iterative DFS over the dependency edges.
    let mut color = vec![0u8; n]; // 0 white, 1 on stack, 2 done
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        while let Some(&(u, ci)) = stack.last() {
            if ci < deps[u].len() {
                stack.last_mut().expect("nonempty").1 += 1;
                let v = deps[u][ci];
                match color[v] {
                    0 => {
                        color[v] = 1;
                        stack.push((v, 0));
                    }
                    1 => {
                        // Back edge: the cycle is the stack suffix from v.
                        let pos = stack
                            .iter()
                            .position(|&(x, _)| x == v)
                            .expect("gray nodes are on the stack");
                        let members: Vec<usize> =
                            stack[pos..].iter().map(|&(x, _)| ir.nodes[x].id).collect();
                        let path =
                            members.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(" -> ");
                        report.push(
                            Diagnostic::new(
                                Code::Cycle,
                                Some(ir.nodes[v].id),
                                format!("dependency cycle: {path} -> {}", ir.nodes[v].id),
                            )
                            .with_related(members),
                        );
                    }
                    _ => {}
                }
            } else {
                color[u] = 2;
                stack.pop();
            }
        }
    }

    // Dead nodes: backward reachability from the output.
    let output_idx = match ir.output {
        Some(id) => match resolve(&ids, id) {
            Some(idx) => Some(idx),
            None => {
                report.push(Diagnostic::new(
                    Code::DanglingReference,
                    None,
                    format!("graph output references undefined node {id}"),
                ));
                None
            }
        },
        None => n.checked_sub(1),
    };
    let mut live = vec![false; n];
    if let Some(out) = output_idx {
        let mut queue = vec![out];
        live[out] = true;
        while let Some(u) = queue.pop() {
            for &v in &deps[u] {
                if !live[v] {
                    live[v] = true;
                    queue.push(v);
                }
            }
        }
        for (idx, node) in ir.nodes.iter().enumerate() {
            if !live[idx] {
                report.push(Diagnostic::new(
                    Code::DeadNode,
                    Some(node.id),
                    format!(
                        "node {} ({}) does not reach the graph output (dead code)",
                        node.id,
                        node.op.name()
                    ),
                ));
            }
        }
    }

    if report.has_code(Code::DuplicateId) || report.has_code(Code::Cycle) {
        return None;
    }
    // Kahn topological order (cycle-free here by construction). The
    // ready set is a min-heap on declaration index, making the order
    // *stable*: a graph whose declaration order is already topological
    // sorts to the identity permutation, so lowering — and hence the
    // import round trip — preserves the declared node order bit-exactly.
    let mut indeg = vec![0usize; n];
    let mut rdeps: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, ds) in deps.iter().enumerate() {
        indeg[u] = ds.len();
        for &v in ds {
            rdeps[v].push(u);
        }
    }
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> =
        (0..n).filter(|&u| indeg[u] == 0).map(std::cmp::Reverse).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(v)) = ready.pop() {
        order.push(v);
        for &u in &rdeps[v] {
            indeg[u] -= 1;
            if indeg[u] == 0 {
                ready.push(std::cmp::Reverse(u));
            }
        }
    }
    Some(Structure { order, ids, live })
}

// ---------------------------------------------------------------------------
// Pass 2: shape inference
// ---------------------------------------------------------------------------

/// The shapes the analyzer proved: one entry per IR node (by declaration
/// index), `None` where inference could not complete.
///
/// For an IR viewed through [`ModelIr::from_spec`], node indices coincide
/// with execution order, so [`ShapeTable::feature_map`] mirrors
/// [`GraphSpec::feature_map_shape`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeTable {
    input: Shape,
    shapes: Vec<Option<Shape>>,
}

impl ShapeTable {
    /// The graph input shape.
    pub fn input(&self) -> Shape {
        self.input
    }

    /// The inferred output shape of node `idx` (declaration index).
    pub fn node(&self, idx: usize) -> Option<Shape> {
        self.shapes.get(idx).copied().flatten()
    }

    /// The shape of a feature map in [`FeatureMapId`] numbering (valid
    /// when declaration order is execution order, e.g. via `from_spec`).
    pub fn feature_map(&self, id: FeatureMapId) -> Option<Shape> {
        match id.node() {
            None => Some(self.input),
            Some(i) => self.node(i),
        }
    }

    /// `true` when every node has an inferred shape.
    pub fn is_complete(&self) -> bool {
        self.shapes.iter().all(Option::is_some)
    }
}

/// Runs the structural and shape passes, returning the proved shapes and
/// every diagnostic found so far.
pub fn infer_shapes(ir: &ModelIr) -> (ShapeTable, Report) {
    let mut report = Report::new();
    let structure = check_structure(ir, &mut report);
    let table = infer_shapes_inner(ir, structure.as_ref(), &mut report);
    (table, report)
}

fn infer_shapes_inner(
    ir: &ModelIr,
    structure: Option<&Structure>,
    report: &mut Report,
) -> ShapeTable {
    let mut shapes: Vec<Option<Shape>> = vec![None; ir.nodes.len()];
    let Some(structure) = structure else {
        return ShapeTable { input: ir.input_shape, shapes };
    };
    for &idx in &structure.order {
        let node = &ir.nodes[idx];
        // Gather input shapes; a missing one (dangling ref or an upstream
        // failure) silently skips this node — the root cause is already
        // reported, cascading diagnostics would only add noise.
        let mut in_shapes = Vec::with_capacity(node.inputs.len());
        let mut in_ids = Vec::with_capacity(node.inputs.len());
        let mut complete = true;
        for &inp in &node.inputs {
            match inp {
                RawInput::Image => {
                    in_shapes.push(ir.input_shape);
                    in_ids.push(None);
                }
                RawInput::Node(id) => {
                    let Some(shape) = resolve(&structure.ids, id).and_then(|i| shapes[i]) else {
                        complete = false;
                        break;
                    };
                    in_shapes.push(shape);
                    in_ids.push(Some(id));
                }
            }
        }
        if !complete {
            continue;
        }
        match node.op.output_shape(&in_shapes) {
            Ok(shape) => shapes[idx] = Some(shape),
            Err(GraphError::ShapeConflict { op, left, right }) => {
                // Name both producers: the first input and the first input
                // whose shape actually clashes.
                let clash =
                    in_shapes.iter().position(|&s| s == right).unwrap_or(in_shapes.len() - 1);
                let name = |i: usize| match in_ids[i] {
                    Some(id) => format!("node {id}"),
                    None => "the graph input".to_string(),
                };
                let related: Vec<usize> =
                    [in_ids[0], in_ids[clash]].iter().flatten().copied().collect();
                report.push(
                    Diagnostic::new(
                        Code::ShapeMismatch,
                        Some(node.id),
                        format!(
                            "{op} cannot join {left} (from {}) with {right} (from {})",
                            name(0),
                            name(clash)
                        ),
                    )
                    .with_related(related),
                );
            }
            Err(GraphError::InvalidHyperparameter { op, detail }) => {
                report.push(Diagnostic::new(
                    Code::BadHyperparameter,
                    Some(node.id),
                    format!("{op}: {detail} (input {})", in_shapes[0]),
                ));
            }
            Err(other) => {
                report.push(Diagnostic::new(
                    Code::BadHyperparameter,
                    Some(node.id),
                    other.to_string(),
                ));
            }
        }
    }
    ShapeTable { input: ir.input_shape, shapes }
}

// ---------------------------------------------------------------------------
// Pass 3: quantized-range / overflow analysis
// ---------------------------------------------------------------------------

/// Largest worst-case accumulator magnitude the analyzer accepts: half the
/// `i32` range, the other half being headroom for the (statically unknown)
/// quantized bias term that enters the accumulator before requantization.
pub const ACC_LIMIT: u128 = (i32::MAX / 2) as u128;

/// Worst-case `|accumulator|` bound of a weighted node: MAC fan-in times
/// the largest per-MAC product at the given bitwidths. `None` for
/// weight-free operators.
///
/// The bound models the *deployment* kernels (CMix-NN-style `i32`
/// accumulators). The host's integer kernels accumulate in `i32` too, and
/// `CompiledGraph::with_quantization` rejects any graph failing this
/// check, so their accumulators never overflow.
pub fn accumulator_bound(
    op: OpSpec,
    in_shape: Shape,
    act: Bitwidth,
    weights: Bitwidth,
) -> Option<(u128, usize)> {
    let fan_in = match op {
        OpSpec::Conv2d { kernel, .. } => kernel * kernel * in_shape.c,
        OpSpec::DepthwiseConv2d { kernel, .. } => kernel * kernel,
        OpSpec::Dense { .. } => in_shape.len(),
        _ => return None,
    };
    // Zero-point-corrected activations span the full level range
    // (levels - 1); weights are symmetric, so |w| <= 2^(bits-1).
    let max_act = act.levels().saturating_sub(1) as u128;
    let max_w = 1u128 << (weights.bits() - 1);
    Some((fan_in as u128 * max_act * max_w, fan_in))
}

/// Overflow pass over proved shapes: emits `Q001` for every weighted node
/// whose worst-case accumulator exceeds [`ACC_LIMIT`] at the widest
/// candidate activation/weight bitwidths. `BiasAdd` has no accumulator.
fn check_overflow(
    ir: &ModelIr,
    structure: &Structure,
    table: &ShapeTable,
    act: Bitwidth,
    weights: Bitwidth,
    report: &mut Report,
) {
    for node in &ir.nodes {
        let IrOp::Core(op) = node.op else { continue };
        if !op.has_weights() {
            continue;
        }
        let in_shape = match node.inputs.first() {
            Some(RawInput::Image) => ir.input_shape,
            Some(&RawInput::Node(id)) => {
                match resolve(&structure.ids, id).and_then(|i| table.node(i)) {
                    Some(s) => s,
                    None => continue, // upstream failure already reported
                }
            }
            None => continue,
        };
        if let Some(d) = overflow_diagnostic(node.id, op, in_shape, act, weights) {
            report.push(d);
        }
    }
}

/// The `Q001` diagnostic for one node, or `None` when its accumulator is
/// provably in range. Shared by the analyzer pass and the strict check in
/// `CompiledGraph::with_quantization`.
pub(crate) fn overflow_diagnostic(
    id: usize,
    op: OpSpec,
    in_shape: Shape,
    act: Bitwidth,
    weights: Bitwidth,
) -> Option<Diagnostic> {
    let (bound, fan_in) = accumulator_bound(op, in_shape, act, weights)?;
    if bound <= ACC_LIMIT {
        return None;
    }
    Some(Diagnostic::new(
        Code::AccumulatorOverflow,
        Some(id),
        format!(
            "{} accumulator can overflow i32: fan-in {fan_in} at {act} activations x {weights} \
             weights bounds |acc| by {bound} > {ACC_LIMIT}; reduce fan-in or narrow the widths",
            op.name()
        ),
    ))
}

// ---------------------------------------------------------------------------
// Pass 4: SRAM feasibility
// ---------------------------------------------------------------------------

/// Optimistic lower bound on the peak of a patch split at `at`: the
/// stitched stage output plus the input must coexist during the branch
/// phase, and the tail then runs layer-at-a-time — all at the narrowest
/// candidate width. Real plans can only use more, so a budget below this
/// bound is infeasible for every plan the search could emit.
fn split_lower_bound(spec: &GraphSpec, at: usize, bits: Bitwidth) -> Option<usize> {
    if at == 0 || !spec.splittable_at(at) {
        return None;
    }
    let (head, tail) = spec.split_at(at).ok()?;
    let input = bits.bytes_for(head.input_shape().len());
    let stage = bits.bytes_for(head.output_shape().len());
    let tail_peak = cost::peak_activation_bytes(&tail, &BitwidthAssignment::uniform(&tail, bits));
    Some((input + stage).max(tail_peak))
}

/// SRAM feasibility pass: `M001` when no execution strategy can fit the
/// budget even at the narrowest candidate bitwidth, `M002` (info) when
/// layer-at-a-time execution cannot fit but a patch split can. Skipped
/// without an SRAM budget.
fn check_sram(spec: &GraphSpec, opts: &AnalyzeOptions, report: &mut Report) {
    let Some(budget_bytes) = opts.sram_budget else { return };
    let narrowest = opts.narrowest_bits;
    let (layer_peak, peak_node) =
        cost::peak_activation(spec, &BitwidthAssignment::uniform(spec, narrowest));
    if layer_peak <= budget_bytes {
        return;
    }
    let best = (1..=spec.len())
        .filter_map(|at| split_lower_bound(spec, at, narrowest).map(|b| (b, at)))
        .min();
    let peak_op = if spec.is_empty() { "input" } else { spec.nodes()[peak_node].op.name() };
    match best {
        Some((bound, at)) if bound <= budget_bytes => {
            report.push(
                Diagnostic::new(
                    Code::PatchingRequired,
                    Some(peak_node),
                    format!(
                        "layer-at-a-time peak {layer_peak} B (at node {peak_node}, {peak_op}) \
                         exceeds the {budget_bytes} B SRAM budget at {narrowest}; patch-based \
                         execution is required (e.g. split at node {at}, bound {bound} B)"
                    ),
                )
                .with_related(vec![at]),
            );
        }
        Some((bound, at)) => {
            report.push(
                Diagnostic::new(
                    Code::InfeasibleSram,
                    Some(peak_node),
                    format!(
                        "peak activation memory {layer_peak} B (at node {peak_node}, {peak_op}) \
                         exceeds the {budget_bytes} B SRAM budget even at {narrowest}; the best \
                         patch split (node {at}) still needs at least {bound} B"
                    ),
                )
                .with_related(vec![at]),
            );
        }
        None => {
            report.push(Diagnostic::new(
                Code::InfeasibleSram,
                Some(peak_node),
                format!(
                    "peak activation memory {layer_peak} B (at node {peak_node}, {peak_op}) \
                     exceeds the {budget_bytes} B SRAM budget even at {narrowest}, and the graph \
                     has no valid patch split point"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// What the analyzer assumes about the quantized deployment.
///
/// The defaults model the paper's search space: activations and weights up
/// to 8-bit, 2-bit as the most aggressive candidate, no SRAM constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzeOptions {
    /// Widest activation bitwidth a plan may assign (overflow analysis is
    /// run at this worst case).
    pub act_bits: Bitwidth,
    /// The deployed weight bitwidth.
    pub weight_bits: Bitwidth,
    /// Narrowest candidate bitwidth available to the search (the SRAM
    /// bound is computed at this most-optimistic width).
    pub narrowest_bits: Bitwidth,
    /// Device SRAM budget in bytes; `None` skips the feasibility pass.
    pub sram_budget: Option<usize>,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            act_bits: Bitwidth::W8,
            weight_bits: Bitwidth::W8,
            narrowest_bits: *Bitwidth::SEARCH_CANDIDATES.last().expect("nonempty"),
            sram_budget: None,
        }
    }
}

/// Runs every analysis pass over an IR, e.g. a decoded `.qmcu` file
/// before optimization. The SRAM pass measures the lowered graph (the
/// nodes that reach the output) and needs an error-free IR that lowers:
/// a live, unfused `BiasAdd` skips it.
pub fn analyze_ir(ir: &ModelIr, opts: &AnalyzeOptions) -> Report {
    let mut report = check_ir(ir, opts);
    if opts.sram_budget.is_some() && !report.has_errors() {
        if let Ok((spec, _)) = lower(ir) {
            check_sram(&spec, opts, &mut report);
        }
    }
    report
}

/// Runs every analysis pass over a validated spec, viewed through
/// [`ModelIr::from_spec`]; the SRAM pass measures `spec` itself.
///
/// Structure and shapes re-derive from scratch (the analyzer is the source
/// of truth, not the spec's cached shapes); on a spec this mostly
/// contributes dead-node detection, overflow, and SRAM feasibility.
pub fn analyze_spec(spec: &GraphSpec, opts: &AnalyzeOptions) -> Report {
    let mut report = check_ir(&ModelIr::from_spec(spec), opts);
    if !report.has_errors() {
        check_sram(spec, opts, &mut report);
    }
    report
}

/// The structural, shape and overflow passes.
fn check_ir(ir: &ModelIr, opts: &AnalyzeOptions) -> Report {
    let mut report = Report::new();
    let structure = check_structure(ir, &mut report);
    let table = infer_shapes_inner(ir, structure.as_ref(), &mut report);
    if let Some(structure) = &structure {
        check_overflow(ir, structure, &table, opts.act_bits, opts.weight_bits, &mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphSpecBuilder;
    use crate::opt::IrNode;

    fn conv(out_ch: usize) -> OpSpec {
        OpSpec::Conv2d { out_ch, kernel: 3, stride: 1, pad: 1 }
    }

    fn node(id: usize, op: OpSpec, inputs: Vec<RawInput>) -> IrNode {
        IrNode { id, op: IrOp::Core(op), inputs, weights: vec![], bias: vec![] }
    }

    fn ir(nodes: Vec<IrNode>, output: Option<usize>) -> ModelIr {
        ModelIr { input_shape: Shape::hwc(4, 4, 3), nodes, output }
    }

    fn small_spec() -> GraphSpec {
        GraphSpecBuilder::new(Shape::hwc(8, 8, 3))
            .conv2d(8, 3, 1, 1)
            .relu6()
            .global_avg_pool()
            .dense(4)
            .build()
            .unwrap()
    }

    #[test]
    fn clean_spec_produces_empty_report() {
        let r = analyze_spec(&small_spec(), &AnalyzeOptions::default());
        assert!(r.is_empty(), "unexpected diagnostics: {r}");
        assert!(!r.has_errors());
    }

    #[test]
    fn dangling_reference_fires_s001() {
        let ir = ir(vec![node(0, OpSpec::Relu, vec![RawInput::Node(7)])], None);
        let r = analyze_ir(&ir, &AnalyzeOptions::default());
        assert!(r.has_code(Code::DanglingReference));
        assert!(r.has_errors());
    }

    #[test]
    fn cycle_fires_s002_with_members() {
        let ir = ir(
            vec![
                node(0, conv(3), vec![RawInput::Node(1)]),
                node(1, conv(3), vec![RawInput::Node(0)]),
            ],
            None,
        );
        let r = analyze_ir(&ir, &AnalyzeOptions::default());
        let d = r.diagnostics().iter().find(|d| d.code == Code::Cycle).expect("cycle reported");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.related.len(), 2);
    }

    #[test]
    fn duplicate_id_fires_s003() {
        let ir = ir(
            vec![
                node(0, conv(3), vec![RawInput::Image]),
                node(0, OpSpec::Relu, vec![RawInput::Image]),
            ],
            None,
        );
        let r = analyze_ir(&ir, &AnalyzeOptions::default());
        assert!(r.has_code(Code::DuplicateId));
    }

    #[test]
    fn bad_arity_fires_s004() {
        let ir = ir(vec![node(0, OpSpec::Add, vec![RawInput::Image])], None);
        let r = analyze_ir(&ir, &AnalyzeOptions::default());
        assert!(r.has_code(Code::BadArity));
    }

    #[test]
    fn dead_node_warns_d001_but_is_not_an_error() {
        let ir = ir(
            vec![node(0, conv(3), vec![RawInput::Image]), node(1, conv(5), vec![RawInput::Image])],
            Some(0),
        );
        let r = analyze_ir(&ir, &AnalyzeOptions::default());
        let d = r.diagnostics().iter().find(|d| d.code == Code::DeadNode).expect("dead node");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.node, Some(1));
        assert!(!r.has_errors());
    }

    #[test]
    fn shape_mismatch_names_both_producers() {
        let ir = ir(
            vec![
                node(10, conv(4), vec![RawInput::Image]),
                node(11, conv(8), vec![RawInput::Image]),
                node(12, OpSpec::Add, vec![RawInput::Node(10), RawInput::Node(11)]),
            ],
            None,
        );
        let r = analyze_ir(&ir, &AnalyzeOptions::default());
        let d = r.diagnostics().iter().find(|d| d.code == Code::ShapeMismatch).expect("mismatch");
        assert_eq!(d.node, Some(12));
        assert_eq!(d.related, vec![10, 11]);
        assert!(d.message.contains("node 10") && d.message.contains("node 11"));
    }

    #[test]
    fn overflowable_dense_fires_q001() {
        // Fan-in 64*64*12 = 49152; at 8x8 bits each MAC contributes up to
        // 255 * 128, so the bound exceeds i32::MAX / 2.
        let spec = GraphSpecBuilder::new(Shape::hwc(64, 64, 12)).dense(10).build().unwrap();
        let r = analyze_spec(&spec, &AnalyzeOptions::default());
        let d = r.errors().next().expect("overflow error");
        assert_eq!(d.code, Code::AccumulatorOverflow);
        // Narrow activations bring the bound back in range.
        let narrow = AnalyzeOptions { act_bits: Bitwidth::W2, ..AnalyzeOptions::default() };
        assert!(analyze_spec(&spec, &narrow).is_empty());
    }

    #[test]
    fn infeasible_budget_fires_m001() {
        let spec = small_spec();
        let opts = AnalyzeOptions { sram_budget: Some(8), ..AnalyzeOptions::default() };
        let r = analyze_spec(&spec, &opts);
        assert!(r.has_code(Code::InfeasibleSram));
        let generous = AnalyzeOptions { sram_budget: Some(1 << 20), ..AnalyzeOptions::default() };
        assert!(analyze_spec(&spec, &generous).is_empty());
    }

    #[test]
    fn tight_budget_with_viable_split_suggests_patching() {
        // Fat early maps, tiny tail: layer-based cannot fit, patching can.
        let spec = GraphSpecBuilder::new(Shape::hwc(32, 32, 8))
            .conv2d(16, 3, 1, 1)
            .conv2d(16, 3, 2, 1)
            .conv2d(8, 3, 2, 1)
            .global_avg_pool()
            .dense(4)
            .build()
            .unwrap();
        let layer_peak =
            cost::peak_activation_bytes(&spec, &BitwidthAssignment::uniform(&spec, Bitwidth::W2));
        let bound = split_lower_bound(&spec, 3, Bitwidth::W2).expect("splittable");
        assert!(bound < layer_peak);
        let opts = AnalyzeOptions {
            sram_budget: Some((bound + layer_peak) / 2),
            ..AnalyzeOptions::default()
        };
        let r = analyze_spec(&spec, &opts);
        let d = r.diagnostics().iter().find(|d| d.code == Code::PatchingRequired).expect("M002");
        assert_eq!(d.severity, Severity::Info);
        assert!(!r.has_errors());
    }

    #[test]
    fn lower_roundtrips_out_of_order_declarations() {
        // Declared backwards: output first.
        let ir = ModelIr {
            input_shape: Shape::hwc(8, 8, 3),
            nodes: vec![
                node(5, OpSpec::Relu, vec![RawInput::Node(2)]),
                node(2, conv(4), vec![RawInput::Image]),
            ],
            output: Some(5),
        };
        let (spec, order) = lower(&ir).expect("clean graph lowers");
        assert_eq!(spec.len(), 2);
        assert_eq!(order, vec![1, 0]);
        assert_eq!(spec.output_shape(), Shape::hwc(8, 8, 4));
        assert!(matches!(spec.nodes()[0].op, OpSpec::Conv2d { .. }));
    }

    #[test]
    fn from_spec_matches_stored_shapes() {
        let spec = small_spec();
        let (table, report) = infer_shapes(&ModelIr::from_spec(&spec));
        assert!(report.is_empty());
        assert!(table.is_complete());
        for id in spec.feature_map_ids() {
            assert_eq!(table.feature_map(id), Some(spec.feature_map_shape(id)));
        }
    }

    #[test]
    fn report_display_lists_codes() {
        let mut r = Report::new();
        r.push(Diagnostic::new(Code::Cycle, Some(3), "dependency cycle: 3 -> 3"));
        let s = r.to_string();
        assert!(s.contains("error[S002] node 3"), "got: {s}");
        assert!(Report::new().to_string().contains("no diagnostics"));
    }
}
