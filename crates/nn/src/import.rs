//! Serialized model import/export: the `.qmcu` binary format.
//!
//! A dependency-free, versioned, length-prefixed binary container for
//! [`Graph`]s — ONNX-style operator + initializer records lowered through
//! the static analyzer ([`crate::analyze`]) and the optimizer pass
//! pipeline ([`crate::opt`]) before execution. Hand-rolled because the
//! workspace is offline and carries no serde.
//!
//! # Format (version 2)
//!
//! All integers are little-endian; `f32` payloads are stored as their
//! IEEE-754 bit patterns (`u32`), so weights round-trip bit-exactly.
//!
//! | offset | field | type |
//! |--------|-------|------|
//! | 0      | magic `"QMCU"` | `[u8; 4]` |
//! | 4      | format version (`2`) | `u32` |
//! | 8      | [`codec::checksum`] of every byte from offset 16 | `u64` |
//! | 16     | input shape `n, h, w, c` | `4 × u32` |
//! | 32     | explicit-output flag + output node id | `u8`, `u32` |
//! | 37     | node count | `u32` |
//! | 41     | node records … | see below |
//!
//! Each node record:
//!
//! | field | type |
//! |-------|------|
//! | node id | `u32` |
//! | opcode | `u8` |
//! | operator attributes | `u32 × attr_count(opcode)` |
//! | input count | `u16` |
//! | inputs: tag (`0` = image, `1` = node) + node id | `(u8, u32)` each |
//! | weight initializer: length + values | `u32`, `u32 × len` |
//! | bias initializer: length + values | `u32`, `u32 × len` |
//!
//! The header framing, the operator table (opcodes 1–10) and the operator
//! record (opcode through inputs) are shared with `.qplan` artifacts
//! through [`crate::codec`]; this format adds only opcode 11, `BiasAdd`
//! (no attributes).
//!
//! The checksum is verified *before* the body is parsed, so random
//! corruption is reported as [`ImportError::ChecksumMismatch`] with both
//! sums; structural decode errors ([`ImportError::Truncated`],
//! [`ImportError::UnknownOpcode`], [`ImportError::Corrupted`]) carry the
//! byte offset they occurred at. Every length field is validated against
//! the bytes actually remaining before any allocation, so a corrupted
//! length cannot cause an out-of-memory abort. Decoding never panics.
//!
//! # Versioning rules
//!
//! The magic is fixed forever. Readers accept exactly the versions they
//! know ([`FORMAT_VERSION`]); any other version is
//! [`ImportError::UnsupportedVersion`], never a best-effort parse. New
//! opcodes, attributes or checksums require a version bump: version 2
//! replaced version 1's byte-serial FNV-1a with [`codec::checksum`].

use std::fmt;
use std::path::Path;

use quantmcu_tensor::Shape;

use crate::analyze::{RawInput, Report};
use crate::codec::{self, CodecError, Writer};
use crate::opt::{IrNode, IrOp, LowerError, ModelIr, OptStats};
use crate::{Graph, Source};

/// The four magic bytes opening every `.qmcu` file.
pub const MAGIC: [u8; 4] = *b"QMCU";

/// The format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 2;

/// The one opcode this format adds to the shared table: [`IrOp::BiasAdd`].
const BIAS_ADD: u8 = 11;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a serialized model could not be imported.
///
/// Every variant carries enough context (byte offsets, ids, the analyzer
/// report) to locate the defect in the input file.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ImportError {
    /// The file does not start with [`MAGIC`] — not a `.qmcu` model.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file's format version is not the one this reader understands.
    UnsupportedVersion {
        /// Version stamped in the header.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The stored checksum does not match the body — the file is damaged.
    ChecksumMismatch {
        /// Checksum stamped in the header.
        stored: u64,
        /// Checksum computed over the body.
        computed: u64,
    },
    /// The stream ended in the middle of a field.
    Truncated {
        /// Byte offset where the field began.
        offset: usize,
        /// Name of the field being read.
        field: &'static str,
    },
    /// A node record uses an opcode this version does not define.
    UnknownOpcode {
        /// Byte offset of the opcode byte.
        offset: usize,
        /// The unrecognized opcode value.
        opcode: u8,
    },
    /// The byte stream is structurally inconsistent (bad tag, impossible
    /// length, trailing garbage, …).
    Corrupted {
        /// Byte offset of the inconsistency.
        offset: usize,
        /// What was wrong.
        detail: &'static str,
    },
    /// The decoded graph failed static analysis (structure or shapes).
    Analysis(Report),
    /// The decoded graph is analyzer-clean but not executable: an
    /// import-only operator survived optimization or an initializer has
    /// the wrong length.
    Model {
        /// Offending node id, when known.
        node: Option<usize>,
        /// Human-readable description.
        detail: String,
    },
    /// Reading or writing the model file failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error, stringified ([`std::io::Error`] is not `Clone`).
        detail: String,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::BadMagic { found } => {
                write!(f, "not a qmcu model: magic {found:02x?}, expected {MAGIC:02x?}")
            }
            ImportError::UnsupportedVersion { found, supported } => {
                write!(f, "format version {found} unsupported (this build reads <= {supported})")
            }
            ImportError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: header {stored:#018x}, body {computed:#018x} — file damaged"
            ),
            ImportError::Truncated { offset, field } => {
                write!(f, "byte {offset}: stream ends inside {field}")
            }
            ImportError::UnknownOpcode { offset, opcode } => {
                write!(f, "byte {offset}: unknown opcode {opcode}")
            }
            ImportError::Corrupted { offset, detail } => write!(f, "byte {offset}: {detail}"),
            ImportError::Analysis(report) => write!(f, "imported graph failed analysis: {report}"),
            ImportError::Model { node: Some(id), detail } => write!(f, "node {id}: {detail}"),
            ImportError::Model { node: None, detail } => f.write_str(detail),
            ImportError::Io { path, detail } => write!(f, "{path}: {detail}"),
        }
    }
}

impl std::error::Error for ImportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImportError::Analysis(report) => Some(report),
            _ => None,
        }
    }
}

impl From<LowerError> for ImportError {
    fn from(e: LowerError) -> Self {
        match e {
            LowerError::Analysis(report) => ImportError::Analysis(report),
            LowerError::Unlowerable { id, .. } => {
                ImportError::Model { node: Some(id), detail: e.to_string() }
            }
            LowerError::ParamLength { id, .. } => {
                ImportError::Model { node: Some(id), detail: e.to_string() }
            }
        }
    }
}

impl From<CodecError> for ImportError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::BadMagic { found } => ImportError::BadMagic { found },
            CodecError::UnsupportedVersion { found, supported } => {
                ImportError::UnsupportedVersion { found, supported }
            }
            CodecError::ChecksumMismatch { stored, computed } => {
                ImportError::ChecksumMismatch { stored, computed }
            }
            CodecError::Truncated { offset, field } => ImportError::Truncated { offset, field },
            CodecError::UnknownOpcode { offset, opcode } => {
                ImportError::UnknownOpcode { offset, opcode }
            }
            CodecError::Corrupted { offset, detail } => ImportError::Corrupted { offset, detail },
            CodecError::Io { path, detail } => ImportError::Io { path, detail },
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Serializes an importer IR into `.qmcu` bytes.
pub fn encode(ir: &ModelIr) -> Vec<u8> {
    let mut w = Writer::new(MAGIC, FORMAT_VERSION);
    let nodes = ir.nodes.iter().map(|n| {
        let op = match &n.op {
            IrOp::Core(op) => codec::op_code(op),
            IrOp::BiasAdd => (BIAS_ADD, Vec::new()),
        };
        let inputs = n.inputs.iter().map(|input| match *input {
            RawInput::Image => Source::Input,
            RawInput::Node(id) => Source::Node(id),
        });
        (n.id, op, inputs, &n.weights[..], &n.bias[..])
    });
    write_body(&mut w, ir.input_shape, ir.output, nodes);
    w.finish()
}

/// Serializes an executable graph into `.qmcu` bytes: the bytes
/// [`encode`] gives for [`ModelIr::from_graph`], written straight from
/// the graph's parameters (node ids are indices and the last node is the
/// explicit output).
pub fn save_model(graph: &Graph) -> Vec<u8> {
    let mut w = Writer::new(MAGIC, FORMAT_VERSION);
    let spec = graph.spec();
    let nodes = spec.nodes().iter().enumerate().map(|(i, n)| {
        let params = graph.params(i);
        (i, codec::op_code(&n.op), n.inputs.iter().copied(), params.weights(), params.bias())
    });
    write_body(&mut w, spec.input_shape(), spec.len().checked_sub(1), nodes);
    w.finish()
}

/// The `.qmcu` body: input shape, output, then one record per node (id,
/// operator record, weights, bias).
fn write_body<'a, I: ExactSizeIterator<Item = Source>>(
    w: &mut Writer,
    input_shape: Shape,
    output: Option<usize>,
    nodes: impl ExactSizeIterator<Item = (usize, (u8, Vec<u32>), I, &'a [f32], &'a [f32])>,
) {
    let s = input_shape;
    for v in [s.n, s.h, s.w, s.c] {
        w.u32(v as u32);
    }
    w.u8(u8::from(output.is_some()));
    w.u32(output.unwrap_or(0) as u32);
    w.count(nodes.len());
    for (id, (opcode, attrs), inputs, weights, bias) in nodes {
        w.u32(id as u32);
        w.op(opcode, &attrs, inputs);
        w.f32s(weights);
        w.f32s(bias);
    }
}

/// Writes [`save_model`] bytes to `path`.
///
/// # Errors
///
/// [`ImportError::Io`] when the file cannot be written.
pub fn save_model_to_path(graph: &Graph, path: impl AsRef<Path>) -> Result<(), ImportError> {
    Ok(codec::write_file(path.as_ref(), &save_model(graph))?)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decodes `.qmcu` bytes into the importer IR, without optimizing or
/// lowering. Header, checksum and structural validation happen here;
/// graph-level validation happens in [`ModelIr::lower`].
///
/// # Errors
///
/// Any header/stream-level [`ImportError`]; never panics, and never
/// allocates more than the input length.
pub fn decode(bytes: &[u8]) -> Result<ModelIr, ImportError> {
    let mut r = codec::open(bytes, MAGIC, FORMAT_VERSION)?;
    let n = r.u32("input shape")? as usize;
    let h = r.u32("input shape")? as usize;
    let w = r.u32("input shape")? as usize;
    let c = r.u32("input shape")? as usize;
    let input_shape = Shape::new(n, h, w, c);

    let flag_at = r.offset();
    let flag = r.u8("output flag")?;
    let out_id = r.u32("output id")? as usize;
    let output = match flag {
        0 => None,
        1 => Some(out_id),
        _ => {
            return Err(ImportError::Corrupted { offset: flag_at, detail: "bad output flag" });
        }
    };

    // Smallest node record: id (4) + opcode (1) + input count (2) + two
    // empty initializers (4 + 4).
    let count = r.count(15, "node count")?;
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        let id = r.u32("node id")? as usize;
        let (op, sources) = r.op(|opcode, attrs| match opcode {
            BIAS_ADD => Some(IrOp::BiasAdd),
            _ => codec::op_from(opcode, attrs).map(IrOp::Core),
        })?;
        let inputs = sources
            .into_iter()
            .map(|source| match source {
                Source::Input => RawInput::Image,
                Source::Node(id) => RawInput::Node(id),
            })
            .collect();
        let weights = r.f32s("weight initializer")?;
        let bias = r.f32s("bias initializer")?;
        nodes.push(IrNode { id, op, inputs, weights, bias });
    }
    r.end("trailing bytes after last node record")?;
    Ok(ModelIr { input_shape, nodes, output })
}

/// Imports a serialized model: decode, run the standard optimizer
/// pipeline, validate through the analyzer, and lower to an executable
/// [`Graph`].
///
/// # Errors
///
/// Any [`ImportError`]; decoding and lowering never panic on malformed
/// input.
pub fn load_model(bytes: &[u8]) -> Result<Graph, ImportError> {
    load_model_with_stats(bytes).map(|(g, _)| g)
}

/// [`load_model`], additionally returning the optimizer's [`OptStats`].
///
/// # Errors
///
/// Same contract as [`load_model`].
pub fn load_model_with_stats(bytes: &[u8]) -> Result<(Graph, OptStats), ImportError> {
    let mut ir = decode(bytes)?;
    let stats = ir.optimize();
    Ok((ir.lower()?, stats))
}

/// Imports a serialized model *without* running optimizer passes — the
/// reference path for fused-vs-unfused parity testing. Lowering still
/// keeps only the nodes that reach the output.
///
/// # Errors
///
/// Same contract as [`load_model`].
pub fn load_model_unoptimized(bytes: &[u8]) -> Result<Graph, ImportError> {
    Ok(decode(bytes)?.lower()?)
}

/// Reads and imports a model file.
///
/// # Errors
///
/// [`ImportError::Io`] when the file cannot be read, else as
/// [`load_model`].
pub fn load_model_from_path(path: impl AsRef<Path>) -> Result<Graph, ImportError> {
    load_model(&codec::read_file(path.as_ref())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphSpecBuilder;
    use crate::codec::{checksum, BODY_OFFSET};
    use crate::{init, OpSpec};

    fn sample_graph() -> Graph {
        let spec = GraphSpecBuilder::new(Shape::hwc(8, 8, 3))
            .conv2d(8, 3, 1, 1)
            .relu6()
            .dwconv(3, 1, 1)
            .relu6()
            .global_avg_pool()
            .dense(10)
            .build()
            .unwrap();
        init::with_structured_weights(spec, 123)
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let g = sample_graph();
        let bytes = save_model(&g);
        assert_eq!(&bytes[..4], b"QMCU");
        let back = load_model(&bytes).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let bytes = save_model(&sample_graph());
        for len in 0..bytes.len() {
            let err = decode(&bytes[..len]).expect_err("truncated stream must fail");
            assert!(
                matches!(
                    err,
                    ImportError::BadMagic { .. }
                        | ImportError::Truncated { .. }
                        | ImportError::ChecksumMismatch { .. }
                        | ImportError::Corrupted { .. }
                ),
                "unexpected error at len {len}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = save_model(&sample_graph());
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(ImportError::BadMagic { .. })));
        let mut bytes = save_model(&sample_graph());
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert_eq!(
            decode(&bytes).unwrap_err(),
            ImportError::UnsupportedVersion {
                found: FORMAT_VERSION + 1,
                supported: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn body_corruption_is_checksummed() {
        let clean = save_model(&sample_graph());
        let mut bytes = clean.clone();
        let mid = BODY_OFFSET + (bytes.len() - BODY_OFFSET) / 2;
        bytes[mid] ^= 0xff;
        assert!(matches!(decode(&bytes), Err(ImportError::ChecksumMismatch { .. })));
    }

    #[test]
    fn unknown_opcode_is_typed() {
        // Hand-build a minimal stream with opcode 200.
        let ir = ModelIr {
            input_shape: Shape::hwc(2, 2, 1),
            nodes: vec![IrNode {
                id: 0,
                op: IrOp::Core(OpSpec::Relu),
                inputs: vec![RawInput::Image],
                weights: vec![],
                bias: vec![],
            }],
            output: None,
        };
        let mut bytes = encode(&ir);
        // Node record starts after shape(16) + output(5) + count(4).
        let op_at = BODY_OFFSET + 16 + 5 + 4 + 4;
        bytes[op_at] = 200;
        let sum = checksum(&bytes[BODY_OFFSET..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode(&bytes).unwrap_err(),
            ImportError::UnknownOpcode { offset: op_at, opcode: 200 }
        );
    }

    #[test]
    fn oversized_initializer_length_rejected_before_alloc() {
        let ir = ModelIr {
            input_shape: Shape::hwc(2, 2, 1),
            nodes: vec![IrNode {
                id: 0,
                op: IrOp::Core(OpSpec::Relu),
                inputs: vec![RawInput::Image],
                weights: vec![],
                bias: vec![],
            }],
            output: None,
        };
        let mut bytes = encode(&ir);
        // The weight-length u32 sits 4 bytes before the bias-length u32,
        // i.e. 8 bytes before the end.
        let at = bytes.len() - 8;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let sum = checksum(&bytes[BODY_OFFSET..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(ImportError::Corrupted { .. })));
    }

    #[test]
    fn biasadd_stream_fuses_on_load() {
        let ir = ModelIr {
            input_shape: Shape::hwc(4, 4, 3),
            nodes: vec![
                IrNode {
                    id: 10,
                    op: IrOp::Core(OpSpec::Conv2d { out_ch: 2, kernel: 1, stride: 1, pad: 0 }),
                    inputs: vec![RawInput::Image],
                    weights: vec![0.5; 6],
                    bias: vec![],
                },
                IrNode {
                    id: 20,
                    op: IrOp::BiasAdd,
                    inputs: vec![RawInput::Node(10)],
                    weights: vec![],
                    bias: vec![1.0, -2.0],
                },
                IrNode {
                    id: 30,
                    op: IrOp::Core(OpSpec::Relu),
                    inputs: vec![RawInput::Node(20)],
                    weights: vec![],
                    bias: vec![],
                },
            ],
            output: Some(30),
        };
        let (g, stats) = load_model_with_stats(&encode(&ir)).unwrap();
        assert!(stats.total() >= 1);
        assert_eq!(g.spec().len(), 2);
        assert_eq!(g.params(0).bias(), &[1.0, -2.0]);
        // Unoptimized load must reject the import-only operator instead.
        assert!(matches!(
            load_model_unoptimized(&encode(&ir)),
            Err(ImportError::Model { node: Some(20), .. })
        ));
    }

    #[test]
    fn pipeline_stats_count_every_pass() {
        let node = |id, op, input, weights: usize, bias: Vec<f32>| IrNode {
            id,
            op,
            inputs: vec![input],
            weights: (0..weights).map(|i| (i % 5) as f32 * 0.25 - 0.5).collect(),
            bias,
        };
        let pw = |out_ch| IrOp::Core(OpSpec::Conv2d { out_ch, kernel: 1, stride: 1, pad: 0 });
        let core = IrOp::Core;
        // Round 1: the BiasAdd folds into node 1 and relu6(relu) drops node
        // 3 (fuse-conv-bias-relu), the expanding 3→16→2 pair folds
        // (fold-constants), the 1×1 pool goes (remove-identity) and node 7
        // is dead (eliminate-dead). Round 2: with the pool gone, relu(relu6)
        // drops node 6. Round 3 is quiet.
        let ir = ModelIr {
            input_shape: Shape::hwc(4, 4, 3),
            nodes: vec![
                node(0, pw(16), RawInput::Image, 16 * 3, vec![]),
                node(1, pw(2), RawInput::Node(0), 2 * 16, vec![]),
                node(2, IrOp::BiasAdd, RawInput::Node(1), 0, vec![0.5, -1.0]),
                node(3, core(OpSpec::Relu), RawInput::Node(2), 0, vec![]),
                node(4, core(OpSpec::Relu6), RawInput::Node(3), 0, vec![]),
                node(
                    5,
                    core(OpSpec::MaxPool { kernel: 1, stride: 1 }),
                    RawInput::Node(4),
                    0,
                    vec![],
                ),
                node(6, core(OpSpec::Relu), RawInput::Node(5), 0, vec![]),
                node(7, core(OpSpec::Relu6), RawInput::Image, 0, vec![]),
                node(8, core(OpSpec::GlobalAvgPool), RawInput::Node(6), 0, vec![]),
            ],
            output: Some(8),
        };
        let (g, stats) = load_model_with_stats(&encode(&ir)).unwrap();
        assert_eq!(
            stats.rewrites,
            vec![
                ("fuse-conv-bias-relu", 3),
                ("fold-constants", 1),
                ("remove-identity", 1),
                ("eliminate-dead", 1),
            ]
        );
        assert_eq!(stats.rounds, 3);
        assert!(stats.fixed_point);
        assert_eq!(
            stats.to_string(),
            "6 rewrite(s) in 3 round(s), fuse-conv-bias-relu: 3, fold-constants: 1, \
             remove-identity: 1, eliminate-dead: 1"
        );
        let ops: Vec<OpSpec> = g.spec().nodes().iter().map(|n| n.op).collect();
        assert_eq!(
            ops,
            [
                OpSpec::Conv2d { out_ch: 2, kernel: 1, stride: 1, pad: 0 },
                OpSpec::Relu6,
                OpSpec::GlobalAvgPool
            ]
        );
        assert_eq!(g.params(0).bias(), &[0.5, -1.0]);
        let capped = OptStats { fixed_point: false, ..stats };
        assert_eq!(
            capped.to_string(),
            "6 rewrite(s) in 3 round(s), fuse-conv-bias-relu: 3, fold-constants: 1, \
             remove-identity: 1, eliminate-dead: 1 (round cap hit)"
        );
    }

    #[test]
    fn io_error_is_typed() {
        let err = load_model_from_path("/nonexistent/model.qmcu").unwrap_err();
        assert!(matches!(err, ImportError::Io { .. }));
    }
}
