//! Versioned `.qplan` plan artifacts: a complete [`DeploymentPlan`] plus
//! the packed quantized state of its compiled integer tail, persisted to
//! a dependency-free binary format so a deployment can be restored
//! **bit-identically** with no calibration source at all (see
//! [`crate::Engine::deploy_from_artifact`]).
//!
//! # Format
//!
//! Little-endian throughout; floats are stored as their IEEE-754 bit
//! patterns (so calibrated ranges and quantization grids round-trip
//! bit-exactly). Layout:
//!
//! | field | encoding |
//! |---|---|
//! | magic | `QPLN` (4 bytes) |
//! | format version | `u32` |
//! | checksum | `u64` FNV-1a/64 over everything after this field |
//! | graph fingerprint | `u64` (FNV-1a/64 of the model's `.qmcu` bytes) |
//! | spec: input shape | `u32 × 4` (`n, h, w, c`) |
//! | spec: node count, then per node | opcode `u8`, attrs `u32 × attr_count`, input count `u16`, inputs `(u8, u32)` each |
//! | patch plan | `split_at, rows, cols` as `u32` |
//! | weight bitwidth | `u8` (bits) |
//! | patch classes | count `u32`, then `u8` each (`0` non-outlier, `1` outlier) |
//! | branch bitwidths | branch count `u32`, per branch: len `u32` + `u8` bits each |
//! | tail bitwidths | len `u32` + `u8` bits each |
//! | branch ranges | branch count `u32`, per branch: len `u32` + `(f32, f32)` bit pairs |
//! | tail ranges | len `u32` + `(f32, f32)` bit pairs |
//! | search time | secs `u64` + subsec nanos `u32` |
//! | tail act params | count `u32`, per entry: scale `f32` bits, zero point `i32`, bitwidth `u8` |
//! | tail node state | count `u32`, per node: packed weights (`u32` len + bytes), bias (`u32` len + `i64` each), acc scales (`u32` len + `f64` bits each), zp folds (`u32` len + `i64` each) |
//! | tail weight bitwidth | `u8` (must equal the plan's) |
//!
//! The header framing, the little-endian reader/writer and the spec's
//! operator records (opcodes 1–10) come from [`quantmcu_nn::codec`],
//! shared with the `.qmcu` model format ([`quantmcu_nn::import`]): the
//! checksum is verified *before* the body is parsed, every length field
//! is validated against the bytes actually remaining before any
//! allocation, structural errors carry the byte offset they occurred at,
//! and decoding never panics. Dataflow branches are **not** serialized —
//! they are a deterministic function of the spec and the patch plan and
//! are rebuilt on load.
//!
//! # Versioning rules
//!
//! The magic is fixed forever. Readers accept exactly the versions they
//! know ([`FORMAT_VERSION`]); a higher version is
//! [`ArtifactError::UnsupportedVersion`], never a best-effort parse.

use std::fmt;
use std::path::Path;
use std::time::Duration;

use quantmcu_nn::codec::{self, fnv1a64, CodecError, Reader, Writer};
use quantmcu_nn::exec::{NodeQuantState, QuantState};
use quantmcu_nn::{Graph, GraphSpec, NodeSpec};
use quantmcu_patch::{Branch, PatchPlan};
use quantmcu_quant::vdpc::PatchClass;
use quantmcu_tensor::{Bitwidth, QuantParams, Shape};

use crate::plan::DeploymentPlan;

/// The four magic bytes opening every `.qplan` file.
pub const MAGIC: [u8; 4] = *b"QPLN";

/// The format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a serialized plan artifact could not be loaded.
///
/// Every variant carries enough context (byte offsets, fingerprints, the
/// failing invariant) to locate the defect in the input file.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The file does not start with [`MAGIC`] — not a `.qplan` artifact.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file's format version is newer than this reader understands.
    UnsupportedVersion {
        /// Version stamped in the header.
        found: u32,
        /// Highest version this build supports.
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
    /// A spec node uses an opcode this version does not define.
    UnknownOpcode {
        /// Byte offset of the opcode byte.
        offset: usize,
        /// The unrecognized opcode value.
        opcode: u8,
    },
    /// The byte stream is structurally inconsistent (bad tag, impossible
    /// length, unsupported bitwidth, …).
    Corrupted {
        /// Byte offset of the inconsistency.
        offset: usize,
        /// What was wrong.
        detail: &'static str,
    },
    /// The artifact was planned for a different model than the one it is
    /// being deployed onto.
    FingerprintMismatch {
        /// Fingerprint of the graph being deployed onto.
        expected: u64,
        /// Fingerprint recorded in the artifact.
        found: u64,
    },
    /// The decoded fields are individually well-formed but do not
    /// assemble into a valid plan (spec validation, patch fit, or a
    /// cross-field length invariant failed).
    Plan {
        /// Human-readable description of the failing invariant.
        detail: String,
    },
    /// Reading or writing the artifact file failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error, stringified ([`std::io::Error`] is not `Clone`).
        detail: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic { found } => {
                write!(f, "not a qplan artifact: magic {found:02x?}, expected {MAGIC:02x?}")
            }
            ArtifactError::UnsupportedVersion { found, supported } => {
                write!(f, "format version {found} unsupported (this build reads <= {supported})")
            }
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: header {stored:#018x}, body {computed:#018x} — file damaged"
            ),
            ArtifactError::Truncated { offset, field } => {
                write!(f, "byte {offset}: stream ends inside {field}")
            }
            ArtifactError::UnknownOpcode { offset, opcode } => {
                write!(f, "byte {offset}: unknown opcode {opcode}")
            }
            ArtifactError::Corrupted { offset, detail } => write!(f, "byte {offset}: {detail}"),
            ArtifactError::FingerprintMismatch { expected, found } => write!(
                f,
                "plan was built for a different model: graph fingerprint {expected:#018x}, \
                 artifact carries {found:#018x}"
            ),
            ArtifactError::Plan { detail } => write!(f, "invalid plan: {detail}"),
            ArtifactError::Io { path, detail } => write!(f, "{path}: {detail}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<CodecError> for ArtifactError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::BadMagic { found } => ArtifactError::BadMagic { found },
            CodecError::UnsupportedVersion { found, supported } => {
                ArtifactError::UnsupportedVersion { found, supported }
            }
            CodecError::ChecksumMismatch { stored, computed } => {
                ArtifactError::ChecksumMismatch { stored, computed }
            }
            CodecError::Truncated { offset, field } => ArtifactError::Truncated { offset, field },
            CodecError::UnknownOpcode { offset, opcode } => {
                ArtifactError::UnknownOpcode { offset, opcode }
            }
            CodecError::Corrupted { offset, detail } => ArtifactError::Corrupted { offset, detail },
            CodecError::Io { path, detail } => ArtifactError::Io { path, detail },
        }
    }
}

/// The fingerprint a `.qplan` artifact binds to: the FNV-1a/64 hash of
/// the model's canonical `.qmcu` serialization
/// ([`quantmcu_nn::import::save_model`]), which covers the spec *and*
/// every weight bit-exactly.
pub fn graph_fingerprint(graph: &Graph) -> u64 {
    fnv1a64(&quantmcu_nn::import::save_model(graph))
}

// ---------------------------------------------------------------------------
// The artifact
// ---------------------------------------------------------------------------

/// A decoded (or to-be-encoded) `.qplan` artifact: the model fingerprint
/// it binds to, the full [`DeploymentPlan`], and the packed quantized
/// state of the plan's compiled integer tail.
///
/// Produced by [`crate::Deployment::save`] / [`PlanArtifact::decode`] and
/// consumed by [`crate::Engine::deploy_from_artifact`] — the round trip
/// is bit-exact, so a restored deployment computes outputs bit-identical
/// to the calibrated original with **zero** calibration work.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanArtifact {
    fingerprint: u64,
    plan: DeploymentPlan,
    tail: QuantState,
}

impl PlanArtifact {
    /// Assembles an artifact from its parts. The caller is responsible
    /// for internal consistency (use [`crate::Deployment::save`] to
    /// persist a live deployment); [`PlanArtifact::decode`] re-validates
    /// everything on the way back in.
    pub fn new(fingerprint: u64, plan: DeploymentPlan, tail: QuantState) -> Self {
        PlanArtifact { fingerprint, plan, tail }
    }

    /// Fingerprint of the model this plan was built for
    /// (see [`graph_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The deployment plan.
    pub fn plan(&self) -> &DeploymentPlan {
        &self.plan
    }

    /// The packed quantized state of the plan's integer tail.
    pub fn tail_state(&self) -> &QuantState {
        &self.tail
    }

    /// Decomposes the artifact into `(fingerprint, plan, tail state)`.
    pub fn into_parts(self) -> (u64, DeploymentPlan, QuantState) {
        (self.fingerprint, self.plan, self.tail)
    }

    /// Serializes the artifact to `.qplan` bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(MAGIC, FORMAT_VERSION);
        w.u64(self.fingerprint);

        let plan = &self.plan;
        let s = plan.spec.input_shape();
        for v in [s.n, s.h, s.w, s.c] {
            w.u32(v as u32);
        }
        w.count(plan.spec.len());
        for node in plan.spec.nodes() {
            let (opcode, attrs) = codec::op_code(&node.op);
            w.op(opcode, &attrs, node.inputs.iter().copied());
        }

        let pp = &plan.patch_plan;
        for v in [pp.split_at(), pp.rows(), pp.cols()] {
            w.u32(v as u32);
        }
        w.u8(plan.weight_bits.bits() as u8);

        w.count(plan.patch_classes.len());
        for c in &plan.patch_classes {
            w.u8(match c {
                PatchClass::NonOutlier => 0,
                PatchClass::Outlier => 1,
            });
        }

        let write_bits = |w: &mut Writer, bits: &[Bitwidth]| {
            w.count(bits.len());
            for b in bits {
                w.u8(b.bits() as u8);
            }
        };
        w.count(plan.branch_bits.len());
        for bits in &plan.branch_bits {
            write_bits(&mut w, bits);
        }
        write_bits(&mut w, &plan.tail_bits);

        let write_ranges = |w: &mut Writer, ranges: &[(f32, f32)]| {
            w.count(ranges.len());
            for &(lo, hi) in ranges {
                w.u32(lo.to_bits());
                w.u32(hi.to_bits());
            }
        };
        w.count(plan.branch_ranges.len());
        for ranges in &plan.branch_ranges {
            write_ranges(&mut w, ranges);
        }
        write_ranges(&mut w, &plan.tail_ranges);

        w.u64(plan.search_time.as_secs());
        w.u32(plan.search_time.subsec_nanos());

        let tail = &self.tail;
        w.count(tail.act_params.len());
        for p in &tail.act_params {
            w.u32(p.scale().to_bits());
            w.u32(p.zero_point() as u32);
            w.u8(p.bitwidth().bits() as u8);
        }
        w.count(tail.nodes.len());
        for n in &tail.nodes {
            w.count(n.packed_weights.len());
            w.bytes(&n.packed_weights);
            w.count(n.bias_q.len());
            for &v in &n.bias_q {
                w.u64(v as u64);
            }
            w.count(n.acc_scale.len());
            for &v in &n.acc_scale {
                w.u64(v.to_bits());
            }
            w.count(n.zp_fold.len());
            for &v in &n.zp_fold {
                w.u64(v as u64);
            }
        }
        w.u8(tail.weight_bits.bits() as u8);
        w.finish()
    }

    /// Writes the artifact to a `.qplan` file.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the file cannot be written.
    pub fn encode_to_path(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        Ok(codec::write_file(path.as_ref(), &self.encode())?)
    }

    /// Deserializes and validates `.qplan` bytes.
    ///
    /// The checksum is verified before the body is parsed; the decoded
    /// fields are then re-validated end to end — the spec through
    /// [`GraphSpec::new`], the patch schedule through [`PatchPlan::new`],
    /// and every cross-field length invariant the planner established —
    /// so a successfully decoded artifact is structurally sound even when
    /// the input came from an untrusted file.
    ///
    /// # Errors
    ///
    /// A typed [`ArtifactError`] for every way the bytes can be wrong:
    /// damaged header, checksum mismatch, truncation, unknown opcode,
    /// impossible length, or a semantic invariant that does not hold.
    /// Decoding never panics.
    pub fn decode(bytes: &[u8]) -> Result<PlanArtifact, ArtifactError> {
        let r = &mut codec::open(bytes, MAGIC, FORMAT_VERSION)?;
        let fingerprint = r.u64("graph fingerprint")?;

        let spec = decode_spec(r)?;
        let split_at = r.u32("split point")? as usize;
        let rows = r.u32("grid rows")? as usize;
        let cols = r.u32("grid cols")? as usize;
        let patch_plan = PatchPlan::new(&spec, split_at, rows, cols)
            .map_err(|e| ArtifactError::Plan { detail: e.to_string() })?;
        let weight_bits = read_bitwidth(r, "weight bitwidth")?;

        let n_classes = r.count(1, "patch class count")?;
        let mut patch_classes = Vec::with_capacity(n_classes);
        for _ in 0..n_classes {
            let at = r.offset();
            patch_classes.push(match r.u8("patch class")? {
                0 => PatchClass::NonOutlier,
                1 => PatchClass::Outlier,
                _ => {
                    return Err(ArtifactError::Corrupted { offset: at, detail: "bad patch class" })
                }
            });
        }

        let n_branches = r.count(4, "branch count")?;
        let mut branch_bits = Vec::with_capacity(n_branches);
        for _ in 0..n_branches {
            branch_bits.push(read_bits_vec(r)?);
        }
        let tail_bits = read_bits_vec(r)?;

        let n_range_branches = r.count(4, "branch range count")?;
        let mut branch_ranges = Vec::with_capacity(n_range_branches);
        for _ in 0..n_range_branches {
            branch_ranges.push(read_ranges_vec(r)?);
        }
        let tail_ranges = read_ranges_vec(r)?;

        let secs = r.u64("search time secs")?;
        let at = r.offset();
        let nanos = r.u32("search time nanos")?;
        if nanos >= 1_000_000_000 {
            return Err(ArtifactError::Corrupted { offset: at, detail: "bad nanosecond count" });
        }
        let search_time = Duration::new(secs, nanos);

        let tail = decode_quant_state(r)?;
        r.end("trailing bytes after artifact body")?;

        // Cross-field invariants: everything Deployment construction (and
        // DeploymentPlan's accessors) assume, checked here with typed
        // errors instead of downstream panics.
        let branch_count = patch_plan.branch_count();
        let split = patch_plan.split_at();
        let invariant = |ok: bool, detail: &str| -> Result<(), ArtifactError> {
            if ok {
                Ok(())
            } else {
                Err(ArtifactError::Plan { detail: detail.to_string() })
            }
        };
        invariant(
            patch_classes.len() == branch_count,
            "patch class count does not match the patch grid",
        )?;
        invariant(
            branch_bits.len() == branch_count && branch_ranges.len() == branch_count,
            "per-branch vectors do not match the patch grid",
        )?;
        for (bits, ranges) in branch_bits.iter().zip(&branch_ranges) {
            invariant(
                bits.len() == split + 1 && ranges.len() == split + 1,
                "branch bitwidths/ranges do not cover the head",
            )?;
        }
        let tail_maps = spec.len() - split + 1;
        invariant(
            tail_bits.len() == tail_maps && tail_ranges.len() == tail_maps,
            "tail bitwidths/ranges do not cover the tail",
        )?;
        invariant(
            tail.act_params.len() == tail_maps,
            "tail activation params do not cover the tail",
        )?;
        invariant(
            tail.nodes.len() == spec.len() - split,
            "tail node state does not cover the tail",
        )?;
        invariant(tail.weight_bits == weight_bits, "tail weight bitwidth disagrees with the plan")?;
        for (p, &b) in tail.act_params.iter().zip(&tail_bits) {
            invariant(
                p.bitwidth() == b,
                "tail activation params disagree with the tail bitwidths",
            )?;
        }

        let branches = Branch::build_all(&spec, &patch_plan);
        let plan = DeploymentPlan {
            spec,
            patch_plan,
            branches,
            patch_classes,
            branch_bits,
            tail_bits,
            weight_bits,
            branch_ranges,
            tail_ranges,
            search_time,
        };
        Ok(PlanArtifact { fingerprint, plan, tail })
    }

    /// Reads and decodes a `.qplan` file.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the file cannot be read, otherwise the
    /// same errors as [`PlanArtifact::decode`].
    pub fn decode_from_path(path: impl AsRef<Path>) -> Result<PlanArtifact, ArtifactError> {
        PlanArtifact::decode(&codec::read_file(path.as_ref())?)
    }
}

fn read_bitwidth(r: &mut Reader<'_>, field: &'static str) -> Result<Bitwidth, ArtifactError> {
    let at = r.offset();
    let bits = r.u8(field)?;
    Bitwidth::try_from(u32::from(bits))
        .map_err(|_| ArtifactError::Corrupted { offset: at, detail: "unsupported bitwidth" })
}

fn read_bits_vec(r: &mut Reader<'_>) -> Result<Vec<Bitwidth>, ArtifactError> {
    let n = r.count(1, "bitwidth vector length")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_bitwidth(r, "bitwidth")?);
    }
    Ok(out)
}

fn read_ranges_vec(r: &mut Reader<'_>) -> Result<Vec<(f32, f32)>, ArtifactError> {
    let n = r.count(8, "range vector length")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let lo = f32::from_bits(r.u32("range min")?);
        let hi = f32::from_bits(r.u32("range max")?);
        out.push((lo, hi));
    }
    Ok(out)
}

fn decode_spec(r: &mut Reader<'_>) -> Result<GraphSpec, ArtifactError> {
    let n = r.u32("input shape n")? as usize;
    let h = r.u32("input shape h")? as usize;
    let w = r.u32("input shape w")? as usize;
    let c = r.u32("input shape c")? as usize;
    let input_shape = Shape::new(n, h, w, c);
    // Smallest node record: opcode (1) + input count (2).
    let node_count = r.count(3, "node count")?;
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let (op, inputs) = r.op(codec::op_from)?;
        nodes.push(NodeSpec { op, inputs });
    }
    GraphSpec::new(input_shape, nodes).map_err(|e| ArtifactError::Plan { detail: e.to_string() })
}

fn decode_quant_state(r: &mut Reader<'_>) -> Result<QuantState, ArtifactError> {
    // Smallest act-param record: scale (4) + zero point (4) + bitwidth (1).
    let n_params = r.count(9, "activation param count")?;
    let mut act_params = Vec::with_capacity(n_params);
    for _ in 0..n_params {
        let at = r.offset();
        let scale = f32::from_bits(r.u32("activation scale")?);
        let zero_point = r.u32("activation zero point")? as i32;
        let bitwidth = read_bitwidth(r, "activation bitwidth")?;
        act_params.push(
            QuantParams::from_raw_parts(scale, zero_point, bitwidth).map_err(|_| {
                ArtifactError::Corrupted { offset: at, detail: "bad activation grid" }
            })?,
        );
    }
    // Smallest node record: four empty length fields.
    let n_nodes = r.count(16, "tail node count")?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let n_packed = r.count(1, "packed weight length")?;
        let packed_weights = r.take(n_packed, "packed weights")?.to_vec();
        let bias_q = r.u64s("bias length")?.into_iter().map(|v| v as i64).collect();
        let acc_scale =
            r.u64s("accumulator scale length")?.into_iter().map(f64::from_bits).collect();
        let zp_fold = r.u64s("zero-point fold length")?.into_iter().map(|v| v as i64).collect();
        nodes.push(NodeQuantState { packed_weights, bias_q, acc_scale, zp_fold });
    }
    let weight_bits = read_bitwidth(r, "tail weight bitwidth")?;
    Ok(QuantState { act_params, nodes, weight_bits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, SramBudget};
    use quantmcu_nn::codec::BODY_OFFSET;
    use quantmcu_nn::{init, GraphSpecBuilder};
    use quantmcu_tensor::Tensor;

    fn graph() -> Graph {
        let spec = GraphSpecBuilder::new(Shape::hwc(16, 16, 3))
            .conv2d(8, 3, 2, 1)
            .relu6()
            .pwconv(12)
            .relu6()
            .conv2d(16, 3, 2, 1)
            .relu6()
            .global_avg_pool()
            .dense(6)
            .build()
            .unwrap();
        init::with_structured_weights(spec, 31)
    }

    fn calib(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|s| Tensor::from_fn(Shape::hwc(16, 16, 3), |i| ((i + 97 * s) as f32 * 0.19).sin()))
            .collect()
    }

    fn artifact() -> PlanArtifact {
        let engine = Engine::builder(graph()).sram_budget(SramBudget::kib(256)).build();
        let dep = engine.deploy(engine.plan(calib(4)).unwrap()).unwrap();
        PlanArtifact::decode(&dep.save().unwrap()).unwrap()
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let a = artifact();
        let bytes = a.encode();
        let b = PlanArtifact::decode(&bytes).unwrap();
        assert_eq!(a, b);
        assert_eq!(bytes, b.encode(), "re-encode must be byte-identical");
    }

    #[test]
    fn header_errors_are_typed() {
        let bytes = artifact().encode();

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            PlanArtifact::decode(&bad),
            Err(ArtifactError::BadMagic { found }) if found[0] == b'X'
        ));

        let mut bumped = bytes.clone();
        bumped[4] = FORMAT_VERSION as u8 + 1;
        assert!(matches!(
            PlanArtifact::decode(&bumped),
            Err(ArtifactError::UnsupportedVersion { supported, .. })
                if supported == FORMAT_VERSION
        ));

        let mut flipped = bytes.clone();
        let mid = BODY_OFFSET + (flipped.len() - BODY_OFFSET) / 2;
        flipped[mid] ^= 0xff;
        assert!(matches!(
            PlanArtifact::decode(&flipped),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));

        assert!(matches!(PlanArtifact::decode(&bytes[..8]), Err(ArtifactError::Truncated { .. })));
    }

    #[test]
    fn truncations_are_typed_after_checksum_repair() {
        let bytes = artifact().encode();
        for len in [BODY_OFFSET, BODY_OFFSET + 9, bytes.len() / 2, bytes.len() - 1] {
            let mut cut = bytes[..len].to_vec();
            let sum = fnv1a64(&cut[BODY_OFFSET..]);
            cut[8..16].copy_from_slice(&sum.to_le_bytes());
            let err = PlanArtifact::decode(&cut).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArtifactError::Truncated { .. }
                        | ArtifactError::Corrupted { .. }
                        | ArtifactError::Plan { .. }
                ),
                "len {len}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = artifact().encode();
        bytes.push(0);
        let sum = fnv1a64(&bytes[BODY_OFFSET..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            PlanArtifact::decode(&bytes),
            Err(ArtifactError::Corrupted { detail: "trailing bytes after artifact body", .. })
        ));
    }

    #[test]
    fn fingerprint_is_weight_sensitive() {
        let a = graph_fingerprint(&graph());
        let spec = graph().spec().clone();
        let b = graph_fingerprint(&init::with_structured_weights(spec, 32));
        assert_ne!(a, b, "different weights must fingerprint differently");
        assert_eq!(a, graph_fingerprint(&graph()), "fingerprint must be deterministic");
    }

    #[test]
    fn io_errors_carry_the_path() {
        let err = PlanArtifact::decode_from_path("/nonexistent/plan.qplan").unwrap_err();
        assert!(matches!(&err, ArtifactError::Io { path, .. } if path.contains("nonexistent")));
        let err = artifact().encode_to_path("/nonexistent/plan.qplan").unwrap_err();
        assert!(matches!(&err, ArtifactError::Io { .. }));
    }
}
