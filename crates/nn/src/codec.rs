//! The one binary codec under both file formats: `.qmcu` models
//! ([`crate::import`]) and `.qplan` plan artifacts (`quantmcu::artifact`).
//!
//! It owns everything the two formats share, so they cannot drift apart:
//!
//! * the 16-byte header — four magic bytes, a `u32` format version and an
//!   FNV-1a/64 checksum ([`fnv1a64`]) over every byte after it — sealed by
//!   [`Writer::finish`] and verified by [`open`] *before* the body is
//!   parsed;
//! * little-endian primitives: [`Writer`] on the way out, the
//!   bounds-checked [`Reader`] on the way back. Every read error carries
//!   the absolute byte offset of its field, and [`Reader::count`]
//!   validates a length prefix against the bytes remaining before the
//!   caller allocates anything, so decoding never panics and never
//!   over-allocates;
//! * the operator table ([`op_code`] / [`op_from`]: opcodes 1–10, one per
//!   [`OpSpec`], each with a fixed `u32` attribute block) and the operator
//!   record both formats store per node: opcode `u8`, attributes,
//!   input count `u16`, then one `(tag u8, id u32)` pair per input (tag
//!   `0` = the graph input, `1` = a node).
//!
//! Format-specific errors ([`crate::import::ImportError`],
//! `quantmcu::ArtifactError`) are reached from [`CodecError`] through
//! `From` conversions.

use std::path::Path;

use crate::{OpSpec, Source};

/// Byte offset where the checksummed region (and the body) begins.
pub const BODY_OFFSET: usize = 16;

/// The most attributes any opcode carries.
const MAX_ATTRS: usize = 4;

/// A framing, stream or file error, with the byte offset where one
/// applies. The format modules convert it into their public error types,
/// which carry the `Display` text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes do not start with the expected magic.
    BadMagic {
        /// The (zero-padded) first four bytes actually found.
        found: [u8; 4],
    },
    /// The header's format version is not the one this build reads.
    UnsupportedVersion {
        /// Version stamped in the header.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The stored checksum does not match the body.
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
    /// An operator record uses an opcode the format does not define.
    UnknownOpcode {
        /// Byte offset of the opcode byte.
        offset: usize,
        /// The unrecognized opcode value.
        opcode: u8,
    },
    /// The stream is structurally inconsistent.
    Corrupted {
        /// Byte offset of the inconsistency.
        offset: usize,
        /// What was wrong.
        detail: &'static str,
    },
    /// Reading or writing a file failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error, stringified.
        detail: String,
    },
}

/// FNV-1a 64-bit hash — both formats' integrity checksum, and the `.qplan`
/// model fingerprint.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Reads a whole file, mapping failure to [`CodecError::Io`].
pub fn read_file(path: &Path) -> Result<Vec<u8>, CodecError> {
    std::fs::read(path).map_err(|e| io_error(path, &e))
}

/// Writes a whole file, mapping failure to [`CodecError::Io`].
pub fn write_file(path: &Path, bytes: &[u8]) -> Result<(), CodecError> {
    std::fs::write(path, bytes).map_err(|e| io_error(path, &e))
}

fn io_error(path: &Path, e: &std::io::Error) -> CodecError {
    CodecError::Io { path: path.display().to_string(), detail: e.to_string() }
}

// ---------------------------------------------------------------------------
// Operator table
// ---------------------------------------------------------------------------

/// The opcode and attribute block of an operator — the encoding half of
/// the operator table ([`op_from`] is its inverse).
pub fn op_code(op: &OpSpec) -> (u8, Vec<u32>) {
    let u = |v: usize| v as u32;
    match *op {
        OpSpec::Conv2d { out_ch, kernel, stride, pad } => {
            (1, vec![u(out_ch), u(kernel), u(stride), u(pad)])
        }
        OpSpec::DepthwiseConv2d { kernel, stride, pad } => (2, vec![u(kernel), u(stride), u(pad)]),
        OpSpec::Dense { out } => (3, vec![u(out)]),
        OpSpec::MaxPool { kernel, stride } => (4, vec![u(kernel), u(stride)]),
        OpSpec::AvgPool { kernel, stride } => (5, vec![u(kernel), u(stride)]),
        OpSpec::GlobalAvgPool => (6, Vec::new()),
        OpSpec::Relu => (7, Vec::new()),
        OpSpec::Relu6 => (8, Vec::new()),
        OpSpec::Add => (9, Vec::new()),
        OpSpec::Concat => (10, Vec::new()),
    }
}

/// The operator an opcode and its attributes denote, or `None` for an
/// opcode outside the table. `attrs` must hold at least the opcode's
/// attribute count (extra entries are ignored).
pub fn op_from(opcode: u8, attrs: &[u32]) -> Option<OpSpec> {
    let u = |i: usize| attrs[i] as usize;
    Some(match opcode {
        1 => OpSpec::Conv2d { out_ch: u(0), kernel: u(1), stride: u(2), pad: u(3) },
        2 => OpSpec::DepthwiseConv2d { kernel: u(0), stride: u(1), pad: u(2) },
        3 => OpSpec::Dense { out: u(0) },
        4 => OpSpec::MaxPool { kernel: u(0), stride: u(1) },
        5 => OpSpec::AvgPool { kernel: u(0), stride: u(1) },
        6 => OpSpec::GlobalAvgPool,
        7 => OpSpec::Relu,
        8 => OpSpec::Relu6,
        9 => OpSpec::Add,
        10 => OpSpec::Concat,
        _ => return None,
    })
}

/// How many attributes follow `opcode` on the wire: read off the table
/// itself, so encoder and decoder cannot disagree. Opcodes outside the
/// table carry none.
fn attr_count(opcode: u8) -> usize {
    op_from(opcode, &[0; MAX_ATTRS]).map_or(0, |op| op_code(&op).1.len())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// A little-endian encoder that opens with the format header and seals its
/// checksum in [`Writer::finish`].
#[derive(Debug)]
pub struct Writer {
    out: Vec<u8>,
}

impl Writer {
    /// Starts a stream with `magic`, `version` and a checksum placeholder.
    pub fn new(magic: [u8; 4], version: u32) -> Self {
        let mut w = Writer { out: Vec::new() };
        w.bytes(&magic);
        w.u32(version);
        w.u64(0);
        w
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u32` length prefix (the counterpart of [`Reader::count`]).
    pub fn count(&mut self, n: usize) {
        self.u32(n as u32);
    }

    /// Appends a length-prefixed vector of `f32` bit patterns.
    pub fn f32s(&mut self, values: &[f32]) {
        self.count(values.len());
        for &v in values {
            self.u32(v.to_bits());
        }
    }

    /// Appends an operator record: opcode, attributes, `u16` input count,
    /// then `(tag, id)` per input.
    pub fn op(&mut self, opcode: u8, attrs: &[u32], inputs: impl ExactSizeIterator<Item = Source>) {
        self.u8(opcode);
        for &a in attrs {
            self.u32(a);
        }
        self.bytes(&(inputs.len() as u16).to_le_bytes());
        for input in inputs {
            match input {
                Source::Input => {
                    self.u8(0);
                    self.u32(0);
                }
                Source::Node(id) => {
                    self.u8(1);
                    self.u32(id as u32);
                }
            }
        }
    }

    /// Seals the checksum over the body and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.out[BODY_OFFSET..]);
        self.out[8..BODY_OFFSET].copy_from_slice(&sum.to_le_bytes());
        self.out
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Verifies the header of `bytes` — magic, then version, then the checksum
/// over the whole body — and returns a [`Reader`] over the body.
///
/// # Errors
///
/// [`CodecError::BadMagic`], [`CodecError::Truncated`] (shorter than the
/// header), [`CodecError::UnsupportedVersion`] or
/// [`CodecError::ChecksumMismatch`].
pub fn open(bytes: &[u8], magic: [u8; 4], version: u32) -> Result<Reader<'_>, CodecError> {
    if bytes.get(..4) != Some(&magic[..]) {
        let mut found = [0u8; 4];
        for (d, s) in found.iter_mut().zip(bytes) {
            *d = *s;
        }
        return Err(CodecError::BadMagic { found });
    }
    if bytes.len() < BODY_OFFSET {
        return Err(CodecError::Truncated { offset: 4, field: "header" });
    }
    let found = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if found != version {
        return Err(CodecError::UnsupportedVersion { found, supported: version });
    }
    let stored = u64::from_le_bytes(bytes[8..BODY_OFFSET].try_into().expect("8 bytes"));
    let computed = fnv1a64(&bytes[BODY_OFFSET..]);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok(Reader { bytes: &bytes[BODY_OFFSET..], base: BODY_OFFSET, pos: 0 })
}

/// A bounds-checked little-endian cursor over a body. Every read is
/// checked against the remaining bytes; a short read is
/// [`CodecError::Truncated`] at the absolute byte offset of the field it
/// was decoding.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    /// Absolute offset of `bytes[0]` in the original stream.
    base: usize,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Absolute byte offset of the next read.
    pub fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes left unread.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `len` bytes.
    pub fn take(&mut self, len: usize, field: &'static str) -> Result<&'a [u8], CodecError> {
        if len > self.remaining() {
            return Err(CodecError::Truncated { offset: self.offset(), field });
        }
        let s = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], CodecError> {
        Ok(self.take(N, field)?.try_into().expect("take returns exactly N bytes"))
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, CodecError> {
        Ok(self.array::<1>(field)?[0])
    }

    /// Reads a `u16`.
    fn u16(&mut self, field: &'static str) -> Result<u16, CodecError> {
        self.array(field).map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self, field: &'static str) -> Result<u32, CodecError> {
        self.array(field).map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self, field: &'static str) -> Result<u64, CodecError> {
        self.array(field).map(u64::from_le_bytes)
    }

    /// Reads a `u32` element count and checks that `count × min_bytes`
    /// bytes remain, *before* the caller allocates anything — a corrupted
    /// count cannot cause an out-of-memory abort.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`], or [`CodecError::Corrupted`] when the
    /// count exceeds the payload.
    pub fn count(&mut self, min_bytes: usize, field: &'static str) -> Result<usize, CodecError> {
        let at = self.offset();
        let n = self.u32(field)? as usize;
        if n.checked_mul(min_bytes).map_or(true, |need| need > self.remaining()) {
            return Err(CodecError::Corrupted { offset: at, detail: "length exceeds payload" });
        }
        Ok(n)
    }

    /// The `N`-byte elements of a length-prefixed vector.
    fn elements<const N: usize>(
        &mut self,
        field: &'static str,
    ) -> Result<impl Iterator<Item = [u8; N]> + 'a, CodecError> {
        let n = self.count(N, field)?;
        let bytes = self.take(n * N, field)?;
        Ok(bytes.chunks_exact(N).map(|b| b.try_into().expect("N-byte chunk")))
    }

    /// Reads a length-prefixed vector of `f32` bit patterns.
    ///
    /// # Errors
    ///
    /// As [`Reader::count`].
    pub fn f32s(&mut self, field: &'static str) -> Result<Vec<f32>, CodecError> {
        Ok(self.elements(field)?.map(|b| f32::from_bits(u32::from_le_bytes(b))).collect())
    }

    /// Reads a length-prefixed vector of `u64`s.
    ///
    /// # Errors
    ///
    /// As [`Reader::count`].
    pub fn u64s(&mut self, field: &'static str) -> Result<Vec<u64>, CodecError> {
        Ok(self.elements(field)?.map(u64::from_le_bytes).collect())
    }

    /// Reads an operator record. `decode` maps the opcode and its
    /// attributes to the caller's operator type, returning `None` for an
    /// opcode the format does not define.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnknownOpcode`], [`CodecError::Truncated`], or
    /// [`CodecError::Corrupted`] for a bad input tag or an input count
    /// exceeding the payload.
    pub fn op<T>(
        &mut self,
        decode: impl FnOnce(u8, &[u32]) -> Option<T>,
    ) -> Result<(T, Vec<Source>), CodecError> {
        let at = self.offset();
        let opcode = self.u8("opcode")?;
        let mut attrs = [0u32; MAX_ATTRS];
        let n_attrs = attr_count(opcode);
        for slot in &mut attrs[..n_attrs] {
            *slot = self.u32("operator attribute")?;
        }
        let op = decode(opcode, &attrs[..n_attrs])
            .ok_or(CodecError::UnknownOpcode { offset: at, opcode })?;
        let n_inputs = usize::from(self.u16("input count")?);
        if n_inputs * 5 > self.remaining() {
            return Err(CodecError::Corrupted {
                offset: at,
                detail: "input count exceeds payload",
            });
        }
        let mut inputs = Vec::with_capacity(n_inputs);
        for _ in 0..n_inputs {
            let tag_at = self.offset();
            let tag = self.u8("input tag")?;
            let id = self.u32("input id")? as usize;
            inputs.push(match tag {
                0 => Source::Input,
                1 => Source::Node(id),
                _ => return Err(CodecError::Corrupted { offset: tag_at, detail: "bad input tag" }),
            });
        }
        Ok((op, inputs))
    }

    /// Checks that the whole body was consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupted`] with `detail` when bytes remain.
    pub fn end(&self, detail: &'static str) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Corrupted { offset: self.offset(), detail })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TEST";

    #[test]
    fn op_table_round_trips_every_operator() {
        let ops = [
            OpSpec::Conv2d { out_ch: 8, kernel: 3, stride: 2, pad: 1 },
            OpSpec::DepthwiseConv2d { kernel: 5, stride: 1, pad: 2 },
            OpSpec::Dense { out: 10 },
            OpSpec::MaxPool { kernel: 2, stride: 2 },
            OpSpec::AvgPool { kernel: 3, stride: 1 },
            OpSpec::GlobalAvgPool,
            OpSpec::Relu,
            OpSpec::Relu6,
            OpSpec::Add,
            OpSpec::Concat,
        ];
        for op in ops {
            let (code, attrs) = op_code(&op);
            assert_eq!(attr_count(code), attrs.len(), "{op:?}");
            assert_eq!(op_from(code, &attrs), Some(op));
        }
        assert_eq!(op_from(0, &[]), None);
        assert_eq!(attr_count(11), 0);
    }

    #[test]
    fn sealed_stream_round_trips() {
        let mut w = Writer::new(MAGIC, 3);
        w.u64(u64::MAX - 1);
        w.f32s(&[1.5, -0.0, f32::NAN]);
        w.op(1, &[8, 3, 2, 1], [Source::Input, Source::Node(7)].into_iter());
        let bytes = w.finish();
        let mut r = open(&bytes, MAGIC, 3).unwrap();
        assert_eq!(r.u64("a").unwrap(), u64::MAX - 1);
        let f = r.f32s("b").unwrap();
        assert_eq!((f[0], f[1].to_bits(), f[2].is_nan()), (1.5, (-0.0f32).to_bits(), true));
        let (op, inputs) = r.op(op_from).unwrap();
        assert_eq!(op, OpSpec::Conv2d { out_ch: 8, kernel: 3, stride: 2, pad: 1 });
        assert_eq!(inputs, vec![Source::Input, Source::Node(7)]);
        assert_eq!(r.end("trailing"), Ok(()));
    }

    #[test]
    fn header_errors_are_typed_in_order() {
        let bytes = Writer::new(MAGIC, 1).finish();
        assert_eq!(
            open(&bytes[..2], MAGIC, 1).unwrap_err(),
            CodecError::BadMagic { found: [b'T', b'E', 0, 0] }
        );
        assert!(matches!(
            open(&bytes[..8], MAGIC, 1),
            Err(CodecError::Truncated { offset: 4, .. })
        ));
        assert!(matches!(open(&bytes, MAGIC, 2), Err(CodecError::UnsupportedVersion { .. })));
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(open(&extended, MAGIC, 1), Err(CodecError::ChecksumMismatch { .. })));
    }

    #[test]
    fn counts_are_checked_before_allocation() {
        let mut w = Writer::new(MAGIC, 1);
        w.count(u32::MAX as usize);
        let bytes = w.finish();
        let mut r = open(&bytes, MAGIC, 1).unwrap();
        assert_eq!(
            r.f32s("values").unwrap_err(),
            CodecError::Corrupted { offset: BODY_OFFSET, detail: "length exceeds payload" }
        );
    }
}
