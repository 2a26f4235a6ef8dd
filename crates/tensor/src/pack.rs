//! Sub-byte packing in the CMix-NN layout.
//!
//! CMix-NN stores 4-bit values two per byte (low nibble first) and 2-bit
//! values four per byte (lowest crumb first), all in two's complement. The
//! packed form is what occupies SRAM on the device; kernels decode fields
//! as they consume them. Besides the bulk [`pack`]/[`unpack`] pair, this
//! module exposes the word-iteration building blocks the packed kernels
//! use directly: [`decode_into`] decodes any run of fields,
//! [`decode_w4`]/[`decode_w2`] split one packed byte into its fields in
//! registers, [`field_at`] random-accesses a single field (for runs that
//! start or end mid-byte), and [`sign_extend`] is the shared branch-free
//! two's-complement widening they are all built on.

use crate::bitwidth::Bitwidth;

/// Packs `i8` working values into the sub-byte deployed layout.
///
/// For `W8` this is a plain two's-complement byte copy. Values are masked
/// to the bitwidth, so out-of-range inputs wrap; callers quantize (and
/// therefore clamp) before packing.
///
/// # Panics
///
/// Panics for bitwidths wider than 8 bits (`W16`/`W32`): those exist for
/// accumulator accounting only and have no CMix-NN storage layout — an
/// `i8` buffer cannot even hold their values, so a wide-bitwidth call is
/// a caller bug, not a storage request. (Earlier revisions silently
/// truncated the width to 8, masking exactly that bug.)
///
/// # Example
///
/// ```
/// use quantmcu_tensor::{pack, Bitwidth};
///
/// let packed = pack::pack(&[1, -2, 0], Bitwidth::W4);
/// assert_eq!(packed.len(), 2);
/// assert_eq!(pack::unpack(&packed, Bitwidth::W4, 3), vec![1, -2, 0]);
/// ```
pub fn pack(values: &[i8], bitwidth: Bitwidth) -> Vec<u8> {
    let bits = storage_bits(bitwidth);
    if bits == 8 {
        return values.iter().map(|&v| v as u8).collect();
    }
    let per_byte = 8 / bits;
    let mask = (1u8 << bits) - 1;
    let mut out = vec![0u8; bitwidth.bytes_for(values.len())];
    debug_assert!(out.len() * per_byte >= values.len(), "packed buffer covers every value");
    for (i, &v) in values.iter().enumerate() {
        let byte = i / per_byte;
        let slot = i % per_byte;
        out[byte] |= ((v as u8) & mask) << (slot * bits);
    }
    out
}

/// Unpacks `len` values from the sub-byte layout back to `i8` working
/// storage, sign-extending each field.
///
/// # Panics
///
/// Panics when `bytes` is shorter than `bitwidth.bytes_for(len)`, or for
/// bitwidths wider than 8 bits (see [`pack`]).
pub fn unpack(bytes: &[u8], bitwidth: Bitwidth, len: usize) -> Vec<i8> {
    storage_bits(bitwidth);
    assert!(
        bytes.len() >= bitwidth.bytes_for(len),
        "packed buffer too short: {} bytes for {len} values at {bitwidth}",
        bytes.len()
    );
    let mut out = vec![0i8; len];
    decode_into(bytes, bitwidth, 0, &mut out);
    out
}

/// Decodes fields `start..start + out.len()` of a packed buffer into
/// `out`, sign-extended: a ragged head up to the first byte boundary
/// through [`field_at`], whole bytes through [`decode_w4`]/[`decode_w2`]
/// (word iteration, the same decoders the packed kernels use), then the
/// ragged tail.
///
/// # Panics
///
/// Panics (via slice indexing) when a field lies outside `bytes`, and
/// for accounting-only bitwidths (see [`pack`]).
pub fn decode_into<T: From<i8>>(bytes: &[u8], bitwidth: Bitwidth, start: usize, out: &mut [T]) {
    let bits = storage_bits(bitwidth);
    let len = out.len();
    if bits == 8 {
        for (o, &b) in out.iter_mut().zip(&bytes[start..start + len]) {
            *o = T::from(b as i8);
        }
        return;
    }
    let per_byte = 8 / bits;
    let head = ((per_byte - start % per_byte) % per_byte).min(out.len());
    let body = (out.len() - head) / per_byte * per_byte;
    let first = (start + head) / per_byte;
    let whole = &bytes[first..first + body / per_byte];
    let (ragged, rest) = out.split_at_mut(head);
    let (middle, tail) = rest.split_at_mut(body);
    match bitwidth {
        Bitwidth::W4 => {
            for (o, &b) in middle.chunks_exact_mut(2).zip(whole) {
                let [f0, f1] = decode_w4(b);
                o[0] = T::from(f0);
                o[1] = T::from(f1);
            }
        }
        Bitwidth::W2 => {
            for (o, &b) in middle.chunks_exact_mut(4).zip(whole) {
                for (o, f) in o.iter_mut().zip(decode_w2(b)) {
                    *o = T::from(f);
                }
            }
        }
        _ => unreachable!("storage_bits admits only W2/W4/W8"),
    }
    for (i, o) in ragged.iter_mut().enumerate() {
        *o = T::from(field_at(bytes, bitwidth, start + i));
    }
    for (i, o) in tail.iter_mut().enumerate() {
        *o = T::from(field_at(bytes, bitwidth, start + head + body + i));
    }
}

/// The storage width of `bitwidth`, rejecting widths the `i8`-based
/// CMix-NN layout cannot represent.
#[inline]
fn storage_bits(bitwidth: Bitwidth) -> usize {
    let bits = bitwidth.bits();
    assert!(bits <= 8, "{bitwidth} has no packed CMix-NN layout (accounting-only bitwidth)");
    bits as usize
}

/// Sign-extends a `bits`-wide two's-complement field to `i8`, branch-free
/// (shift the field to the top of the byte, then arithmetic-shift back
/// down). Shared by [`unpack`], the field decoders and the packed
/// dot-product kernels in `quantmcu_nn::kernels`.
#[inline]
pub fn sign_extend(field: u8, bits: usize) -> i8 {
    debug_assert!((1..=8).contains(&bits), "sign_extend width {bits} outside 1..=8");
    let shift = 8 - bits;
    ((field << shift) as i8) >> shift
}

/// Decodes one packed `W4` byte into its two fields (low nibble first).
///
/// # Example
///
/// ```
/// use quantmcu_tensor::pack;
///
/// assert_eq!(pack::decode_w4(0x21), [1, 2]);
/// assert_eq!(pack::decode_w4(0xF8), [-8, -1]);
/// ```
#[inline]
pub fn decode_w4(byte: u8) -> [i8; 2] {
    [sign_extend(byte & 0xF, 4), (byte as i8) >> 4]
}

/// Decodes one packed `W2` byte into its four fields (lowest crumb
/// first).
///
/// # Example
///
/// ```
/// use quantmcu_tensor::pack;
///
/// // Fields 1, -2, 0, -1 packed low-to-high.
/// let byte = pack::pack(&[1, -2, 0, -1], quantmcu_tensor::Bitwidth::W2)[0];
/// assert_eq!(pack::decode_w2(byte), [1, -2, 0, -1]);
/// ```
#[inline]
pub fn decode_w2(byte: u8) -> [i8; 4] {
    [
        sign_extend(byte & 0b11, 2),
        sign_extend((byte >> 2) & 0b11, 2),
        sign_extend((byte >> 4) & 0b11, 2),
        (byte as i8) >> 6,
    ]
}

/// Random access to field `index` of a packed buffer, sign-extended.
/// This is how the packed kernels handle runs that start or end mid-byte;
/// aligned spans go through [`decode_w4`]/[`decode_w2`] a word at a time.
///
/// # Panics
///
/// Panics (via slice indexing) when the field lies outside `bytes`, and
/// for accounting-only bitwidths (see [`pack`]).
#[inline]
pub fn field_at(bytes: &[u8], bitwidth: Bitwidth, index: usize) -> i8 {
    let bits = storage_bits(bitwidth);
    if bits == 8 {
        return bytes[index] as i8;
    }
    let per_byte = 8 / bits;
    let field = bytes[index / per_byte] >> ((index % per_byte) * bits);
    sign_extend(field & ((1u8 << bits) - 1), bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_extension() {
        assert_eq!(sign_extend(0b0001, 4), 1);
        assert_eq!(sign_extend(0b1111, 4), -1);
        assert_eq!(sign_extend(0b1000, 4), -8);
        assert_eq!(sign_extend(0b01, 2), 1);
        assert_eq!(sign_extend(0b10, 2), -2);
        assert_eq!(sign_extend(0b11, 2), -1);
    }

    #[test]
    fn w4_roundtrip_full_range() {
        let values: Vec<i8> = (-8..=7).collect();
        let packed = pack(&values, Bitwidth::W4);
        assert_eq!(packed.len(), 8);
        assert_eq!(unpack(&packed, Bitwidth::W4, values.len()), values);
    }

    #[test]
    fn w2_roundtrip_full_range() {
        let values: Vec<i8> = vec![-2, -1, 0, 1, 1, 0, -1, -2, 1];
        let packed = pack(&values, Bitwidth::W2);
        assert_eq!(packed.len(), 3);
        assert_eq!(unpack(&packed, Bitwidth::W2, values.len()), values);
    }

    #[test]
    fn w8_is_identity() {
        let values: Vec<i8> = vec![-128, -1, 0, 1, 127];
        let packed = pack(&values, Bitwidth::W8);
        assert_eq!(unpack(&packed, Bitwidth::W8, values.len()), values);
    }

    #[test]
    fn odd_lengths_pad_final_byte() {
        let values: Vec<i8> = vec![3, -4, 5];
        let packed = pack(&values, Bitwidth::W4);
        assert_eq!(packed.len(), 2);
        assert_eq!(unpack(&packed, Bitwidth::W4, 3), values);
    }

    #[test]
    fn low_nibble_first_layout() {
        // 1 -> 0b0001 in low nibble, 2 -> 0b0010 in high nibble.
        assert_eq!(pack(&[1, 2], Bitwidth::W4), vec![0x21]);
    }

    #[test]
    #[should_panic(expected = "packed buffer too short")]
    fn unpack_checks_length() {
        unpack(&[0u8], Bitwidth::W8, 2);
    }

    #[test]
    #[should_panic(expected = "no packed CMix-NN layout")]
    fn pack_rejects_wide_bitwidths() {
        pack(&[0, 1, 2], Bitwidth::W16);
    }

    #[test]
    #[should_panic(expected = "no packed CMix-NN layout")]
    fn unpack_rejects_wide_bitwidths() {
        unpack(&[0u8; 12], Bitwidth::W32, 3);
    }

    mod roundtrip {
        use super::*;
        use proptest::prelude::*;

        /// In-range values for a storage bitwidth, derived from a raw seed
        /// vector so lengths (odd ones included) vary freely.
        fn clamp_to(bits: Bitwidth, raw: &[i8]) -> Vec<i8> {
            let (lo, hi) = (bits.min_value() as i8, bits.max_value() as i8);
            raw.iter().map(|&v| v.clamp(lo, hi)).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn pack_unpack_roundtrips_all_storage_bitwidths(
                raw in prop::collection::vec(-128i8..=127, 0..65),
                which in 0usize..3,
            ) {
                let bits = [Bitwidth::W2, Bitwidth::W4, Bitwidth::W8][which];
                let values = clamp_to(bits, &raw);
                let packed = pack(&values, bits);
                prop_assert_eq!(packed.len(), bits.bytes_for(values.len()));
                prop_assert_eq!(unpack(&packed, bits, values.len()), values);
            }

            #[test]
            fn unpack_tolerates_oversized_buffers(
                raw in prop::collection::vec(-8i8..=7, 1..33),
                extra in 1usize..5,
            ) {
                let values = clamp_to(Bitwidth::W4, &raw);
                let mut packed = pack(&values, Bitwidth::W4);
                packed.extend(std::iter::repeat(0xFFu8).take(extra));
                prop_assert_eq!(unpack(&packed, Bitwidth::W4, values.len()), values);
            }

            #[test]
            fn field_at_agrees_with_unpack_at_every_index(
                raw in prop::collection::vec(-128i8..=127, 1..65),
                which in 0usize..3,
            ) {
                let bits = [Bitwidth::W2, Bitwidth::W4, Bitwidth::W8][which];
                let values = clamp_to(bits, &raw);
                let packed = pack(&values, bits);
                let unpacked = unpack(&packed, bits, values.len());
                for (i, &v) in unpacked.iter().enumerate() {
                    prop_assert_eq!(field_at(&packed, bits, i), v);
                }
            }

            #[test]
            fn word_decoders_agree_with_unpack(byte in 0u8..=255) {
                prop_assert_eq!(decode_w4(byte).to_vec(), unpack(&[byte], Bitwidth::W4, 2));
                prop_assert_eq!(decode_w2(byte).to_vec(), unpack(&[byte], Bitwidth::W2, 4));
            }
        }
    }
}
