use std::fmt;

use crate::error::TensorError;

/// A quantization bitwidth.
///
/// The paper's deployment library (CMix-NN) supports 8-, 4- and 2-bit
/// storage; those three are the candidate set used by the VDQS search and
/// the only widths the integer executor stores ([`Bitwidth::check_storage`]).
/// `W16` and `W32` are accounting-only: they price accumulators and
/// full-precision baselines in the cost models, are never produced by the
/// search, and no executor runs them.
///
/// # Example
///
/// ```
/// use quantmcu_tensor::Bitwidth;
///
/// assert_eq!(Bitwidth::W4.bits(), 4);
/// assert_eq!(Bitwidth::W4.bytes_for(5), 3); // two values per byte, rounded up
/// assert!(Bitwidth::W2.is_sub_byte());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bitwidth {
    /// 2-bit signed values in `[-2, 1]`.
    W2,
    /// 4-bit signed values in `[-8, 7]`.
    W4,
    /// 8-bit signed values in `[-128, 127]`.
    W8,
    /// 16-bit values (accounting only; no executor runs them).
    W16,
    /// 32-bit full precision (accounting only; no executor runs them).
    W32,
}

impl Bitwidth {
    /// The candidate bitwidths available to the VDQS search (`m = 3` in the
    /// paper), from widest to narrowest.
    pub const SEARCH_CANDIDATES: [Bitwidth; 3] = [Bitwidth::W8, Bitwidth::W4, Bitwidth::W2];

    /// Number of bits per stored value.
    pub fn bits(self) -> u32 {
        match self {
            Bitwidth::W2 => 2,
            Bitwidth::W4 => 4,
            Bitwidth::W8 => 8,
            Bitwidth::W16 => 16,
            Bitwidth::W32 => 32,
        }
    }

    /// Number of bytes needed to store `len` values at this bitwidth, with
    /// sub-byte values packed (CMix-NN layout) and the final byte rounded up.
    pub fn bytes_for(self, len: usize) -> usize {
        (len * self.bits() as usize).div_ceil(8)
    }

    /// `true` for bitwidths below one byte (2- and 4-bit).
    pub fn is_sub_byte(self) -> bool {
        self.bits() < 8
    }

    /// Smallest representable signed value.
    pub fn min_value(self) -> i32 {
        match self {
            Bitwidth::W32 => i32::MIN,
            _ => -(1i32 << (self.bits() - 1)),
        }
    }

    /// Largest representable signed value.
    pub fn max_value(self) -> i32 {
        match self {
            Bitwidth::W32 => i32::MAX,
            _ => (1i32 << (self.bits() - 1)) - 1,
        }
    }

    /// `Ok` for the widths the integer layout stores — at most 8 bits,
    /// the packed CMix-NN widths, held as `i8` — and
    /// [`TensorError::UnsupportedBitwidth`] for the accounting-only widths.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnsupportedBitwidth`] for `W16` and `W32`.
    pub fn check_storage(self) -> Result<(), TensorError> {
        if self.bits() <= 8 {
            Ok(())
        } else {
            Err(TensorError::UnsupportedBitwidth(self.bits()))
        }
    }

    /// Number of distinct representable levels (`2^bits`), saturating for
    /// `W32`.
    pub fn levels(self) -> u64 {
        1u64 << self.bits().min(63)
    }
}

impl fmt::Display for Bitwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit", self.bits())
    }
}

impl TryFrom<u32> for Bitwidth {
    type Error = TensorError;

    fn try_from(bits: u32) -> Result<Self, TensorError> {
        match bits {
            2 => Ok(Bitwidth::W2),
            4 => Ok(Bitwidth::W4),
            8 => Ok(Bitwidth::W8),
            16 => Ok(Bitwidth::W16),
            32 => Ok(Bitwidth::W32),
            other => Err(TensorError::UnsupportedBitwidth(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_and_ranges() {
        assert_eq!(Bitwidth::W2.min_value(), -2);
        assert_eq!(Bitwidth::W2.max_value(), 1);
        assert_eq!(Bitwidth::W4.min_value(), -8);
        assert_eq!(Bitwidth::W4.max_value(), 7);
        assert_eq!(Bitwidth::W8.min_value(), -128);
        assert_eq!(Bitwidth::W8.max_value(), 127);
    }

    #[test]
    fn packed_sizes_round_up() {
        assert_eq!(Bitwidth::W8.bytes_for(10), 10);
        assert_eq!(Bitwidth::W4.bytes_for(10), 5);
        assert_eq!(Bitwidth::W4.bytes_for(11), 6);
        assert_eq!(Bitwidth::W2.bytes_for(8), 2);
        assert_eq!(Bitwidth::W2.bytes_for(9), 3);
        assert_eq!(Bitwidth::W32.bytes_for(3), 12);
    }

    #[test]
    fn try_from_roundtrip() {
        for b in [Bitwidth::W2, Bitwidth::W4, Bitwidth::W8, Bitwidth::W16, Bitwidth::W32] {
            assert_eq!(Bitwidth::try_from(b.bits()).unwrap(), b);
        }
        assert!(Bitwidth::try_from(3).is_err());
    }

    #[test]
    fn ordering_matches_bits() {
        assert!(Bitwidth::W2 < Bitwidth::W4);
        assert!(Bitwidth::W4 < Bitwidth::W8);
        assert!(Bitwidth::W8 < Bitwidth::W32);
    }

    #[test]
    fn search_candidates_are_descending() {
        let c = Bitwidth::SEARCH_CANDIDATES;
        assert!(c.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn levels() {
        assert_eq!(Bitwidth::W2.levels(), 4);
        assert_eq!(Bitwidth::W8.levels(), 256);
    }
}
