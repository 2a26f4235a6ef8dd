//! The quantization score (Eq. 2, 5, 6).
//!
//! For feature map `i` and candidate bitwidth `b`:
//!
//! * `Φ(i,b) = ΔB(i,b)·N / B` — the computation benefit: the BitOPs saved
//!   by quantizing map `i` (over all layers that read it), measured in
//!   units of the searched scope's *average per-map* BitOPs (`B` is the
//!   scope's 8-bit reference total, `N` its feature-map count);
//! * `Ω(i,b) = ΔH(i,b) / H(N, b_last)` — the accuracy cost: the entropy
//!   lost, normalized by the last feature map's entropy (Eq. 5);
//! * `S(i,b) = −λ·Ω(i,b) + (1−λ)·Φ(i,b)` (Eq. 6).
//!
//! **Normalization note.** Eq. (2) as printed divides by
//! the *whole model's* BitOPs, which makes Φ ≤ the map's global compute
//! share (a few percent) while Ω is O(1); every λ above ~0.05 would then
//! freeze the search at all-8-bit, contradicting Table III's smooth
//! λ∈[0.2, 0.8] sweep and Fig. 6's majority-sub-byte assignment. The
//! reproduction therefore measures Φ in units of the searched dataflow
//! scope's average per-map BitOPs (`×N/B_scope`), which puts an
//! average-compute map's Φ(i, 4-bit) at 0.5 — commensurate with Ω and
//! reproducing the published sweep behaviour. Compute-hungry maps still
//! score proportionally higher, preserving the paper's "big early maps go
//! sub-byte" outcome.
//!
//! A candidate table holds `S` for every (feature map, bitwidth) pair; the
//! VDQS search consumes it sorted by descending score.

use quantmcu_tensor::Bitwidth;

use crate::config::VdqsConfig;
use crate::entropy::EntropyTable;
use crate::error::QuantError;

/// One scored candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredCandidate {
    /// The candidate bitwidth.
    pub bitwidth: Bitwidth,
    /// Φ(i, b) of Eq. (2).
    pub phi: f64,
    /// Ω(i, b) of Eq. (5).
    pub omega: f64,
    /// S(i, b) of Eq. (6).
    pub score: f64,
}

/// Per-feature-map scored candidates (the input of Algorithm 1).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreTable {
    /// `rows[i]` holds feature map `i`'s candidates in input order.
    rows: Vec<Vec<ScoredCandidate>>,
    /// `sorted[i]` holds the same candidates by descending score —
    /// computed once at build time (see [`ScoreTable::sorted_candidates`]).
    sorted: Vec<Vec<ScoredCandidate>>,
}

impl ScoreTable {
    /// Builds the table.
    ///
    /// * `entropy` — ΔH per feature map per candidate (see
    ///   [`crate::entropy::build_table`]).
    /// * `bitops_reduction(i, b)` — ΔB(i, b) of Eq. (2).
    /// * `total_bitops` — `B`, the searched scope's 8-bit reference BitOPs
    ///   (the whole branch for a branch search, the tail for the tail
    ///   search); Φ is scaled by the scope's feature-map count, see the
    ///   module docs.
    /// * The last feature map's full-precision entropy is used as
    ///   `H(N, b_last)`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::MalformedInput`] when the entropy table is
    /// empty or `total_bitops` is zero.
    pub fn build(
        entropy: &EntropyTable,
        bitops_reduction: impl Fn(usize, Bitwidth) -> u64,
        total_bitops: u64,
        cfg: &VdqsConfig,
    ) -> Result<Self, QuantError> {
        if entropy.full.is_empty() {
            return Err(QuantError::MalformedInput { detail: "entropy table is empty" });
        }
        if cfg.candidates.is_empty() {
            return Err(QuantError::MalformedInput { detail: "candidate set is empty" });
        }
        if total_bitops == 0 {
            return Err(QuantError::MalformedInput { detail: "total BitOPs is zero" });
        }
        let h_last = entropy.full.last().copied().unwrap_or(0.0).max(1e-12);
        let fm_count = entropy.full.len() as f64;
        let rows: Vec<Vec<ScoredCandidate>> = (0..entropy.full.len())
            .map(|i| {
                cfg.candidates
                    .iter()
                    .enumerate()
                    .map(|(j, &b)| {
                        // Φ is a fraction of the scope's compute; the ×N
                        // rescaling can push compute-hot maps past 1, at
                        // which point Φ would override any entropy penalty
                        // (λ ≤ 1), so it saturates at 1.
                        let phi = (bitops_reduction(i, b) as f64 * fm_count / total_bitops as f64)
                            .min(1.0);
                        let omega = entropy.reductions[i][j] / h_last;
                        ScoredCandidate {
                            bitwidth: b,
                            phi,
                            omega,
                            score: -cfg.lambda * omega + (1.0 - cfg.lambda) * phi,
                        }
                    })
                    .collect()
            })
            .collect();
        // Sort every row by descending score once, here, instead of
        // re-cloning and re-sorting on each `sorted_candidates` call (the
        // VDQS repair loop reads these rows constantly). `f64::total_cmp`
        // makes the sort a strict total order — the previous
        // `partial_cmp(..).unwrap_or(Equal)` comparator silently treated
        // NaN scores as ties, leaving the candidate order NaN-dependent.
        // Planner scores are never NaN or -0.0 (ΔH is clamped at +0.0 and
        // Φ is non-negative), so the stable sort produces exactly the
        // order the old comparator did on every reachable input.
        let sorted = rows
            .iter()
            .map(|row| {
                let mut row = row.clone();
                row.sort_by(|a, b| b.score.total_cmp(&a.score));
                row
            })
            .collect();
        Ok(ScoreTable { rows, sorted })
    }

    /// `rows()[i]` holds feature map `i`'s candidates in input order.
    pub fn rows(&self) -> &[Vec<ScoredCandidate>] {
        &self.rows
    }

    /// Feature map `i`'s candidates sorted by descending score (the
    /// `t^i_1..t^i_m` sets of Algorithm 1). Precomputed at build time —
    /// this accessor is allocation- and sort-free.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn sorted_candidates(&self, i: usize) -> &[ScoredCandidate] {
        &self.sorted[i]
    }

    /// Number of feature maps in the table.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy;

    fn table(lambda: f64) -> ScoreTable {
        // Three feature maps with decreasing information content.
        let fms: Vec<Vec<f32>> = (0..3)
            .map(|f| {
                (0..4096)
                    .map(|i| ((i as f32) * 0.01 * (f + 1) as f32).sin() * (3.0 - f as f32))
                    .collect()
            })
            .collect();
        let et = entropy::build_table(&fms, &Bitwidth::SEARCH_CANDIDATES, 1024).unwrap();
        // A synthetic cost model: map 0 feeds an expensive layer.
        let dr = |i: usize, b: Bitwidth| -> u64 {
            let macs: u64 = [1000, 100, 10][i];
            macs * 8 * (8 - b.bits() as u64)
        };
        ScoreTable::build(&et, dr, 64_000, &VdqsConfig::with_lambda(lambda)).unwrap()
    }

    #[test]
    fn eight_bit_scores_are_zero_phi_and_tiny_omega() {
        let t = table(0.6);
        for row in &t.rows {
            let c8 = row.iter().find(|c| c.bitwidth == Bitwidth::W8).unwrap();
            assert_eq!(c8.phi, 0.0);
            assert!(c8.omega < 0.35, "8-bit Ω should be small, got {}", c8.omega);
        }
    }

    #[test]
    fn compute_heavy_maps_prefer_lower_bits() {
        let t = table(0.4);
        // Feature map 0 (expensive consumer) should rank a sub-byte
        // candidate first; map 2 (cheap) should rank 8-bit first.
        let first_hot = t.sorted_candidates(0)[0];
        let first_cold = t.sorted_candidates(2)[0];
        assert!(first_hot.bitwidth < Bitwidth::W8, "hot map picked {}", first_hot.bitwidth);
        assert_eq!(first_cold.bitwidth, Bitwidth::W8, "cold map picked {}", first_cold.bitwidth);
    }

    #[test]
    fn larger_lambda_shifts_choices_to_higher_bits() {
        let low = table(0.1);
        let high = table(0.95);
        let bits = |t: &ScoreTable| -> u32 {
            (0..t.len()).map(|i| t.sorted_candidates(i)[0].bitwidth.bits()).sum()
        };
        assert!(
            bits(&high) >= bits(&low),
            "λ=0.95 total bits {} should be >= λ=0.1 total bits {}",
            bits(&high),
            bits(&low)
        );
    }

    #[test]
    fn scores_sorted_descending() {
        let t = table(0.6);
        for i in 0..t.len() {
            let sorted = t.sorted_candidates(i);
            assert!(sorted.windows(2).all(|w| w[0].score >= w[1].score));
        }
    }

    #[test]
    fn zero_total_bitops_rejected() {
        let fms = vec![vec![1.0f32, 2.0, 3.0]];
        let et = entropy::build_table(&fms, &Bitwidth::SEARCH_CANDIDATES, 16).unwrap();
        assert!(matches!(
            ScoreTable::build(&et, |_, _| 0, 0, &VdqsConfig::paper()),
            Err(QuantError::MalformedInput { .. })
        ));
    }
}
