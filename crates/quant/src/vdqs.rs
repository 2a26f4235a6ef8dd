//! Value-Driven Quantization Search: Algorithm 1.
//!
//! Phase 1 (score-greedy init): every feature map takes the candidate with
//! the highest quantization score. Phase 2 (iterative repair): while some
//! adjacent pair violates the memory constraint (Eq. 7), traverse the
//! branch forward adjusting the *latter* map of each pair, then backward
//! adjusting the *former* map, each time demoting the map to its
//! next-best-scored candidate.
//!
//! The paper's pseudocode does not terminate when even the narrowest
//! candidates cannot satisfy Eq. (7); the reproduction detects a fixpoint
//! with the constraint still violated and returns
//! [`QuantError::MemoryInfeasible`] instead of looping forever.
//!
//! The printed `NEED_CHANGE` examines the pair `(i, i+1)` for both
//! traversal directions, which indexes out of range on the backward pass;
//! the reproduction uses the self-consistent reading — the examined pair is
//! the adjacent pair containing both `i` and `i + r`.

use quantmcu_tensor::Bitwidth;

use crate::error::QuantError;
use crate::score::{ScoreTable, ScoredCandidate};

/// The result of a bitwidth search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VdqsOutcome {
    /// The chosen bitwidth per feature map.
    pub bitwidths: Vec<Bitwidth>,
    /// Repair rounds needed after the greedy initialization (0 means the
    /// greedy solution already satisfied Eq. 7).
    pub repair_rounds: usize,
}

/// Eq. (7) for one pair: do feature maps `i` and `i+1` fit together?
pub fn pair_memory_ok(
    mem: impl Fn(usize, Bitwidth) -> usize,
    bits: &[Bitwidth],
    i: usize,
    budget: usize,
) -> bool {
    mem(i, bits[i]) + mem(i + 1, bits[i + 1]) <= budget
}

/// Algorithm 1 over an abstract memory model.
///
/// `mem(i, b)` returns the deployed bytes of feature map `i` at bitwidth
/// `b` (full map for layer-based deployment, branch region for a dataflow
/// branch); `budget` is `M` of Eq. (7).
///
/// # Errors
///
/// * [`QuantError::MalformedInput`] — empty table or empty candidate rows.
/// * [`QuantError::MemoryInfeasible`] — no assignment of the candidates
///   satisfies Eq. (7).
pub fn determine_bitwidths(
    table: &ScoreTable,
    mem: impl Fn(usize, Bitwidth) -> usize,
    budget: usize,
) -> Result<VdqsOutcome, QuantError> {
    let n = table.len();
    if n == 0 {
        return Err(QuantError::MalformedInput { detail: "score table is empty" });
    }
    let sorted: Vec<&[ScoredCandidate]> = (0..n).map(|i| table.sorted_candidates(i)).collect();
    if sorted.iter().any(|row| row.is_empty()) {
        return Err(QuantError::MalformedInput { detail: "a feature map has no candidates" });
    }
    // Lines 1-7: greedy initialization by descending score.
    let mut bits: Vec<Bitwidth> = sorted.iter().map(|row| row[0].bitwidth).collect();

    let violated = |bits: &[Bitwidth]| -> Option<usize> {
        (0..n.saturating_sub(1)).find(|&i| !pair_memory_ok(&mem, bits, i, budget))
    };

    // Lines 8-11: repair until Eq. (7) holds everywhere.
    let mut rounds = 0usize;
    while let Some(first_bad) = violated(&bits) {
        let before = bits.clone();
        traverse(&sorted, &mut bits, &mem, budget, 1);
        traverse(&sorted, &mut bits, &mem, budget, -1);
        rounds += 1;
        if bits == before {
            // Fixpoint with the constraint still violated: infeasible.
            let i = first_bad;
            let needed = min_pair_bytes(&sorted, &mem, i);
            return Err(QuantError::MemoryInfeasible { pair: (i, i + 1), needed, budget });
        }
    }
    Ok(VdqsOutcome { bitwidths: bits, repair_rounds: rounds })
}

/// Lines 12-19: one traversal. `r = 1` walks pairs left-to-right adjusting
/// the latter map; `r = -1` walks right-to-left adjusting the former.
fn traverse(
    sorted: &[&[ScoredCandidate]],
    bits: &mut [Bitwidth],
    mem: &impl Fn(usize, Bitwidth) -> usize,
    budget: usize,
    r: isize,
) {
    let n = sorted.len();
    let idxs: Vec<usize> =
        if r == 1 { (0..n.saturating_sub(1)).collect() } else { (1..n).collect() };
    for i in idxs {
        loop {
            let j = (i as isize + r) as usize; // the map being adjusted
            let k = sorted[j]
                .iter()
                .position(|c| c.bitwidth == bits[j])
                .expect("current bitwidth always comes from the candidate set");
            if !need_change(sorted, bits, mem, budget, i, r, k) {
                break;
            }
            bits[j] = sorted[j][k + 1].bitwidth;
        }
    }
}

/// Lines 20-27. The examined pair is the adjacent pair containing `i` and
/// `i + r`; the adjusted map `i + r` is only demoted while a next candidate
/// exists (`k + 1 < m`) and it is at least as memory-hungry as its
/// neighbor (shrinking the larger map first, the paper's tie rule).
fn need_change(
    sorted: &[&[ScoredCandidate]],
    bits: &[Bitwidth],
    mem: &impl Fn(usize, Bitwidth) -> usize,
    budget: usize,
    i: usize,
    r: isize,
    k: usize,
) -> bool {
    let j = (i as isize + r) as usize;
    let lo = i.min(j);
    mem(lo, bits[lo]) + mem(lo + 1, bits[lo + 1]) > budget
        && k + 1 < sorted[j].len()
        && mem(i, bits[i]) <= mem(j, bits[j])
}

/// The smallest possible footprint of pair `(i, i+1)` over all candidates.
fn min_pair_bytes(
    sorted: &[&[ScoredCandidate]],
    mem: &impl Fn(usize, Bitwidth) -> usize,
    i: usize,
) -> usize {
    let min_of =
        |fm: usize| sorted[fm].iter().map(|c| mem(fm, c.bitwidth)).min().unwrap_or(usize::MAX);
    min_of(i).saturating_add(min_of(i + 1))
}

/// Convenience wrapper for element-count memory models: `mem(i, b)` is the
/// packed byte size of `elem_counts[i]` values at `b`.
///
/// # Errors
///
/// Propagates [`determine_bitwidths`] errors;
/// [`QuantError::MalformedInput`] when `elem_counts.len() != table.len()`.
pub fn determine_with_elem_counts(
    table: &ScoreTable,
    elem_counts: &[usize],
    budget: usize,
) -> Result<VdqsOutcome, QuantError> {
    if elem_counts.len() != table.len() {
        return Err(QuantError::MalformedInput {
            detail: "element counts must match the score table",
        });
    }
    determine_bitwidths(table, |i, b| b.bytes_for(elem_counts[i]), budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VdqsConfig;
    use crate::entropy;

    /// A score table over `n` synthetic feature maps; `hot` maps get large
    /// BitOPs reductions (prefer low bits), the rest prefer 8-bit.
    fn make_table(n: usize, hot: &[usize], lambda: f64) -> ScoreTable {
        let fms: Vec<Vec<f32>> = (0..n)
            .map(|f| (0..2048).map(|i| ((i * (f + 1)) as f32 * 0.013).sin() * 2.0).collect())
            .collect();
        let et = entropy::build_table(&fms, &Bitwidth::SEARCH_CANDIDATES, 512).unwrap();
        let hot = hot.to_vec();
        let dr = move |i: usize, b: Bitwidth| -> u64 {
            let macs: u64 = if hot.contains(&i) { 10_000 } else { 10 };
            macs * 8 * (8 - b.bits() as u64)
        };
        ScoreTable::build(&et, dr, 640_000, &VdqsConfig::with_lambda(lambda)).unwrap()
    }

    #[test]
    fn generous_budget_keeps_greedy_solution() {
        let t = make_table(5, &[0, 1], 0.5);
        let counts = vec![1000usize; 5];
        let out = determine_with_elem_counts(&t, &counts, usize::MAX / 2).unwrap();
        assert_eq!(out.repair_rounds, 0);
        for (i, b) in out.bitwidths.iter().enumerate() {
            assert_eq!(*b, t.sorted_candidates(i)[0].bitwidth, "map {i}");
        }
    }

    #[test]
    fn tight_budget_forces_demotions_until_eq7_holds() {
        let t = make_table(6, &[], 0.9); // λ high: greedy picks 8-bit everywhere
        let counts = vec![4096usize; 6];
        // 8-bit pair = 8192 bytes; force pairs to fit in 5000.
        let out = determine_with_elem_counts(&t, &counts, 5000).unwrap();
        assert!(out.repair_rounds >= 1);
        for i in 0..5 {
            assert!(
                pair_memory_ok(|i, b| b.bytes_for(counts[i]), &out.bitwidths, i, 5000),
                "pair {i} still violates Eq. 7: {:?}",
                out.bitwidths
            );
        }
        // Something must have been demoted below 8-bit.
        assert!(out.bitwidths.iter().any(|&b| b < Bitwidth::W8));
    }

    #[test]
    fn infeasible_budget_is_detected_not_looped() {
        let t = make_table(4, &[], 0.5);
        let counts = vec![4096usize; 4];
        // Even at 2-bit a pair needs 2048 bytes; ask for 100.
        let err = determine_with_elem_counts(&t, &counts, 100).unwrap_err();
        match err {
            QuantError::MemoryInfeasible { needed, budget, .. } => {
                assert!(needed > budget);
            }
            other => panic!("expected MemoryInfeasible, got {other:?}"),
        }
    }

    #[test]
    fn exact_boundary_budget_is_feasible() {
        let t = make_table(3, &[], 0.9);
        let counts = vec![1024usize; 3];
        // 2-bit pair: 256 + 256 = 512 bytes exactly.
        let out = determine_with_elem_counts(&t, &counts, 512).unwrap();
        for b in &out.bitwidths {
            assert!(*b <= Bitwidth::W8);
        }
    }

    #[test]
    fn single_feature_map_never_violates() {
        let t = make_table(1, &[], 0.5);
        let out = determine_with_elem_counts(&t, &[100_000], 1).unwrap();
        assert_eq!(out.repair_rounds, 0);
        assert_eq!(out.bitwidths.len(), 1);
    }

    #[test]
    fn hot_maps_end_up_narrower_than_cold_maps() {
        let t = make_table(6, &[0, 1, 2], 0.4);
        let counts = vec![2048usize; 6];
        let out = determine_with_elem_counts(&t, &counts, usize::MAX / 2).unwrap();
        let hot_bits: u32 = out.bitwidths[..3].iter().map(|b| b.bits()).sum();
        let cold_bits: u32 = out.bitwidths[3..].iter().map(|b| b.bits()).sum();
        assert!(hot_bits < cold_bits, "hot {hot_bits} vs cold {cold_bits}: {:?}", out.bitwidths);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let t = make_table(3, &[], 0.5);
        assert!(matches!(
            determine_with_elem_counts(&t, &[1, 2], 1000),
            Err(QuantError::MalformedInput { .. })
        ));
    }
}
