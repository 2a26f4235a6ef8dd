use quantmcu_tensor::Tensor;

/// Top-`k` accuracy: the fraction of `(output, label)` pairs whose label
/// appears among the output's `k` largest logits.
///
/// # Panics
///
/// Panics when `outputs` and `labels` have different lengths or `k == 0`.
pub fn top_k_accuracy(outputs: &[Tensor], labels: &[usize], k: usize) -> f64 {
    assert_eq!(outputs.len(), labels.len(), "one label per output");
    assert!(k > 0, "k must be positive");
    if outputs.is_empty() {
        return 0.0;
    }
    let hits =
        outputs.iter().zip(labels).filter(|(out, &label)| out.top_k(0, k).contains(&label)).count();
    hits as f64 / outputs.len() as f64
}

/// Top-1 agreement between two output sets: the fraction of samples where
/// both models pick the same argmax. This is the fidelity measure the
/// accuracy projection ([`crate::accuracy`]) is anchored on.
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn agreement_top1(reference: &[Tensor], candidate: &[Tensor]) -> f64 {
    assert_eq!(reference.len(), candidate.len(), "paired outputs required");
    if reference.is_empty() {
        return 1.0;
    }
    let hits = reference.iter().zip(candidate).filter(|(a, b)| a.argmax(0) == b.argmax(0)).count();
    hits as f64 / reference.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantmcu_tensor::Shape;

    fn logits(v: Vec<f32>) -> Tensor {
        let c = v.len();
        Tensor::from_vec(Shape::new(1, 1, 1, c), v).unwrap()
    }

    #[test]
    fn top1_counts_exact_argmax() {
        let outs = vec![logits(vec![0.1, 0.9, 0.0]), logits(vec![0.8, 0.1, 0.1])];
        assert_eq!(top_k_accuracy(&outs, &[1, 0], 1), 1.0);
        assert_eq!(top_k_accuracy(&outs, &[0, 0], 1), 0.5);
    }

    #[test]
    fn top5_is_no_stricter_than_top1() {
        let outs: Vec<Tensor> =
            (0..10).map(|i| logits((0..8).map(|c| ((c * 7 + i) % 5) as f32).collect())).collect();
        let labels: Vec<usize> = (0..10).map(|i| i % 8).collect();
        let t1 = top_k_accuracy(&outs, &labels, 1);
        let t5 = top_k_accuracy(&outs, &labels, 5);
        assert!(t5 >= t1);
    }

    #[test]
    fn agreement_of_identical_sets_is_one() {
        let outs = vec![logits(vec![0.3, 0.7]), logits(vec![0.9, 0.1])];
        assert_eq!(agreement_top1(&outs, &outs), 1.0);
    }

    #[test]
    fn agreement_detects_flips() {
        let a = vec![logits(vec![0.3, 0.7]), logits(vec![0.9, 0.1])];
        let b = vec![logits(vec![0.8, 0.2]), logits(vec![0.9, 0.1])];
        assert_eq!(agreement_top1(&a, &b), 0.5);
    }

    #[test]
    fn empty_sets_are_well_defined() {
        assert_eq!(top_k_accuracy(&[], &[], 1), 0.0);
        assert_eq!(agreement_top1(&[], &[]), 1.0);
    }
}
