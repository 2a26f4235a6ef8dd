use quantmcu_tensor::Bitwidth;

use crate::vdpc::OutlierRule;

/// Hyperparameters of value-driven patch classification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VdpcConfig {
    /// The outlier rule; the paper's φ enters here. The default is the
    /// paper's chosen φ = 0.96 under the central-mass reading (see
    /// [`OutlierRule::CentralMass`]).
    pub rule: OutlierRule,
}

impl VdpcConfig {
    /// The paper's configuration: central-mass φ = 0.96.
    pub fn paper() -> Self {
        VdpcConfig { rule: OutlierRule::CentralMass { phi: 0.96 } }
    }

    /// A configuration with a custom φ (central-mass reading).
    pub fn with_phi(phi: f64) -> Self {
        VdpcConfig { rule: OutlierRule::CentralMass { phi } }
    }
}

impl Default for VdpcConfig {
    fn default() -> Self {
        VdpcConfig::paper()
    }
}

/// Hyperparameters of the value-driven quantization search.
#[derive(Debug, Clone, PartialEq)]
pub struct VdqsConfig {
    /// λ of Eq. (6): the accuracy-versus-computation weight. The paper
    /// selects 0.6 (Table III).
    pub lambda: f64,
    /// Histogram bins `k` for the entropy estimate (Eq. 3).
    pub hist_bins: usize,
    /// Candidate bitwidths (`m` kinds; the paper's library supports
    /// 8/4/2).
    pub candidates: Vec<Bitwidth>,
}

impl VdqsConfig {
    /// The paper's configuration: λ = 0.6, candidates {8, 4, 2}.
    ///
    /// The bin count `k` is not reported by the paper; 32 is calibrated so
    /// that λ = 0.6 lands in the Fig. 6 regime (a majority of feature maps
    /// at sub-byte precision, accuracy-critical maps held at 8-bit). Larger
    /// `k` inflates every ΔH toward `ln(k/levels)` and pushes the search
    /// toward all-8-bit; smaller `k` blinds it to quantization loss.
    pub fn paper() -> Self {
        VdqsConfig { lambda: 0.6, hist_bins: 32, candidates: Bitwidth::SEARCH_CANDIDATES.to_vec() }
    }

    /// The paper configuration with a different λ (the Table III sweep).
    pub fn with_lambda(lambda: f64) -> Self {
        VdqsConfig { lambda, ..VdqsConfig::paper() }
    }
}

impl Default for VdqsConfig {
    fn default() -> Self {
        VdqsConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let v = VdqsConfig::paper();
        assert_eq!(v.lambda, 0.6);
        assert_eq!(v.candidates, vec![Bitwidth::W8, Bitwidth::W4, Bitwidth::W2]);
        assert_eq!(VdqsConfig::default(), v);
        match VdpcConfig::paper().rule {
            OutlierRule::CentralMass { phi } => assert_eq!(phi, 0.96),
            _ => panic!("paper rule is central-mass"),
        }
    }
}
