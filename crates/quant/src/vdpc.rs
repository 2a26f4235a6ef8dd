//! Value-Driven Patch Classification (§III-A).
//!
//! The activation distribution of a feature map is bell-shaped (Fig. 2a);
//! the few values far from the bulk — the *outliers* — carry a
//! disproportionate share of the model's information. VDPC fits a Gaussian
//! `N(µ, σ²)` to the patch-split stage's activations and classifies each
//! patch: if the patch contains *any* outlier value it is an **outlier
//! class** patch and its dataflow branch keeps 8-bit precision; otherwise
//! it is **non-outlier class** and its branch enters the VDQS search.
//!
//! ## The φ threshold (Eq. 1)
//!
//! As printed, Eq. (1) flags a value as outlier when its PDF is *above* φ,
//! which contradicts the section's own prose and Fig. 5's sweep. The
//! default [`OutlierRule::CentralMass`] implements the self-consistent
//! reading: φ is the central probability mass of the
//! fitted Gaussian, and a value is an outlier iff it falls outside the
//! central-φ band — `|x − µ| > z·σ` with `z = probit((1+φ)/2)`.
//! [`OutlierRule::PdfThreshold`] provides the literal PDF-cut form (with
//! the comparison oriented so low-density values are outliers) for
//! fidelity experiments.

use quantmcu_tensor::stats::{self, Moments};
use quantmcu_tensor::{Region, Tensor};

use crate::error::QuantError;

/// How φ separates outliers from non-outliers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutlierRule {
    /// Outlier iff outside the central-`phi` probability mass:
    /// `|x − µ| > probit((1+φ)/2)·σ`. The paper's Fig. 5 behaviour
    /// (accuracy knee at φ = 0.96) emerges under this rule.
    CentralMass {
        /// Central probability mass in `(0, 1)`.
        phi: f64,
    },
    /// Outlier iff the Gaussian PDF at the value is at most `threshold`
    /// (low-density ⇒ far from the mean ⇒ outlier) — Eq. (1) with the
    /// comparison oriented consistently with the prose.
    PdfThreshold {
        /// Density cut; values with `pdf(x) <= threshold` are outliers.
        threshold: f64,
    },
}

/// The two patch classes of §III-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatchClass {
    /// Contains at least one outlier value → 8-bit dataflow branch.
    Outlier,
    /// Contains no outlier values → mixed-precision (VDQS) branch.
    NonOutlier,
}

/// A fitted classifier: Gaussian moments plus the outlier rule.
///
/// # Example
///
/// ```
/// use quantmcu_quant::vdpc::{OutlierRule, VdpcClassifier};
///
/// // A bell-shaped sample with one far outlier.
/// let mut values: Vec<f32> = (0..1000).map(|i| ((i * 7919) % 997) as f32 / 997.0 - 0.5).collect();
/// values.push(25.0);
/// let clf = VdpcClassifier::fit(&values, OutlierRule::CentralMass { phi: 0.96 })?;
/// assert!(clf.is_outlier(25.0));
/// assert!(!clf.is_outlier(0.1));
/// # Ok::<(), quantmcu_quant::QuantError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VdpcClassifier {
    moments: Moments,
    rule: OutlierRule,
}

impl VdpcClassifier {
    /// Fits the Gaussian to a calibration sample (typically every value of
    /// the patch-split stage output across the calibration set).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Statistics`] for an empty sample.
    pub fn fit(values: &[f32], rule: OutlierRule) -> Result<Self, QuantError> {
        let moments = stats::moments(values)?;
        Ok(VdpcClassifier { moments, rule })
    }

    /// [`VdpcClassifier::fit`] over a sample stored in parts — one
    /// `&[f32]` per calibration image, visited in order. Bit-identical to
    /// fitting the flattened concatenation (see
    /// [`stats::moments_parts`]), without ever materializing it: this is
    /// how the planner fits the input-map Gaussian across the whole
    /// calibration set with zero copies.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Statistics`] when the parts hold no values.
    pub fn fit_parts<'a, I>(parts: I, rule: OutlierRule) -> Result<Self, QuantError>
    where
        I: IntoIterator<Item = &'a [f32]> + Clone,
    {
        let moments = stats::moments_parts(parts)?;
        Ok(VdpcClassifier { moments, rule })
    }

    /// The fitted µ and σ.
    pub fn moments(&self) -> Moments {
        self.moments
    }

    /// The rule in force.
    pub fn rule(&self) -> OutlierRule {
        self.rule
    }

    /// Is a single activation value an outlier (Eq. 1)?
    pub fn is_outlier(&self, x: f32) -> bool {
        let mu = self.moments.mean as f64;
        let sigma = (self.moments.std as f64).max(1e-12);
        match self.rule {
            OutlierRule::CentralMass { phi } => {
                let z = stats::central_z(phi.clamp(1e-9, 1.0 - 1e-9));
                ((x as f64 - mu) / sigma).abs() > z
            }
            OutlierRule::PdfThreshold { threshold } => {
                stats::normal_pdf(x as f64, mu, sigma) <= threshold
            }
        }
    }

    /// Classifies a patch from its values: outlier class iff any value is
    /// an outlier.
    pub fn classify_values(&self, values: &[f32]) -> PatchClass {
        if values.iter().any(|&v| self.is_outlier(v)) {
            PatchClass::Outlier
        } else {
            PatchClass::NonOutlier
        }
    }

    /// Classifies every patch region of a stage-output tensor.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Statistics`] when a region is out of bounds.
    pub fn classify_patches(
        &self,
        stage_output: &Tensor,
        regions: &[Region],
    ) -> Result<Vec<PatchClass>, QuantError> {
        regions
            .iter()
            .map(|&r| {
                let patch = stage_output.crop(r)?;
                Ok(self.classify_values(patch.data()))
            })
            .collect()
    }

    /// Classifies one region of a stage-output tensor **without
    /// materializing a crop**: the region's rows are walked in place (all
    /// batch items and channels) and the scan exits at the first outlier.
    /// Verdict-identical to `classify_values(t.crop(region)?.data())` —
    /// the alloc-free form the planner's per-tile classification uses.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Statistics`] when the region is out of
    /// bounds.
    pub fn classify_region(&self, t: &Tensor, region: Region) -> Result<PatchClass, QuantError> {
        let s = t.shape();
        region.check_within(s.h, s.w)?;
        let run = region.w * s.c;
        for n in 0..s.n {
            for y in region.y..region.y_end() {
                let start = s.index(n, y, region.x, 0);
                if t.data()[start..start + run].iter().any(|&v| self.is_outlier(v)) {
                    return Ok(PatchClass::Outlier);
                }
            }
        }
        Ok(PatchClass::NonOutlier)
    }

    /// Fraction of `values` that are outliers.
    pub fn outlier_fraction(&self, values: &[f32]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let n = values.iter().filter(|&&v| self.is_outlier(v)).count();
        n as f64 / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantmcu_tensor::Shape;

    /// A deterministic pseudo-Gaussian sample plus heavy-tail outliers.
    fn sample_with_outliers() -> Vec<f32> {
        let mut v: Vec<f32> = (0..4096usize)
            .map(|i| {
                // Sum of uniforms → approximately normal.
                let a = ((i * 7919) % 1000) as f32 / 1000.0;
                let b = ((i * 104729) % 1000) as f32 / 1000.0;
                let c = ((i * 1299709) % 1000) as f32 / 1000.0;
                (a + b + c) - 1.5
            })
            .collect();
        v.extend_from_slice(&[8.0, -7.5, 9.1]);
        v
    }

    #[test]
    fn tail_values_are_outliers_under_central_mass() {
        let v = sample_with_outliers();
        let clf = VdpcClassifier::fit(&v, OutlierRule::CentralMass { phi: 0.96 }).unwrap();
        assert!(clf.is_outlier(8.0));
        assert!(clf.is_outlier(-7.5));
        assert!(!clf.is_outlier(0.0));
        assert!(!clf.is_outlier(clf.moments().mean));
    }

    #[test]
    fn larger_phi_means_fewer_outliers() {
        let v = sample_with_outliers();
        let fractions: Vec<f64> = [0.5, 0.8, 0.9, 0.96, 0.999]
            .iter()
            .map(|&phi| {
                VdpcClassifier::fit(&v, OutlierRule::CentralMass { phi })
                    .unwrap()
                    .outlier_fraction(&v)
            })
            .collect();
        assert!(
            fractions.windows(2).all(|w| w[0] >= w[1]),
            "outlier fraction must be non-increasing in phi: {fractions:?}"
        );
        // At φ=0.5 about half the mass is outside; at 0.999 almost none.
        assert!(fractions[0] > 0.3);
        assert!(fractions[4] < 0.05);
    }

    #[test]
    fn pdf_threshold_rule_matches_central_mass_at_equivalent_cut() {
        let v = sample_with_outliers();
        let cm = VdpcClassifier::fit(&v, OutlierRule::CentralMass { phi: 0.96 }).unwrap();
        // The equivalent density cut: pdf at the z(0.96)-sigma point.
        let m = cm.moments();
        let z = quantmcu_tensor::stats::central_z(0.96);
        let cut = quantmcu_tensor::stats::normal_pdf(
            m.mean as f64 + z * m.std as f64,
            m.mean as f64,
            m.std as f64,
        );
        let pdf = VdpcClassifier::fit(&v, OutlierRule::PdfThreshold { threshold: cut }).unwrap();
        for &x in &v {
            assert_eq!(cm.is_outlier(x), pdf.is_outlier(x), "disagree at {x}");
        }
    }

    #[test]
    fn patch_classification_flags_any_outlier() {
        let v = sample_with_outliers();
        let clf = VdpcClassifier::fit(&v, OutlierRule::CentralMass { phi: 0.96 }).unwrap();
        // Build a 4x4x1 stage output: all benign except one corner value.
        let mut t = Tensor::zeros(Shape::hwc(4, 4, 1));
        t.set(0, 3, 3, 0, 9.0); // far outlier in the bottom-right patch
        let regions = [
            Region::new(0, 0, 2, 2),
            Region::new(0, 2, 2, 2),
            Region::new(2, 0, 2, 2),
            Region::new(2, 2, 2, 2),
        ];
        let classes = clf.classify_patches(&t, &regions).unwrap();
        assert_eq!(classes[0], PatchClass::NonOutlier);
        assert_eq!(classes[1], PatchClass::NonOutlier);
        assert_eq!(classes[2], PatchClass::NonOutlier);
        assert_eq!(classes[3], PatchClass::Outlier);
    }

    #[test]
    fn empty_sample_is_an_error() {
        assert!(VdpcClassifier::fit(&[], OutlierRule::CentralMass { phi: 0.9 }).is_err());
        let no_parts: [&[f32]; 2] = [&[], &[]];
        assert!(VdpcClassifier::fit_parts(no_parts, OutlierRule::CentralMass { phi: 0.9 }).is_err());
    }

    #[test]
    fn fit_parts_is_bit_identical_to_flat_fit() {
        let v = sample_with_outliers();
        let rule = OutlierRule::CentralMass { phi: 0.96 };
        let flat = VdpcClassifier::fit(&v, rule).unwrap();
        for cut in [1, v.len() / 3, v.len() - 1] {
            let parts = [&v[..cut], &v[cut..]];
            let streamed = VdpcClassifier::fit_parts(parts, rule).unwrap();
            assert_eq!(streamed.moments(), flat.moments(), "cut at {cut} changed the fit");
        }
    }

    #[test]
    fn classify_region_matches_crop_classification() {
        let v = sample_with_outliers();
        let clf = VdpcClassifier::fit(&v, OutlierRule::CentralMass { phi: 0.96 }).unwrap();
        let t = Tensor::from_fn(Shape::hwc(6, 6, 2), |i| {
            if i == 37 {
                9.5 // one far outlier inside an interior region
            } else {
                ((i * 7919) % 997) as f32 / 997.0 - 0.5
            }
        });
        for region in [
            Region::new(0, 0, 3, 3),
            Region::new(3, 3, 3, 3),
            Region::new(0, 3, 3, 3),
            Region::new(2, 1, 4, 5),
            Region::new(0, 0, 6, 6),
        ] {
            let via_crop = clf.classify_values(t.crop(region).unwrap().data());
            let in_place = clf.classify_region(&t, region).unwrap();
            assert_eq!(in_place, via_crop, "region {region:?} verdict diverged");
        }
        assert!(clf.classify_region(&t, Region::new(4, 4, 4, 4)).is_err(), "oob must error");
    }

    #[test]
    fn constant_sample_has_no_outliers() {
        let v = vec![2.5f32; 100];
        let clf = VdpcClassifier::fit(&v, OutlierRule::CentralMass { phi: 0.96 }).unwrap();
        assert_eq!(clf.outlier_fraction(&v), 0.0);
        assert_eq!(clf.classify_values(&v), PatchClass::NonOutlier);
    }
}
