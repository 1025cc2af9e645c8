//! The SkipNode mask samplers.

use skipnode_tensor::SplitRng;

/// Node-sampling strategy for the skip mask `P`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampling {
    /// `P_ii ~ Bernoulli(ρ)` independently per node (SkipNode-U).
    Uniform,
    /// Exactly `⌊ρN⌋` nodes sampled without replacement with probability
    /// proportional to node degree (SkipNode-B) — GCNII observes that
    /// high-degree nodes are the first to over-smooth.
    Biased,
    /// Ablation: probability proportional to 1/(degree+1) — prefers
    /// low-degree nodes, the *opposite* of the paper's intuition.
    InverseBiased,
    /// Ablation: deterministically the `⌊ρN⌋` highest-degree nodes.
    TopDegree,
}

impl Sampling {
    /// CLI form.
    pub fn as_str(self) -> &'static str {
        match self {
            Sampling::Uniform => "uniform",
            Sampling::Biased => "biased",
            Sampling::InverseBiased => "inverse-biased",
            Sampling::TopDegree => "top-degree",
        }
    }

    /// Parse from the CLI form.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "uniform" => Some(Sampling::Uniform),
            "biased" => Some(Sampling::Biased),
            "inverse-biased" => Some(Sampling::InverseBiased),
            "top-degree" => Some(Sampling::TopDegree),
            _ => None,
        }
    }
}

/// SkipNode configuration: sampling rate `ρ` plus strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkipNodeConfig {
    rate: f64,
    sampling: Sampling,
}

impl SkipNodeConfig {
    /// New configuration.
    ///
    /// # Panics
    /// Panics unless `0 ≤ rate < 1`.
    pub fn new(rate: f64, sampling: Sampling) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "SkipNode rate must be in [0, 1), got {rate}"
        );
        Self { rate, sampling }
    }

    /// The sampling rate `ρ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The sampling strategy.
    pub fn sampling(&self) -> Sampling {
        self.sampling
    }

    /// Sample the diagonal of `P^(l)`: `mask[i] == true` means node `i`
    /// skips this layer's convolution. Resample per layer, per epoch.
    pub fn sample_mask(&self, degrees: &[usize], rng: &mut SplitRng) -> Vec<bool> {
        let n = degrees.len();
        let mut mask = vec![false; n];
        if self.rate == 0.0 || n == 0 {
            return mask;
        }
        match self.sampling {
            Sampling::Uniform => rng.fill_bernoulli(self.rate, &mut mask),
            Sampling::Biased => {
                let k = ((self.rate * n as f64).floor() as usize).min(n);
                let weights: Vec<f64> = degrees.iter().map(|&d| (d + 1) as f64).collect();
                for i in rng.weighted_sample_indices(&weights, k) {
                    mask[i] = true;
                }
            }
            Sampling::InverseBiased => {
                let k = ((self.rate * n as f64).floor() as usize).min(n);
                let weights: Vec<f64> = degrees.iter().map(|&d| 1.0 / (d + 1) as f64).collect();
                for i in rng.weighted_sample_indices(&weights, k) {
                    mask[i] = true;
                }
            }
            Sampling::TopDegree => {
                let k = ((self.rate * n as f64).floor() as usize).min(n);
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by_key(|&i| std::cmp::Reverse(degrees[i]));
                for &i in order.iter().take(k) {
                    mask[i] = true;
                }
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_skips_nothing() {
        let cfg = SkipNodeConfig::new(0.0, Sampling::Uniform);
        let mask = cfg.sample_mask(&[1; 100], &mut SplitRng::new(1));
        assert!(mask.iter().all(|&m| !m));
    }

    #[test]
    #[should_panic(expected = "rate must be in")]
    fn rate_one_rejected() {
        let _ = SkipNodeConfig::new(1.0, Sampling::Uniform);
    }

    #[test]
    fn uniform_rate_is_respected_in_expectation() {
        let cfg = SkipNodeConfig::new(0.3, Sampling::Uniform);
        let mut rng = SplitRng::new(2);
        let n = 20_000;
        let mask = cfg.sample_mask(&vec![1; n], &mut rng);
        let frac = mask.iter().filter(|&&m| m).count() as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn biased_selects_exactly_rho_n_nodes() {
        let cfg = SkipNodeConfig::new(0.5, Sampling::Biased);
        let degrees: Vec<usize> = (0..101).collect();
        let mask = cfg.sample_mask(&degrees, &mut SplitRng::new(3));
        assert_eq!(mask.iter().filter(|&&m| m).count(), 50);
    }

    #[test]
    fn biased_prefers_high_degree_nodes() {
        let cfg = SkipNodeConfig::new(0.2, Sampling::Biased);
        // Half the nodes have degree 50, half degree 1.
        let mut degrees = vec![50usize; 200];
        degrees.extend(vec![1usize; 200]);
        let mut rng = SplitRng::new(4);
        let mut high = 0usize;
        let mut low = 0usize;
        for _ in 0..50 {
            let mask = cfg.sample_mask(&degrees, &mut rng);
            high += mask[..200].iter().filter(|&&m| m).count();
            low += mask[200..].iter().filter(|&&m| m).count();
        }
        assert!(high > low * 5, "high {high}, low {low}");
    }

    #[test]
    fn inverse_biased_prefers_low_degree_nodes() {
        let cfg = SkipNodeConfig::new(0.2, Sampling::InverseBiased);
        let mut degrees = vec![50usize; 200];
        degrees.extend(vec![0usize; 200]);
        let mut rng = SplitRng::new(5);
        let mut high = 0usize;
        let mut low = 0usize;
        for _ in 0..50 {
            let mask = cfg.sample_mask(&degrees, &mut rng);
            high += mask[..200].iter().filter(|&&m| m).count();
            low += mask[200..].iter().filter(|&&m| m).count();
        }
        assert!(low > high * 5, "high {high}, low {low}");
    }

    #[test]
    fn top_degree_is_deterministic() {
        let cfg = SkipNodeConfig::new(0.4, Sampling::TopDegree);
        let degrees = vec![5, 1, 9, 3, 7];
        let m1 = cfg.sample_mask(&degrees, &mut SplitRng::new(1));
        let m2 = cfg.sample_mask(&degrees, &mut SplitRng::new(99));
        assert_eq!(m1, m2);
        // 0.4 * 5 = 2 nodes: degrees 9 and 7 → indices 2 and 4.
        assert_eq!(m1, vec![false, false, true, false, true]);
    }

    #[test]
    fn sampling_round_trip_parse() {
        for s in [
            Sampling::Uniform,
            Sampling::Biased,
            Sampling::InverseBiased,
            Sampling::TopDegree,
        ] {
            assert_eq!(Sampling::parse(s.as_str()), Some(s));
        }
        assert_eq!(Sampling::parse("bogus"), None);
    }
}
