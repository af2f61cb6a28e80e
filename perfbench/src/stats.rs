//! Order statistics over timing samples.

/// `xs` sorted ascending (NaN-free by construction: every sample is a
/// measured duration or a ratio of positive durations).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (nearest rank) of `xs`; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// Work and wall time summed over timed rounds.
#[derive(Default)]
pub struct Throughput {
    work: f64,
    secs: f64,
    rates: Vec<f64>,
}

impl Throughput {
    pub fn add(&mut self, work: f64, secs: f64) {
        self.work += work;
        self.secs += secs;
        self.rates.push(work / secs);
    }

    /// Total work over total wall time. Round times on a host whose
    /// second core comes and goes are bimodal, and a median flips between
    /// the modes from run to run; this ratio moves smoothly with their mix.
    pub fn per_s(&self) -> f64 {
        self.work / self.secs
    }

    /// The `q`-quantile of the per-round rates.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.rates, q)
    }

    pub fn rounds(&self) -> usize {
        self.rates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&xs[..4]), 3.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.9), 5.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(max(&xs), 5.0);
        assert_eq!(median(&[]), 0.0);
    }
}
