//! Percentiles, medians and the benchmark's own seeded schedule RNG.

/// A percentile with the sample count behind it.
#[derive(Clone, Copy, Debug)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> Pct {
    if values.is_empty() {
        return Pct { value: 0.0, samples: 0 };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Pct { value: v[rank.clamp(1, v.len()) - 1], samples: v.len() }
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Split `(at_s, value)` samples of a `secs`-long phase into `windows`
/// equal time windows and return the median over the windows of
/// `f(values in the window, window seconds)`. One passing disturbance
/// moves one window, not the figure.
pub fn windowed<T: Copy>(
    samples: &[(f64, T)],
    secs: f64,
    windows: usize,
    f: impl Fn(&[T], f64) -> f64,
) -> f64 {
    let width = secs / windows as f64;
    let per: Vec<f64> = (0..windows)
        .map(|w| {
            let lo = w as f64 * width;
            let vals: Vec<T> = samples
                .iter()
                .filter(|(t, _)| *t >= lo && *t < lo + width)
                .map(|&(_, v)| v)
                .collect();
            f(&vals, width)
        })
        .collect();
    median(&per)
}

/// [`windowed`] percentile `p` of the values.
pub fn window_pct(samples: &[(f64, f64)], secs: f64, windows: usize, p: f64) -> f64 {
    windowed(samples, secs, windows, |v, _| percentile(v, p).value)
}

/// [`windowed`] rate: samples per second.
pub fn window_rate(samples: &[(f64, f64)], secs: f64, windows: usize) -> f64 {
    windowed(samples, secs, windows, |v, w| v.len() as f64 / w)
}

/// Samples lying strictly beyond percentile `p`: a tail percentile is
/// only reported as supported when this is at least 10.
pub fn beyond(samples: usize, p: f64) -> usize {
    samples - ((p / 100.0) * samples as f64).ceil() as usize
}

/// SplitMix64: the schedule and traffic-mix generator. Kept separate
/// from the code under test so the load pattern cannot change with it.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential gap of a Poisson process with `rate` events/second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// Index drawn with probability proportional to `weights`.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u32 = weights.iter().sum();
        let mut r = (self.next_u64() % u64::from(total)) as u32;
        for (i, &w) in weights.iter().enumerate() {
            if r < w {
                return i;
            }
            r -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0).value, 50.0);
        assert_eq!(percentile(&v, 99.0).value, 99.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
