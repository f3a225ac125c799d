//! Median and quartiles, by the same rule as Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
//! benchmark's own spreads are the ones the driver computes.

/// Median, quartiles and sample count of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Lower quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `values` (any order). One sample is its own quartiles;
    /// an empty set is all zeros.
    pub fn of(values: &[f64]) -> Quartiles {
        let mut data = values.to_vec();
        data.sort_by(f64::total_cmp);
        let n = data.len();
        match n {
            0 => Quartiles {
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                n,
            },
            1 => Quartiles {
                q1: data[0],
                median: data[0],
                q3: data[0],
                n,
            },
            _ => {
                let cut = |i: usize| {
                    let m = n + 1;
                    let j = (i * m / 4).clamp(1, n - 1);
                    // May be negative or exceed 4 at the clamped ends:
                    // the rule then extrapolates, as Python does.
                    let delta = (i * m) as f64 - (j * 4) as f64;
                    (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
                };
                Quartiles {
                    q1: cut(1),
                    median: cut(2),
                    q3: cut(3),
                    n,
                }
            }
        }
    }

    /// Inter-quartile distance as a share of the median (0 for a zero
    /// median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&ten);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert!((q.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(median(&[]), 0.0);
        let one = Quartiles::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(one.spread(), 0.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }
}
