//! Compact job specifications and job-size mixes.
//!
//! A [`JobSpec`] is everything an arrival needs besides its time: where it
//! lands, how many tasks it has, and the private RNG seed that expands it
//! into a concrete DAG (see [`crate::factory::JobFactory`]). Keeping the
//! spec this small is what makes the trace format compact — one short JSONL
//! line per job — while still pinning the *entire* job bit-for-bit: the
//! seed determines the graph, the costs and the laxity draw.

use rand::prelude::*;
use rand::rngs::StdRng;

/// One job arrival, minus its time: the arrival site, the task count and
/// the seed that deterministically expands into the full DAG job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Index of the receiving site.
    pub site: usize,
    /// Number of tasks of the job's DAG (structured shapes round this to
    /// the nearest legal size, exactly as in `rtds_graph::generators`).
    pub tasks: usize,
    /// Per-job RNG seed: graph topology, task costs and the laxity factor
    /// are all drawn from a stream seeded with this value.
    pub seed: u64,
}

/// Distribution of job sizes (task counts) across a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeMix {
    /// Every job has the same task count.
    Fixed {
        /// Task count.
        tasks: usize,
    },
    /// Task counts drawn uniformly from `[min, max]`.
    Uniform {
        /// Smallest job.
        min: usize,
        /// Largest job.
        max: usize,
    },
    /// Heavy-tail Pareto sizes: `min / U^(1/alpha)` rounded, capped at
    /// `cap`. Small `alpha` (1–2) yields the classical "mice and
    /// elephants" mix where rare huge DAGs dominate total work.
    Pareto {
        /// Tail index (smaller = heavier tail); clamped below at 0.1.
        alpha: f64,
        /// Smallest job (the Pareto scale parameter).
        min: usize,
        /// Hard cap so a single draw cannot dwarf the simulation.
        cap: usize,
    },
}

impl SizeMix {
    /// Draws one task count.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> usize {
        match *self {
            SizeMix::Fixed { tasks } => tasks.max(1),
            SizeMix::Uniform { min, max } => {
                let lo = min.max(1);
                if max > lo {
                    rng.random_range(lo..=max)
                } else {
                    lo
                }
            }
            SizeMix::Pareto { alpha, min, cap } => {
                let lo = min.max(1);
                let hi = cap.max(lo);
                let u: f64 = rng.random_range(f64::EPSILON..1.0);
                let x = lo as f64 * u.powf(-1.0 / alpha.max(0.1));
                (x.round() as usize).clamp(lo, hi)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_and_uniform_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(SizeMix::Fixed { tasks: 7 }.sample(&mut rng), 7);
        assert_eq!(SizeMix::Fixed { tasks: 0 }.sample(&mut rng), 1);
        let mix = SizeMix::Uniform { min: 3, max: 9 };
        for _ in 0..200 {
            let n = mix.sample(&mut rng);
            assert!((3..=9).contains(&n));
        }
        // Degenerate range falls back to the minimum.
        assert_eq!(SizeMix::Uniform { min: 5, max: 5 }.sample(&mut rng), 5);
        assert_eq!(SizeMix::Uniform { min: 0, max: 0 }.sample(&mut rng), 1);
    }

    #[test]
    fn pareto_sizes_are_heavy_tailed_and_capped() {
        let mut rng = StdRng::seed_from_u64(2);
        let mix = SizeMix::Pareto {
            alpha: 1.3,
            min: 4,
            cap: 64,
        };
        let draws: Vec<usize> = (0..2000).map(|_| mix.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&n| (4..=64).contains(&n)));
        // Most draws hug the minimum; some reach far into the tail.
        let small = draws.iter().filter(|&&n| n <= 8).count();
        let large = draws.iter().filter(|&&n| n >= 32).count();
        assert!(small > draws.len() / 2, "small {small}");
        assert!(large > 0, "no tail draws at all");
    }

    #[test]
    fn sampling_is_deterministic() {
        let mix = SizeMix::Pareto {
            alpha: 1.5,
            min: 4,
            cap: 48,
        };
        let run = || {
            let mut rng = StdRng::seed_from_u64(9);
            (0..50).map(|_| mix.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
