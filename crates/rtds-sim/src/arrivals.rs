//! Sporadic job-arrival processes.
//!
//! "Any site may receive jobs sporadically" (§2). The experiment harness
//! drives the system with synthetic arrival processes: Poisson arrivals (the
//! classical sporadic model, parameterised by a per-site rate), periodic
//! arrivals with jitter, and bursty arrivals (a burst of jobs at the start of
//! each burst window) that stress ACS lock contention.

use rand::prelude::*;
use rand::rngs::StdRng;
use rtds_net::SiteId;

/// A job-arrival process on one site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson process with the given arrival rate (jobs per time unit).
    Poisson { rate: f64 },
    /// Periodic arrivals with uniform jitter in `[-jitter, +jitter]`.
    Periodic { period: f64, jitter: f64 },
    /// `burst_size` simultaneous arrivals at the start of every window of
    /// length `window`.
    Bursty { window: f64, burst_size: usize },
}

/// One scheduled arrival: which site receives a job and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Receiving site.
    pub site: SiteId,
    /// Absolute arrival time.
    pub time: f64,
}

/// A complete, time-ordered arrival schedule over all sites.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArrivalSchedule {
    arrivals: Vec<Arrival>,
}

impl ArrivalSchedule {
    /// Generates a schedule for `site_count` sites over `[0, horizon)`, all
    /// sites sharing the same arrival process, using a seeded RNG.
    pub fn generate(process: ArrivalProcess, site_count: usize, horizon: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arrivals = Vec::new();
        for site in 0..site_count {
            let times = sample_site(process, horizon, &mut rng);
            arrivals.extend(times.into_iter().map(|time| Arrival {
                site: SiteId(site),
                time,
            }));
        }
        arrivals.sort_by(|a, b| {
            a.time
                .partial_cmp(&b.time)
                .unwrap()
                .then(a.site.0.cmp(&b.site.0))
        });
        ArrivalSchedule { arrivals }
    }

    /// Generates a schedule where only the listed sites receive jobs.
    pub fn generate_on_sites(
        process: ArrivalProcess,
        sites: &[SiteId],
        horizon: f64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arrivals = Vec::new();
        for &site in sites {
            let times = sample_site(process, horizon, &mut rng);
            arrivals.extend(times.into_iter().map(|time| Arrival { site, time }));
        }
        arrivals.sort_by(|a, b| {
            a.time
                .partial_cmp(&b.time)
                .unwrap()
                .then(a.site.0.cmp(&b.site.0))
        });
        ArrivalSchedule { arrivals }
    }

    /// The arrivals in time order.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }
}

fn sample_site(process: ArrivalProcess, horizon: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut times = Vec::new();
    match process {
        ArrivalProcess::Poisson { rate } => {
            if rate <= 0.0 {
                return times;
            }
            let mut t = 0.0;
            loop {
                // Exponential inter-arrival via inverse transform sampling.
                let u: f64 = rng.random_range(f64::EPSILON..1.0);
                t += -u.ln() / rate;
                if t >= horizon {
                    break;
                }
                times.push(t);
            }
        }
        ArrivalProcess::Periodic { period, jitter } => {
            if period <= 0.0 {
                return times;
            }
            let mut k = 1.0;
            loop {
                let base = k * period;
                if base >= horizon {
                    break;
                }
                let j = if jitter > 0.0 {
                    rng.random_range(-jitter..=jitter)
                } else {
                    0.0
                };
                let t = (base + j).clamp(0.0, horizon - f64::EPSILON);
                times.push(t);
                k += 1.0;
            }
        }
        ArrivalProcess::Bursty { window, burst_size } => {
            if window <= 0.0 || burst_size == 0 {
                return times;
            }
            let mut start = 0.0;
            while start < horizon {
                for _ in 0..burst_size {
                    times.push(start);
                }
                start += window;
            }
        }
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_is_approximately_respected() {
        let schedule =
            ArrivalSchedule::generate(ArrivalProcess::Poisson { rate: 0.1 }, 20, 1000.0, 1);
        // Expected arrivals: 20 sites * 0.1 * 1000 = 2000; allow 10 % slack.
        let n = schedule.arrivals().len() as f64;
        assert!((1800.0..2200.0).contains(&n), "got {n}");
        // Time-ordered.
        for w in schedule.arrivals().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        // Every arrival within the horizon.
        assert!(schedule.arrivals().iter().all(|a| a.time < 1000.0));
    }

    #[test]
    fn poisson_zero_rate_is_empty() {
        let schedule =
            ArrivalSchedule::generate(ArrivalProcess::Poisson { rate: 0.0 }, 5, 100.0, 1);
        assert!(schedule.arrivals().is_empty());
    }

    #[test]
    fn periodic_arrivals() {
        let schedule = ArrivalSchedule::generate(
            ArrivalProcess::Periodic {
                period: 10.0,
                jitter: 0.0,
            },
            1,
            55.0,
            3,
        );
        let times: Vec<f64> = schedule.arrivals().iter().map(|a| a.time).collect();
        assert_eq!(times, vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        let jittered = ArrivalSchedule::generate(
            ArrivalProcess::Periodic {
                period: 10.0,
                jitter: 1.0,
            },
            1,
            55.0,
            3,
        );
        assert_eq!(jittered.arrivals().len(), 5);
        for (a, b) in jittered.arrivals().iter().zip(&times) {
            assert!((a.time - b).abs() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn bursty_arrivals() {
        let schedule = ArrivalSchedule::generate(
            ArrivalProcess::Bursty {
                window: 50.0,
                burst_size: 3,
            },
            2,
            100.0,
            5,
        );
        // 2 windows * 3 jobs * 2 sites = 12 arrivals.
        assert_eq!(schedule.arrivals().len(), 12);
        let arrivals = schedule.arrivals();
        let at = |site| arrivals.iter().filter(|a| a.site == site).count();
        assert_eq!(at(SiteId(0)), 6);
        assert_eq!(at(SiteId(1)), 6);
    }

    #[test]
    fn restricted_sites() {
        let schedule = ArrivalSchedule::generate_on_sites(
            ArrivalProcess::Poisson { rate: 0.05 },
            &[SiteId(3), SiteId(7)],
            500.0,
            9,
        );
        assert!(!schedule.arrivals().is_empty());
        assert!(schedule
            .arrivals()
            .iter()
            .all(|a| a.site == SiteId(3) || a.site == SiteId(7)));
    }

    #[test]
    fn determinism() {
        let a = ArrivalSchedule::generate(ArrivalProcess::Poisson { rate: 0.2 }, 4, 100.0, 42);
        let b = ArrivalSchedule::generate(ArrivalProcess::Poisson { rate: 0.2 }, 4, 100.0, 42);
        assert_eq!(a, b);
        let c = ArrivalSchedule::generate(ArrivalProcess::Poisson { rate: 0.2 }, 4, 100.0, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn degenerate_processes_are_empty() {
        assert!(ArrivalSchedule::generate(
            ArrivalProcess::Periodic {
                period: 0.0,
                jitter: 0.0
            },
            3,
            100.0,
            0
        )
        .arrivals()
        .is_empty());
        assert!(ArrivalSchedule::generate(
            ArrivalProcess::Bursty {
                window: 10.0,
                burst_size: 0
            },
            3,
            100.0,
            0
        )
        .arrivals()
        .is_empty());
    }
}
