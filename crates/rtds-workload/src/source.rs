//! Open-loop arrival processes.
//!
//! A [`WorkloadSource`] emits `(arrival_time, JobSpec)` pairs lazily in
//! non-decreasing time order — the streaming counterpart of the batch
//! [`rtds_sim::arrivals::ArrivalSchedule`]. Sources are *open-loop*: the
//! arrival clock never waits for the system (no admission feedback), which
//! is the standard methodology for latency/overload studies and the model
//! used by dslab-style discrete-event simulators.
//!
//! [`OpenLoopSource`] composes three seeded ingredients:
//!
//! * a [`RateProcess`] — homogeneous Poisson, bursty on/off (a two-state
//!   Markov-modulated Poisson process), or a diurnal rate curve sampled by
//!   thinning against its peak rate,
//! * a [`SizeMix`] — fixed, uniform or heavy-tail Pareto task counts,
//! * a site assignment — uniform over all sites or over a hotspot prefix.
//!
//! [`MergedSource`] interleaves two sources by time, so compound workloads
//! (e.g. a diurnal base load plus a bursty hotspot) compose from parts.

use crate::spec::{JobSpec, SizeMix};
use rand::prelude::*;
use rand::rngs::StdRng;

/// A lazy, time-ordered stream of job arrivals.
pub trait WorkloadSource {
    /// The next arrival `(time, spec)`, or `None` when exhausted. Times
    /// must be non-decreasing.
    fn next_arrival(&mut self) -> Option<(f64, JobSpec)>;
}

/// Aggregate arrival-rate process (jobs per simulated time unit over the
/// whole system; for Poisson this is equivalent to independent per-site
/// processes at `rate / sites`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateProcess {
    /// Homogeneous Poisson arrivals.
    Poisson {
        /// Aggregate rate λ.
        rate: f64,
    },
    /// Two-state Markov-modulated Poisson process: the stream alternates
    /// between an *on* state (rate `on_rate`) and an *off* state (rate
    /// `off_rate`), with exponentially distributed holding times of the
    /// given means. `off_rate = 0` gives classical on/off bursts.
    OnOff {
        /// Arrival rate while bursting.
        on_rate: f64,
        /// Arrival rate between bursts (may be 0).
        off_rate: f64,
        /// Mean holding time of the on state.
        mean_on: f64,
        /// Mean holding time of the off state.
        mean_off: f64,
    },
    /// Diurnal rate curve
    /// `rate(t) = base + (peak - base) · (1 − cos(2πt / period)) / 2`
    /// (troughs at multiples of `period`, crests halfway between), sampled
    /// exactly by thinning a Poisson stream at the peak rate.
    Diurnal {
        /// Trough rate.
        base: f64,
        /// Crest rate.
        peak: f64,
        /// Length of one day.
        period: f64,
    },
}

/// Declarative configuration of an [`OpenLoopSource`] (embeddable in
/// scenario specs; expand with [`OpenLoopSpec::build`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSpec {
    /// Arrival-rate process.
    pub process: RateProcess,
    /// Job-size mix.
    pub sizes: SizeMix,
    /// Restrict arrivals to the first `hotspots` sites (0 = all sites).
    pub hotspots: usize,
    /// Stop emitting at this time (`f64::INFINITY` = unbounded).
    pub horizon: f64,
    /// Stop after this many jobs (0 = unbounded).
    pub max_jobs: u64,
}

impl OpenLoopSpec {
    /// Instantiates the source for a system of `sites` sites with the given
    /// stream seed.
    pub fn build(&self, sites: usize, seed: u64) -> OpenLoopSource {
        OpenLoopSource::new(*self, sites, seed)
    }
}

/// A seeded open-loop arrival stream (see the module docs).
#[derive(Debug, Clone)]
pub struct OpenLoopSource {
    spec: OpenLoopSpec,
    sites: usize,
    rng: StdRng,
    t: f64,
    emitted: u64,
    /// On/off modulation state (used by [`RateProcess::OnOff`] only).
    on: bool,
    state_until: f64,
}

/// Exponential draw with the given rate via inverse-transform sampling.
fn exponential(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.random_range(f64::EPSILON..1.0);
    -u.ln() / rate
}

impl OpenLoopSource {
    /// Creates the source. `sites` must be positive.
    pub(crate) fn new(spec: OpenLoopSpec, sites: usize, seed: u64) -> Self {
        assert!(sites > 0, "an arrival stream needs at least one site");
        let mut source = OpenLoopSource {
            spec,
            sites,
            rng: StdRng::seed_from_u64(seed),
            t: 0.0,
            emitted: 0,
            on: true,
            state_until: 0.0,
        };
        if let RateProcess::OnOff { mean_on, .. } = spec.process {
            source.state_until = exponential(&mut source.rng, 1.0 / mean_on.max(1e-9));
        }
        source
    }

    /// Advances the arrival clock to the next event of the rate process.
    fn next_time(&mut self) -> Option<f64> {
        match self.spec.process {
            RateProcess::Poisson { rate } => {
                if rate <= 0.0 {
                    return None;
                }
                self.t += exponential(&mut self.rng, rate);
                Some(self.t)
            }
            RateProcess::OnOff {
                on_rate,
                off_rate,
                mean_on,
                mean_off,
            } => {
                if on_rate <= 0.0 && off_rate <= 0.0 {
                    return None;
                }
                // Walk state boundaries until an arrival lands inside the
                // current state's holding interval.
                loop {
                    let rate = if self.on { on_rate } else { off_rate };
                    if rate > 0.0 {
                        let dt = exponential(&mut self.rng, rate);
                        if self.t + dt <= self.state_until {
                            self.t += dt;
                            return Some(self.t);
                        }
                    }
                    self.t = self.state_until;
                    self.on = !self.on;
                    let mean = if self.on { mean_on } else { mean_off };
                    self.state_until = self.t + exponential(&mut self.rng, 1.0 / mean.max(1e-9));
                    if self.t >= self.spec.horizon {
                        // Never arriving again within the horizon.
                        return Some(self.t);
                    }
                }
            }
            RateProcess::Diurnal { base, peak, period } => {
                let hi = base.max(peak);
                if hi <= 0.0 || period <= 0.0 {
                    return None;
                }
                // Thinning: candidates at the peak rate, accepted with
                // probability rate(t) / peak — an exact sampler for
                // inhomogeneous Poisson processes.
                loop {
                    self.t += exponential(&mut self.rng, hi);
                    if self.t >= self.spec.horizon {
                        return Some(self.t);
                    }
                    let phase = (self.t / period) * std::f64::consts::TAU;
                    let rate = base + (peak - base) * 0.5 * (1.0 - phase.cos());
                    if self.rng.random_bool((rate / hi).clamp(0.0, 1.0)) {
                        return Some(self.t);
                    }
                }
            }
        }
    }
}

impl WorkloadSource for OpenLoopSource {
    fn next_arrival(&mut self) -> Option<(f64, JobSpec)> {
        if self.spec.max_jobs > 0 && self.emitted >= self.spec.max_jobs {
            return None;
        }
        let t = self.next_time()?;
        if t >= self.spec.horizon {
            return None;
        }
        let allowed = if self.spec.hotspots == 0 {
            self.sites
        } else {
            self.spec.hotspots.min(self.sites)
        };
        let site = self.rng.random_range(0..allowed);
        let tasks = self.spec.sizes.sample(&mut self.rng);
        let seed = self.rng.random_range(0..u64::MAX);
        self.emitted += 1;
        Some((t, JobSpec { site, tasks, seed }))
    }
}

/// Interleaves two sources by arrival time (ties go to `a`). Both inputs
/// stay lazy: one arrival of each is buffered at a time.
#[derive(Debug)]
pub struct MergedSource<A, B> {
    a: A,
    b: B,
    next_a: Option<(f64, JobSpec)>,
    next_b: Option<(f64, JobSpec)>,
    primed: bool,
}

impl<A: WorkloadSource, B: WorkloadSource> MergedSource<A, B> {
    /// Merges `a` and `b` into one time-ordered stream.
    pub fn new(a: A, b: B) -> Self {
        MergedSource {
            a,
            b,
            next_a: None,
            next_b: None,
            primed: false,
        }
    }
}

impl<A: WorkloadSource, B: WorkloadSource> WorkloadSource for MergedSource<A, B> {
    fn next_arrival(&mut self) -> Option<(f64, JobSpec)> {
        if !self.primed {
            self.next_a = self.a.next_arrival();
            self.next_b = self.b.next_arrival();
            self.primed = true;
        }
        let take_a = match (&self.next_a, &self.next_b) {
            (Some((ta, _)), Some((tb, _))) => ta <= tb,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if take_a {
            let item = self.next_a.take();
            self.next_a = self.a.next_arrival();
            item
        } else {
            let item = self.next_b.take();
            self.next_b = self.b.next_arrival();
            item
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut source: impl WorkloadSource) -> Vec<(f64, JobSpec)> {
        let mut out = Vec::new();
        while let Some(a) = source.next_arrival() {
            out.push(a);
        }
        out
    }

    fn spec(process: RateProcess) -> OpenLoopSpec {
        OpenLoopSpec {
            process,
            sizes: SizeMix::Fixed { tasks: 8 },
            hotspots: 0,
            horizon: 500.0,
            max_jobs: 0,
        }
    }

    #[test]
    fn poisson_rate_and_ordering() {
        let arrivals = drain(spec(RateProcess::Poisson { rate: 2.0 }).build(10, 1));
        // E[n] = 1000; generous slack.
        assert!((800..1200).contains(&arrivals.len()), "{}", arrivals.len());
        assert!(arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(arrivals.iter().all(|(t, s)| *t < 500.0 && s.site < 10));
        // Per-job seeds differ (each job gets its own DAG stream).
        assert_ne!(arrivals[0].1.seed, arrivals[1].1.seed);
    }

    #[test]
    fn onoff_bursts_cluster_arrivals() {
        let arrivals = drain(
            spec(RateProcess::OnOff {
                on_rate: 5.0,
                off_rate: 0.0,
                mean_on: 10.0,
                mean_off: 40.0,
            })
            .build(4, 3),
        );
        assert!(!arrivals.is_empty());
        assert!(arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
        // Duty cycle 20 %: far fewer arrivals than an always-on stream, and
        // gaps longer than any plausible on-state inter-arrival exist.
        assert!(arrivals.len() < 1500, "{}", arrivals.len());
        let max_gap = arrivals
            .windows(2)
            .map(|w| w[1].0 - w[0].0)
            .fold(0.0f64, f64::max);
        assert!(max_gap > 10.0, "no off-period gap, max {max_gap}");
    }

    #[test]
    fn diurnal_rate_follows_the_curve() {
        let arrivals = drain(
            spec(RateProcess::Diurnal {
                base: 0.1,
                peak: 4.0,
                period: 250.0,
            })
            .build(4, 7),
        );
        assert!(arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
        // Crest (middle of the 500-horizon: one full period => crest at
        // 125 and 375) vs troughs near 0/250/500.
        let in_band = |lo: f64, hi: f64| {
            arrivals
                .iter()
                .filter(|(t, _)| (lo..hi).contains(t))
                .count()
        };
        let crest = in_band(100.0, 150.0) + in_band(350.0, 400.0);
        let trough = in_band(225.0, 275.0) + in_band(0.0, 25.0) + in_band(475.0, 500.0);
        assert!(
            crest > 3 * trough.max(1),
            "crest {crest} vs trough {trough}"
        );
    }

    #[test]
    fn hotspots_and_caps_are_respected() {
        let mut cfg = spec(RateProcess::Poisson { rate: 1.0 });
        cfg.hotspots = 2;
        cfg.max_jobs = 25;
        let arrivals = drain(cfg.build(16, 5));
        assert_eq!(arrivals.len(), 25);
        assert!(arrivals.iter().all(|(_, s)| s.site < 2));
    }

    #[test]
    fn degenerate_processes_are_empty() {
        assert!(drain(spec(RateProcess::Poisson { rate: 0.0 }).build(2, 1)).is_empty());
        assert!(drain(
            spec(RateProcess::OnOff {
                on_rate: 0.0,
                off_rate: 0.0,
                mean_on: 5.0,
                mean_off: 5.0,
            })
            .build(2, 1)
        )
        .is_empty());
        assert!(drain(
            spec(RateProcess::Diurnal {
                base: 0.0,
                peak: 0.0,
                period: 100.0,
            })
            .build(2, 1)
        )
        .is_empty());
    }

    #[test]
    fn sources_are_deterministic() {
        let run = || drain(spec(RateProcess::Poisson { rate: 0.5 }).build(6, 42));
        assert_eq!(run(), run());
        let other = drain(spec(RateProcess::Poisson { rate: 0.5 }).build(6, 43));
        assert_ne!(run(), other);
    }

    #[test]
    fn merged_sources_interleave_in_time_order() {
        let mut a = spec(RateProcess::Poisson { rate: 0.3 });
        a.max_jobs = 20;
        let mut b = spec(RateProcess::Poisson { rate: 0.3 });
        b.max_jobs = 15;
        let merged = drain(MergedSource::new(a.build(4, 1), b.build(4, 2)));
        assert_eq!(merged.len(), 35);
        assert!(merged.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
