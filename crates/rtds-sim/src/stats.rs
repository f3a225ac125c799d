//! Simulation statistics.
//!
//! Two kinds of figures matter for the paper's claims:
//!
//! * *communication overhead* — how many messages a job distribution costs
//!   (the Computing Sphere is advertised as using "a limited number of sites
//!   and communication links"), captured by the engine-level message counters
//!   plus protocol-defined named counters,
//! * *guarantee ratio* — the fraction of submitted jobs that the system
//!   accepts and completes by their deadline ("this leads to an increase of
//!   the number of accepted (executed) jobs"), captured by
//!   [`GuaranteeStats`].

use rtds_metrics::MetricsRegistry;

/// Engine-level and protocol-level telemetry.
///
/// Backed by an [`rtds_metrics::MetricsRegistry`]: the historical named
/// counters are the registry's counter family (names are `&'static str`
/// literals, so the hot path — `Context::count` fires several times per
/// protocol message — never allocates a `String` per bump), and the same
/// registry now also carries the streaming histograms and gauges recorded
/// through [`crate::engine::Context::record`] and friends.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Messages handed to the engine for delivery.
    pub messages_sent: u64,
    /// Messages actually delivered (equal to `messages_sent` once the run is
    /// quiescent, unless fault injection lost or dropped some).
    pub messages_delivered: u64,
    /// The instrument registry: named counters (for example `"enroll"`,
    /// `"trial_mapping"`), gauges and log-bucketed histograms.
    metrics: MetricsRegistry,
}

impl SimStats {
    /// Adds to a named counter, creating it at zero if needed.
    pub(crate) fn add(&mut self, name: &'static str, amount: u64) {
        self.metrics.add(name, amount);
    }

    /// Value of a named counter, totalled across scopes (zero if never
    /// touched).
    pub fn named(&self, name: &str) -> u64 {
        self.metrics.counter(name)
    }

    /// All named counters in name order (each totalled across its scopes).
    pub fn named_counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.metrics
            .counter_families()
            .map(|(name, scopes)| (name, scopes.total()))
    }

    /// Read access to the full instrument registry (histograms, gauges,
    /// scoped counters).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the instrument registry.
    pub(crate) fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }
}

/// Real-time outcome counters for a workload of jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GuaranteeStats {
    /// Jobs submitted to the system.
    pub submitted: u64,
    /// Jobs accepted locally by their arrival site (no distribution needed).
    pub accepted_locally: u64,
    /// Jobs accepted after distribution over a Computing Sphere (or by the
    /// baseline's distribution mechanism).
    pub accepted_distributed: u64,
    /// Jobs rejected (could not be guaranteed anywhere in time).
    pub rejected: u64,
    /// Accepted jobs whose execution finished by the deadline.
    pub completed_on_time: u64,
    /// Accepted jobs that missed their deadline at run time (must stay zero
    /// under faithful execution — it is a correctness alarm, not a tunable).
    pub deadline_misses: u64,
}

impl GuaranteeStats {
    /// Total number of accepted jobs.
    pub fn accepted(&self) -> u64 {
        self.accepted_locally + self.accepted_distributed
    }

    /// Guarantee ratio: accepted / submitted (1.0 for an empty workload).
    pub fn guarantee_ratio(&self) -> f64 {
        if self.submitted == 0 {
            1.0
        } else {
            self.accepted() as f64 / self.submitted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_counters() {
        let mut s = SimStats::default();
        assert_eq!(s.named("enroll"), 0);
        s.add("enroll", 2);
        s.add("enroll", 3);
        s.add("bid", 1);
        assert_eq!(s.named("enroll"), 5);
        assert_eq!(s.named("bid"), 1);
        let all: Vec<(&str, u64)> = s.named_counters().collect();
        assert_eq!(all, vec![("bid", 1), ("enroll", 5)]);
    }

    #[test]
    fn guarantee_ratios() {
        let empty = GuaranteeStats::default();
        assert_eq!(empty.guarantee_ratio(), 1.0);
        let g = GuaranteeStats {
            submitted: 10,
            accepted_locally: 4,
            accepted_distributed: 2,
            rejected: 4,
            completed_on_time: 6,
            ..GuaranteeStats::default()
        };
        assert_eq!(g.accepted(), 6);
        assert!((g.guarantee_ratio() - 0.6).abs() < 1e-12);
    }
}
