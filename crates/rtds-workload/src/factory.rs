//! Expansion of compact arrivals into concrete DAG jobs.
//!
//! A [`JobFactory`] bridges the workload layer to the protocol layer: it
//! pulls `(time, JobSpec)` pairs from any [`WorkloadSource`] and expands
//! each into a full [`rtds_graph::Job`] via a single reused
//! [`DagGenerator`], reseeded per job from the spec's seed — so a job is a
//! pure function of `(template, spec, time)` and a replayed trace
//! regenerates bit-identical jobs without the trace having to store graphs.
//! Job ids are assigned sequentially by the shared generator, exactly like
//! the batch path.
//!
//! The factory implements [`rtds_core::streaming::JobSource`], plugging
//! straight into [`rtds_core::RtdsSystem::run_streaming`].

use crate::source::WorkloadSource;
use rtds_core::streaming::JobSource;
use rtds_graph::generators::{CostDistribution, DagGenerator, DagShape, GeneratorConfig};
use rtds_graph::Job;
use rtds_metrics::MetricsRegistry;
use rtds_sim::json::Json;

/// The per-stream job parameters a [`crate::spec::JobSpec`] does not carry:
/// DAG family, task-cost distribution, communication-to-computation ratio
/// and the deadline laxity-factor range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobTemplate {
    /// DAG family of every job.
    pub shape: DagShape,
    /// Task cost distribution.
    pub costs: CostDistribution,
    /// Communication-to-computation ratio decorating edges with data
    /// volumes (0 = propagation-delay-only base model).
    pub ccr: f64,
    /// Deadline laxity factor range (deadline = release + factor × critical
    /// path).
    pub laxity: (f64, f64),
}

impl Default for JobTemplate {
    /// Matches the default scenario workload recipe.
    fn default() -> Self {
        JobTemplate {
            shape: DagShape::LayeredRandom {
                layers: 3,
                edge_prob: 0.3,
            },
            costs: CostDistribution::Uniform { min: 2.0, max: 9.0 },
            ccr: 0.0,
            laxity: (1.6, 2.6),
        }
    }
}

impl JobTemplate {
    /// A human-readable descriptor for trace headers and reports.
    pub fn describe(&self) -> Json {
        Json::str(format!(
            "shape {:?}, costs {:?}, ccr {}, laxity {:?}",
            self.shape, self.costs, self.ccr, self.laxity
        ))
    }
}

/// Expands a [`WorkloadSource`] into a stream of concrete jobs (see the
/// module docs).
///
/// The factory instruments the stream as it flows through: the
/// `interarrival` histogram records the gap between consecutive arrivals
/// (the jitter profile of the arrival process) and the `job_tasks`
/// histogram records the emitted task counts (the realized size mix). The
/// streaming runner collects both via [`JobSource::take_metrics`] into
/// [`rtds_core::StreamReport::metrics`].
#[derive(Debug)]
pub struct JobFactory<S: WorkloadSource> {
    source: S,
    generator: DagGenerator,
    metrics: MetricsRegistry,
    last_arrival: Option<f64>,
}

impl<S: WorkloadSource> JobFactory<S> {
    /// Creates the factory.
    pub fn new(source: S, template: JobTemplate) -> Self {
        let config = GeneratorConfig {
            task_count: 1, // overridden per job from the spec
            shape: template.shape,
            costs: template.costs,
            ccr: template.ccr,
            laxity_factor: template.laxity,
        };
        JobFactory {
            source,
            // The seed is irrelevant: every job reseeds from its spec.
            generator: DagGenerator::new(config, 0),
            metrics: MetricsRegistry::new(),
            last_arrival: None,
        }
    }

    /// Consumes the factory, returning the underlying source (e.g. to
    /// finish a [`crate::trace::RecordingSource`]).
    pub fn into_source(self) -> S {
        self.source
    }
}

impl<S: WorkloadSource> JobSource for JobFactory<S> {
    fn next_job(&mut self) -> Option<Job> {
        let (time, spec) = self.source.next_arrival()?;
        if let Some(last) = self.last_arrival {
            self.metrics.record("interarrival", time - last);
        }
        self.last_arrival = Some(time);
        self.metrics.record("job_tasks", spec.tasks as f64);
        self.generator.reseed(spec.seed);
        self.generator.set_task_count(spec.tasks);
        Some(self.generator.generate_job(spec.site, time))
    }

    fn take_metrics(&mut self) -> MetricsRegistry {
        std::mem::take(&mut self.metrics)
    }
}

/// Expands an entire source eagerly into a sorted job vector — the batch
/// form of the same workload, used by the streaming-vs-batch equivalence
/// tests and anywhere the batch [`rtds_core::RtdsSystem::run`] path is
/// wanted.
pub fn materialize(source: impl WorkloadSource, template: JobTemplate) -> Vec<Job> {
    let mut factory = JobFactory::new(source, template);
    let mut jobs = Vec::new();
    while let Some(job) = factory.next_job() {
        jobs.push(job);
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{OpenLoopSpec, RateProcess};
    use crate::spec::SizeMix;
    use rtds_graph::JobId;

    fn sample_spec() -> OpenLoopSpec {
        OpenLoopSpec {
            process: RateProcess::Poisson { rate: 0.5 },
            sizes: SizeMix::Uniform { min: 3, max: 9 },
            hotspots: 2,
            horizon: 80.0,
            max_jobs: 0,
        }
    }

    #[test]
    fn jobs_are_deterministic_and_sequential() {
        let a = materialize(sample_spec().build(6, 4), JobTemplate::default());
        let b = materialize(sample_spec().build(6, 4), JobTemplate::default());
        assert!(!a.is_empty());
        assert_eq!(a, b);
        for (i, job) in a.iter().enumerate() {
            assert_eq!(job.id, JobId(i as u64));
            assert!(job.arrival_site < 2);
            assert!((3..=9).contains(&job.graph.task_count()));
            assert!(job.deadline() > job.release());
        }
        // Sorted by arrival time.
        assert!(a.windows(2).all(|w| w[0].arrival_time <= w[1].arrival_time));
        // A different stream seed yields different jobs.
        let c = materialize(sample_spec().build(6, 5), JobTemplate::default());
        assert_ne!(a, c);
    }

    #[test]
    fn template_controls_the_expansion() {
        let chains = JobTemplate {
            shape: DagShape::Chain,
            ..JobTemplate::default()
        };
        let jobs = materialize(sample_spec().build(6, 4), chains);
        for job in &jobs {
            assert_eq!(job.graph.edge_count(), job.graph.task_count() - 1);
            assert_eq!(job.graph.longest_chain_len(), job.graph.task_count());
        }
        let described = chains.describe().render_compact();
        assert!(described.contains("Chain"), "{described}");
    }
}
