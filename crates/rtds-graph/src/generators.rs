//! Synthetic DAG workload generators.
//!
//! The paper evaluates RTDS conceptually on "sporadic jobs with arbitrary
//! precedence relations"; it does not fix a benchmark suite. To exercise the
//! protocol we provide the classical task-graph families used throughout the
//! DAG-scheduling literature (and by the papers RTDS cites, e.g. DLS and the
//! Iverson/Özgüner competitive-DAG studies):
//!
//! * chains, fork-joins, diamonds (series-parallel shapes),
//! * layered random DAGs (the standard "Task Graphs For Free" style),
//! * Erdős–Rényi DAGs over a random topological order,
//! * out-trees / in-trees,
//! * Gaussian-elimination and FFT-butterfly application graphs,
//! * independent task sets (degenerate DAGs, to compare against the
//!   independent-task literature the paper discusses in §3).
//!
//! All generation is driven by an explicit, seedable RNG so every experiment
//! in the harness is reproducible.

use crate::critical_path::upward_ranks_into;
use crate::dag::TaskGraph;
use crate::job::{Job, JobId, JobParams};
use crate::task::TaskId;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Distribution of task computational complexities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostDistribution {
    /// Every task has the same cost.
    Constant(f64),
    /// Costs drawn uniformly from `[min, max]`.
    Uniform { min: f64, max: f64 },
    /// Costs drawn from a two-point distribution: `low` with probability
    /// `p_low`, otherwise `high` (models mixed light/heavy tasks).
    Bimodal { low: f64, high: f64, p_low: f64 },
}

impl CostDistribution {
    fn sample(&self, rng: &mut StdRng) -> f64 {
        match *self {
            CostDistribution::Constant(c) => c,
            CostDistribution::Uniform { min, max } => {
                if max > min {
                    rng.random_range(min..=max)
                } else {
                    min
                }
            }
            CostDistribution::Bimodal { low, high, p_low } => {
                if rng.random_bool(p_low.clamp(0.0, 1.0)) {
                    low
                } else {
                    high
                }
            }
        }
    }

    /// Expected value of the distribution (used to size deadlines).
    pub(crate) fn mean(&self) -> f64 {
        match *self {
            CostDistribution::Constant(c) => c,
            CostDistribution::Uniform { min, max } => 0.5 * (min + max),
            CostDistribution::Bimodal { low, high, p_low } => {
                let p = p_low.clamp(0.0, 1.0);
                p * low + (1.0 - p) * high
            }
        }
    }
}

/// Shape (family) of generated DAGs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DagShape {
    /// A single chain of `n` tasks.
    Chain,
    /// One source fanning out to `n - 2` parallel tasks joined by one sink.
    ForkJoin,
    /// A set of `n` independent tasks (no precedence edges at all).
    Independent,
    /// `layers` layers of roughly equal width; every task has at least one
    /// predecessor in the previous layer and extra edges are added with
    /// probability `edge_prob`.
    LayeredRandom { layers: usize, edge_prob: f64 },
    /// Erdős–Rényi DAG: a random permutation fixes a topological order and
    /// each forward pair becomes an edge with probability `edge_prob`
    /// (orphan tasks are then stitched to keep the graph weakly connected).
    ErdosRenyi { edge_prob: f64 },
    /// Complete out-tree with the given branching factor.
    OutTree { branching: usize },
    /// Complete in-tree (reduction tree) with the given branching factor.
    InTree { branching: usize },
    /// Gaussian elimination task graph on a `k × k` matrix
    /// (`n = k(k+1)/2 - 1` tasks). The requested task count selects `k`.
    GaussianElimination,
    /// FFT butterfly graph on `2^m` points (recursive + butterfly stages).
    /// The requested task count selects `m`.
    FftButterfly,
}

/// Configuration of a [`DagGenerator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Desired number of tasks (exact for most shapes; rounded to the nearest
    /// legal size for structured shapes such as trees, FFT or Gaussian
    /// elimination).
    pub task_count: usize,
    /// Shape family.
    pub shape: DagShape,
    /// Task cost distribution.
    pub costs: CostDistribution,
    /// Communication-to-computation ratio used to decorate edges with data
    /// volumes: each edge volume is `ccr × mean task cost` scaled by a
    /// uniform factor in `[0.5, 1.5]`. A CCR of 0 leaves volumes at 0 (the
    /// paper's base model, propagation delay only).
    pub ccr: f64,
    /// Deadline laxity factor range: the job deadline is
    /// `release + factor × critical path length`, with the factor drawn
    /// uniformly from this range.
    pub laxity_factor: (f64, f64),
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            task_count: 20,
            shape: DagShape::LayeredRandom {
                layers: 4,
                edge_prob: 0.3,
            },
            costs: CostDistribution::Uniform {
                min: 1.0,
                max: 10.0,
            },
            ccr: 0.0,
            laxity_factor: (2.0, 4.0),
        }
    }
}

/// Seedable generator of task graphs and jobs.
///
/// A graph is assembled in a buffer the generator keeps between calls and
/// handed out as an exactly-sized copy, and the deadline's critical-path
/// pass runs in kept buffers too: generating a job allocates the job's own
/// graph (tasks, edges, labels) and nothing else.
#[derive(Debug)]
pub struct DagGenerator {
    config: GeneratorConfig,
    rng: StdRng,
    next_job: u64,
    /// The graph under construction (empty between calls).
    building: TaskGraph,
    /// The Erdős–Rényi topological permutation.
    permutation: Vec<usize>,
    /// Working space of the deadline's critical-path pass.
    order: Vec<TaskId>,
    in_degrees: Vec<usize>,
    ranks: Vec<f64>,
}

impl DagGenerator {
    /// Creates a generator with the given configuration and seed.
    pub fn new(config: GeneratorConfig, seed: u64) -> Self {
        DagGenerator {
            config,
            rng: StdRng::seed_from_u64(seed),
            next_job: 0,
            building: TaskGraph::new(),
            permutation: Vec::new(),
            order: Vec::new(),
            in_degrees: Vec::new(),
            ranks: Vec::new(),
        }
    }

    /// Restarts the RNG stream from `seed` without resetting the job-id
    /// counter. The streaming workload layer reuses one generator across
    /// millions of jobs, giving each job its own seed from the arrival
    /// trace so a replayed trace regenerates bit-identical jobs regardless
    /// of generation history.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Overrides the task count of subsequently generated graphs (per-job
    /// size mixes — e.g. heavy-tail Pareto — vary this between jobs).
    pub fn set_task_count(&mut self, task_count: usize) {
        self.config.task_count = task_count.max(1);
    }

    /// Generates one task graph according to the configured shape.
    pub fn generate_graph(&mut self) -> TaskGraph {
        let n = self.config.task_count.max(1);
        let mut g = std::mem::take(&mut self.building);
        g.clear();
        match self.config.shape {
            DagShape::Chain => self.chain(&mut g, n),
            DagShape::ForkJoin => self.fork_join(&mut g, n),
            DagShape::Independent => self.add_tasks(&mut g, n),
            DagShape::LayeredRandom { layers, edge_prob } => {
                self.layered(&mut g, n, layers.max(1), edge_prob)
            }
            DagShape::ErdosRenyi { edge_prob } => self.erdos_renyi(&mut g, n, edge_prob),
            DagShape::OutTree { branching } => self.out_tree(&mut g, n, branching.max(2)),
            DagShape::InTree { branching } => self.in_tree(&mut g, n, branching.max(2)),
            DagShape::GaussianElimination => self.gaussian_elimination(&mut g, n),
            DagShape::FftButterfly => self.fft(&mut g, n),
        };
        self.decorate_volumes(&mut g);
        debug_assert!(
            g.topological_order_into(&mut self.order, &mut self.in_degrees)
                .is_ok(),
            "generator produced a cyclic graph"
        );
        let graph = g.take_exact();
        self.building = g;
        graph
    }

    /// Generates a complete job arriving at `arrival_site` at `release`.
    /// The deadline is derived from the critical path and the configured
    /// laxity-factor range.
    pub fn generate_job(&mut self, arrival_site: usize, release: f64) -> Job {
        let graph = self.generate_graph();
        graph
            .topological_order_into(&mut self.order, &mut self.in_degrees)
            .expect("generated graphs are acyclic");
        upward_ranks_into(&graph, &self.order, &mut self.ranks);
        let cp = self.ranks.iter().copied().fold(0.0f64, f64::max);
        let (lo, hi) = self.config.laxity_factor;
        let factor = if hi > lo {
            self.rng.random_range(lo..=hi)
        } else {
            lo
        };
        // Guard against degenerate zero-cost graphs.
        let window = (cp * factor).max(1e-6);
        let id = JobId(self.next_job);
        self.next_job += 1;
        Job::new(
            id,
            graph,
            JobParams::new(release, release + window),
            arrival_site,
        )
    }

    fn sample_cost(&mut self) -> f64 {
        self.config.costs.sample(&mut self.rng)
    }

    /// Adds `n` tasks to an empty graph: their ids are `0..n`.
    fn add_tasks(&mut self, graph: &mut TaskGraph, n: usize) {
        for _ in 0..n {
            let c = self.sample_cost();
            graph.add_task(c);
        }
    }

    fn chain(&mut self, g: &mut TaskGraph, n: usize) {
        self.add_tasks(g, n);
        for i in 1..n {
            g.add_edge(TaskId(i - 1), TaskId(i)).unwrap();
        }
    }

    fn fork_join(&mut self, g: &mut TaskGraph, n: usize) {
        self.add_tasks(g, n);
        if n == 2 {
            g.add_edge(TaskId(0), TaskId(1)).unwrap();
            return;
        }
        let (source, sink) = (TaskId(0), TaskId(n - 1));
        for mid in (1..n.saturating_sub(1)).map(TaskId) {
            g.add_edge(source, mid).unwrap();
            g.add_edge(mid, sink).unwrap();
        }
    }

    fn layered(&mut self, g: &mut TaskGraph, n: usize, layers: usize, edge_prob: f64) {
        let layers = layers.min(n);
        self.add_tasks(g, n);
        // `layers` contiguous id ranges of near-equal size (the first
        // `n % layers` hold one task more), so none is empty.
        let (base, extra) = (n / layers, n % layers);
        let p = edge_prob.clamp(0.0, 1.0);
        let mut prev = 0..base + usize::from(0 < extra);
        for l in 1..layers {
            let layer = prev.end..prev.end + base + usize::from(l < extra);
            for t in layer.clone().map(TaskId) {
                // Guarantee at least one incoming edge from the previous layer.
                let forced = TaskId(prev.start + self.rng.random_range(0..prev.len()));
                let _ = g.add_edge(forced, t);
                // Extra edges from any earlier layer with probability edge_prob.
                for earlier in (0..layer.start).map(TaskId) {
                    if earlier != forced && self.rng.random_bool(p) {
                        let _ = g.add_edge(earlier, t);
                    }
                }
            }
            prev = layer;
        }
    }

    fn erdos_renyi(&mut self, g: &mut TaskGraph, n: usize, edge_prob: f64) {
        self.add_tasks(g, n);
        let mut order = std::mem::take(&mut self.permutation);
        order.clear();
        order.extend(0..n);
        order.shuffle(&mut self.rng);
        let p = edge_prob.clamp(0.0, 1.0);
        for i in 0..n {
            for j in (i + 1)..n {
                if self.rng.random_bool(p) {
                    let _ = g.add_edge(TaskId(order[i]), TaskId(order[j]));
                }
            }
        }
        // Stitch isolated tasks (no preds and no succs) to a random earlier /
        // later task so the job is weakly connected, which keeps critical-path
        // based deadline assignment meaningful.
        for i in 1..n {
            let t = TaskId(order[i]);
            if g.in_degree(t) == 0 && g.out_degree(t) == 0 {
                let j = self.rng.random_range(0..i);
                let _ = g.add_edge(TaskId(order[j]), t);
            }
        }
        self.permutation = order;
    }

    fn out_tree(&mut self, g: &mut TaskGraph, n: usize, branching: usize) {
        self.add_tasks(g, n);
        for i in 1..n {
            let parent = (i - 1) / branching;
            g.add_edge(TaskId(parent), TaskId(i)).unwrap();
        }
    }

    fn in_tree(&mut self, g: &mut TaskGraph, n: usize, branching: usize) {
        self.add_tasks(g, n);
        // Mirror of the out-tree: child -> parent, sink is task 0.
        for i in 1..n {
            let parent = (i - 1) / branching;
            g.add_edge(TaskId(i), TaskId(parent)).unwrap();
        }
    }

    /// Gaussian elimination DAG for a `k × k` matrix, the classical
    /// pivot-column/update structure. `n` selects the smallest `k` whose task
    /// count `k(k+1)/2 - 1` is at least `n` (minimum `k = 2`).
    fn gaussian_elimination(&mut self, g: &mut TaskGraph, n: usize) {
        let mut k = 2usize;
        while k * (k + 1) / 2 - 1 < n {
            k += 1;
        }
        // For each elimination step i (0..k-1): one pivot task, then k-1-i
        // update tasks (the ids right after the pivot's). Pivot of step i
        // depends on all updates of step i-1; update j of step i depends on
        // the pivot of step i and on update j+1 of step i-1 (skipping the
        // column eliminated by the previous pivot).
        let mut prev_updates = 0..0;
        for i in 0..(k - 1) {
            let cost = self.sample_cost();
            let pivot = g.add_labelled_task(cost, format!("pivot{i}"));
            for u in prev_updates.clone().map(TaskId) {
                let _ = g.add_edge(u, pivot);
            }
            let updates = pivot.0 + 1..pivot.0 + k - i;
            for j in 0..updates.len() {
                let cost = self.sample_cost();
                let upd = g.add_labelled_task(cost, format!("update{i}_{j}"));
                let _ = g.add_edge(pivot, upd);
                if j + 1 < prev_updates.len() {
                    let _ = g.add_edge(TaskId(prev_updates.start + j + 1), upd);
                }
            }
            prev_updates = updates;
        }
    }

    /// FFT butterfly DAG on `2^m` points: `m` butterfly stages of `2^m` tasks
    /// each plus an input stage. `n` selects the smallest `m >= 1` such that
    /// the task count `(m + 1) * 2^m` is at least `n`.
    fn fft(&mut self, g: &mut TaskGraph, n: usize) {
        let mut m = 1usize;
        while (m + 1) * (1usize << m) < n && m < 16 {
            m += 1;
        }
        let points = 1usize << m;
        for i in 0..points {
            let c = self.sample_cost();
            g.add_labelled_task(c, format!("in{i}"));
        }
        // Stage `s` holds ids `points * (s + 1)..`, the input stage `0..points`.
        for stage in 0..m {
            let stride = 1usize << stage;
            let (prev, cur) = (points * stage, points * (stage + 1));
            for i in 0..points {
                let c = self.sample_cost();
                g.add_labelled_task(c, format!("s{stage}_{i}"));
            }
            for i in 0..points {
                let partner = i ^ stride;
                g.add_edge(TaskId(prev + i), TaskId(cur + i)).unwrap();
                g.add_edge(TaskId(prev + partner), TaskId(cur + i)).unwrap();
            }
        }
    }

    /// Decorates every edge with a data volume (see
    /// [`GeneratorConfig::ccr`]), drawing the factors source-major.
    fn decorate_volumes(&mut self, graph: &mut TaskGraph) {
        if self.config.ccr <= 0.0 {
            return;
        }
        let scale = self.config.ccr * self.config.costs.mean().max(1e-9);
        let rng = &mut self.rng;
        graph.assign_volumes_source_major(|| scale * rng.random_range(0.5..=1.5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_with(shape: DagShape, n: usize, seed: u64) -> TaskGraph {
        let cfg = GeneratorConfig {
            task_count: n,
            shape,
            ..GeneratorConfig::default()
        };
        DagGenerator::new(cfg, seed).generate_graph()
    }

    #[test]
    fn chain_shape() {
        let g = gen_with(DagShape::Chain, 10, 1);
        assert_eq!(g.task_count(), 10);
        assert_eq!(g.edge_count(), 9);
        assert_eq!(g.longest_chain_len(), 10);
    }

    #[test]
    fn fork_join_shape() {
        let g = gen_with(DagShape::ForkJoin, 12, 2);
        assert_eq!(g.task_count(), 12);
        assert_eq!(g.sources().len(), 1);
        assert_eq!(g.sinks().len(), 1);
        assert_eq!(g.edge_count(), 2 * 10);
        // Small fork-joins degrade gracefully.
        let g1 = gen_with(DagShape::ForkJoin, 1, 2);
        assert_eq!(g1.task_count(), 1);
        let g2 = gen_with(DagShape::ForkJoin, 2, 2);
        assert_eq!(g2.edge_count(), 1);
    }

    #[test]
    fn independent_shape() {
        let g = gen_with(DagShape::Independent, 8, 3);
        assert_eq!(g.task_count(), 8);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn layered_shape_every_non_first_layer_task_has_pred() {
        let g = gen_with(
            DagShape::LayeredRandom {
                layers: 5,
                edge_prob: 0.2,
            },
            30,
            4,
        );
        assert_eq!(g.task_count(), 30);
        assert!(g.is_acyclic());
        // First layer holds 6 tasks; all others must have a predecessor.
        let no_pred = g.task_ids().filter(|t| g.in_degree(*t) == 0).count();
        assert!(no_pred <= 6, "too many sources: {no_pred}");
    }

    #[test]
    fn erdos_renyi_acyclic_and_connected_enough() {
        for seed in 0..5 {
            let g = gen_with(DagShape::ErdosRenyi { edge_prob: 0.15 }, 25, seed);
            assert_eq!(g.task_count(), 25);
            assert!(g.is_acyclic());
            // No fully isolated task except possibly the first in the order.
            let isolated = g
                .task_ids()
                .filter(|t| g.in_degree(*t) == 0 && g.out_degree(*t) == 0)
                .count();
            assert!(isolated <= 1);
        }
    }

    #[test]
    fn tree_shapes() {
        let out = gen_with(DagShape::OutTree { branching: 3 }, 13, 5);
        assert_eq!(out.sources().len(), 1);
        assert_eq!(out.edge_count(), 12);
        let inn = gen_with(DagShape::InTree { branching: 2 }, 15, 6);
        assert_eq!(inn.sinks().len(), 1);
        assert_eq!(inn.edge_count(), 14);
        assert!(inn.is_acyclic());
    }

    #[test]
    fn gaussian_elimination_shape() {
        let g = gen_with(DagShape::GaussianElimination, 14, 7);
        // k = 5 gives 5*6/2 - 1 = 14 tasks.
        assert_eq!(g.task_count(), 14);
        assert!(g.is_acyclic());
        assert_eq!(g.sources().len(), 1); // first pivot
    }

    #[test]
    fn fft_shape() {
        let g = gen_with(DagShape::FftButterfly, 20, 8);
        // m = 2 gives (2+1)*4 = 12 < 20, m = 3 gives 4*8 = 32 >= 20.
        assert_eq!(g.task_count(), 32);
        assert!(g.is_acyclic());
        assert_eq!(g.sources().len(), 8);
        assert_eq!(g.sinks().len(), 8);
    }

    #[test]
    fn jobs_have_consistent_windows() {
        let cfg = GeneratorConfig {
            task_count: 16,
            laxity_factor: (2.0, 3.0),
            ..GeneratorConfig::default()
        };
        let mut generator = DagGenerator::new(cfg, 99);
        for i in 0..10 {
            let job = generator.generate_job(i % 4, i as f64 * 5.0);
            assert_eq!(job.arrival_site, i % 4);
            assert_eq!(job.release(), i as f64 * 5.0);
            assert!(job.deadline() > job.release());
            let lf = job.window() / job.critical_path_length();
            assert!((2.0 - 1e-9..=3.0 + 1e-9).contains(&lf), "laxity {lf}");
        }
    }

    #[test]
    fn job_ids_are_sequential() {
        let mut generator = DagGenerator::new(GeneratorConfig::default(), 11);
        let a = generator.generate_job(0, 0.0);
        let b = generator.generate_job(0, 1.0);
        assert_eq!(a.id, JobId(0));
        assert_eq!(b.id, JobId(1));
    }

    #[test]
    fn reseeding_replays_the_stream_but_keeps_ids_monotonic() {
        let cfg = GeneratorConfig::default();
        let mut generator = DagGenerator::new(cfg, 1);
        generator.reseed(77);
        generator.set_task_count(9);
        let a = generator.generate_job(0, 5.0);
        // Different seed in between, then back: the regenerated job matches.
        generator.reseed(123);
        generator.set_task_count(30);
        let _ = generator.generate_job(1, 6.0);
        generator.reseed(77);
        generator.set_task_count(9);
        let c = generator.generate_job(0, 5.0);
        assert_eq!(a.graph, c.graph);
        assert_eq!(a.params, c.params);
        assert_eq!(a.graph.task_count(), 9);
        // Ids keep counting across reseeds.
        assert_eq!(a.id, JobId(0));
        assert_eq!(c.id, JobId(2));
    }

    #[test]
    fn determinism_same_seed_same_graph() {
        let cfg = GeneratorConfig::default();
        let g1 = DagGenerator::new(cfg, 42).generate_graph();
        let g2 = DagGenerator::new(cfg, 42).generate_graph();
        assert_eq!(g1, g2);
        let g3 = DagGenerator::new(cfg, 43).generate_graph();
        assert_ne!(g1, g3);
    }

    #[test]
    fn ccr_decorates_edges() {
        let cfg = GeneratorConfig {
            task_count: 10,
            shape: DagShape::Chain,
            ccr: 1.0,
            ..GeneratorConfig::default()
        };
        let g = DagGenerator::new(cfg, 13).generate_graph();
        assert_eq!(g.edge_count(), 9);
        for t in g.task_ids() {
            for (s, data) in g.successor_edges(t) {
                assert!(data.data_volume > 0.0, "edge {t} -> {s} has zero volume");
            }
        }
    }

    #[test]
    fn cost_distributions() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(CostDistribution::Constant(5.0).sample(&mut rng), 5.0);
        assert_eq!(CostDistribution::Constant(5.0).mean(), 5.0);
        let u = CostDistribution::Uniform { min: 1.0, max: 3.0 };
        for _ in 0..100 {
            let x = u.sample(&mut rng);
            assert!((1.0..=3.0).contains(&x));
        }
        assert_eq!(u.mean(), 2.0);
        let b = CostDistribution::Bimodal {
            low: 1.0,
            high: 9.0,
            p_low: 0.5,
        };
        assert_eq!(b.mean(), 5.0);
        for _ in 0..100 {
            let x = b.sample(&mut rng);
            assert!(x == 1.0 || x == 9.0);
        }
        // Degenerate uniform falls back to the minimum.
        let d = CostDistribution::Uniform { min: 4.0, max: 4.0 };
        assert_eq!(d.sample(&mut rng), 4.0);
    }
}
