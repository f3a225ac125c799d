//! Declarative scenario specifications.
//!
//! A [`Scenario`] is a named, seeded, self-contained description of one
//! experiment: a topology recipe (which network family, which delays, which
//! site speeds), a workload recipe (arrival process, DAG family, laxity
//! tightness) and a perturbation plan (faults injected over the run). Given
//! a sweep seed, every ingredient expands deterministically — two runs of
//! the same `(scenario, seed)` pair are bit-identical.

use crate::perturb::PerturbationPlan;
use rand::prelude::*;
use rand::rngs::StdRng;
use rtds_core::RtdsConfig;
use rtds_graph::generators::{CostDistribution, DagGenerator, DagShape, GeneratorConfig};
use rtds_graph::Job;
use rtds_net::generators::{
    barabasi_albert, complete, erdos_renyi_connected, grid, hypercube, line, random_geometric,
    random_tree, ring, star, DelayDistribution,
};
use rtds_net::{Network, SiteId};
use rtds_sched::SiteResources;
use rtds_sim::arrivals::{ArrivalProcess, ArrivalSchedule};
use rtds_workload::{JobTemplate, OpenLoopSpec};

/// Mixes a sweep seed with a fixed salt into an independent stream seed
/// (splitmix64 finalizer), so network generation, workload generation, fault
/// expansion and message-loss draws never share an RNG stream.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which topology family to instantiate (all generators come from
/// [`rtds_net::generators`] and always yield a connected network).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyRecipe {
    /// A ring of `sites`.
    Ring { sites: usize },
    /// A line (path) of `sites`.
    Line { sites: usize },
    /// A star with `sites - 1` leaves.
    Star { sites: usize },
    /// A complete graph.
    Complete { sites: usize },
    /// A `width × height` grid; `wrap` makes it a torus.
    Grid {
        width: usize,
        height: usize,
        wrap: bool,
    },
    /// A hypercube of dimension `dim`.
    Hypercube { dim: usize },
    /// A uniformly random spanning tree.
    RandomTree { sites: usize },
    /// A connected Erdős–Rényi graph.
    ErdosRenyi { sites: usize, edge_prob: f64 },
    /// A Barabási–Albert preferential-attachment graph.
    BarabasiAlbert { sites: usize, attach: usize },
    /// A connected random geometric graph in the unit square.
    RandomGeometric { sites: usize, radius: f64 },
}

/// How relative site computing powers are assigned (§13 uniform machines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpeedRecipe {
    /// Every site at unit speed (the paper's base model).
    Identical,
    /// Every second site is `factor` times faster.
    AlternatingFast { factor: f64 },
    /// Speeds drawn uniformly from `[min, max]`.
    UniformRandom { min: f64, max: f64 },
}

/// How link bandwidth capacities are assigned. Finite capacities feed the
/// engine's shared-bandwidth flow plane: concurrent transfers crossing a
/// link split its capacity max-min fairly. `Unlimited` (the base model)
/// leaves every link uncapacitated and the generated network bit-identical
/// to the pre-flow generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BandwidthRecipe {
    /// Every link has unlimited capacity (flows never contend).
    Unlimited,
    /// Every link has the same finite capacity (volume units per time unit).
    Constant(f64),
    /// Capacities drawn uniformly from `[min, max]`, in the network's
    /// canonical link order.
    UniformRandom { min: f64, max: f64 },
}

/// Topology recipe plus link delays, bandwidths and site speeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologySpec {
    /// Network family.
    pub recipe: TopologyRecipe,
    /// Link propagation delays.
    pub delays: DelayDistribution,
    /// Link bandwidth capacities.
    pub bandwidths: BandwidthRecipe,
    /// Site computing powers.
    pub speeds: SpeedRecipe,
}

impl TopologySpec {
    /// Instantiates the network for the given stream seed.
    pub fn build(&self, seed: u64) -> Network {
        let d = self.delays;
        let mut network = match self.recipe {
            TopologyRecipe::Ring { sites } => ring(sites, d, seed),
            TopologyRecipe::Line { sites } => line(sites, d, seed),
            TopologyRecipe::Star { sites } => star(sites, d, seed),
            TopologyRecipe::Complete { sites } => complete(sites, d, seed),
            TopologyRecipe::Grid {
                width,
                height,
                wrap,
            } => grid(width, height, wrap, d, seed),
            TopologyRecipe::Hypercube { dim } => hypercube(dim, d, seed),
            TopologyRecipe::RandomTree { sites } => random_tree(sites, d, seed),
            TopologyRecipe::ErdosRenyi { sites, edge_prob } => {
                erdos_renyi_connected(sites, edge_prob, d, seed)
            }
            TopologyRecipe::BarabasiAlbert { sites, attach } => {
                barabasi_albert(sites, attach, d, seed)
            }
            TopologyRecipe::RandomGeometric { sites, radius } => {
                random_geometric(sites, radius, d, seed)
            }
        };
        match self.bandwidths {
            BandwidthRecipe::Unlimited => {}
            BandwidthRecipe::Constant(capacity) => {
                let links: Vec<(SiteId, SiteId)> =
                    network.links().map(|(a, b, _)| (a, b)).collect();
                for (a, b) in links {
                    network
                        .set_link_bandwidth(a, b, capacity)
                        .expect("generated links exist");
                }
            }
            BandwidthRecipe::UniformRandom { min, max } => {
                let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0xba2d));
                let links: Vec<(SiteId, SiteId)> =
                    network.links().map(|(a, b, _)| (a, b)).collect();
                for (a, b) in links {
                    let capacity = if max > min {
                        rng.random_range(min..=max)
                    } else {
                        min
                    };
                    network
                        .set_link_bandwidth(a, b, capacity)
                        .expect("generated links exist");
                }
            }
        }
        match self.speeds {
            SpeedRecipe::Identical => {}
            SpeedRecipe::AlternatingFast { factor } => {
                for s in 0..network.site_count() {
                    if s % 2 == 0 {
                        network.set_speed(SiteId(s), factor);
                    }
                }
            }
            SpeedRecipe::UniformRandom { min, max } => {
                let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0x5eed));
                for s in 0..network.site_count() {
                    let speed = if max > min {
                        rng.random_range(min..=max)
                    } else {
                        min
                    };
                    network.set_speed(SiteId(s), speed);
                }
            }
        }
        network
    }
}

/// How per-site resource bundles (cores, memory) are assigned. Like every
/// other recipe this expands deterministically — heterogeneity comes from
/// the site index, never from an RNG — so sweeps stay bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ResourceRecipe {
    /// Every site is a single unit-speed core with unlimited memory (the
    /// paper's model; the default). Schedulers take their degenerate fast
    /// paths and runs are byte-identical to the pre-multicore engine.
    #[default]
    SingleCore,
    /// Every site has the same `cores` and `memory`.
    Uniform { cores: usize, memory: f64 },
    /// Site `s` gets `min_cores + s % (max_cores - min_cores + 1)` cores,
    /// all with the same `memory`.
    Heterogeneous {
        min_cores: usize,
        max_cores: usize,
        memory: f64,
    },
}

impl ResourceRecipe {
    /// `true` for the recipe that reproduces the pre-multicore model.
    pub fn is_degenerate(&self) -> bool {
        matches!(self, ResourceRecipe::SingleCore)
    }

    /// Expands the recipe into one bundle per site, in site order.
    pub fn bundles(&self, site_count: usize) -> Vec<SiteResources> {
        match *self {
            ResourceRecipe::SingleCore => vec![SiteResources::default(); site_count],
            ResourceRecipe::Uniform { cores, memory } => {
                let bundle = SiteResources {
                    cores,
                    memory,
                    ..SiteResources::default()
                };
                vec![bundle; site_count]
            }
            ResourceRecipe::Heterogeneous {
                min_cores,
                max_cores,
                memory,
            } => {
                let span = max_cores.saturating_sub(min_cores) + 1;
                (0..site_count)
                    .map(|s| SiteResources {
                        cores: min_cores + s % span,
                        memory,
                        ..SiteResources::default()
                    })
                    .collect()
            }
        }
    }

    /// Validates the recipe (the registry test checks every built-in one).
    #[cfg(test)]
    pub(crate) fn validate(&self) -> Result<(), String> {
        match *self {
            ResourceRecipe::SingleCore => Ok(()),
            ResourceRecipe::Uniform { cores, memory } => {
                if cores == 0 {
                    return Err("Uniform cores must be >= 1".into());
                }
                if memory.is_nan() || memory <= 0.0 {
                    return Err("Uniform memory must be positive".into());
                }
                Ok(())
            }
            ResourceRecipe::Heterogeneous {
                min_cores,
                max_cores,
                memory,
            } => {
                if min_cores == 0 {
                    return Err("Heterogeneous min_cores must be >= 1".into());
                }
                if max_cores < min_cores {
                    return Err("Heterogeneous max_cores must be >= min_cores".into());
                }
                if memory.is_nan() || memory <= 0.0 {
                    return Err("Heterogeneous memory must be positive".into());
                }
                Ok(())
            }
        }
    }
}

/// Workload recipe: how jobs arrive and what each job looks like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadRecipe {
    /// Per-site arrival process.
    pub arrivals: ArrivalProcess,
    /// Arrival horizon (faults may outlive it; the run always goes to
    /// quiescence).
    pub horizon: f64,
    /// Restrict arrivals to the first `hotspots` sites (0 = all sites).
    pub hotspots: usize,
    /// Tasks per job.
    pub tasks_per_job: usize,
    /// DAG family of each job.
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

impl Default for WorkloadRecipe {
    fn default() -> Self {
        WorkloadRecipe {
            arrivals: ArrivalProcess::Poisson { rate: 0.02 },
            horizon: 300.0,
            hotspots: 0,
            tasks_per_job: 8,
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

impl WorkloadRecipe {
    /// Builds the job list for the given network and stream seed.
    pub fn build(&self, network: &Network, seed: u64) -> Vec<Job> {
        let schedule = if self.hotspots == 0 {
            ArrivalSchedule::generate(self.arrivals, network.site_count(), self.horizon, seed)
        } else {
            let sites: Vec<SiteId> = network.sites().take(self.hotspots).collect();
            ArrivalSchedule::generate_on_sites(self.arrivals, &sites, self.horizon, seed)
        };
        let cfg = GeneratorConfig {
            task_count: self.tasks_per_job,
            shape: self.shape,
            costs: self.costs,
            ccr: self.ccr,
            laxity_factor: self.laxity,
        };
        let mut generator = DagGenerator::new(cfg, mix_seed(seed, 0xda6));
        schedule
            .arrivals()
            .iter()
            .map(|a| generator.generate_job(a.site.index(), a.time))
            .collect()
    }
}

/// Streaming workload recipe: when present on a [`Scenario`], arrivals are
/// pulled lazily from an open-loop `rtds-workload` source through the
/// bounded-memory streaming path instead of being materialized up front.
/// The DAG-shaping fields of the scenario's [`WorkloadRecipe`] (`shape`,
/// `costs`, `ccr`, `laxity`) still apply — they become the
/// [`JobTemplate`] expanding each compact arrival into a concrete job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamRecipe {
    /// Arrival process, size mix, hotspots, horizon and job cap.
    pub open_loop: OpenLoopSpec,
    /// Route the stream through an in-memory record → replay round-trip
    /// (the `replayed-trace` scenario: every cell exercises the trace
    /// format and proves the replay reproduces the live arrivals).
    pub replay: bool,
}

/// A named, seeded, fully declarative experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Registry name (kebab-case).
    pub name: String,
    /// One-line description shown by `rtds-exp scenarios --list`.
    pub description: String,
    /// Network recipe.
    pub topology: TopologySpec,
    /// Workload recipe.
    pub workload: WorkloadRecipe,
    /// Streaming workload recipe; when set, it replaces the batch workload
    /// (whose arrival fields are ignored) and the cell runs through
    /// [`rtds_core::RtdsSystem::run_streaming`].
    pub stream: Option<StreamRecipe>,
    /// Fault-injection plan (may be empty).
    pub perturbations: PerturbationPlan,
    /// Protocol configuration.
    pub config: RtdsConfig,
    /// Per-site resource bundles (cores, memory).
    pub resources: ResourceRecipe,
    /// Safety cap on processed simulation events per run. A capped cell
    /// counts only the jobs it reached as submitted.
    pub max_events: u64,
}

impl Scenario {
    /// A quiet scenario with the given name and all-default ingredients.
    pub fn named(name: &str, description: &str) -> Self {
        Scenario {
            name: name.to_string(),
            description: description.to_string(),
            topology: TopologySpec {
                recipe: TopologyRecipe::Grid {
                    width: 5,
                    height: 5,
                    wrap: false,
                },
                delays: DelayDistribution::Constant(1.0),
                bandwidths: BandwidthRecipe::Unlimited,
                speeds: SpeedRecipe::Identical,
            },
            workload: WorkloadRecipe::default(),
            stream: None,
            perturbations: PerturbationPlan::none(),
            config: RtdsConfig::default(),
            resources: ResourceRecipe::SingleCore,
            max_events: 50_000_000,
        }
    }

    /// Instantiates the network for a sweep seed.
    pub fn build_network(&self, sweep_seed: u64) -> Network {
        self.topology.build(mix_seed(sweep_seed, 1))
    }

    /// Instantiates the workload for a sweep seed.
    pub fn build_workload(&self, network: &Network, sweep_seed: u64) -> Vec<Job> {
        self.workload.build(network, mix_seed(sweep_seed, 2))
    }

    /// The job template expanding streaming arrivals into concrete jobs
    /// (the DAG-shaping fields of the workload recipe).
    pub fn job_template(&self) -> JobTemplate {
        JobTemplate {
            shape: self.workload.shape,
            costs: self.workload.costs,
            ccr: self.workload.ccr,
            laxity: self.workload.laxity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_mixing_separates_streams() {
        assert_ne!(mix_seed(1, 1), mix_seed(1, 2));
        assert_ne!(mix_seed(1, 1), mix_seed(2, 1));
        assert_eq!(mix_seed(5, 9), mix_seed(5, 9));
    }

    #[test]
    fn every_topology_recipe_builds_connected() {
        let recipes = vec![
            TopologyRecipe::Ring { sites: 8 },
            TopologyRecipe::Line { sites: 8 },
            TopologyRecipe::Star { sites: 8 },
            TopologyRecipe::Complete { sites: 6 },
            TopologyRecipe::Grid {
                width: 3,
                height: 3,
                wrap: true,
            },
            TopologyRecipe::Hypercube { dim: 3 },
            TopologyRecipe::RandomTree { sites: 12 },
            TopologyRecipe::ErdosRenyi {
                sites: 12,
                edge_prob: 0.2,
            },
            TopologyRecipe::BarabasiAlbert {
                sites: 16,
                attach: 2,
            },
            TopologyRecipe::RandomGeometric {
                sites: 16,
                radius: 0.3,
            },
        ];
        for recipe in recipes {
            let spec = TopologySpec {
                recipe,
                delays: DelayDistribution::Constant(1.0),
                bandwidths: BandwidthRecipe::Unlimited,
                speeds: SpeedRecipe::Identical,
            };
            let net = spec.build(3);
            assert!(net.is_connected(), "{recipe:?}");
            assert!(net.site_count() >= 6, "{recipe:?}");
            // Building twice with the same seed is identical.
            assert_eq!(net, spec.build(3));
        }
    }

    #[test]
    fn speed_recipes_apply() {
        let base = TopologySpec {
            recipe: TopologyRecipe::Ring { sites: 6 },
            delays: DelayDistribution::Constant(1.0),
            bandwidths: BandwidthRecipe::Unlimited,
            speeds: SpeedRecipe::AlternatingFast { factor: 2.0 },
        };
        let net = base.build(1);
        assert_eq!(net.speed(SiteId(0)), 2.0);
        assert_eq!(net.speed(SiteId(1)), 1.0);
        let random = TopologySpec {
            speeds: SpeedRecipe::UniformRandom { min: 0.5, max: 3.0 },
            ..base
        };
        let net = random.build(1);
        for s in net.sites() {
            assert!((0.5..=3.0).contains(&net.speed(s)));
        }
        assert_eq!(net, random.build(1));
    }

    #[test]
    fn workloads_are_deterministic_and_respect_hotspots() {
        let spec = TopologySpec {
            recipe: TopologyRecipe::Grid {
                width: 4,
                height: 4,
                wrap: false,
            },
            delays: DelayDistribution::Constant(1.0),
            bandwidths: BandwidthRecipe::Unlimited,
            speeds: SpeedRecipe::Identical,
        };
        let net = spec.build(2);
        let recipe = WorkloadRecipe {
            hotspots: 3,
            ..WorkloadRecipe::default()
        };
        let a = recipe.build(&net, 7);
        let b = recipe.build(&net, 7);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        assert!(a.iter().all(|j| j.arrival_site < 3));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.params, y.params);
        }
        let c = recipe.build(&net, 8);
        assert_ne!(
            a.iter()
                .map(|j| j.arrival_time.to_bits())
                .collect::<Vec<_>>(),
            c.iter()
                .map(|j| j.arrival_time.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn resource_recipes_expand_deterministically() {
        assert!(ResourceRecipe::SingleCore.is_degenerate());
        assert!(ResourceRecipe::SingleCore
            .bundles(3)
            .iter()
            .all(|b| *b == SiteResources::default()));

        let uniform = ResourceRecipe::Uniform {
            cores: 4,
            memory: 64.0,
        };
        assert!(!uniform.is_degenerate());
        assert!(uniform.validate().is_ok());
        let bundles = uniform.bundles(3);
        assert!(bundles.iter().all(|b| b.cores == 4 && b.memory == 64.0));

        let hetero = ResourceRecipe::Heterogeneous {
            min_cores: 1,
            max_cores: 3,
            memory: 32.0,
        };
        assert!(hetero.validate().is_ok());
        let cores: Vec<usize> = hetero.bundles(5).iter().map(|b| b.cores).collect();
        assert_eq!(cores, vec![1, 2, 3, 1, 2]);
        assert_eq!(hetero.bundles(5), hetero.bundles(5));

        assert!(ResourceRecipe::Uniform {
            cores: 0,
            memory: 1.0
        }
        .validate()
        .is_err());
        assert!(ResourceRecipe::Heterogeneous {
            min_cores: 3,
            max_cores: 2,
            memory: 1.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn named_scenario_defaults_are_sane() {
        let s = Scenario::named("test", "a test scenario");
        assert_eq!(s.name, "test");
        assert!(s.perturbations.is_empty());
        assert!(s.resources.is_degenerate());
        let net = s.build_network(1);
        assert_eq!(net.site_count(), 25);
        let jobs = s.build_workload(&net, 1);
        assert!(!jobs.is_empty());
    }
}
