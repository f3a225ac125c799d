//! The built-in scenario registry.
//!
//! Sixteen named scenarios spanning the paper's baseline and the §13
//! extensions it only sketches: sporadic overload, dynamic networks (flaky
//! links, partitions), heterogeneous sites, wide low-degree topologies,
//! hard workload shapes, outright fault storms, three *flow-plane*
//! scenarios (incast-storm, bandwidth-starved-sphere, transfer-vs-compute)
//! where input data contends for finite link bandwidth, and three
//! *streaming* scenarios (diurnal-wave, pareto-burst, replayed-trace)
//! whose arrivals are pulled lazily from open-loop `rtds-workload` sources
//! — the last one routing every cell through an in-memory trace
//! record/replay round-trip.
//! Every perturbation plan starts at `t >= 30`, after the one-time PCS
//! construction (see [`crate::perturb`]).
//!
//! `lossy-messages` and `site-crash-wave` intentionally share the
//! paper-baseline topology and workload recipes: with the same sweep seed
//! they run the *same jobs on the same network*, so any acceptance-ratio
//! difference is attributable to the injected faults alone.

use crate::perturb::{Perturbation, PerturbationPlan};
use crate::spec::{
    BandwidthRecipe, ResourceRecipe, Scenario, SpeedRecipe, StreamRecipe, TopologyRecipe,
    TopologySpec, WorkloadRecipe,
};
use rtds_core::{DemandRule, RtdsConfig};
use rtds_graph::generators::{CostDistribution, DagShape};
use rtds_net::generators::DelayDistribution;
use rtds_sched::SchedulerKind;
use rtds_sim::arrivals::ArrivalProcess;
use rtds_workload::{OpenLoopSpec, RateProcess, SizeMix};

fn paper_baseline() -> Scenario {
    let mut s = Scenario::named(
        "paper-baseline",
        "25-site grid, Poisson hotspot arrivals, layered DAGs - the paper's evaluation setting",
    );
    s.workload = WorkloadRecipe {
        arrivals: ArrivalProcess::Poisson { rate: 0.05 },
        horizon: 240.0,
        hotspots: 4,
        ..WorkloadRecipe::default()
    };
    s
}

/// The built-in scenarios, in registry order.
pub fn builtin_scenarios() -> Vec<Scenario> {
    let mut scenarios = Vec::new();

    scenarios.push(paper_baseline());

    let mut s = paper_baseline();
    s.name = "overload-burst".into();
    s.description =
        "synchronized job bursts on three hotspot sites - sporadic overload stressing ACS locks"
            .into();
    s.workload.arrivals = ArrivalProcess::Bursty {
        window: 60.0,
        burst_size: 5,
    };
    s.workload.hotspots = 3;
    s.workload.laxity = (1.5, 2.5);
    scenarios.push(s);

    let mut s = Scenario::named(
        "flaky-links",
        "tree links fail, recover and jitter - every failure severs part of the network",
    );
    // On a tree every link is a bridge, so each failure physically cuts
    // routed traffic (on a grid the management plane would just reroute).
    s.topology.recipe = TopologyRecipe::RandomTree { sites: 32 };
    s.workload = WorkloadRecipe {
        arrivals: ArrivalProcess::Poisson { rate: 0.04 },
        horizon: 240.0,
        hotspots: 4,
        ..WorkloadRecipe::default()
    };
    s.perturbations = PerturbationPlan::new(vec![
        Perturbation::LinkFailures {
            start: 30.0,
            end: 220.0,
            count: 20,
            downtime: 25.0,
        },
        Perturbation::LinkJitter {
            start: 30.0,
            end: 220.0,
            period: 20.0,
            fraction: 0.15,
            factor: (0.5, 4.0),
        },
    ]);
    scenarios.push(s);

    let mut s = Scenario::named(
        "partition-and-heal",
        "the network splits into two halves mid-run and heals later",
    );
    s.topology.recipe = TopologyRecipe::Grid {
        width: 6,
        height: 4,
        wrap: false,
    };
    s.workload = WorkloadRecipe {
        arrivals: ArrivalProcess::Poisson { rate: 0.02 },
        horizon: 240.0,
        ..WorkloadRecipe::default()
    };
    s.perturbations = PerturbationPlan::new(vec![Perturbation::Partition {
        at: 80.0,
        heal_at: 160.0,
    }]);
    scenarios.push(s);

    let mut s = Scenario::named(
        "hetero-speed-sites",
        "random graph with 6x speed spread - the uniform-machines extension",
    );
    s.topology = TopologySpec {
        recipe: TopologyRecipe::ErdosRenyi {
            sites: 24,
            edge_prob: 0.12,
        },
        delays: DelayDistribution::Uniform { min: 0.5, max: 2.0 },
        bandwidths: BandwidthRecipe::Unlimited,
        speeds: SpeedRecipe::UniformRandom { min: 0.5, max: 3.0 },
    };
    s.workload = WorkloadRecipe {
        arrivals: ArrivalProcess::Poisson { rate: 0.04 },
        horizon: 240.0,
        hotspots: 4,
        ..WorkloadRecipe::default()
    };
    s.config = RtdsConfig {
        uniform_machines: true,
        ..RtdsConfig::default()
    };
    scenarios.push(s);

    let mut s = Scenario::named(
        "wide-low-degree",
        "64-site random tree - an arbitrarily wide network with minimal connectivity",
    );
    s.topology.recipe = TopologyRecipe::RandomTree { sites: 64 };
    s.workload = WorkloadRecipe {
        arrivals: ArrivalProcess::Poisson { rate: 0.01 },
        horizon: 240.0,
        ..WorkloadRecipe::default()
    };
    s.config = RtdsConfig {
        sphere_radius: 3,
        ..RtdsConfig::default()
    };
    scenarios.push(s);

    let mut s = paper_baseline();
    s.name = "deep-chain-dags".into();
    s.description =
        "12-task chain jobs - maximal precedence depth, no intra-job parallelism to exploit".into();
    s.workload.tasks_per_job = 12;
    s.workload.shape = DagShape::Chain;
    s.workload.costs = CostDistribution::Uniform { min: 1.0, max: 5.0 };
    s.workload.laxity = (1.8, 2.8);
    scenarios.push(s);

    let mut s = paper_baseline();
    s.name = "tight-laxity-storm".into();
    s.description =
        "high arrival rate with laxity factors near 1 - adjustment case (i) territory".into();
    s.workload.arrivals = ArrivalProcess::Poisson { rate: 0.08 };
    s.workload.laxity = (1.25, 1.7);
    scenarios.push(s);

    let mut s = paper_baseline();
    s.name = "lossy-messages".into();
    s.description =
        "paper baseline plus 35% message loss mid-run - distribution rounds silently fail".into();
    s.perturbations = PerturbationPlan::new(vec![Perturbation::MessageLoss {
        start: 30.0,
        end: 220.0,
        probability: 0.35,
    }]);
    scenarios.push(s);

    let mut s = paper_baseline();
    s.name = "site-crash-wave".into();
    s.description = "six site crashes with 40-unit outages - arrivals and traffic are lost".into();
    s.workload.hotspots = 0;
    s.workload.arrivals = ArrivalProcess::Poisson { rate: 0.012 };
    s.perturbations = PerturbationPlan::new(vec![Perturbation::SiteCrashes {
        start: 40.0,
        end: 200.0,
        count: 6,
        downtime: 40.0,
    }]);
    scenarios.push(s);

    // --- flow-plane scenarios (finite bandwidth, data-aware transfers) ---

    let mut s = Scenario::named(
        "incast-storm",
        "bursty hotspot at the end of a line squeezes every input transfer through one slow link",
    );
    s.topology = TopologySpec {
        recipe: TopologyRecipe::Line { sites: 10 },
        delays: DelayDistribution::Constant(1.0),
        bandwidths: BandwidthRecipe::Constant(0.5),
        speeds: SpeedRecipe::Identical,
    };
    s.workload = WorkloadRecipe {
        arrivals: ArrivalProcess::Bursty {
            window: 40.0,
            burst_size: 6,
        },
        horizon: 240.0,
        hotspots: 1,
        ccr: 2.0,
        laxity: (2.5, 4.0),
        ..WorkloadRecipe::default()
    };
    s.config = RtdsConfig {
        data_volume_aware: true,
        flow_transfers: true,
        ..RtdsConfig::default()
    };
    scenarios.push(s);

    let mut s = Scenario::named(
        "bandwidth-starved-sphere",
        "grid with randomly starved link capacities plus brownouts - transfers contend and re-solve",
    );
    s.topology.bandwidths = BandwidthRecipe::UniformRandom { min: 0.2, max: 1.0 };
    s.workload = WorkloadRecipe {
        arrivals: ArrivalProcess::Poisson { rate: 0.05 },
        horizon: 240.0,
        hotspots: 4,
        ccr: 1.0,
        ..WorkloadRecipe::default()
    };
    s.config = RtdsConfig {
        data_volume_aware: true,
        flow_transfers: true,
        ..RtdsConfig::default()
    };
    s.perturbations = PerturbationPlan::new(vec![Perturbation::BandwidthBrownout {
        start: 30.0,
        end: 200.0,
        period: 25.0,
        fraction: 0.1,
        capacity: (0.05, 0.4),
    }]);
    scenarios.push(s);

    let mut s = Scenario::named(
        "transfer-vs-compute",
        "communication-heavy DAGs (ccr 3) on ample bandwidth - when shipping data rivals computing",
    );
    s.topology.bandwidths = BandwidthRecipe::Constant(2.0);
    s.workload = WorkloadRecipe {
        arrivals: ArrivalProcess::Poisson { rate: 0.06 },
        horizon: 240.0,
        hotspots: 2,
        ccr: 3.0,
        // Deadlines are set from compute-only critical paths, so at ccr 3
        // the laxity factors must leave room for the shipping time.
        laxity: (3.5, 5.0),
        ..WorkloadRecipe::default()
    };
    s.config = RtdsConfig {
        data_volume_aware: true,
        flow_transfers: true,
        ..RtdsConfig::default()
    };
    scenarios.push(s);

    // --- streaming scenarios (open-loop rtds-workload sources) -----------

    let mut s = Scenario::named(
        "diurnal-wave",
        "streamed diurnal rate curve - load swells to a midday crest and ebbs back",
    );
    s.stream = Some(StreamRecipe {
        open_loop: OpenLoopSpec {
            process: RateProcess::Diurnal {
                base: 0.05,
                peak: 0.9,
                period: 240.0,
            },
            sizes: SizeMix::Uniform { min: 6, max: 10 },
            hotspots: 0,
            horizon: 360.0,
            max_jobs: 0,
        },
        replay: false,
    });
    scenarios.push(s);

    let mut s = Scenario::named(
        "pareto-burst",
        "streamed on/off bursts with heavy-tail Pareto job sizes - mice and elephants",
    );
    s.workload.laxity = (2.0, 3.2);
    s.stream = Some(StreamRecipe {
        open_loop: OpenLoopSpec {
            process: RateProcess::OnOff {
                on_rate: 1.0,
                off_rate: 0.05,
                mean_on: 25.0,
                mean_off: 55.0,
            },
            sizes: SizeMix::Pareto {
                alpha: 1.6,
                min: 4,
                cap: 40,
            },
            hotspots: 5,
            horizon: 300.0,
            max_jobs: 0,
        },
        replay: false,
    });
    scenarios.push(s);

    let mut s = Scenario::named(
        "replayed-trace",
        "Poisson stream recorded to an in-memory JSONL trace and replayed - every cell is a record/replay round-trip",
    );
    s.stream = Some(StreamRecipe {
        open_loop: OpenLoopSpec {
            process: RateProcess::Poisson { rate: 0.6 },
            sizes: SizeMix::Uniform { min: 5, max: 11 },
            hotspots: 0,
            horizon: 240.0,
            max_jobs: 120,
        },
        replay: true,
    });
    scenarios.push(s);

    // --- multicore scenario (heterogeneous resource bundles) --------------

    let mut s = Scenario::named(
        "hetero-multicore",
        "sites cycle through 1-4 cores with finite memory; wide Amdahl tasks under HEFT",
    );
    s.workload = WorkloadRecipe {
        arrivals: ArrivalProcess::Poisson { rate: 0.05 },
        horizon: 240.0,
        hotspots: 4,
        tasks_per_job: 12,
        shape: DagShape::LayeredRandom {
            layers: 4,
            edge_prob: 0.4,
        },
        // Nonzero CCR separates HEFT's comm-inclusive upward rank from the
        // plain critical-path rank the protocol scheduler uses.
        ccr: 0.5,
        laxity: (1.8, 3.0),
        ..WorkloadRecipe::default()
    };
    s.resources = ResourceRecipe::Heterogeneous {
        min_cores: 1,
        max_cores: 4,
        memory: 64.0,
    };
    s.config = RtdsConfig {
        scheduler: SchedulerKind::Heft,
        demand: DemandRule::WideTasks {
            cores: 4,
            parallel_fraction: 0.9,
            memory: 8.0,
        },
        ..RtdsConfig::default()
    };
    scenarios.push(s);

    scenarios
}

/// Looks up a built-in scenario by name.
pub fn find_scenario(name: &str) -> Option<Scenario> {
    builtin_scenarios().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_workload::WorkloadSource;
    use std::collections::BTreeSet;

    #[test]
    fn registry_has_at_least_eight_unique_buildable_scenarios() {
        let scenarios = builtin_scenarios();
        assert!(scenarios.len() >= 8, "only {} scenarios", scenarios.len());
        let names: BTreeSet<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario names");
        for s in &scenarios {
            assert!(!s.description.is_empty(), "{}", s.name);
            let net = s.build_network(1);
            assert!(net.is_connected(), "{}", s.name);
            match s.stream {
                None => {
                    let jobs = s.build_workload(&net, 1);
                    assert!(!jobs.is_empty(), "{} generates no jobs", s.name);
                }
                Some(stream) => {
                    let mut source = stream.open_loop.build(net.site_count(), 1);
                    assert!(
                        source.next_arrival().is_some(),
                        "{} streams no arrivals",
                        s.name
                    );
                }
            }
            s.config
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
            s.resources
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
            // Perturbation plans expand cleanly and never start before the
            // PCS construction window.
            for (t, _) in s.perturbations.expand(&net, 1) {
                assert!(t >= 30.0, "{} perturbs at {t} < 30", s.name);
            }
        }
    }

    #[test]
    fn streaming_scenarios_are_registered() {
        for name in ["diurnal-wave", "pareto-burst", "replayed-trace"] {
            let s = find_scenario(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(s.stream.is_some(), "{name} is not a streaming scenario");
        }
        assert!(
            find_scenario("replayed-trace")
                .unwrap()
                .stream
                .unwrap()
                .replay
        );
        assert!(
            !find_scenario("diurnal-wave")
                .unwrap()
                .stream
                .unwrap()
                .replay
        );
    }

    #[test]
    fn flow_scenarios_are_registered_with_finite_bandwidth() {
        for name in [
            "incast-storm",
            "bandwidth-starved-sphere",
            "transfer-vs-compute",
        ] {
            let s = find_scenario(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(s.config.flow_transfers, "{name} must enable flow transfers");
            assert!(s.config.data_volume_aware, "{name} must be volume-aware");
            assert!(s.workload.ccr > 0.0, "{name} must decorate edge volumes");
            assert!(
                !matches!(s.topology.bandwidths, BandwidthRecipe::Unlimited),
                "{name} must capacitate its links"
            );
            let net = s.build_network(1);
            for (a, b, _) in net.links().collect::<Vec<_>>() {
                let bw = net.link_bandwidth(a, b).unwrap();
                assert!(bw.is_finite() && bw > 0.0, "{name}: link {a:?}-{b:?}");
            }
        }
        // The brownout plan of the starved sphere expands to bandwidth
        // faults (and nothing before the PCS construction window).
        let s = find_scenario("bandwidth-starved-sphere").unwrap();
        let net = s.build_network(1);
        let events = s.perturbations.expand(&net, 1);
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .all(|(_, e)| matches!(e, rtds_sim::FaultEvent::SetLinkBandwidth { .. })));
    }

    #[test]
    fn hetero_multicore_is_registered_with_non_default_resources() {
        let s = find_scenario("hetero-multicore").unwrap();
        assert!(!s.resources.is_degenerate());
        assert_eq!(s.config.scheduler, SchedulerKind::Heft);
        assert!(matches!(s.config.demand, DemandRule::WideTasks { .. }));
        let net = s.build_network(1);
        let bundles = s.resources.bundles(net.site_count());
        assert_eq!(bundles.len(), net.site_count());
        assert!(bundles.iter().any(|b| b.cores > 1));
        assert!(bundles.iter().all(|b| b.memory.is_finite()));
        // Every other scenario keeps the degenerate pre-multicore model.
        for other in builtin_scenarios() {
            if other.name != "hetero-multicore" {
                assert!(other.resources.is_degenerate(), "{}", other.name);
                assert_eq!(
                    other.config.scheduler,
                    SchedulerKind::Protocol,
                    "{}",
                    other.name
                );
                assert_eq!(
                    other.config.demand,
                    DemandRule::SingleCore,
                    "{}",
                    other.name
                );
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(find_scenario("paper-baseline").is_some());
        assert!(find_scenario("flaky-links").is_some());
        assert!(find_scenario("no-such-scenario").is_none());
    }

    #[test]
    fn fault_twins_share_the_baseline_recipes() {
        let base = find_scenario("paper-baseline").unwrap();
        let lossy = find_scenario("lossy-messages").unwrap();
        assert_eq!(base.topology, lossy.topology);
        assert_eq!(base.workload, lossy.workload);
        assert!(!lossy.perturbations.is_empty());
    }
}
