//! Configuration of an RTDS deployment.

use rtds_graph::TaskGraph;
use rtds_sched::{SchedulerKind, SpeedupFn, TaskDemand};

/// How the extra laxity of case (iii) is scattered over the tasks (§12.2 and
/// the §13 "Laxity Dispatching" generalisation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaxityDispatch {
    /// The base rule: every task receives the same laxity
    /// `ℓ = (d - r - M*) / η`.
    Uniform,
    /// §13: tasks on the longest critical paths receive laxity proportional
    /// to the busyness `1 - I` of the processor they are mapped on.
    BusynessWeighted,
}

/// How per-task resource demands are derived from a job's task graph.
///
/// Deterministic by construction (no RNG): the same graph always yields the
/// same demands, so sweeps stay byte-identical across thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DemandRule {
    /// Every task is a default single-core demand (the paper's model; the
    /// default). Schedulers receive `None` and take their degenerate fast
    /// paths.
    #[default]
    SingleCore,
    /// Tasks cycle through widths `1..=cores` by task id, each scaling by
    /// Amdahl's law with the given parallel fraction and holding `memory`
    /// units while resident.
    WideTasks {
        /// Maximum task width (clamped per-site to the cores that exist).
        cores: usize,
        /// Amdahl parallel fraction in `[0, 1]`.
        parallel_fraction: f64,
        /// Memory held by each task for the span of its reservations.
        memory: f64,
    },
}

impl DemandRule {
    /// Demands for each task of `graph`, or `None` for the single-core rule
    /// (every task a default single-core demand).
    pub fn demands_for(&self, graph: &TaskGraph) -> Option<Vec<TaskDemand>> {
        let mut demands = Vec::new();
        self.demands_into(graph, &mut demands)?;
        Some(demands)
    }

    /// [`DemandRule::demands_for`] written over a caller-owned buffer: the
    /// demands, or `None` (and `out` untouched) for the single-core rule.
    pub(crate) fn demands_into<'a>(
        &self,
        graph: &TaskGraph,
        out: &'a mut Vec<TaskDemand>,
    ) -> Option<&'a [TaskDemand]> {
        let DemandRule::WideTasks {
            cores,
            parallel_fraction,
            memory,
        } = *self
        else {
            return None;
        };
        out.clear();
        out.extend(graph.task_ids().map(|t| TaskDemand {
            cores: 1 + t.0 % cores.max(1),
            memory,
            speedup: SpeedupFn::Amdahl { parallel_fraction },
        }));
        Some(out)
    }

    /// Validates the rule.
    pub(crate) fn validate(&self) -> Result<(), String> {
        match *self {
            DemandRule::SingleCore => Ok(()),
            DemandRule::WideTasks {
                cores,
                parallel_fraction,
                memory,
            } => {
                if cores == 0 {
                    return Err("WideTasks cores must be >= 1".into());
                }
                if !(0.0..=1.0).contains(&parallel_fraction) {
                    return Err("WideTasks parallel_fraction must lie in [0, 1]".into());
                }
                if !(memory >= 0.0 && memory.is_finite()) {
                    return Err("WideTasks memory must be finite and >= 0".into());
                }
                Ok(())
            }
        }
    }
}

/// Tunable parameters of the RTDS protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtdsConfig {
    /// Hop radius `h` of the Potential Computing Sphere. The distributed
    /// routing exchange runs for `2h` phases (§7.2).
    pub sphere_radius: usize,
    /// Length of the observation window over which the §2 surplus is
    /// computed.
    pub observation_window: f64,
    /// Maximum number of PCS peers enrolled into an ACS (0 = no cap, enrol
    /// the whole PCS). Candidates are taken closest-first in delay.
    pub max_acs_size: usize,
    /// §13: allow tasks to be split across idle windows (preemptive model).
    pub preemptive: bool,
    /// §13: respect per-site relative computing powers (uniform machines).
    /// When `false` every site is treated as unit speed regardless of the
    /// topology's speed annotations.
    pub uniform_machines: bool,
    /// §13: how the extra laxity of adjustment case (iii) is dispatched.
    pub laxity_dispatch: LaxityDispatch,
    /// §13: account for per-edge data volumes in communication delays
    /// (delay = propagation + volume / throughput).
    pub data_volume_aware: bool,
    /// Link throughput used when `data_volume_aware` is set (volume units per
    /// time unit).
    pub throughput: f64,
    /// Lower bound on the surplus used by the Mapper so duration estimates
    /// `c / I` stay finite on a fully busy site.
    pub surplus_floor: f64,
    /// When `true` the ACS delay-diameter is computed exactly from global
    /// routing knowledge; when `false` (the default, and the only information
    /// actually available to the initiator in the distributed setting) it is
    /// over-estimated as `max_{a,b ∈ ACS} (δ(k,a) + δ(k,b))`.
    pub exact_acs_diameter: bool,
    /// Move task input data through the engine's shared-bandwidth flow plane
    /// instead of treating volumes as a pure delay term: committed
    /// distributed jobs ship each remote member's input volume as a flow
    /// that contends for link bandwidth with every concurrent transfer.
    /// `false` (the default) keeps runs byte-identical to the pre-flow
    /// engine; zero-volume workloads never start flows either way.
    pub flow_transfers: bool,
    /// Which local scheduling policy every site runs. The default
    /// ([`SchedulerKind::Protocol`]) is the paper's §5/§12 list scheduler
    /// and, on single-core sites, reproduces pre-multicore behaviour
    /// bit-identically.
    pub scheduler: SchedulerKind,
    /// How per-task core/memory/speedup demands are derived from each job's
    /// graph. The default ([`DemandRule::SingleCore`]) is the paper's model.
    pub demand: DemandRule,
}

impl Default for RtdsConfig {
    fn default() -> Self {
        RtdsConfig {
            sphere_radius: 2,
            observation_window: 200.0,
            max_acs_size: 0,
            preemptive: false,
            uniform_machines: false,
            laxity_dispatch: LaxityDispatch::Uniform,
            data_volume_aware: false,
            throughput: 1.0,
            surplus_floor: 0.05,
            exact_acs_diameter: false,
            flow_transfers: false,
            scheduler: SchedulerKind::Protocol,
            demand: DemandRule::SingleCore,
        }
    }
}

impl RtdsConfig {
    /// Checks the configuration for nonsensical values.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.observation_window.is_finite() && self.observation_window > 0.0) {
            return Err("observation_window must be finite and positive".into());
        }
        if !(self.surplus_floor > 0.0 && self.surplus_floor <= 1.0) {
            return Err("surplus_floor must lie in (0, 1]".into());
        }
        if self.data_volume_aware && (self.throughput.is_nan() || self.throughput <= 0.0) {
            return Err("throughput must be positive when data_volume_aware".into());
        }
        if self.flow_transfers && !self.data_volume_aware {
            return Err("flow_transfers requires data_volume_aware (volumes drive flows)".into());
        }
        self.demand.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let c = RtdsConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.laxity_dispatch, LaxityDispatch::Uniform);
    }

    #[test]
    fn invalid_configs_are_reported() {
        let c = RtdsConfig {
            observation_window: 0.0,
            ..RtdsConfig::default()
        };
        assert!(c.validate().is_err());
        let c = RtdsConfig {
            surplus_floor: 0.0,
            ..RtdsConfig::default()
        };
        assert!(c.validate().is_err());
        let c = RtdsConfig {
            surplus_floor: 2.0,
            ..RtdsConfig::default()
        };
        assert!(c.validate().is_err());
        let c = RtdsConfig {
            data_volume_aware: true,
            throughput: 0.0,
            ..RtdsConfig::default()
        };
        assert!(c.validate().is_err());
        let c = RtdsConfig {
            flow_transfers: true,
            data_volume_aware: false,
            ..RtdsConfig::default()
        };
        assert!(c.validate().is_err());
        let c = RtdsConfig {
            flow_transfers: true,
            data_volume_aware: true,
            ..RtdsConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn nan_and_infinite_values_are_reported() {
        for window in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let c = RtdsConfig {
                observation_window: window,
                ..RtdsConfig::default()
            };
            let e = c.validate().unwrap_err();
            assert!(e.contains("observation_window"), "{window}: {e}");
        }
        let c = RtdsConfig {
            data_volume_aware: true,
            throughput: f64::NAN,
            ..RtdsConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("throughput"));
        // An infinite throughput is a link that moves any volume at once.
        let c = RtdsConfig {
            data_volume_aware: true,
            throughput: f64::INFINITY,
            ..RtdsConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn default_scheduler_and_demand_are_the_paper_model() {
        let c = RtdsConfig::default();
        assert_eq!(c.scheduler, SchedulerKind::Protocol);
        assert_eq!(c.demand, DemandRule::SingleCore);
        let g = TaskGraph::from_costs(&[1.0, 2.0, 3.0]);
        assert!(c.demand.demands_for(&g).is_none());
    }

    #[test]
    fn wide_tasks_demands_cycle_widths_deterministically() {
        let rule = DemandRule::WideTasks {
            cores: 2,
            parallel_fraction: 0.9,
            memory: 4.0,
        };
        assert!(rule.validate().is_ok());
        let g = TaskGraph::from_costs(&[1.0, 1.0, 1.0, 1.0]);
        let demands = rule.demands_for(&g).unwrap();
        assert_eq!(demands.len(), 4);
        let widths: Vec<usize> = demands.iter().map(|d| d.cores).collect();
        assert_eq!(widths, vec![1, 2, 1, 2]);
        assert!(demands.iter().all(|d| d.memory == 4.0));
        assert_eq!(rule.demands_for(&g).unwrap(), demands);

        assert!(DemandRule::WideTasks {
            cores: 0,
            parallel_fraction: 0.5,
            memory: 0.0
        }
        .validate()
        .is_err());
        assert!(DemandRule::WideTasks {
            cores: 2,
            parallel_fraction: 1.5,
            memory: 0.0
        }
        .validate()
        .is_err());
        assert!(DemandRule::WideTasks {
            cores: 2,
            parallel_fraction: 0.5,
            memory: -1.0
        }
        .validate()
        .is_err());
        let c = RtdsConfig {
            demand: DemandRule::WideTasks {
                cores: 0,
                parallel_fraction: 0.5,
                memory: 0.0,
            },
            ..RtdsConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
