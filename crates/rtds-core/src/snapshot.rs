//! Checkpoints by replay (`rtds-system-record/1`, `rtds-stream-replay/1`).
//!
//! A run is a pure function of what its system was built from, its job
//! source and its seeds, so a checkpoint copies no live state. The *system
//! record* is the construction: the network as built, the [`RtdsConfig`],
//! the seed, one [`SiteResources`] bundle per site, every scheduled fault in
//! call order, the fault seed and the event cap. [`RtdsSystem::resume`]
//! rebuilds from it the system as it stood before its first event. A paused
//! stream adds its harvest interval, the engine events processed at the
//! harvest boundary where it paused, and a digest of the loop's state there;
//! [`RtdsSystem::resume_streaming`] replays a fresh source to that boundary,
//! compares the digest and runs on (see [`crate::streaming`]).
//!
//! Floats travel as their IEEE-754 bit patterns, as everywhere in the
//! [`Snap`] encoding. A record is untrusted input: decoding refuses, with a
//! [`SnapshotError`] naming the field, everything the constructor would
//! otherwise panic on — an invalid configuration or bundle, a bundle count
//! that is not the site count, a fault at a missing site or link or at a
//! negative or non-finite time.

use crate::config::{DemandRule, LaxityDispatch, RtdsConfig};
use crate::system::RtdsSystem;
use rtds_net::{Network, SiteId};
use rtds_sched::{SchedulerKind, SiteResources};
use rtds_sim::json::Json;
use rtds_sim::snapshot::{
    decode_each, expect_schema, field, field_with, Path, Snap, SnapshotError, Word,
};
use rtds_sim::FaultEvent;

/// Schema tag of the system record.
pub(crate) const SYSTEM_RECORD_SCHEMA: &str = "rtds-system-record/1";

/// Schema tag of the stream checkpoint (a system record plus a pause point).
pub(crate) const STREAM_REPLAY_SCHEMA: &str = "rtds-stream-replay/1";

/// What a system was built from: the constructor's arguments and every
/// set-up call made on it since, in call order.
pub(crate) struct Construction {
    /// The network as built, before any fault mutated it.
    pub(crate) network: Network,
    pub(crate) config: RtdsConfig,
    pub(crate) seed: u64,
    /// One bundle per site, in site order.
    pub(crate) resources: Vec<SiteResources>,
    /// Every [`RtdsSystem::schedule_fault`] call.
    pub(crate) faults: Vec<(f64, FaultEvent)>,
    /// The last [`RtdsSystem::set_fault_seed`], if any.
    pub(crate) fault_seed: Option<u64>,
    /// The last [`RtdsSystem::set_max_events`], if any.
    pub(crate) max_events: Option<u64>,
}

/// Refuses a field of object `doc` that is not in `known`: a decoder that
/// skipped it would drop it silently.
pub(crate) fn refuse_unknown(
    doc: &Json,
    path: &Path<'_>,
    known: &[&str],
) -> Result<(), SnapshotError> {
    if let Json::Object(fields) = doc {
        if let Some((key, _)) = fields.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            return Err(path.key(key).err("unknown field"));
        }
    }
    Ok(())
}

impl Snap for Construction {
    fn encode(&self) -> Json {
        let bundle = |r: &SiteResources| (r.cores, r.speed, r.memory).encode();
        Json::object(vec![
            ("schema", Json::str(SYSTEM_RECORD_SCHEMA)),
            ("seed", Word(self.seed).encode()),
            ("config", self.config.encode()),
            ("network", self.network.encode()),
            (
                "resources",
                Json::Array(self.resources.iter().map(bundle).collect()),
            ),
            ("faults", self.faults.encode()),
            ("fault_seed", self.fault_seed.map(Word).encode()),
            ("max_events", self.max_events.map(Word).encode()),
        ])
    }

    fn decode(doc: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        expect_schema(doc, path, SYSTEM_RECORD_SCHEMA)?;
        let known = [
            "schema",
            "seed",
            "config",
            "network",
            "resources",
            "faults",
            "fault_seed",
            "max_events",
        ];
        refuse_unknown(doc, path, &known)?;
        let network: Network = field(doc, path, "network")?;
        let path = &path.within(network.site_count());
        let resources: Vec<SiteResources> = field_with(doc, path, "resources", |j, path| {
            decode_each(j, path, decode_bundle)
        })?;
        if resources.len() != network.site_count() {
            return Err(path.key("resources").err(format!(
                "{} bundles for {} sites",
                resources.len(),
                network.site_count()
            )));
        }
        let faults: Vec<(f64, FaultEvent)> = field(doc, path, "faults")?;
        let faults_path = path.key("faults");
        for (i, &(time, fault)) in faults.iter().enumerate() {
            let path = faults_path.index(i);
            if !(time.is_finite() && time >= 0.0) {
                return Err(path.err(format!("fault time {time} is not finite and non-negative")));
            }
            if let Some((a, b)) = link_of(fault) {
                if !network.has_link(a, b) {
                    return Err(path.err(format!("no link {a} -- {b} in the network")));
                }
            }
        }
        Ok(Construction {
            config: field(doc, path, "config")?,
            seed: field::<Word>(doc, path, "seed")?.0,
            resources,
            faults,
            fault_seed: field::<Option<Word>>(doc, path, "fault_seed")?.map(|Word(w)| w),
            max_events: field::<Option<Word>>(doc, path, "max_events")?.map(|Word(w)| w),
            network,
        })
    }
}

/// The link a fault names, if it names one.
fn link_of(fault: FaultEvent) -> Option<(SiteId, SiteId)> {
    match fault {
        FaultEvent::SetLinkDelay { a, b, .. }
        | FaultEvent::LinkDown { a, b }
        | FaultEvent::LinkUp { a, b }
        | FaultEvent::SetLinkBandwidth { a, b, .. } => Some((a, b)),
        FaultEvent::SiteDown { .. }
        | FaultEvent::SiteUp { .. }
        | FaultEvent::SetMessageLoss { .. } => None,
    }
}

/// The most cores a recorded bundle may ask for: the constructor allocates
/// one plan per core, so a hostile count could exhaust memory.
const MAX_CORES: usize = 1 << 16;

/// A resource bundle as `[cores, speed, memory]`, refused unless
/// [`SiteResources::validate`] accepts it and it has at most [`MAX_CORES`]
/// cores.
fn decode_bundle(j: &Json, path: &Path<'_>) -> Result<SiteResources, SnapshotError> {
    let (cores, speed, memory) = Snap::decode(j, path)?;
    let bundle = SiteResources {
        cores,
        speed,
        memory,
    };
    bundle.validate().map_err(|e| path.err(e))?;
    if cores > MAX_CORES {
        return Err(path.err(format!("{cores} cores (at most {MAX_CORES})")));
    }
    Ok(bundle)
}

impl RtdsSystem {
    /// Rebuilds the system a record describes, as it stood before its first
    /// event.
    pub(crate) fn from_record(record: Construction) -> RtdsSystem {
        let Construction {
            network,
            config,
            seed,
            resources,
            faults,
            fault_seed,
            max_events,
        } = record;
        let mut system = RtdsSystem::with_resources(network, config, seed, resources);
        if let Some(seed) = fault_seed {
            system.set_fault_seed(seed);
        }
        if let Some(max) = max_events {
            system.set_max_events(max);
        }
        for (time, fault) in faults {
            system.schedule_fault(time, fault);
        }
        system
    }
}

// ----- configuration -------------------------------------------------------

/// `null` for single-core demands, else `[cores, parallel_fraction, memory]`.
impl Snap for DemandRule {
    fn encode(&self) -> Json {
        match *self {
            DemandRule::SingleCore => Json::Null,
            DemandRule::WideTasks {
                cores,
                parallel_fraction,
                memory,
            } => (cores, parallel_fraction, memory).encode(),
        }
    }

    fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        Ok(match Option::decode(j, path)? {
            None => DemandRule::SingleCore,
            Some((cores, parallel_fraction, memory)) => DemandRule::WideTasks {
                cores,
                parallel_fraction,
                memory,
            },
        })
    }
}

fn decode_scheduler_kind(j: &Json, path: &Path<'_>) -> Result<SchedulerKind, SnapshotError> {
    let name = String::decode(j, path)?;
    SchedulerKind::parse(&name).ok_or_else(|| path.err(format!("unknown scheduler kind {name:?}")))
}

impl Snap for RtdsConfig {
    fn encode(&self) -> Json {
        let laxity_dispatch = match self.laxity_dispatch {
            LaxityDispatch::Uniform => "uniform",
            LaxityDispatch::BusynessWeighted => "busyness",
        };
        Json::object(vec![
            ("sphere_radius", self.sphere_radius.encode()),
            ("observation_window", self.observation_window.encode()),
            ("max_acs_size", self.max_acs_size.encode()),
            ("preemptive", self.preemptive.encode()),
            ("uniform_machines", self.uniform_machines.encode()),
            ("laxity_dispatch", Json::str(laxity_dispatch)),
            ("data_volume_aware", self.data_volume_aware.encode()),
            ("throughput", self.throughput.encode()),
            ("surplus_floor", self.surplus_floor.encode()),
            ("exact_acs_diameter", self.exact_acs_diameter.encode()),
            ("flow_transfers", self.flow_transfers.encode()),
            ("scheduler", Json::str(self.scheduler.name())),
            ("demand", self.demand.encode()),
        ])
    }

    fn decode(doc: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        let config = RtdsConfig {
            sphere_radius: field(doc, path, "sphere_radius")?,
            observation_window: field(doc, path, "observation_window")?,
            max_acs_size: field(doc, path, "max_acs_size")?,
            preemptive: field(doc, path, "preemptive")?,
            uniform_machines: field(doc, path, "uniform_machines")?,
            laxity_dispatch: match field::<String>(doc, path, "laxity_dispatch")?.as_str() {
                "uniform" => LaxityDispatch::Uniform,
                "busyness" => LaxityDispatch::BusynessWeighted,
                other => return Err(path.err(format!("unknown laxity dispatch {other:?}"))),
            },
            data_volume_aware: field(doc, path, "data_volume_aware")?,
            throughput: field(doc, path, "throughput")?,
            surplus_floor: field(doc, path, "surplus_floor")?,
            exact_acs_diameter: field(doc, path, "exact_acs_diameter")?,
            flow_transfers: field(doc, path, "flow_transfers")?,
            scheduler: field_with(doc, path, "scheduler", decode_scheduler_kind)?,
            demand: field(doc, path, "demand")?,
        };
        config.validate().map_err(|e| path.err(e))?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> Path<'static> {
        Path::root("snapshot")
    }

    #[test]
    fn config_round_trip_both_dispatch_modes() {
        for dispatch in [LaxityDispatch::Uniform, LaxityDispatch::BusynessWeighted] {
            let config = RtdsConfig {
                laxity_dispatch: dispatch,
                preemptive: true,
                throughput: 3.5,
                ..RtdsConfig::default()
            };
            let back = RtdsConfig::decode(&config.encode(), &root()).expect("config decodes");
            assert_eq!(back, config);
        }
        let config = RtdsConfig {
            data_volume_aware: true,
            flow_transfers: true,
            ..RtdsConfig::default()
        };
        let back = RtdsConfig::decode(&config.encode(), &root()).expect("config decodes");
        assert_eq!(back, config);
    }

    #[test]
    fn config_round_trip_scheduler_and_demand() {
        let config = RtdsConfig {
            scheduler: SchedulerKind::Heft,
            demand: DemandRule::WideTasks {
                cores: 3,
                parallel_fraction: 0.75,
                memory: 8.0,
            },
            ..RtdsConfig::default()
        };
        let back = RtdsConfig::decode(&config.encode(), &root()).expect("config decodes");
        assert_eq!(back, config);
    }
}
