//! System-level snapshot/restore (`rtds-system-snapshot/1`).
//!
//! The engine snapshot of [`rtds_sim::snapshot`] captures the clock, queue,
//! faults, topology and statistics, and reaches protocol node state and wire
//! messages through their [`Snap`] impls. This module provides those impls
//! for the RTDS protocol's own leaf types ([`RtdsMsg`], [`TaskSpec`],
//! [`RtdsConfig`], [`AcceptedJob`]); the structs with private fields (`pcs`,
//! `acs`, `validate`, `node`, `streaming`, `system`) implement [`Snap`]
//! next to their definitions.
//!
//! Task graphs, jobs, plans and schedulers belong to `rtds-graph` and
//! `rtds-sched`, which sit below `rtds-sim` in the crate graph and cannot
//! see the trait (and the orphan rule keeps this crate from implementing it
//! for them), so their codecs are the `encode_*`/`decode_*` function pairs
//! below — written through the same [`Snap`] primitives, with task ids
//! travelling as their inner integers and job ids (opaque, possibly
//! full-range when replayed from a trace) as [`Word`]s.
//!
//! Conventions follow the engine layer: every `f64` is stored as its
//! IEEE-754 bit pattern (restore is exact by construction), arrays are used
//! for fixed-shape records, and decode errors carry the path of the field
//! that failed. Everything decoded is untrusted: graphs must be DAGs over
//! their own tasks, plans sorted and disjoint, schedulers well-formed.

use crate::config::{DemandRule, LaxityDispatch, RtdsConfig};
use crate::messages::{RtdsMsg, TaskSpec};
use crate::node::AcceptedJob;
use rtds_graph::dag::{EdgeIter, EdgeList};
use rtds_graph::{EdgeData, Job, JobId, JobParams, Task, TaskGraph, TaskId};
use rtds_net::SiteId;
use rtds_sched::{
    MemHold, Reservation, SchedulePlan, Scheduler, SchedulerKind, SiteResources, SiteScheduler,
};
use rtds_sim::json::Json;
use rtds_sim::snapshot::{
    decode_each, encode_all, expect_schema, field, field_with, non_negative, tagged, Path, Snap,
    SnapshotError, Word,
};
use std::sync::Arc;

/// Schema tag of the batch-system snapshot format.
pub(crate) const SYSTEM_SNAPSHOT_SCHEMA: &str = "rtds-system-snapshot/1";

/// Schema tag of the streaming-run checkpoint format (wraps a system
/// snapshot plus the harvest-loop state).
pub(crate) const STREAM_SNAPSHOT_SCHEMA: &str = "rtds-stream-snapshot/1";

/// Schema tag of the per-site scheduler section inside node snapshots
/// (policy kind, resource bundle, per-core plans, memory holds).
pub(crate) const SCHED_SNAPSHOT_SCHEMA: &str = "rtds-sched-snapshot/1";

// ----- task graphs and jobs ------------------------------------------------

/// Adjacency lists as `[[task, volume], …]` per task, in insertion order.
fn encode_adjacency<'g>(lists: impl Iterator<Item = EdgeIter<'g>>) -> Json {
    let list = |list: EdgeIter<'g>| {
        Json::Array(
            list.map(|(t, data)| (t.0, data.data_volume).encode())
                .collect(),
        )
    };
    Json::Array(lists.map(list).collect())
}

fn decode_adjacency(j: &Json, path: &Path<'_>) -> Result<Vec<EdgeList>, SnapshotError> {
    let lists = Vec::<Vec<(usize, f64)>>::decode(j, path)?;
    let edge = |(task, data_volume)| (TaskId(task), EdgeData { data_volume });
    Ok(lists
        .into_iter()
        .map(|list| list.into_iter().map(edge).collect())
        .collect())
}

/// A task graph as `{tasks: [[cost, label | null], …], succs: …, preds: …}`.
/// Both adjacency views are stored verbatim: their per-list insertion
/// orders are semantic (mapper tie-breaking and message fan-out follow
/// them) and interleave differently when the generator added edges out of
/// source-major order, so neither can be re-derived from the other.
pub(crate) fn encode_graph(g: &TaskGraph) -> Json {
    let tasks = g
        .tasks()
        .map(|t| Json::Array(vec![t.cost.encode(), t.label.encode()]))
        .collect();
    let succs = g.task_ids().map(|t| g.successor_edges(t));
    let preds = g.task_ids().map(|t| g.predecessor_edges(t));
    Json::object(vec![
        ("tasks", Json::Array(tasks)),
        ("succs", encode_adjacency(succs)),
        ("preds", encode_adjacency(preds)),
    ])
}

pub(crate) fn decode_graph(doc: &Json, path: &Path<'_>) -> Result<TaskGraph, SnapshotError> {
    let tasks = field::<Vec<(f64, Option<String>)>>(doc, path, "tasks")?
        .into_iter()
        .enumerate()
        .map(|(i, (cost, label))| Task {
            id: TaskId(i),
            cost,
            label,
        })
        .collect();
    let succs = field_with(doc, path, "succs", decode_adjacency)?;
    let preds = field_with(doc, path, "preds", decode_adjacency)?;
    TaskGraph::from_raw_parts(tasks, succs, preds).map_err(|e| path.err(e))
}

pub(crate) fn encode_job(job: &Job) -> Json {
    Json::object(vec![
        ("id", job.id.0.encode()),
        ("graph", encode_graph(&job.graph)),
        ("release", job.params.release.encode()),
        ("deadline", job.params.deadline.encode()),
        ("site", job.arrival_site.encode()),
        ("arrival", job.arrival_time.encode()),
    ])
}

pub(crate) fn decode_job(doc: &Json, path: &Path<'_>) -> Result<Job, SnapshotError> {
    let params = JobParams {
        release: field(doc, path, "release")?,
        deadline: field(doc, path, "deadline")?,
    };
    let arrival_time: f64 = field(doc, path, "arrival")?;
    let times = [params.release, params.deadline, arrival_time];
    if !(times.iter().all(|t| t.is_finite()) && params.deadline > params.release) {
        return Err(path.err("release, deadline and arrival must be finite, deadline last"));
    }
    Ok(Job {
        id: field::<Word>(doc, path, "id").map(|Word(id)| JobId(id))?,
        graph: field_with(doc, path, "graph", decode_graph)?,
        params,
        arrival_site: field::<SiteId>(doc, path, "site")?.0,
        arrival_time,
    })
}

// ----- task specs ----------------------------------------------------------

/// A task spec as `[task, release, deadline, cost]`.
impl Snap for TaskSpec {
    fn encode(&self) -> Json {
        (self.task.0, self.release, self.deadline, self.cost).encode()
    }

    fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        let (task, release, deadline, cost) = Snap::decode(j, path)?;
        Ok(TaskSpec {
            task: TaskId(task),
            release,
            deadline,
            cost,
        })
    }
}

// ----- wire messages -------------------------------------------------------

/// An [`RtdsMsg`] as a `{"k": kind, …}` object. Kinds are two-letter codes
/// so queued-event payloads stay compact in million-event snapshots.
impl Snap for RtdsMsg {
    fn encode(&self) -> Json {
        let job = |job: &JobId| ("job", job.0.encode());
        match self {
            RtdsMsg::RoutingUpdate { phase, lines } => tagged(
                "ru",
                vec![("phase", phase.encode()), ("lines", lines.encode())],
            ),
            RtdsMsg::JobArrival { job } => tagged("ja", vec![("job", encode_job(job))]),
            RtdsMsg::Enroll { initiator, job: id } => {
                tagged("en", vec![("initiator", initiator.encode()), job(id)])
            }
            RtdsMsg::EnrollAck {
                job: id,
                surplus,
                speed,
            } => tagged(
                "ea",
                vec![
                    job(id),
                    ("surplus", surplus.encode()),
                    ("speed", speed.encode()),
                ],
            ),
            RtdsMsg::EnrollBusy { job: id } => tagged("eb", vec![job(id)]),
            RtdsMsg::TrialMapping {
                job: id,
                tasks_per_logical,
            } => tagged("tm", vec![job(id), ("tpl", tasks_per_logical.encode())]),
            RtdsMsg::ValidationReply {
                job: id,
                endorsable,
            } => tagged("vr", vec![job(id), ("endorsable", endorsable.encode())]),
            // `logical` and `tasks` travel side by side; an unselected
            // receiver gets `null` and an empty list.
            RtdsMsg::Permutation { job: id, endorse } => {
                let (logical, tasks) = match endorse {
                    Some((logical, tasks)) => (Some(*logical), &tasks[..]),
                    None => (None, &[][..]),
                };
                tagged(
                    "pm",
                    vec![
                        job(id),
                        ("logical", logical.encode()),
                        ("tasks", encode_all(tasks)),
                    ],
                )
            }
            RtdsMsg::Unlock { job: id } => tagged("ul", vec![job(id)]),
            RtdsMsg::TaskData { job: id, volume } => {
                tagged("td", vec![job(id), ("vol", volume.encode())])
            }
        }
    }

    fn decode(doc: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        let job = || field::<Word>(doc, path, "job").map(|Word(id)| JobId(id));
        match field::<String>(doc, path, "k")?.as_str() {
            "ru" => Ok(RtdsMsg::RoutingUpdate {
                phase: field(doc, path, "phase")?,
                lines: field(doc, path, "lines")?,
            }),
            "ja" => Ok(RtdsMsg::JobArrival {
                job: field_with(doc, path, "job", decode_job)?,
            }),
            "en" => Ok(RtdsMsg::Enroll {
                initiator: field(doc, path, "initiator")?,
                job: job()?,
            }),
            // The initiator ranks members by these two.
            "ea" => Ok(RtdsMsg::EnrollAck {
                job: job()?,
                surplus: non_negative(field(doc, path, "surplus")?, path)?,
                speed: non_negative(field(doc, path, "speed")?, path)?,
            }),
            "eb" => Ok(RtdsMsg::EnrollBusy { job: job()? }),
            "tm" => Ok(RtdsMsg::TrialMapping {
                job: job()?,
                tasks_per_logical: field(doc, path, "tpl")?,
            }),
            "vr" => Ok(RtdsMsg::ValidationReply {
                job: job()?,
                endorsable: field(doc, path, "endorsable")?,
            }),
            "pm" => {
                let logical: Option<usize> = field(doc, path, "logical")?;
                let tasks: Arc<[TaskSpec]> = field(doc, path, "tasks")?;
                Ok(RtdsMsg::Permutation {
                    job: job()?,
                    endorse: logical.map(|logical| (logical, tasks)),
                })
            }
            "ul" => Ok(RtdsMsg::Unlock { job: job()? }),
            "td" => Ok(RtdsMsg::TaskData {
                job: job()?,
                volume: field(doc, path, "vol")?,
            }),
            other => Err(path.err(format!("unknown message kind {other:?}"))),
        }
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

// ----- schedule plans ------------------------------------------------------

/// A plan as the sorted reservation list `[[job, task, start, end], …]`.
pub(crate) fn encode_plan(plan: &SchedulePlan) -> Json {
    let reservation = |r: &Reservation| (r.job.0, r.task.0, r.start, r.end).encode();
    Json::Array(plan.reservations().iter().map(reservation).collect())
}

pub(crate) fn decode_plan(j: &Json, path: &Path<'_>) -> Result<SchedulePlan, SnapshotError> {
    let reservations = Vec::<(Word, usize, f64, f64)>::decode(j, path)?
        .into_iter()
        .map(|(Word(job), task, start, end)| Reservation {
            job: JobId(job),
            task: TaskId(task),
            start,
            end,
        })
        .collect();
    SchedulePlan::from_reservations(reservations).map_err(|e| path.err(e))
}

// ----- site scheduler (`rtds-sched-snapshot/1`) ----------------------------

/// The full per-site scheduler state: policy kind, resource bundle, base
/// speed, per-core plans and committed memory holds `[job, start, end,
/// bytes]`.
pub(crate) fn encode_sched(s: &SiteScheduler) -> Json {
    let (base_speed, preemptive, holds) = s.snapshot_parts();
    let resources = s.resources();
    let hold = |h: &MemHold| (h.job.0, h.start, h.end, h.bytes).encode();
    Json::object(vec![
        ("schema", Json::str(SCHED_SNAPSHOT_SCHEMA)),
        ("kind", Json::str(s.kind().name())),
        ("cores", resources.cores.encode()),
        ("speed", resources.speed.encode()),
        ("memory", resources.memory.encode()),
        ("base_speed", base_speed.encode()),
        ("preemptive", preemptive.encode()),
        (
            "plans",
            Json::Array(s.core_plans().iter().map(encode_plan).collect()),
        ),
        ("holds", Json::Array(holds.iter().map(hold).collect())),
    ])
}

pub(crate) fn decode_sched(doc: &Json, path: &Path<'_>) -> Result<SiteScheduler, SnapshotError> {
    expect_schema(doc, path, SCHED_SNAPSHOT_SCHEMA)?;
    let resources = SiteResources {
        cores: field(doc, path, "cores")?,
        speed: field(doc, path, "speed")?,
        memory: field(doc, path, "memory")?,
    };
    let holds = field::<Vec<(Word, f64, f64, f64)>>(doc, path, "holds")?
        .into_iter()
        .map(|(Word(job), start, end, bytes)| MemHold {
            job: JobId(job),
            start,
            end,
            bytes,
        })
        .collect();
    SiteScheduler::from_parts(
        field_with(doc, path, "kind", decode_scheduler_kind)?,
        resources,
        field(doc, path, "base_speed")?,
        field(doc, path, "preemptive")?,
        field_with(doc, path, "plans", |j, path| {
            decode_each(j, path, decode_plan)
        })?,
        holds,
    )
    .map_err(|e| path.err(e))
}

// ----- accepted jobs -------------------------------------------------------

/// An accepted job as `[job, distributed]`.
impl Snap for AcceptedJob {
    fn encode(&self) -> Json {
        (self.job.0, self.distributed).encode()
    }

    fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        let (Word(job), distributed) = Snap::decode(j, path)?;
        Ok(AcceptedJob {
            job: JobId(job),
            distributed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_graph::generators::{DagGenerator, GeneratorConfig};
    use rtds_net::routing::RouteEntry;
    use rtds_net::sphere::Sphere;

    fn root() -> Path<'static> {
        Path::root("snapshot")
    }

    fn round_trip_msg(msg: RtdsMsg) {
        let text = msg.encode().render();
        let parsed = Json::parse(&text).expect("message doc parses");
        let back = RtdsMsg::decode(&parsed, &root()).expect("message decodes");
        assert_eq!(back, msg);
    }

    #[test]
    fn every_message_variant_round_trips() {
        let spec = TaskSpec {
            task: TaskId(2),
            release: 1.5,
            deadline: 9.25,
            cost: 3.0,
        };
        let lines = vec![
            RouteEntry {
                destination: SiteId(0),
                distance: 0.0,
                next_hop: None,
                hops: 0,
            },
            RouteEntry {
                destination: SiteId(3),
                distance: 2.75,
                next_hop: Some(SiteId(1)),
                hops: 2,
            },
        ];
        let mut generator = DagGenerator::new(GeneratorConfig::default(), 5);
        let job = generator.generate_job(1, 4.0);
        round_trip_msg(RtdsMsg::RoutingUpdate {
            phase: 3,
            lines: lines.into(),
        });
        round_trip_msg(RtdsMsg::JobArrival { job });
        round_trip_msg(RtdsMsg::Enroll {
            initiator: SiteId(4),
            job: JobId(9),
        });
        round_trip_msg(RtdsMsg::EnrollAck {
            job: JobId(9),
            surplus: 0.5,
            speed: 1.25,
        });
        round_trip_msg(RtdsMsg::EnrollBusy { job: JobId(9) });
        round_trip_msg(RtdsMsg::TrialMapping {
            job: JobId(9),
            tasks_per_logical: vec![vec![spec].into(), Vec::new().into()].into(),
        });
        round_trip_msg(RtdsMsg::ValidationReply {
            job: JobId(9),
            endorsable: vec![0, 2],
        });
        round_trip_msg(RtdsMsg::Permutation {
            job: JobId(9),
            endorse: Some((1, vec![spec].into())),
        });
        round_trip_msg(RtdsMsg::Permutation {
            job: JobId(9),
            endorse: None,
        });
        round_trip_msg(RtdsMsg::Unlock { job: JobId(9) });
        round_trip_msg(RtdsMsg::TaskData {
            job: JobId(9),
            volume: 12.5,
        });
    }

    #[test]
    fn graph_round_trip_preserves_labels_volumes_and_edge_order() {
        let mut g = TaskGraph::new();
        let a = g.add_labelled_task(2.0, "src");
        let b = g.add_task(3.5);
        let c = g.add_labelled_task(1.0, "sink");
        g.add_edge_with_volume(a, c, 7.5).unwrap();
        g.add_edge_with_volume(a, b, 0.0).unwrap();
        g.add_edge_with_volume(b, c, 2.25).unwrap();
        let back = decode_graph(&encode_graph(&g), &root()).expect("graph decodes");
        assert_eq!(back, g);
        // Successor-list order is insertion order, preserved verbatim.
        let succ: Vec<TaskId> = back.successors(a).collect();
        assert_eq!(succ, vec![c, b]);
        assert_eq!(back.data_volume(a, c), Some(7.5));
        assert_eq!(back.task(a).label.as_deref(), Some("src"));
        assert_eq!(back.task(b).label, None);
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
    fn sphere_and_plan_round_trip() {
        let sphere = Sphere::new(
            SiteId(2),
            2,
            vec![SiteId(1), SiteId(2), SiteId(4)],
            vec![1.5, 0.0, 2.5],
            4.0,
        );
        let back = Sphere::decode(&sphere.encode(), &root()).expect("sphere decodes");
        assert_eq!(back, sphere);

        let mut plan = SchedulePlan::new();
        plan.insert(Reservation {
            job: JobId(1),
            task: TaskId(0),
            start: 1.0,
            end: 3.0,
        })
        .unwrap();
        plan.insert(Reservation {
            job: JobId(2),
            task: TaskId(1),
            start: 4.0,
            end: 6.5,
        })
        .unwrap();
        let back = decode_plan(&encode_plan(&plan), &root()).expect("plan decodes");
        assert_eq!(back.reservations(), plan.reservations());
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

    #[test]
    fn sched_section_round_trips_through_text() {
        use rtds_sched::Placement;
        let mut sched = SiteScheduler::new(
            SchedulerKind::Heft,
            SiteResources {
                cores: 2,
                speed: 1.5,
                memory: 32.0,
            },
            2.0,
            true,
        );
        sched
            .reserve(&[
                Placement {
                    core: 0,
                    reservation: Reservation {
                        job: JobId(1),
                        task: TaskId(0),
                        start: 0.5,
                        end: 2.5,
                    },
                },
                Placement {
                    core: 1,
                    reservation: Reservation {
                        job: JobId(1),
                        task: TaskId(1),
                        start: 1.0,
                        end: 4.0,
                    },
                },
            ])
            .unwrap();
        sched
            .reserve_dag(&rtds_sched::DagSchedule {
                placements: Vec::new(),
                holds: vec![MemHold {
                    job: JobId(1),
                    start: 0.5,
                    end: 4.0,
                    bytes: 16.0,
                }],
                completion: 4.0,
            })
            .unwrap();
        let doc = encode_sched(&sched);
        let text = doc.render();
        assert!(text.contains(SCHED_SNAPSHOT_SCHEMA));
        let parsed = Json::parse(&text).expect("sched section parses");
        let back = decode_sched(&parsed, &root()).expect("sched section decodes");
        assert_eq!(back, sched);
        // Infinite memory (the default bundle) survives the bit-pattern trip.
        let default = SiteScheduler::new(
            SchedulerKind::Protocol,
            SiteResources::default(),
            1.0,
            false,
        );
        let parsed = Json::parse(&encode_sched(&default).render()).unwrap();
        let back = decode_sched(&parsed, &root()).expect("default sched decodes");
        assert_eq!(back, default);
        assert!(back.resources().memory.is_infinite());
    }

    /// The plan queries rely on the sorted-and-disjoint invariant, so a
    /// snapshot that breaks it must be refused with a typed error — a
    /// hostile document never panics and never yields a plan.
    #[test]
    fn hostile_plan_documents_are_errors_not_panics() {
        let mut plan = SchedulePlan::new();
        for (task, (start, end)) in [(0.0, 2.0), (3.0, 5.0), (5.0, 9.0)].into_iter().enumerate() {
            plan.insert(Reservation {
                job: JobId(4),
                task: TaskId(task),
                start,
                end,
            })
            .unwrap();
        }
        let Json::Array(rows) = encode_plan(&plan) else {
            panic!("a plan encodes as an array");
        };
        assert_eq!(decode_plan(&Json::Array(rows.clone()), &root()), Ok(plan));
        let with_field = |row: usize, field: usize, value: f64| {
            let mut rows = rows.clone();
            let Json::Array(fields) = &mut rows[row] else {
                panic!("a reservation encodes as an array");
            };
            fields[field] = value.encode();
            Json::Array(rows)
        };
        let mut swapped = rows.clone();
        swapped.swap(0, 2);
        let hostile = [
            ("swapped", Json::Array(swapped)),
            ("overlapping", with_field(1, 2, 1.0)),
            ("overrunning", with_field(0, 3, 3.5)),
            ("backwards", with_field(1, 3, 2.0)),
            ("NaN start", with_field(2, 2, f64::NAN)),
            ("infinite end", with_field(2, 3, f64::INFINITY)),
        ];
        for (what, doc) in hostile {
            // Through text, as a snapshot file would arrive.
            let parsed = Json::parse(&doc.render()).expect("still well-formed JSON");
            let refused = decode_plan(&parsed, &root().key("plan")).expect_err(what);
            assert!(
                refused.0.starts_with("snapshot.plan: "),
                "{what}: {refused}"
            );
        }
    }
}
