//! System-level snapshot/restore (`rtds-system-snapshot/1`).
//!
//! The engine snapshot of [`rtds_sim::snapshot`] captures the clock, queue,
//! faults, topology and statistics, but treats protocol node state and wire
//! messages as opaque domain values behind codec closures. This module
//! provides those codecs for the RTDS protocol — every leaf type that
//! appears in an [`crate::node::RtdsNode`] or an [`crate::messages::RtdsMsg`]
//! — plus the document layout of [`crate::system::RtdsSystem::checkpoint`]
//! and the streaming-run checkpoint of
//! [`crate::system::RtdsSystem::run_streaming_checkpoint`].
//!
//! Conventions follow the engine layer: every `f64` is stored as its
//! IEEE-754 bit pattern (restore is exact by construction), arrays are used
//! for fixed-shape records, and decode errors carry the field path that
//! failed. The per-struct `encode_snapshot`/`decode_snapshot` methods live
//! inside their owning modules (`pcs`, `acs`, `validate`, `node`,
//! `streaming`) because they read private fields; this module holds only
//! the shared leaf codecs.

use crate::config::{DemandRule, LaxityDispatch, RtdsConfig};
use crate::messages::{RtdsMsg, TaskSpec};
use crate::node::AcceptedJob;
use rtds_graph::{EdgeData, Job, JobId, JobParams, Task, TaskGraph, TaskId};
use rtds_net::routing::RouteEntry;
use rtds_net::sphere::Sphere;
use rtds_net::SiteId;
use rtds_sched::{
    MemHold, Reservation, SchedulePlan, Scheduler, SchedulerKind, SiteResources, SiteScheduler,
};
use rtds_sim::json::Json;
use rtds_sim::snapshot::{
    as_items, as_str, as_u64, f64_bits, f64_from_bits, get, get_bool, get_f64, get_items, get_u64,
};
use rtds_sim::stats::GuaranteeStats;
use std::sync::Arc;

pub use rtds_sim::snapshot::SnapshotError;

/// Schema tag of the batch-system snapshot format.
pub const SYSTEM_SNAPSHOT_SCHEMA: &str = "rtds-system-snapshot/1";

/// Schema tag of the streaming-run checkpoint format (wraps a system
/// snapshot plus the harvest-loop state).
pub const STREAM_SNAPSHOT_SCHEMA: &str = "rtds-stream-snapshot/1";

/// Schema tag of the per-site scheduler section inside node snapshots
/// (policy kind, resource bundle, per-core plans, memory holds).
pub const SCHED_SNAPSHOT_SCHEMA: &str = "rtds-sched-snapshot/1";

fn err(message: impl Into<String>) -> SnapshotError {
    SnapshotError(message.into())
}

// ----- primitives ----------------------------------------------------------

pub(crate) fn encode_site(s: SiteId) -> Json {
    Json::UInt(s.0 as u64)
}

pub(crate) fn decode_site(j: &Json, what: &str) -> Result<SiteId, SnapshotError> {
    Ok(SiteId(as_u64(j, what)? as usize))
}

pub(crate) fn encode_job_id(j: JobId) -> Json {
    Json::UInt(j.0)
}

pub(crate) fn decode_job_id(j: &Json, what: &str) -> Result<JobId, SnapshotError> {
    Ok(JobId(as_u64(j, what)?))
}

// ----- routing -------------------------------------------------------------

/// One route line as `[destination, distance, next_hop | null, hops]`.
pub(crate) fn encode_route_entry(e: &RouteEntry) -> Json {
    Json::Array(vec![
        encode_site(e.destination),
        f64_bits(e.distance),
        match e.next_hop {
            Some(h) => encode_site(h),
            None => Json::Null,
        },
        Json::UInt(e.hops as u64),
    ])
}

pub(crate) fn decode_route_entry(j: &Json) -> Result<RouteEntry, SnapshotError> {
    let fields = as_items(j, "route entry")?;
    if fields.len() != 4 {
        return Err(err("route entry: expected [dest, dist, next_hop, hops]"));
    }
    Ok(RouteEntry {
        destination: decode_site(&fields[0], "route destination")?,
        distance: f64_from_bits(&fields[1], "route distance")?,
        next_hop: match &fields[2] {
            Json::Null => None,
            other => Some(decode_site(other, "route next hop")?),
        },
        hops: as_u64(&fields[3], "route hops")? as usize,
    })
}

pub(crate) fn encode_route_lines(lines: &[RouteEntry]) -> Json {
    Json::Array(lines.iter().map(encode_route_entry).collect())
}

pub(crate) fn decode_route_lines(j: &Json, what: &str) -> Result<Vec<RouteEntry>, SnapshotError> {
    as_items(j, what)?.iter().map(decode_route_entry).collect()
}

// ----- spheres -------------------------------------------------------------

pub(crate) fn encode_sphere(s: &Sphere) -> Json {
    Json::object(vec![
        ("center", encode_site(s.center)),
        ("radius", Json::UInt(s.radius as u64)),
        (
            "members",
            Json::Array(s.members.iter().map(|&m| encode_site(m)).collect()),
        ),
        (
            "delays",
            Json::Array(s.delays.iter().map(|&d| f64_bits(d)).collect()),
        ),
        ("delay_diameter", f64_bits(s.delay_diameter)),
    ])
}

pub(crate) fn decode_sphere(doc: &Json) -> Result<Sphere, SnapshotError> {
    let members = get_items(doc, "members")?
        .iter()
        .map(|m| decode_site(m, "sphere member"))
        .collect::<Result<Vec<SiteId>, SnapshotError>>()?;
    let delays = get_items(doc, "delays")?
        .iter()
        .map(|d| f64_from_bits(d, "sphere delay"))
        .collect::<Result<Vec<f64>, SnapshotError>>()?;
    if members.len() != delays.len() {
        return Err(err("sphere: members/delays length mismatch"));
    }
    Ok(Sphere::new(
        decode_site(get(doc, "center")?, "sphere center")?,
        get_u64(doc, "radius")? as usize,
        members,
        delays,
        get_f64(doc, "delay_diameter")?,
    ))
}

// ----- task graphs and jobs ------------------------------------------------

/// One adjacency list as `[[task, volume], …]` in insertion order.
fn encode_adjacency(lists: &[Vec<(TaskId, EdgeData)>]) -> Json {
    Json::Array(
        lists
            .iter()
            .map(|list| {
                Json::Array(
                    list.iter()
                        .map(|(t, data)| {
                            Json::Array(vec![Json::UInt(t.0 as u64), f64_bits(data.data_volume)])
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

fn decode_adjacency(doc: &Json, what: &str) -> Result<Vec<Vec<(TaskId, EdgeData)>>, SnapshotError> {
    as_items(doc, what)?
        .iter()
        .map(|list| {
            as_items(list, what)?
                .iter()
                .map(|entry| {
                    let pair = as_items(entry, what)?;
                    if pair.len() != 2 {
                        return Err(err(format!("{what}: expected [task, volume]")));
                    }
                    Ok((
                        TaskId(as_u64(&pair[0], what)? as usize),
                        EdgeData {
                            data_volume: f64_from_bits(&pair[1], what)?,
                        },
                    ))
                })
                .collect()
        })
        .collect()
}

/// A task graph as `{tasks: [[cost, label | null], …], succs: …, preds: …}`.
/// Both adjacency views are stored verbatim: their per-list insertion
/// orders are semantic (mapper tie-breaking and message fan-out follow
/// them) and interleave differently when the generator added edges out of
/// source-major order, so neither can be re-derived from the other.
pub(crate) fn encode_graph(g: &TaskGraph) -> Json {
    let tasks: Vec<Json> = g
        .tasks()
        .map(|t| {
            Json::Array(vec![
                f64_bits(t.cost),
                match &t.label {
                    Some(l) => Json::str(l),
                    None => Json::Null,
                },
            ])
        })
        .collect();
    let (succs, preds) = g.raw_adjacency();
    Json::object(vec![
        ("tasks", Json::Array(tasks)),
        ("succs", encode_adjacency(succs)),
        ("preds", encode_adjacency(preds)),
    ])
}

pub(crate) fn decode_graph(doc: &Json) -> Result<TaskGraph, SnapshotError> {
    let mut tasks = Vec::new();
    for task in get_items(doc, "tasks")? {
        let fields = as_items(task, "graph task")?;
        if fields.len() != 2 {
            return Err(err("graph task: expected [cost, label]"));
        }
        tasks.push(Task {
            id: TaskId(tasks.len()),
            cost: f64_from_bits(&fields[0], "task cost")?,
            label: match &fields[1] {
                Json::Null => None,
                other => Some(as_str(other, "task label")?.to_string()),
            },
        });
    }
    let succs = decode_adjacency(get(doc, "succs")?, "graph succs")?;
    let preds = decode_adjacency(get(doc, "preds")?, "graph preds")?;
    if succs.len() != tasks.len() || preds.len() != tasks.len() {
        return Err(err("graph adjacency length does not match task count"));
    }
    Ok(TaskGraph::from_raw_parts(tasks, succs, preds))
}

pub(crate) fn encode_job(job: &Job) -> Json {
    Json::object(vec![
        ("id", encode_job_id(job.id)),
        ("graph", encode_graph(&job.graph)),
        ("release", f64_bits(job.params.release)),
        ("deadline", f64_bits(job.params.deadline)),
        ("site", Json::UInt(job.arrival_site as u64)),
        ("arrival", f64_bits(job.arrival_time)),
    ])
}

pub(crate) fn decode_job(doc: &Json) -> Result<Job, SnapshotError> {
    Ok(Job {
        id: decode_job_id(get(doc, "id")?, "job id")?,
        graph: decode_graph(get(doc, "graph")?)?,
        params: JobParams {
            release: get_f64(doc, "release")?,
            deadline: get_f64(doc, "deadline")?,
        },
        arrival_site: get_u64(doc, "site")? as usize,
        arrival_time: get_f64(doc, "arrival")?,
    })
}

// ----- task specs ----------------------------------------------------------

/// A task spec as `[task, release, deadline, cost]`.
pub(crate) fn encode_task_spec(s: &TaskSpec) -> Json {
    Json::Array(vec![
        Json::UInt(s.task.0 as u64),
        f64_bits(s.release),
        f64_bits(s.deadline),
        f64_bits(s.cost),
    ])
}

pub(crate) fn decode_task_spec(j: &Json) -> Result<TaskSpec, SnapshotError> {
    let fields = as_items(j, "task spec")?;
    if fields.len() != 4 {
        return Err(err("task spec: expected [task, release, deadline, cost]"));
    }
    Ok(TaskSpec {
        task: TaskId(as_u64(&fields[0], "spec task")? as usize),
        release: f64_from_bits(&fields[1], "spec release")?,
        deadline: f64_from_bits(&fields[2], "spec deadline")?,
        cost: f64_from_bits(&fields[3], "spec cost")?,
    })
}

pub(crate) fn encode_tasks_per_logical(tpl: &[Vec<TaskSpec>]) -> Json {
    Json::Array(
        tpl.iter()
            .map(|specs| Json::Array(specs.iter().map(encode_task_spec).collect()))
            .collect(),
    )
}

pub(crate) fn decode_tasks_per_logical(
    j: &Json,
    what: &str,
) -> Result<Arc<[Vec<TaskSpec>]>, SnapshotError> {
    as_items(j, what)?
        .iter()
        .map(|specs| {
            as_items(specs, "logical task set")?
                .iter()
                .map(decode_task_spec)
                .collect::<Result<Vec<TaskSpec>, SnapshotError>>()
        })
        .collect::<Result<Vec<Vec<TaskSpec>>, SnapshotError>>()
        .map(Arc::from)
}

// ----- wire messages -------------------------------------------------------

/// An [`RtdsMsg`] as a `{"k": kind, …}` object. Kinds are two-letter codes
/// so queued-event payloads stay compact in million-event snapshots.
pub(crate) fn encode_msg(msg: &RtdsMsg) -> Json {
    match msg {
        RtdsMsg::RoutingUpdate { phase, lines } => Json::object(vec![
            ("k", Json::str("ru")),
            ("phase", Json::UInt(*phase as u64)),
            ("lines", encode_route_lines(lines)),
        ]),
        RtdsMsg::JobArrival { job } => {
            Json::object(vec![("k", Json::str("ja")), ("job", encode_job(job))])
        }
        RtdsMsg::Enroll { initiator, job } => Json::object(vec![
            ("k", Json::str("en")),
            ("initiator", encode_site(*initiator)),
            ("job", encode_job_id(*job)),
        ]),
        RtdsMsg::EnrollAck {
            job,
            surplus,
            speed,
        } => Json::object(vec![
            ("k", Json::str("ea")),
            ("job", encode_job_id(*job)),
            ("surplus", f64_bits(*surplus)),
            ("speed", f64_bits(*speed)),
        ]),
        RtdsMsg::EnrollBusy { job } => {
            Json::object(vec![("k", Json::str("eb")), ("job", encode_job_id(*job))])
        }
        RtdsMsg::TrialMapping {
            job,
            tasks_per_logical,
        } => Json::object(vec![
            ("k", Json::str("tm")),
            ("job", encode_job_id(*job)),
            ("tpl", encode_tasks_per_logical(tasks_per_logical)),
        ]),
        RtdsMsg::ValidationReply { job, endorsable } => Json::object(vec![
            ("k", Json::str("vr")),
            ("job", encode_job_id(*job)),
            (
                "endorsable",
                Json::Array(endorsable.iter().map(|&i| Json::UInt(i as u64)).collect()),
            ),
        ]),
        RtdsMsg::Permutation {
            job,
            logical,
            tasks,
        } => Json::object(vec![
            ("k", Json::str("pm")),
            ("job", encode_job_id(*job)),
            (
                "logical",
                match logical {
                    Some(l) => Json::UInt(*l as u64),
                    None => Json::Null,
                },
            ),
            (
                "tasks",
                Json::Array(tasks.iter().map(encode_task_spec).collect()),
            ),
        ]),
        RtdsMsg::Unlock { job } => {
            Json::object(vec![("k", Json::str("ul")), ("job", encode_job_id(*job))])
        }
        RtdsMsg::TaskData { job, volume } => Json::object(vec![
            ("k", Json::str("td")),
            ("job", encode_job_id(*job)),
            ("vol", f64_bits(*volume)),
        ]),
    }
}

/// Inverse of [`encode_msg`].
pub(crate) fn decode_msg(doc: &Json) -> Result<RtdsMsg, SnapshotError> {
    let job = |key: &str| -> Result<JobId, SnapshotError> {
        decode_job_id(get(doc, key)?, "message job id")
    };
    match as_str(get(doc, "k")?, "message kind")? {
        "ru" => Ok(RtdsMsg::RoutingUpdate {
            phase: get_u64(doc, "phase")? as usize,
            lines: decode_route_lines(get(doc, "lines")?, "routing lines")?.into(),
        }),
        "ja" => Ok(RtdsMsg::JobArrival {
            job: decode_job(get(doc, "job")?)?,
        }),
        "en" => Ok(RtdsMsg::Enroll {
            initiator: decode_site(get(doc, "initiator")?, "enroll initiator")?,
            job: job("job")?,
        }),
        "ea" => Ok(RtdsMsg::EnrollAck {
            job: job("job")?,
            surplus: get_f64(doc, "surplus")?,
            speed: get_f64(doc, "speed")?,
        }),
        "eb" => Ok(RtdsMsg::EnrollBusy { job: job("job")? }),
        "tm" => Ok(RtdsMsg::TrialMapping {
            job: job("job")?,
            tasks_per_logical: decode_tasks_per_logical(get(doc, "tpl")?, "tpl")?,
        }),
        "vr" => Ok(RtdsMsg::ValidationReply {
            job: job("job")?,
            endorsable: get_items(doc, "endorsable")?
                .iter()
                .map(|i| Ok(as_u64(i, "endorsable index")? as usize))
                .collect::<Result<Vec<usize>, SnapshotError>>()?,
        }),
        "pm" => Ok(RtdsMsg::Permutation {
            job: job("job")?,
            logical: match get(doc, "logical")? {
                Json::Null => None,
                other => Some(as_u64(other, "permutation logical")? as usize),
            },
            tasks: get_items(doc, "tasks")?
                .iter()
                .map(decode_task_spec)
                .collect::<Result<Vec<TaskSpec>, SnapshotError>>()?,
        }),
        "ul" => Ok(RtdsMsg::Unlock { job: job("job")? }),
        "td" => Ok(RtdsMsg::TaskData {
            job: job("job")?,
            volume: f64_from_bits(get(doc, "vol")?, "task data volume")?,
        }),
        other => Err(err(format!("unknown message kind {other:?}"))),
    }
}

// ----- configuration -------------------------------------------------------

pub(crate) fn encode_config(c: &RtdsConfig) -> Json {
    Json::object(vec![
        ("sphere_radius", Json::UInt(c.sphere_radius as u64)),
        ("observation_window", f64_bits(c.observation_window)),
        ("max_acs_size", Json::UInt(c.max_acs_size as u64)),
        ("preemptive", Json::Bool(c.preemptive)),
        ("uniform_machines", Json::Bool(c.uniform_machines)),
        (
            "laxity_dispatch",
            Json::str(match c.laxity_dispatch {
                LaxityDispatch::Uniform => "uniform",
                LaxityDispatch::BusynessWeighted => "busyness",
            }),
        ),
        ("data_volume_aware", Json::Bool(c.data_volume_aware)),
        ("throughput", f64_bits(c.throughput)),
        ("surplus_floor", f64_bits(c.surplus_floor)),
        ("exact_acs_diameter", Json::Bool(c.exact_acs_diameter)),
        ("flow_transfers", Json::Bool(c.flow_transfers)),
        ("scheduler", Json::str(c.scheduler.name())),
        (
            "demand",
            match c.demand {
                DemandRule::SingleCore => Json::Null,
                DemandRule::WideTasks {
                    cores,
                    parallel_fraction,
                    memory,
                } => Json::Array(vec![
                    Json::UInt(cores as u64),
                    f64_bits(parallel_fraction),
                    f64_bits(memory),
                ]),
            },
        ),
    ])
}

pub(crate) fn decode_config(doc: &Json) -> Result<RtdsConfig, SnapshotError> {
    Ok(RtdsConfig {
        sphere_radius: get_u64(doc, "sphere_radius")? as usize,
        observation_window: get_f64(doc, "observation_window")?,
        max_acs_size: get_u64(doc, "max_acs_size")? as usize,
        preemptive: get_bool(doc, "preemptive")?,
        uniform_machines: get_bool(doc, "uniform_machines")?,
        laxity_dispatch: match as_str(get(doc, "laxity_dispatch")?, "laxity_dispatch")? {
            "uniform" => LaxityDispatch::Uniform,
            "busyness" => LaxityDispatch::BusynessWeighted,
            other => return Err(err(format!("unknown laxity dispatch {other:?}"))),
        },
        data_volume_aware: get_bool(doc, "data_volume_aware")?,
        throughput: get_f64(doc, "throughput")?,
        surplus_floor: get_f64(doc, "surplus_floor")?,
        exact_acs_diameter: get_bool(doc, "exact_acs_diameter")?,
        // Absent in snapshots taken before the flow plane existed: those
        // runs could not have transfers in flight, so `false` is exact.
        flow_transfers: if get(doc, "flow_transfers").is_ok() {
            get_bool(doc, "flow_transfers")?
        } else {
            false
        },
        // Absent in snapshots taken before the multicore model: those runs
        // used the protocol scheduler with single-core demands.
        scheduler: if let Ok(j) = get(doc, "scheduler") {
            let name = as_str(j, "scheduler")?;
            SchedulerKind::parse(name)
                .ok_or_else(|| err(format!("unknown scheduler kind {name:?}")))?
        } else {
            SchedulerKind::Protocol
        },
        demand: match get(doc, "demand") {
            Ok(Json::Null) | Err(_) => DemandRule::SingleCore,
            Ok(j) => {
                let fields = as_items(j, "demand")?;
                if fields.len() != 3 {
                    return Err(err("demand: expected [cores, parallel_fraction, memory]"));
                }
                DemandRule::WideTasks {
                    cores: as_u64(&fields[0], "demand cores")? as usize,
                    parallel_fraction: f64_from_bits(&fields[1], "demand parallel_fraction")?,
                    memory: f64_from_bits(&fields[2], "demand memory")?,
                }
            }
        },
    })
}

// ----- guarantee counters --------------------------------------------------

pub(crate) fn encode_guarantee(g: &GuaranteeStats) -> Json {
    Json::Array(vec![
        Json::UInt(g.submitted),
        Json::UInt(g.accepted_locally),
        Json::UInt(g.accepted_distributed),
        Json::UInt(g.rejected),
        Json::UInt(g.completed_on_time),
        Json::UInt(g.deadline_misses),
    ])
}

pub(crate) fn decode_guarantee(j: &Json) -> Result<GuaranteeStats, SnapshotError> {
    let fields = as_items(j, "guarantee counters")?;
    if fields.len() != 6 {
        return Err(err("guarantee counters: expected 6 entries"));
    }
    let n = |i: usize| as_u64(&fields[i], "guarantee counter");
    Ok(GuaranteeStats {
        submitted: n(0)?,
        accepted_locally: n(1)?,
        accepted_distributed: n(2)?,
        rejected: n(3)?,
        completed_on_time: n(4)?,
        deadline_misses: n(5)?,
    })
}

// ----- schedule plans ------------------------------------------------------

/// A plan as the sorted reservation list `[[job, task, start, end], …]`.
pub(crate) fn encode_plan(plan: &SchedulePlan) -> Json {
    Json::Array(
        plan.reservations()
            .iter()
            .map(|r| {
                Json::Array(vec![
                    encode_job_id(r.job),
                    Json::UInt(r.task.0 as u64),
                    f64_bits(r.start),
                    f64_bits(r.end),
                ])
            })
            .collect(),
    )
}

pub(crate) fn decode_plan(j: &Json, what: &str) -> Result<SchedulePlan, SnapshotError> {
    let reservations = as_items(j, what)?
        .iter()
        .map(|r| {
            let fields = as_items(r, "reservation")?;
            if fields.len() != 4 {
                return Err(err("reservation: expected [job, task, start, end]"));
            }
            Ok(Reservation {
                job: decode_job_id(&fields[0], "reservation job")?,
                task: TaskId(as_u64(&fields[1], "reservation task")? as usize),
                start: f64_from_bits(&fields[2], "reservation start")?,
                end: f64_from_bits(&fields[3], "reservation end")?,
            })
        })
        .collect::<Result<Vec<Reservation>, SnapshotError>>()?;
    SchedulePlan::from_reservations(reservations).map_err(|e| err(format!("{what}: {e}")))
}

// ----- site scheduler (`rtds-sched-snapshot/1`) ----------------------------

/// The full per-site scheduler state: policy kind, resource bundle, base
/// speed, per-core plans and committed memory holds.
pub(crate) fn encode_sched(s: &SiteScheduler) -> Json {
    let (base_speed, preemptive, holds) = s.snapshot_parts();
    let resources = s.resources();
    Json::object(vec![
        ("schema", Json::str(SCHED_SNAPSHOT_SCHEMA)),
        ("kind", Json::str(s.kind().name())),
        ("cores", Json::UInt(resources.cores as u64)),
        ("speed", f64_bits(resources.speed)),
        ("memory", f64_bits(resources.memory)),
        ("base_speed", f64_bits(base_speed)),
        ("preemptive", Json::Bool(preemptive)),
        (
            "plans",
            Json::Array(s.core_plans().iter().map(encode_plan).collect()),
        ),
        (
            "holds",
            Json::Array(
                holds
                    .iter()
                    .map(|h| {
                        Json::Array(vec![
                            encode_job_id(h.job),
                            f64_bits(h.start),
                            f64_bits(h.end),
                            f64_bits(h.bytes),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub(crate) fn decode_sched(doc: &Json) -> Result<SiteScheduler, SnapshotError> {
    let schema = as_str(get(doc, "schema")?, "sched schema")?;
    if schema != SCHED_SNAPSHOT_SCHEMA {
        return Err(err(format!(
            "unsupported scheduler snapshot schema {schema:?} (expected {SCHED_SNAPSHOT_SCHEMA:?})"
        )));
    }
    let kind_name = as_str(get(doc, "kind")?, "sched kind")?;
    let kind = SchedulerKind::parse(kind_name)
        .ok_or_else(|| err(format!("unknown scheduler kind {kind_name:?}")))?;
    let resources = SiteResources {
        cores: get_u64(doc, "cores")? as usize,
        speed: get_f64(doc, "speed")?,
        memory: get_f64(doc, "memory")?,
    };
    let plans = get_items(doc, "plans")?
        .iter()
        .map(|p| decode_plan(p, "core plan"))
        .collect::<Result<Vec<SchedulePlan>, SnapshotError>>()?;
    if plans.len() != resources.cores {
        return Err(err(format!(
            "scheduler snapshot has {} plans for {} cores",
            plans.len(),
            resources.cores
        )));
    }
    let holds = get_items(doc, "holds")?
        .iter()
        .map(|h| {
            let fields = as_items(h, "memory hold")?;
            if fields.len() != 4 {
                return Err(err("memory hold: expected [job, start, end, bytes]"));
            }
            Ok(MemHold {
                job: decode_job_id(&fields[0], "hold job")?,
                start: f64_from_bits(&fields[1], "hold start")?,
                end: f64_from_bits(&fields[2], "hold end")?,
                bytes: f64_from_bits(&fields[3], "hold bytes")?,
            })
        })
        .collect::<Result<Vec<MemHold>, SnapshotError>>()?;
    Ok(SiteScheduler::from_parts(
        kind,
        resources,
        get_f64(doc, "base_speed")?,
        get_bool(doc, "preemptive")?,
        plans,
        holds,
    ))
}

// ----- accepted jobs -------------------------------------------------------

pub(crate) fn encode_accepted(a: &AcceptedJob) -> Json {
    Json::Array(vec![
        encode_job_id(a.job),
        f64_bits(a.deadline),
        Json::Bool(a.distributed),
    ])
}

pub(crate) fn decode_accepted(j: &Json) -> Result<AcceptedJob, SnapshotError> {
    let fields = as_items(j, "accepted job")?;
    if fields.len() != 3 {
        return Err(err("accepted job: expected [job, deadline, distributed]"));
    }
    Ok(AcceptedJob {
        job: decode_job_id(&fields[0], "accepted job id")?,
        deadline: f64_from_bits(&fields[1], "accepted deadline")?,
        distributed: match &fields[2] {
            Json::Bool(b) => *b,
            _ => return Err(err("accepted distributed: expected bool")),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_graph::generators::{DagGenerator, GeneratorConfig};

    fn round_trip_msg(msg: RtdsMsg) {
        let doc = encode_msg(&msg);
        let text = doc.render();
        let parsed = Json::parse(&text).expect("message doc parses");
        let back = decode_msg(&parsed).expect("message decodes");
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
            tasks_per_logical: vec![vec![spec], vec![]].into(),
        });
        round_trip_msg(RtdsMsg::ValidationReply {
            job: JobId(9),
            endorsable: vec![0, 2],
        });
        round_trip_msg(RtdsMsg::Permutation {
            job: JobId(9),
            logical: Some(1),
            tasks: vec![spec],
        });
        round_trip_msg(RtdsMsg::Permutation {
            job: JobId(9),
            logical: None,
            tasks: vec![],
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
        let back = decode_graph(&encode_graph(&g)).expect("graph decodes");
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
            let back = decode_config(&encode_config(&config)).expect("config decodes");
            assert_eq!(back, config);
        }
        let config = RtdsConfig {
            data_volume_aware: true,
            flow_transfers: true,
            ..RtdsConfig::default()
        };
        let back = decode_config(&encode_config(&config)).expect("config decodes");
        assert_eq!(back, config);
    }

    #[test]
    fn pre_flow_configs_decode_with_flow_transfers_off() {
        // Snapshots taken before the flow plane existed have no
        // `flow_transfers` key; they decode to the exact pre-flow behavior.
        let mut doc = encode_config(&RtdsConfig::default());
        if let Json::Object(fields) = &mut doc {
            fields.retain(|(k, _)| *k != "flow_transfers");
        }
        let text = doc.render();
        let parsed = Json::parse(&text).expect("legacy config parses");
        let back = decode_config(&parsed).expect("legacy config decodes");
        assert!(!back.flow_transfers);
        assert_eq!(back, RtdsConfig::default());
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
        let back = decode_sphere(&encode_sphere(&sphere)).expect("sphere decodes");
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
        let back = decode_plan(&encode_plan(&plan), "plan").expect("plan decodes");
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
        let back = decode_config(&encode_config(&config)).expect("config decodes");
        assert_eq!(back, config);
    }

    #[test]
    fn pre_multicore_configs_decode_with_protocol_scheduler() {
        // Snapshots taken before the multicore model have neither key; they
        // decode to the exact pre-multicore behavior.
        let mut doc = encode_config(&RtdsConfig::default());
        if let Json::Object(fields) = &mut doc {
            fields.retain(|(k, _)| *k != "scheduler" && *k != "demand");
        }
        let text = doc.render();
        let parsed = Json::parse(&text).expect("legacy config parses");
        let back = decode_config(&parsed).expect("legacy config decodes");
        assert_eq!(back.scheduler, SchedulerKind::Protocol);
        assert_eq!(back.demand, DemandRule::SingleCore);
        assert_eq!(back, RtdsConfig::default());
    }

    #[test]
    fn sched_section_round_trips_through_text() {
        use rtds_sched::Placement;
        let mut sched = SiteScheduler::new(
            SchedulerKind::Lookahead,
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
        let back = decode_sched(&parsed).expect("sched section decodes");
        assert_eq!(back, sched);
        // Infinite memory (the default bundle) survives the bit-pattern trip.
        let default = SiteScheduler::new(
            SchedulerKind::Protocol,
            SiteResources::default(),
            1.0,
            false,
        );
        let back = decode_sched(&Json::parse(&encode_sched(&default).render()).unwrap())
            .expect("default sched decodes");
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
        assert_eq!(decode_plan(&Json::Array(rows.clone()), "plan"), Ok(plan));
        let with_field = |row: usize, field: usize, value: f64| {
            let mut rows = rows.clone();
            let Json::Array(fields) = &mut rows[row] else {
                panic!("a reservation encodes as an array");
            };
            fields[field] = f64_bits(value);
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
            let refused = decode_plan(&parsed, "core plan").expect_err(what);
            assert!(
                refused.to_string().contains("core plan"),
                "{what}: {refused}"
            );
        }
    }
}
