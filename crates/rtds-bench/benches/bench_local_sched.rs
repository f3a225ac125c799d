//! Criterion bench: the §5 local admission test and the §10 satisfiability
//! test against plans of increasing occupancy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rtds_graph::generators::{CostDistribution, DagGenerator, DagShape, GeneratorConfig};
use rtds_graph::{JobId, TaskId};
use rtds_sched::{
    Reservation, SchedulePlan, Scheduler, SchedulerKind, SiteResources, SiteScheduler, TaskRequest,
};
use std::hint::black_box;

/// The paper's site — one protocol-scheduled unit-speed core — holding
/// `reservations` committed slots.
fn loaded_site(reservations: usize) -> SiteScheduler {
    let mut plan = SchedulePlan::new();
    for i in 0..reservations {
        let start = i as f64 * 20.0;
        plan.insert(Reservation {
            job: JobId(1000 + i as u64),
            task: TaskId(0),
            start,
            end: start + 12.0,
        })
        .unwrap();
    }
    SiteScheduler::from_parts(
        SchedulerKind::Protocol,
        SiteResources::default(),
        1.0,
        false,
        vec![plan],
        vec![],
    )
    .expect("a valid one-core site")
}

fn bench_local_sched(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_sched");
    for &existing in &[0usize, 20, 100, 500] {
        let site = loaded_site(existing);
        let cfg = GeneratorConfig {
            task_count: 12,
            shape: DagShape::LayeredRandom {
                layers: 3,
                edge_prob: 0.3,
            },
            costs: CostDistribution::Uniform { min: 1.0, max: 6.0 },
            ccr: 0.0,
            laxity_factor: (3.0, 3.0),
        };
        let job = DagGenerator::new(cfg, 5).generate_job(0, 0.0);
        // Rate unit: tasks placed (or probed) per second against the plan.
        group.throughput(Throughput::Elements(cfg.task_count as u64));
        group.bench_with_input(
            BenchmarkId::new("admit_dag", existing),
            &(site.clone(), job.clone()),
            |b, (site, job)| b.iter(|| black_box(site.admit_dag(job, 0.0, None))),
        );
        let requests: Vec<TaskRequest> = (0..10)
            .map(|i| TaskRequest {
                job: JobId(5),
                task: TaskId(i),
                release: i as f64 * 5.0,
                deadline: i as f64 * 5.0 + 400.0,
                duration: 4.0,
            })
            .collect();
        group.throughput(Throughput::Elements(10));
        group.bench_with_input(
            BenchmarkId::new("satisfiable", existing),
            &(site, requests),
            |b, (site, requests)| b.iter(|| black_box(site.satisfiable(requests))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_local_sched);
criterion_main!(benches);
