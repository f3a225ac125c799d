//! A run checkpointed mid-transfer, resumed and then hit by link faults
//! continues exactly like the uninterrupted run. Resuming rebuilds the
//! network as it was built and replays every fault from the start, so the
//! resumed run must take its fault history from the checkpoint: one that
//! lost it would route the transfers that start after the faults over the
//! failed link.

use rtds::core::{RtdsConfig, RtdsSystem, StreamOptions, StreamPause, StreamReport, StreamRun};
use rtds::graph::{Job, JobId, JobParams, TaskGraph, TaskId};
use rtds::net::{Network, SiteId};
use rtds::sim::FaultEvent;

/// Harvests every time unit, so the pause lands close to its time.
const OPTIONS: StreamOptions = StreamOptions {
    harvest_interval: 1.0,
};

/// The pause point: the first fork-join's input data is still on the wire, and
/// every fault is still to come.
const PAUSE_AT: f64 = 20.0;

/// A fork-join job at site 0: three 10-unit members each fed 2 units of
/// data by the fork and sending 2 units to the join.
fn fork_join(id: u64, release: f64) -> Job {
    let mut g = TaskGraph::from_costs(&[1.0, 10.0, 10.0, 10.0, 1.0]);
    for mid in 1..=3 {
        g.add_edge_with_volume(TaskId(0), TaskId(mid), 2.0).unwrap();
        g.add_edge_with_volume(TaskId(mid), TaskId(4), 2.0).unwrap();
    }
    Job::new(JobId(id), g, JobParams::new(release, release + 55.0), 0)
}

/// A long job that keeps site 0 busy, then two fork-joins there — one
/// whose input data is moving at the pause and one released after the
/// faults — which site 0 cannot guarantee alone and distributes over the
/// ring. A short job at site 3 arrives at the pause: the stream harvests
/// at arrivals, so without one it would run on to the next fork-join.
fn jobs() -> std::vec::IntoIter<Job> {
    let single = |id, cost, release, deadline, site| {
        let graph = TaskGraph::from_costs(&[cost]);
        Job::new(JobId(id), graph, JobParams::new(release, deadline), site)
    };
    let preload = single(1, 60.0, 0.0, 70.0, 0);
    let short = single(3, 1.0, PAUSE_AT, PAUSE_AT + 20.0, 3);
    vec![preload, fork_join(2, 0.0), short, fork_join(4, 30.0)].into_iter()
}

/// The ring 0 — 1 — 2 — 3 — 0, unit bandwidths, delay 2 on 3 — 0 and 1
/// elsewhere, with transfers moving through the flow plane. With `faults`,
/// after the pause: three delay faults on 3 — 0 that change nothing but the
/// network's version, then 1 — 2 fails until t = 40, so transfers between
/// sites 0 and 2 must go round by 3.
fn system(faults: bool) -> RtdsSystem {
    let mut net = Network::new(4);
    for (a, b, delay) in [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 2.0)] {
        net.add_link_with_bandwidth(SiteId(a), SiteId(b), delay, 1.0)
            .unwrap();
    }
    let config = RtdsConfig {
        data_volume_aware: true,
        flow_transfers: true,
        ..RtdsConfig::default()
    };
    let mut system = RtdsSystem::new(net, config, 1);
    if faults {
        let (a, b) = (SiteId(3), SiteId(0));
        for time in [25.0, 25.1, 25.2] {
            system.schedule_fault(time, FaultEvent::SetLinkDelay { a, b, delay: 2.0 });
        }
        let (a, b) = (SiteId(1), SiteId(2));
        system.schedule_fault(25.5, FaultEvent::LinkDown { a, b });
        system.schedule_fault(40.0, FaultEvent::LinkUp { a, b });
    }
    system
}

fn uninterrupted(faults: bool) -> StreamReport {
    system(faults).run_streaming(&mut jobs(), &OPTIONS)
}

#[test]
fn a_restored_run_routes_like_the_uninterrupted_one_after_link_faults() {
    let full = uninterrupted(true);
    assert_eq!(full.guarantee.submitted, 4);
    let flows = full.stats.named("sim_flow_finished");
    assert!(flows > 0, "input data must travel as flows");
    assert_eq!(full.stats.named("sim_flow_started"), flows);
    assert_eq!(full.guarantee.accepted_distributed, 2);
    // The link faults change the run: without them it ends at another time.
    let clean = uninterrupted(false);
    assert_ne!(
        full.finished_at, clean.finished_at,
        "the faults must matter"
    );

    let mut paused = system(true);
    let pause = StreamPause::AtTime(PAUSE_AT);
    let text = match paused.run_streaming_checkpoint(&mut jobs(), &OPTIONS, &pause) {
        StreamRun::Paused(text) => text,
        StreamRun::Finished(_) => panic!("the run must pause before draining"),
    };
    for part in ["\"faults\": [\n", "\"link_down\""] {
        assert!(text.contains(part), "the checkpoint lacks {part}");
    }
    // The same run capped at the paused run's event count stops where the
    // pause did: a flow it started and did not finish was in flight there,
    // and no fault had fired yet.
    let mut capped = system(true);
    capped.set_max_events(paused.events_processed());
    let at_pause = capped.run_streaming(&mut jobs(), &OPTIONS);
    assert_eq!(at_pause.events_processed, paused.events_processed());
    assert!(
        at_pause.finished_at < 25.0,
        "the pause must precede the faults"
    );
    let in_flight =
        at_pause.stats.named("sim_flow_started") - at_pause.stats.named("sim_flow_finished");
    assert!(in_flight > 0, "the pause must land mid-transfer");

    let resumed = RtdsSystem::resume_streaming(&text, &mut jobs()).expect("checkpoint resumes");
    assert_eq!(resumed, full);
}
