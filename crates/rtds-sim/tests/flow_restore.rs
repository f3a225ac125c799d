//! A checkpoint taken mid-transfer, restored and then hit by link faults
//! continues exactly like the uninterrupted run. The restored network's
//! mutation version restarts at 0, so after four faults it reads the very
//! version the checkpointed run had routed its first transfer at, over a
//! different topology: routes carried across the restore and keyed only by
//! version would send the next transfer down the failed link.

use rtds_net::{Network, SiteId};
use rtds_sim::json::Json;
use rtds_sim::snapshot::Path;
use rtds_sim::{Context, FaultEvent, Protocol, Simulator, Snap, SnapshotError};

/// An external kick `v` moves `v` units to site 2; every delivered
/// transfer is recorded with its source, volume and arrival time bits.
#[derive(Debug, Default, PartialEq)]
struct Mover {
    received: Vec<(usize, u32, u64)>,
}

impl Protocol for Mover {
    type Msg = u32;

    fn on_start(&mut self, _ctx: &mut Context<'_, u32>) {}

    fn on_message(&mut self, from: SiteId, msg: u32, ctx: &mut Context<'_, u32>) {
        if from == ctx.site() {
            ctx.transfer(SiteId(2), f64::from(msg), msg);
        } else {
            self.received.push((from.0, msg, ctx.now().to_bits()));
        }
    }
}

impl Snap for Mover {
    fn encode(&self) -> Json {
        self.received.encode()
    }

    fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        Ok(Mover {
            received: Snap::decode(j, path)?,
        })
    }
}

/// The ring 0 — 1 — 2 — 3 — 0, unit bandwidths, delay 2 on 3 — 0 and 1
/// elsewhere (four link additions: the network is at version 4), with the
/// whole fault plan and both transfers scheduled.
fn build() -> Simulator<Mover> {
    let mut net = Network::new(4);
    for (a, b, delay) in [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 2.0)] {
        net.add_link_with_bandwidth(SiteId(a), SiteId(b), delay, 1.0)
            .unwrap();
    }
    let mut sim = Simulator::new(net, |_| Mover::default());
    // 8 units over 0 — 1 — 2 (delay 2), moving from t = 2.
    sim.inject_at(0.0, SiteId(0), 8);
    // After the checkpoint: three delay faults that change nothing but the
    // version, then 1 — 2 fails (the first flow stalls until it is back),
    // so the second transfer must take 0 — 3 — 2 (delay 3).
    let (a, b) = (SiteId(3), SiteId(0));
    for time in [7.0, 7.1, 7.2] {
        sim.schedule_fault(time, FaultEvent::SetLinkDelay { a, b, delay: 2.0 });
    }
    let (a, b) = (SiteId(1), SiteId(2));
    sim.schedule_fault(7.5, FaultEvent::LinkDown { a, b });
    sim.inject_at(8.0, SiteId(0), 4);
    sim.schedule_fault(20.0, FaultEvent::LinkUp { a, b });
    sim
}

#[test]
fn a_restored_run_routes_like_the_uninterrupted_one_after_link_faults() {
    let mut reference = build();
    reference.run_to_quiescence();
    assert_eq!(reference.stats().named("sim_flow_finished"), 2);
    // The second transfer started at 11 and landed first; the first one
    // stalled from 7.5 to 20 with 2.5 units to go.
    let landed: Vec<(u32, f64)> = reference
        .node(SiteId(2))
        .received
        .iter()
        .map(|&(_, volume, bits)| (volume, f64::from_bits(bits)))
        .collect();
    assert_eq!(landed, [(4, 15.0), (8, 22.5)]);

    let mut paused = build();
    paused.run_until(5.0);
    assert_eq!(
        paused.flows_in_flight(),
        1,
        "the checkpoint lands mid-transfer"
    );
    let text = paused.encode().render();
    let doc = Json::parse(&text).expect("snapshot parses");
    let mut restored: Simulator<Mover> =
        Snap::decode(&doc, &Path::root("snapshot")).expect("snapshot restores");
    assert_eq!(restored.network().version(), 0);
    restored.run_to_quiescence();

    assert_eq!(restored.node(SiteId(2)), reference.node(SiteId(2)));
    assert_eq!(restored.now(), reference.now());
    assert_eq!(restored.events_processed(), reference.events_processed());
    assert_eq!(restored.stats().metrics(), reference.stats().metrics());
}
