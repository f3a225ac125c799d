//! Integration tests of the scenario engine through the `rtds` facade: the
//! registry, the fault-injection semantics and the property the whole
//! subsystem hangs on — a zero-probability perturbation plan is
//! event-for-event identical to the unperturbed run, and a real one
//! demonstrably changes the outcome.

use proptest::prelude::*;
use rtds::core::{JobReport, RtdsSystem, StreamReport};
use rtds::scenarios::{
    builtin_scenarios, find_scenario, mix_seed, run_cell, Perturbation, PerturbationPlan, Scenario,
};
use rtds::sim::TraceEvent;

/// Runs one scenario cell by hand (mirroring `runner::run_cell`) with
/// tracing enabled, so tests can compare protocol-visible event streams.
fn traced_run(scenario: &Scenario, seed: u64) -> (StreamReport, Vec<JobReport>, Vec<TraceEvent>) {
    let network = scenario.build_network(seed);
    let jobs = scenario.build_workload(&network, seed);
    let faults = scenario.perturbations.expand(&network, mix_seed(seed, 3));
    let mut system = RtdsSystem::new(network, scenario.config, mix_seed(seed, 5));
    system.enable_trace();
    system.set_fault_seed(mix_seed(seed, 4));
    for (time, fault) in faults {
        system.schedule_fault(time.max(0.0), fault);
    }
    let (report, jobs) = system.run(jobs);
    let trace = system.trace().events();
    (report, jobs, trace)
}

fn zero_probability_plan() -> PerturbationPlan {
    PerturbationPlan::new(vec![
        Perturbation::MessageLoss {
            start: 30.0,
            end: 200.0,
            probability: 0.0,
        },
        Perturbation::LinkJitter {
            start: 30.0,
            end: 200.0,
            period: 20.0,
            fraction: 0.0,
            factor: (0.5, 2.0),
        },
        Perturbation::LinkFailures {
            start: 30.0,
            end: 200.0,
            count: 0,
            downtime: 10.0,
        },
        Perturbation::SiteCrashes {
            start: 30.0,
            end: 200.0,
            count: 0,
            downtime: 10.0,
        },
    ])
}

proptest! {
    /// Satellite property: a scenario whose faults all have probability /
    /// rate zero is event-for-event identical to the unperturbed run — same
    /// per-job outcomes, same counters, same protocol trace — even though
    /// the no-op `SetMessageLoss` fault events do get scheduled and applied.
    #[test]
    fn zero_probability_faults_leave_the_run_untouched(seed in 0u64..25) {
        let mut quiet = find_scenario("paper-baseline").unwrap();
        assert!(quiet.perturbations.is_empty());
        let mut zeroed = quiet.clone();
        zeroed.perturbations = zero_probability_plan();

        // Shrink the workload so the property sweep stays fast.
        quiet.workload.horizon = 120.0;
        zeroed.workload.horizon = 120.0;

        let (unperturbed, jobs_a, trace_a) = traced_run(&quiet, seed);
        let (zero_faults, jobs_b, trace_b) = traced_run(&zeroed, seed);

        // The zeroed run did process fault events...
        prop_assert_eq!(zero_faults.stats.named("sim_fault_events"), 2);
        // ...but no protocol-visible observable moved.
        prop_assert_eq!(jobs_a, jobs_b);
        prop_assert_eq!(&unperturbed.guarantee, &zero_faults.guarantee);
        prop_assert_eq!(unperturbed.stats.messages_sent, zero_faults.stats.messages_sent);
        prop_assert_eq!(
            unperturbed.stats.messages_delivered,
            zero_faults.stats.messages_delivered
        );
        prop_assert_eq!(unperturbed.messages_per_job, zero_faults.messages_per_job);
        prop_assert_eq!(trace_a, trace_b);
        prop_assert_eq!(zero_faults.stats.named("sim_lost_random"), 0);
    }
}

#[test]
fn registry_is_reachable_through_the_facade() {
    let scenarios = builtin_scenarios();
    assert!(scenarios.len() >= 8);
    for required in [
        "paper-baseline",
        "overload-burst",
        "flaky-links",
        "partition-and-heal",
        "hetero-speed-sites",
        "wide-low-degree",
        "deep-chain-dags",
        "tight-laxity-storm",
    ] {
        assert!(
            scenarios.iter().any(|s| s.name == required),
            "registry is missing {required}"
        );
    }
}

#[test]
fn message_loss_scenario_changes_the_acceptance_ratio() {
    // lossy-messages shares the paper-baseline topology and workload
    // recipes, so for a fixed seed both run the same jobs on the same
    // network; the injected loss must cost acceptance.
    let baseline = run_cell(&find_scenario("paper-baseline").unwrap(), 1);
    let lossy = run_cell(&find_scenario("lossy-messages").unwrap(), 1);
    assert_eq!(baseline.submitted, lossy.submitted, "same workload");
    assert!(baseline.faults_injected == 0 && lossy.faults_injected > 0);
    assert!(
        lossy.guarantee_ratio < baseline.guarantee_ratio,
        "loss must reduce acceptance: {} vs {}",
        lossy.guarantee_ratio,
        baseline.guarantee_ratio
    );
    assert!(lossy.messages_lost > 0);
    assert_eq!(baseline.deadline_misses, 0);
    assert_eq!(lossy.deadline_misses, 0);
}

#[test]
fn a_capped_cell_counts_only_the_jobs_it_reached() {
    let mut scenario = find_scenario("paper-baseline").unwrap();
    let full = run_cell(&scenario, 3);
    scenario.max_events = full.events_processed / 2;
    let capped = run_cell(&scenario, 3);
    assert!(capped.submitted > 0 && capped.submitted < full.submitted);
    let accepted = capped.accepted_locally + capped.accepted_distributed;
    assert_eq!(accepted + capped.rejected, capped.submitted);
    assert_eq!(
        capped.guarantee_ratio,
        accepted as f64 / capped.submitted as f64
    );
}

#[test]
fn dynamic_network_scenarios_inject_and_survive() {
    for name in ["flaky-links", "partition-and-heal", "site-crash-wave"] {
        let cell = run_cell(&find_scenario(name).unwrap(), 2);
        assert!(cell.faults_injected > 0, "{name} injected nothing");
        assert!(cell.submitted > 0, "{name} ran no jobs");
        // The safety invariant holds even under faults: an accepted job
        // never misses its deadline.
        assert_eq!(cell.deadline_misses, 0, "{name} missed deadlines");
    }
}
