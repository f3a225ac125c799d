//! Differential test of the reusable solver workspace: one [`FlowModel`],
//! driven through a sequence of flow sets that shrink and grow, assigns
//! exactly the rates — bit for bit — that a fresh progressive-filling solve
//! with newly allocated vectors assigns to each set, and its per-link totals
//! equal a scan over the flows in ascending id order. Stale contents of the
//! reused buffers would show up as a differing bit.

use proptest::prelude::*;
use rtds_flow::{max_min_rates, FlowModel, LinkId};

/// Progressive filling with freshly allocated vectors, as the solver was
/// written before it kept its buffers between solves.
fn fresh_rates(capacities: &[f64], flows: &[&[LinkId]]) -> Vec<f64> {
    let n = flows.len();
    let l = capacities.len();
    let mut rates = vec![0.0f64; n];
    let mut frozen = vec![false; n];
    let mut used = vec![0.0f64; l];
    let mut unfrozen = 0usize;
    for (i, links) in flows.iter().enumerate() {
        if links.is_empty() {
            rates[i] = f64::INFINITY;
            frozen[i] = true;
        } else {
            unfrozen += 1;
        }
    }
    let mut count = vec![0u32; l];
    let mut bottleneck = vec![false; l];
    while unfrozen > 0 {
        count.iter_mut().for_each(|c| *c = 0);
        for (i, links) in flows.iter().enumerate() {
            if !frozen[i] {
                for &link in *links {
                    count[link as usize] += 1;
                }
            }
        }
        let mut share = f64::INFINITY;
        for link in 0..l {
            if count[link] > 0 {
                let s = (capacities[link] - used[link]).max(0.0) / count[link] as f64;
                if s < share {
                    share = s;
                }
            }
        }
        if share.is_infinite() {
            for (i, rate) in rates.iter_mut().enumerate() {
                if !frozen[i] {
                    *rate = f64::INFINITY;
                    frozen[i] = true;
                }
            }
            break;
        }
        for link in 0..l {
            bottleneck[link] = count[link] > 0
                && (capacities[link] - used[link]).max(0.0) / count[link] as f64 <= share;
        }
        let mut froze_any = false;
        for (i, links) in flows.iter().enumerate() {
            if frozen[i] || !links.iter().any(|&lk| bottleneck[lk as usize]) {
                continue;
            }
            rates[i] = share;
            frozen[i] = true;
            unfrozen -= 1;
            froze_any = true;
            for &link in *links {
                used[link as usize] += share;
            }
        }
        if !froze_any {
            break;
        }
    }
    rates
}

/// The rtds-flow proptest link sets: each pick reduced modulo the link
/// count, sorted and deduplicated.
fn link_sets(caps: &[f64], picks: &[Vec<usize>]) -> Vec<Vec<LinkId>> {
    picks
        .iter()
        .map(|p| {
            let mut links: Vec<LinkId> = p.iter().map(|&x| (x % caps.len()) as LinkId).collect();
            links.sort_unstable();
            links.dedup();
            links
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reused_workspace_matches_fresh_solves_bit_for_bit(
        caps in proptest::collection::vec(
            prop_oneof![Just(f64::INFINITY), Just(0.0), 0.5f64..16.0], 1..6),
        sets in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(0usize..6, 0..4), 0..7),
            1..6),
    ) {
        let mut model = FlowModel::new();
        for &cap in &caps {
            model.add_link(cap);
        }
        for picks in &sets {
            // Retire the previous set and load this one: the flow count
            // shrinks or grows from set to set.
            let ids: Vec<u64> = model.flow_ids().collect();
            for id in ids {
                model.finish(id);
            }
            let flows = link_sets(&caps, picks);
            let ids: Vec<u64> = flows.iter().map(|f| model.start(f.clone(), 1.0)).collect();
            model.recompute();

            let views: Vec<&[LinkId]> = flows.iter().map(Vec::as_slice).collect();
            let expected = fresh_rates(&caps, &views);
            let wrapper = max_min_rates(&caps, &views);
            for (i, &id) in ids.iter().enumerate() {
                prop_assert_eq!(model.rate(id).to_bits(), expected[i].to_bits(), "flow {}", i);
                prop_assert_eq!(wrapper[i].to_bits(), expected[i].to_bits(), "wrapper flow {}", i);
            }
            prop_assert_eq!(model.link_rates().len(), caps.len());
            for link in 0..caps.len() as LinkId {
                let mut scan = 0.0;
                for (i, links) in views.iter().enumerate() {
                    if links.contains(&link) && expected[i].is_finite() {
                        scan += expected[i];
                    }
                }
                prop_assert_eq!(model.link_rates()[link as usize].to_bits(), scan.to_bits());
            }
        }
    }
}
