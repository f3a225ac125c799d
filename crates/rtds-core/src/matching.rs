//! Maximum bipartite matching (the §10 "maximum coupling").
//!
//! During Trial-Mapping validation the initiator receives, from every site
//! `j` of the ACS, the list of logical processors whose task sets `T_i` the
//! site could locally satisfy. It then computes "a maximum coupling
//! (classical problem in graph theory solved in polynomial time)" between
//! sites and logical processors. If the coupling has cardinality `|U|`, the
//! induced permutation assigns each logical processor to a distinct physical
//! site; otherwise the job is rejected.
//!
//! We implement Hopcroft–Karp (`O(E √V)`) over a flat CSR (offsets + edges)
//! adjacency with reusable scratch buffers; the property tests compare it
//! with a brute-force reference.

use std::cell::RefCell;
use std::collections::VecDeque;

const NIL: u32 = u32::MAX;
const INF: u32 = u32::MAX;

/// A bipartite graph in compressed-sparse-row layout: the right neighbors of
/// left vertex `l` are `edges[offsets[l]..offsets[l + 1]]`, in insertion
/// order (which fixes the tie-breaking — and therefore the exact matching —
/// of the solver).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BipartiteCsr {
    left_count: usize,
    right_count: usize,
    offsets: Vec<u32>,
    edges: Vec<u32>,
}

impl BipartiteCsr {
    /// Rebuilds the CSR in place (the Trial-Mapping scratch-reuse path: the
    /// allocation survives across jobs).
    pub fn rebuild_from_lists(&mut self, lists: &[Vec<usize>], right_count: usize) {
        self.left_count = lists.len();
        self.right_count = right_count;
        self.offsets.clear();
        self.edges.clear();
        self.offsets.reserve(lists.len() + 1);
        self.offsets.push(0);
        for adj in lists {
            for &r in adj {
                assert!(r < right_count, "right vertex {r} out of range");
                self.edges.push(r as u32);
            }
            self.offsets.push(self.edges.len() as u32);
        }
    }

    /// Rebuilds the CSR in place from `(left, right)` pairs delivered in any
    /// order (counting sort, two passes; within one left vertex the pair
    /// order is preserved). Pairs with out-of-range endpoints are ignored —
    /// the §10 round treats unknown logical processors as noise.
    pub(crate) fn rebuild_from_pairs(
        &mut self,
        left_count: usize,
        right_count: usize,
        pairs: impl Iterator<Item = (usize, usize)> + Clone,
    ) {
        self.left_count = left_count;
        self.right_count = right_count;
        self.offsets.clear();
        self.offsets.resize(left_count + 1, 0);
        let in_range = |&(l, r): &(usize, usize)| l < left_count && r < right_count;
        for (l, _) in pairs.clone().filter(in_range) {
            self.offsets[l + 1] += 1;
        }
        for i in 1..self.offsets.len() {
            self.offsets[i] += self.offsets[i - 1];
        }
        self.edges.clear();
        self.edges.resize(self.offsets[left_count] as usize, 0);
        // Fill using the offsets themselves as bucket cursors (no extra
        // allocation): after the fill `offsets[l]` holds the *end* of bucket
        // `l`, i.e. the array has shifted one slot left — shift it back.
        for (l, r) in pairs.filter(in_range) {
            self.edges[self.offsets[l] as usize] = r as u32;
            self.offsets[l] += 1;
        }
        for l in (1..=left_count).rev() {
            self.offsets[l] = self.offsets[l - 1];
        }
        if let Some(first) = self.offsets.first_mut() {
            *first = 0;
        }
    }

    /// The right neighbors of left vertex `l`, in insertion order.
    #[inline]
    pub(crate) fn neighbors(&self, l: usize) -> &[u32] {
        &self.edges[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }
}

/// Reusable working memory of the Hopcroft–Karp solver. One scratch serves
/// any number of [`maximum_bipartite_matching_csr`] calls; buffers are
/// resized, never shrunk, so repeated Trial-Mapping validations stop
/// allocating once the high-water mark is reached.
#[derive(Debug, Default)]
pub struct MatchScratch {
    match_left: Vec<u32>,
    match_right: Vec<u32>,
    dist: Vec<u32>,
    queue: VecDeque<u32>,
}

thread_local! {
    static SHARED_WORKSPACE: RefCell<(BipartiteCsr, MatchScratch)> =
        RefCell::new((BipartiteCsr::default(), MatchScratch::default()));
}

/// Runs `f` with the thread-local CSR + scratch pair (each simulation is
/// single-threaded, so every Trial-Mapping validation of a run reuses one
/// allocation instead of rebuilding nested vectors per job).
pub fn with_matching_workspace<T>(f: impl FnOnce(&mut BipartiteCsr, &mut MatchScratch) -> T) -> T {
    SHARED_WORKSPACE.with(|ws| {
        let (csr, scratch) = &mut *ws.borrow_mut();
        f(csr, scratch)
    })
}

/// Computes a maximum matching over a CSR bipartite graph, reusing the given
/// scratch buffers.
///
/// Returns `assignment[l] = Some(r)` for matched left vertices. The matching
/// is deterministic for a given input ordering and identical, edge order for
/// edge order, to the nested-vector implementation this replaced.
pub fn maximum_bipartite_matching_csr(
    csr: &BipartiteCsr,
    scratch: &mut MatchScratch,
) -> Vec<Option<usize>> {
    let (left_count, right_count) = (csr.left_count, csr.right_count);
    let MatchScratch {
        match_left,
        match_right,
        dist,
        queue,
    } = scratch;
    match_left.clear();
    match_left.resize(left_count, NIL);
    match_right.clear();
    match_right.resize(right_count, NIL);
    dist.clear();
    dist.resize(left_count, 0);

    // Breadth-first phase of Hopcroft–Karp: layer the free left vertices.
    let bfs = |match_left: &[u32],
               match_right: &[u32],
               dist: &mut [u32],
               queue: &mut VecDeque<u32>|
     -> bool {
        queue.clear();
        for l in 0..left_count {
            if match_left[l] == NIL {
                dist[l] = 0;
                queue.push_back(l as u32);
            } else {
                dist[l] = INF;
            }
        }
        let mut found_augmenting = false;
        while let Some(l) = queue.pop_front() {
            for &r in csr.neighbors(l as usize) {
                let next = match_right[r as usize];
                if next == NIL {
                    found_augmenting = true;
                } else if dist[next as usize] == INF {
                    dist[next as usize] = dist[l as usize] + 1;
                    queue.push_back(next);
                }
            }
        }
        found_augmenting
    };

    // Depth-first phase: find augmenting paths along the BFS layering.
    fn dfs(
        l: u32,
        csr: &BipartiteCsr,
        match_left: &mut [u32],
        match_right: &mut [u32],
        dist: &mut [u32],
    ) -> bool {
        for idx in 0..csr.neighbors(l as usize).len() {
            let r = csr.neighbors(l as usize)[idx];
            let next = match_right[r as usize];
            let ok = if next == NIL {
                true
            } else if dist[next as usize] == dist[l as usize].wrapping_add(1) {
                dfs(next, csr, match_left, match_right, dist)
            } else {
                false
            };
            if ok {
                match_left[l as usize] = r;
                match_right[r as usize] = l;
                return true;
            }
        }
        dist[l as usize] = INF;
        false
    }

    while bfs(match_left, match_right, dist, queue) {
        for l in 0..left_count {
            if match_left[l] == NIL {
                dfs(l as u32, csr, match_left, match_right, dist);
            }
        }
    }

    match_left
        .iter()
        .map(|&r| if r == NIL { None } else { Some(r as usize) })
        .collect()
}

/// Size of a matching returned by [`maximum_bipartite_matching_csr`].
pub(crate) fn matching_size(assignment: &[Option<usize>]) -> usize {
    assignment.iter().filter(|a| a.is_some()).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Builds the CSR from nested adjacency lists (`lists[l]` = right
    /// neighbors of left vertex `l`).
    fn csr_from_lists(lists: &[Vec<usize>], right_count: usize) -> BipartiteCsr {
        let mut csr = BipartiteCsr::default();
        csr.rebuild_from_lists(lists, right_count);
        csr
    }

    /// Maximum matching from nested adjacency lists (fresh CSR and scratch).
    fn maximum_bipartite_matching(
        left_count: usize,
        right_count: usize,
        edges: &[Vec<usize>],
    ) -> Vec<Option<usize>> {
        assert_eq!(
            edges.len(),
            left_count,
            "one adjacency list per left vertex"
        );
        maximum_bipartite_matching_csr(
            &csr_from_lists(edges, right_count),
            &mut MatchScratch::default(),
        )
    }

    /// Brute-force maximum matching size (exponential; only for small instances
    /// in tests).
    fn brute_force_matching_size(
        left_count: usize,
        right_count: usize,
        edges: &[Vec<usize>],
    ) -> usize {
        fn go(
            l: usize,
            left_count: usize,
            edges: &[Vec<usize>],
            used_right: &mut Vec<bool>,
        ) -> usize {
            if l == left_count {
                return 0;
            }
            // Option 1: leave l unmatched.
            let mut best = go(l + 1, left_count, edges, used_right);
            // Option 2: match l with any free neighbor.
            for &r in &edges[l] {
                if !used_right[r] {
                    used_right[r] = true;
                    best = best.max(1 + go(l + 1, left_count, edges, used_right));
                    used_right[r] = false;
                }
            }
            best
        }
        let mut used = vec![false; right_count];
        go(0, left_count, edges, &mut used)
    }

    #[test]
    fn perfect_matching_on_identity() {
        let edges = vec![vec![0], vec![1], vec![2]];
        let m = maximum_bipartite_matching(3, 3, &edges);
        assert_eq!(m, vec![Some(0), Some(1), Some(2)]);
        assert_eq!(matching_size(&m), 3);
    }

    #[test]
    fn augmenting_path_is_found() {
        // l0 can only use r0; l1 can use r0 or r1. Greedy l1 -> r0 would block
        // l0; the maximum matching must re-route l1 to r1.
        let edges = vec![vec![0], vec![0, 1]];
        let m = maximum_bipartite_matching(2, 2, &edges);
        assert_eq!(matching_size(&m), 2);
        assert_eq!(m[0], Some(0));
        assert_eq!(m[1], Some(1));
    }

    #[test]
    fn no_edges_no_matching() {
        let edges = vec![vec![], vec![]];
        let m = maximum_bipartite_matching(2, 3, &edges);
        assert_eq!(m, vec![None, None]);
        assert_eq!(matching_size(&m), 0);
    }

    #[test]
    fn imperfect_matching_when_one_site_serves_everyone() {
        // Three logical processors but every one can only run on site 0: the
        // coupling has size 1 < |U| = 3, so the §10 validation rejects.
        let edges = vec![vec![0], vec![0], vec![0]];
        let m = maximum_bipartite_matching(3, 1, &edges);
        assert_eq!(matching_size(&m), 1);
    }

    #[test]
    fn matching_respects_adjacency() {
        let edges = vec![vec![2, 3], vec![0], vec![0, 1], vec![1, 3]];
        let m = maximum_bipartite_matching(4, 4, &edges);
        assert_eq!(matching_size(&m), 4);
        for (l, r) in m.iter().enumerate() {
            let r = r.unwrap();
            assert!(edges[l].contains(&r), "edge ({l}, {r}) does not exist");
        }
        // Distinct right vertices.
        let mut rights: Vec<usize> = m.iter().map(|r| r.unwrap()).collect();
        rights.sort_unstable();
        rights.dedup();
        assert_eq!(rights.len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_right_vertex_panics() {
        let edges = vec![vec![5]];
        let _ = maximum_bipartite_matching(1, 2, &edges);
    }

    /// Seeded cross-check on rectangular instances (the §10 validation sees
    /// more logical processors than candidate sites and vice versa), with
    /// varying edge densities, beyond the square-ish graphs the property
    /// test samples.
    #[test]
    fn hopcroft_karp_matches_brute_force_on_rectangular_random_graphs() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(2007);
        for case in 0..300 {
            let left = rng.random_range(1usize..=9);
            let right = rng.random_range(1usize..=5);
            let density = rng.random_range(0.05f64..0.9);
            let edges: Vec<Vec<usize>> = (0..left)
                .map(|_| (0..right).filter(|_| rng.random_bool(density)).collect())
                .collect();
            let m = maximum_bipartite_matching(left, right, &edges);
            assert_eq!(
                matching_size(&m),
                brute_force_matching_size(left, right, &edges),
                "case {case}: left={left} right={right} edges={edges:?}"
            );
        }
    }

    /// The historical nested-vector Hopcroft–Karp, kept verbatim as the
    /// behavioral reference: the CSR engine must return the *same
    /// assignment* (not merely the same cardinality), which pins its edge
    /// iteration order and tie-breaking.
    fn reference_nested_vec_matching(
        left_count: usize,
        right_count: usize,
        edges: &[Vec<usize>],
    ) -> Vec<Option<usize>> {
        assert_eq!(edges.len(), left_count);
        for adj in edges {
            for &r in adj {
                assert!(r < right_count);
            }
        }
        const NIL: usize = usize::MAX;
        const INF: usize = usize::MAX;
        let mut match_left = vec![NIL; left_count];
        let mut match_right = vec![NIL; right_count];
        let mut dist = vec![0usize; left_count];
        let bfs = |match_left: &[usize], match_right: &[usize], dist: &mut [usize]| -> bool {
            let mut queue = std::collections::VecDeque::new();
            for l in 0..left_count {
                if match_left[l] == NIL {
                    dist[l] = 0;
                    queue.push_back(l);
                } else {
                    dist[l] = INF;
                }
            }
            let mut found = false;
            while let Some(l) = queue.pop_front() {
                for &r in &edges[l] {
                    let next = match_right[r];
                    if next == NIL {
                        found = true;
                    } else if dist[next] == INF {
                        dist[next] = dist[l] + 1;
                        queue.push_back(next);
                    }
                }
            }
            found
        };
        fn dfs(
            l: usize,
            edges: &[Vec<usize>],
            match_left: &mut [usize],
            match_right: &mut [usize],
            dist: &mut [usize],
        ) -> bool {
            const NIL: usize = usize::MAX;
            const INF: usize = usize::MAX;
            for idx in 0..edges[l].len() {
                let r = edges[l][idx];
                let next = match_right[r];
                let ok = if next == NIL {
                    true
                } else if dist[next] == dist[l].wrapping_add(1) {
                    dfs(next, edges, match_left, match_right, dist)
                } else {
                    false
                };
                if ok {
                    match_left[l] = r;
                    match_right[r] = l;
                    return true;
                }
            }
            dist[l] = INF;
            false
        }
        while bfs(&match_left, &match_right, &mut dist) {
            for l in 0..left_count {
                if match_left[l] == NIL {
                    dfs(l, edges, &mut match_left, &mut match_right, &mut dist);
                }
            }
        }
        match_left
            .into_iter()
            .map(|r| if r == NIL { None } else { Some(r) })
            .collect()
    }

    #[test]
    fn csr_builders_agree_and_preserve_per_left_order() {
        let lists = vec![vec![2, 0, 3], vec![], vec![1, 1, 4]];
        let from_lists = csr_from_lists(&lists, 5);
        assert_eq!(from_lists.left_count, 3);
        assert_eq!(from_lists.right_count, 5);
        assert_eq!(from_lists.edges.len(), 6);
        assert_eq!(from_lists.neighbors(0), &[2, 0, 3]);
        assert_eq!(from_lists.neighbors(1), &[] as &[u32]);
        assert_eq!(from_lists.neighbors(2), &[1, 1, 4]);
        // Pairs fed left-major in list order must rebuild the same CSR.
        let pairs: Vec<(usize, usize)> = lists
            .iter()
            .enumerate()
            .flat_map(|(l, adj)| adj.iter().map(move |&r| (l, r)))
            .collect();
        let mut from_pairs = BipartiteCsr::default();
        from_pairs.rebuild_from_pairs(3, 5, pairs.iter().copied());
        assert_eq!(from_pairs, from_lists);
        // Out-of-range pairs are dropped, not misfiled.
        let mut noisy = BipartiteCsr::default();
        let with_noise = pairs.iter().copied().chain([(9, 0), (0, 9)]);
        noisy.rebuild_from_pairs(3, 5, with_noise);
        assert_eq!(noisy, from_lists);
    }

    #[test]
    fn scratch_reuse_does_not_change_results() {
        let a = csr_from_lists(&[vec![0], vec![0, 1]], 2);
        let b = csr_from_lists(&[vec![0], vec![0], vec![0]], 1);
        let mut scratch = MatchScratch::default();
        let first = maximum_bipartite_matching_csr(&a, &mut scratch);
        let second = maximum_bipartite_matching_csr(&b, &mut scratch);
        let third = maximum_bipartite_matching_csr(&a, &mut scratch);
        assert_eq!(first, vec![Some(0), Some(1)]);
        assert_eq!(matching_size(&second), 1);
        assert_eq!(first, third);
    }

    /// Seeded equivalence sweep on rectangular graphs: the CSR engine must
    /// reproduce the nested-vector reference assignment exactly.
    #[test]
    fn csr_engine_equals_nested_vec_reference_on_random_rectangles() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(510);
        let mut scratch = MatchScratch::default();
        for case in 0..400 {
            let left = rng.random_range(1usize..=12);
            let right = rng.random_range(1usize..=12);
            let density = rng.random_range(0.05f64..0.95);
            let edges: Vec<Vec<usize>> = (0..left)
                .map(|_| (0..right).filter(|_| rng.random_bool(density)).collect())
                .collect();
            let reference = reference_nested_vec_matching(left, right, &edges);
            let csr = csr_from_lists(&edges, right);
            let got = maximum_bipartite_matching_csr(&csr, &mut scratch);
            assert_eq!(got, reference, "case {case}: {edges:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The CSR engine (through the public wrapper) returns exactly the
        /// reference assignment — the permutation the §11 dispatch ships is
        /// unchanged by the layout swap.
        #[test]
        fn csr_engine_equals_nested_vec_reference(
            left in 1usize..8,
            right in 1usize..8,
            edge_bits in proptest::collection::vec(proptest::bool::ANY, 64),
        ) {
            let edges: Vec<Vec<usize>> = (0..left)
                .map(|l| (0..right).filter(|r| edge_bits[l * 8 + r]).collect())
                .collect();
            let reference = reference_nested_vec_matching(left, right, &edges);
            let got = maximum_bipartite_matching(left, right, &edges);
            prop_assert_eq!(got, reference);
        }

        /// Hopcroft–Karp matches the brute-force optimum on random small
        /// bipartite graphs, and the returned assignment is a valid matching.
        #[test]
        fn hopcroft_karp_is_maximum(
            left in 1usize..7,
            right in 1usize..7,
            edge_bits in proptest::collection::vec(proptest::bool::ANY, 49),
        ) {
            let edges: Vec<Vec<usize>> = (0..left)
                .map(|l| (0..right).filter(|r| edge_bits[l * 7 + r]).collect())
                .collect();
            let m = maximum_bipartite_matching(left, right, &edges);
            // Validity: matched pairs are edges, rights are distinct.
            let mut seen = std::collections::HashSet::new();
            for (l, r) in m.iter().enumerate() {
                if let Some(r) = r {
                    prop_assert!(edges[l].contains(r));
                    prop_assert!(seen.insert(*r));
                }
            }
            // Optimality.
            let best = brute_force_matching_size(left, right, &edges);
            prop_assert_eq!(matching_size(&m), best);
        }
    }
}
