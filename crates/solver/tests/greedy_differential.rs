//! Differential wall for the incremental greedy construction: on random
//! instances, `GreedySolver::construct` must return the from-scratch
//! reference order (`common/greedy_reference.rs`) bit for bit, ties
//! included, under all four `GreedyConfig` flag combinations.
//!
//! The generator draws costs, runtimes, weights and speed-ups from small
//! value sets, so equal densities (ties) are common. It also draws
//! precedence chains, build interactions up to the full creation cost
//! (effective cost 0), zero speed-ups and plans that need no index.

mod common;

use common::greedy_reference::reference_construct;
use idd_core::{IndexId, InstanceBuilder, ProblemInstance, QueryId, QueryMeta};
use idd_solver::greedy::{GreedyConfig, GreedySolver};
use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A random valid instance: at most 24 indexes and 12 queries.
fn random_instance(seed: u64) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = InstanceBuilder::new(format!("greedy-diff-{seed}"));
    let n = rng.gen_range(1..=24usize);
    let costs: Vec<f64> = (0..n)
        .map(|_| [0.0, 1.0, 2.0, 2.0, 3.0, 5.0][rng.gen_range(0..6)])
        .collect();
    let ids: Vec<IndexId> = costs.iter().map(|&c| b.add_index(c)).collect();

    for q in 0..rng.gen_range(1..=12usize) {
        let runtime = [10.0, 20.0, 40.0][rng.gen_range(0..3)];
        let mut meta = QueryMeta::simple(QueryId::new(q), runtime);
        meta.weight = [0.5, 1.0, 1.0, 2.0][rng.gen_range(0..4)];
        let qid = b.push_query(meta);
        for _ in 0..rng.gen_range(0..=4usize) {
            // Width 0 (a plan needing no index) is rare but legal.
            let width = rng.gen_range(0..=3usize.min(n));
            let mut pool = ids.clone();
            pool.shuffle(&mut rng);
            let mut plan = pool[..width].to_vec();
            plan.sort_unstable();
            let speedup = [0.0, 1.0, 2.0, 5.0, runtime][rng.gen_range(0..5)];
            b.add_plan(qid, plan, speedup);
        }
    }

    if n >= 2 {
        for _ in 0..rng.gen_range(0..=n) {
            let target = rng.gen_range(0..n);
            let helper = (target + rng.gen_range(1..n)) % n;
            let share = [0.0, 0.5, 1.0][rng.gen_range(0..3)];
            b.add_build_interaction(ids[target], ids[helper], costs[target] * share);
        }
        // Edges along a random permutation stay acyclic.
        let mut rank: Vec<usize> = (0..n).collect();
        rank.shuffle(&mut rng);
        for _ in 0..rng.gen_range(0..=n / 2) {
            let a = rng.gen_range(0..n);
            let c = rng.gen_range(0..n);
            if rank[a] < rank[c] {
                b.add_precedence(ids[a], ids[c]);
            }
        }
    }
    b.build().expect("generated instance is valid")
}

const CONFIGS: [GreedyConfig; 4] = [
    GreedyConfig {
        interaction_credit: true,
        respect_precedences: true,
    },
    GreedyConfig {
        interaction_credit: true,
        respect_precedences: false,
    },
    GreedyConfig {
        interaction_credit: false,
        respect_precedences: true,
    },
    GreedyConfig {
        interaction_credit: false,
        respect_precedences: false,
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn incremental_greedy_matches_the_reference_bit_for_bit(seed in 0u64..u64::MAX) {
        let instance = random_instance(seed);
        for config in CONFIGS {
            let incremental = GreedySolver::with_config(config).construct(&instance);
            let reference = reference_construct(&instance, config);
            prop_assert_eq!(incremental.order(), reference.order());
        }
    }
}
