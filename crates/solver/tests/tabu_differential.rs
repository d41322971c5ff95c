//! Differential wall for the best-swap tabu scan: on random instances,
//! `TabuSolver` with `SwapStrategy::Best` under `SearchBudget::nodes(k)`
//! returns the order, objective bits and trajectory areas of the reference
//! loop (`common/tabu_reference.rs`: a pair list, window-wide feasibility
//! checks, one `evaluate_swap` per pair).
//!
//! The generator draws precedences, build interactions (some worth the full
//! creation cost) and costs, runtimes and speed-ups from small value sets;
//! it also adds plan-less twin indexes, so equal areas — ties the scan must
//! break by its first-strict-minimum rule — are common.

#[path = "common/tabu_reference.rs"]
mod tabu_reference;

use idd_core::{Deployment, IndexId, InstanceBuilder, ProblemInstance, QueryId, QueryMeta};
use idd_solver::greedy::GreedySolver;
use idd_solver::local::{SwapStrategy, TabuConfig, TabuSolver};
use idd_solver::SearchBudget;
use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use tabu_reference::reference_best_swap;

/// A random valid instance: at most 20 indexes, some of them plan-less
/// twins of equal cost.
fn random_instance(rng: &mut ChaCha8Rng) -> ProblemInstance {
    let mut b = InstanceBuilder::new("tabu-diff");
    let n = rng.gen_range(2..=20usize);
    let costs: Vec<f64> = (0..n)
        .map(|_| [1.0, 2.0, 2.0, 3.0, 5.0][rng.gen_range(0..5)])
        .collect();
    let ids: Vec<IndexId> = costs.iter().map(|&c| b.add_index(c)).collect();
    // Indexes in the second half get plans only sometimes: the rest are
    // interchangeable twins, whose swaps tie.
    let with_plans: Vec<IndexId> = ids
        .iter()
        .enumerate()
        .filter(|&(k, _)| k < n.div_ceil(2) || rng.gen_bool(0.3))
        .map(|(_, &id)| id)
        .collect();

    for q in 0..rng.gen_range(1..=10usize) {
        let runtime = [10.0, 20.0, 40.0][rng.gen_range(0..3)];
        let mut meta = QueryMeta::simple(QueryId::new(q), runtime);
        meta.weight = [0.5, 1.0, 2.0][rng.gen_range(0..3)];
        let qid = b.push_query(meta);
        for _ in 0..rng.gen_range(1..=4usize) {
            let width = rng.gen_range(1..=3usize.min(with_plans.len()));
            let mut pool = with_plans.clone();
            pool.shuffle(rng);
            let mut plan = pool[..width].to_vec();
            plan.sort_unstable();
            let speedup = [1.0, 2.0, 5.0, runtime / 2.0][rng.gen_range(0..4)];
            b.add_plan(qid, plan, speedup);
        }
    }
    for _ in 0..rng.gen_range(0..=n) {
        let target = rng.gen_range(0..n);
        let helper = (target + rng.gen_range(1..n)) % n;
        let share = [0.25, 0.5, 1.0][rng.gen_range(0..3)];
        b.add_build_interaction(ids[target], ids[helper], costs[target] * share);
    }
    // Edges along a random ranking stay acyclic.
    let mut rank: Vec<usize> = (0..n).collect();
    rank.shuffle(rng);
    for _ in 0..rng.gen_range(0..=n / 2) {
        let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if rank[x] < rank[y] {
            b.add_precedence(ids[x], ids[y]);
        }
    }
    b.build().expect("generated instance is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn best_swap_tabu_matches_the_reference_trajectory(seed in 0u64..u64::MAX) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let instance = random_instance(&mut rng);
        let nodes = rng.gen_range(1..=14u64);
        let tabu_length = rng.gen_range(0..=6usize);
        // The greedy seed respects every precedence; a shuffled start may
        // not, and both runs must still agree move for move.
        let initial = if rng.gen_bool(0.5) {
            GreedySolver::new().construct(&instance)
        } else {
            let mut order: Vec<usize> = (0..instance.num_indexes()).collect();
            order.shuffle(&mut rng);
            Deployment::from_raw(order)
        };

        let reference = reference_best_swap(&instance, initial.clone(), nodes, tabu_length);
        let result = TabuSolver::with_config(TabuConfig {
            strategy: SwapStrategy::Best,
            tabu_length,
            budget: SearchBudget::nodes(nodes),
            ..TabuConfig::default()
        })
        .solve(&instance, initial);

        prop_assert_eq!(result.deployment.as_ref().map(|d| d.order()), Some(reference.order.order()));
        prop_assert_eq!(result.objective.to_bits(), reference.objective.to_bits());
        let trajectory: Vec<u64> = result
            .trajectory
            .points()
            .iter()
            .map(|p| p.objective.to_bits())
            .collect();
        let expected: Vec<u64> = reference.trajectory.iter().map(|a| a.to_bits()).collect();
        prop_assert_eq!(trajectory, expected);
    }
}
