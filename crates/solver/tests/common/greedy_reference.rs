//! The from-scratch greedy construction (Section 7.4, Algorithm 1): at
//! every step, every placeable candidate is re-scored against every query
//! on a cloned built set. It is the reference `GreedySolver::construct` must
//! reproduce bit for bit, ties included; it lives in test code only.
//!
//! Shared by the solver crate's differential proptest and the umbrella
//! crate's fixed-instance cases, which include it by path.

use idd_core::{Deployment, IndexId, ObjectiveEvaluator, ProblemInstance};
use idd_solver::greedy::GreedyConfig;
use idd_solver::OrderConstraints;

/// The greedy order for `instance` under `config`, computed from scratch.
pub fn reference_construct(instance: &ProblemInstance, config: GreedyConfig) -> Deployment {
    let n = instance.num_indexes();
    let evaluator = ObjectiveEvaluator::new(instance);
    let constraints = if config.respect_precedences {
        Some(OrderConstraints::from_instance(instance))
    } else {
        None
    };

    let mut order: Vec<IndexId> = Vec::with_capacity(n);
    let mut built = vec![false; n];

    for _ in 0..n {
        let mut best_index: Option<IndexId> = None;
        let mut best_density = f64::NEG_INFINITY;

        let current_runtime_by_query: Vec<f64> = instance
            .query_ids()
            .map(|q| instance.query_runtime(q) - evaluator.query_speedup_with(q, &built))
            .collect();

        for raw in 0..n {
            if built[raw] {
                continue;
            }
            let candidate = IndexId::new(raw);
            if let Some(c) = &constraints {
                if !c.can_place(candidate, &built) {
                    continue;
                }
            }

            // Immediate benefit of adding the candidate.
            let mut with_candidate = built.clone();
            with_candidate[raw] = true;
            let mut benefit = 0.0;
            for q in instance.query_ids() {
                let previous = current_runtime_by_query[q.raw()];
                let next =
                    instance.query_runtime(q) - evaluator.query_speedup_with(q, &with_candidate);
                benefit += previous - next;

                if config.interaction_credit {
                    // Credit for plans the candidate participates in that
                    // are still missing other indexes.
                    for &pid in instance.plans_of_query(q) {
                        let plan = instance.plan(pid);
                        if !plan.uses(candidate) {
                            continue;
                        }
                        let runtime_if_plan =
                            instance.query_runtime(q) - instance.plan_speedup(pid);
                        let interaction = next - runtime_if_plan;
                        let missing = plan
                            .indexes
                            .iter()
                            .filter(|i| !with_candidate[i.raw()])
                            .count();
                        if interaction > 0.0 && missing > 0 {
                            benefit += interaction / missing as f64;
                        }
                    }
                }
            }

            let cost = instance.effective_build_cost(candidate, &built).max(1e-12);
            let density = benefit / cost;
            if density > best_density {
                best_density = density;
                best_index = Some(candidate);
            }
        }

        // All remaining candidates blocked or zero-benefit: fall back to any
        // placeable index (ties broken by id for determinism).
        let chosen = best_index.unwrap_or_else(|| {
            (0..n)
                .map(IndexId::new)
                .find(|&i| {
                    !built[i.raw()]
                        && constraints
                            .as_ref()
                            .map(|c| c.can_place(i, &built))
                            .unwrap_or(true)
                })
                .expect("no placeable index left; precedence constraints are cyclic")
        });
        built[chosen.raw()] = true;
        order.push(chosen);
    }

    Deployment::new(order)
}
