//! The best-swap tabu search (TS-BSwap, Section 7.1) as it scanned before
//! the swap-row kernel: every iteration builds the list of all pairs, checks
//! each against the precedence closure over its whole window and scores it
//! with one `DeltaEvaluator::evaluate_swap`. `TabuSolver` with
//! `SwapStrategy::Best` must make the same moves bit for bit; this copy
//! lives in test code only.
//!
//! It mirrors the solver's loop under a node budget outside a portfolio
//! (no cooperation): iteration `k` counts its node first, and the pair
//! loop stops at once when the budget is spent, so the last iteration makes
//! no move.

use idd_core::{DeltaEvaluator, Deployment, IndexId, ProblemInstance};
use idd_solver::OrderConstraints;

/// The outcome of a reference run.
pub struct ReferenceRun {
    /// The best order found.
    pub order: Deployment,
    /// Its area.
    pub objective: f64,
    /// The areas the trajectory recorded, in order.
    pub trajectory: Vec<f64>,
}

/// Whether swapping positions `lo < hi` of `order` keeps every precedence,
/// checked pairwise over the whole window.
fn swap_is_feasible(
    constraints: &OrderConstraints,
    order: &[IndexId],
    lo: usize,
    hi: usize,
) -> bool {
    let (early, late) = (order[lo], order[hi]);
    for &other in &order[lo..=hi] {
        if other != late && constraints.must_precede(other, late) {
            return false;
        }
        if other != early && constraints.must_precede(early, other) {
            return false;
        }
    }
    true
}

/// Runs TS-BSwap from `initial` for `nodes` iterations with the given tabu
/// length.
pub fn reference_best_swap(
    instance: &ProblemInstance,
    initial: Deployment,
    nodes: u64,
    tabu_length: usize,
) -> ReferenceRun {
    let n = instance.num_indexes();
    let constraints = OrderConstraints::from_instance(instance);
    let mut evaluator = DeltaEvaluator::new(instance, initial.clone());
    let mut best_order = initial;
    let mut best_area = evaluator.base_area();
    let mut trajectory = vec![best_area];
    let mut tabu_until = vec![0usize; n];
    let mut iteration = 0usize;

    while (iteration as u64) < nodes && n >= 2 {
        iteration += 1;
        let exhausted = iteration as u64 >= nodes;

        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                pairs.push((a, b));
            }
        }
        let mut chosen: Option<(usize, usize, f64)> = None;
        for &(a, b) in &pairs {
            if exhausted {
                break;
            }
            let order = evaluator.base().order();
            let (ia, ib) = (order[a], order[b]);
            if !swap_is_feasible(&constraints, order, a, b) {
                continue;
            }
            let area = evaluator.evaluate_swap(a, b);
            let is_tabu = tabu_until[ia.raw()] > iteration || tabu_until[ib.raw()] > iteration;
            if is_tabu && area >= best_area - 1e-12 {
                continue;
            }
            if chosen.map(|(_, _, v)| area < v).unwrap_or(true) {
                chosen = Some((a, b, area));
            }
        }

        let Some((a, b, area)) = chosen else {
            break;
        };
        let ia = evaluator.base().order()[a];
        let ib = evaluator.base().order()[b];
        evaluator.commit_swap(a, b);
        tabu_until[ia.raw()] = iteration + tabu_length;
        tabu_until[ib.raw()] = iteration + tabu_length;
        if area < best_area - 1e-12 {
            best_area = area;
            best_order = evaluator.base().clone();
            if trajectory.last().is_none_or(|&last| area < last) {
                trajectory.push(area);
            }
        }
    }
    ReferenceRun {
        order: best_order,
        objective: best_area,
        trajectory,
    }
}
