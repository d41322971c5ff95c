//! Tabu search over the swap neighbourhood (Section 7.1).
//!
//! Two variants are implemented, matching the paper:
//!
//! * **TS-BSwap** evaluates every feasible pair swap each iteration and takes
//!   the best one — high quality per iteration, but an iteration costs
//!   `O(n²)` objective evaluations (the paper measures ~50 minutes per
//!   iteration on TPC-DS).
//! * **TS-FSwap** scans pairs in a random order and takes the first improving
//!   swap — much cheaper iterations, lower quality per iteration.
//!
//! # The best-swap scan
//!
//! An iteration's cost is the row sweep: for each `lo`, one
//! [`DeltaEvaluator::swap_row`](idd_core::DeltaEvaluator::swap_row) scores
//! `swap(lo, hi)` for `hi = lo + 1..n`.
//! A pair still walks its span `(lo, hi]`, but a position costs one level
//! re-rounding (only where the level or the swap's runtime shift changed)
//! and one rewritten area term instead of re-deriving every plan
//! completion: on a 2-core x86-64 VM a scan takes 0.10 s on TPC-DS and
//! 0.13–0.17 s at n = 256, against 0.26–0.39 s and 0.9 s with one
//! `evaluate_swap` per pair.
//! Feasibility is O(1) per pair: a row ends at the first index that
//! `order[lo]` must precede, and a pair is skipped when a predecessor of
//! `order[hi]` sits in `[lo, hi)` (a per-iteration table of each position's
//! last predecessor).
//!
//! The moves are those of a pair-by-pair scan with `evaluate_swap`, bit for
//! bit: the row kernel's areas equal `evaluate_swap`'s (both accumulate
//! exactly and round once, so each level and area is the correctly rounded
//! exact value), and the scan visits the same pairs in the same row-major
//! order with the same strict `<`, tabu and aspiration tests — so the
//! trajectory matches iteration for iteration (`tests/tabu_differential.rs`
//! pins it against that reference). TS-FSwap keeps its shuffled pair list
//! and `evaluate_swap`: its scan order is random.
//!
//! Recently swapped indexes are *tabu* for a number of iterations (the tabu
//! length) unless the move improves on the best solution found so far
//! (aspiration).
//!
//! Inside a cooperative portfolio
//! ([`CooperationPolicy`](crate::solver::CooperationPolicy)) a stalled tabu
//! member re-seeds from the shared best deployment (clearing its tabu list,
//! which refers to the abandoned walk) and publishes the index pairs of
//! improving swaps as destroy-neighbourhood hints for LNS workers.

use crate::budget::SearchBudget;
use crate::local::{swap_is_feasible, RowFeasibility, Walk};
use crate::properties::AnalysisOptions;
use crate::result::SolveResult;
use crate::solver::{SolveContext, Solver};
use idd_core::{Deployment, IndexId, ProblemInstance};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Which swap to take each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapStrategy {
    /// Evaluate all pairs, take the best (TS-BSwap).
    Best,
    /// Take the first improving pair in a random scan (TS-FSwap).
    First,
}

/// Configuration of the tabu search.
#[derive(Debug, Clone)]
pub struct TabuConfig {
    /// Swap strategy.
    pub strategy: SwapStrategy,
    /// How many iterations a swapped index stays tabu.
    pub tabu_length: usize,
    /// Time / iteration budget.
    pub budget: SearchBudget,
    /// RNG seed (used by the first-swap scan order).
    pub seed: u64,
    /// Iterations without improvement on the member's own best before it
    /// counts as *stalled* and (under a warm-start policy) re-seeds from the
    /// shared best deployment. `None` (the default) derives a slice of the
    /// budget via [`crate::local::derived_stall_iterations`]; `Some(n)`
    /// overrides it. Ignored outside cooperative portfolio runs.
    pub stall_iterations: Option<u64>,
}

impl Default for TabuConfig {
    fn default() -> Self {
        Self {
            strategy: SwapStrategy::Best,
            tabu_length: 7,
            budget: SearchBudget::default(),
            seed: 0x7AB,
            stall_iterations: None,
        }
    }
}

/// The tabu-search solver.
#[derive(Debug, Clone)]
pub struct TabuSolver {
    config: TabuConfig,
}

impl TabuSolver {
    /// Creates a solver with the given strategy and budget.
    pub fn new(strategy: SwapStrategy, budget: SearchBudget) -> Self {
        Self {
            config: TabuConfig {
                strategy,
                budget,
                ..TabuConfig::default()
            },
        }
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: TabuConfig) -> Self {
        Self { config }
    }

    /// Improves `initial` until the budget runs out.
    pub fn solve(&self, instance: &ProblemInstance, initial: Deployment) -> SolveResult {
        self.solve_in(instance, initial, &SolveContext::new())
    }

    /// [`TabuSolver::solve`] inside a shared [`SolveContext`] (cancellable,
    /// publishing incumbent improvements).
    pub fn solve_in(
        &self,
        instance: &ProblemInstance,
        initial: Deployment,
        ctx: &SolveContext,
    ) -> SolveResult {
        self.search(instance, Some(initial), self.config.budget, ctx)
    }

    /// The search proper, from `initial` or else the greedy seed, on a
    /// clock started at entry ([`Walk::enter`]).
    fn search(
        &self,
        instance: &ProblemInstance,
        initial: Option<Deployment>,
        budget: SearchBudget,
        ctx: &SolveContext,
    ) -> SolveResult {
        let n = instance.num_indexes();
        // No property analysis: the hard precedences only.
        let mut walk = Walk::enter(
            instance,
            initial,
            budget,
            self.config.stall_iterations,
            AnalysisOptions::none(),
            ctx,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);

        // tabu_until[i] = first iteration at which index i may move again.
        let mut tabu_until = vec![0usize; n];
        while walk.next(|| tabu_until.fill(0)) {
            let iteration = walk.iterations as usize;
            // A move is admissible unless tabu; aspiration lets a tabu move
            // through if it beats the best.
            let admissible = |ia: IndexId, ib: IndexId, area: f64| {
                let is_tabu = tabu_until[ia.raw()] > iteration || tabu_until[ib.raw()] > iteration;
                !(is_tabu && area >= walk.area - 1e-12)
            };

            // Every move is scored against the walk's position: the
            // best-swap scan through the row kernel, the first-swap scan
            // pair by pair (an adjacent pair is O(1), a general pair
            // O(hi - lo)).
            let mut chosen: Option<(usize, usize, f64)> = None;
            match self.config.strategy {
                SwapStrategy::Best => {
                    // Row-major over (lo, hi): the same pairs in the same
                    // order as a pair list, scored by the row kernel.
                    let order = walk.delta.base().order().to_vec();
                    let feasibility = RowFeasibility::new(&walk.constraints, &order);
                    'scan: for lo in 0..n - 1 {
                        let mut row = walk.delta.swap_row(lo);
                        for hi in lo + 1..n {
                            if walk.clock.exhausted() {
                                break 'scan;
                            }
                            if feasibility.row_ends(&order, lo, hi) {
                                break;
                            }
                            if !feasibility.allows(lo, hi) {
                                continue;
                            }
                            let area = row.area(hi);
                            if !admissible(order[lo], order[hi], area) {
                                continue;
                            }
                            if chosen.is_none_or(|(_, _, v)| area < v) {
                                chosen = Some((lo, hi, area));
                            }
                        }
                    }
                }
                SwapStrategy::First => {
                    let current_area = walk.delta.base_area();
                    // The shuffled scan order matters here: keep the list.
                    let mut pairs: Vec<(usize, usize)> = Vec::new();
                    for a in 0..n {
                        for b in (a + 1)..n {
                            pairs.push((a, b));
                        }
                    }
                    pairs.shuffle(&mut rng);
                    for &(a, b) in &pairs {
                        if walk.clock.exhausted() {
                            break;
                        }
                        let order = walk.delta.base().order();
                        let (ia, ib) = (order[a], order[b]);
                        if !swap_is_feasible(&walk.constraints, order, a, b) {
                            continue;
                        }
                        let area = walk.delta.evaluate_swap(a, b);
                        if !admissible(ia, ib, area) {
                            continue;
                        }
                        if chosen.is_none_or(|(_, _, v)| area < v) {
                            chosen = Some((a, b, area));
                        }
                        if area < current_area - 1e-12 {
                            chosen = Some((a, b, area));
                            break;
                        }
                    }
                }
            }

            let (a, b, area) = match chosen {
                Some(c) => c,
                None => break, // every move tabu and none aspirates: stuck
            };
            let ia = walk.delta.base().order()[a];
            let ib = walk.delta.base().order()[b];
            walk.delta.commit_swap(a, b);
            tabu_until[ia.raw()] = iteration + self.config.tabu_length;
            tabu_until[ib.raw()] = iteration + self.config.tabu_length;
            if area < walk.area - 1e-12 {
                // The improving pair is a natural 2-index destroy set.
                walk.improved(area, vec![ia, ib]);
            }
        }
        walk.finish(self.name())
    }
}

impl Solver for TabuSolver {
    fn name(&self) -> &'static str {
        match self.config.strategy {
            SwapStrategy::Best => "ts-bswap",
            SwapStrategy::First => "ts-fswap",
        }
    }

    /// Starts from the interaction-guided greedy order (the paper's setup
    /// for every local search; see [`SolveContext::greedy_seed`]) and
    /// improves it under `budget`, which the seed is charged to.
    fn run(
        &self,
        instance: &ProblemInstance,
        budget: SearchBudget,
        ctx: &SolveContext,
    ) -> SolveResult {
        self.search(instance, None, budget, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedySolver;
    use idd_core::{IndexId, ObjectiveEvaluator};

    fn instance() -> ProblemInstance {
        let mut b = ProblemInstance::builder("tabu");
        let i: Vec<IndexId> = (0..8)
            .map(|k| b.add_index(2.0 + (k % 4) as f64 * 3.0))
            .collect();
        for q in 0..6 {
            let qid = b.add_query(50.0 + q as f64 * 15.0);
            b.add_plan(qid, vec![i[q % 8]], 8.0);
            b.add_plan(qid, vec![i[q % 8], i[(q + 3) % 8]], 22.0);
        }
        b.add_build_interaction(i[1], i[2], 1.5);
        b.add_build_interaction(i[5], i[4], 2.0);
        b.build().unwrap()
    }

    #[test]
    fn both_strategies_never_worsen_the_initial_solution() {
        let inst = instance();
        let eval = ObjectiveEvaluator::new(&inst);
        let initial = Deployment::identity(inst.num_indexes());
        let initial_area = eval.evaluate_area(&initial);
        for strategy in [SwapStrategy::Best, SwapStrategy::First] {
            let result =
                TabuSolver::new(strategy, SearchBudget::nodes(50)).solve(&inst, initial.clone());
            assert!(result.objective <= initial_area + 1e-9);
            let d = result.deployment.unwrap();
            assert!(d.is_valid_for(&inst));
            assert_eq!(eval.evaluate_area(&d), result.objective);
        }
    }

    #[test]
    fn improves_a_greedy_start_or_keeps_it() {
        let inst = instance();
        let greedy = GreedySolver::new().construct(&inst);
        let eval = ObjectiveEvaluator::new(&inst);
        let greedy_area = eval.evaluate_area(&greedy);
        let result =
            TabuSolver::new(SwapStrategy::Best, SearchBudget::nodes(100)).solve(&inst, greedy);
        assert!(result.objective <= greedy_area + 1e-9);
        assert!(!result.trajectory.is_empty());
    }

    #[test]
    fn respects_precedence_constraints() {
        let mut b = ProblemInstance::builder("tabu-prec");
        let i0 = b.add_index(8.0);
        let i1 = b.add_index(1.0);
        let i2 = b.add_index(2.0);
        let q = b.add_query(40.0);
        b.add_plan(q, vec![i1], 30.0);
        b.add_plan(q, vec![i2], 10.0);
        b.add_precedence(i0, i1);
        let inst = b.build().unwrap();
        let initial = Deployment::from_raw([0, 1, 2]);
        let result =
            TabuSolver::new(SwapStrategy::Best, SearchBudget::nodes(30)).solve(&inst, initial);
        assert!(result.deployment.unwrap().is_valid_for(&inst));
    }

    #[test]
    fn first_swap_is_deterministic_for_a_seed() {
        let inst = instance();
        let initial = Deployment::identity(inst.num_indexes());
        let run = |seed| {
            TabuSolver::with_config(TabuConfig {
                strategy: SwapStrategy::First,
                seed,
                budget: SearchBudget::nodes(40),
                ..TabuConfig::default()
            })
            .solve(&inst, initial.clone())
            .objective
        };
        assert_eq!(run(1), run(1));
    }
}
