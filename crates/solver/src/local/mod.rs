//! Local search methods (Section 7): Tabu search, LNS and VNS.
//!
//! All three start from an initial solution (normally the greedy order of
//! Algorithm 1) and improve it within a wall-clock budget, recording the
//! incumbent trajectory used by Figures 11–13. Each drives one `Walk`:
//! the walk enters the solver (clock first, then the greedy seed, then the
//! property analysis, all charged to the budget), starts each iteration
//! (adopting the portfolio's shared best when the member has stalled),
//! takes each improvement (record, publish, share the destroy set) and
//! builds the result. Only the move differs: tabu swaps; LNS and VNS share
//! the CP-powered *reinsertion search* in this module (`Walk::reinsert`):
//! a subset of indexes is removed from the current order and optimally
//! re-inserted by a small branch-and-prune search with a failure
//! (backtrack) limit, and both fall back on one shift probe
//! (`best_shift`): LNS to repair a destroy set the search gave up on,
//! VNS to polish an accepted reinsertion.

pub mod lns;
pub mod tabu;
pub mod vns;

pub use lns::{LnsConfig, LnsSolver};
pub use tabu::{SwapStrategy, TabuConfig, TabuSolver};
pub use vns::{VnsConfig, VnsSolver};

use crate::anytime::Trajectory;
use crate::budget::{BudgetClock, SearchBudget};
use crate::constraints::OrderConstraints;
use crate::exact::bounds::LowerBound;
use crate::exact::state::SearchState;
use crate::properties::{self, AnalysisOptions};
use crate::result::{CoopStats, SolveOutcome, SolveResult};
use crate::solver::{CooperationPolicy, IncumbentSnapshot, SolveContext};
use idd_core::{DeltaEvaluator, Deployment, IndexId, ProblemInstance};
use rand::SliceRandom;
use rand_chacha::ChaCha8Rng;
use std::ops::RangeInclusive;

/// Derives a stall threshold (iterations without improvement before a
/// member re-seeds from the shared best) as a *slice of the budget*, so the
/// knob scales with how long the member actually runs instead of being a
/// fixed per-config count:
///
/// * node-limited budgets stall after 1/8 of the iteration allowance — a
///   member gets several restart opportunities within its run, but each
///   basin is explored long enough to pay off;
/// * time-limited budgets assume the ~25 iterations/second a mid-size
///   instance sustains and take the same 1/8 slice of that;
/// * unlimited budgets fall back to a generous fixed threshold.
///
/// Every local-search config keeps an explicit override
/// (`stall_iterations: Some(n)`); this function only supplies the default.
pub fn derived_stall_iterations(budget: &SearchBudget) -> u64 {
    if let Some(nodes) = budget.node_limit {
        (nodes / 8).clamp(4, 2_000)
    } else if let Some(limit) = budget.time_limit {
        ((limit.as_secs_f64() * 25.0 / 8.0).ceil() as u64).clamp(4, 2_000)
    } else {
        200
    }
}

/// The walk every local search drives: the member protocol of tabu, LNS
/// and VNS in one place.
///
/// It owns
///
/// * the [`DeltaEvaluator`] whose base is the walk's position. LNS and VNS
///   only move to improvements, so for them the base is always the
///   incumbent; tabu also takes worsening swaps and keeps the incumbent in
///   `best`;
/// * the incumbent (`best`) and its canonical area (`area`), the
///   trajectory, the iteration count, the [`BudgetClock`] started at
///   solver entry and the order constraints the walk keeps to;
/// * stall detection and warm starts: once the member has gone
///   `stall_iterations` iterations without improving its own incumbent it
///   is *stalled* and (under a warm-start policy) re-seeds from the
///   portfolio's shared best deployment instead of grinding on its own
///   local optimum;
/// * one [`Walk::improved`] that records, publishes, shares the destroy
///   set that paid off and resets the stall count, and one
///   [`Walk::finish`] that emits the end-of-run counters and builds the
///   [`SolveResult`].
///
/// Every cooperative decision is gated on the context's
/// [`CooperationPolicy`], so under [`CooperationPolicy::Off`] the walks are
/// bit-identical to their non-cooperative selves.
pub(crate) struct Walk<'a> {
    ctx: &'a SolveContext,
    /// Scores moves against the walk's position (its base).
    pub delta: DeltaEvaluator<'a>,
    /// The property analysis's closure: every order the walk visits
    /// satisfies it.
    pub constraints: OrderConstraints,
    /// The member's incumbent.
    best: Deployment,
    /// The incumbent's canonical area.
    pub area: f64,
    /// Started at solver entry ([`Walk::enter`]).
    pub clock: BudgetClock,
    /// Iterations started so far.
    pub iterations: u64,
    trajectory: Trajectory,
    policy: CooperationPolicy,
    stall_iterations: u64,
    /// The iteration of the last improvement or restart.
    stall_anchor: u64,
    last_seen_epoch: u64,
    /// Counters reported through [`SolveResult::coop`].
    pub stats: CoopStats,
}

impl<'a> Walk<'a> {
    /// The one entry shell of the local searches. It starts the clock
    /// first, so all that follows is charged to `budget`: then the greedy
    /// seed when no `initial` order is given ([`SolveContext::greedy_seed`]),
    /// then the property `analysis` whose constraints the walk keeps to.
    /// The starting order is published at once.
    pub fn enter(
        instance: &'a ProblemInstance,
        initial: Option<Deployment>,
        budget: SearchBudget,
        stall_iterations: Option<u64>,
        analysis: AnalysisOptions,
        ctx: &'a SolveContext,
    ) -> Self {
        let clock = budget.start_cancellable(ctx.cancel_token());
        let initial = initial.unwrap_or_else(|| ctx.greedy_seed(instance));
        let constraints = properties::analyze(instance, analysis).constraints;
        let delta = DeltaEvaluator::new(instance, initial.clone());
        let area = delta.base_area();
        let mut trajectory = Trajectory::new();
        trajectory.record(clock.elapsed_seconds(), area);
        ctx.publish(area);
        Self {
            ctx,
            delta,
            constraints,
            best: initial,
            area,
            clock,
            iterations: 0,
            trajectory,
            policy: ctx.cooperation(),
            // A threshold of 0 would re-seed on every iteration; clamp to 1.
            stall_iterations: stall_iterations
                .unwrap_or_else(|| derived_stall_iterations(&budget))
                .max(1),
            stall_anchor: 0,
            last_seen_epoch: 0,
            stats: CoopStats::default(),
        }
    }

    /// Starts the next iteration, or returns `false` once the budget is
    /// spent (or there are fewer than two indexes to reorder). A stalled
    /// member first adopts the shared best deployment when it may and one
    /// is strictly better ([`Walk::stalled_adoption`]): the walk and its
    /// incumbent jump there, with the area re-derived canonically (the
    /// publisher may have computed it with naive arithmetic), and
    /// `on_adopt` runs (tabu clears its tabu list, which describes the
    /// abandoned walk).
    pub fn next(&mut self, on_adopt: impl FnOnce()) -> bool {
        if self.clock.exhausted() || self.best.len() < 2 {
            return false;
        }
        self.iterations += 1;
        self.clock.count_node();
        if let Some(snapshot) = self.stalled_adoption() {
            self.best = Deployment::new(snapshot.order);
            self.delta.set_base(self.best.clone());
            self.area = self.delta.base_area();
            on_adopt();
            self.trajectory
                .record(self.clock.elapsed_seconds(), self.area);
        }
        true
    }

    /// Returns a snapshot of the shared best deployment when the member (a)
    /// is allowed to warm-start, (b) has stalled, and (c) a *strictly
    /// better* foreign deployment that satisfies the member's own
    /// constraint closure has been published since it last looked.
    ///
    /// Every stall event counts as a restart; only successful adoptions
    /// count as adoptions (so `adoptions <= restarts` always holds).
    fn stalled_adoption(&mut self) -> Option<IncumbentSnapshot> {
        // Iterations finished since the anchor, this one excluded.
        if !self.policy.warm_starts()
            || self.iterations - 1 - self.stall_anchor < self.stall_iterations
        {
            return None;
        }
        self.stall_anchor = self.iterations - 1;
        self.stats.restarts += 1;
        idd_telemetry::mark("restart", format!("stall={}", self.stall_iterations));
        // Lock-free pre-check: nothing new published since the last look
        // (the member's own publications bump the epoch too, but they can
        // never be strictly better than its current incumbent).
        let epoch = self.ctx.incumbent().epoch();
        if epoch == self.last_seen_epoch {
            return None;
        }
        self.last_seen_epoch = epoch;
        let snapshot = self.ctx.incumbent().best_deployment()?;
        // Only adopt orders the member's own neighbourhood machinery can
        // work with: the closure may be stronger than the instance's hard
        // precedences when property analysis is enabled.
        if snapshot.objective < self.area - 1e-12
            && self.constraints.is_satisfied_by(&snapshot.order)
        {
            self.stats.adoptions += 1;
            idd_telemetry::mark_epoch(
                "adoption",
                format!("objective={:.4}", snapshot.objective),
                epoch,
            );
            Some(snapshot)
        } else {
            None
        }
    }

    /// `true` when the member shares and steals destroy-neighbourhood hints.
    pub fn steals(&self) -> bool {
        self.policy.steals()
    }

    /// The walk's position improved on the incumbent, to `area`: it becomes
    /// the incumbent, is recorded and published, and under a stealing
    /// policy `hint` — the destroy set that paid off — is shared, valued at
    /// the gain. Resets the stall count.
    pub fn improved(&mut self, area: f64, hint: Vec<IndexId>) {
        let gain = self.area - area;
        self.area = area;
        self.best = self.delta.base().clone();
        self.trajectory.record(self.clock.elapsed_seconds(), area);
        self.ctx.publish_deployment(area, self.best.order());
        if self.policy.steals() {
            idd_telemetry::mark(
                "hint-publish",
                format!("size={} gain={gain:.4}", hint.len()),
            );
            self.ctx.hints().push_scored(hint, gain);
            self.stats.hints_published += 1;
        }
        self.stall_anchor = self.iterations;
    }

    /// LNS and VNS's destroy–reinsert step: keeps every index outside
    /// `relaxed` in the incumbent's relative order and asks the reinsertion
    /// search for a strictly better completion. An improvement becomes the
    /// walk's position, and its canonical area is returned: the incumbent
    /// moves only with [`Walk::improved`], which the caller may polish
    /// before. Also returns whether the neighbourhood was searched
    /// exhaustively.
    pub fn reinsert(
        &mut self,
        bound: &LowerBound,
        relaxed: &[IndexId],
        failure_limit: u64,
    ) -> (Option<f64>, bool) {
        let fixed: Vec<IndexId> = self
            .delta
            .base()
            .order()
            .iter()
            .copied()
            .filter(|i| !relaxed.contains(i))
            .collect();
        let result = reinsert(
            self.delta.evaluator().instance(),
            &self.constraints,
            bound,
            &fixed,
            relaxed,
            self.area,
            failure_limit,
        );
        let area = result.order.map(|order| {
            self.delta.set_base(Deployment::new(order));
            // The reinsertion search's running sum is naive; the walk
            // publishes the canonical evaluation instead.
            let area = self.delta.base_area();
            debug_assert!(
                (result.area - area).abs() <= 1e-6 * area.abs().max(1.0),
                "naive reinsertion sum drifted from the canonical area"
            );
            area
        });
        (area, result.proved)
    }

    /// Emits the member's end-of-run totals — the iteration count plus
    /// every [`CoopStats`] counter — onto the calling thread's telemetry
    /// track (a no-op without an installed recorder) and returns the
    /// incumbent as `solver`'s result.
    pub fn finish(self, solver: &str) -> SolveResult {
        idd_telemetry::counter("iterations", self.iterations);
        idd_telemetry::counter("restarts", self.stats.restarts);
        idd_telemetry::counter("adoptions", self.stats.adoptions);
        idd_telemetry::counter("hints_stolen", self.stats.hints_stolen);
        idd_telemetry::counter("hints_published", self.stats.hints_published);
        SolveResult {
            solver: solver.to_string(),
            deployment: Some(self.best),
            objective: self.area,
            outcome: SolveOutcome::Feasible,
            elapsed_seconds: self.clock.elapsed_seconds(),
            nodes: self.iterations,
            trajectory: self.trajectory,
            coop: self.stats,
        }
    }
}

/// `count` distinct indexes out of `n`, drawn uniformly: the random destroy
/// set of LNS and VNS.
pub(crate) fn random_destroy_set(rng: &mut ChaCha8Rng, n: usize, count: usize) -> Vec<IndexId> {
    let mut ids: Vec<usize> = (0..n).collect();
    ids.shuffle(rng);
    ids[..count].iter().map(|&r| IndexId::new(r)).collect()
}

/// The shift probe of LNS repair and VNS polish: relocates the index at
/// `from` to the position in `window` with the lowest area strictly below
/// `area` that keeps the order feasible (the first such position on a
/// tie), commits it and returns the new area; `None` (nothing committed)
/// when no shift improves. Each probe costs `O(|from - to|)` on the delta
/// path.
pub(crate) fn best_shift(
    delta: &mut DeltaEvaluator<'_>,
    constraints: &OrderConstraints,
    from: usize,
    window: RangeInclusive<usize>,
    area: f64,
) -> Option<f64> {
    let mut best: Option<(usize, f64)> = None;
    for to in window {
        if to == from || !shift_is_feasible(constraints, delta.base().order(), from, to) {
            continue;
        }
        let candidate = delta.evaluate_shift(from, to);
        if candidate < area - 1e-12 && best.is_none_or(|(_, v)| candidate < v) {
            best = Some((to, candidate));
        }
    }
    let (to, area) = best?;
    delta.commit_shift(from, to);
    Some(area)
}

/// Filters a stolen destroy-neighbourhood hint down to distinct, in-range
/// index ids. Hints always originate from the same instance inside one
/// portfolio run, but the deque is a public surface — never trust a hint to
/// index into per-instance arrays unchecked.
pub(crate) fn sanitize_hint(hint: Vec<IndexId>, n: usize) -> Vec<IndexId> {
    let mut seen = vec![false; n];
    hint.into_iter()
        .filter(|i| i.raw() < n && !std::mem::replace(&mut seen[i.raw()], true))
        .collect()
}

/// Result of one reinsertion search.
#[derive(Debug, Clone)]
pub(crate) struct ReinsertionResult {
    /// The best complete order found, if it improves on the incumbent.
    pub order: Option<Vec<IndexId>>,
    /// Its objective area (only meaningful when `order` is `Some`).
    pub area: f64,
    /// `true` when the neighbourhood was searched exhaustively (no better
    /// solution exists in it); `false` when the failure limit was hit first.
    pub proved: bool,
}

/// Optimally re-inserts `relaxed` into the sequence `fixed` (whose relative
/// order is preserved), looking for an order strictly better than
/// `incumbent_area`. The search backtracks at most `failure_limit` times.
pub(crate) fn reinsert(
    instance: &ProblemInstance,
    constraints: &OrderConstraints,
    bound: &LowerBound,
    fixed: &[IndexId],
    relaxed: &[IndexId],
    incumbent_area: f64,
    failure_limit: u64,
) -> ReinsertionResult {
    struct Ctx<'a> {
        instance: &'a ProblemInstance,
        constraints: &'a OrderConstraints,
        bound: &'a LowerBound,
        fixed: &'a [IndexId],
        relaxed: &'a [IndexId],
        best_area: f64,
        best_order: Option<Vec<IndexId>>,
        failures: u64,
        failure_limit: u64,
        aborted: bool,
    }

    fn dfs(
        ctx: &mut Ctx<'_>,
        state: &mut SearchState<'_>,
        order: &mut Vec<IndexId>,
        next_fixed: usize,
        relaxed_used: &mut Vec<bool>,
    ) {
        if ctx.aborted {
            return;
        }
        if state.is_complete() {
            if state.area() < ctx.best_area - 1e-12 {
                ctx.best_area = state.area();
                ctx.best_order = Some(order.clone());
            }
            return;
        }
        let lb = state.area() + ctx.bound.remaining(state.built(), state.runtime());
        if lb >= ctx.best_area - 1e-12 {
            ctx.failures += 1;
            if ctx.failures > ctx.failure_limit {
                ctx.aborted = true;
            }
            return;
        }

        // Candidate moves: the next fixed index, then each unused relaxed
        // index (relaxed first would also work; fixed-first keeps the search
        // close to the incumbent which finds improvements faster).
        let mut candidates: Vec<(bool, usize, IndexId)> = Vec::new();
        if next_fixed < ctx.fixed.len() {
            candidates.push((true, next_fixed, ctx.fixed[next_fixed]));
        }
        for (pos, &r) in ctx.relaxed.iter().enumerate() {
            if !relaxed_used[pos] {
                candidates.push((false, pos, r));
            }
        }

        let mut any_feasible = false;
        for (is_fixed, pos, index) in candidates {
            if ctx.aborted {
                return;
            }
            if !ctx.constraints.can_place(index, state.built()) {
                continue;
            }
            any_feasible = true;
            let undo = state.push(index);
            order.push(index);
            if is_fixed {
                dfs(ctx, state, order, next_fixed + 1, relaxed_used);
            } else {
                relaxed_used[pos] = true;
                dfs(ctx, state, order, next_fixed, relaxed_used);
                relaxed_used[pos] = false;
            }
            order.pop();
            state.pop(undo);
        }
        if !any_feasible {
            ctx.failures += 1;
            if ctx.failures > ctx.failure_limit {
                ctx.aborted = true;
            }
        }
    }

    let mut ctx = Ctx {
        instance,
        constraints,
        bound,
        fixed,
        relaxed,
        best_area: incumbent_area,
        best_order: None,
        failures: 0,
        failure_limit,
        aborted: false,
    };
    let mut state = SearchState::new(instance);
    let mut order = Vec::with_capacity(instance.num_indexes());
    let mut relaxed_used = vec![false; relaxed.len()];
    dfs(&mut ctx, &mut state, &mut order, 0, &mut relaxed_used);
    let _ = ctx.instance;

    ReinsertionResult {
        order: ctx.best_order,
        area: ctx.best_area,
        proved: !ctx.aborted,
    }
}

/// Checks whether swapping the indexes at `a` and `b` (a < b is not required)
/// keeps the order feasible under the precedence closure.
pub(crate) fn swap_is_feasible(
    constraints: &OrderConstraints,
    order: &[IndexId],
    a: usize,
    b: usize,
) -> bool {
    if a == b {
        return true;
    }
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let early = order[lo]; // moves later
    let late = order[hi]; // moves earlier
                          // `late` moves to position lo: nothing between lo..hi may be required
                          // before it, and it must not be required after `early`... the pairwise
                          // check against every index in the window (inclusive) covers both.
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

/// [`swap_is_feasible`] for every pair of one order in O(1) each, for a scan
/// that visits `swap(lo, hi)` row by row with `hi` ascending (the best-swap
/// tabu scan). Built once per order in `O(n²)` closure lookups, or `O(n)`
/// when there are no precedences.
pub(crate) struct RowFeasibility<'c> {
    constraints: &'c OrderConstraints,
    /// Per position `k`: 1 + the position of the last index before `k` that
    /// must precede `order[k]` (0: none). Empty without precedences.
    last_pred: Vec<usize>,
}

impl<'c> RowFeasibility<'c> {
    pub fn new(constraints: &'c OrderConstraints, order: &[IndexId]) -> Self {
        let last_pred = if constraints.num_ordered_pairs() == 0 {
            Vec::new()
        } else {
            (0..order.len())
                .map(|k| {
                    (0..k)
                        .rev()
                        .find(|&j| constraints.must_precede(order[j], order[k]))
                        .map_or(0, |j| j + 1)
                })
                .collect()
        };
        Self {
            constraints,
            last_pred,
        }
    }

    /// `true` when `order[lo]` must precede `order[hi]`: this pair and every
    /// later pair of the row would move `order[hi]` before `order[lo]`.
    pub fn row_ends(&self, order: &[IndexId], lo: usize, hi: usize) -> bool {
        !self.last_pred.is_empty() && self.constraints.must_precede(order[lo], order[hi])
    }

    /// Whether `swap(lo, hi)` is feasible, in a row that did not end before
    /// `hi`: no index in `[lo, hi)` must precede `order[hi]`.
    pub fn allows(&self, lo: usize, hi: usize) -> bool {
        self.last_pred.is_empty() || self.last_pred[hi] <= lo
    }
}

/// Checks whether relocating the index at `from` to position `to` (the
/// [`Deployment::relocate`](idd_core::Deployment) move scored by
/// [`DeltaEvaluator::evaluate_shift`](idd_core::DeltaEvaluator)) keeps the
/// order feasible under the precedence closure.
pub(crate) fn shift_is_feasible(
    constraints: &OrderConstraints,
    order: &[IndexId],
    from: usize,
    to: usize,
) -> bool {
    if from == to {
        return true;
    }
    let moved = order[from];
    if from < to {
        // `moved` jumps after order[from+1 ..= to]: it must not be required
        // before any of them.
        order[from + 1..=to]
            .iter()
            .all(|&other| !constraints.must_precede(moved, other))
    } else {
        // `moved` jumps before order[to .. from]: none of them may be
        // required before it.
        order[to..from]
            .iter()
            .all(|&other| !constraints.must_precede(other, moved))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idd_core::{Deployment, ObjectiveEvaluator};

    fn instance() -> ProblemInstance {
        let mut b = ProblemInstance::builder("local");
        let i: Vec<IndexId> = (0..5).map(|k| b.add_index(2.0 + k as f64)).collect();
        let q0 = b.add_query(60.0);
        b.add_plan(q0, vec![i[0]], 10.0);
        b.add_plan(q0, vec![i[0], i[1]], 30.0);
        let q1 = b.add_query(40.0);
        b.add_plan(q1, vec![i[2]], 15.0);
        let q2 = b.add_query(50.0);
        b.add_plan(q2, vec![i[3], i[4]], 25.0);
        b.add_build_interaction(i[1], i[0], 1.0);
        b.build().unwrap()
    }

    #[test]
    fn reinsertion_with_everything_relaxed_finds_the_optimum() {
        let inst = instance();
        let constraints = OrderConstraints::from_instance(&inst);
        let bound = LowerBound::new(&inst);
        let all: Vec<IndexId> = inst.index_ids().collect();
        let result = reinsert(
            &inst,
            &constraints,
            &bound,
            &[],
            &all,
            f64::INFINITY,
            u64::MAX,
        );
        assert!(result.proved);
        let best = result.order.expect("some order must beat infinity");
        // Compare against the CP optimum.
        let cp = crate::exact::cp::CpSolver::with_config(crate::exact::cp::CpConfig::plain(
            crate::budget::SearchBudget::unlimited(),
        ))
        .solve(&inst);
        assert!((result.area - cp.objective).abs() < 1e-6);
        assert!(Deployment::new(best).is_valid_for(&inst));
    }

    #[test]
    fn reinsertion_respects_the_incumbent_bound() {
        let inst = instance();
        let constraints = OrderConstraints::from_instance(&inst);
        let bound = LowerBound::new(&inst);
        let eval = ObjectiveEvaluator::new(&inst);
        let identity = Deployment::identity(5);
        let incumbent = eval.evaluate_area(&identity);
        // Relax nothing: the only completion is the incumbent itself, which
        // is not strictly better, so no order is returned.
        let result = reinsert(
            &inst,
            &constraints,
            &bound,
            identity.order(),
            &[],
            incumbent,
            1000,
        );
        assert!(result.order.is_none());
    }

    #[test]
    fn failure_limit_stops_the_search() {
        let inst = instance();
        let constraints = OrderConstraints::from_instance(&inst);
        let bound = LowerBound::new(&inst);
        let all: Vec<IndexId> = inst.index_ids().collect();
        let result = reinsert(&inst, &constraints, &bound, &[], &all, 1e-9, 0);
        // Nothing beats an incumbent of ~0, and the failure limit of zero is
        // exceeded by the very first pruned node.
        assert!(!result.proved);
        assert!(result.order.is_none());
    }

    #[test]
    fn stall_threshold_is_a_slice_of_the_budget() {
        use crate::budget::SearchBudget;
        // Node-limited: 1/8 of the allowance, clamped below by 4.
        assert_eq!(derived_stall_iterations(&SearchBudget::nodes(800)), 100);
        assert_eq!(derived_stall_iterations(&SearchBudget::nodes(10)), 4);
        assert_eq!(
            derived_stall_iterations(&SearchBudget::nodes(1_000_000)),
            2_000
        );
        // Time-limited: ~25 iterations/second, same 1/8 slice.
        assert_eq!(derived_stall_iterations(&SearchBudget::seconds(8.0)), 25);
        assert_eq!(derived_stall_iterations(&SearchBudget::seconds(0.1)), 4);
        // Unlimited: fixed generous fallback.
        assert_eq!(derived_stall_iterations(&SearchBudget::unlimited()), 200);
        // A bounded budget prefers the node limit (machine-independent).
        assert_eq!(
            derived_stall_iterations(&SearchBudget::bounded(100.0, 80)),
            10
        );
    }

    #[test]
    fn swap_feasibility_respects_precedences() {
        let mut b = ProblemInstance::builder("swap");
        let i0 = b.add_index(1.0);
        let i1 = b.add_index(1.0);
        let i2 = b.add_index(1.0);
        let q = b.add_query(10.0);
        b.add_plan(q, vec![i0], 1.0);
        b.add_precedence(i0, i2);
        let inst = b.build().unwrap();
        let constraints = OrderConstraints::from_instance(&inst);
        let order = vec![i0, i1, i2];
        assert!(swap_is_feasible(&constraints, &order, 1, 2)); // i1 <-> i2 fine
        assert!(!swap_is_feasible(&constraints, &order, 0, 2)); // i2 before i0: no
        assert!(swap_is_feasible(&constraints, &order, 0, 1)); // i1 before i0: fine
        assert!(swap_is_feasible(&constraints, &order, 1, 1));
    }

    #[test]
    fn row_feasibility_matches_swap_is_feasible_on_every_pair() {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        for seed in 0..40u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(2..=24usize);
            let mut b = ProblemInstance::builder("row-feasibility");
            let ids: Vec<IndexId> = (0..n).map(|_| b.add_index(1.0)).collect();
            let q = b.add_query(10.0);
            b.add_plan(q, vec![ids[0]], 1.0);
            // Edges along a random ranking stay acyclic.
            let mut rank: Vec<usize> = (0..n).collect();
            rank.shuffle(&mut rng);
            for _ in 0..rng.gen_range(0..=n) {
                let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if rank[x] < rank[y] {
                    b.add_precedence(ids[x], ids[y]);
                }
            }
            let inst = b.build().unwrap();
            let constraints = OrderConstraints::from_instance(&inst);
            // Random orders, feasible or not: the two checks must agree.
            for _ in 0..4 {
                let mut order = ids.clone();
                order.shuffle(&mut rng);
                let rows = RowFeasibility::new(&constraints, &order);
                for lo in 0..n {
                    let mut ended = false;
                    for hi in lo + 1..n {
                        ended |= rows.row_ends(&order, lo, hi);
                        let fast = !ended && rows.allows(lo, hi);
                        assert_eq!(
                            fast,
                            swap_is_feasible(&constraints, &order, lo, hi),
                            "seed {seed}: swap ({lo}, {hi}) of {order:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shift_feasibility_respects_precedences() {
        let mut b = ProblemInstance::builder("shift");
        let i0 = b.add_index(1.0);
        let i1 = b.add_index(1.0);
        let i2 = b.add_index(1.0);
        let i3 = b.add_index(1.0);
        let q = b.add_query(10.0);
        b.add_plan(q, vec![i0], 1.0);
        b.add_precedence(i0, i2);
        let inst = b.build().unwrap();
        let constraints = OrderConstraints::from_instance(&inst);
        let order = vec![i0, i1, i2, i3];
        // Forward: i0 may slide to 1 (past i1) but not past its dependent i2.
        assert!(shift_is_feasible(&constraints, &order, 0, 1));
        assert!(!shift_is_feasible(&constraints, &order, 0, 2));
        assert!(!shift_is_feasible(&constraints, &order, 0, 3));
        // Backward: i2 may not move before its prerequisite i0; i3 may move
        // anywhere (it is unconstrained).
        assert!(shift_is_feasible(&constraints, &order, 2, 1));
        assert!(!shift_is_feasible(&constraints, &order, 2, 0));
        assert!(shift_is_feasible(&constraints, &order, 3, 0));
        assert!(shift_is_feasible(&constraints, &order, 1, 1));
        // Every feasible shift matches the brute-force relocate check.
        let eval_order = Deployment::new(order.clone());
        for from in 0..4 {
            for to in 0..4 {
                let relocated = {
                    let mut d = eval_order.clone();
                    d.relocate(from, to);
                    d
                };
                let expected = constraints.is_satisfied_by(relocated.order());
                assert_eq!(
                    shift_is_feasible(&constraints, &order, from, to),
                    expected,
                    "shift {from}->{to}"
                );
            }
        }
    }
}
