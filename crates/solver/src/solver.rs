//! The unified [`Solver`] trait and the shared-state primitives behind it.
//!
//! Every solution technique in this crate — constructive heuristics, exact
//! searches and local searches alike — answers the same question: *given a
//! [`ProblemInstance`] and a [`SearchBudget`], what is the best deployment
//! order you can find?* The [`Solver`] trait captures exactly that contract
//! (instance + budget + a [`SolveContext`] in, [`SolveResult`] out), so
//! callers can hold a `Box<dyn Solver>` and stay agnostic of which technique
//! runs behind it.
//!
//! The [`SolveContext`] carries the pieces of state that let several solvers
//! cooperate inside one wall-clock window (the [`portfolio`](crate::portfolio)
//! runner):
//!
//! * a [`CancelToken`] — a shared atomic flag checked by every search loop
//!   through [`BudgetClock::exhausted`](crate::budget::BudgetClock::exhausted),
//!   so one thread proving optimality stops the others cooperatively;
//! * a [`SharedIncumbent`] — a *versioned* best-solution cell: the best
//!   objective published by any cooperating solver stays lock-free (a
//!   compare-and-swap loop over the f64 bit pattern), and the best
//!   *deployment order* is published alongside it under a small mutex with a
//!   monotone epoch counter, so members can warm-start from each other's
//!   incumbents, not just observe their scores;
//! * a [`NeighborhoodHints`] deque — successful destroy neighbourhoods
//!   published by the local searches, stolen by LNS workers on other threads;
//! * a [`CooperationPolicy`] — how much of the above the members may *read*
//!   ([`CooperationPolicy::Off`] reproduces the pre-cooperation race
//!   bit-for-bit);
//! * inside a portfolio race, the race's greedy seed
//!   ([`SolveContext::greedy_seed`]): the first member that asks builds it,
//!   the others wait for it and start from the same order.
//!
//! Exact solvers only ever *publish* to the shared incumbent; they never use
//! it to prune their own search. Pruning against a bound whose deployment
//! lives in another thread could make an exact solver discard its entire tree
//! and still report `Optimal` without holding a matching solution, so the
//! proofs stay sound by construction. Local searches *may* additionally
//! adopt the shared best deployment on stall (it is a feasible order for the
//! same instance, never a bound), which preserves that soundness argument.

use crate::budget::SearchBudget;
use crate::greedy::GreedySolver;
use crate::result::SolveResult;
use idd_core::{Deployment, IndexId, ProblemInstance};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A cooperative cancellation flag shared between solver threads.
///
/// Cloning the token clones the *handle*, not the flag: all clones observe
/// and control the same underlying state.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Every solver loop holding a clone of this
    /// token stops at its next budget check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A snapshot of the best published *deployment*: its epoch (monotone
/// publication counter), its objective, and the order itself.
#[derive(Debug, Clone, PartialEq)]
pub struct IncumbentSnapshot {
    /// Monotone publication counter: strictly increases with every accepted
    /// deployment publication, so readers can cheaply detect "anything new
    /// since I last looked?" without re-cloning the order.
    pub epoch: u64,
    /// Objective area of `order`.
    pub objective: f64,
    /// The deployment order that achieves `objective`.
    pub order: Vec<IndexId>,
}

/// The best solution published by any cooperating solver — a *versioned*
/// incumbent cell.
///
/// Two tiers, with different synchronization costs:
///
/// * the best **objective** is lock-free: objectives are non-negative finite
///   areas (with `f64::INFINITY` as "no solution yet"), so their IEEE-754
///   bit patterns order the same way the values do and a CAS loop over
///   [`AtomicU64`] implements an atomic min — solvers poll
///   [`SharedIncumbent::best`] on their hot path without ever blocking;
/// * the best **deployment order** lives in an epoch-counted
///   `Mutex<Option<IncumbentSnapshot>>`. Writers take the lock only on an
///   actual improvement (rare), readers only when the lock-free
///   [`SharedIncumbent::epoch`] says something new was published.
///
/// Invariants, preserved under arbitrary interleavings (and locked down by
/// the `cooperation` test suite):
///
/// * the atomic objective is monotone non-increasing;
/// * the stored snapshot's objective is monotone non-increasing and its
///   epoch strictly increases with every accepted write — a worse deployment
///   can never overwrite a better one;
/// * the stored order always re-evaluates to the stored objective (writers
///   must offer matching pairs; the cell never mixes one writer's objective
///   with another's order because both move under one lock);
/// * `best() <= snapshot.objective` at every instant (the atomic may run
///   ahead while a publisher is between its CAS and its slot write, and
///   objective-only offers never touch the slot).
#[derive(Debug)]
pub struct SharedIncumbent {
    bits: AtomicU64,
    epoch: AtomicU64,
    slot: Mutex<Option<IncumbentSnapshot>>,
}

impl Default for SharedIncumbent {
    fn default() -> Self {
        Self {
            bits: AtomicU64::new(f64::INFINITY.to_bits()),
            epoch: AtomicU64::new(0),
            slot: Mutex::new(None),
        }
    }
}

impl SharedIncumbent {
    /// Creates an empty incumbent (best = ∞, no deployment, epoch 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers an objective value; keeps it only if it improves on the
    /// current best. Returns `true` when the offer became the new best.
    ///
    /// This is the lock-free fast path. It never touches the deployment
    /// slot — use [`SharedIncumbent::offer_deployment`] to publish an order
    /// alongside its objective.
    pub fn offer(&self, objective: f64) -> bool {
        if !objective.is_finite() {
            return false;
        }
        let mut current = self.bits.load(Ordering::Acquire);
        loop {
            if objective >= f64::from_bits(current) {
                return false;
            }
            match self.bits.compare_exchange_weak(
                current,
                objective.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
    }

    /// Offers a deployment order together with its objective. The objective
    /// participates in the lock-free minimum exactly like
    /// [`SharedIncumbent::offer`]; the order additionally replaces the stored
    /// snapshot when it strictly improves on it, bumping the epoch.
    ///
    /// Returns `true` when the deployment became the new stored best.
    ///
    /// The slot comparison happens *under the lock* (not against the atomic):
    /// a publisher that won the CAS but lost the race to the lock must not
    /// overwrite a better deployment that landed in between.
    pub fn offer_deployment(&self, objective: f64, order: &[IndexId]) -> bool {
        if !objective.is_finite() {
            return false;
        }
        self.offer(objective);
        let mut slot = self.lock_slot();
        let improves = match slot.as_ref() {
            Some(current) => objective < current.objective - 1e-12,
            None => true,
        };
        if improves {
            // Bump inside the lock so snapshot epochs strictly increase in
            // the same order their objectives decrease.
            let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
            *slot = Some(IncumbentSnapshot {
                epoch,
                objective,
                order: order.to_vec(),
            });
        }
        improves
    }

    /// The best objective offered so far (∞ when none). Lock-free.
    pub fn best(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }

    /// The epoch of the last accepted deployment publication (0 when none).
    /// Lock-free — poll this before paying for
    /// [`SharedIncumbent::best_deployment`]'s lock and clone.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// A clone of the best published deployment, if any.
    pub fn best_deployment(&self) -> Option<IncumbentSnapshot> {
        self.lock_slot().clone()
    }

    fn lock_slot(&self) -> std::sync::MutexGuard<'_, Option<IncumbentSnapshot>> {
        // A poisoned slot only means a peer panicked mid-publish *between*
        // field writes, which cannot happen (the snapshot is replaced
        // wholesale); recover rather than cascade the panic.
        self.slot
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// How much of the shared state portfolio members may *read*.
///
/// Publishing is always on (it is free of behavioural feedback); the policy
/// gates the feedback paths, so [`CooperationPolicy::Off`] reproduces the
/// independent race of the pre-cooperation portfolio bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CooperationPolicy {
    /// Members never read shared state: a pure race (the PR 2 behaviour,
    /// kept as the default for reproducibility).
    #[default]
    Off,
    /// Local searches that stall re-seed from the shared best deployment.
    WarmStart,
    /// Warm-starts plus the work-stealing hint deque: local searches publish
    /// the destroy neighbourhoods that produced improvements, and LNS
    /// workers steal them instead of always drawing random ones.
    WarmStartSteal,
}

impl CooperationPolicy {
    /// `true` when members may adopt the shared best deployment on stall.
    pub fn warm_starts(&self) -> bool {
        !matches!(self, CooperationPolicy::Off)
    }

    /// `true` when the hint deque is active.
    pub fn steals(&self) -> bool {
        matches!(self, CooperationPolicy::WarmStartSteal)
    }
}

impl std::str::FromStr for CooperationPolicy {
    type Err = String;

    /// Parses the CLI vocabulary shared by the `table8` binary and the
    /// `portfolio` example (`--coop off|warm|steal`), so every front-end
    /// accepts the same names and rejects the same typos — a mistyped
    /// policy must never silently fall back to a different experiment.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(CooperationPolicy::Off),
            "warm" | "warm_start" => Ok(CooperationPolicy::WarmStart),
            "steal" | "warm_start_steal" => Ok(CooperationPolicy::WarmStartSteal),
            other => Err(format!(
                "unknown cooperation policy {other:?} (expected off|warm|steal)"
            )),
        }
    }
}

/// One queued destroy-neighbourhood hint: the index set, the objective
/// improvement its relaxation produced (the hint's *value*), and the push
/// clock at which it was published (its *age*).
#[derive(Debug)]
struct HintEntry {
    hint: Vec<IndexId>,
    score: f64,
    born: u64,
}

/// The mutexed interior of [`NeighborhoodHints`]: entries in publication
/// order (so `born` is non-decreasing front to back) plus the push clock.
#[derive(Debug, Default)]
struct HintState {
    entries: VecDeque<HintEntry>,
    clock: u64,
}

/// A small bounded work-stealing deque of *destroy-neighbourhood hints*:
/// index sets whose relaxation recently produced an improvement somewhere in
/// the portfolio. Owned by the portfolio run (via [`SolveContext`]); local
/// searches push on improvement, LNS workers steal.
///
/// Hints are *scored* by the improvement that produced them and *aged* by a
/// push clock, fixing two failure modes of a blind bounded FIFO: a burst of
/// marginal improvements could flush the one hint that mattered, and a hint
/// could sit forever in a quiet deque long after its neighbourhood went
/// stale. Semantics:
///
/// * **Steal** returns the highest-scored hint (ties: oldest first).
/// * **Eviction** at capacity removes the lowest-scored hint — and when the
///   incoming hint scores strictly below every queued one, the incoming
///   hint itself is the one dropped.
/// * **Aging:** every push advances a clock; entries older than
///   [`NeighborhoodHints::AGE_LIMIT`] pushes are discarded.
///
/// With all-equal scores (e.g. every publisher using [`push`](Self::push))
/// this degenerates to exactly the old bounded-FIFO behaviour. A mutexed
/// ring buffer is deliberately chosen over a fancier lock-free deque: hints
/// flow at improvement frequency (a few per second), so contention is
/// negligible and the invariants stay obvious.
#[derive(Debug)]
pub struct NeighborhoodHints {
    state: Mutex<HintState>,
    capacity: usize,
}

impl Default for NeighborhoodHints {
    fn default() -> Self {
        Self::with_capacity(16)
    }
}

impl NeighborhoodHints {
    /// A hint published more than this many pushes ago is stale: the search
    /// has moved on, and relaxing a neighbourhood that paid off 64
    /// improvements earlier is no better than a random draw.
    pub const AGE_LIMIT: u64 = 64;

    /// An empty deque holding at most `capacity` hints.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            state: Mutex::new(HintState::default()),
            capacity: capacity.max(1),
        }
    }

    /// Publishes an unscored hint — equivalent to
    /// [`push_scored`](Self::push_scored) with a zero improvement.
    pub fn push(&self, hint: Vec<IndexId>) {
        self.push_scored(hint, 0.0);
    }

    /// Publishes a hint valued at the objective `improvement` its
    /// relaxation produced. Empty hints are ignored (nothing to relax);
    /// non-finite or negative improvements are clamped to zero.
    pub fn push_scored(&self, hint: Vec<IndexId>, improvement: f64) {
        if hint.is_empty() {
            return;
        }
        let score = if improvement.is_finite() && improvement > 0.0 {
            improvement
        } else {
            0.0
        };
        let mut state = self.lock();
        state.clock += 1;
        let clock = state.clock;
        while state
            .entries
            .front()
            .is_some_and(|e| e.born + Self::AGE_LIMIT <= clock)
        {
            state.entries.pop_front();
        }
        if state.entries.len() >= self.capacity {
            // Scan front-to-back with strict `<` so ties evict the oldest.
            let (weakest, weakest_score) =
                state
                    .entries
                    .iter()
                    .enumerate()
                    .fold((0, f64::INFINITY), |acc, (k, e)| {
                        if e.score < acc.1 {
                            (k, e.score)
                        } else {
                            acc
                        }
                    });
            if score < weakest_score {
                return; // the incoming hint is the weakest: drop it
            }
            state.entries.remove(weakest);
        }
        state.entries.push_back(HintEntry {
            hint,
            score,
            born: clock,
        });
    }

    /// Steals the highest-scored hint (ties: oldest), if any.
    pub fn steal(&self) -> Option<Vec<IndexId>> {
        let mut state = self.lock();
        let best = state
            .entries
            .iter()
            .enumerate()
            .fold(None::<(usize, f64)>, |acc, (k, e)| match acc {
                Some((_, s)) if e.score <= s => acc,
                _ => Some((k, e.score)),
            })?
            .0;
        state.entries.remove(best).map(|e| e.hint)
    }

    /// Number of queued hints.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// `true` when no hints are queued.
    pub fn is_empty(&self) -> bool {
        self.lock().entries.is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HintState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// A race's greedy seed and the wall interval its construction took.
#[derive(Debug)]
struct Seed {
    order: Deployment,
    started: Instant,
    finished: Instant,
}

/// A race's seed cell, bound to the one instance the race solves.
#[derive(Debug)]
struct RaceSeed {
    /// Address of the race's instance, which outlives the race.
    instance: usize,
    cell: OnceLock<Seed>,
}

/// Shared state for one (possibly concurrent) solve: a cancellation token,
/// the cross-thread versioned incumbent, the hint deque, the cooperation
/// policy governing who may read what, and — inside a portfolio race — the
/// race's greedy seed.
///
/// Cloning shares everything — clones are handles onto the same race.
#[derive(Debug, Clone, Default)]
pub struct SolveContext {
    cancel: CancelToken,
    incumbent: Arc<SharedIncumbent>,
    hints: Arc<NeighborhoodHints>,
    cooperation: CooperationPolicy,
    /// The race's seed cell, filled by the first member that asks for the
    /// race's instance. `None` outside a race.
    seed: Option<Arc<RaceSeed>>,
}

impl SolveContext {
    /// A fresh context (not cancelled, incumbent at ∞, cooperation off).
    /// This is what standalone, single-threaded runs use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh context with the given cooperation policy.
    pub fn with_cooperation(cooperation: CooperationPolicy) -> Self {
        Self {
            cooperation,
            ..Self::default()
        }
    }

    /// The per-race context a portfolio derives from the caller's: it
    /// shares the cancel token, incumbent and hints (so outer cancellation
    /// and observation still work), applies the race's policy, and carries
    /// a fresh seed cell bound to `instance`, the race's one instance.
    pub(crate) fn for_race(
        &self,
        cooperation: CooperationPolicy,
        instance: &ProblemInstance,
    ) -> Self {
        Self {
            cooperation,
            seed: Some(Arc::new(RaceSeed {
                instance: instance as *const ProblemInstance as usize,
                cell: OnceLock::new(),
            })),
            ..self.clone()
        }
    }

    /// The interaction-guided greedy order for `instance`: the seed every
    /// local search starts from. Inside a portfolio race, for the race's
    /// instance, the first member that asks builds it and the others block
    /// until it is ready, so a race builds it once. Any other call — a
    /// standalone context, or a member asking for some other instance
    /// under the race's context — builds a fresh seed.
    pub fn greedy_seed(&self, instance: &ProblemInstance) -> Deployment {
        match &self.seed {
            Some(race) if race.instance == instance as *const ProblemInstance as usize => {
                let seed = race.cell.get_or_init(|| {
                    let started = Instant::now();
                    let order = GreedySolver::new().construct(instance);
                    Seed {
                        order,
                        started,
                        finished: Instant::now(),
                    }
                });
                seed.order.clone()
            }
            _ => GreedySolver::new().construct(instance),
        }
    }

    /// The wall interval of the race's seed construction, once a member
    /// has built it.
    pub(crate) fn seed_interval(&self) -> Option<(Instant, Instant)> {
        let seed = self.seed.as_ref()?.cell.get()?;
        Some((seed.started, seed.finished))
    }

    /// The cancellation token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// `true` once cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// The shared incumbent.
    pub fn incumbent(&self) -> &SharedIncumbent {
        &self.incumbent
    }

    /// The work-stealing hint deque.
    pub fn hints(&self) -> &NeighborhoodHints {
        &self.hints
    }

    /// The cooperation policy members must honour when *reading* shared
    /// state.
    pub fn cooperation(&self) -> CooperationPolicy {
        self.cooperation
    }

    /// Publishes an objective to the shared incumbent (convenience).
    ///
    /// The publish *offer* is recorded on the calling thread's telemetry
    /// track (the mark is per-member deterministic under fixed seeds; the
    /// racy *acceptance* result is not, so it stays out of the detail).
    pub fn publish(&self, objective: f64) -> bool {
        idd_telemetry::mark("publish", format!("objective={objective:.4}"));
        self.incumbent.offer(objective)
    }

    /// Publishes a deployment and its objective to the shared incumbent
    /// (convenience). The telemetry mark carries the post-offer epoch in
    /// the epoch field (excluded from deterministic exports — epochs count
    /// cross-thread publications and are scheduling-dependent).
    pub fn publish_deployment(&self, objective: f64, order: &[IndexId]) -> bool {
        let accepted = self.incumbent.offer_deployment(objective, order);
        idd_telemetry::mark_epoch(
            "publish-deployment",
            format!("objective={objective:.4}"),
            self.incumbent.epoch(),
        );
        accepted
    }
}

/// The unified solver interface: instance + budget + context in,
/// [`SolveResult`] out.
///
/// Implementations must
///
/// * honour `budget` (wall-clock and/or node limits) and the context's
///   cancellation token, stopping cooperatively once either trips —
///   iterative searches check at every node/iteration; one-shot
///   constructive heuristics (greedy, dp), whose construction is a fast
///   atomic step, check at least before starting and may run that single
///   step to completion;
/// * publish every incumbent improvement to the context via
///   [`SolveContext::publish`], so concurrent observers see progress;
/// * return a [`SolveResult`] whose `objective` matches its `deployment`
///   (or `DidNotFinish` with no deployment).
///
/// The trait method is named `run` (not `solve`) on purpose: every concrete
/// solver keeps its richer inherent `solve` API, and inherent methods would
/// shadow a same-named trait method at call sites.
pub trait Solver: Send + Sync {
    /// Short identifier used in reports ("greedy", "cp+", "vns", ...).
    fn name(&self) -> &'static str;

    /// Runs the solver on `instance` under `budget`, cooperating through
    /// `ctx`.
    fn run(
        &self,
        instance: &ProblemInstance,
        budget: SearchBudget,
        ctx: &SolveContext,
    ) -> SolveResult;

    /// Convenience wrapper for standalone runs: fresh context, no
    /// cancellation, private incumbent.
    fn run_standalone(&self, instance: &ProblemInstance, budget: SearchBudget) -> SolveResult {
        self.run(instance, budget, &SolveContext::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn incumbent_keeps_the_minimum() {
        let inc = SharedIncumbent::new();
        assert!(inc.best().is_infinite());
        assert!(inc.offer(10.0));
        assert!(!inc.offer(12.0));
        assert!(inc.offer(7.5));
        assert_eq!(inc.best(), 7.5);
    }

    #[test]
    fn incumbent_rejects_non_finite_offers() {
        let inc = SharedIncumbent::new();
        assert!(!inc.offer(f64::INFINITY));
        assert!(!inc.offer(f64::NAN));
        assert!(inc.best().is_infinite());
    }

    #[test]
    fn incumbent_is_consistent_under_contention() {
        let inc = Arc::new(SharedIncumbent::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let inc = Arc::clone(&inc);
                s.spawn(move || {
                    for k in (0..250).rev() {
                        inc.offer(1.0 + (t * 250 + k) as f64);
                    }
                });
            }
        });
        // The global minimum over every offer is 1.0 (t=0, k=0).
        assert_eq!(inc.best(), 1.0);
    }

    #[test]
    fn context_publish_reaches_clones() {
        let ctx = SolveContext::new();
        let other = ctx.clone();
        ctx.publish(42.0);
        assert_eq!(other.incumbent().best(), 42.0);
        other.cancel_token().cancel();
        assert!(ctx.is_cancelled());
    }

    fn ids(raw: &[usize]) -> Vec<IndexId> {
        raw.iter().copied().map(IndexId::new).collect()
    }

    #[test]
    fn deployment_offers_are_versioned_and_monotone() {
        let inc = SharedIncumbent::new();
        assert_eq!(inc.epoch(), 0);
        assert!(inc.best_deployment().is_none());

        assert!(inc.offer_deployment(10.0, &ids(&[0, 1, 2])));
        let first = inc.best_deployment().unwrap();
        assert_eq!(first.epoch, 1);
        assert_eq!(first.objective, 10.0);
        assert_eq!(first.order, ids(&[0, 1, 2]));

        // A worse deployment never overwrites a better one.
        assert!(!inc.offer_deployment(12.0, &ids(&[2, 1, 0])));
        assert_eq!(inc.best_deployment().unwrap(), first);
        assert_eq!(inc.epoch(), 1);

        // A better one bumps the epoch and replaces order + objective
        // together.
        assert!(inc.offer_deployment(7.5, &ids(&[1, 0, 2])));
        let second = inc.best_deployment().unwrap();
        assert_eq!(second.epoch, 2);
        assert_eq!(second.objective, 7.5);
        assert_eq!(second.order, ids(&[1, 0, 2]));
        assert_eq!(inc.best(), 7.5);
    }

    #[test]
    fn objective_only_offers_never_touch_the_slot() {
        let inc = SharedIncumbent::new();
        inc.offer_deployment(10.0, &ids(&[0, 1]));
        // A tighter objective-only bound lowers the atomic best...
        assert!(inc.offer(5.0));
        assert_eq!(inc.best(), 5.0);
        // ...but the deployment snapshot stays at the best *order* known.
        let snap = inc.best_deployment().unwrap();
        assert_eq!(snap.objective, 10.0);
        assert!(inc.best() <= snap.objective);
        // Non-finite deployment offers are rejected outright.
        assert!(!inc.offer_deployment(f64::NAN, &ids(&[0, 1])));
        assert!(!inc.offer_deployment(f64::INFINITY, &ids(&[0, 1])));
        assert_eq!(inc.epoch(), 1);
    }

    #[test]
    fn deployment_slot_is_consistent_under_contention() {
        let inc = Arc::new(SharedIncumbent::new());
        std::thread::scope(|s| {
            for t in 0..4usize {
                let inc = Arc::clone(&inc);
                s.spawn(move || {
                    for k in (0..200usize).rev() {
                        let objective = 1.0 + (t * 200 + k) as f64;
                        inc.offer_deployment(objective, &ids(&[t, k]));
                    }
                });
            }
        });
        // The global minimum over every offer is 1.0 (t=0, k=0), and the
        // slot must hold exactly the order that was offered with it.
        assert_eq!(inc.best(), 1.0);
        let snap = inc.best_deployment().unwrap();
        assert_eq!(snap.objective, 1.0);
        assert_eq!(snap.order, ids(&[0, 0]));
        assert!(snap.epoch >= 1);
    }

    #[test]
    fn hints_are_bounded_fifo_and_shared_through_the_context() {
        let hints = NeighborhoodHints::with_capacity(2);
        assert!(hints.is_empty());
        hints.push(vec![]); // ignored
        assert!(hints.is_empty());
        hints.push(ids(&[0]));
        hints.push(ids(&[1]));
        hints.push(ids(&[2])); // evicts the oldest
        assert_eq!(hints.len(), 2);
        assert_eq!(hints.steal(), Some(ids(&[1])));
        assert_eq!(hints.steal(), Some(ids(&[2])));
        assert_eq!(hints.steal(), None);

        let ctx = SolveContext::with_cooperation(CooperationPolicy::WarmStartSteal);
        let clone = ctx.clone();
        ctx.hints().push(ids(&[3, 4]));
        assert_eq!(clone.hints().steal(), Some(ids(&[3, 4])));
        assert!(clone.cooperation().steals());
    }

    #[test]
    fn high_value_hints_survive_a_burst_of_low_value_ones() {
        // The regression the scored deque exists for: under blind FIFO
        // eviction, a burst of marginal improvements flushed the one hint
        // that mattered before any LNS worker could steal it.
        let hints = NeighborhoodHints::with_capacity(2);
        hints.push_scored(ids(&[7, 8]), 120.0);
        for k in 0..5 {
            hints.push_scored(ids(&[k]), 0.5);
        }
        assert_eq!(hints.len(), 2);
        assert_eq!(
            hints.steal(),
            Some(ids(&[7, 8])),
            "the valuable hint survives and is stolen first"
        );
        // The survivor among the low burst is the oldest that fit: pushes
        // after capacity evict the weakest, and on score ties the oldest
        // goes — so the last burst hint remains.
        assert_eq!(hints.steal(), Some(ids(&[4])));
        assert_eq!(hints.steal(), None);

        // An incoming hint weaker than everything queued is itself the one
        // dropped.
        let full = NeighborhoodHints::with_capacity(2);
        full.push_scored(ids(&[0]), 10.0);
        full.push_scored(ids(&[1]), 5.0);
        full.push_scored(ids(&[2]), 1.0);
        assert_eq!(full.steal(), Some(ids(&[0])));
        assert_eq!(full.steal(), Some(ids(&[1])));
        assert_eq!(full.steal(), None);

        // Non-finite and negative improvements are clamped, never poison
        // the ranking.
        let odd = NeighborhoodHints::with_capacity(4);
        odd.push_scored(ids(&[0]), f64::NAN);
        odd.push_scored(ids(&[1]), f64::NEG_INFINITY);
        odd.push_scored(ids(&[2]), 3.0);
        assert_eq!(odd.steal(), Some(ids(&[2])));
        assert_eq!(odd.len(), 2);
    }

    #[test]
    fn stale_hints_age_out_by_push_clock() {
        // Capacity large enough that nothing is evicted by fullness: after
        // AGE_LIMIT further pushes, the once-valuable hint is stale and must
        // be gone even though it still outranks everything on score.
        let hints = NeighborhoodHints::with_capacity(256);
        hints.push_scored(ids(&[42, 43]), 1_000.0);
        for k in 0..NeighborhoodHints::AGE_LIMIT {
            hints.push_scored(ids(&[k as usize % 7]), 0.1);
        }
        assert_eq!(hints.len(), NeighborhoodHints::AGE_LIMIT as usize);
        assert_ne!(
            hints.steal(),
            Some(ids(&[42, 43])),
            "a hint {} pushes old is a random draw, not a prize",
            NeighborhoodHints::AGE_LIMIT
        );
        // One push short of the limit, the hint is still alive and wins.
        let fresh = NeighborhoodHints::with_capacity(256);
        fresh.push_scored(ids(&[42, 43]), 1_000.0);
        for k in 0..NeighborhoodHints::AGE_LIMIT - 1 {
            fresh.push_scored(ids(&[k as usize % 7]), 0.1);
        }
        assert_eq!(fresh.steal(), Some(ids(&[42, 43])));
    }

    #[test]
    fn policy_parsing_is_strict_and_round_trips() {
        assert_eq!("off".parse(), Ok(CooperationPolicy::Off));
        assert_eq!("warm".parse(), Ok(CooperationPolicy::WarmStart));
        assert_eq!("warm_start".parse(), Ok(CooperationPolicy::WarmStart));
        assert_eq!("steal".parse(), Ok(CooperationPolicy::WarmStartSteal));
        assert_eq!(
            "warm_start_steal".parse(),
            Ok(CooperationPolicy::WarmStartSteal)
        );
        for bogus in ["", "of", "Off", "STEAL", "warmstart"] {
            assert!(bogus.parse::<CooperationPolicy>().is_err(), "{bogus:?}");
        }
    }

    #[test]
    fn policy_override_shares_state_but_not_policy() {
        let mut b = ProblemInstance::builder("race");
        let i0 = b.add_index(1.0);
        let q = b.add_query(10.0);
        b.add_plan(q, vec![i0], 2.0);
        let inst = b.build().unwrap();
        let ctx = SolveContext::new();
        assert_eq!(ctx.cooperation(), CooperationPolicy::Off);
        assert!(!ctx.cooperation().warm_starts());
        let coop = ctx.for_race(CooperationPolicy::WarmStart, &inst);
        assert!(coop.cooperation().warm_starts());
        assert!(!coop.cooperation().steals());
        // Same underlying incumbent and cancel token.
        coop.publish_deployment(3.0, &ids(&[0]));
        assert_eq!(ctx.incumbent().best(), 3.0);
        assert_eq!(ctx.incumbent().epoch(), 1);
        ctx.cancel_token().cancel();
        assert!(coop.is_cancelled());
    }

    #[test]
    fn a_race_seed_serves_only_the_race_instance() {
        let build = |name: &str, n: usize| {
            let mut b = ProblemInstance::builder(name);
            let idx: Vec<IndexId> = (0..n).map(|k| b.add_index(1.0 + k as f64)).collect();
            for (k, &i) in idx.iter().enumerate() {
                let q = b.add_query(10.0 + k as f64);
                b.add_plan(q, vec![i], 2.0);
            }
            b.build().unwrap()
        };
        let race_instance = build("race", 4);
        let other = build("other", 3);
        let ctx = SolveContext::new().for_race(CooperationPolicy::Off, &race_instance);
        assert!(ctx.seed_interval().is_none());
        // Another instance under the race's context gets its own seed and
        // leaves the race's cell empty.
        let seed = ctx.greedy_seed(&other);
        assert_eq!(seed.order(), GreedySolver::new().construct(&other).order());
        assert!(ctx.seed_interval().is_none());
        let seed = ctx.greedy_seed(&race_instance);
        assert_eq!(seed.len(), 4);
        let built = ctx.seed_interval().unwrap();
        ctx.greedy_seed(&race_instance);
        assert_eq!(ctx.seed_interval(), Some(built));
        // A standalone context has no cell.
        assert!(SolveContext::new().seed_interval().is_none());
    }
}
