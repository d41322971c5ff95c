//! The deterministic discrete-event deployment runtime.
//!
//! [`DeployRuntime::execute`] runs a deployment order against a simulated
//! query stream on `k = build_slots` concurrent build slots. Builds are
//! dispatched into free slots under the configured [`DispatchPolicy`]:
//!
//! * [`DispatchPolicy::HeadOfLine`] (the default) admits only the planned
//!   head — a head blocked behind an incomplete precedence prerequisite
//!   idles every free slot behind it, and dispatch order always equals plan
//!   order;
//! * [`DispatchPolicy::WorkConserving`] scans the pending suffix for the
//!   *first eligible* index (every precedence prerequisite completed) and
//!   runs it without reordering the plan — no free slot ever idles while
//!   eligible work is pending. Each overtake is recorded as the build's
//!   [`ExecutedBuild::plan_offset`] and counted in
//!   [`DeploymentReport::out_of_order_dispatches`].
//!
//! A slot holds its build (failed attempts included) until the index
//! becomes available, and the event loop advances a priority queue over
//! build-*completion* times.
//! Evolution events land at completion boundaries (an in-flight attempt is
//! atomic), and — under a replanning policy — the runtime re-optimizes the
//! unbuilt suffix whenever the world changes:
//!
//! 1. the built prefix **and the in-flight set** are frozen (never
//!    reordered, never rebuilt, never cancelled);
//! 2. a residual instance for the unbuilt suffix is derived from the
//!    *current* (drifted / revised) instance via
//!    [`ProblemInstance::residual_for_replan`] — in-flight completions
//!    still discount query costs, they just cannot be reordered;
//! 3. the configured [`Replanner`] re-optimizes it, warm-started from the
//!    order currently pending ([`Replanner::replan_around`]);
//! 4. the new suffix is spliced back behind the frozen commitment and
//!    validated against the (possibly revised) precedence closure before
//!    execution continues.
//!
//! Everything is deterministic: same instance, same initial plan, same
//! scenario, same configuration ⇒ same report. Two exact invariants anchor
//! the model, both locked down by the `serial_equivalence` differential
//! suite:
//!
//! * with `build_slots = 1` (the default) the unified scheduler reproduces
//!   the serial runtime — [`DeployRuntime::execute_serial_reference`], the
//!   executor as shipped before concurrent slots existed — **bit-for-bit**,
//!   report field by report field;
//! * with a quiet scenario and one slot the realized cumulative cost equals
//!   the offline objective exactly (the runtime drives the same
//!   [`idd_core::ObjectiveStepper`] arithmetic the evaluator uses).
//!
//! # Cost model with overlapping builds
//!
//! The realized cumulative cost generalizes from `Σ runtime · build_time`
//! to the workload runtime *integrated over the deployment wall-clock*:
//! while any build is running, every unit of wall-clock costs the current
//! runtime level, which drops only when builds **complete**. A build is
//! priced against the indexes completed when it starts — dispatching an
//! index before its build-interaction helper completes forfeits the
//! discount, which is exactly the trade-off `table10` measures against the
//! shorter makespan. [`idd_core::SlotScheduleEvaluator`] reproduces this
//! model offline (quiet-run bit-for-bit), which is what a slot-aware
//! replan ([`DeployConfig::with_slot_aware_replan`]) scores candidate
//! suffixes with instead of the serial proxy.

use crate::journal::{DeploymentJournal, ReplayError};
use crate::report::{DeploymentReport, ExecutedBuild};
use crate::state::{trigger, RunState};
use idd_core::{
    CoreError, DebounceRecord, Deployment, DispatchRecord, EventRecord, EvolutionScenario,
    FailRecord, IndexId, JournalRecord, ObjectiveEvaluator, ProblemInstance, ReplanDecision,
};
use idd_solver::replan::{ReplanStrategy, Replanner, SuffixScoring};
use idd_solver::SearchBudget;
use idd_telemetry::Telemetry;

/// Errors a deployment run can hit.
#[derive(Debug)]
pub enum DeployError {
    /// The initial plan is not a valid deployment of the instance.
    InvalidInitialPlan(CoreError),
    /// An evolution event produced an inconsistent instance.
    InfeasibleEvent(CoreError),
    /// A replanned (or event-maintained) plan failed validation — a bug in
    /// the replanning pipeline, surfaced instead of executed.
    InvalidPlan(String),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::InvalidInitialPlan(e) => write!(f, "invalid initial plan: {e}"),
            DeployError::InfeasibleEvent(e) => write!(f, "infeasible evolution event: {e}"),
            DeployError::InvalidPlan(msg) => write!(f, "invalid in-flight plan: {msg}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<CoreError> for DeployError {
    fn from(e: CoreError) -> Self {
        DeployError::InfeasibleEvent(e)
    }
}

/// Maps an error of [`RunState::apply`] on a record the runtime built
/// itself. An event or plan that fails passes through unchanged; a record
/// the state rejects as diverged would be a runtime bug, surfaced as an
/// invalid plan instead of executed.
fn live(e: ReplayError) -> DeployError {
    match e {
        ReplayError::Run(e) => e,
        other => DeployError::InvalidPlan(other.to_string()),
    }
}

/// When the runtime re-optimizes the pending suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplanTrigger {
    /// Replan when evolution events (drift / revision) land — the original
    /// serial behavior, and the default.
    #[default]
    OnEvent,
    /// Additionally replan when a build reports failed attempts: the wasted
    /// clock delayed everything behind the failing index, so the suffix
    /// order chosen before the failure may no longer be the right one.
    /// The failure replan fires at the failing build's completion boundary
    /// with trigger label `"failure"`.
    OnFailure,
}

/// How pending builds are admitted into free slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchPolicy {
    /// Only the planned head may dispatch: a head blocked behind an
    /// incomplete precedence prerequisite idles every free slot behind it.
    /// The default — dispatch order equals plan order, which keeps
    /// multi-slot runs predictable and is what the serial model degenerates
    /// to at one slot.
    #[default]
    HeadOfLine,
    /// The first *eligible* pending index dispatches: the scan walks the
    /// pending suffix in plan order and admits the earliest index whose
    /// precedence prerequisites have all completed, without reordering the
    /// plan. No free slot ever idles while eligible work is pending (work
    /// conservation); every overtake is recorded in the report
    /// ([`ExecutedBuild::plan_offset`],
    /// [`DeploymentReport::out_of_order_dispatches`]). With one slot this
    /// degenerates to head-of-line: when the single slot is free nothing is
    /// in flight, and a validated plan's head is then always eligible.
    WorkConserving,
}

/// Configuration of a deployment run.
#[derive(Debug, Clone)]
pub struct DeployConfig {
    /// How (and whether) to re-optimize the suffix when a replan fires.
    /// [`ReplanStrategy::KeepOrder`] is the static baseline: events are
    /// *applied* (weights drift, indexes appear/disappear) but the suffix
    /// order is kept.
    pub replanner: Replanner,
    /// Number of concurrent build slots. `1` (the default) reproduces the
    /// serial runtime bit-for-bit; `0` is treated as `1`
    /// ([`DeployConfig::with_build_slots`] normalizes it eagerly, and the
    /// executor clamps again for configs built by hand).
    pub build_slots: usize,
    /// How pending builds are admitted into free slots. Defaults to
    /// [`DispatchPolicy::HeadOfLine`].
    pub dispatch: DispatchPolicy,
    /// Score replan candidates with the k-slot list-schedule objective
    /// ([`idd_core::SlotScheduleEvaluator`], `k = build_slots`, matching
    /// this config's dispatch policy) instead of the serial proxy. With one
    /// slot the two objectives coincide bit-for-bit, so this is a no-op
    /// there. Defaults to `false`.
    pub slot_aware_replan: bool,
    /// What fires a replan. Defaults to [`ReplanTrigger::OnEvent`].
    pub trigger: ReplanTrigger,
    /// Replan debounce window, in deployment-clock seconds: when a replan
    /// becomes due but another event is scheduled within `debounce` of the
    /// current clock, the replan is deferred and the triggers batch into a
    /// single replan once the burst is over. `0.0` (the default) replans at
    /// every trigger boundary, exactly like the serial runtime. NaN and
    /// negative values are normalized to `0.0`
    /// ([`DeployConfig::with_debounce`] clamps eagerly, and the executor
    /// clamps again for configs built by hand).
    pub debounce: f64,
}

impl Default for DeployConfig {
    fn default() -> Self {
        Self {
            replanner: Replanner::new(ReplanStrategy::KeepOrder, SearchBudget::nodes(200)),
            build_slots: 1,
            dispatch: DispatchPolicy::default(),
            slot_aware_replan: false,
            trigger: ReplanTrigger::OnEvent,
            debounce: 0.0,
        }
    }
}

impl DeployConfig {
    /// The static baseline: execute the plan as-is, ignoring every chance
    /// to re-optimize.
    pub fn static_plan() -> Self {
        Self::default()
    }

    /// Replan with one greedy pass per event.
    pub fn greedy_replan() -> Self {
        Self {
            replanner: Replanner::new(ReplanStrategy::Greedy, SearchBudget::nodes(200)),
            ..Self::default()
        }
    }

    /// Replan with the warm-started portfolio under the given budget.
    pub fn portfolio_replan(
        cooperation: idd_solver::CooperationPolicy,
        cancel_on_optimal: bool,
        budget: SearchBudget,
    ) -> Self {
        Self {
            replanner: Replanner::new(
                ReplanStrategy::Portfolio {
                    cooperation,
                    cancel_on_optimal,
                },
                budget,
            ),
            ..Self::default()
        }
    }

    /// Sets the number of concurrent build slots (`0` is normalized to
    /// `1` — a runtime with no slots could never dispatch anything).
    pub fn with_build_slots(mut self, slots: usize) -> Self {
        self.build_slots = slots.max(1);
        self
    }

    /// Sets the dispatch policy.
    pub fn with_dispatch(mut self, dispatch: DispatchPolicy) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Enables (or disables) scoring replan candidates with the k-slot
    /// list-schedule objective instead of the serial proxy.
    pub fn with_slot_aware_replan(mut self, slot_aware: bool) -> Self {
        self.slot_aware_replan = slot_aware;
        self
    }

    /// Sets the replan trigger policy.
    pub fn with_trigger(mut self, trigger: ReplanTrigger) -> Self {
        self.trigger = trigger;
        self
    }

    /// Sets the replan debounce window. NaN and negative windows are
    /// normalized to `0.0` (replan at every trigger boundary): a NaN
    /// window would otherwise poison every "is the next event close
    /// enough to batch with?" comparison.
    pub fn with_debounce(mut self, debounce: f64) -> Self {
        self.debounce = if debounce.is_finite() && debounce > 0.0 {
            debounce
        } else {
            0.0
        };
        self
    }
}

/// The deployment runtime. See the module docs for the execution model.
#[derive(Debug, Clone, Default)]
pub struct DeployRuntime {
    config: DeployConfig,
    telemetry: Telemetry,
    /// Prefix for telemetry track names, so one collector can hold several
    /// runs side by side (e.g. `"quiet x2/"` in the `trace` bench bin).
    trace_scope: String,
}

impl DeployRuntime {
    /// Creates a runtime with the given configuration.
    pub fn new(config: DeployConfig) -> Self {
        Self {
            config,
            telemetry: Telemetry::off(),
            trace_scope: String::new(),
        }
    }

    /// Attaches a telemetry handle (builder style). The default is
    /// [`Telemetry::off`], under which execution is bit-identical to an
    /// uninstrumented run. With a recording handle, each run registers one
    /// event-loop track (`deploy`: event / debounce / replan marks and a
    /// `pending` queue-depth gauge) plus one track per build slot
    /// (`slot<j>`: dispatch / fail / complete marks, `busy` spans per
    /// build, and `idle` spans covering the gaps) — every stamp on the
    /// logical deployment clock.
    ///
    /// This telemetry is a projection of the run's journal: each mark,
    /// gauge and `busy` span is emitted as its journal record is applied,
    /// and the closing `idle` spans are the gaps between each slot's
    /// builds. A trace and its journal therefore cannot disagree, and
    /// [`crate::replay_traced`] profiles a past run from its seed and
    /// journal alone.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Prefixes this runtime's telemetry track names (builder style), so
    /// several runs can share one collector without colliding.
    pub fn with_trace_scope(mut self, scope: impl Into<String>) -> Self {
        self.trace_scope = scope.into();
        self
    }

    /// The configured replan strategy's label ("static" / "greedy" /
    /// "portfolio"), for reports.
    pub fn policy_label(&self) -> &'static str {
        self.config.replanner.strategy.label()
    }

    /// Executes `initial` against `scenario` on `build_slots` concurrent
    /// slots. See the module docs for the execution model and invariants.
    ///
    /// Equivalent to [`DeployRuntime::execute_journaled`] with the journal
    /// dropped — the journal is recorded either way; this accessor just
    /// keeps the common call sites simple.
    pub fn execute(
        &self,
        instance: &ProblemInstance,
        initial: &Deployment,
        scenario: &EvolutionScenario,
    ) -> Result<DeploymentReport, DeployError> {
        self.execute_journaled(instance, initial, scenario)
            .map(|(report, _)| report)
    }

    /// Executes like [`DeployRuntime::execute`] and additionally returns the
    /// run's [`DeploymentJournal`]: one typed record per action taken
    /// (dispatch, failed attempt, completion, event landing, replan,
    /// debounce deferral), stamped with the exact clock and slot.
    ///
    /// The loop below only *decides* — which index goes to which slot, how
    /// often a build fails, which suffix a replan picks, when to defer —
    /// and every decision changes the run only as a journal record applied
    /// through the same transition function [`crate::journal::replay`]
    /// uses, which is why replay reconstructs the identical report
    /// bit-for-bit.
    pub fn execute_journaled(
        &self,
        instance: &ProblemInstance,
        initial: &Deployment,
        scenario: &EvolutionScenario,
    ) -> Result<(DeploymentReport, DeploymentJournal), DeployError> {
        initial
            .validate(instance)
            .map_err(DeployError::InvalidInitialPlan)?;
        let slots = self.config.build_slots.max(1);
        // Re-clamp for configs assembled by hand (the builders normalize
        // eagerly): a NaN window would make `next_within_window` false and
        // so never livelock, but a *negative* one is equally meaningless,
        // and one normalization point keeps the semantics obvious.
        let debounce = if self.config.debounce.is_finite() && self.config.debounce > 0.0 {
            self.config.debounce
        } else {
            0.0
        };
        let mut state = RunState::new(instance, initial, slots, &self.telemetry, &self.trace_scope);

        // Earliest event last, so `pop` yields events in time order.
        let mut queue = scenario.sorted_events();
        queue.reverse();

        // Replan triggers accumulated but not yet acted on (debouncing).
        let mut triggers: Vec<&'static str> = Vec::new();

        loop {
            // 1. Land every event due at this completion boundary. (Once
            //    nothing is pending or in flight, future events land too —
            //    they start a new tail, with no idle cost in between.)
            while queue.last().is_some_and(|e| {
                e.at <= state.clock || (state.pending.is_empty() && state.in_flight.is_empty())
            }) {
                let event = queue.pop().expect("peeked");
                let label = trigger(&event.kind);
                let clock = state.clock.max(event.at);
                state
                    .apply(JournalRecord::EventLanded(EventRecord { clock, event }))
                    .map_err(live)?;
                if !triggers.contains(&label) {
                    triggers.push(label);
                }
            }

            // 2. Act on accumulated triggers, unless another event is close
            //    enough (within the debounce window) to batch with.
            //    Deferring is only sound while the clock can still advance
            //    toward that event — something in flight, or a dispatchable
            //    head. With neither, deferring again would spin forever, so
            //    act now and let replan validation surface whatever the
            //    events broke (e.g. an addition behind a retracted
            //    prerequisite).
            if !triggers.is_empty() {
                let next_within_window =
                    queue.last().is_some_and(|e| e.at <= state.clock + debounce);
                let can_progress = !state.in_flight.is_empty()
                    || state.next_dispatchable(self.config.dispatch).is_some();
                let record = if next_within_window && can_progress {
                    Some(JournalRecord::Debounce(DebounceRecord {
                        clock: state.clock,
                        deferred: triggers.join("+"),
                        next_event_at: queue.last().expect("within window").at,
                    }))
                } else {
                    let trigger = triggers.join("+");
                    triggers.clear();
                    self.replan(&state, &trigger)?.map(JournalRecord::Replan)
                };
                if let Some(record) = record {
                    state.apply(record).map_err(live)?;
                }
            }

            // 3. Nothing pending, in flight, or queued: done.
            if state.pending.is_empty() && state.in_flight.is_empty() && queue.is_empty() {
                break;
            }

            loop {
                // 4. Dispatch pending work into free slots until the slots
                //    are full or the policy admits nothing more: under
                //    head-of-line that is a blocked (or exhausted) plan
                //    head; under work-conserving it means *no* pending
                //    index has all prerequisites completed. No event can
                //    be due here: the outer loop drained everything at or
                //    before this clock, and the inner loop breaks at the
                //    completion that makes the next one due.
                debug_assert!(!queue.last().is_some_and(|e| e.at <= state.clock));
                while state.in_flight.len() < slots {
                    let Some(plan_offset) = state.next_dispatchable(self.config.dispatch) else {
                        break;
                    };
                    let index = state.pending[plan_offset];
                    // The lowest free slot, so slot assignment is
                    // deterministic.
                    let slot = (0..slots)
                        .find(|&j| state.in_flight.iter().all(|f| f.slot != j))
                        .expect("fewer builds in flight than slots");
                    // Priced against the indexes *completed* so far.
                    let cost = state.instance().effective_build_cost(index, &state.built);
                    // Failure spec: `failures` attempts of `waste_fraction`
                    // of the cost each precede the successful one.
                    let (retries, waste_per_failure) =
                        scenario.failure_for(index).map_or((0, 0.0), |f| {
                            (f.failures, cost * f.waste_fraction.clamp(0.0, 1.0))
                        });
                    let position = state.committed.len();
                    state
                        .apply(JournalRecord::Dispatch(DispatchRecord {
                            clock: state.clock,
                            slot,
                            position,
                            index,
                            plan_offset,
                            cost,
                            retries,
                            waste_per_failure,
                        }))
                        .map_err(live)?;
                    let mut clock = state.clock;
                    for attempt in 1..=retries {
                        state
                            .apply(JournalRecord::Fail(FailRecord {
                                clock,
                                slot,
                                index,
                                attempt,
                                wasted: waste_per_failure,
                            }))
                            .map_err(live)?;
                        clock += waste_per_failure;
                    }
                }

                // 5. Advance: land the earliest completion. With nothing in
                //    flight, hand back to the outer loop (which lands the
                //    due — or, with an empty plan, the next future — event,
                //    or finishes).
                let Some(record) = state.next_completion() else {
                    break;
                };
                let retried = state
                    .in_flight
                    .iter()
                    .any(|f| f.index == record.index && f.retries > 0);
                state.apply(JournalRecord::Complete(record)).map_err(live)?;

                // A failure-triggered replan fires at the failing build's
                // completion boundary (subject to the same debouncing).
                let failure_trigger = self.config.trigger == ReplanTrigger::OnFailure
                    && retried
                    && !triggers.contains(&"failure");
                if failure_trigger {
                    triggers.push("failure");
                }

                // Hand back to the outer loop when this completion made an
                // event due or raised a trigger.
                if failure_trigger || queue.last().is_some_and(|e| e.at <= state.clock) {
                    break;
                }
            }
        }

        state.finish().map_err(live)
    }

    /// Decides a replan: freezes the commitment (built prefix + in-flight
    /// set), derives the residual instance, and re-optimizes it
    /// warm-started from the pending order. `None` when nothing is pending.
    fn replan(
        &self,
        state: &RunState,
        trigger: &str,
    ) -> Result<Option<ReplanDecision>, DeployError> {
        if state.pending.is_empty() {
            return Ok(None);
        }
        let in_flight_order: Vec<IndexId> = state.in_flight.iter().map(|f| f.index).collect();
        let residual = state.instance().residual_for_replan(
            &state.built,
            &in_flight_order,
            &state.excluded,
        )?;
        // Score candidates with what this runtime will actually realize:
        // the k-slot list-schedule objective when slot-aware replanning is
        // on (matching slot count and dispatch policy), the serial proxy
        // otherwise.
        let replanner = if self.config.slot_aware_replan {
            self.config
                .replanner
                .clone()
                .with_scoring(SuffixScoring::SlotAware {
                    slots: self.config.build_slots.max(1),
                    work_conserving: self.config.dispatch == DispatchPolicy::WorkConserving,
                })
        } else {
            self.config.replanner.clone()
        };
        let pending: Vec<IndexId> = state.pending.iter().copied().collect();
        // In-flight builds keep their slots until they finish: a slot-aware
        // scorer that assumed every slot free at the replan point would rank
        // candidates against schedules that cannot happen. Serial scoring
        // ignores the offsets (it has no slots to occupy).
        let busy_until: Vec<f64> = state
            .in_flight
            .iter()
            .map(|f| f.finish - state.clock)
            .collect();
        // Mechanical plan maintenance (appends on addition, removals on
        // drop) must keep the suffix a permutation of the residual indexes.
        // If it ever does not, surface the bug — a silent fallback would
        // turn the static baseline into a replanning policy.
        let (outcome, new_pending) = replanner
            .replan_around_occupied(&residual, &pending, &busy_until)
            .ok_or_else(|| {
                DeployError::InvalidPlan(
                    "in-flight suffix is not a permutation of the residual indexes".into(),
                )
            })?;
        // Applying the decision splices the suffix behind the frozen
        // commitment and validates it against the (possibly revised)
        // closure.
        Ok(Some(ReplanDecision {
            clock: state.clock,
            trigger: trigger.to_string(),
            pending: new_pending,
            warm_start_objective: outcome.warm_start_objective,
            objective: outcome.objective,
            solver: outcome.solver,
            improved: outcome.improved,
        }))
    }

    /// The serial executor exactly as shipped before concurrent build slots
    /// existed: one build at a time, events at build boundaries, replans on
    /// events only, no debouncing. `build_slots`, `trigger` and `debounce`
    /// are ignored.
    ///
    /// This is kept verbatim as the **reference oracle** for the
    /// serial-equivalence differential suite: `execute` with the default
    /// configuration must reproduce it bit-for-bit, field by field. It is
    /// not deprecated — it is the executable specification of the one-slot
    /// semantics.
    pub fn execute_serial_reference(
        &self,
        instance: &ProblemInstance,
        initial: &Deployment,
        scenario: &EvolutionScenario,
    ) -> Result<DeploymentReport, DeployError> {
        initial
            .validate(instance)
            .map_err(DeployError::InvalidInitialPlan)?;
        let mut state = RunState::new(instance, initial, 1, &Telemetry::off(), "");

        // Earliest event last, so `pop` yields events in time order.
        let mut queue = scenario.sorted_events();
        queue.reverse();

        loop {
            // 1. Land every event due at this boundary, then replan once.
            let mut triggers: Vec<&'static str> = Vec::new();
            while queue
                .last()
                .is_some_and(|e| e.at <= state.clock || state.pending.is_empty())
            {
                let event = queue.pop().expect("peeked");
                // Post-completion events take effect when they land, not
                // retroactively: idle time between builds accrues no cost.
                state.clock = state.clock.max(event.at);
                let label = state.apply_event(&event)?;
                if !triggers.contains(&label) {
                    triggers.push(label);
                }
                state.report.events_applied += 1;
            }
            if !triggers.is_empty() {
                if let Some(decision) = self.replan(&state, &triggers.join("+"))? {
                    state.apply(JournalRecord::Replan(decision)).map_err(live)?;
                }
                state.validate_plan()?;
            }

            // 2. Nothing pending and nothing queued: done.
            if state.pending.is_empty() && queue.is_empty() {
                let evaluator = ObjectiveEvaluator::new(state.stepper.instance());
                let mut stepper = evaluator.stepper();
                for &i in &state.committed {
                    stepper.step(i);
                }
                state.report.final_runtime = stepper.runtime();
                break;
            }

            // 3. Execute builds until the next event is due (or the plan
            //    runs out).
            let evaluator = ObjectiveEvaluator::new(state.stepper.instance());
            let mut stepper = evaluator.stepper();
            for &i in &state.committed {
                stepper.step(i);
            }
            while !state.pending.is_empty() {
                if queue.last().is_some_and(|e| e.at <= state.clock) {
                    break; // event boundary: back to step 1
                }
                let next = state.pending.pop_front().expect("checked non-empty");
                let start = state.clock;

                // Failed attempts waste clock at the current runtime.
                let mut wasted = 0.0;
                let mut retries = 0u32;
                if let Some(failure) = scenario.failure_for(next) {
                    let cost = state
                        .stepper
                        .instance()
                        .effective_build_cost(next, stepper.built());
                    let waste = cost * failure.waste_fraction.clamp(0.0, 1.0);
                    for _ in 0..failure.failures {
                        state.realized.add_prod(stepper.runtime(), waste);
                        wasted += waste;
                        retries += 1;
                    }
                }

                let step = stepper.step(next);
                state
                    .realized
                    .add_prod(step.runtime_before, step.build_cost);
                state.clock += wasted + step.build_cost;
                state.report.builds.push(ExecutedBuild {
                    position: state.committed.len(),
                    index: next,
                    slot: 0,
                    start,
                    finish: state.clock,
                    cost: step.build_cost,
                    wasted,
                    retries,
                    plan_offset: 0,
                    runtime_before: step.runtime_before,
                    runtime_after: step.runtime_after,
                });
                state.report.total_build_time += step.build_cost;
                state.report.total_wasted += wasted;
                state.report.retries += retries;
                state.committed.push(next);
                state.completed_order.push(next);
                state.built[next.raw()] = true;
            }
        }

        state.report.realized_cost = state.realized.value();
        state.report.total_clock = state.clock;
        debug_assert!(state.report.prefixes_respected());
        Ok(state.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idd_core::{
        DesignRevision, EventKind, EvolutionEvent, IndexAddition, QueryId, WorkloadDrift,
    };

    /// The paper-style competing example plus a second query, so drift has
    /// something to move between.
    fn instance() -> ProblemInstance {
        let mut b = ProblemInstance::builder("runtime");
        let i0 = b.add_index(4.0);
        let i1 = b.add_index(6.0);
        let i2 = b.add_index(3.0);
        let i3 = b.add_index(5.0);
        let q0 = b.add_query(30.0);
        b.add_plan(q0, vec![i0], 5.0);
        b.add_plan(q0, vec![i1], 20.0);
        let q1 = b.add_query(40.0);
        b.add_plan(q1, vec![i2], 8.0);
        b.add_plan(q1, vec![i2, i3], 25.0);
        b.add_build_interaction(i1, i0, 2.0);
        b.add_build_interaction(i3, i2, 1.5);
        b.build().unwrap()
    }

    fn drift_at(at: f64, query: usize, weight: f64) -> EvolutionEvent {
        EvolutionEvent {
            at,
            kind: EventKind::Drift(WorkloadDrift {
                weights: vec![(QueryId::new(query), weight)],
            }),
        }
    }

    #[test]
    fn quiet_scenario_reproduces_the_offline_objective_bit_for_bit() {
        let inst = instance();
        let plan = Deployment::from_raw([1, 0, 3, 2]);
        let offline = ObjectiveEvaluator::new(&inst).evaluate(&plan);
        let report = DeployRuntime::default()
            .execute(&inst, &plan, &EvolutionScenario::quiet("none"))
            .unwrap();
        assert_eq!(report.realized_cost.to_bits(), offline.area.to_bits());
        assert_eq!(report.final_runtime, offline.final_runtime);
        assert_eq!(report.total_clock, offline.deployment_time);
        assert_eq!(report.realized_order(), plan);
        assert!(report.replans.is_empty());
        assert_eq!(report.events_applied, 0);
    }

    #[test]
    fn drift_changes_realized_cost_even_for_the_static_plan() {
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        let offline = ObjectiveEvaluator::new(&inst).evaluate_area(&plan);
        let scenario = EvolutionScenario {
            name: "drift".into(),
            events: vec![drift_at(4.0, 1, 5.0)],
            failures: vec![],
        };
        let report = DeployRuntime::new(DeployConfig::static_plan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        // Same order executed, but the cost after t=4 is paid at the new
        // weights, so realized != offline.
        assert_eq!(report.realized_order(), plan);
        assert!(report.realized_cost > offline);
        assert_eq!(report.events_applied, 1);
        // The static baseline records its (non-)replans as warm-start keeps.
        assert_eq!(report.replans.len(), 1);
        assert_eq!(report.replans[0].solver, "warm-start");
        assert!(!report.replans[0].improved);
    }

    #[test]
    fn replanning_beats_the_static_plan_on_a_hostile_drift() {
        let inst = instance();
        // Offline-optimal-ish start that serves q0 first; then q1 becomes
        // 10x as important while q0 evaporates.
        let plan = Deployment::from_raw([1, 0, 2, 3]);
        let scenario = EvolutionScenario {
            name: "hostile".into(),
            events: vec![EvolutionEvent {
                at: 6.0, // right after the first build
                kind: EventKind::Drift(WorkloadDrift {
                    weights: vec![(QueryId::new(0), 0.1), (QueryId::new(1), 10.0)],
                }),
            }],
            failures: vec![],
        };
        let static_cost = DeployRuntime::new(DeployConfig::static_plan())
            .execute(&inst, &plan, &scenario)
            .unwrap()
            .realized_cost;
        let replanned = DeployRuntime::new(DeployConfig::greedy_replan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        assert!(
            replanned.realized_cost < static_cost - 1e-9,
            "greedy replan {} must beat static {static_cost}",
            replanned.realized_cost
        );
        assert!(replanned.prefixes_respected());
        assert_eq!(replanned.replans.len(), 1);
        assert!(replanned.replans[0].improved);
    }

    #[test]
    fn revisions_extend_and_shrink_the_plan_mid_flight() {
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        let scenario = EvolutionScenario {
            name: "revision".into(),
            events: vec![EvolutionEvent {
                at: 4.0,
                kind: EventKind::Revision(DesignRevision {
                    add: vec![IndexAddition {
                        name: "late_arrival".into(),
                        creation_cost: 2.0,
                        plans: vec![(QueryId::new(1), vec![], 30.0)],
                        helped_by: vec![(IndexId::new(2), 1.0)],
                        helps: vec![],
                        after: vec![IndexId::new(0)],
                    }],
                    drop: vec![IndexId::new(3), IndexId::new(0)],
                }),
            }],
            failures: vec![],
        };
        let report = DeployRuntime::new(DeployConfig::greedy_replan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        let order = report.realized_order();
        // i0 was already built when the drop landed: ineffective. i3 was
        // retracted. The new index was built.
        assert_eq!(report.ineffective_drops, 1);
        assert_eq!(order.len(), 4);
        assert!(order.position_of(IndexId::new(3)).is_none());
        assert!(order.position_of(IndexId::new(4)).is_some());
        // The addition's precedence (i0 before the new index) holds.
        assert!(
            order.position_of(IndexId::new(0)).unwrap()
                < order.position_of(IndexId::new(4)).unwrap()
        );
        assert!(report.prefixes_respected());
    }

    #[test]
    fn failures_waste_clock_and_are_reported() {
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        let quiet_cost = DeployRuntime::default()
            .execute(&inst, &plan, &EvolutionScenario::quiet("q"))
            .unwrap()
            .realized_cost;
        let scenario = EvolutionScenario {
            name: "flaky".into(),
            events: vec![],
            failures: vec![idd_core::BuildFailure {
                index: IndexId::new(1),
                failures: 2,
                waste_fraction: 0.5,
            }],
        };
        let report = DeployRuntime::default()
            .execute(&inst, &plan, &scenario)
            .unwrap();
        assert_eq!(report.retries, 2);
        // i1 costs 4 effective (6 - 2 from i0): two half-cost failures
        // waste 4.0 clock at the post-i0 workload runtime of 65s
        // (q0 30→25 via its 5s plan, q1 still 40).
        assert!((report.total_wasted - 4.0).abs() < 1e-9);
        assert!((report.realized_cost - (quiet_cost + 65.0 * 4.0)).abs() < 1e-9);
        assert_eq!(report.total_clock, report.total_build_time + 4.0);
        assert_eq!(report.builds[1].retries, 2);
        assert_eq!(report.builds[1].wasted, 4.0);
    }

    #[test]
    fn post_completion_revisions_start_a_new_tail() {
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        // Deployment lasts 4+4+3+3.5 = 14.5s; the revision lands at t=50.
        let scenario = EvolutionScenario {
            name: "late".into(),
            events: vec![EvolutionEvent {
                at: 50.0,
                kind: EventKind::Revision(DesignRevision {
                    add: vec![IndexAddition {
                        name: "after_the_fact".into(),
                        creation_cost: 1.0,
                        plans: vec![(QueryId::new(0), vec![], 25.0)],
                        helped_by: vec![],
                        helps: vec![],
                        after: vec![],
                    }],
                    drop: vec![],
                }),
            }],
            failures: vec![],
        };
        let report = DeployRuntime::new(DeployConfig::greedy_replan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        assert_eq!(report.builds.len(), 5);
        // The tail build starts when the event lands, with no idle cost.
        assert_eq!(report.builds[4].start, 50.0);
        assert_eq!(report.total_clock, 51.0);
        assert_eq!(report.total_build_time, 15.5);
    }

    #[test]
    fn invalid_initial_plan_is_rejected() {
        let inst = instance();
        let short = Deployment::from_raw([0, 1]);
        let err = DeployRuntime::default()
            .execute(&inst, &short, &EvolutionScenario::quiet("q"))
            .unwrap_err();
        assert!(matches!(err, DeployError::InvalidInitialPlan(_)));
        assert!(err.to_string().contains("invalid initial plan"));
    }

    #[test]
    fn two_slot_quiet_timeline_hand_computed() {
        // Plan [0,1,2,3] on two slots. Dispatch order is plan order; i1 and
        // i3 start before their helpers complete, so they pay full price —
        // the makespan shrinks from 14.5 to 11 anyway:
        //
        //   slot 0: i0 [0,4]           i2 [4,7]
        //   slot 1: i1 [0,6]           i3 [6,11]
        //   runtime: 70 →(i0@4) 65 →(i1@6) 50 →(i2@7) 42 →(i3@11) 25
        //   realized = 70·4 + 65·2 + 50·1 + 42·4 = 628
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        let report = DeployRuntime::new(DeployConfig::static_plan().with_build_slots(2))
            .execute(&inst, &plan, &EvolutionScenario::quiet("q"))
            .unwrap();
        assert_eq!(report.realized_order(), plan);
        assert_eq!(report.slots_used(), 2);
        let slots: Vec<usize> = report.builds.iter().map(|b| b.slot).collect();
        assert_eq!(slots, [0, 1, 0, 1]);
        let costs: Vec<f64> = report.builds.iter().map(|b| b.cost).collect();
        assert_eq!(
            costs,
            [4.0, 6.0, 3.0, 5.0],
            "in-flight helpers discount nothing"
        );
        let finishes: Vec<f64> = report.builds.iter().map(|b| b.finish).collect();
        assert_eq!(finishes, [4.0, 6.0, 7.0, 11.0]);
        assert!((report.realized_cost - 628.0).abs() < 1e-9);
        assert_eq!(report.total_clock, 11.0);
        assert_eq!(report.total_build_time, 18.0);
        assert_eq!(report.final_runtime, 25.0);

        // The serial run pays 837 over 14.5s: concurrency wins here even
        // though it forfeits both build-interaction discounts.
        let serial = DeployRuntime::default()
            .execute(&inst, &plan, &EvolutionScenario::quiet("q"))
            .unwrap();
        assert!((serial.realized_cost - 837.0).abs() < 1e-9);
        assert_eq!(serial.total_clock, 14.5);
        assert!(report.realized_cost < serial.realized_cost);
    }

    #[test]
    fn precedence_blocks_dispatch_until_the_prerequisite_completes() {
        let mut b = ProblemInstance::builder("gate");
        let i0 = b.add_index(4.0);
        let i1 = b.add_index(6.0);
        let i2 = b.add_index(3.0);
        let q0 = b.add_query(50.0);
        b.add_plan(q0, vec![i0], 10.0);
        b.add_plan(q0, vec![i1], 30.0);
        b.add_plan(q0, vec![i2], 5.0);
        b.add_precedence(i0, i1);
        let inst = b.build().unwrap();
        let plan = Deployment::from_raw([0, 1, 2]);
        let report = DeployRuntime::new(DeployConfig::static_plan().with_build_slots(2))
            .execute(&inst, &plan, &EvolutionScenario::quiet("q"))
            .unwrap();
        // i1 is the head while i0 is in flight: the second slot must idle
        // (no skipping ahead to i2 — dispatch is strictly in plan order).
        assert_eq!(report.builds[0].start, 0.0);
        assert_eq!(report.builds[1].index, IndexId::new(1));
        assert_eq!(report.builds[1].start, 4.0, "gated on i0's completion");
        assert_eq!(report.builds[2].index, IndexId::new(2));
        assert_eq!(report.builds[2].start, 4.0, "freed alongside the gate");
        assert_eq!(report.builds[2].slot, 1);
        assert!(report.realized_order().is_valid_for(&inst));
        assert_eq!(report.out_of_order_dispatches, 0);
        assert!(report.builds.iter().all(|b| b.plan_offset == 0));
    }

    #[test]
    fn work_conserving_dispatch_overtakes_a_blocked_head() {
        // Same gate as the head-of-line test: plan [0,1,2] with i0 → i1, two
        // slots. Head-of-line idles slot 1 until i0 completes; the
        // work-conserving dispatcher reaches past the blocked i1 and starts
        // i2 at t=0, recording the overtake without reordering the plan.
        let mut b = ProblemInstance::builder("gate");
        let i0 = b.add_index(4.0);
        let i1 = b.add_index(6.0);
        let i2 = b.add_index(3.0);
        let q0 = b.add_query(50.0);
        b.add_plan(q0, vec![i0], 10.0);
        b.add_plan(q0, vec![i1], 30.0);
        b.add_plan(q0, vec![i2], 5.0);
        b.add_precedence(i0, i1);
        let inst = b.build().unwrap();
        let plan = Deployment::from_raw([0, 1, 2]);
        let hol = DeployRuntime::new(DeployConfig::static_plan().with_build_slots(2))
            .execute(&inst, &plan, &EvolutionScenario::quiet("q"))
            .unwrap();
        let wc = DeployRuntime::new(
            DeployConfig::static_plan()
                .with_build_slots(2)
                .with_dispatch(DispatchPolicy::WorkConserving),
        )
        .execute(&inst, &plan, &EvolutionScenario::quiet("q"))
        .unwrap();
        let dispatched: Vec<usize> = wc.builds.iter().map(|b| b.index.raw()).collect();
        assert_eq!(dispatched, [0, 2, 1], "i2 overtakes the gated i1");
        assert_eq!(wc.builds[1].start, 0.0, "slot 1 never idles");
        assert_eq!(wc.builds[1].slot, 1);
        assert_eq!(wc.builds[1].plan_offset, 1, "reached one past the head");
        assert_eq!(wc.builds[0].plan_offset, 0);
        assert_eq!(wc.builds[2].plan_offset, 0, "i1 is the head once i2 left");
        assert_eq!(wc.out_of_order_dispatches, 1);
        assert!(wc.realized_order().is_valid_for(&inst));
        // Keeping the slot busy is strictly cheaper here, and no slower.
        assert!(
            wc.realized_cost < hol.realized_cost - 1e-9,
            "work-conserving {} must beat idling {}",
            wc.realized_cost,
            hol.realized_cost
        );
        assert!(wc.total_clock <= hol.total_clock);
    }

    #[test]
    fn work_conserving_with_one_slot_is_bit_identical_to_head_of_line() {
        // With one slot nothing is ever in flight at a dispatch point, and a
        // validated plan's head is always eligible — the first-eligible scan
        // degenerates to head-only, bit for bit.
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        let scenario = EvolutionScenario {
            name: "mixed".into(),
            events: vec![drift_at(4.5, 1, 6.0)],
            failures: vec![idd_core::BuildFailure {
                index: IndexId::new(2),
                failures: 1,
                waste_fraction: 0.5,
            }],
        };
        let hol = DeployRuntime::new(DeployConfig::greedy_replan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        let wc = DeployRuntime::new(
            DeployConfig::greedy_replan().with_dispatch(DispatchPolicy::WorkConserving),
        )
        .execute(&inst, &plan, &scenario)
        .unwrap();
        assert_eq!(wc, hol);
        assert_eq!(wc.out_of_order_dispatches, 0);
    }

    #[test]
    fn nan_and_negative_debounce_are_treated_as_zero() {
        // with_debounce clamps non-finite and negative windows to 0.0 so a
        // NaN can never poison the deferral comparison (`at <= clock + NaN`
        // is always false, which silently disabled batching — and worse,
        // left the force-fire guard comparing against NaN).
        assert_eq!(
            DeployConfig::static_plan().with_debounce(f64::NAN).debounce,
            0.0
        );
        assert_eq!(
            DeployConfig::static_plan().with_debounce(-3.0).debounce,
            0.0
        );
        assert_eq!(
            DeployConfig::static_plan()
                .with_debounce(f64::INFINITY)
                .debounce,
            0.0
        );
        assert_eq!(DeployConfig::static_plan().with_debounce(5.0).debounce, 5.0);

        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        let scenario = EvolutionScenario {
            name: "burst".into(),
            events: vec![drift_at(4.5, 1, 3.0), drift_at(9.0, 0, 0.5)],
            failures: vec![],
        };
        let zero = DeployRuntime::new(DeployConfig::static_plan().with_debounce(0.0))
            .execute(&inst, &plan, &scenario)
            .unwrap();
        for bad in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            let mut config = DeployConfig::static_plan();
            config.debounce = bad; // bypass the builder: worst case survives
            let report = DeployRuntime::new(config)
                .execute(&inst, &plan, &scenario)
                .unwrap();
            assert_eq!(report, zero, "debounce {bad} must behave as zero");
        }
    }

    #[test]
    fn nan_debounce_cannot_livelock_the_stuck_clock_guard() {
        // The stuck-clock scenario from the deferral test, but with a NaN
        // debounce smuggled past the builder. The executor's own clamp must
        // keep the force-fire guard sound: the run surfaces the infeasible
        // precedence instead of spinning on a deferral that never matures.
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        let scenario = EvolutionScenario {
            name: "stuck".into(),
            events: vec![
                EvolutionEvent {
                    at: 3.0,
                    kind: EventKind::Revision(DesignRevision {
                        add: vec![],
                        drop: vec![IndexId::new(1), IndexId::new(2), IndexId::new(3)],
                    }),
                },
                EvolutionEvent {
                    at: 3.5,
                    kind: EventKind::Revision(DesignRevision {
                        add: vec![IndexAddition {
                            name: "orphaned".into(),
                            creation_cost: 2.0,
                            plans: vec![(QueryId::new(0), vec![], 10.0)],
                            helped_by: vec![],
                            helps: vec![],
                            after: vec![IndexId::new(1)],
                        }],
                        drop: vec![],
                    }),
                },
                drift_at(6.0, 0, 2.0),
            ],
            failures: vec![],
        };
        let mut config = DeployConfig::static_plan();
        config.debounce = f64::NAN;
        let err = DeployRuntime::new(config)
            .execute(&inst, &plan, &scenario)
            .unwrap_err();
        assert!(matches!(err, DeployError::InfeasibleEvent(_)), "{err}");
    }

    #[test]
    fn build_slots_are_normalized_in_the_builder() {
        assert_eq!(
            DeployConfig::static_plan().with_build_slots(0).build_slots,
            1
        );
        assert_eq!(
            DeployConfig::static_plan().with_build_slots(3).build_slots,
            3
        );
        assert_eq!(DeployConfig::default().build_slots, 1);
        assert_eq!(DeployConfig::default().dispatch, DispatchPolicy::HeadOfLine);
        assert!(!DeployConfig::default().slot_aware_replan);
    }

    #[test]
    fn mid_flight_replan_freezes_the_in_flight_set() {
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        // Two slots: i0 [0,4] and i1 [0,6] overlap; the drift lands at the
        // i0 completion boundary (t=4) while i1 is still building.
        let scenario = EvolutionScenario {
            name: "midflight".into(),
            events: vec![drift_at(3.5, 1, 10.0)],
            failures: vec![],
        };
        let report = DeployRuntime::new(DeployConfig::greedy_replan().with_build_slots(2))
            .execute(&inst, &plan, &scenario)
            .unwrap();
        assert_eq!(report.replans.len(), 1);
        let replan = &report.replans[0];
        assert_eq!(replan.clock, 4.0);
        assert_eq!(replan.frozen_prefix, [IndexId::new(0), IndexId::new(1)]);
        assert_eq!(replan.in_flight, [IndexId::new(1)]);
        assert_eq!(replan.suffix_len, 2);
        assert!(report.prefixes_respected());
        assert!(report.in_flight_respected());
        // The in-flight build was neither cancelled nor rebuilt.
        assert_eq!(report.builds[1].index, IndexId::new(1));
        assert_eq!(report.builds[1].finish, 6.0);
        assert_eq!(report.builds.len(), 4);
    }

    #[test]
    fn on_failure_trigger_recovers_realized_cost() {
        let inst = instance();
        // A deliberately mediocre tail: after i0, the pending order serves
        // the big q1 speed-up last.
        let plan = Deployment::from_raw([0, 3, 1, 2]);
        let scenario = EvolutionScenario {
            name: "flaky".into(),
            events: vec![],
            failures: vec![idd_core::BuildFailure {
                index: IndexId::new(0),
                failures: 2,
                waste_fraction: 0.9,
            }],
        };
        let ignore = DeployRuntime::new(DeployConfig::greedy_replan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        assert!(ignore.replans.is_empty(), "OnEvent never fires here");
        let react = DeployRuntime::new(
            DeployConfig::greedy_replan().with_trigger(ReplanTrigger::OnFailure),
        )
        .execute(&inst, &plan, &scenario)
        .unwrap();
        assert_eq!(react.replans.len(), 1);
        assert_eq!(react.replans[0].trigger, "failure");
        assert!(react.replans[0].improved);
        assert!(
            react.realized_cost < ignore.realized_cost - 1e-9,
            "failure-triggered replan {} must recover cost vs {}",
            react.realized_cost,
            ignore.realized_cost
        );
        // Same failures either way — the replan reorders the suffix only.
        assert_eq!(react.retries, ignore.retries);
        assert_eq!(react.builds[0].index, IndexId::new(0));
    }

    #[test]
    fn debounce_batches_bursty_events_into_one_replan() {
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        // Serial boundaries: 4, 8, 11, 14.5. The two drifts land at
        // different boundaries (8 and 11), 4.5 clock apart.
        let scenario = EvolutionScenario {
            name: "burst".into(),
            events: vec![drift_at(4.5, 1, 3.0), drift_at(9.0, 0, 0.5)],
            failures: vec![],
        };
        let eager = DeployRuntime::new(DeployConfig::static_plan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        assert_eq!(eager.replans.len(), 2);
        let debounced = DeployRuntime::new(DeployConfig::static_plan().with_debounce(5.0))
            .execute(&inst, &plan, &scenario)
            .unwrap();
        assert_eq!(debounced.replans.len(), 1, "burst batches into one replan");
        assert_eq!(debounced.replans[0].trigger, "drift");
        assert_eq!(debounced.events_applied, 2);
        // Events still apply at their own boundaries — only the replan is
        // deferred — so the realized (static) order is unchanged.
        assert_eq!(debounced.realized_order(), eager.realized_order());
    }

    #[test]
    fn debounce_deferral_cannot_livelock_on_a_stuck_clock() {
        // A revision retracts i1, a second one adds X behind an
        // `after = [i1]` precedence, and a third event waits inside the
        // debounce window. After the batch lands, the pending head X is
        // permanently ineligible and nothing is in flight — the clock can
        // never reach the queued event, so deferring the replan again would
        // spin forever. The runtime must act instead and surface the broken
        // precedence, exactly like the undebounced run does.
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        let scenario = EvolutionScenario {
            name: "stuck".into(),
            events: vec![
                EvolutionEvent {
                    at: 3.0,
                    kind: EventKind::Revision(DesignRevision {
                        add: vec![],
                        drop: vec![IndexId::new(1), IndexId::new(2), IndexId::new(3)],
                    }),
                },
                EvolutionEvent {
                    at: 3.5,
                    kind: EventKind::Revision(DesignRevision {
                        add: vec![IndexAddition {
                            name: "orphaned".into(),
                            creation_cost: 2.0,
                            plans: vec![(QueryId::new(0), vec![], 10.0)],
                            helped_by: vec![],
                            helps: vec![],
                            after: vec![IndexId::new(1)],
                        }],
                        drop: vec![],
                    }),
                },
                drift_at(6.0, 0, 2.0),
            ],
            failures: vec![],
        };
        let eager = DeployRuntime::new(DeployConfig::static_plan())
            .execute(&inst, &plan, &scenario)
            .unwrap_err();
        let debounced = DeployRuntime::new(DeployConfig::static_plan().with_debounce(10.0))
            .execute(&inst, &plan, &scenario)
            .unwrap_err();
        assert!(matches!(eager, DeployError::InfeasibleEvent(_)), "{eager}");
        assert!(
            matches!(debounced, DeployError::InfeasibleEvent(_)),
            "{debounced}"
        );
    }

    #[test]
    fn coincident_events_trigger_exactly_one_replan() {
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        let scenario = EvolutionScenario {
            name: "coincident".into(),
            events: vec![
                drift_at(4.0, 1, 2.0),
                drift_at(4.0, 0, 3.0),
                EvolutionEvent {
                    at: 4.0,
                    kind: EventKind::Revision(DesignRevision {
                        add: vec![],
                        drop: vec![IndexId::new(3)],
                    }),
                },
            ],
            failures: vec![],
        };
        let report = DeployRuntime::new(DeployConfig::greedy_replan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        assert_eq!(report.events_applied, 3);
        assert_eq!(report.replans.len(), 1, "coincident events batch");
        assert_eq!(report.replans[0].trigger, "drift+revision");
    }

    #[test]
    fn zero_slots_are_clamped_to_one() {
        let inst = instance();
        let plan = Deployment::from_raw([1, 0, 3, 2]);
        let scenario = EvolutionScenario {
            name: "drift".into(),
            events: vec![drift_at(5.0, 1, 4.0)],
            failures: vec![],
        };
        let zero = DeployRuntime::new(DeployConfig::greedy_replan().with_build_slots(0))
            .execute(&inst, &plan, &scenario)
            .unwrap();
        let one = DeployRuntime::new(DeployConfig::greedy_replan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        assert_eq!(zero, one);
    }

    #[test]
    fn one_slot_execute_matches_the_serial_reference_exactly() {
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        let scenario = EvolutionScenario {
            name: "mixed".into(),
            events: vec![
                drift_at(4.5, 1, 6.0),
                EvolutionEvent {
                    at: 9.0,
                    kind: EventKind::Revision(DesignRevision {
                        add: vec![IndexAddition {
                            name: "late".into(),
                            creation_cost: 2.0,
                            plans: vec![(QueryId::new(0), vec![], 10.0)],
                            helped_by: vec![],
                            helps: vec![],
                            after: vec![],
                        }],
                        drop: vec![],
                    }),
                },
            ],
            failures: vec![idd_core::BuildFailure {
                index: IndexId::new(2),
                failures: 1,
                waste_fraction: 0.5,
            }],
        };
        let runtime = DeployRuntime::new(DeployConfig::greedy_replan());
        let unified = runtime.execute(&inst, &plan, &scenario).unwrap();
        let serial = runtime
            .execute_serial_reference(&inst, &plan, &scenario)
            .unwrap();
        assert_eq!(unified, serial, "one-slot scheduler must be bit-identical");
    }
}
