//! The deployment state machine: the state of one run and the one
//! transition function, [`RunState::apply`], through which every journal
//! record changes it.
//!
//! The live runtime ([`DeployRuntime::execute_journaled`]) decides what
//! happens next — which index goes to which slot, how often a build fails,
//! which suffix a replan picks, when to defer — and hands each decision to
//! `apply` as a [`JournalRecord`]. [`crate::journal::replay`] feeds a
//! recorded journal through the same `apply`. Either way `apply`
//! cross-checks the record's stamps bit for bit, updates the state and the
//! report, appends the record to the journal and, when telemetry is on,
//! emits the record's projection onto the run's tracks. So a live run, its
//! journal, its replay and its trace cannot disagree.
//!
//! [`DeployRuntime::execute_journaled`]: crate::DeployRuntime::execute_journaled

use crate::journal::{DeploymentJournal, ReplayError};
use crate::report::{DeploymentReport, ExecutedBuild, ReplanRecord};
use crate::runtime::{DeployError, DispatchPolicy};
use idd_core::{
    CompleteRecord, Deployment, DispatchRecord, EventKind, EvolutionEvent, ExactSum, IndexId,
    JournalRecord, ObjectiveStepper, ProblemInstance,
};
use idd_telemetry::{Telemetry, TrackRecorder};
use std::collections::VecDeque;

/// The replan trigger label of an event: `"drift"` or `"revision"`.
pub(crate) fn trigger(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::Drift(_) => "drift",
        EventKind::Revision(_) => "revision",
    }
}

fn diverged(msg: impl Into<String>) -> ReplayError {
    ReplayError::Diverged(msg.into())
}

/// Exact bit-pattern equality check for a recorded `f64` stamp.
fn check_bits(what: &str, recorded: f64, derived: f64) -> Result<(), ReplayError> {
    if recorded.to_bits() != derived.to_bits() {
        return Err(diverged(format!(
            "{what}: journal says {recorded}, replay derives {derived}"
        )));
    }
    Ok(())
}

/// A build occupying a slot: dispatched, not yet completed.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    pub(crate) index: IndexId,
    pub(crate) slot: usize,
    /// `start + (wasted + cost)`, the completion time.
    pub(crate) finish: f64,
    pub(crate) retries: u32,
    /// Position of this build's record in `report.builds` (and in the
    /// dispatch order).
    build_pos: usize,
    start: f64,
    cost: f64,
    waste_per_failure: f64,
    /// Failed attempts journaled so far.
    failed: u32,
    /// Clock at which the next failed attempt starts.
    next_attempt: f64,
}

/// The run's telemetry: one track for the event loop and one per build
/// slot. Everything on them is a projection of the journal records
/// ([`Tracks::project`]) plus, at the end, of the report's per-slot build
/// intervals ([`Tracks::close`]).
struct Tracks {
    deploy: TrackRecorder,
    slots: Vec<TrackRecorder>,
}

impl Tracks {
    /// `deploy`: event / debounce / replan marks and the `pending` gauge.
    /// `slot<j>`: dispatch / fail / complete marks and a `busy` span per
    /// build. `busy_since` is the start of the build a `Complete` record
    /// finishes; `pending` is the queue depth after the record applied.
    fn project(&mut self, record: &JournalRecord, busy_since: f64, pending: usize) {
        match record {
            JournalRecord::EventLanded(r) => {
                self.deploy
                    .mark_at(r.clock, "event", trigger(&r.event.kind));
                self.deploy.gauge_at(r.clock, "pending", pending as f64);
            }
            JournalRecord::Debounce(d) => self.deploy.mark_at(
                d.clock,
                "debounce",
                format!("{} next={:.2}", d.deferred, d.next_event_at),
            ),
            JournalRecord::Replan(d) => self.deploy.mark_at(
                d.clock,
                "replan",
                format!(
                    "trigger={} solver={} improved={}",
                    d.trigger, d.solver, d.improved
                ),
            ),
            JournalRecord::Dispatch(d) => self.slots[d.slot].mark_at(
                d.clock,
                "dispatch",
                format!("{} position={}", d.index, d.position),
            ),
            JournalRecord::Fail(f) => self.slots[f.slot].mark_at(
                f.clock,
                "fail",
                format!("{} attempt={}", f.index, f.attempt),
            ),
            JournalRecord::Complete(c) => {
                let slot = &mut self.slots[c.slot];
                slot.span("busy", busy_since, c.clock);
                slot.mark_at(c.clock, "complete", c.index.to_string());
                self.deploy.gauge_at(c.clock, "pending", pending as f64);
            }
        }
    }

    /// Emits each slot's `idle` spans: the gaps between its builds over
    /// `[0, makespan]`, so that per slot busy + idle == makespan (and
    /// summed, busy + idle == slots × makespan — the invariant the
    /// `slot_accounting` suite checks against the report totals). Per slot,
    /// builds are disjoint and in time order: a slot is only reused after
    /// its build completes.
    fn close(&mut self, builds: &[ExecutedBuild], makespan: f64) {
        for (j, slot) in self.slots.iter_mut().enumerate() {
            let mut cursor = 0.0;
            for build in builds.iter().filter(|b| b.slot == j) {
                if build.start > cursor {
                    slot.span("idle", cursor, build.start);
                }
                cursor = f64::max(cursor, build.finish);
            }
            if makespan > cursor {
                slot.span("idle", cursor, makespan);
            }
        }
    }
}

/// Mutable run state, shared by the live runtime, the serial reference and
/// the journal replayer.
pub(crate) struct RunState {
    /// Workload-runtime stepper over the *current* instance, which it owns:
    /// the completed builds stepped, the in-flight ones begun. Rebuilt only
    /// when an event replaces the instance.
    pub(crate) stepper: ObjectiveStepper<'static>,
    /// Parent-id dispatch order of every committed build — completed *and*
    /// in-flight (append-only; the frozen commitment at any moment).
    pub(crate) committed: Vec<IndexId>,
    /// Parent-id completion order of finished builds (used to rebuild the
    /// stepper after the instance changes).
    pub(crate) completed_order: Vec<IndexId>,
    /// Parent-id bitmap of *completed* indexes.
    pub(crate) built: Vec<bool>,
    /// Parent-id bitmap of retracted (dropped, unbuilt) indexes.
    pub(crate) excluded: Vec<bool>,
    /// Builds currently occupying slots, in dispatch order.
    pub(crate) in_flight: Vec<InFlight>,
    /// The planned unbuilt suffix, in execution order (parent ids). A
    /// `VecDeque` so head dispatch is O(1) (and a work-conserving overtake
    /// at position `p` costs `O(min(p, n − p))`, not a full shift).
    pub(crate) pending: VecDeque<IndexId>,
    pub(crate) clock: f64,
    /// Exact accumulator behind `report.realized_cost`: every
    /// `runtime · duration` product lands here error-free and is rounded
    /// once at the end of the run, so a quiet run reproduces the offline
    /// objective area bit-for-bit (the offline evaluator sums the same
    /// products the same way).
    pub(crate) realized: ExactSum,
    pub(crate) report: DeploymentReport,
    /// Every record applied so far, in order.
    journal: Vec<JournalRecord>,
    /// The `next_event_at` of the last debounce deferral, until the next
    /// event lands and must match it.
    awaited_event: Option<f64>,
    /// Number of build slots; a dispatch into any other slot diverges.
    slots: usize,
    /// The telemetry projection, `None` when telemetry is off.
    tracks: Option<Tracks>,
}

impl RunState {
    /// The state before the first record of a run on `slots` build slots.
    /// With a recording `telemetry`, registers the run's tracks
    /// (`{scope}deploy`, then `{scope}slot0`, ...) up front, so their ids
    /// follow the same order in a live run and in its replay.
    pub(crate) fn new(
        instance: &ProblemInstance,
        initial: &Deployment,
        slots: usize,
        telemetry: &Telemetry,
        scope: &str,
    ) -> Self {
        let n = instance.num_indexes();
        let tracks = telemetry.is_enabled().then(|| Tracks {
            deploy: telemetry.register(format!("{scope}deploy")).recorder(),
            slots: (0..slots)
                .map(|j| telemetry.register(format!("{scope}slot{j}")).recorder())
                .collect(),
        });
        RunState {
            stepper: ObjectiveStepper::owned(instance.clone()),
            committed: Vec::with_capacity(n),
            completed_order: Vec::with_capacity(n),
            built: vec![false; n],
            excluded: vec![false; n],
            in_flight: Vec::new(),
            pending: initial.order().iter().copied().collect(),
            clock: 0.0,
            realized: ExactSum::new(),
            report: DeploymentReport {
                builds: Vec::new(),
                replans: Vec::new(),
                realized_cost: 0.0,
                final_runtime: 0.0,
                total_clock: 0.0,
                total_build_time: 0.0,
                total_wasted: 0.0,
                retries: 0,
                out_of_order_dispatches: 0,
                events_applied: 0,
                ineffective_drops: 0,
            },
            journal: Vec::new(),
            awaited_event: None,
            slots,
            tracks,
        }
    }

    /// The current (drifted / revised) instance.
    pub(crate) fn instance(&self) -> &ProblemInstance {
        self.stepper.instance()
    }

    /// Applies one record: cross-checks its stamps bit for bit against
    /// what the state derives, updates the state and the report, projects
    /// the record onto the telemetry tracks and appends it to the journal.
    /// A record that contradicts the state is [`ReplayError::Diverged`];
    /// an event or plan that fails the way it would have failed live is
    /// [`ReplayError::Run`].
    pub(crate) fn apply(&mut self, record: JournalRecord) -> Result<(), ReplayError> {
        let mut busy_since = 0.0;
        match &record {
            JournalRecord::EventLanded(r) => {
                if let Some(at) = self.awaited_event.take() {
                    check_bits("debounced event time", at, r.event.at)?;
                }
                // Events land at the first boundary at or after their
                // timestamp; post-deployment events advance the clock.
                self.clock = self.clock.max(r.event.at);
                check_bits("event clock", r.clock, self.clock)?;
                self.apply_event(&r.event)?;
                self.report.events_applied += 1;
            }
            JournalRecord::Debounce(d) => {
                check_bits("debounce clock", d.clock, self.clock)?;
                if let Some(at) = self.awaited_event.replace(d.next_event_at) {
                    check_bits("debounce next event", d.next_event_at, at)?;
                }
            }
            JournalRecord::Replan(d) => {
                // The decision is on the record; the frozen-commitment
                // snapshot comes from the state, so a suffix that
                // contradicts the commitment fails plan validation.
                check_bits("replan clock", d.clock, self.clock)?;
                self.report.replans.push(ReplanRecord {
                    clock: d.clock,
                    trigger: d.trigger.clone(),
                    frozen_prefix: self.committed.clone(),
                    in_flight: self.in_flight.iter().map(|f| f.index).collect(),
                    suffix_len: d.pending.len(),
                    warm_start_objective: d.warm_start_objective,
                    objective: d.objective,
                    solver: d.solver.clone(),
                    improved: d.improved,
                });
                self.pending = d.pending.iter().copied().collect();
                self.validate_plan()?;
            }
            JournalRecord::Dispatch(d) => self.dispatch(d)?,
            JournalRecord::Fail(f) => {
                let fl = self
                    .in_flight
                    .iter_mut()
                    .find(|x| x.index == f.index)
                    .ok_or_else(|| {
                        diverged(format!(
                            "failed attempt of {} with no such build in flight",
                            f.index
                        ))
                    })?;
                if f.slot != fl.slot {
                    return Err(diverged(format!(
                        "failed attempt of {} in slot {} but the build occupies slot {}",
                        f.index, f.slot, fl.slot
                    )));
                }
                // Exactly attempts 1..=retries, once each, in order.
                if fl.failed == fl.retries || f.attempt != fl.failed + 1 {
                    return Err(diverged(format!(
                        "attempt {} of {} out of sequence: {} of its {} failed attempts \
                         already journaled",
                        f.attempt, f.index, fl.failed, fl.retries
                    )));
                }
                check_bits("failed-attempt clock", f.clock, fl.next_attempt)?;
                check_bits("failed-attempt waste", f.wasted, fl.waste_per_failure)?;
                fl.failed += 1;
                fl.next_attempt += fl.waste_per_failure;
            }
            JournalRecord::Complete(c) => busy_since = self.complete(c)?,
        }
        if let Some(tracks) = &mut self.tracks {
            tracks.project(&record, busy_since, self.pending.len());
        }
        self.journal.push(record);
        Ok(())
    }

    fn dispatch(&mut self, d: &DispatchRecord) -> Result<(), ReplayError> {
        check_bits("dispatch clock", d.clock, self.clock)?;
        if d.position != self.committed.len() {
            return Err(diverged(format!(
                "dispatch of {} at position {} but {} builds are committed",
                d.index,
                d.position,
                self.committed.len()
            )));
        }
        if self.pending.get(d.plan_offset) != Some(&d.index) {
            return Err(diverged(format!(
                "dispatch of {} at plan offset {} does not match the pending suffix",
                d.index, d.plan_offset
            )));
        }
        if !self.eligible(d.index) {
            return Err(diverged(format!(
                "dispatch of {} before its precedence prerequisites completed",
                d.index
            )));
        }
        if d.slot >= self.slots || self.in_flight.iter().any(|f| f.slot == d.slot) {
            return Err(diverged(format!(
                "dispatch of {} into occupied slot {} (of {})",
                d.index, d.slot, self.slots
            )));
        }
        self.pending.remove(d.plan_offset);
        if d.plan_offset > 0 {
            self.report.out_of_order_dispatches += 1;
        }
        let cost = self.stepper.begin_build(d.index);
        check_bits("dispatch cost", d.cost, cost)?;

        // Failed attempts waste `waste_per_failure` clock each before the
        // build succeeds, all inside this slot.
        let mut wasted = 0.0;
        for _ in 0..d.retries {
            wasted += d.waste_per_failure;
        }
        let start = self.clock;
        let finish = start + (wasted + cost);
        self.report.builds.push(ExecutedBuild {
            position: d.position,
            index: d.index,
            slot: d.slot,
            start,
            finish,
            cost,
            wasted,
            retries: d.retries,
            plan_offset: d.plan_offset,
            runtime_before: self.stepper.runtime(),
            runtime_after: f64::NAN, // filled at completion
        });
        self.report.total_build_time += cost;
        self.report.total_wasted += wasted;
        self.report.retries += d.retries;
        self.in_flight.push(InFlight {
            index: d.index,
            slot: d.slot,
            build_pos: self.report.builds.len() - 1,
            start,
            finish,
            cost,
            waste_per_failure: d.waste_per_failure,
            retries: d.retries,
            failed: 0,
            next_attempt: start,
        });
        self.committed.push(d.index);
        Ok(())
    }

    /// Lands a completion; returns the finished build's start (its `busy`
    /// span runs from there to the completion clock).
    fn complete(&mut self, c: &CompleteRecord) -> Result<f64, ReplayError> {
        let pos = self
            .in_flight
            .iter()
            .position(|f| f.index == c.index)
            .ok_or_else(|| {
                diverged(format!(
                    "completion of {} with no such build in flight",
                    c.index
                ))
            })?;
        let fl = &self.in_flight[pos];
        if c.slot != fl.slot {
            return Err(diverged(format!(
                "completion of {} in slot {} but the build occupies slot {}",
                c.index, c.slot, fl.slot
            )));
        }
        if fl.failed != fl.retries {
            return Err(diverged(format!(
                "completion of {} after {} of its {} failed attempts",
                c.index, fl.failed, fl.retries
            )));
        }
        if self.next_to_complete().map(|f| f.index) != Some(c.index) {
            return Err(diverged(format!(
                "completion of {} while a build finishing earlier is in flight",
                c.index
            )));
        }
        let realized = self.accrued_through(fl);
        let fl = self.in_flight.remove(pos);
        self.clock = fl.finish;
        check_bits("completion clock", c.clock, self.clock)?;
        check_bits("realized cost at completion", c.realized, realized.value())?;
        self.realized = realized;
        let (_, runtime_after) = self.stepper.complete_build(fl.index);
        self.report.builds[fl.build_pos].runtime_after = runtime_after;
        self.built[fl.index.raw()] = true;
        self.completed_order.push(fl.index);
        Ok(fl.start)
    }

    /// The realized-cost accumulator after integrating runtime · wall-clock
    /// over `[clock, fl.finish]`. When nothing has accrued since this build
    /// started (always true with one slot), the span splits into the serial
    /// per-attempt products, so the one-slot runtime reproduces the serial
    /// arithmetic bit-for-bit; otherwise the remaining span accrues in one
    /// piece (the runtime level is constant over it — every earlier
    /// completion has already landed).
    fn accrued_through(&self, fl: &InFlight) -> ExactSum {
        let runtime = self.stepper.runtime();
        let mut realized = self.realized.clone();
        if self.clock.to_bits() == fl.start.to_bits() {
            for _ in 0..fl.retries {
                realized.add_prod(runtime, fl.waste_per_failure);
            }
            realized.add_prod(runtime, fl.cost);
        } else {
            realized.add_prod(runtime, fl.finish - self.clock);
        }
        realized
    }

    /// The in-flight build that completes next: earliest finish first,
    /// dispatch order breaking ties.
    fn next_to_complete(&self) -> Option<&InFlight> {
        self.in_flight.iter().min_by(|a, b| {
            a.finish
                .total_cmp(&b.finish)
                .then(a.build_pos.cmp(&b.build_pos))
        })
    }

    /// The record of the next completion, if anything is in flight,
    /// stamped with exactly what [`RunState::apply`] will derive and check.
    pub(crate) fn next_completion(&self) -> Option<CompleteRecord> {
        let fl = self.next_to_complete()?;
        Some(CompleteRecord {
            clock: fl.finish,
            slot: fl.slot,
            index: fl.index,
            realized: self.accrued_through(fl).value(),
        })
    }

    /// Closes the run: the report's totals, the closing `idle` spans, and
    /// the journal. A journal that leaves work pending or in flight, or
    /// whose last deferral awaited an event that never landed, diverges.
    pub(crate) fn finish(mut self) -> Result<(DeploymentReport, DeploymentJournal), ReplayError> {
        if !self.pending.is_empty() || !self.in_flight.is_empty() {
            return Err(diverged(format!(
                "journal ended with {} pending and {} in-flight builds",
                self.pending.len(),
                self.in_flight.len()
            )));
        }
        if let Some(at) = self.awaited_event {
            return Err(diverged(format!(
                "journal ended while a debounce awaited the event at {at}"
            )));
        }
        // The stepper holds exactly the completed set on the final
        // (drifted / revised) instance, so this is the offline evaluator's
        // runtime after that set.
        self.report.final_runtime = self.stepper.runtime();
        self.report.realized_cost = self.realized.value();
        self.report.total_clock = self.clock;
        if let Some(tracks) = &mut self.tracks {
            tracks.close(&self.report.builds, self.clock);
        }
        debug_assert!(self.report.prefixes_respected());
        debug_assert!(self.report.in_flight_respected());
        Ok((self.report, DeploymentJournal::new(self.journal)))
    }

    /// `true` when `raw` is committed: completed or occupying a slot.
    pub(crate) fn is_committed(&self, raw: usize) -> bool {
        self.built[raw] || self.in_flight.iter().any(|f| f.index.raw() == raw)
    }

    /// Validates the in-flight plan: `committed ++ pending` must cover
    /// exactly the unexcluded (or already committed) indexes once each and
    /// satisfy every applicable precedence of the current instance.
    pub(crate) fn validate_plan(&self) -> Result<(), DeployError> {
        let n = self.instance().num_indexes();
        let mut position = vec![usize::MAX; n];
        for (p, &i) in self.committed.iter().chain(self.pending.iter()).enumerate() {
            if i.raw() >= n {
                return Err(DeployError::InvalidPlan(format!("{i} is out of range")));
            }
            if position[i.raw()] != usize::MAX {
                return Err(DeployError::InvalidPlan(format!("{i} is scheduled twice")));
            }
            position[i.raw()] = p;
        }
        for (raw, &pos) in position.iter().enumerate() {
            let scheduled = pos != usize::MAX;
            let should_be = !self.excluded[raw] || self.is_committed(raw);
            if scheduled != should_be {
                return Err(DeployError::InvalidPlan(format!(
                    "index i{raw} is {} the plan but should {}be",
                    if scheduled { "in" } else { "missing from" },
                    if should_be { "" } else { "not " },
                )));
            }
        }
        for pr in self.instance().precedences() {
            let before = position[pr.before.raw()];
            let after = position[pr.after.raw()];
            if after == usize::MAX {
                continue; // constrained index left the target set: vacuous
            }
            if before == usize::MAX {
                return Err(DeployError::InvalidPlan(format!(
                    "{} requires retracted prerequisite {}",
                    pr.after, pr.before
                )));
            }
            if before > after {
                return Err(DeployError::InvalidPlan(format!(
                    "plan violates precedence {} -> {}",
                    pr.before, pr.after
                )));
            }
        }
        Ok(())
    }

    /// Swaps in a new current instance: a fresh stepper over it, with the
    /// completed builds stepped and the in-flight ones begun. The stepper is
    /// a pure function of (instance, completion order, in-flight set), so
    /// nothing else changes.
    fn set_instance(&mut self, instance: ProblemInstance) {
        let mut stepper = ObjectiveStepper::owned(instance);
        for &i in &self.completed_order {
            stepper.step(i);
        }
        for fl in &self.in_flight {
            stepper.begin_build(fl.index);
        }
        self.stepper = stepper;
    }

    /// Applies one timed event, mutating the instance / target set and the
    /// mechanically-maintained pending order (additions append, drops
    /// remove). Returns the trigger label.
    pub(crate) fn apply_event(
        &mut self,
        event: &EvolutionEvent,
    ) -> Result<&'static str, DeployError> {
        match &event.kind {
            EventKind::Drift(drift) => {
                let drifted = drift.apply_to(self.instance())?;
                self.set_instance(drifted);
            }
            EventKind::Revision(revision) => {
                let (revised, new_ids) = revision.apply_additions(self.instance())?;
                self.set_instance(revised);
                let n = self.instance().num_indexes();
                self.built.resize(n, false);
                self.excluded.resize(n, false);
                // New indexes join the plan at the end (a replan will place
                // them properly; the static baseline keeps them there).
                self.pending.extend(new_ids);
                for &dropped in &revision.drop {
                    if dropped.raw() >= n || self.is_committed(dropped.raw()) {
                        // Already built — or mid-build: a slot cannot
                        // un-build what it is building.
                        self.report.ineffective_drops += 1;
                        continue;
                    }
                    // Tentatively retract, but refuse drops that orphan a
                    // still-scheduled dependent behind a precedence.
                    self.excluded[dropped.raw()] = true;
                    let orphans = self.instance().precedences().iter().any(|pr| {
                        pr.before == dropped
                            && !self.is_committed(pr.after.raw())
                            && !self.excluded[pr.after.raw()]
                    });
                    if orphans {
                        self.excluded[dropped.raw()] = false;
                        self.report.ineffective_drops += 1;
                    } else {
                        self.pending.retain(|&i| i != dropped);
                    }
                }
            }
        }
        Ok(trigger(&event.kind))
    }

    /// `true` when `index` may be dispatched: every precedence prerequisite
    /// has *completed* (an in-flight prerequisite blocks dispatch — the
    /// dependency is on the built artifact, not on the commitment).
    pub(crate) fn eligible(&self, index: IndexId) -> bool {
        self.instance()
            .precedences()
            .iter()
            .all(|pr| pr.after != index || self.built[pr.before.raw()])
    }

    /// Position in `pending` of the next index `policy` admits into a free
    /// slot, if any. Head-of-line admits only an eligible head;
    /// work-conserving admits the first eligible index. Eligibility depends
    /// only on the *completed* set, so the answer is stable across the
    /// dispatches of one completion boundary.
    pub(crate) fn next_dispatchable(&self, policy: DispatchPolicy) -> Option<usize> {
        let limit = match policy {
            DispatchPolicy::HeadOfLine => self.pending.len().min(1),
            DispatchPolicy::WorkConserving => self.pending.len(),
        };
        (0..limit).find(|&pos| self.eligible(self.pending[pos]))
    }
}
