//! The deployment journal: the append-only record of a run, and the
//! replayer that reconstructs the run's report from it — bit-for-bit.
//!
//! The journal is the run's one event stream. Every state change of a run
//! is a typed [`JournalRecord`] (dispatch, failed attempt, completion, event
//! landing, replan decision, debounce deferral), stamped with the exact
//! clock and slot, and applied through one transition function: the live
//! [`DeployRuntime::execute_journaled`](crate::DeployRuntime::execute_journaled)
//! builds each record from its decisions and applies it, [`replay`] applies
//! the recorded ones. [`DeploymentJournal`] holds them in order and
//! serializes to JSONL — one compact JSON object per line — via the
//! vendored serde, so a journal survives a process boundary.
//!
//! [`replay`] consumes a journal plus the *seed* of the run (the original
//! instance and initial plan) and rebuilds the identical
//! [`DeploymentReport`], field by field, `f64`s compared by bit pattern —
//! the property the `journal_replay` proptest wall pins across the
//! serial-equivalence scenario grid. Replay is also a *verifier*: every
//! redundant stamp in the journal (dispatch costs, attempt numbers and
//! clocks, completion clocks and order, running realized cost, debounce
//! clocks and the event each deferral waited for) is recomputed and
//! cross-checked, so a truncated, reordered, or hand-edited journal
//! surfaces as [`ReplayError::Diverged`] instead of a quietly different
//! report.
//!
//! Runtime telemetry is a projection of the same records, so a past run can
//! be profiled from its seed and journal alone: [`replay_traced`] re-emits
//! the trace the live run emitted, event for event.
//!
//! What replay does *not* need is exactly what makes the journal a faithful
//! record: no scenario (events are embedded verbatim, failure specs ride on
//! the dispatch records), no solver (replans carry their chosen suffix), no
//! policy knobs (debounce deferrals are recorded decisions, and slot
//! assignment is explicit on every record).

use crate::report::DeploymentReport;
use crate::runtime::DeployError;
use crate::state::RunState;
use idd_core::{Deployment, JournalRecord, ProblemInstance};
use idd_telemetry::Telemetry;

/// An ordered, append-only record of one deployment run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeploymentJournal {
    records: Vec<JournalRecord>,
}

impl DeploymentJournal {
    /// Wraps an ordered record list into a journal.
    pub fn new(records: Vec<JournalRecord>) -> Self {
        Self { records }
    }

    /// The records, in the order the runtime acted.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the run took no recorded action (an empty plan against a
    /// quiet scenario).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes the journal to JSONL: one compact JSON object per record,
    /// one record per line, in order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            out.push_str(
                &serde_json::to_string(record).expect("journal serialization is infallible"),
            );
            out.push('\n');
        }
        out
    }

    /// Parses a journal from JSONL text (blank lines are skipped). Any
    /// malformed line is an error naming its 1-based line number.
    pub fn from_jsonl(text: &str) -> Result<Self, ReplayError> {
        let mut records = Vec::new();
        for (number, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record: JournalRecord =
                serde_json::from_str(line).map_err(|e| ReplayError::Malformed {
                    line: number + 1,
                    message: e.to_string(),
                })?;
            records.push(record);
        }
        Ok(Self { records })
    }
}

/// Why a replay could not reconstruct the report.
#[derive(Debug)]
pub enum ReplayError {
    /// A journal line failed to parse as a [`JournalRecord`]. The line
    /// number is 1-based and typed (not baked into the message), so
    /// callers — the `replay` CLI in particular — can point at the exact
    /// offending line of the input file.
    Malformed {
        /// 1-based line number of the offending JSONL line.
        line: usize,
        /// The parse error for that line.
        message: String,
    },
    /// The journal contradicts what re-execution derives from the seed
    /// instance — a stamp fails its bit-for-bit cross-check, a record refers
    /// to state that does not exist (an index not pending, a completion with
    /// nothing in flight, an occupied slot), or a replanned plan fails
    /// validation. The journal and the seed do not describe the same run.
    Diverged(String),
    /// Re-applying a recorded event failed the same way it would have
    /// failed live (e.g. a revision referencing unknown structure).
    Run(DeployError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Malformed { line, message } => {
                write!(f, "malformed journal: line {line}: {message}")
            }
            ReplayError::Diverged(msg) => write!(f, "replay diverged from journal: {msg}"),
            ReplayError::Run(e) => write!(f, "replay failed: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<DeployError> for ReplayError {
    fn from(e: DeployError) -> Self {
        ReplayError::Run(e)
    }
}

/// Reconstructs the [`DeploymentReport`] of the run that produced `journal`,
/// given the run's seed: the original instance and the initial plan.
///
/// The reconstruction is **bit-for-bit**: every record goes through the
/// same transition function as in the live
/// [`DeployRuntime::execute`](crate::DeployRuntime::execute) — the same
/// state machine, the same [`idd_core::ExactSum`] accumulator and the same
/// [`idd_core::ObjectiveStepper`] arithmetic — taking every *decision*
/// (what to dispatch where, what suffix a replan chose, when to defer)
/// from the journal instead of from a scenario, solver, or config. Every
/// redundant stamp in the journal is recomputed and cross-checked; any
/// mismatch is a [`ReplayError::Diverged`].
///
/// The same as [`replay_traced`] with telemetry off, on as many slots as
/// the journal dispatches into.
pub fn replay(
    instance: &ProblemInstance,
    initial: &Deployment,
    journal: &DeploymentJournal,
) -> Result<DeploymentReport, ReplayError> {
    let slots = journal
        .records()
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Dispatch(d) => Some(d.slot.saturating_add(1)),
            _ => None,
        })
        .max()
        .unwrap_or(1);
    replay_traced(instance, initial, journal, slots, &Telemetry::off(), "")
}

/// Replays `journal` like [`replay`] and profiles the past run: with a
/// recording `telemetry`, the replay emits the run's runtime telemetry —
/// the `{scope}deploy` and `{scope}slot<j>` tracks the live run emitted
/// under [`DeployRuntime::with_telemetry`](crate::DeployRuntime::with_telemetry)
/// and [`with_trace_scope`](crate::DeployRuntime::with_trace_scope), event
/// for event, since both are the same projection of the same records.
///
/// `build_slots` is the run's slot count (`0` is treated as `1`). A slot
/// that never held a build leaves no record, yet its `idle` span is part of
/// the profile; a record naming a slot at or beyond `build_slots` diverges.
pub fn replay_traced(
    instance: &ProblemInstance,
    initial: &Deployment,
    journal: &DeploymentJournal,
    build_slots: usize,
    telemetry: &Telemetry,
    scope: &str,
) -> Result<DeploymentReport, ReplayError> {
    initial
        .validate(instance)
        .map_err(DeployError::InvalidInitialPlan)?;
    let mut state = RunState::new(instance, initial, build_slots.max(1), telemetry, scope);
    for record in journal.records() {
        state.apply(record.clone())?;
    }
    Ok(state.finish()?.0)
}
