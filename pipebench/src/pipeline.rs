//! The user-facing call of each workload and the checks on its output.
//!
//! A call fails on an error, an invalid order, or a claimed objective that
//! is not bit-for-bit what [`ObjectiveEvaluator::evaluate`] gives. A sharded
//! call also fails on a lossy partition or a monolithic fallback; a
//! deployment fails when its journal does not replay to its report or a
//! replan broke the frozen prefix or in-flight set.

use crate::inputs::{Inputs, SHARDED_BLOCKS};
use idd_core::{Deployment, ObjectiveEvaluator, ProblemInstance};
use idd_deploy::{
    replay, DeployConfig, DeployRuntime, DeploymentJournal, DeploymentReport, DispatchPolicy,
};
use idd_solver::{
    PortfolioOutcome, PortfolioSolver, SearchBudget, ShardedConfig, ShardedOutcome, ShardedSolver,
};
use idd_telemetry::Telemetry;

/// Wall-clock budget of one planning call, in seconds. The sharded solver
/// splits it evenly across its shards.
pub const PLAN_BUDGET_S: f64 = 2.0;
/// Concurrent build slots of every deployment.
pub const BUILD_SLOTS: usize = 2;

/// The recommended portfolio under `budget_s` seconds.
pub fn portfolio(budget_s: f64, telemetry: &Telemetry) -> PortfolioSolver {
    PortfolioSolver::recommended(SearchBudget::seconds(budget_s)).with_telemetry(telemetry.clone())
}

/// The sharded solver with the total planning budget split per block.
pub fn sharded_solver() -> ShardedSolver {
    ShardedSolver::new(ShardedConfig::with_budget(SearchBudget::seconds(
        PLAN_BUDGET_S / SHARDED_BLOCKS as f64,
    )))
}

/// Two slots, work-conserving dispatch, slot-aware greedy replans.
pub fn replanning_runtime(telemetry: &Telemetry) -> DeployRuntime {
    DeployRuntime::new(
        DeployConfig::greedy_replan()
            .with_build_slots(BUILD_SLOTS)
            .with_dispatch(DispatchPolicy::WorkConserving)
            .with_slot_aware_replan(true),
    )
    .with_telemetry(telemetry.clone())
}

/// The same slots and dispatch, keeping the plan's order (events still
/// apply): the baseline a replan's cost is measured against.
pub fn static_runtime() -> DeployRuntime {
    DeployRuntime::new(
        DeployConfig::static_plan()
            .with_build_slots(BUILD_SLOTS)
            .with_dispatch(DispatchPolicy::WorkConserving),
    )
}

/// What one call returned.
pub enum CallOutput {
    Plan(PortfolioOutcome),
    Sharded(ShardedOutcome),
    Deploy(Result<(DeploymentReport, DeploymentJournal), String>),
}

impl CallOutput {
    /// `SolveResult::elapsed_seconds` of a planning call.
    pub fn reported_elapsed_s(&self) -> Option<f64> {
        match self {
            CallOutput::Plan(o) => Some(o.combined.elapsed_seconds),
            CallOutput::Sharded(o) => Some(o.result.elapsed_seconds),
            CallOutput::Deploy(_) => None,
        }
    }
}

/// Runs the workload's user-facing call once.
pub fn call(inputs: &Inputs, telemetry: &Telemetry) -> CallOutput {
    match inputs {
        Inputs::Plan { instance } => {
            CallOutput::Plan(portfolio(PLAN_BUDGET_S, telemetry).solve_detailed(instance))
        }
        Inputs::Blocks { instance } => CallOutput::Sharded(sharded_solver().solve(instance)),
        Inputs::Deploy {
            instance,
            plan,
            scenario,
        } => CallOutput::Deploy(
            replanning_runtime(telemetry)
                .execute_journaled(instance, plan, scenario)
                .map_err(|e| e.to_string()),
        ),
    }
}

/// Checks a call's output; on success returns its normalized cost.
pub fn check(inputs: &Inputs, output: &CallOutput) -> Result<f64, String> {
    match (inputs, output) {
        (Inputs::Plan { instance }, CallOutput::Plan(o)) => check_order(
            instance,
            o.combined.deployment.as_ref(),
            o.combined.objective,
        ),
        (Inputs::Blocks { instance }, CallOutput::Sharded(o)) => check_sharded(instance, o),
        (Inputs::Deploy { instance, plan, .. }, CallOutput::Deploy(run)) => {
            let (report, journal) = run.as_ref().map_err(Clone::clone)?;
            check_deployment(instance, plan, report, journal)
        }
        _ => Err("output does not belong to the workload".into()),
    }
}

/// A returned order must be valid for `instance` and its claimed objective
/// must equal the evaluator's area bit for bit. Returns the normalized
/// objective `100·area / (R_∅·Σ ctime)`.
pub fn check_order(
    instance: &ProblemInstance,
    deployment: Option<&Deployment>,
    claimed: f64,
) -> Result<f64, String> {
    let deployment = deployment.ok_or("no order returned")?;
    deployment
        .validate(instance)
        .map_err(|e| format!("invalid order: {e}"))?;
    let value = ObjectiveEvaluator::new(instance).evaluate(deployment);
    if value.area.to_bits() != claimed.to_bits() {
        return Err(format!(
            "claimed objective {claimed} but the evaluator gives {}",
            value.area
        ));
    }
    Ok(value.normalized())
}

/// [`check_order`] plus: the partition was exact and really sharded.
pub fn check_sharded(instance: &ProblemInstance, outcome: &ShardedOutcome) -> Result<f64, String> {
    if outcome.monolithic_fallback {
        return Err("sharded solve fell back to a monolithic solve".into());
    }
    if !outcome.exact {
        return Err(format!("partition cut {} edges", outcome.cut_edges));
    }
    check_order(
        instance,
        outcome.result.deployment.as_ref(),
        outcome.result.objective,
    )
}

/// A deployment must keep every replan's frozen prefix and in-flight set,
/// and its journal must replay to exactly its report. Returns the realized
/// cost over the offline objective's `R_∅·Σ ctime` denominator.
pub fn check_deployment(
    instance: &ProblemInstance,
    plan: &Deployment,
    report: &DeploymentReport,
    journal: &DeploymentJournal,
) -> Result<f64, String> {
    if !report.prefixes_respected() || !report.in_flight_respected() {
        return Err("a replan moved a frozen or in-flight build".into());
    }
    let replayed = replay(instance, plan, journal).map_err(|e| e.to_string())?;
    if replayed != *report {
        return Err("the journal replays to a different report".into());
    }
    Ok(realized_norm(instance, report.realized_cost))
}

/// `100 · realized / (R_∅ · Σ ctime)` over the initial instance.
pub fn realized_norm(instance: &ProblemInstance, realized: f64) -> f64 {
    let denom =
        ObjectiveEvaluator::new(instance).baseline_runtime() * instance.total_base_build_cost();
    100.0 * realized / denom
}

/// Self-check at tiny sizes: every check fires on a corrupted input, and
/// the tally counts each firing in `fail_frac`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::scenario;
    use crate::report::Tally;
    use idd_core::JournalRecord;
    use idd_solver::GreedySolver;
    use idd_workloads::synthetic::{generate_block_structured, BlockStructuredConfig};

    fn tiny() -> ProblemInstance {
        generate_block_structured(BlockStructuredConfig::blocks(3, 4, 0, 7))
    }

    fn tiny_sharded(instance: &ProblemInstance) -> ShardedOutcome {
        let mut config = ShardedConfig::with_budget(SearchBudget::nodes(2_000));
        config.max_parallel_shards = 1;
        ShardedSolver::new(config).solve(instance)
    }

    #[test]
    fn a_wrong_claimed_objective_or_an_invalid_order_fails() {
        let instance = tiny();
        let plan = GreedySolver::new().construct(&instance);
        let area = ObjectiveEvaluator::new(&instance).evaluate(&plan).area;
        assert!(check_order(&instance, Some(&plan), area).is_ok());

        let off_by_one_ulp = f64::from_bits(area.to_bits() + 1);
        let err = check_order(&instance, Some(&plan), off_by_one_ulp).unwrap_err();
        assert!(err.contains("claimed objective"), "{err}");

        let mut order = plan.order().to_vec();
        order[1] = order[0];
        assert!(check_order(&instance, Some(&Deployment::new(order)), area).is_err());
        assert!(check_order(&instance, None, area).is_err());
    }

    #[test]
    fn a_lossy_or_unsharded_solve_fails() {
        let instance = tiny();
        let outcome = tiny_sharded(&instance);
        assert!(check_sharded(&instance, &outcome).is_ok());

        let mut fallback = outcome.clone();
        fallback.monolithic_fallback = true;
        assert!(check_sharded(&instance, &fallback).is_err());
        let mut lossy = outcome.clone();
        lossy.exact = false;
        assert!(check_sharded(&instance, &lossy).is_err());
        let mut wrong = outcome;
        wrong.result.objective *= 0.5;
        assert!(check_sharded(&instance, &wrong).is_err());
    }

    #[test]
    fn a_tampered_journal_or_report_fails() {
        let instance = tiny();
        let plan = GreedySolver::new().construct(&instance);
        let scenario = scenario(&instance, 3);
        let (report, journal) = replanning_runtime(&Telemetry::off())
            .execute_journaled(&instance, &plan, &scenario)
            .unwrap();
        assert!(check_deployment(&instance, &plan, &report, &journal).is_ok());

        // A completion stamp edited after the fact.
        let mut records = journal.records().to_vec();
        let complete = records
            .iter_mut()
            .find_map(|r| match r {
                JournalRecord::Complete(c) => Some(c),
                _ => None,
            })
            .unwrap();
        complete.realized += 1.0;
        let tampered = DeploymentJournal::new(records);
        let err = check_deployment(&instance, &plan, &report, &tampered).unwrap_err();
        assert!(err.contains("diverged"), "{err}");

        // A report that claims a cost its journal does not reproduce.
        let mut claimed = report.clone();
        claimed.realized_cost *= 0.5;
        let err = check_deployment(&instance, &plan, &claimed, &journal).unwrap_err();
        assert!(err.contains("different report"), "{err}");

        // A replan record that moved a frozen build.
        let mut moved = report;
        if let Some(replan) = moved.replans.first_mut() {
            replan
                .frozen_prefix
                .insert(0, moved.builds.last().unwrap().index);
            assert!(check_deployment(&instance, &plan, &moved, &journal).is_err());
        }
    }

    #[test]
    fn fail_frac_counts_every_fired_check() {
        let instance = tiny();
        let plan = GreedySolver::new().construct(&instance);
        let area = ObjectiveEvaluator::new(&instance).evaluate(&plan).area;
        let scenario = scenario(&instance, 3);
        let (report, journal) = replanning_runtime(&Telemetry::off())
            .execute_journaled(&instance, &plan, &scenario)
            .unwrap();
        let mut records = journal.records().to_vec();
        records.pop();
        let truncated = DeploymentJournal::new(records);

        let mut tally = Tally::default();
        tally.record("good order", check_order(&instance, Some(&plan), area));
        tally.record(
            "wrong objective",
            check_order(&instance, Some(&plan), area + 1.0),
        );
        tally.record(
            "good deployment",
            check_deployment(&instance, &plan, &report, &journal),
        );
        tally.record(
            "truncated journal",
            check_deployment(&instance, &plan, &report, &truncated),
        );
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(tally.fail_frac(), 0.5);
    }

    #[test]
    fn each_workload_call_is_checked_against_its_own_inputs() {
        let instance = tiny();
        let plan = GreedySolver::new().construct(&instance);
        let inputs = Inputs::Deploy {
            scenario: scenario(&instance, 5),
            plan,
            instance,
        };
        let output = call(&inputs, &Telemetry::off());
        let cost = check(&inputs, &output).unwrap();
        assert!(cost.is_finite() && cost > 0.0, "{cost}");

        let blocks = Inputs::Blocks { instance: tiny() };
        let sharded = CallOutput::Sharded(tiny_sharded(blocks.instance()));
        assert!(check(&blocks, &sharded).is_ok());
        assert!(check(&inputs, &sharded).is_err());
    }
}
