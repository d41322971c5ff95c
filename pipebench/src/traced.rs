//! The traced run: the workload's call once more with telemetry on, then
//! every layer of the pipeline timed from outside on the workload's own
//! inputs.
//!
//! The benchmark opens its own `bench` track and brackets each public call
//! with `span_begin`/`span_end`; portfolio-member and runtime telemetry are
//! switched on too. Per-layer times are self times drained from that stream
//! (see `spans.rs`); counts come from the calls' results and counters. The
//! stream is exported with `chrome::render` and re-parsed as a check.
//!
//! Stages, each run on every workload:
//!
//! 1. the workload's call, traced (untraced once before, for the overhead);
//! 2. decomposition: `analyze` → `CouplingGraph` → partition → `project` →
//!    per-shard `analyze` and portfolio race → `recombine::merge` → verify;
//! 3. search members on the search probe — the workload's instance, or for
//!    `blocks-sharded` its first shard under the per-shard budget: greedy
//!    construct, tabu, VNS, CP with properties, delta-evaluated swaps;
//! 4. a standalone portfolio race where the workload has none of its own;
//! 5. deployment on 2 slots (static and replanning) of the workload's plan —
//!    for `blocks-sharded` restricted to its first 8 shards (n = 256) — and
//!    the journal's encode / decode / replay.

use crate::inputs::{self, Inputs, DEPLOY_BLOCKS};
use crate::pipeline::{self, CallOutput, PLAN_BUDGET_S};
use crate::report::{median, RunReport, Tally, PER_LAYER};
use crate::spans::SpanTimes;
use crate::Workload;
use idd_core::{
    benefit_steps, DeltaEvaluator, Deployment, EvolutionScenario, IndexId, ObjectiveEvaluator,
    ProblemInstance,
};
use idd_deploy::{replay, DeploymentJournal, DeploymentReport};
use idd_solver::decompose::{project, recombine, ShardInstance, ShardSchedule};
use idd_solver::exact::{CpConfig, CpSolver};
use idd_solver::local::{SwapStrategy, TabuConfig, TabuSolver, VnsSolver};
use idd_solver::properties::{analyze, AnalysisOptions, AnalysisReport};
use idd_solver::{CouplingGraph, GreedySolver, SearchBudget, SolveResult};
use idd_telemetry::{chrome, EventKind, Telemetry, TraceStream, TrackId};
use std::hint::black_box;
use std::time::Instant;

/// Adjacent swaps scored by the delta-evaluator probe.
const DELTA_SWAPS: usize = 200_000;

/// Runs `f` inside a wall-clock span on the installed `bench` track.
fn timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
    idd_telemetry::span_begin(name);
    let out = f();
    idd_telemetry::span_end(name);
    out
}

/// Runs `f` with `track` installed, so the counters a solver emits land
/// on a track of their own.
fn on_track<T>(telemetry: &Telemetry, track: &str, f: impl FnOnce() -> T) -> (T, TrackId) {
    let handle = telemetry.register(track);
    let _guard = handle.install();
    (f(), handle.id())
}

/// Sum of the `name` counters on one track.
fn track_counter(stream: &TraceStream, track: TrackId, name: &str) -> u64 {
    stream
        .events_for(track)
        .map(|e| match &e.kind {
            EventKind::Counter { name: n, value } if n == name => *value,
            _ => 0,
        })
        .sum()
}

/// Runs the traced workload and prints every per-layer metric.
pub fn run(workload: Workload, seed: u64) -> bool {
    let mut report = RunReport::new(workload, seed, PER_LAYER);
    // The first input of the run's family, as the untraced run's first call.
    let input_seed = inputs::member_seed(seed, 0);
    let inputs = match Inputs::generate(workload, input_seed) {
        Ok(inputs) => inputs,
        Err(e) => {
            eprintln!("pipebench: set-up failed: {e}");
            return false;
        }
    };
    // The untraced reference for `telemetry.overhead_s`, before any
    // recorder is installed.
    let started = Instant::now();
    let output = pipeline::call(&inputs, &Telemetry::off());
    let untraced_s = started.elapsed().as_secs_f64();
    report
        .tally
        .record("untraced call", pipeline::check(&inputs, &output));

    let telemetry = Telemetry::recording();
    let bench = telemetry.register("bench");
    let guard = bench.install();
    let stages = Stages::run(&inputs, input_seed, &telemetry, &mut report.tally);
    drop(guard);
    let stream = telemetry.drain();

    export_chrome(&stream, workload, seed, &mut report.tally);
    match SpanTimes::from_stream(&stream, bench.id()) {
        Ok(spans) => stages.put_metrics(&spans, &stream, untraced_s, &mut report),
        Err(e) => {
            report.tally.record::<()>("bench spans", Err(e));
        }
    }
    report.print()
}

/// Writes the Chrome trace next to the benchmark and checks it re-parses.
fn export_chrome(stream: &TraceStream, workload: Workload, seed: u64, tally: &mut Tally) {
    let json = chrome::render(stream);
    tally.record(
        "chrome export",
        serde_json::parse_value(&json)
            .map(drop)
            .map_err(|e| e.to_string()),
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-{seed}.json", workload.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => eprintln!("pipebench: Chrome trace written to {}", path.display()),
        Err(e) => eprintln!("pipebench: could not write {}: {e}", path.display()),
    }
}

/// Everything the stages returned that the metrics need besides spans.
struct Stages {
    /// The traced workload call's reported `elapsed_seconds`, for planning
    /// workloads.
    call_reported_s: Option<f64>,
    /// Nodes and budget of the portfolio race(s) measured as the portfolio
    /// layer, and the span that timed them.
    portfolio_nodes: u64,
    portfolio_budget_s: f64,
    portfolio_span: &'static str,
    /// `elapsed_seconds` of every race timed by `portfolio_span`, in order.
    portfolio_reported_s: Vec<f64>,
    analysis: AnalysisReport,
    shards: usize,
    /// `elapsed_seconds` of every shard race, in order.
    shard_reported_s: Vec<f64>,
    tabu_track: TrackId,
    vns_track: TrackId,
    tabu_cost: Option<f64>,
    vns_cost: Option<f64>,
    cp_nodes: u64,
    deploy: Option<DeployStage>,
}

struct DeployStage {
    /// Span that timed the replanning deployment.
    span: &'static str,
    report: DeploymentReport,
    journal_records: usize,
    journal_bytes: usize,
}

impl Stages {
    fn run(inputs: &Inputs, seed: u64, telemetry: &Telemetry, tally: &mut Tally) -> Stages {
        let instance = inputs.instance();
        let output = timed("workload.call", || pipeline::call(inputs, telemetry));
        tally.record("traced call", pipeline::check(inputs, &output));

        // Decomposition of the workload's instance.
        let analysis = timed("properties.analyze", || {
            analyze(instance, AnalysisOptions::all())
        });
        let graph = timed("decompose.graph", || {
            CouplingGraph::build(instance, &analysis)
        });
        let partition = timed("decompose.partition", || graph.partition(0.0));
        let shards: Vec<ShardInstance> = timed("decompose.project", || {
            partition
                .shards
                .iter()
                .map(|members| project(instance, members))
                .collect()
        });
        for shard in &shards {
            timed("properties.shard_analyze", || {
                black_box(analyze(&shard.instance, AnalysisOptions::all()))
            });
        }
        let shard_budget_s = PLAN_BUDGET_S / shards.len() as f64;
        let mut shard_results = Vec::with_capacity(shards.len());
        for shard in &shards {
            let outcome = timed("decompose.shard_solve", || {
                pipeline::portfolio(shard_budget_s, telemetry).solve_detailed(&shard.instance)
            });
            let result = outcome.combined;
            tally.record(
                "shard race",
                pipeline::check_order(
                    &shard.instance,
                    result.deployment.as_ref(),
                    result.objective,
                ),
            );
            shard_results.push(result);
        }
        let order = timed("decompose.merge", || merge(&shards, &shard_results));
        let spliced = Deployment::new(order);
        let verified = timed("decompose.verify", || {
            ObjectiveEvaluator::new(instance).evaluate(&spliced)
        });
        tally.record(
            "recombined order",
            pipeline::check_order(instance, Some(&spliced), verified.area),
        );

        // Search members on the search probe.
        let (probe, probe_budget_s) = match inputs {
            Inputs::Blocks { .. } => (&shards[0].instance, shard_budget_s),
            _ => (instance, PLAN_BUDGET_S),
        };
        let budget = SearchBudget::seconds(probe_budget_s);
        let greedy = timed("greedy.construct", || GreedySolver::new().construct(probe));
        let (tabu, tabu_track) = timed("local.tabu", || {
            on_track(telemetry, "probe/tabu", || {
                TabuSolver::with_config(TabuConfig {
                    strategy: SwapStrategy::Best,
                    budget,
                    ..TabuConfig::default()
                })
                .solve(probe, greedy.clone())
            })
        });
        let (vns, vns_track) = timed("local.vns", || {
            on_track(telemetry, "probe/vns", || {
                VnsSolver::new(budget).solve(probe, greedy.clone())
            })
        });
        let cp = timed("exact.cp", || {
            CpSolver::with_config(CpConfig::with_properties(budget)).solve(probe)
        });
        let tabu_cost = tally.record("tabu", checked(probe, &tabu));
        let vns_cost = tally.record("vns", checked(probe, &vns));
        if cp.deployment.is_some() {
            tally.record("cp", checked(probe, &cp));
        }
        delta_probe(probe, &greedy, tally);

        // The portfolio layer.
        let mut stages = Stages {
            call_reported_s: output.reported_elapsed_s(),
            portfolio_nodes: 0,
            portfolio_budget_s: PLAN_BUDGET_S,
            portfolio_span: "workload.call",
            portfolio_reported_s: Vec::new(),
            analysis,
            shards: shards.len(),
            shard_reported_s: shard_results.iter().map(|r| r.elapsed_seconds).collect(),
            tabu_track,
            vns_track,
            tabu_cost,
            vns_cost,
            cp_nodes: cp.nodes,
            deploy: None,
        };
        match &output {
            CallOutput::Plan(outcome) => {
                stages.portfolio_nodes = outcome.combined.nodes;
                stages.portfolio_reported_s = vec![outcome.combined.elapsed_seconds];
            }
            CallOutput::Sharded(_) => {
                stages.portfolio_nodes = shard_results.iter().map(|r| r.nodes).sum();
                stages.portfolio_budget_s = shard_budget_s;
                stages.portfolio_span = "decompose.shard_solve";
                stages.portfolio_reported_s = stages.shard_reported_s.clone();
            }
            CallOutput::Deploy(_) => {
                let outcome = timed("portfolio.solve", || {
                    pipeline::portfolio(PLAN_BUDGET_S, telemetry).solve_detailed(instance)
                });
                let result = outcome.combined;
                tally.record(
                    "portfolio",
                    pipeline::check_order(instance, result.deployment.as_ref(), result.objective),
                );
                stages.portfolio_nodes = result.nodes;
                stages.portfolio_span = "portfolio.solve";
                stages.portfolio_reported_s = vec![result.elapsed_seconds];
            }
        }

        // Deployment and journal.
        stages.deploy = match (inputs, &output) {
            (Inputs::Deploy { plan, scenario, .. }, CallOutput::Deploy(Ok(run))) => deploy_stage(
                instance,
                plan,
                scenario,
                Some(run.clone()),
                telemetry,
                tally,
            ),
            (Inputs::Plan { .. }, CallOutput::Plan(outcome)) => {
                outcome.combined.deployment.as_ref().and_then(|plan| {
                    let scenario = inputs::scenario(instance, seed);
                    deploy_stage(instance, plan, &scenario, None, telemetry, tally)
                })
            }
            (Inputs::Blocks { .. }, CallOutput::Sharded(outcome)) => {
                outcome.result.deployment.as_ref().and_then(|plan| {
                    let (sub, sub_plan) = first_shards(instance, &partition.shards, plan);
                    let scenario = inputs::scenario(&sub.instance, seed);
                    deploy_stage(&sub.instance, &sub_plan, &scenario, None, telemetry, tally)
                })
            }
            // The call failed, which its check has already counted.
            _ => None,
        };
        stages
    }

    fn put_metrics(
        &self,
        spans: &SpanTimes,
        stream: &TraceStream,
        untraced_s: f64,
        report: &mut RunReport,
    ) {
        let call_s = spans.durations("workload.call").first().copied();
        report.put_one(
            "properties.analyze_s",
            spans.self_total("properties.analyze"),
        );
        report.put_one(
            "properties.shard_analyze_s",
            spans.self_total("properties.shard_analyze"),
        );
        report.put_one("properties.rounds", self.analysis.rounds as f64);
        report.put_one(
            "properties.ordered_pairs",
            self.analysis.total_ordered_pairs as f64,
        );
        report.put_one("greedy.construct_s", spans.self_total("greedy.construct"));
        let per_s = |count: u64, span: &str| count as f64 / spans.self_total(span);
        report.put_one(
            "local.tabu.iters_per_s",
            per_s(
                track_counter(stream, self.tabu_track, "iterations"),
                "local.tabu",
            ),
        );
        report.put_one(
            "local.vns.iters_per_s",
            per_s(
                track_counter(stream, self.vns_track, "iterations"),
                "local.vns",
            ),
        );
        report.put("local.tabu.cost_norm", self.tabu_cost.into_iter().collect());
        report.put("local.vns.cost_norm", self.vns_cost.into_iter().collect());
        report.put_one("exact.cp.nodes_per_s", per_s(self.cp_nodes, "exact.cp"));
        report.put_one(
            "core.delta_swap_ns",
            spans.self_total("core.delta_swap") / DELTA_SWAPS as f64 * 1e9,
        );

        let races = spans.durations(self.portfolio_span);
        let overruns: Vec<f64> = races.iter().map(|d| d - self.portfolio_budget_s).collect();
        report.put(
            "portfolio.overrun_s",
            median(&overruns).into_iter().collect(),
        );
        report.put_one("portfolio.nodes", self.portfolio_nodes as f64);
        // The largest gap between measured wall time and a planning call's
        // own `elapsed_seconds`, over every planning call of the run.
        let mut gaps: Vec<f64> = races
            .iter()
            .zip(&self.portfolio_reported_s)
            .map(|(wall, reported)| wall - reported)
            .collect();
        gaps.extend(
            spans
                .durations("decompose.shard_solve")
                .iter()
                .zip(&self.shard_reported_s)
                .map(|(wall, reported)| wall - reported),
        );
        if let (Some(wall), Some(reported)) = (call_s, self.call_reported_s) {
            gaps.push(wall - reported);
        }
        report.put(
            "portfolio.elapsed_gap_s",
            gaps.into_iter().reduce(f64::max).into_iter().collect(),
        );

        report.put_one("decompose.graph_s", spans.self_total("decompose.graph"));
        report.put_one(
            "decompose.partition_s",
            spans.self_total("decompose.partition"),
        );
        report.put_one("decompose.project_s", spans.self_total("decompose.project"));
        report.put_one("decompose.shards", self.shards as f64);
        let shard_solves = spans.self_times("decompose.shard_solve");
        report.put(
            "decompose.shard_solve_s",
            median(shard_solves).into_iter().collect(),
        );
        report.put(
            "decompose.shard_solve_max_s",
            shard_solves
                .iter()
                .copied()
                .reduce(f64::max)
                .into_iter()
                .collect(),
        );
        report.put_one("decompose.merge_s", spans.self_total("decompose.merge"));
        report.put_one("decompose.verify_s", spans.self_total("decompose.verify"));

        if let Some(deploy) = &self.deploy {
            let run = &deploy.report;
            let calls = run.replans.len();
            let static_s = spans.self_total("deploy.static");
            report.put_one("replan.calls", calls as f64);
            if calls > 0 {
                let replan_run_s = spans.self_total(deploy.span);
                report.put_one("replan.ms", (replan_run_s - static_s) / calls as f64 * 1e3);
                report.put_one(
                    "replan.improved_frac",
                    run.improved_replans() as f64 / calls as f64,
                );
            }
            report.put_one("deploy.static_s", static_s);
            report.put_one("deploy.builds", run.builds.len() as f64);
            report.put_one("deploy.retries", f64::from(run.retries));
            let slots = pipeline::BUILD_SLOTS as f64;
            report.put_one(
                "deploy.slot_idle_frac",
                run.slot_idle(pipeline::BUILD_SLOTS) / (slots * run.total_clock),
            );
            report.put_one("deploy.out_of_order", run.out_of_order_dispatches as f64);
            report.put_one("journal.records", deploy.journal_records as f64);
            report.put_one("journal.bytes", deploy.journal_bytes as f64);
            report.put_one("journal.encode_s", spans.self_total("journal.encode"));
            report.put_one("journal.decode_s", spans.self_total("journal.decode"));
            report.put_one("journal.replay_s", spans.self_total("journal.replay"));
        }
        if let Some(call_s) = call_s {
            report.put_one("telemetry.overhead_s", call_s - untraced_s);
        }
    }
}

/// A solve result's normalized cost, after the order checks.
fn checked(instance: &ProblemInstance, result: &SolveResult) -> Result<f64, String> {
    pipeline::check_order(instance, result.deployment.as_ref(), result.objective)
}

/// Reads each shard's order back as a benefit curve in parent ids and
/// merges the curves, as the sharded solver does.
fn merge(shards: &[ShardInstance], results: &[SolveResult]) -> Vec<IndexId> {
    let schedules: Vec<ShardSchedule> = shards
        .iter()
        .zip(results)
        .filter_map(|(shard, result)| {
            let value =
                ObjectiveEvaluator::new(&shard.instance).evaluate(result.deployment.as_ref()?);
            let steps = benefit_steps(&value)
                .into_iter()
                .map(|mut step| {
                    step.index = shard.members[step.index.raw()];
                    step
                })
                .collect();
            Some(ShardSchedule { steps })
        })
        .collect();
    recombine::merge(&schedules)
}

/// Scores [`DELTA_SWAPS`] adjacent swaps of `base` with the delta
/// evaluator, after checking one against a full evaluation.
fn delta_probe(instance: &ProblemInstance, base: &Deployment, tally: &mut Tally) {
    let n = base.len();
    if n < 2 {
        return;
    }
    let mut delta = DeltaEvaluator::new(instance, base.clone());
    let full = ObjectiveEvaluator::new(instance)
        .evaluate(&base.with_swap(0, 1))
        .area;
    let scored = delta.evaluate_swap(0, 1);
    tally.record(
        "delta swap",
        if scored.to_bits() == full.to_bits() {
            Ok(())
        } else {
            Err(format!("delta swap {scored} but full evaluation {full}"))
        },
    );
    timed("core.delta_swap", || {
        for k in 0..DELTA_SWAPS {
            let a = k % (n - 1);
            black_box(delta.evaluate_swap(black_box(a), a + 1));
        }
    });
}

/// Deploys `plan` under `scenario` on the static and the replanning
/// runtime (unless the replanning run is `given`), checks both, and times
/// the journal's encode, decode and replay.
fn deploy_stage(
    instance: &ProblemInstance,
    plan: &Deployment,
    scenario: &EvolutionScenario,
    given: Option<(DeploymentReport, DeploymentJournal)>,
    telemetry: &Telemetry,
    tally: &mut Tally,
) -> Option<DeployStage> {
    let baseline = timed("deploy.static", || {
        pipeline::static_runtime().execute_journaled(instance, plan, scenario)
    });
    tally.record(
        "static deployment",
        baseline
            .map_err(|e| e.to_string())
            .and_then(|(report, journal)| {
                pipeline::check_deployment(instance, plan, &report, &journal)
            }),
    );
    let (span, run) = match given {
        Some(run) => ("workload.call", run),
        None => {
            let run = timed("deploy.replan", || {
                pipeline::replanning_runtime(telemetry)
                    .with_trace_scope("probe/")
                    .execute_journaled(instance, plan, scenario)
            });
            let run = tally.record("replanning deployment", run.map_err(|e| e.to_string()))?;
            tally.record(
                "replanning deployment",
                pipeline::check_deployment(instance, plan, &run.0, &run.1),
            )?;
            ("deploy.replan", run)
        }
    };
    let (report, journal) = run;
    let text = timed("journal.encode", || journal.to_jsonl());
    let decoded = timed("journal.decode", || DeploymentJournal::from_jsonl(&text));
    tally.record(
        "journal round trip",
        match decoded {
            Ok(decoded) if decoded == journal => Ok(()),
            Ok(_) => Err("the decoded journal differs".to_string()),
            Err(e) => Err(e.to_string()),
        },
    );
    let replayed = timed("journal.replay", || replay(instance, plan, &journal));
    tally.record(
        "journal replay",
        match replayed {
            Ok(replayed) if replayed == report => Ok(()),
            Ok(_) => Err("the replayed report differs".to_string()),
            Err(e) => Err(e.to_string()),
        },
    );
    Some(DeployStage {
        span,
        journal_records: journal.len(),
        journal_bytes: text.len(),
        report,
    })
}

/// The sub-instance of the first [`DEPLOY_BLOCKS`] shards and `plan`
/// restricted to it, in the sub-instance's ids.
fn first_shards(
    instance: &ProblemInstance,
    shards: &[Vec<IndexId>],
    plan: &Deployment,
) -> (ShardInstance, Deployment) {
    let mut members: Vec<IndexId> = shards
        .iter()
        .take(DEPLOY_BLOCKS)
        .flatten()
        .copied()
        .collect();
    members.sort();
    let sub = project(instance, &members);
    let order = plan
        .order()
        .iter()
        .filter_map(|i| members.binary_search(i).ok().map(IndexId::new))
        .collect();
    (sub, Deployment::new(order))
}
