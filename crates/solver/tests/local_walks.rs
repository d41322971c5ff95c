//! Golden walks of the four local searches: TS-BSwap, TS-FSwap, LNS and
//! VNS (the latter two in a default and a low-failure-limit configuration,
//! so LNS's greedy repair and VNS's parameter adaptation both run), each
//! under a node budget on eight seeded instances with precedences and
//! build interactions.
//!
//! Every walk runs twice:
//!
//! * through [`Solver::run`] under [`CooperationPolicy::Off`] — the greedy
//!   seed, the property analysis and the search proper;
//! * through `solve_in` from a random feasible start, single-threaded under
//!   [`CooperationPolicy::WarmStartSteal`] with `stall_iterations: Some(2)`,
//!   a better deployment offered in advance and hints pushed in advance
//!   (including out-of-range and duplicate ids), so stalled adoption, hint
//!   stealing and hint publishing all show.
//!
//! Per run the file records the objective bits, the final order, the node
//! count, the [`CoopStats`](idd_solver::CoopStats), the trajectory's
//! objective bits and every telemetry event the walk emits, in order, with
//! its shared-incumbent epoch (deterministic on one thread). A change in
//! any move, any RNG draw or any publication shows up as a diff.
//!
//! To bless an intentional change:
//! `BLESS=1 cargo test -p idd-solver --test local_walks`

use idd_core::{Deployment, IndexId, InstanceBuilder, ProblemInstance, QueryId, QueryMeta};
use idd_solver::local::{
    LnsConfig, LnsSolver, SwapStrategy, TabuConfig, TabuSolver, VnsConfig, VnsSolver,
};
use idd_solver::{CooperationPolicy, SearchBudget, SolveContext, SolveResult, Solver};
use idd_telemetry::{EventKind, Telemetry};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::path::Path;

const INSTANCES: u64 = 8;
const NODES: u64 = 40;

/// A random valid instance of 10–16 indexes with precedences and build
/// interactions, plus a random order that satisfies its precedences.
fn instance(seed: u64) -> (ProblemInstance, Deployment) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x10CA_1A1C);
    let n = rng.gen_range(10..=16usize);
    let mut b = InstanceBuilder::new(format!("walk-{seed}"));
    let costs: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..9.0)).collect();
    let ids: Vec<IndexId> = costs.iter().map(|&c| b.add_index(c)).collect();
    for q in 0..rng.gen_range(6..=12usize) {
        let runtime = rng.gen_range(30.0..160.0);
        let mut meta = QueryMeta::simple(QueryId::new(q), runtime);
        meta.weight = [0.5, 1.0, 2.0][rng.gen_range(0..3)];
        let qid = b.push_query(meta);
        for _ in 0..rng.gen_range(1..=3usize) {
            let width = rng.gen_range(1..=3usize);
            let mut pool = ids.clone();
            pool.shuffle(&mut rng);
            let mut plan = pool[..width].to_vec();
            plan.sort_unstable();
            b.add_plan(qid, plan, runtime * rng.gen_range(0.05..0.5));
        }
    }
    for _ in 0..rng.gen_range(2..=n / 2) {
        let target = rng.gen_range(0..n);
        let helper = (target + rng.gen_range(1..n)) % n;
        let share = [0.25, 0.5, 1.0][rng.gen_range(0..3)];
        b.add_build_interaction(ids[target], ids[helper], costs[target] * share);
    }
    // Edges along a random ranking stay acyclic, and the ranking itself is
    // a feasible order.
    let mut rank: Vec<usize> = (0..n).collect();
    rank.shuffle(&mut rng);
    for _ in 0..rng.gen_range(1..=n / 3) {
        let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if rank[x] < rank[y] {
            b.add_precedence(ids[x], ids[y]);
        }
    }
    let mut start: Vec<usize> = (0..n).collect();
    start.sort_by_key(|&k| rank[k]);
    let instance = b.build().expect("generated instance is valid");
    (instance, Deployment::from_raw(start))
}

/// One walk: a label and a solver built for a given stall override.
type Walk = (&'static str, fn(Option<u64>) -> Box<dyn WalkSolver>);

/// The two entry points of a local search, behind one object.
trait WalkSolver {
    fn run(&self, instance: &ProblemInstance, ctx: &SolveContext) -> SolveResult;
    fn solve_in(
        &self,
        instance: &ProblemInstance,
        start: Deployment,
        ctx: &SolveContext,
    ) -> SolveResult;
}

macro_rules! walk_solver {
    ($solver:ty) => {
        impl WalkSolver for $solver {
            fn run(&self, instance: &ProblemInstance, ctx: &SolveContext) -> SolveResult {
                Solver::run(self, instance, SearchBudget::nodes(NODES), ctx)
            }
            fn solve_in(
                &self,
                instance: &ProblemInstance,
                start: Deployment,
                ctx: &SolveContext,
            ) -> SolveResult {
                <$solver>::solve_in(self, instance, start, ctx)
            }
        }
    };
}
walk_solver!(TabuSolver);
walk_solver!(LnsSolver);
walk_solver!(VnsSolver);

fn tabu(strategy: SwapStrategy, stall_iterations: Option<u64>) -> Box<dyn WalkSolver> {
    Box::new(TabuSolver::with_config(TabuConfig {
        strategy,
        budget: SearchBudget::nodes(NODES),
        stall_iterations,
        ..TabuConfig::default()
    }))
}

fn lns(failure_limit: u64, stall_iterations: Option<u64>) -> Box<dyn WalkSolver> {
    Box::new(LnsSolver::with_config(LnsConfig {
        failure_limit,
        budget: SearchBudget::nodes(NODES),
        stall_iterations,
        ..LnsConfig::default()
    }))
}

fn vns(failure_limit: u64, group_size: usize, stall: Option<u64>) -> Box<dyn WalkSolver> {
    Box::new(VnsSolver::with_config(VnsConfig {
        initial_failure_limit: failure_limit,
        group_size,
        budget: SearchBudget::nodes(NODES),
        stall_iterations: stall,
        ..VnsConfig::default()
    }))
}

const WALKS: [Walk; 6] = [
    ("ts-bswap", |s| tabu(SwapStrategy::Best, s)),
    ("ts-fswap", |s| tabu(SwapStrategy::First, s)),
    ("lns", |s| lns(500, s)),
    ("lns failure_limit=2", |s| lns(2, s)),
    ("vns", |s| vns(500, 20, s)),
    ("vns failure_limit=2 group_size=5", |s| vns(2, 5, s)),
];

/// Runs `walk` with a recorder installed on this thread and appends the
/// result and the recorded events to `out`.
fn record(out: &mut String, label: &str, walk: impl FnOnce() -> SolveResult) {
    let telemetry = Telemetry::recording();
    let track = telemetry.register("walk");
    let guard = track.install();
    let result = walk();
    drop(guard);
    let stream = telemetry.drain();

    let order: Vec<String> = result
        .deployment
        .as_ref()
        .expect("a local search always returns a deployment")
        .order()
        .iter()
        .map(|i| i.raw().to_string())
        .collect();
    let trajectory: Vec<String> = result
        .trajectory
        .points()
        .iter()
        .map(|p| format!("{:016x}", p.objective.to_bits()))
        .collect();
    let coop = result.coop;
    writeln!(out, "{label}").unwrap();
    writeln!(out, "  solver {}", result.solver).unwrap();
    writeln!(out, "  objective {:016x}", result.objective.to_bits()).unwrap();
    writeln!(out, "  order {}", order.join(" ")).unwrap();
    writeln!(out, "  nodes {}", result.nodes).unwrap();
    writeln!(
        out,
        "  coop restarts={} adoptions={} hints_stolen={} hints_published={}",
        coop.restarts, coop.adoptions, coop.hints_stolen, coop.hints_published
    )
    .unwrap();
    writeln!(out, "  trajectory {}", trajectory.join(" ")).unwrap();
    for event in stream.events_for(track.id()) {
        let epoch = event.epoch.map_or("-".to_string(), |e| e.to_string());
        let line = match &event.kind {
            EventKind::Mark { name, detail } => format!("mark {name} {detail}"),
            EventKind::Counter { name, value } => format!("counter {name} {value}"),
            EventKind::SpanBegin { name } => format!("begin {name}"),
            EventKind::SpanEnd { name } => format!("end {name}"),
            other => format!("{other:?}"),
        };
        writeln!(out, "  event {line} epoch={epoch}").unwrap();
    }
}

fn render() -> String {
    let mut out = String::new();
    for seed in 0..INSTANCES {
        let (inst, start) = instance(seed);
        writeln!(out, "# instance {seed}: n = {}", inst.num_indexes()).unwrap();
        // A strong deployment to offer in advance: a long VNS walk from the
        // greedy seed, which the short walks below rarely reach.
        let offered = VnsSolver::new(SearchBudget::nodes(400)).solve_in(
            &inst,
            SolveContext::new().greedy_seed(&inst),
            &SolveContext::new(),
        );
        for (name, make) in WALKS {
            let solver = make(None);
            record(&mut out, &format!("{name} · off · run"), || {
                solver.run(&inst, &SolveContext::new())
            });
            let solver = make(Some(2));
            record(
                &mut out,
                &format!("{name} · warm-start-steal · solve_in"),
                || {
                    let ctx = SolveContext::with_cooperation(CooperationPolicy::WarmStartSteal);
                    ctx.publish_deployment(
                        offered.objective,
                        offered.deployment.as_ref().unwrap().order(),
                    );
                    ctx.hints().push(vec![IndexId::new(0), IndexId::new(3)]);
                    ctx.hints()
                        .push(vec![IndexId::new(99), IndexId::new(4), IndexId::new(4)]);
                    ctx.hints()
                        .push(vec![IndexId::new(5), IndexId::new(6), IndexId::new(5)]);
                    ctx.hints().push(vec![IndexId::new(1), IndexId::new(1)]);
                    solver.solve_in(&inst, start.clone(), &ctx)
                },
            );
        }
    }
    out
}

#[test]
fn local_search_walks_match_the_golden() {
    let actual = render();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/local_walks.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).expect("failed to write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?}: {e} (run with BLESS=1)"));
    if actual != expected {
        let first = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a);
        panic!(
            "local_walks.txt drifted from the checked-in walks (BLESS=1 to accept an \
             intentional change); first difference: {first:?} \
             [expected {} lines, actual {} lines]",
            expected.lines().count(),
            actual.lines().count()
        );
    }
}
