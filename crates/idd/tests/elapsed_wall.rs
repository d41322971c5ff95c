//! `elapsed_seconds` is wall time from solver entry: every member of the
//! recommended portfolio (greedy, VNS, CP+ and best-swap tabu), run on its
//! own, and the portfolio itself report within a small fixed tolerance of
//! the wall time their call took. Pre-search work — the greedy seed, the
//! property analysis of VNS and CP+ — counts, so a 1 ms budget that CP+'s
//! analysis alone overruns reports that overrun instead of 0.001 s.
//!
//! Release only (it measures wall time); CI runs it with
//! `cargo test -p idd --release --test elapsed_wall`.

use idd::prelude::*;
use idd::workloads::{generate_block_structured, BlockStructuredConfig};
use std::time::Instant;

/// Slack for the work after a solver reads its clock for the last time
/// (building the result, dropping its evaluators) and before it.
const TOLERANCE_S: f64 = 0.02;

fn assert_reports_wall(label: &str, run: impl FnOnce() -> SolveResult) {
    let started = Instant::now();
    let result = run();
    let wall = started.elapsed().as_secs_f64();
    assert!(
        result.elapsed_seconds <= wall && wall - result.elapsed_seconds <= TOLERANCE_S,
        "{label}: reported {:.4} s, took {wall:.4} s",
        result.elapsed_seconds
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: measures wall time")]
fn elapsed_seconds_is_wall_time_from_entry() {
    let instances = [
        ("tpcds", idd::workloads::tpcds_instance().unwrap()),
        (
            "blocks-1x32",
            generate_block_structured(BlockStructuredConfig::blocks(1, 32, 0, 42)),
        ),
    ];
    for (name, instance) in &instances {
        for limit in [0.001, 0.2] {
            let budget = SearchBudget::seconds(limit);
            let members: Vec<Box<dyn Solver>> = vec![
                Box::new(GreedySolver::new()),
                Box::new(VnsSolver::new(budget)),
                Box::new(CpSolver::with_config(CpConfig::with_properties(budget))),
                Box::new(TabuSolver::with_config(TabuConfig {
                    strategy: SwapStrategy::Best,
                    budget,
                    ..TabuConfig::default()
                })),
            ];
            let portfolio = PortfolioSolver::recommended(budget);
            assert_eq!(
                portfolio.member_names(),
                members.iter().map(|m| m.name()).collect::<Vec<_>>(),
                "the members checked here are the recommended portfolio's"
            );
            for member in &members {
                assert_reports_wall(&format!("{name} {limit} s {}", member.name()), || {
                    member.run(instance, budget, &SolveContext::new())
                });
            }
            assert_reports_wall(&format!("{name} {limit} s portfolio"), || {
                portfolio.solve(instance)
            });
        }
    }
}
