//! The greedy seed on the workload instances: the incremental construction
//! reproduces the from-scratch reference bit for bit on TPC-DS, TPC-H and
//! block-structured instances, and a portfolio race charges the seed to its
//! budget.
//!
//! The n = 512 cases are gated to release builds (the reference alone takes
//! seconds there, and the budget test measures wall time); CI runs this
//! file with `cargo test -p idd --release --test greedy_seed`. The solver
//! crate's `greedy_differential` proptest covers random small instances.

#[path = "../../solver/tests/common/greedy_reference.rs"]
mod greedy_reference;

use greedy_reference::reference_construct;
use idd::prelude::*;
use idd::solver::greedy::GreedyConfig;
use idd::workloads::{generate_block_structured, BlockStructuredConfig};
use std::time::Instant;

fn assert_matches_reference(instance: &ProblemInstance) {
    let incremental = GreedySolver::new().construct(instance);
    let reference = reference_construct(instance, GreedyConfig::default());
    assert_eq!(
        incremental.order(),
        reference.order(),
        "{}: incremental greedy diverged from the reference",
        instance.name()
    );
}

#[test]
fn tpcds_and_tpch_seeds_match_the_reference() {
    assert_matches_reference(&idd::workloads::tpcds_instance().unwrap());
    assert_matches_reference(&idd::workloads::tpch_instance().unwrap());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: run with --release")]
fn block_seeds_at_n512_match_the_reference() {
    for coupling in [0, 16] {
        let config = BlockStructuredConfig::blocks(16, 32, coupling, 42);
        assert_matches_reference(&generate_block_structured(config));
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: measures wall time")]
fn a_tiny_budget_bounds_the_recommended_portfolio_at_n512() {
    let instance = generate_block_structured(BlockStructuredConfig::blocks(16, 32, 0, 42));
    let limit = 0.05;
    let started = Instant::now();
    let result = PortfolioSolver::recommended(SearchBudget::seconds(limit)).solve(&instance);
    let wall = started.elapsed().as_secs_f64();
    let deployment = result.deployment.as_ref().expect("a feasible order");
    assert!(deployment.is_valid_for(&instance));
    assert_eq!(
        ObjectiveEvaluator::new(&instance).evaluate_area(deployment),
        result.objective
    );
    assert!(
        wall <= limit + 0.5,
        "a {limit} s portfolio took {wall:.3} s of wall time"
    );
}
