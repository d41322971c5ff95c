//! The swap-row kernel on the workload instances: every row value equals
//! `DeltaEvaluator::evaluate_swap` bit for bit on every pair, on TPC-DS
//! (greedy base, then a scrambled base, then a chain of commits) and on the
//! n = 512 block instance `blocks(16, 32, 0, 42)` (greedy base).
//!
//! Release only: the n = 512 case scores 130 816 pairs twice. CI runs this
//! file with `cargo test -p idd --release --test swap_rows`. The random
//! small instances are covered by `idd-core`'s `delta_equivalence` and this
//! crate's `property_based` proptests.

use idd::prelude::*;
use idd::workloads::{generate_block_structured, BlockStructuredConfig};

/// Every `(lo, hi)` of the base: the row kernel against `evaluate_swap`.
fn assert_rows_match(label: &str, delta: &mut DeltaEvaluator) {
    let n = delta.base().len();
    for lo in 0..n.saturating_sub(1) {
        let want: Vec<u64> = (lo + 1..n)
            .map(|hi| delta.evaluate_swap(lo, hi).to_bits())
            .collect();
        let mut row = delta.swap_row(lo);
        for (hi, want) in (lo + 1..n).zip(want) {
            assert_eq!(
                row.area(hi).to_bits(),
                want,
                "{label}: swap ({lo}, {hi}) differs from evaluate_swap"
            );
        }
    }
}

/// A deterministic scramble of `order`.
fn scrambled(order: &Deployment, seed: u64) -> Deployment {
    let mut state = seed | 1;
    let mut order = order.clone();
    for i in (1..order.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: run with --release")]
fn tpcds_rows_match_evaluate_swap() {
    let instance = idd::workloads::tpcds_instance().unwrap();
    let greedy = GreedySolver::new().construct(&instance);
    let mut delta = DeltaEvaluator::new(&instance, greedy.clone());
    assert_rows_match("tpcds greedy", &mut delta);
    delta.set_base(scrambled(&greedy, 42));
    assert_rows_match("tpcds scrambled", &mut delta);
    let n = instance.num_indexes();
    for (a, b) in [(0, n - 1), (5, 6), (17, 90), (120, 3)] {
        delta.commit_swap(a, b);
    }
    delta.commit_shift(10, 70);
    assert_rows_match("tpcds after commits", &mut delta);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: run with --release")]
fn block_rows_at_n512_match_evaluate_swap() {
    let instance = generate_block_structured(BlockStructuredConfig::blocks(16, 32, 0, 42));
    let greedy = GreedySolver::new().construct(&instance);
    let mut delta = DeltaEvaluator::new(&instance, greedy);
    assert_rows_match("blocks n = 512", &mut delta);
}
