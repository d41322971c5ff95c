//! Tail-index analysis (Section 5.5, Appendix D.6).
//!
//! The last few positions of an optimal order can often be pinned down by
//! enumeration: for a fixed *set* of tail indexes, the preceding indexes and
//! their interactions onto the tail are fully determined, so the tail
//! orderings within the same set are directly comparable ("tail champions").
//! If one index is the last index of every champion, it is the last index of
//! some optimal solution and every other index can be constrained to precede
//! it. Re-running the analysis after fixing it pins the second-to-last index,
//! and so on (the paper's "iterate and recurse").

use crate::constraints::OrderConstraints;
use idd_core::{IndexId, ObjectiveEvaluator, ProblemInstance};

/// Calls `visit` on every feasible tail sequence of length `len` under
/// `constraints`, in enumeration order, until `visit` returns `false`. A
/// sequence `[a, b, c]` means `a` is at position `n-3`, `c` at `n-1`.
/// Returns `false` when `visit` stopped the enumeration.
fn for_each_tail(
    instance: &ProblemInstance,
    constraints: &OrderConstraints,
    len: usize,
    visit: &mut dyn FnMut(&[IndexId]) -> bool,
) -> bool {
    let n = instance.num_indexes();
    if len == 0 || len > n {
        return true;
    }
    // Build backwards from the last position: an index can occupy the
    // currently-last open slot when every index it must precede is already
    // placed in a later slot.
    fn recurse(
        n: usize,
        constraints: &OrderConstraints,
        len: usize,
        suffix: &mut Vec<IndexId>,
        tail: &mut Vec<IndexId>,
        used: &mut Vec<bool>,
        visit: &mut dyn FnMut(&[IndexId]) -> bool,
    ) -> bool {
        if suffix.len() == len {
            tail.clear();
            tail.extend(suffix.iter().rev());
            return visit(tail);
        }
        for raw in 0..n {
            let candidate = IndexId::new(raw);
            if used[raw] {
                continue;
            }
            // Every successor of the candidate must already be in the suffix.
            let ok =
                (0..n).all(|s| used[s] || !constraints.must_precede(candidate, IndexId::new(s)));
            if !ok {
                continue;
            }
            used[raw] = true;
            suffix.push(candidate);
            let cont = recurse(n, constraints, len, suffix, tail, used, visit);
            suffix.pop();
            used[raw] = false;
            if !cont {
                return false;
            }
        }
        true
    }

    recurse(
        n,
        constraints,
        len,
        &mut Vec::with_capacity(len),
        &mut Vec::with_capacity(len),
        &mut vec![false; n],
        visit,
    )
}

/// Every feasible tail sequence of length `len`, or `None` when there are
/// more than `budget` of them.
#[cfg(test)]
fn enumerate_tails(
    instance: &ProblemInstance,
    constraints: &OrderConstraints,
    len: usize,
    budget: usize,
) -> Option<Vec<Vec<IndexId>>> {
    let mut result: Vec<Vec<IndexId>> = Vec::new();
    let within_budget = for_each_tail(instance, constraints, len, &mut |tail| {
        result.push(tail.to_vec());
        result.len() <= budget
    });
    within_budget.then_some(result)
}

/// Objective contribution of a tail sequence given that every other index is
/// already built.
fn tail_objective(
    instance: &ProblemInstance,
    evaluator: &ObjectiveEvaluator<'_>,
    tail: &[IndexId],
) -> f64 {
    let n = instance.num_indexes();
    let mut built = vec![true; n];
    for &t in tail {
        built[t.raw()] = false;
    }
    let mut area = 0.0;
    for &t in tail {
        let runtime = evaluator.runtime_with(&built);
        let cost = instance.effective_build_cost(t, &built);
        area += runtime * cost;
        built[t.raw()] = true;
    }
    area
}

/// Runs one round of tail analysis: if every tail champion ends with the same
/// index, constrain all other indexes to precede it. Returns the number of
/// indexes newly pinned (0 or 1 per call; the fixed-point loop recurses).
pub fn analyze(
    instance: &ProblemInstance,
    constraints: &mut OrderConstraints,
    tail_length: usize,
    budget: usize,
) -> usize {
    let n = instance.num_indexes();
    if n < 2 {
        return 0;
    }
    let len = tail_length.min(n).max(1);
    // Count before materialising anything: an enumeration over `budget` is
    // abandoned, and on large instances nearly every one is.
    let mut count = 0usize;
    let within_budget = for_each_tail(instance, constraints, len, &mut |_| {
        count += 1;
        count <= budget
    });
    if !within_budget || count == 0 {
        return 0;
    }
    let evaluator = ObjectiveEvaluator::new(instance);

    // Group by tail set; keep the champion (smallest tail objective).
    use std::collections::HashMap;
    let mut champions: HashMap<Vec<usize>, (f64, Vec<IndexId>)> = HashMap::new();
    for_each_tail(instance, constraints, len, &mut |tail| {
        let mut key: Vec<usize> = tail.iter().map(|i| i.raw()).collect();
        key.sort_unstable();
        let objective = tail_objective(instance, &evaluator, tail);
        match champions.get(&key) {
            Some((best, _)) if *best <= objective => {}
            _ => {
                champions.insert(key, (objective, tail.to_vec()));
            }
        }
        true
    });

    // Does one index close every champion?
    let mut last_indexes = champions.values().map(|(_, tail)| *tail.last().unwrap());
    let first = match last_indexes.next() {
        Some(i) => i,
        None => return 0,
    };
    if !last_indexes.all(|i| i == first) {
        return 0;
    }

    // Pin `first` as the very last index (unless it already is).
    let mut added = 0;
    for raw in 0..n {
        let other = IndexId::new(raw);
        if other != first
            && !constraints.must_precede(other, first)
            && constraints.add_before(other, first)
        {
            added = 1;
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An instance where one index is obviously the worst thing to build
    /// early: zero benefit, large cost, no interactions.
    fn deadweight_instance() -> (ProblemInstance, IndexId) {
        let mut b = ProblemInstance::builder("deadweight");
        let useful1 = b.add_index(2.0);
        let useful2 = b.add_index(3.0);
        let deadweight = b.add_index(20.0);
        let q0 = b.add_query(100.0);
        b.add_plan(q0, vec![useful1], 40.0);
        let q1 = b.add_query(80.0);
        b.add_plan(q1, vec![useful2], 30.0);
        // The deadweight index has a tiny benefit so it is not useless, just
        // always the right thing to postpone.
        let q2 = b.add_query(10.0);
        b.add_plan(q2, vec![deadweight], 0.5);
        (b.build().unwrap(), deadweight)
    }

    #[test]
    fn deadweight_index_is_pinned_last() {
        // With tail length = |I| there is a single tail group whose champion
        // is the global optimum; its last index (the deadweight) gets pinned.
        let (inst, deadweight) = deadweight_instance();
        let mut constraints = OrderConstraints::from_instance(&inst);
        let fixed = analyze(&inst, &mut constraints, 3, 10_000);
        assert_eq!(fixed, 1);
        for other in inst.index_ids() {
            if other != deadweight {
                assert!(constraints.must_precede(other, deadweight));
            }
        }
    }

    #[test]
    fn enumeration_respects_existing_constraints() {
        let (inst, deadweight) = deadweight_instance();
        let mut constraints = OrderConstraints::from_instance(&inst);
        // Pretend another index must be last instead; the tails must honour it.
        let forced_last = inst.index_ids().find(|&i| i != deadweight).unwrap();
        for other in inst.index_ids() {
            if other != forced_last {
                constraints.add_before(other, forced_last);
            }
        }
        let tails = enumerate_tails(&inst, &constraints, 2, 10_000).unwrap();
        assert!(!tails.is_empty());
        for tail in &tails {
            assert_eq!(*tail.last().unwrap(), forced_last);
        }
    }

    #[test]
    fn budget_overflow_returns_none() {
        let (inst, _) = deadweight_instance();
        let constraints = OrderConstraints::from_instance(&inst);
        assert!(enumerate_tails(&inst, &constraints, 3, 1).is_none());
    }

    #[test]
    fn tail_objective_accounts_for_build_interactions() {
        let mut b = ProblemInstance::builder("tail-build");
        let i0 = b.add_index(10.0);
        let i1 = b.add_index(10.0);
        let q = b.add_query(50.0);
        b.add_plan(q, vec![i0], 20.0);
        b.add_plan(q, vec![i1], 25.0);
        b.add_build_interaction(i0, i1, 6.0);
        let inst = b.build().unwrap();
        let evaluator = ObjectiveEvaluator::new(&inst);
        // Tail [i0] (everything else built): i0 costs 10-6=4, runtime is 25.
        let obj = tail_objective(&inst, &evaluator, &[i0]);
        assert!((obj - (50.0 - 25.0) * 4.0).abs() < 1e-9);
    }

    #[test]
    fn single_index_instance_is_a_noop() {
        let mut b = ProblemInstance::builder("one");
        let i0 = b.add_index(1.0);
        let q = b.add_query(5.0);
        b.add_plan(q, vec![i0], 1.0);
        let inst = b.build().unwrap();
        let mut c = OrderConstraints::from_instance(&inst);
        assert_eq!(analyze(&inst, &mut c, 3, 1000), 0);
    }
}
