//! The checkpoint-and-replay incremental evaluator: the "before" baseline
//! of the `table11` moves/sec benchmark and the `objective` micro-bench.
//!
//! [`SuffixReplayEvaluator::set_base`] keeps an [`ObjectiveStepper`]
//! checkpoint after every position of the base order; a move that changes
//! the order from position `k` onward is scored by cloning the checkpoint
//! at `k` and stepping the whole suffix. Correct by construction (it runs
//! the from-scratch evaluator's own steps) but `O(n · step)` per move and
//! `O(n²)` checkpoint memory churn — which is why local search runs on
//! [`DeltaEvaluator`](idd_core::DeltaEvaluator) instead.

use idd_core::{Deployment, ObjectiveEvaluator, ObjectiveStepper, ProblemInstance};

/// Scores moves by replaying the suffix behind them from a checkpoint.
#[derive(Debug, Clone)]
pub struct SuffixReplayEvaluator<'a> {
    base: Deployment,
    /// `checkpoints[k]` has stepped the first `k` indexes of `base`.
    checkpoints: Vec<ObjectiveStepper<'a>>,
}

impl<'a> SuffixReplayEvaluator<'a> {
    /// Creates an evaluator with the given base order.
    pub fn new(instance: &'a ProblemInstance, base: Deployment) -> Self {
        let mut replay = Self {
            base: Deployment::new(Vec::new()),
            checkpoints: vec![ObjectiveEvaluator::new(instance).stepper()],
        };
        replay.set_base(base);
        replay
    }

    /// The objective area of the current base order.
    pub fn base_area(&self) -> f64 {
        self.checkpoints[self.base.len()].area()
    }

    /// Replaces the base order and rebuilds the checkpoints.
    pub fn set_base(&mut self, base: Deployment) {
        self.base = base;
        self.replay_from(0);
    }

    /// Area of `order`, replayed from the checkpoint of its longest common
    /// prefix with the base order.
    pub fn evaluate_order(&self, order: &Deployment) -> f64 {
        let n = self.base.len();
        debug_assert_eq!(order.len(), n);
        let common = (0..n)
            .find(|&p| order.at(p) != self.base.at(p))
            .unwrap_or(n);
        let mut stepper = self.checkpoints[common].clone();
        for p in common..n {
            stepper.step(order.at(p));
        }
        stepper.area()
    }

    /// Area of the base order with positions `a` and `b` swapped, without
    /// materializing the swapped order.
    pub fn evaluate_swap(&self, a: usize, b: usize) -> f64 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let mut stepper = self.checkpoints[lo].clone();
        for p in lo..self.base.len() {
            let q = if p == lo {
                hi
            } else if p == hi {
                lo
            } else {
                p
            };
            stepper.step(self.base.at(q));
        }
        stepper.area()
    }

    /// Swaps positions `a` and `b` of the base order and rebuilds the
    /// checkpoints behind the earlier one.
    pub fn commit_swap(&mut self, a: usize, b: usize) {
        self.base.swap(a, b);
        self.replay_from(a.min(b));
    }

    /// Rebuilds every checkpoint after position `from`.
    fn replay_from(&mut self, from: usize) {
        self.checkpoints.truncate(from + 1);
        for p in from..self.base.len() {
            let mut next = self.checkpoints[p].clone();
            next.step(self.base.at(p));
            self.checkpoints.push(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idd_workloads::synthetic::{generate, SyntheticConfig};

    /// Random swap/commit episodes, with a few whole-order replacements:
    /// every probe and every committed base area equals the from-scratch
    /// `evaluate_area`, bit for bit.
    #[test]
    fn replay_matches_evaluate_area_on_random_episodes() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for seed in 0..8u64 {
            let instance = generate(SyntheticConfig {
                num_indexes: 6 + next(14),
                num_queries: 8,
                plans_per_query: 4,
                max_plan_width: 3,
                seed,
                ..SyntheticConfig::default()
            });
            let n = instance.num_indexes();
            let full = ObjectiveEvaluator::new(&instance);
            let mut current = Deployment::identity(n);
            let mut replay = SuffixReplayEvaluator::new(&instance, current.clone());
            for step in 0..60 {
                let (a, b) = (next(n), next(n));
                let swapped = current.with_swap(a, b);
                let want = full.evaluate_area(&swapped).to_bits();
                assert_eq!(replay.evaluate_swap(a, b).to_bits(), want, "{seed}/{step}");
                assert_eq!(replay.evaluate_order(&swapped).to_bits(), want);
                if step % 7 == 6 {
                    // A whole-order replacement: reverse the order.
                    current = Deployment::new(current.order().iter().rev().copied().collect());
                    replay.set_base(current.clone());
                } else if next(2) == 0 {
                    replay.commit_swap(a, b);
                    current = swapped;
                }
                assert_eq!(
                    replay.base_area().to_bits(),
                    full.evaluate_area(&current).to_bits(),
                    "{seed}/{step}: base after commit"
                );
            }
        }
    }
}
