//! The interaction-guided greedy algorithm (Section 7.4, Algorithm 1).
//!
//! At each step the index with the highest *density* is appended, where
//! density is the index's immediate benefit — plus a share of the speed-up of
//! every not-yet-feasible plan it participates in, split evenly among the
//! plan's still-missing indexes — divided by its effective build cost given
//! the indexes already chosen. The interaction credit is what distinguishes
//! this greedy from a naive benefit/cost ranking: it values indexes that
//! unlock future multi-index plans.
//!
//! # Incremental construction
//!
//! Re-scoring every candidate against every query at every step costs
//! `O(n² · |Q| · plans)`. The construction instead keeps, across steps, each
//! query's current best speed-up, each plan's count of missing indexes,
//! each index's count of unbuilt precedence predecessors and each
//! candidate's cached density. After `x` is picked, only two groups of
//! candidates are re-scored: those with a plan on a query that `x` has a
//! plan on (their benefit reads that query's runtime or those plans'
//! missing counts), and the build-interaction targets of `x` (their
//! effective cost changed). The pick is a linear first-strict-max scan over
//! the cached densities, so a run costs `O(n²)` comparisons plus one
//! `O(plans(c) + helpers(c))` re-score per dirty candidate, and keeps
//! `O(n + |Q| + Σ_p |p|)` extra memory.
//!
//! The order is bit-for-bit the one the from-scratch definition yields,
//! ties included. A candidate `c` adds exactly `+0.0` for every query with
//! no plan using `c` (the query's runtime is unchanged by `c`, and only
//! plans using `c` earn interaction credit), and the benefit never becomes
//! `-0.0`, so those terms can be skipped. The remaining terms are summed in
//! the same order with the same float operations: queries in ascending id,
//! and within a query first the runtime gain and then the credits of the
//! plans using `c` in plan order. The runtime with `c` built is
//! `max(current speed-up, best plan using c that c completes)`, which is
//! exact because `max` never rounds. The differential suites
//! (`crates/solver/tests/greedy_differential.rs`,
//! `crates/idd/tests/greedy_seed.rs`) pin this against the from-scratch
//! reference.

use crate::budget::SearchBudget;
use crate::result::SolveResult;
use crate::solver::{SolveContext, Solver};
use idd_core::{Deployment, IndexId, ObjectiveEvaluator, PlanId, ProblemInstance, QueryId};
use std::time::Instant;

/// Configuration of the greedy construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyConfig {
    /// Include the interaction credit (`interaction / |p \ N|` of
    /// Algorithm 1). Disabling it yields the naive density greedy and is used
    /// by the ablation bench.
    pub interaction_credit: bool,
    /// Respect hard precedence constraints while constructing the order.
    pub respect_precedences: bool,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        Self {
            interaction_credit: true,
            respect_precedences: true,
        }
    }
}

/// The greedy solver.
#[derive(Debug, Clone, Default)]
pub struct GreedySolver {
    config: GreedyConfig,
}

impl GreedySolver {
    /// Creates a greedy solver with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a greedy solver with an explicit configuration.
    pub fn with_config(config: GreedyConfig) -> Self {
        Self { config }
    }

    /// Builds a deployment order for `instance`.
    pub fn construct(&self, instance: &ProblemInstance) -> Deployment {
        Construction::new(instance, self.config).run()
    }

    /// Runs the greedy and wraps the result in a [`SolveResult`].
    pub fn solve(&self, instance: &ProblemInstance) -> SolveResult {
        let started = Instant::now();
        self.report(instance, self.construct(instance), started)
    }

    fn report(
        &self,
        instance: &ProblemInstance,
        deployment: Deployment,
        started: Instant,
    ) -> SolveResult {
        let objective = ObjectiveEvaluator::new(instance).evaluate_area(&deployment);
        SolveResult::heuristic(
            self.name(),
            deployment,
            objective,
            started.elapsed().as_secs_f64(),
        )
    }
}

impl Solver for GreedySolver {
    fn name(&self) -> &'static str {
        if self.config.interaction_credit {
            "greedy"
        } else {
            "greedy-naive"
        }
    }

    /// Greedy is a one-shot construction: the budget only gates whether it
    /// starts at all (cancellation), and the single solution it produces is
    /// recorded as a one-point trajectory and published to the context. The
    /// default configuration's order is the context's shared
    /// [seed](SolveContext::greedy_seed), so inside a race it is built once.
    fn run(
        &self,
        instance: &ProblemInstance,
        _budget: SearchBudget,
        ctx: &SolveContext,
    ) -> SolveResult {
        if ctx.is_cancelled() {
            return SolveResult::did_not_finish(self.name(), 0.0, 0);
        }
        let started = Instant::now();
        let deployment = if self.config == GreedyConfig::default() {
            ctx.greedy_seed(instance)
        } else {
            self.construct(instance)
        };
        let mut result = self.report(instance, deployment, started);
        result
            .trajectory
            .record(result.elapsed_seconds, result.objective);
        if let Some(deployment) = &result.deployment {
            ctx.publish_deployment(result.objective, deployment.order());
        }
        result
    }
}

/// The state of one incremental greedy construction (see the module docs).
struct Construction<'a> {
    instance: &'a ProblemInstance,
    config: GreedyConfig,
    /// Weighted original runtime of each query.
    runtime: Vec<f64>,
    /// Best speed-up of each query's plans available in `built`.
    speedup: Vec<f64>,
    /// Weighted speed-up of each plan.
    plan_speedup: Vec<f64>,
    /// Query of each plan.
    plan_query: Vec<usize>,
    /// Indexes of each plan not built yet.
    missing: Vec<usize>,
    /// Plans using each index, by query id and then plan order: the order in
    /// which the density sums its terms.
    plans_by_index: Vec<Vec<PlanId>>,
    built: Vec<bool>,
    /// Unbuilt precedence predecessors of each index, and the direct
    /// successors whose counters a build decrements. Both stay empty when
    /// precedences are ignored.
    pending: Vec<usize>,
    successors: Vec<Vec<usize>>,
    /// Cached density of each index, valid unless `dirty`.
    density: Vec<f64>,
    dirty: Vec<bool>,
}

impl<'a> Construction<'a> {
    fn new(instance: &'a ProblemInstance, config: GreedyConfig) -> Self {
        let n = instance.num_indexes();
        let plan_query: Vec<usize> = instance.plans().iter().map(|p| p.query.raw()).collect();
        let plan_speedup: Vec<f64> = instance
            .plan_ids()
            .map(|p| instance.plan_speedup(p))
            .collect();
        let missing: Vec<usize> = instance.plans().iter().map(|p| p.indexes.len()).collect();
        // A plan needing no index is available from the start.
        let mut speedup = vec![0.0_f64; instance.num_queries()];
        for (p, &q) in plan_query.iter().enumerate() {
            if missing[p] == 0 && plan_speedup[p] > speedup[q] {
                speedup[q] = plan_speedup[p];
            }
        }
        let plans_by_index = instance
            .index_ids()
            .map(|i| {
                let mut plans = instance.plans_using_index(i).to_vec();
                plans.sort_by_key(|p| plan_query[p.raw()]);
                plans
            })
            .collect();
        let mut pending = vec![0; n];
        let mut successors = vec![Vec::new(); n];
        if config.respect_precedences {
            for pr in instance.precedences() {
                pending[pr.after.raw()] += 1;
                successors[pr.before.raw()].push(pr.after.raw());
            }
        }
        Self {
            instance,
            config,
            runtime: instance
                .query_ids()
                .map(|q| instance.query_runtime(q))
                .collect(),
            speedup,
            plan_speedup,
            plan_query,
            missing,
            plans_by_index,
            built: vec![false; n],
            pending,
            successors,
            density: vec![0.0; n],
            dirty: vec![true; n],
        }
    }

    fn run(mut self) -> Deployment {
        let n = self.built.len();
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            let chosen = self.pick();
            self.build(chosen);
            order.push(chosen);
        }
        Deployment::new(order)
    }

    /// The placeable candidate of highest density, first on ties. When no
    /// density beats −∞ (only possible for NaN densities), the first
    /// placeable candidate.
    fn pick(&mut self) -> IndexId {
        let mut best: Option<IndexId> = None;
        let mut best_density = f64::NEG_INFINITY;
        let mut first_placeable: Option<IndexId> = None;
        for raw in 0..self.built.len() {
            if self.built[raw] || self.pending[raw] > 0 {
                continue;
            }
            let candidate = IndexId::new(raw);
            first_placeable.get_or_insert(candidate);
            if self.dirty[raw] {
                self.density[raw] = self.score(candidate);
                self.dirty[raw] = false;
            }
            if self.density[raw] > best_density {
                best_density = self.density[raw];
                best = Some(candidate);
            }
        }
        best.or(first_placeable)
            .expect("no placeable index left; precedence constraints are cyclic")
    }

    /// Density of `candidate` given the current built set.
    fn score(&self, candidate: IndexId) -> f64 {
        let mut benefit = 0.0;
        let plans = &self.plans_by_index[candidate.raw()];
        for group in plans.chunk_by(|a, b| self.plan_query[a.raw()] == self.plan_query[b.raw()]) {
            let q = self.plan_query[group[0].raw()];
            let previous = self.runtime[q] - self.speedup[q];
            // The candidate completes exactly the plans missing only it.
            let mut speedup = self.speedup[q];
            for p in group {
                let s = self.plan_speedup[p.raw()];
                if self.missing[p.raw()] == 1 && s > speedup {
                    speedup = s;
                }
            }
            let next = self.runtime[q] - speedup;
            benefit += previous - next;

            if self.config.interaction_credit {
                // Credit for plans the candidate participates in that are
                // still missing other indexes.
                for p in group {
                    let runtime_if_plan = self.runtime[q] - self.plan_speedup[p.raw()];
                    let interaction = next - runtime_if_plan;
                    let missing = self.missing[p.raw()] - 1;
                    if interaction > 0.0 && missing > 0 {
                        benefit += interaction / missing as f64;
                    }
                }
            }
        }
        let cost = self
            .instance
            .effective_build_cost(candidate, &self.built)
            .max(1e-12);
        benefit / cost
    }

    /// Marks `x` built and invalidates every density that read state `x`
    /// changes.
    fn build(&mut self, x: IndexId) {
        let instance = self.instance;
        self.built[x.raw()] = true;
        let plans = &self.plans_by_index[x.raw()];
        for &p in plans {
            self.missing[p.raw()] -= 1;
            let q = self.plan_query[p.raw()];
            if self.missing[p.raw()] == 0 && self.plan_speedup[p.raw()] > self.speedup[q] {
                self.speedup[q] = self.plan_speedup[p.raw()];
            }
        }
        let plan_query = &self.plan_query;
        for group in plans.chunk_by(|a, b| plan_query[a.raw()] == plan_query[b.raw()]) {
            let q = QueryId::new(plan_query[group[0].raw()]);
            for &p in instance.plans_of_query(q) {
                for i in &instance.plan(p).indexes {
                    self.dirty[i.raw()] = true;
                }
            }
        }
        for &(target, _) in instance.helps(x) {
            self.dirty[target.raw()] = true;
        }
        for &after in &self.successors[x.raw()] {
            self.pending[after] -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Section 4.2: covering index should be built first.
    fn competing_example() -> ProblemInstance {
        let mut b = ProblemInstance::builder("competing");
        let i_city = b.add_named_index("i(City)", 4.0);
        let i_cov = b.add_named_index("i(City,Salary)", 6.0);
        let q = b.add_named_query("avg_salary", 30.0);
        b.add_plan(q, vec![i_city], 5.0);
        b.add_plan(q, vec![i_cov], 20.0);
        b.add_build_interaction(i_city, i_cov, 3.0);
        b.build().unwrap()
    }

    #[test]
    fn greedy_prefers_the_denser_covering_index_first() {
        let inst = competing_example();
        let d = GreedySolver::new().construct(&inst);
        // density(i_cov) = 20/6 > density(i_city) = 5/4.
        assert_eq!(d.at(0), IndexId::new(1));
        assert!(d.is_valid_for(&inst));
    }

    #[test]
    fn interaction_credit_unlocks_multi_index_plans_early() {
        // A join query needs both i0 and i1; i2 has a small solo benefit.
        // Without the credit, i2 (solo benefit 6/2=3 density) is picked before
        // i0/i1 (no solo benefit); with the credit, the pair comes first.
        let mut b = ProblemInstance::builder("join");
        let i0 = b.add_index(2.0);
        let i1 = b.add_index(2.0);
        let i2 = b.add_index(2.0);
        let q_join = b.add_query(100.0);
        b.add_plan(q_join, vec![i0, i1], 80.0);
        let q_small = b.add_query(10.0);
        b.add_plan(q_small, vec![i2], 6.0);
        let inst = b.build().unwrap();

        let with_credit = GreedySolver::new().construct(&inst);
        let naive = GreedySolver::with_config(GreedyConfig {
            interaction_credit: false,
            ..GreedyConfig::default()
        })
        .construct(&inst);

        let eval = ObjectiveEvaluator::new(&inst);
        assert!(eval.evaluate_area(&with_credit) <= eval.evaluate_area(&naive));
        // With the credit the join pair is scheduled before the small index.
        let pos2 = with_credit.position_of(IndexId::new(2)).unwrap();
        assert_eq!(
            pos2, 2,
            "small index should come last, order {with_credit:?}"
        );
    }

    #[test]
    fn greedy_respects_hard_precedences() {
        let mut b = ProblemInstance::builder("prec");
        let clustered = b.add_index(10.0);
        let secondary = b.add_index(1.0);
        let q = b.add_query(50.0);
        // The secondary looks far more attractive (cheap, huge benefit)...
        b.add_plan(q, vec![secondary], 40.0);
        b.add_plan(q, vec![clustered], 5.0);
        // ...but it must follow the clustered index.
        b.add_precedence(clustered, secondary);
        let inst = b.build().unwrap();
        let d = GreedySolver::new().construct(&inst);
        assert!(d.is_valid_for(&inst));
        assert_eq!(d.at(0), clustered);
    }

    #[test]
    fn solve_reports_objective_matching_evaluator() {
        let inst = competing_example();
        let r = GreedySolver::new().solve(&inst);
        let eval = ObjectiveEvaluator::new(&inst);
        assert_eq!(
            r.objective,
            eval.evaluate_area(r.deployment.as_ref().unwrap())
        );
        assert_eq!(r.solver, "greedy");
    }

    #[test]
    fn greedy_beats_worst_case_order_on_larger_instances() {
        use idd_core::Deployment;
        // Build a moderate instance by hand: 12 indexes, mixed plans.
        let mut b = ProblemInstance::builder("m");
        let idx: Vec<IndexId> = (0..12).map(|i| b.add_index(2.0 + (i % 5) as f64)).collect();
        for q in 0..8 {
            let qid = b.add_query(60.0 + q as f64 * 10.0);
            b.add_plan(qid, vec![idx[q % 12]], 10.0);
            b.add_plan(qid, vec![idx[q % 12], idx[(q + 3) % 12]], 25.0);
        }
        let inst = b.build().unwrap();
        let eval = ObjectiveEvaluator::new(&inst);
        let greedy = GreedySolver::new().construct(&inst);
        let greedy_area = eval.evaluate_area(&greedy);
        // Compare to the reverse-identity order (arbitrary but fixed).
        let reverse = Deployment::new((0..12).rev().map(IndexId::new).collect());
        let reverse_area = eval.evaluate_area(&reverse);
        assert!(greedy_area <= reverse_area);
    }
}
