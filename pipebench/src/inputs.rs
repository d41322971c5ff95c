//! Seeded workload inputs. The same seed gives the same inputs; the library
//! only ever sees the generated instance, plan and scenario.
//!
//! A run does not measure one input but a family of them: the `k`-th call
//! of a run gets the input of [`member_seed`]`(seed, k)`. Calls on one input
//! vary with the input's shape (how early the events land, which queries
//! weigh most); cycling through a family keeps that variation inside a run
//! instead of between runs.

use crate::Workload;
use idd_core::{Deployment, EvolutionScenario, ProblemInstance, QueryId};
use idd_solver::GreedySolver;
use idd_workloads::evolution::{mixed_scenario, EvolutionConfig};
use idd_workloads::synthetic::{generate_block_structured, BlockStructuredConfig};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Indexes per block of the block-structured instances.
pub const BLOCK_SIZE: usize = 32;
/// Blocks of the `blocks-sharded` instance (n = 1024).
pub const SHARDED_BLOCKS: usize = 32;
/// Blocks of the `blocks-plan` and `deploy-evolve` instances (n = 256).
pub const DEPLOY_BLOCKS: usize = 8;
/// Drift events and revision events in a deployment scenario (each).
pub const EVENTS_PER_KIND: usize = 48;
/// Injected build failures in a deployment scenario.
pub const FAILURES: usize = 4;

/// Seed of the `k`-th input of the run seeded with `seed`.
pub fn member_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k as u64)
}

/// The generated inputs of one workload.
pub enum Inputs {
    /// `tpcds-plan`: the TPC-DS-like instance with seeded query weights;
    /// `blocks-plan`: 8 independent 32-index blocks.
    Plan { instance: ProblemInstance },
    /// `blocks-sharded`: 32 independent 32-index blocks.
    Blocks { instance: ProblemInstance },
    /// `deploy-evolve`: an n = 256 block instance, its greedy plan and a
    /// mixed evolution scenario.
    Deploy {
        instance: ProblemInstance,
        plan: Deployment,
        scenario: EvolutionScenario,
    },
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Result<Self, String> {
        Ok(match workload {
            Workload::TpcdsPlan => Inputs::Plan {
                instance: tpcds(seed)?,
            },
            Workload::BlocksPlan => Inputs::Plan {
                instance: blocks(DEPLOY_BLOCKS, seed),
            },
            Workload::BlocksSharded => Inputs::Blocks {
                instance: blocks(SHARDED_BLOCKS, seed),
            },
            Workload::DeployEvolve => {
                let instance = blocks(DEPLOY_BLOCKS, seed);
                let plan = GreedySolver::new().construct(&instance);
                let scenario = scenario(&instance, seed);
                Inputs::Deploy {
                    instance,
                    plan,
                    scenario,
                }
            }
        })
    }

    /// The input of `workload` (the one these inputs were generated for)
    /// for `seed`, reusing what does not depend on the seed (the TPC-DS
    /// extraction).
    pub fn regenerate(&self, workload: Workload, seed: u64) -> Result<Self, String> {
        match (workload, self) {
            (Workload::TpcdsPlan, Inputs::Plan { instance }) => Ok(Inputs::Plan {
                instance: reweighted(instance, seed)?,
            }),
            _ => Self::generate(workload, seed),
        }
    }

    /// The problem instance every workload starts from.
    pub fn instance(&self) -> &ProblemInstance {
        match self {
            Inputs::Plan { instance }
            | Inputs::Blocks { instance }
            | Inputs::Deploy { instance, .. } => instance,
        }
    }
}

/// The TPC-DS-like instance (148 indexes, 102 queries) with seeded query
/// weights.
fn tpcds(seed: u64) -> Result<ProblemInstance, String> {
    let base = idd_workloads::tpcds_instance().map_err(|e| format!("TPC-DS extraction: {e}"))?;
    reweighted(&base, seed)
}

/// `base` with every query weight re-drawn log-uniformly from `[1/2, 2)`.
fn reweighted(base: &ProblemInstance, seed: u64) -> Result<ProblemInstance, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut builder = base.to_builder();
    for q in 0..base.num_queries() {
        let weight = 2f64.powf(rng.gen_range(-1.0..1.0));
        builder.set_query_weight(QueryId::new(q), weight);
    }
    builder
        .build()
        .map_err(|e| format!("re-weighted TPC-DS instance: {e}"))
}

/// `num_blocks` zero-coupling blocks of [`BLOCK_SIZE`] indexes.
fn blocks(num_blocks: usize, seed: u64) -> ProblemInstance {
    generate_block_structured(BlockStructuredConfig::blocks(
        num_blocks, BLOCK_SIZE, 0, seed,
    ))
}

/// The mixed drift / revision / failure scenario every deployment runs,
/// with its events re-timed to land at a steady rate.
///
/// The generator draws event times uniformly over its horizon, and a
/// replan costs roughly the cube of the pending suffix, so how many events
/// happen to land early decides most of a deployment's wall time. Spacing
/// the events evenly over the same horizon, in the generated order, keeps
/// that chance out of the measurement; the seed still draws what each
/// event does, in which order, and which builds fail.
pub fn scenario(instance: &ProblemInstance, seed: u64) -> EvolutionScenario {
    let config = EvolutionConfig {
        seed,
        num_events: EVENTS_PER_KIND,
        num_failures: FAILURES,
        ..EvolutionConfig::default()
    };
    let mut scenario = mixed_scenario(instance, &config);
    let horizon = instance.total_base_build_cost() * config.horizon_fraction;
    let count = scenario.events.len() as f64;
    for (k, event) in scenario.events.iter_mut().enumerate() {
        event.at = horizon * (k as f64 + 0.5) / count;
    }
    scenario
}
