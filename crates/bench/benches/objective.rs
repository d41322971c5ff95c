//! Micro-benchmarks of objective evaluation: full re-evaluation vs. the
//! suffix-replay incremental evaluator vs. the delta evaluator local search
//! actually runs on (an ablation of the design choices that make swap and
//! shift neighbourhoods affordable).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use idd_bench::suffix_replay::SuffixReplayEvaluator;
use idd_core::{DeltaEvaluator, Deployment, ObjectiveEvaluator};
use idd_workloads::{SyntheticConfig, SyntheticGenerator};

fn bench_objective(c: &mut Criterion) {
    let mut group = c.benchmark_group("objective");
    group.throughput(Throughput::Elements(1));
    for (label, config) in [
        ("tpch-scale", SyntheticConfig::medium(1)),
        ("tpcds-scale", SyntheticConfig::large(1)),
    ] {
        let instance = SyntheticGenerator::new(config).generate();
        let n = instance.num_indexes();
        let deployment = Deployment::identity(n);
        let evaluator = ObjectiveEvaluator::new(&instance);

        group.bench_with_input(
            BenchmarkId::new("full_evaluate", label),
            &deployment,
            |b, d| b.iter(|| evaluator.evaluate_area(std::hint::black_box(d))),
        );

        // The pre-delta baseline: checkpoint + replay of the whole suffix.
        let replay = SuffixReplayEvaluator::new(&instance, deployment.clone());
        group.bench_with_input(
            BenchmarkId::new("replay_swap_late", label),
            &(n - 2, n - 1),
            |b, &(x, y)| b.iter(|| replay.evaluate_swap(std::hint::black_box(x), y)),
        );
        group.bench_with_input(
            BenchmarkId::new("replay_swap_early", label),
            &(0usize, 1usize),
            |b, &(x, y)| b.iter(|| replay.evaluate_swap(std::hint::black_box(x), y)),
        );

        // The delta path: O(span) regardless of where the span sits.
        let mut delta = DeltaEvaluator::new(&instance, deployment.clone());
        group.bench_with_input(
            BenchmarkId::new("delta_swap_late", label),
            &(n - 2, n - 1),
            |b, &(x, y)| b.iter(|| delta.evaluate_swap(std::hint::black_box(x), y)),
        );
        group.bench_with_input(
            BenchmarkId::new("delta_swap_early", label),
            &(0usize, 1usize),
            |b, &(x, y)| b.iter(|| delta.evaluate_swap(std::hint::black_box(x), y)),
        );
        group.bench_with_input(
            BenchmarkId::new("delta_shift_radius8", label),
            &(n / 2, n / 2 + 8),
            |b, &(x, y)| b.iter(|| delta.evaluate_shift(std::hint::black_box(x), y)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_objective);
criterion_main!(benches);
