//! Criterion micro-benchmarks of the CORGI mechanism pieces: reserved-privacy-
//! budget computation (Eq. 12 exact vs Eq. 14 approximation), matrix pruning,
//! precision reduction, sampling, and the planar-Laplace baseline.

use corgi_bench::{ExperimentContext, DEFAULT_EPSILON};
use corgi_core::{
    generate_nonrobust_matrix,
    laplace::PlanarLaplace,
    precision_reduction, prune_matrix,
    robust::{reserved_privacy_budget_approx, reserved_privacy_budget_exact},
};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_rpb(c: &mut Criterion) {
    let ctx = ExperimentContext::standard();
    let problem = ctx.problem_for_n_locations(49, DEFAULT_EPSILON, true);
    let matrix = generate_nonrobust_matrix(&problem).expect("matrix");
    let mut group = c.benchmark_group("reserved_privacy_budget_49");
    group.sample_size(10);
    group.bench_function("approx_eq14_delta3", |b| {
        b.iter(|| reserved_privacy_budget_approx(&matrix, problem.distances(), DEFAULT_EPSILON, 3));
    });
    group.bench_function("exact_eq12_delta2", |b| {
        b.iter(|| {
            reserved_privacy_budget_exact(&matrix, problem.distances(), DEFAULT_EPSILON, 2)
                .expect("exact budget")
        });
    });
    group.finish();
}

fn bench_customization(c: &mut Criterion) {
    let ctx = ExperimentContext::standard();
    let problem = ctx.problem_for_subtree(&ctx.level2_subtree(), DEFAULT_EPSILON, true);
    let matrix = generate_nonrobust_matrix(&problem).expect("matrix");
    let prune_cells: Vec<_> = matrix.cells().iter().copied().take(5).collect();
    let priors: Vec<f64> = matrix
        .cells()
        .iter()
        .map(|cell| ctx.prior.prob_of_cell(ctx.grid(), cell).max(1e-12))
        .collect();
    let mut group = c.benchmark_group("customization_49");
    group.sample_size(20);
    group.bench_function("prune_5_of_49", |b| {
        b.iter(|| prune_matrix(&matrix, &prune_cells).expect("prune"));
    });
    group.bench_function("precision_reduction_to_level1", |b| {
        b.iter(|| precision_reduction(&matrix, &ctx.tree, 1, &priors).expect("reduce"));
    });
    let mut rng = StdRng::seed_from_u64(1);
    let real = matrix.cells()[0];
    group.bench_function("sample_obfuscated_cell", |b| {
        b.iter(|| matrix.sample(&real, &mut rng).expect("sample"));
    });
    group.finish();
}

fn bench_planar_laplace(c: &mut Criterion) {
    let ctx = ExperimentContext::standard();
    let mechanism = PlanarLaplace::new(DEFAULT_EPSILON);
    let real = ctx.grid().cell_center(&ctx.grid().leaves()[171]);
    let mut rng = StdRng::seed_from_u64(2);
    let mut group = c.benchmark_group("planar_laplace");
    group.bench_function("sample_continuous", |b| {
        b.iter(|| mechanism.sample(&real, &mut rng));
    });
    group.bench_function("sample_snapped_to_cell", |b| {
        b.iter(|| mechanism.sample_cell(ctx.grid(), &real, &mut rng));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rpb,
    bench_customization,
    bench_planar_laplace
);
criterion_main!(benches);
