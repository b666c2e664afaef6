//! Criterion micro-benchmarks of the LP solver substrate: the ablation between
//! the dense simplex, the general interior-point method and the block-angular
//! interior-point method on obfuscation-shaped LPs, plus the effect of the
//! graph approximation on solve time.

use corgi_bench::{ExperimentContext, DEFAULT_EPSILON};
use corgi_lp::{
    BlockAngularSolver, InteriorPointOptions, InteriorPointSolver, LpSolver, SimplexSolver,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_solver_kinds(c: &mut Criterion) {
    let ctx = ExperimentContext::standard();
    let problem = ctx.problem_for_n_locations(7, 3.0, true);
    // Every solver times the same built LP.
    let (lp, blocks) = problem.build_lp(None).expect("LP builds");
    let simplex = SimplexSolver::new();
    let interior_point = InteriorPointSolver::default();
    let block_angular = BlockAngularSolver::new(blocks, InteriorPointOptions::default());
    let solvers: [(&str, &dyn LpSolver); 3] = [
        ("simplex", &simplex),
        ("interior_point", &interior_point),
        ("block_angular", &block_angular),
    ];
    let mut group = c.benchmark_group("obfuscation_lp_7_locations");
    group.sample_size(10);
    for (name, solver) in solvers {
        group.bench_function(name, |b| {
            b.iter(|| solver.solve(&lp).expect("solve"));
        });
    }
    group.finish();
}

fn bench_graph_approximation(c: &mut Criterion) {
    let ctx = ExperimentContext::standard();
    let mut group = c.benchmark_group("graph_approximation_49_locations");
    group.sample_size(10);
    for (name, approx) in [("with_approx", true), ("without_approx", false)] {
        let problem = ctx.problem_for_n_locations(49, DEFAULT_EPSILON, approx);
        group.bench_with_input(BenchmarkId::from_parameter(name), &problem, |b, p| {
            b.iter(|| p.solve(None).expect("solve"));
        });
    }
    group.finish();
}

fn bench_problem_sizes(c: &mut Criterion) {
    let ctx = ExperimentContext::standard();
    let mut group = c.benchmark_group("block_angular_by_size");
    group.sample_size(10);
    for &n in &[7usize, 21, 49] {
        let problem = ctx.problem_for_n_locations(n, DEFAULT_EPSILON, true);
        group.bench_with_input(BenchmarkId::from_parameter(n), &problem, |b, p| {
            b.iter(|| p.solve(None).expect("solve"));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_solver_kinds,
    bench_graph_approximation,
    bench_problem_sizes
);
criterion_main!(benches);
