//! Perf-gated benchmarks of the `corgi-lp` linear-algebra core: Cholesky
//! factorization (blocked vs. scalar reference), one blocked factorization
//! of a K = 343 Newton system (block Cholesky plus Schur accumulation), and
//! the block-angular interior-point method on the paper's obfuscation LPs at
//! K ∈ {49, 343}.
//!
//! The K = 343 comparison caps the iteration count: both kernel strategies
//! perform the same per-iteration arithmetic (they agree to rounding, see
//! `crates/lp/tests/solver_agreement.rs`), so the per-iteration ratio *is* the
//! end-to-end ratio, and capping keeps the reference side runnable — at full
//! convergence the pre-PR kernels need tens of minutes at this size.
//!
//! CI (heavy lane) runs this file with `CORGI_BENCH_JSON` pointing at
//! `BENCH_results.json` and gates the medians against the checked-in
//! `BENCH_baseline.json` via the `perf_gate` binary; see README § Performance
//! for how to refresh the baseline.

use corgi_bench::{ExperimentContext, DEFAULT_EPSILON};
use corgi_core::robust::reserved_privacy_budget_approx;
use corgi_core::{generate_robust_matrix_warm, ObfuscationMatrix, RobustConfig};
use corgi_lp::{
    bench_support, BlockAngularSolver, DenseMatrix, InteriorPointOptions, KernelStrategy,
    LpProblem, LpSolver,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Deterministic SPD matrix `A = BᵀB + n·I` of size `n`, shaped like a
/// late-iteration Newton block (strongly diagonally dominant).
fn random_spd(n: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let b: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut a = DenseMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut v = if i == j { n as f64 } else { 0.0 };
            for k in 0..n {
                v += b[k * n + i] * b[k * n + j];
            }
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
    }
    a
}

fn options(kernels: KernelStrategy) -> InteriorPointOptions {
    InteriorPointOptions {
        kernels,
        ..InteriorPointOptions::default()
    }
}

/// The obfuscation LP over the `k` leaves closest to the region center, with
/// its per-column variable blocks.
fn obfuscation_lp(ctx: &ExperimentContext, k: usize) -> (LpProblem, Vec<Vec<usize>>) {
    let problem = ctx.problem_for_n_locations(k, DEFAULT_EPSILON, true);
    problem.build_lp(None).expect("LP builds")
}

fn bench_cholesky_factorize(c: &mut Criterion) {
    let mut group = c.benchmark_group("cholesky_factorize");
    for &n in &[49usize, 343] {
        // The 49×49 factorization sits in the microsecond range where timer
        // noise dominates small sample counts; more samples keep the gated
        // median's coefficient of variation well under the 20% gate tolerance.
        group.sample_size(if n < 100 { 60 } else { 10 });
        let a = random_spd(n, 7);
        group.throughput(Throughput::Elements((n * n) as u64));
        group.bench_with_input(BenchmarkId::new("blocked", n), &a, |b, a| {
            b.iter(|| {
                let mut m = a.clone();
                m.cholesky_in_place(1e-10).expect("SPD");
                m
            });
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &a, |b, a| {
            b.iter(|| {
                let mut m = a.clone();
                m.cholesky_in_place_unblocked(1e-10).expect("SPD");
                m
            });
        });
    }
    group.finish();
}

fn bench_forest_generation_k49(c: &mut Criterion) {
    let ctx = ExperimentContext::standard();
    let (lp, blocks) = obfuscation_lp(&ctx, 49);
    let mut group = c.benchmark_group("forest_generation_k49");
    group.sample_size(10);
    group.throughput(Throughput::Elements((49 * 49) as u64));
    for (name, kernels) in [
        ("blocked", KernelStrategy::Blocked),
        ("reference", KernelStrategy::Reference),
    ] {
        let solver = BlockAngularSolver::new(blocks.clone(), options(kernels));
        group.bench_function(name, |b| {
            b.iter(|| solver.solve(&lp).expect("solve"));
        });
    }
    group.finish();
}

fn bench_forest_generation_k343(c: &mut Criterion) {
    let ctx = ExperimentContext::standard();
    let (lp, blocks) = obfuscation_lp(&ctx, 343);
    let mut group = c.benchmark_group("forest_generation_k343_2iters");
    group.warm_up_time(std::time::Duration::from_millis(1));
    group.throughput(Throughput::Elements((343 * 343) as u64));
    for (name, kernels) in [
        ("blocked", KernelStrategy::Blocked),
        ("reference", KernelStrategy::Reference),
    ] {
        // The blocked side is the perf-gated one: give its median a real
        // sample set (~8 s per run).  The reference side exists for the
        // speedup ratio and is reported but not gated (~26 s per run, so two
        // samples suffice); it is deliberately absent from BENCH_baseline.json.
        group.sample_size(if kernels == KernelStrategy::Blocked {
            5
        } else {
            2
        });
        let opts = InteriorPointOptions {
            max_iterations: 2,
            ..options(kernels)
        };
        let solver = BlockAngularSolver::new(blocks.clone(), opts);
        group.bench_function(name, |b| {
            b.iter(|| solver.solve(&lp).expect("solve"));
        });
    }
    group.finish();
}

fn bench_block_factorize(c: &mut Criterion) {
    // One assembly + factorization of the K = 343 Newton system at a
    // perturbed mid-path iterate: the 343 per-block Cholesky factorizations
    // and the sparse Schur accumulation, the cold path's largest kernels.
    let ctx = ExperimentContext::standard();
    let (lp, blocks) = obfuscation_lp(&ctx, 343);
    let mut group = c.benchmark_group("block_factorize");
    group.sample_size(10);
    group.throughput(Throughput::Elements((343 * 343) as u64));
    let mut bench = bench_support::FactorizationBench::new(&lp, &blocks).expect("bench state");
    bench.perturb_state(17);
    group.bench_function("k343", |b| {
        b.iter(|| bench.factor().expect("factorization succeeds"));
    });
    group.finish();
}

fn bench_warm_vs_cold_ipm(c: &mut Criterion) {
    // The cost of warming one K = 49 grid key: Algorithm 1's full robust
    // chain (one base solve plus `robust_iterations = 10` reserved-budget
    // refinements, the serving default — eleven LP solves per key).
    //
    // "cold" replays the pre-incremental engine: every solve rebuilds and
    // re-prepares its LP and starts from scratch at full tolerance.  "warm"
    // calls the shipped incremental engine (`generate_robust_matrix_warm`):
    // the LP is built and prepared once and each refinement rewrites its
    // Geo-Ind bounds in place, every solve seeds from the previous converged
    // iterate, and intermediate refinements — whose matrices only feed the
    // Eq. 14 reserved-budget approximation — run at the relaxed refinement
    // tolerance, with the final shipped LP at full tolerance.
    // The perf gate holds warm/cold under a hard cap; the measured ratio is
    // the per-key speedup of whole-grid warming (every key of a grid sweep
    // pays this chain).
    const REFINEMENTS: usize = 10;
    const DELTA: usize = 2;
    let ctx = ExperimentContext::standard();
    let problem = ctx.problem_for_n_locations(49, DEFAULT_EPSILON, true);
    // The serving options, as `generate_robust_matrix_warm` uses them, so the
    // gated ratio isolates the incremental engine.
    let full = InteriorPointOptions::default();
    let matrix_of = |x: Vec<f64>| {
        ObfuscationMatrix::from_lp_solution(problem.cells().to_vec(), x).expect("valid matrix")
    };
    let next_lp = |matrix: &ObfuscationMatrix| {
        let rpb =
            reserved_privacy_budget_approx(matrix, problem.distances(), problem.epsilon(), DELTA);
        problem.build_lp(Some(&rpb)).expect("refined LP builds")
    };

    let mut group = c.benchmark_group("warm_vs_cold_ipm");
    group.sample_size(10);
    group.throughput(Throughput::Elements((REFINEMENTS + 1) as u64));
    group.bench_function("k49/cold", |b| {
        b.iter(|| {
            let (lp, blocks) = problem.build_lp(None).expect("base LP builds");
            let s = BlockAngularSolver::new(blocks, full)
                .solve(&lp)
                .expect("cold base solve");
            let mut iterations = s.iterations;
            let mut matrix = matrix_of(s.x);
            for _ in 0..REFINEMENTS {
                let (lp, blocks) = next_lp(&matrix);
                let s = BlockAngularSolver::new(blocks, full)
                    .solve(&lp)
                    .expect("cold refinement");
                iterations += s.iterations;
                matrix = matrix_of(s.x);
            }
            iterations
        });
    });
    let config = RobustConfig {
        delta: DELTA,
        iterations: REFINEMENTS,
    };
    group.bench_function("k49/warm", |b| {
        b.iter(|| generate_robust_matrix_warm(&problem, &config, None).expect("robust chain"));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cholesky_factorize,
    bench_forest_generation_k49,
    bench_forest_generation_k343,
    bench_block_factorize,
    bench_warm_vs_cold_ipm
);
criterion_main!(benches);
