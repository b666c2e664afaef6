//! Cross-solver agreement tests: the simplex method is the exact reference; the
//! interior-point method, block-angular or with every variable in one block,
//! must reproduce its optimal objective on random feasible, bounded problems.

use corgi_lp::{
    ConstraintSense, InteriorPointOptions, KernelStrategy, LpProblem, LpSolution, PreparedLp,
    SimplexSolver, SolveStatus,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One fresh preparation of `p` under `blocks`, solved cold.
fn solve(p: &LpProblem, blocks: &[Vec<usize>], opts: InteriorPointOptions) -> LpSolution {
    PreparedLp::new(p.clone(), blocks)
        .unwrap()
        .solve_with_warm(&opts, None)
        .unwrap()
}

/// The generic interior-point oracle: every variable in one block.
fn ipm(p: &LpProblem) -> LpSolution {
    let one_block = [(0..p.num_vars()).collect()];
    solve(p, &one_block, InteriorPointOptions::default())
}

/// Build a random LP that is guaranteed feasible (the origin plus slack is
/// feasible because every RHS is ≥ 0 for ≤ rows) and bounded (all objective
/// coefficients are ≥ 0.1 and variables are non-negative).
fn random_bounded_problem(seed: u64, n: usize, m: usize) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = LpProblem::new(n);
    let c: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..2.0)).collect();
    p.set_objective_vector(c).unwrap();
    for _ in 0..m {
        let k = rng.gen_range(1..=3.min(n));
        let mut coeffs = Vec::new();
        let mut used = std::collections::HashSet::new();
        while coeffs.len() < k {
            let j = rng.gen_range(0..n);
            if used.insert(j) {
                coeffs.push((j, rng.gen_range(-1.0..2.0)));
            }
        }
        // Mix of ≥ constraints (forces some mass away from zero) and ≤ caps.
        if rng.gen_bool(0.5) {
            // a·x ≥ b with small positive b and at least one positive coefficient
            // keeps the problem feasible.
            if coeffs.iter().any(|(_, a)| *a > 0.0) {
                p.add_constraint(coeffs, ConstraintSense::Ge, rng.gen_range(0.0..1.0))
                    .unwrap();
            }
        } else {
            let coeffs: Vec<(usize, f64)> = coeffs.into_iter().map(|(j, a)| (j, a.abs())).collect();
            p.add_constraint(coeffs, ConstraintSense::Le, rng.gen_range(1.0..5.0))
                .unwrap();
        }
    }
    p
}

#[test]
fn ipm_matches_simplex_on_many_random_problems() {
    let mut compared = 0;
    let mut skipped_non_optimal = 0;
    for seed in 0..60u64 {
        let p = random_bounded_problem(seed, 4 + (seed % 4) as usize, 5 + (seed % 6) as usize);
        let spx = SimplexSolver::new().solve(&p).unwrap();
        if spx.status != SolveStatus::Optimal {
            continue; // randomly generated ≥ rows can make a problem infeasible
        }
        let ipm = ipm(&p);
        if ipm.status != SolveStatus::Optimal {
            // Path-following without a homogeneous embedding is not guaranteed on
            // problems lacking a strictly feasible interior; it must report the
            // failure honestly rather than return a wrong answer.
            skipped_non_optimal += 1;
            continue;
        }
        let scale = 1.0 + spx.objective.abs();
        assert!(
            (ipm.objective - spx.objective).abs() / scale < 1e-4,
            "seed {seed}: ipm {} vs simplex {}",
            ipm.objective,
            spx.objective
        );
        assert!(
            p.is_feasible(&ipm.x, 1e-4),
            "seed {seed} produced infeasible x"
        );
        compared += 1;
    }
    assert!(
        compared > 20,
        "too few feasible random instances ({compared})"
    );
    assert!(
        skipped_non_optimal <= 3,
        "IPM gave up on too many instances ({skipped_non_optimal})"
    );
}

/// Row-stochastic "obfuscation-like" problems of varying size: block solver,
/// general IPM and simplex all agree.
#[test]
fn block_solver_matches_simplex_on_stochastic_matrices() {
    for &k in &[2usize, 3, 4, 5] {
        let var = |i: usize, j: usize| i * k + j;
        let mut p = LpProblem::new(k * k);
        let mut rng = StdRng::seed_from_u64(k as u64);
        for i in 0..k {
            for j in 0..k {
                let cost: f64 = (i as f64 - j as f64).abs() + rng.gen_range(0.0..0.2);
                p.set_objective(var(i, j), cost).unwrap();
            }
        }
        for i in 0..k {
            let coeffs = (0..k).map(|j| (var(i, j), 1.0)).collect();
            p.add_constraint(coeffs, ConstraintSense::Eq, 1.0).unwrap();
        }
        // One ratio constraint per ordered pair, with one shifted copy per
        // column.
        let factor = 0.8f64.exp();
        for i in 0..k {
            for l in (0..k).filter(|&l| l != i) {
                let pair = vec![(var(i, 0), 1.0), (var(l, 0), -factor)];
                p.add_shifted_constraints(pair, k, ConstraintSense::Le, 0.0)
                    .unwrap();
            }
        }
        let spx = SimplexSolver::new().solve(&p).unwrap();
        let blocks: Vec<Vec<usize>> = (0..k)
            .map(|j| (0..k).map(|i| var(i, j)).collect())
            .collect();
        let block = solve(&p, &blocks, InteriorPointOptions::default());
        assert_eq!(spx.status, SolveStatus::Optimal);
        assert_eq!(block.status, SolveStatus::Optimal);
        assert!(
            (spx.objective - block.objective).abs() < 1e-4,
            "k={k}: simplex {} vs block {}",
            spx.objective,
            block.objective
        );
        assert!(p.is_feasible(&block.x, 1e-5));
    }
}

/// Build a full-tree-shaped block-angular LP over `k` locations: a `k × k`
/// row-stochastic matrix, ring-neighbor ratio constraints per column (the
/// graph-approximated Geo-Ind pattern), row sums = 1 — the same structure as
/// the paper's obfuscation LP at K locations, sized synthetically so the
/// `corgi-lp` crate can exercise the K = 343 regime without depending on the
/// geo stack.
fn full_tree_shaped_problem(k: usize) -> (LpProblem, Vec<Vec<usize>>) {
    let var = |i: usize, j: usize| i * k + j;
    let mut p = LpProblem::new(k * k);
    let mut rng = StdRng::seed_from_u64(k as u64);
    for i in 0..k {
        for j in 0..k {
            let cost: f64 = (i as f64 - j as f64).abs() / k as f64 + rng.gen_range(0.0..0.2);
            p.set_objective(var(i, j), cost).unwrap();
        }
    }
    for i in 0..k {
        let coeffs = (0..k).map(|j| (var(i, j), 1.0)).collect();
        p.add_constraint(coeffs, ConstraintSense::Eq, 1.0).unwrap();
    }
    // Ring-neighbor constrained pairs: (i, i+1) and (i+1, i), both directions,
    // each one constraint with one shifted copy per reported column — the
    // sparse analogue of the 12-neighbor mobility graph.
    let factor = 1.8f64.exp();
    for i in 0..k {
        let nb = (i + 1) % k;
        for (a, b) in [(i, nb), (nb, i)] {
            let pair = vec![(var(a, 0), 1.0), (var(b, 0), -factor)];
            p.add_shifted_constraints(pair, k, ConstraintSense::Le, 0.0)
                .unwrap();
        }
    }
    let blocks: Vec<Vec<usize>> = (0..k)
        .map(|j| (0..k).map(|i| var(i, j)).collect())
        .collect();
    (p, blocks)
}

/// Blocked and reference kernel strategies agree end to end on a moderately
/// sized full-tree-shaped instance (full convergence, default tolerances).
#[test]
fn kernel_strategies_agree_on_full_tree_shape() {
    let (p, blocks) = full_tree_shaped_problem(12);
    let blocked = solve(&p, &blocks, InteriorPointOptions::default());
    let reference = solve(
        &p,
        &blocks,
        InteriorPointOptions {
            kernels: KernelStrategy::Reference,
            ..InteriorPointOptions::default()
        },
    );
    assert_eq!(blocked.status, SolveStatus::Optimal);
    assert_eq!(reference.status, SolveStatus::Optimal);
    let scale = 1.0 + reference.objective.abs();
    assert!(
        (blocked.objective - reference.objective).abs() / scale < 1e-6,
        "blocked {} vs reference {}",
        blocked.objective,
        reference.objective
    );
    for (a, b) in blocked.x.iter().zip(reference.x.iter()) {
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }
    assert!(p.is_feasible(&blocked.x, 1e-6));
}

/// The paper's full-tree regime: K = 343 locations (117 649 variables, 343
/// per-column blocks, 343 coupling equalities).  The blocked and reference
/// kernel strategies must produce the same iterates; with the iteration count
/// capped the comparison measures exactly the Newton hot path both strategies
/// share, and stays runnable (the reference kernels need tens of seconds per
/// iteration at this size — which is why this test is `#[ignore]` and run from
/// the CI heavy lane via `cargo test --release -- --ignored`).
#[test]
#[ignore = "K = 343 reference kernels are slow; run explicitly (CI heavy lane)"]
fn full_tree_k343_blocked_matches_reference_iterates() {
    use std::time::Instant;
    let k = 343;
    let (p, blocks) = full_tree_shaped_problem(k);
    let (le, ge, eq) = p.constraint_counts();
    println!(
        "K=343 LP: {} vars, {} constraints ({le} ≤ / {ge} ≥ / {eq} =), {} nonzeros",
        p.num_vars(),
        p.num_constraints(),
        p.nonzeros()
    );
    let capped = |kernels| InteriorPointOptions {
        max_iterations: 3,
        kernels,
        ..InteriorPointOptions::default()
    };
    let t0 = Instant::now();
    let blocked = solve(&p, &blocks, capped(KernelStrategy::Blocked));
    let blocked_time = t0.elapsed();
    let t1 = Instant::now();
    let reference = solve(&p, &blocks, capped(KernelStrategy::Reference));
    let reference_time = t1.elapsed();
    println!(
        "K=343, 3 IPM iterations: blocked {blocked_time:?}, reference {reference_time:?} \
         ({:.1}x)",
        reference_time.as_secs_f64() / blocked_time.as_secs_f64().max(1e-9)
    );
    assert_eq!(blocked.iterations, reference.iterations);
    let scale = 1.0 + reference.objective.abs();
    assert!(
        (blocked.objective - reference.objective).abs() / scale < 1e-6,
        "blocked {} vs reference {}",
        blocked.objective,
        reference.objective
    );
    let max_dx = blocked
        .x
        .iter()
        .zip(reference.x.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_dx < 1e-6, "iterates diverged: max |Δx| = {max_dx}");
}

/// Full convergence of the blocked kernels on the K = 343 full-tree shape —
/// the solve the paper's fig09–fig13 regime depends on.  `#[ignore]`d for the
/// same reason as above (minutes, not milliseconds); the CI heavy lane runs it.
#[test]
#[ignore = "multi-minute full-tree solve; run explicitly (CI heavy lane)"]
fn full_tree_k343_blocked_converges() {
    use std::time::Instant;
    let (p, blocks) = full_tree_shaped_problem(343);
    let t0 = Instant::now();
    let s = solve(&p, &blocks, InteriorPointOptions::default());
    println!(
        "K=343 full solve: {:?} in {} iterations ({:?})",
        s.status,
        s.iterations,
        t0.elapsed()
    );
    assert_eq!(s.status, SolveStatus::Optimal);
    assert!(p.is_feasible(&s.x, 1e-5));
}

/// Warm-start contract on the K = 49 full-tree shape: re-solving from the
/// converged iterate reaches the same optimum in strictly fewer iterations.
#[test]
fn warm_start_k49_matches_cold_objective_in_fewer_iterations() {
    let (p, blocks) = full_tree_shaped_problem(49);
    let cold = solve(&p, &blocks, InteriorPointOptions::default());
    assert_eq!(cold.status, SolveStatus::Optimal);
    let warm_state = cold
        .warm
        .clone()
        .expect("optimal solve captures warm state");
    let warm = PreparedLp::new(p.clone(), &blocks)
        .unwrap()
        .solve_with_warm(&InteriorPointOptions::default(), Some(&warm_state))
        .unwrap();
    assert_eq!(warm.status, SolveStatus::Optimal);
    assert!(
        warm.iterations < cold.iterations,
        "warm restart took {} iterations vs {} cold",
        warm.iterations,
        cold.iterations
    );
    // Both runs stop at the solver's convergence tolerance, so the two
    // optima agree to that tolerance, not to machine precision.
    let scale = 1.0 + cold.objective.abs();
    assert!(
        (warm.objective - cold.objective).abs() / scale < 1e-4,
        "warm {} vs cold {}",
        warm.objective,
        cold.objective
    );
    assert!(p.is_feasible(&warm.x, 1e-6));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random 2-variable problems with a box and a lower-bound cut, the IPM
    /// objective equals the simplex objective.
    #[test]
    fn prop_two_variable_agreement(
        c0 in 0.1f64..3.0, c1 in 0.1f64..3.0,
        cap in 1.0f64..6.0, lower in 0.1f64..0.9,
    ) {
        let mut p = LpProblem::new(2);
        p.set_objective_vector(vec![c0, c1]).unwrap();
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, cap).unwrap();
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Ge, lower).unwrap();
        let spx = SimplexSolver::new().solve(&p).unwrap();
        let ipm = ipm(&p);
        prop_assert_eq!(spx.status, SolveStatus::Optimal);
        prop_assert_eq!(ipm.status, SolveStatus::Optimal);
        prop_assert!((spx.objective - ipm.objective).abs() < 1e-5);
    }

    /// Random transportation problems (always feasible and bounded): agreement.
    #[test]
    fn prop_transportation_agreement(
        s0 in 1.0f64..5.0, s1 in 1.0f64..5.0,
        split in 0.2f64..0.8,
        costs in proptest::collection::vec(0.1f64..4.0, 4),
    ) {
        let total = s0 + s1;
        let d0 = total * split;
        let d1 = total - d0;
        let mut p = LpProblem::new(4); // x00 x01 x10 x11
        p.set_objective_vector(costs).unwrap();
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Eq, s0).unwrap();
        p.add_constraint(vec![(2, 1.0), (3, 1.0)], ConstraintSense::Eq, s1).unwrap();
        p.add_constraint(vec![(0, 1.0), (2, 1.0)], ConstraintSense::Eq, d0).unwrap();
        p.add_constraint(vec![(1, 1.0), (3, 1.0)], ConstraintSense::Eq, d1).unwrap();
        let spx = SimplexSolver::new().solve(&p).unwrap();
        let ipm = ipm(&p);
        prop_assert_eq!(spx.status, SolveStatus::Optimal);
        prop_assert_eq!(ipm.status, SolveStatus::Optimal);
        let scale = 1.0 + spx.objective.abs();
        prop_assert!((spx.objective - ipm.objective).abs() / scale < 1e-4);
    }
}
