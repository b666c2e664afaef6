//! Cross-solve warm-start contract on the serving workload: Algorithm 1's
//! robust refinement chain for a K = 49 obfuscation key (recompute the
//! reserved privacy budget from the last matrix, re-solve the tightened LP,
//! ten times) must cost materially fewer total interior-point iterations as
//! the warm-chained incremental engine than as the pre-incremental baseline
//! of independent full-tolerance cold solves — while still shipping a
//! full-tolerance Optimal final matrix with an equivalent objective.
//!
//! Two mechanisms compound, mirroring `generate_robust_matrix_warm`:
//!
//! * **warm chaining** — every solve seeds from the previous converged
//!   iterate (the reserved-budget fixed point oscillates, so this alone only
//!   trims the head of each solve);
//! * **the tolerance ladder** — intermediate matrices exist only to feed the
//!   Eq. 14 upper-bound *approximation*, so solving them past 1e-4 buys
//!   nothing but tail iterations of the interior point's slow final grind.
//!   Only the last LP — the one whose solution ships — runs at full
//!   tolerance.
//!
//! This is also the workload the `warm_vs_cold_ipm/k49` bench pair times and
//! the perf gate caps.
use corgi_bench::{ExperimentContext, DEFAULT_EPSILON};
use corgi_core::robust::reserved_privacy_budget_approx;
use corgi_core::{geoind, ObfuscationMatrix};
use corgi_lp::{InteriorPointOptions, PreparedLp, SolveStatus, WarmStart};

const REFINEMENTS: usize = 10;
const DELTA: usize = 2;
/// The tolerance the other solved-matrix checks in this workspace use.
const SOLVER_TOLERANCE: f64 = 1e-6;

#[test]
fn warm_chained_refinement_engine_halves_total_iterations() {
    let ctx = ExperimentContext::standard();
    let problem = ctx.problem_for_n_locations(49, DEFAULT_EPSILON, true);
    let full = InteriorPointOptions::default();
    let relaxed = InteriorPointOptions {
        tolerance: 1e-4,
        ..full
    };

    let matrix_of = |x: Vec<f64>| {
        ObfuscationMatrix::from_lp_solution(problem.cells().to_vec(), x).expect("valid matrix")
    };

    // --- Pre-incremental engine: every solve cold, at full tolerance. ---
    let (lp0, blocks0) = problem.build_lp(None).expect("base LP builds");
    let mut cold_iters = Vec::new();
    let s = PreparedLp::new(lp0.clone(), &blocks0)
        .expect("base LP prepares")
        .solve_with_warm(&full, None)
        .expect("cold base solve");
    assert_eq!(s.status, SolveStatus::Optimal);
    cold_iters.push(s.iterations);
    let mut matrix = matrix_of(s.x);
    let mut cold_final_objective = s.objective;
    for _ in 1..=REFINEMENTS {
        let rpb =
            reserved_privacy_budget_approx(&matrix, problem.distances(), problem.epsilon(), DELTA);
        let (lp, blocks) = problem.build_lp(Some(&rpb)).expect("refined LP builds");
        let s = PreparedLp::new(lp, &blocks)
            .expect("refined LP prepares")
            .solve_with_warm(&full, None)
            .expect("cold refinement");
        assert_eq!(s.status, SolveStatus::Optimal);
        cold_iters.push(s.iterations);
        cold_final_objective = s.objective;
        matrix = matrix_of(s.x);
    }

    // --- Incremental engine: warm-chained, tolerance ladder. ---
    let mut warm_iters = Vec::new();
    let s = PreparedLp::new(lp0, &blocks0)
        .expect("base LP prepares")
        .solve_with_warm(&relaxed, None)
        .expect("relaxed base solve");
    assert_eq!(s.status, SolveStatus::Optimal);
    warm_iters.push(s.iterations);
    let mut warm: Option<WarmStart> = s.warm;
    let mut matrix = matrix_of(s.x);
    let mut warm_final_objective = s.objective;
    for t in 1..=REFINEMENTS {
        let rpb =
            reserved_privacy_budget_approx(&matrix, problem.distances(), problem.epsilon(), DELTA);
        let (lp, blocks) = problem.build_lp(Some(&rpb)).expect("refined LP builds");
        let opts = if t == REFINEMENTS { full } else { relaxed };
        let s = PreparedLp::new(lp, &blocks)
            .expect("refined LP prepares")
            .solve_with_warm(&opts, warm.as_ref())
            .expect("warm refinement");
        assert_eq!(
            s.status,
            SolveStatus::Optimal,
            "warm refinement {t} not optimal after {} iterations",
            s.iterations
        );
        warm_iters.push(s.iterations);
        warm = s.warm.or(warm);
        warm_final_objective = s.objective;
        matrix = matrix_of(s.x);
    }

    let cold_total: usize = cold_iters.iter().sum();
    let warm_total: usize = warm_iters.iter().sum();
    println!("cold engine iterations: {cold_iters:?} (total {cold_total})");
    println!("warm engine iterations: {warm_iters:?} (total {warm_total})");
    println!("final objectives: cold {cold_final_objective} warm {warm_final_objective}");

    // The two engines walk slightly different refinement paths (the ladder
    // perturbs intermediate matrices within the Eq. 14 approximation's own
    // error), so the final full-tolerance objectives agree to refinement
    // noise, not machine precision.  The reserved-budget fixed point
    // oscillates at O(1) in a few entries, so "refinement noise" is a couple
    // of percent of the objective.
    let scale = 1.0 + cold_final_objective.abs();
    assert!(
        (warm_final_objective - cold_final_objective).abs() / scale < 0.05,
        "engines disagree: warm {warm_final_objective} vs cold {cold_final_objective}"
    );
    // Warm starts and the relaxed ladder must not cost the guarantee: the
    // shipped matrix is row-stochastic and satisfies ε-Geo-Ind over all
    // pairs (the robust rows are tighter still, and the graph approximation
    // implies all pairs, Theorem 4.1).
    matrix
        .check_stochastic(SOLVER_TOLERANCE)
        .expect("shipped warm matrix is row-stochastic");
    let report = geoind::check_all_pairs(
        &matrix,
        problem.distances(),
        problem.epsilon(),
        SOLVER_TOLERANCE,
    );
    println!(
        "warm matrix Geo-Ind: worst margin {:e}, {} / {} constraints violated",
        report.worst_margin, report.violated, report.total_constraints
    );
    assert!(
        report.worst_margin <= SOLVER_TOLERANCE,
        "shipped warm matrix violates Geo-Ind by {:e} ({} / {} constraints)",
        report.worst_margin,
        report.violated,
        report.total_constraints
    );
    assert!(
        warm_total * 2 <= cold_total,
        "incremental engine should at least halve total iterations: {warm_total} vs {cold_total}"
    );
}
