//! Robust (δ-prunable) obfuscation-matrix generation (Section 4.4, Algorithm 1).
//!
//! A matrix is δ-prunable (Definition 4.2) if it still satisfies ε-Geo-Ind after
//! any pruning of at most δ locations.  Proposition 4.4 gives a sufficient
//! condition: tighten each Geo-Ind constraint by a *reserved privacy budget*
//! ε′_{i,j} (Eq. 12); Proposition 4.5 replaces the exponential-cost exact budget
//! by the efficient approximation of Eq. 14.  Algorithm 1 alternates between
//! computing the reserved budget from the current matrix and re-solving the
//! tightened LP until convergence.
//!
//! Between refinements only the Geo-Ind bounds `e^{(ε−ε′)·d}` change: the
//! variables, sparsity pattern, row-stochastic equalities and objective stay
//! fixed.  So a chain builds and prepares its LP once, and every refinement
//! rewrites the bounds in place and re-solves warm from the previous iterate —
//! the same floating-point work, bit for bit, as rebuilding the LP for every
//! solve.

use crate::{CorgiError, ObfuscationMatrix, ObfuscationProblem, Result};
use corgi_lp::{InteriorPointOptions, WarmStart};
use serde::{Deserialize, Serialize};

/// Configuration of robust matrix generation (Algorithm 1 inputs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustConfig {
    /// Maximum number of locations the user may prune (δ).
    pub delta: usize,
    /// Number of refinement iterations `t` (the paper observes convergence in
    /// about 4 iterations and uses 10).
    pub iterations: usize,
}

impl Default for RobustConfig {
    fn default() -> Self {
        Self {
            delta: 3,
            iterations: 10,
        }
    }
}

/// The outcome of one run of Algorithm 1.
#[derive(Debug, Clone)]
pub struct RobustRun {
    /// The final (robust) obfuscation matrix `Z_t`.
    pub matrix: ObfuscationMatrix,
    /// Quality loss Δ(Z_i) after every iteration, starting with the non-robust
    /// matrix `Z_0` (index 0).  This is the series plotted in Fig. 9(a)(b).
    pub objective_per_iteration: Vec<f64>,
    /// The reserved-privacy-budget matrix of the final iteration.
    pub final_rpb: Vec<Vec<f64>>,
    /// The converged interior-point iterate of the last LP solved (`None` when
    /// the last solve needed repair).  Feed it to
    /// [`generate_robust_matrix_warm`] for a grid-adjacent `(privacy_level, δ)`
    /// problem to skip most of that run's interior-point work.
    pub warm: Option<WarmStart>,
}

impl RobustRun {
    /// Differences of the objective between consecutive iterations
    /// (the series plotted in Fig. 9(c)(d)).
    pub fn objective_differences(&self) -> Vec<f64> {
        self.objective_per_iteration
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect()
    }
}

/// Compute the approximate reserved privacy budget ε′_{i,j} of Eq. 14 for every
/// ordered pair, from the current matrix.
///
/// `ε′_{i,j} = (1/d_{i,j}) · ln[(1 − P_i·e^{−ε·d_{i,j}}) / (1 − P_i)]` where
/// `P_i = max_{|S| ≤ δ} Σ_{l∈S} z_{i,l}` is the largest probability mass that δ
/// pruned columns can remove from row `i`.
///
/// Note: the displayed Eq. 14 of the paper writes `z_{j,l}`, but the derivation
/// in the proof of Proposition 4.5 bounds the ratio through row `i`: from the
/// enforced constraint `z_{i,l} ≤ e^{ε·d}·z_{j,l}` it follows that
/// `1 − Σ_S z_{j,l} ≤ 1 − e^{−ε·d}·Σ_S z_{i,l}`, so the valid upper bound on
/// Eq. 12 is a function of row `i`'s prunable mass.  We follow the proof (using
/// row `j` instead can under-reserve and is not an upper bound of Eq. 12, which
/// the `exact_rpb_bounded_by_approximation` test demonstrates).
pub fn reserved_privacy_budget_approx(
    matrix: &ObfuscationMatrix,
    distances: &[Vec<f64>],
    epsilon: f64,
    delta: usize,
) -> Vec<Vec<f64>> {
    let k = matrix.size();
    // Top-δ row sums P_i.
    let top_sums: Vec<f64> = (0..k)
        .map(|i| top_delta_sum(matrix.row(i), delta))
        .collect();
    let mut rpb = vec![vec![0.0; k]; k];
    for i in 0..k {
        for j in 0..k {
            if i == j {
                continue;
            }
            rpb[i][j] = rpb_from_mass(top_sums[i], epsilon, distances[i][j]);
        }
    }
    rpb
}

/// Compute the exact reserved privacy budget of Eq. 12 by enumerating all subsets
/// `S` with `|S| ≤ δ`.  Exponential in δ — only use for small instances (tests and
/// the ablation bench comparing Eq. 12 with Eq. 14).
///
/// Returns an error when the enumeration would exceed ~2 million subsets.
pub fn reserved_privacy_budget_exact(
    matrix: &ObfuscationMatrix,
    distances: &[Vec<f64>],
    epsilon: f64,
    delta: usize,
) -> Result<Vec<Vec<f64>>> {
    let k = matrix.size();
    let subsets = count_subsets(k, delta);
    if subsets > 2_000_000 {
        return Err(CorgiError::InvalidMatrix(format!(
            "exact reserved budget would enumerate {subsets} subsets; use the approximation"
        )));
    }
    let all_subsets = enumerate_subsets(k, delta);
    let mut rpb = vec![vec![0.0; k]; k];
    for i in 0..k {
        for j in 0..k {
            if i == j {
                continue;
            }
            let mut best_ratio = 1.0f64;
            for subset in &all_subsets {
                let removed_j: f64 = subset.iter().map(|&l| matrix.get(j, l)).sum();
                let removed_i: f64 = subset.iter().map(|&l| matrix.get(i, l)).sum();
                let denom = 1.0 - removed_i;
                if denom <= 1e-12 {
                    continue;
                }
                let ratio = (1.0 - removed_j) / denom;
                if ratio > best_ratio {
                    best_ratio = ratio;
                }
            }
            let d = distances[i][j].max(1e-12);
            rpb[i][j] = (best_ratio.ln() / d).clamp(0.0, epsilon);
        }
    }
    Ok(rpb)
}

fn top_delta_sum(row: &[f64], delta: usize) -> f64 {
    if delta == 0 {
        return 0.0;
    }
    let mut sorted: Vec<f64> = row.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("probabilities are finite"));
    sorted.iter().take(delta).sum()
}

fn rpb_from_mass(mass_j: f64, epsilon: f64, distance: f64) -> f64 {
    // Guard against the degenerate case where almost the whole row can be pruned:
    // the reserved budget would blow up; cap the mass just below 1.
    let p = mass_j.clamp(0.0, 1.0 - 1e-9);
    let d = distance.max(1e-12);
    let numerator = 1.0 - p * (-epsilon * d).exp();
    let denominator = 1.0 - p;
    ((numerator / denominator).ln() / d).max(0.0)
}

fn count_subsets(k: usize, delta: usize) -> u128 {
    let mut total: u128 = 0;
    for size in 1..=delta.min(k) {
        let mut c: u128 = 1;
        for x in 0..size {
            c = c * (k - x) as u128 / (x + 1) as u128;
        }
        total += c;
    }
    total
}

fn enumerate_subsets(k: usize, delta: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    fn recurse(
        start: usize,
        k: usize,
        remaining: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if !current.is_empty() {
            out.push(current.clone());
        }
        if remaining == 0 {
            return;
        }
        for next in start..k {
            current.push(next);
            recurse(next + 1, k, remaining - 1, current, out);
            current.pop();
        }
    }
    recurse(0, k, delta.min(k), &mut current, &mut out);
    out
}

/// Generate the non-robust baseline matrix (the LP of Eq. 8; this is the
/// "non-robust" comparator used throughout the paper's evaluation, equivalent to
/// δ = 0).
pub fn generate_nonrobust_matrix(problem: &ObfuscationProblem) -> Result<ObfuscationMatrix> {
    problem.solve(None)
}

/// Algorithm 1: generate a δ-prunable robust obfuscation matrix.
///
/// Returns the matrix after `config.iterations` refinement steps together with
/// the per-iteration objective values (Fig. 9) and the final reserved budget.
pub fn generate_robust_matrix(
    problem: &ObfuscationProblem,
    config: &RobustConfig,
) -> Result<RobustRun> {
    generate_robust_matrix_warm(problem, config, None)
}

/// [`generate_robust_matrix`] warm-started from a converged iterate of a
/// nearby run (typically the grid neighbour's [`RobustRun::warm`]).
///
/// The warm iterate seeds the initial solve; every refinement iteration then
/// chains from the converged iterate of the previous solve (a refinement
/// changes only the reserved-budget tightening of some constraints, so each
/// LP is a small perturbation of the last).  A solve that does not produce a
/// reusable iterate falls back to the best one seen so far.
///
/// The LP is built and prepared once for the whole chain, and each
/// refinement rewrites its Geo-Ind bounds in place.
pub fn generate_robust_matrix_warm(
    problem: &ObfuscationProblem,
    config: &RobustConfig,
    warm: Option<&WarmStart>,
) -> Result<RobustRun> {
    let options = InteriorPointOptions::default();
    // Tolerance ladder: every solve except the last stops at a relaxed
    // tolerance; the final LP — the one whose solution ships as the
    // obfuscation matrix — always solves at the caller's full tolerance.
    // The relaxed stop is not free.  The interior-point stop is a
    // mean-complementarity test (`run_ipm` in corgi-lp's `interior.rs`),
    // so the total duality gap it allows grows with the number of
    // constraint pairs: on the plain Eq. 8 LP at K = 49 a 1e-4 stop returns
    // an objective 4.25× the 1e-8 one, and a relaxed refinement takes about
    // 2 IPM iterations and barely moves.  So the matrices that feed Eq. 14's
    // reserved-budget recomputation are not the LP optima Algorithm 1
    // specifies; ROADMAP item 1 measures what it costs and item 3 holds the
    // fix.  Combined
    // with the warm chaining below, the ladder is what makes a chain one
    // cold solve plus cheap refinements.
    const REFINEMENT_TOLERANCE: f64 = 1e-4;
    let refinements = if config.delta == 0 {
        0
    } else {
        config.iterations
    };
    let relaxed = InteriorPointOptions {
        tolerance: options.tolerance.max(REFINEMENT_TOLERANCE),
        ..options
    };
    let init_options = if refinements > 0 { relaxed } else { options };
    // One LP for the whole chain.
    let mut lp = problem.prepare_lp(None)?;
    // Step 4: the initial matrix from the plain LP (Eq. 8).
    let (mut matrix, mut warm_state) = problem.solve_prepared(&mut lp, init_options, warm)?;
    let mut objectives = vec![problem.quality_loss(&matrix)];
    let mut rpb = vec![vec![0.0; problem.size()]; problem.size()];

    if config.delta == 0 || config.iterations == 0 {
        return Ok(RobustRun {
            matrix,
            objective_per_iteration: objectives,
            final_rpb: rpb,
            warm: warm_state,
        });
    }

    // Steps 7–13: iterate RPB computation and LP re-solution, each solve
    // seeded from the previous converged iterate and — except the last —
    // solved at the relaxed refinement tolerance.
    for t in 1..=refinements {
        rpb = reserved_privacy_budget_approx(
            &matrix,
            problem.distances(),
            problem.epsilon(),
            config.delta,
        );
        let step_options = if t == refinements { options } else { relaxed };
        problem.write_reserved_budget(&mut lp, &rpb)?;
        let (m, w) = problem.solve_prepared(&mut lp, step_options, warm_state.as_ref())?;
        matrix = m;
        warm_state = w.or(warm_state);
        objectives.push(problem.quality_loss(&matrix));
    }

    Ok(RobustRun {
        matrix,
        objective_per_iteration: objectives,
        final_rpb: rpb,
        warm: warm_state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{geoind, prune::prune_matrix, LocationTree};
    use corgi_hexgrid::{HexGrid, HexGridConfig};
    use corgi_lp::PreparedLp;
    use rand::prelude::*;

    fn small_problem() -> (LocationTree, ObfuscationProblem) {
        let tree = LocationTree::new(HexGrid::new(HexGridConfig::san_francisco()).unwrap());
        let subtree = tree.privacy_forest(1).unwrap()[0].clone();
        let prior: Vec<f64> = vec![3.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0];
        let targets = vec![0usize, 2, 5];
        let p = ObfuscationProblem::new(&tree, &subtree, &prior, &targets, 15.0, true).unwrap();
        (tree, p)
    }

    /// Algorithm 1 replayed with the LP rebuilt through `build_lp` and
    /// prepared afresh by a new `PreparedLp` for every solve — the chain as it
    /// ran before the LP was prepared once.
    fn replay_with_rebuilds(
        problem: &ObfuscationProblem,
        delta: usize,
        iterations: usize,
        seed: Option<&WarmStart>,
    ) -> RobustRun {
        let options = InteriorPointOptions::default();
        let relaxed = InteriorPointOptions {
            tolerance: options.tolerance.max(1e-4),
            ..options
        };
        let solve = |rpb: Option<&[Vec<f64>]>, opts, warm: Option<&WarmStart>| {
            let (lp, blocks) = problem.build_lp(rpb).unwrap();
            let solution = PreparedLp::new(lp.clone(), &blocks)
                .unwrap()
                .solve_with_warm(&opts, warm)
                .unwrap();
            problem.matrix_from_solution(&lp, solution, opts).unwrap()
        };
        let refinements = if delta == 0 { 0 } else { iterations };
        let init = if refinements > 0 { relaxed } else { options };
        let (mut matrix, mut warm) = solve(None, init, seed);
        let mut objectives = vec![problem.quality_loss(&matrix)];
        let mut rpb = vec![vec![0.0; problem.size()]; problem.size()];
        for t in 1..=refinements {
            rpb = reserved_privacy_budget_approx(
                &matrix,
                problem.distances(),
                problem.epsilon(),
                delta,
            );
            let opts = if t == refinements { options } else { relaxed };
            let (m, w) = solve(Some(&rpb), opts, warm.as_ref());
            matrix = m;
            warm = w.or(warm);
            objectives.push(problem.quality_loss(&matrix));
        }
        RobustRun {
            matrix,
            objective_per_iteration: objectives,
            final_rpb: rpb,
            warm,
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The shipped chain (LP prepared once, bounds rewritten in place) against
    /// the rebuild replay at δ ∈ {0, 1, 5, 40}, each δ seeded from the
    /// previous one's iterate as the serving warm plan does: matrix,
    /// objectives, reserved budget and iterate must agree bit for bit.
    fn assert_prepared_chain_matches_rebuilds(level: u8) {
        let tree = LocationTree::new(HexGrid::new(HexGridConfig::san_francisco()).unwrap());
        let subtree = tree.privacy_forest(level).unwrap()[0].clone();
        let k = subtree.leaf_count();
        let prior: Vec<f64> = (0..k).map(|i| 1.0 + (i % 5) as f64).collect();
        let targets: Vec<usize> = (0..k).step_by(3).collect();
        let p = ObfuscationProblem::new(&tree, &subtree, &prior, &targets, 15.0, true).unwrap();
        let mut seed: Option<WarmStart> = None;
        for delta in [0usize, 1, 5, 40] {
            let config = RobustConfig {
                delta,
                iterations: 10,
            };
            let shipped = generate_robust_matrix_warm(&p, &config, seed.as_ref()).unwrap();
            let replay = replay_with_rebuilds(&p, delta, 10, seed.as_ref());
            let context = format!("level {level}, delta {delta}");
            assert_eq!(
                bits(shipped.matrix.data()),
                bits(replay.matrix.data()),
                "{context}: matrix"
            );
            assert_eq!(
                bits(&shipped.objective_per_iteration),
                bits(&replay.objective_per_iteration),
                "{context}: objectives"
            );
            assert_eq!(
                shipped
                    .final_rpb
                    .iter()
                    .map(|r| bits(r))
                    .collect::<Vec<_>>(),
                replay.final_rpb.iter().map(|r| bits(r)).collect::<Vec<_>>(),
                "{context}: reserved budget"
            );
            let warm_bits = |w: &Option<WarmStart>| {
                w.as_ref()
                    .map(|w| (bits(&w.x), bits(&w.y), bits(&w.s), w.mu.to_bits()))
            };
            assert!(shipped.warm.is_some(), "{context}: no iterate to seed from");
            assert_eq!(
                warm_bits(&shipped.warm),
                warm_bits(&replay.warm),
                "{context}: iterate"
            );
            seed = shipped.warm;
        }
    }

    #[test]
    fn prepared_chain_is_bit_identical_to_rebuilds_level1() {
        assert_prepared_chain_matches_rebuilds(1);
    }

    #[test]
    fn prepared_chain_is_bit_identical_to_rebuilds_level2() {
        assert_prepared_chain_matches_rebuilds(2);
    }

    #[test]
    fn top_delta_sum_takes_largest_entries() {
        assert!((top_delta_sum(&[0.1, 0.5, 0.2, 0.2], 2) - 0.7).abs() < 1e-12);
        assert_eq!(top_delta_sum(&[0.3, 0.7], 0), 0.0);
        assert!((top_delta_sum(&[0.3, 0.7], 5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rpb_is_nonnegative_and_grows_with_delta() {
        let (_tree, p) = small_problem();
        let matrix = p.solve(None).unwrap();
        let rpb1 = reserved_privacy_budget_approx(&matrix, p.distances(), p.epsilon(), 1);
        let rpb3 = reserved_privacy_budget_approx(&matrix, p.distances(), p.epsilon(), 3);
        let k = p.size();
        for i in 0..k {
            for j in 0..k {
                assert!(rpb1[i][j] >= 0.0);
                assert!(rpb3[i][j] + 1e-12 >= rpb1[i][j], "budget must grow with δ");
            }
        }
    }

    #[test]
    fn exact_rpb_bounded_by_approximation() {
        // Proposition 4.5: ε_{i,j} ≤ ε′_{i,j}, i.e. the approximation is an upper bound.
        let (_tree, p) = small_problem();
        let matrix = p.solve(None).unwrap();
        let exact = reserved_privacy_budget_exact(&matrix, p.distances(), p.epsilon(), 2).unwrap();
        let approx = reserved_privacy_budget_approx(&matrix, p.distances(), p.epsilon(), 2);
        let k = p.size();
        for i in 0..k {
            for j in 0..k {
                if i != j {
                    assert!(
                        exact[i][j] <= approx[i][j] + 1e-9,
                        "pair ({i},{j}): exact {} > approx {}",
                        exact[i][j],
                        approx[i][j]
                    );
                }
            }
        }
    }

    #[test]
    fn exact_rpb_guards_against_explosion() {
        let (_tree, p) = small_problem();
        let matrix = p.solve(None).unwrap();
        // δ = 7 over 7 cells is fine (2^7 subsets), but a fake huge δ over a huge K
        // is rejected; simulate by calling count guard directly.
        assert!(reserved_privacy_budget_exact(&matrix, p.distances(), p.epsilon(), 3).is_ok());
        assert!(count_subsets(343, 5) > 2_000_000);
    }

    #[test]
    fn robust_matrix_costs_more_quality_than_nonrobust() {
        let (_tree, p) = small_problem();
        let nonrobust = generate_nonrobust_matrix(&p).unwrap();
        let robust = generate_robust_matrix(
            &p,
            &RobustConfig {
                delta: 2,
                iterations: 4,
            },
        )
        .unwrap();
        let q_nr = p.quality_loss(&nonrobust);
        let q_r = p.quality_loss(&robust.matrix);
        assert!(
            q_r + 1e-9 >= q_nr,
            "robustness reserves budget, so quality loss cannot decrease: {q_r} vs {q_nr}"
        );
        assert_eq!(robust.objective_per_iteration.len(), 5);
        assert_eq!(robust.objective_differences().len(), 4);
    }

    #[test]
    fn objective_converges_over_iterations() {
        let (_tree, p) = small_problem();
        let run = generate_robust_matrix(
            &p,
            &RobustConfig {
                delta: 2,
                iterations: 8,
            },
        )
        .unwrap();
        let diffs = run.objective_differences();
        // The last difference is much smaller than the first jump (Fig. 9 behaviour).
        let first = diffs[0].abs().max(1e-9);
        let last = diffs.last().unwrap().abs();
        assert!(last <= first, "no convergence: first {first}, last {last}");
        assert!(last < 0.2 * (1.0 + run.objective_per_iteration[0]));
    }

    #[test]
    fn delta_zero_returns_nonrobust_matrix() {
        let (_tree, p) = small_problem();
        let run = generate_robust_matrix(
            &p,
            &RobustConfig {
                delta: 0,
                iterations: 5,
            },
        )
        .unwrap();
        assert_eq!(run.objective_per_iteration.len(), 1);
        let nonrobust = generate_nonrobust_matrix(&p).unwrap();
        let diff = (p.quality_loss(&run.matrix) - p.quality_loss(&nonrobust)).abs();
        assert!(diff < 1e-9);
    }

    #[test]
    fn robust_matrix_survives_random_pruning_better_than_nonrobust() {
        // The core claim of the paper (Fig. 12): after pruning δ random locations,
        // the robust matrix violates far fewer Geo-Ind constraints.
        let (_tree, p) = small_problem();
        let delta = 2usize;
        let nonrobust = generate_nonrobust_matrix(&p).unwrap();
        let robust = generate_robust_matrix(
            &p,
            &RobustConfig {
                delta,
                iterations: 6,
            },
        )
        .unwrap()
        .matrix;

        let mut rng = StdRng::seed_from_u64(11);
        let mut violations_nonrobust = 0usize;
        let mut violations_robust = 0usize;
        let trials = 60;
        for _ in 0..trials {
            let mut cells = p.cells().to_vec();
            cells.shuffle(&mut rng);
            let prune: Vec<_> = cells[..delta].to_vec();
            for (matrix, counter) in [
                (&nonrobust, &mut violations_nonrobust),
                (&robust, &mut violations_robust),
            ] {
                let pruned = prune_matrix(matrix, &prune).unwrap();
                // Distances restricted to the surviving cells.
                let survivors: Vec<usize> = p
                    .cells()
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !prune.contains(c))
                    .map(|(i, _)| i)
                    .collect();
                let d: Vec<Vec<f64>> = survivors
                    .iter()
                    .map(|&i| survivors.iter().map(|&j| p.distances()[i][j]).collect())
                    .collect();
                let report = geoind::check_all_pairs(&pruned, &d, p.epsilon(), 1e-7);
                *counter += report.violated;
            }
        }
        assert!(
            violations_robust <= violations_nonrobust,
            "robust {violations_robust} vs non-robust {violations_nonrobust}"
        );
    }
}
