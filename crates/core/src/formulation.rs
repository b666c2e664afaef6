//! LP formulation of the obfuscation-matrix generation problem (Section 4.1–4.2).
//!
//! The decision variables are the `K × K` entries of the obfuscation matrix
//! `Z⁰ = {z_{k,l}}` over the leaf cells of one privacy-forest subtree.  The LP is
//!
//! ```text
//! minimize   Δ(Z⁰) = Σ_q Pr(Q = v_q) Σ_k Pr(X = v_k) Σ_l z_{k,l} · U(v_k, v_l, v_q)   (Eq. 6–7)
//! subject to z_{i,l} − e^{ε_{i,j}·d_{i,j}} · z_{j,l} ≤ 0   for constrained pairs (i,j), all l  (Eq. 4 / 13 / 15)
//!            Σ_l z_{k,l} = 1                               for every row k               (Eq. 5)
//!            z ≥ 0
//! ```
//!
//! With the graph approximation of Section 4.2 the constrained pairs are only the
//! neighboring peers of the 12-neighbor mobility graph; otherwise all ordered
//! pairs are constrained.  The per-pair budget `ε_{i,j}` is the full ε for the
//! non-robust problem (Eq. 8) and `ε − ε′_{i,j}` for the robust problem (Eq. 16).
//!
//! Every solve is block-angular and goes through a [`PreparedLp`]: the LP is
//! built and prepared once (`prepare_lp`), and a new reserved budget rewrites
//! only the `|pairs| · K` Geo-Ind bounds in place (`write_reserved_budget`),
//! which is how Algorithm 1 re-solves without rebuilding.
//! [`ObfuscationProblem::build_lp`] returns the plain LP, which tests and the
//! ablation bench hand to the simplex and generic interior-point oracles.

use crate::{utility, CorgiError, LocationTree, ObfuscationMatrix, Result, Subtree};
use corgi_graph::HexMobilityGraph;
use corgi_hexgrid::CellId;
use corgi_lp::{
    ConstraintSense, InteriorPointOptions, LpProblem, LpSolution, PreparedLp, SolveStatus,
    WarmStart,
};
use std::sync::OnceLock;

/// An instance of the obfuscation-matrix generation problem for one subtree.
#[derive(Debug, Clone)]
pub struct ObfuscationProblem {
    cells: Vec<CellId>,
    distances: Vec<Vec<f64>>,
    prior: Vec<f64>,
    target_indices: Vec<usize>,
    target_probs: Vec<f64>,
    epsilon: f64,
    /// Ordered pairs `(i, j)` for which a Geo-Ind constraint is generated.
    constrained_pairs: Vec<(usize, usize)>,
    /// Whether the graph approximation is in effect (affects reporting only).
    graph_approximation: bool,
    /// [`ObfuscationProblem::cost_matrix`], computed on first use.
    costs: OnceLock<Vec<f64>>,
}

impl ObfuscationProblem {
    /// Build a problem for the leaves of `subtree`.
    ///
    /// * `prior` — prior probabilities of the subtree leaves (same order as
    ///   `subtree.leaves()`), re-normalized internally.
    /// * `targets` — indices (into the subtree leaves) of the places of interest
    ///   `Q`; they are weighted by the prior restricted to the targets, matching
    ///   the paper's use of check-in-derived target distributions.
    /// * `epsilon` — privacy budget in 1/km.
    /// * `use_graph_approximation` — enforce Geo-Ind only on the 12-neighbor
    ///   mobility graph (Section 4.2) instead of all pairs.
    pub fn new(
        tree: &LocationTree,
        subtree: &Subtree,
        prior: &[f64],
        targets: &[usize],
        epsilon: f64,
        use_graph_approximation: bool,
    ) -> Result<Self> {
        Self::from_leaves(
            tree,
            subtree.leaves(),
            prior,
            targets,
            epsilon,
            use_graph_approximation,
        )
    }

    /// Build a problem over an explicit set of leaf cells (not necessarily a full
    /// subtree).  Used by the experiment harness to sweep the number of locations
    /// (the paper's Fig. 12(b) and Fig. 14 use 28–70 locations).
    pub fn from_leaves(
        tree: &LocationTree,
        leaves: &[CellId],
        prior: &[f64],
        targets: &[usize],
        epsilon: f64,
        use_graph_approximation: bool,
    ) -> Result<Self> {
        if epsilon <= 0.0 || !epsilon.is_finite() {
            return Err(CorgiError::InvalidEpsilon(epsilon));
        }
        if leaves.iter().any(|c| !c.is_leaf()) {
            return Err(CorgiError::InvalidMatrix(
                "obfuscation problems are defined over leaf cells".to_string(),
            ));
        }
        let cells = leaves.to_vec();
        let k = cells.len();
        if prior.len() != k {
            return Err(CorgiError::InvalidPrior(format!(
                "prior has {} entries for {k} cells",
                prior.len()
            )));
        }
        if prior.iter().any(|p| !p.is_finite() || *p < 0.0) {
            return Err(CorgiError::InvalidPrior(
                "prior contains negative or non-finite mass".to_string(),
            ));
        }
        let total: f64 = prior.iter().sum();
        if total <= 0.0 {
            return Err(CorgiError::InvalidPrior("prior mass is zero".to_string()));
        }
        let prior: Vec<f64> = prior.iter().map(|p| p / total).collect();
        if targets.is_empty() {
            return Err(CorgiError::InvalidPrior(
                "at least one target location is required".to_string(),
            ));
        }
        if let Some(&bad) = targets.iter().find(|&&t| t >= k) {
            return Err(CorgiError::InvalidPrior(format!(
                "target index {bad} out of range for {k} cells"
            )));
        }
        // Target distribution Pr(Q = q): proportional to the prior of the target
        // cells (uniform fallback if the targets carry no prior mass).
        let raw: Vec<f64> = targets.iter().map(|&t| prior[t]).collect();
        let raw_total: f64 = raw.iter().sum();
        let target_probs: Vec<f64> = if raw_total > 0.0 {
            raw.into_iter().map(|p| p / raw_total).collect()
        } else {
            vec![1.0 / targets.len() as f64; targets.len()]
        };

        let distances = tree.distance_matrix(&cells);
        let constrained_pairs = if use_graph_approximation {
            let graph = HexMobilityGraph::new(tree.grid(), &cells);
            let mut pairs = Vec::new();
            for (i, j) in graph.neighbor_pairs() {
                pairs.push((i, j));
                pairs.push((j, i));
            }
            pairs
        } else {
            (0..k)
                .flat_map(|i| (0..k).filter(move |&j| j != i).map(move |j| (i, j)))
                .collect()
        };

        Ok(Self {
            cells,
            distances,
            prior,
            target_indices: targets.to_vec(),
            target_probs,
            epsilon,
            constrained_pairs,
            graph_approximation: use_graph_approximation,
            costs: OnceLock::new(),
        })
    }

    /// Number of locations `K`.
    pub fn size(&self) -> usize {
        self.cells.len()
    }

    /// The cells in matrix order.
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// The (normalized) prior over the cells.
    pub fn prior(&self) -> &[f64] {
        &self.prior
    }

    /// Indices (into [`ObfuscationProblem::cells`]) of the target locations `Q`
    /// weighted by the quality-loss objective.
    pub fn targets(&self) -> &[usize] {
        &self.target_indices
    }

    /// The pairwise distance matrix (km).
    pub fn distances(&self) -> &[Vec<f64>] {
        &self.distances
    }

    /// The privacy budget ε (1/km).
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Whether the graph approximation is enabled.
    pub fn uses_graph_approximation(&self) -> bool {
        self.graph_approximation
    }

    /// The ordered pairs carrying Geo-Ind constraints.
    pub fn constrained_pairs(&self) -> &[(usize, usize)] {
        &self.constrained_pairs
    }

    /// Number of Geo-Ind inequality constraints in the LP
    /// (`|constrained pairs| · K`); this is the quantity plotted in Fig. 10(b).
    pub fn num_geo_ind_constraints(&self) -> usize {
        self.constrained_pairs.len() * self.size()
    }

    /// The linear cost coefficients `c_{k,l}` of entries `z_{k,l}` (row-major):
    /// `Pr(X = v_k) · Σ_q Pr(Q = v_q) · |d(v_k, v_q) − d(v_l, v_q)|`.
    ///
    /// Computed once per problem, on first use.
    pub fn cost_matrix(&self) -> &[f64] {
        self.costs.get_or_init(|| self.compute_cost_matrix())
    }

    fn compute_cost_matrix(&self) -> Vec<f64> {
        let k = self.size();
        let mut costs = vec![0.0; k * k];
        for real in 0..k {
            for reported in 0..k {
                let mut expected_error = 0.0;
                for (t_pos, &target) in self.target_indices.iter().enumerate() {
                    expected_error += self.target_probs[t_pos]
                        * utility::estimation_error(
                            self.distances[real][target],
                            self.distances[reported][target],
                        );
                }
                costs[real * k + reported] = self.prior[real] * expected_error;
            }
        }
        costs
    }

    /// Quality loss Δ(Z) of a matrix under this problem's priors and targets
    /// (Eq. 7) — identical to the LP objective evaluated at the matrix.
    pub fn quality_loss(&self, matrix: &ObfuscationMatrix) -> f64 {
        let costs = self.cost_matrix();
        let k = self.size();
        let mut total = 0.0;
        for i in 0..k {
            for j in 0..k {
                total += costs[i * k + j] * matrix.get(i, j);
            }
        }
        total
    }

    /// Build the LP of Eq. 8 (non-robust, `rpb = None`) or Eq. 16 (robust, with a
    /// reserved-privacy-budget matrix `rpb[i][j] = ε′_{i,j}`).
    ///
    /// Returns the problem plus the per-column variable blocks used by the
    /// block-angular solver.
    ///
    /// The K row-stochasticity equalities come first, then the Geo-Ind rows
    /// pair-major and column-minor: pair `p`'s row for column `l` is
    /// constraint `K + p·K + l`.  Consecutive columns shift both variables by
    /// one and move to the next column block, so each pair's K rows form one
    /// run that the solver sweeps as contiguous slices (see `corgi-lp`'s
    /// `interior` module); `write_reserved_budget` rewrites them with one call
    /// per pair.  Reordering these rows keeps the LP but loses that layout.
    pub fn build_lp(&self, rpb: Option<&[Vec<f64>]>) -> Result<(LpProblem, Vec<Vec<usize>>)> {
        let k = self.size();
        let var = |real: usize, reported: usize| real * k + reported;
        let mut lp = LpProblem::new(k * k);
        lp.set_objective_vector(self.cost_matrix().to_vec())
            .map_err(CorgiError::from)?;

        // Row-stochasticity (Eq. 5).
        for real in 0..k {
            let coeffs = (0..k).map(|rep| (var(real, rep), 1.0)).collect();
            lp.add_constraint(coeffs, ConstraintSense::Eq, 1.0)
                .map_err(CorgiError::from)?;
        }

        // Geo-Ind constraints (Eq. 4 with the effective budget of Eq. 13/15).
        for &(i, j) in &self.constrained_pairs {
            let bound = self.geo_ind_bound(i, j, rpb.map_or(0.0, |m| m[i][j]));
            for l in 0..k {
                lp.add_constraint(
                    vec![(var(i, l), 1.0), (var(j, l), -bound)],
                    ConstraintSense::Le,
                    0.0,
                )
                .map_err(CorgiError::from)?;
            }
        }

        // One block per reported-location column: {z_{i,l} : i = 0..K} for fixed l.
        let blocks: Vec<Vec<usize>> = (0..k)
            .map(|l| (0..k).map(|i| var(i, l)).collect())
            .collect();
        Ok((lp, blocks))
    }

    /// The Geo-Ind bound `e^{(ε − ε′)·d_{i,j}}` of pair `(i, j)` under the
    /// reserved budget `ε′` (Eq. 4 / 16).
    fn geo_ind_bound(&self, i: usize, j: usize, reserved: f64) -> f64 {
        (effective_epsilon(self.epsilon, reserved) * self.distances[i][j]).exp()
    }

    /// [`ObfuscationProblem::build_lp`], prepared once for the block-angular
    /// solver so a chain of solves can rewrite its bounds in place.
    pub(crate) fn prepare_lp(&self, rpb: Option<&[Vec<f64>]>) -> Result<PreparedLp> {
        let (lp, blocks) = self.build_lp(rpb)?;
        PreparedLp::new(lp, &blocks).map_err(CorgiError::from)
    }

    /// Rewrite the Geo-Ind bounds of an LP from `prepare_lp` for the reserved
    /// budget `rpb`: the result equals `prepare_lp(Some(rpb))` without
    /// rebuilding anything.
    pub(crate) fn write_reserved_budget(
        &self,
        lp: &mut PreparedLp,
        rpb: &[Vec<f64>],
    ) -> Result<()> {
        let k = self.size();
        // The K row-stochasticity equalities come first, then the Geo-Ind
        // rows in `build_lp` order: the K copies of each pair, one write.
        for (p, &(i, j)) in self.constrained_pairs.iter().enumerate() {
            let bound = self.geo_ind_bound(i, j, rpb[i][j]);
            lp.update_shifted_rows(k + p * k, k, &[(i * k, 1.0), (j * k, -bound)])
                .map_err(CorgiError::from)?;
        }
        Ok(())
    }

    /// Solve the LP with the block-angular interior-point method and return
    /// the resulting obfuscation matrix.
    ///
    /// The uniform matrix is strictly feasible for every obfuscation LP (all
    /// Geo-Ind bounds exceed 1), so if the iterative solver stops short of full
    /// feasibility the result is repaired by blending the returned point towards
    /// the uniform matrix just enough to restore feasibility — trading a small,
    /// measured amount of optimality for a guaranteed ε-Geo-Ind matrix.
    pub fn solve(&self, rpb: Option<&[Vec<f64>]>) -> Result<ObfuscationMatrix> {
        let mut lp = self.prepare_lp(rpb)?;
        self.solve_prepared(&mut lp, InteriorPointOptions::default(), None)
            .map(|(matrix, _)| matrix)
    }

    /// Solve an LP from `prepare_lp` with the block-angular interior-point
    /// method, optionally warm-started from a converged iterate of a nearby
    /// solve (a grid-adjacent `(privacy_level, δ)` problem, or the previous
    /// refinement iteration of Algorithm 1).
    ///
    /// Returns the matrix together with this solve's own converged iterate
    /// (`None` when the solve did not reach `Optimal` or the point needed
    /// repair).  An unusable warm start — wrong problem shape, non-finite
    /// entries — silently degrades to a cold solve.
    pub(crate) fn solve_prepared(
        &self,
        lp: &mut PreparedLp,
        options: InteriorPointOptions,
        warm: Option<&WarmStart>,
    ) -> Result<(ObfuscationMatrix, Option<WarmStart>)> {
        let solution = lp
            .solve_with_warm(&options, warm)
            .map_err(CorgiError::from)?;
        self.matrix_from_solution(lp.problem(), solution, options)
    }

    /// Turn a solution of `lp` into the obfuscation matrix, repairing it
    /// towards the uniform matrix when the solver stopped short of
    /// feasibility.  Returns the converged iterate only when no repair was
    /// needed.
    pub(crate) fn matrix_from_solution(
        &self,
        lp: &LpProblem,
        mut solution: LpSolution,
        options: InteriorPointOptions,
    ) -> Result<(ObfuscationMatrix, Option<WarmStart>)> {
        if !solution.is_usable() {
            return Err(CorgiError::Solver(match solution.status {
                SolveStatus::Infeasible => "obfuscation LP is infeasible".to_string(),
                _ => "obfuscation LP is unbounded (malformed costs)".to_string(),
            }));
        }
        let mut warm_out = solution.warm.take();
        let k = self.size();
        let mut x = solution.x;
        if x.len() != k * k || x.iter().any(|v| !v.is_finite()) {
            // Numerical breakdown: start the repair from the uniform matrix.
            x = vec![1.0 / k as f64; k * k];
        }
        // An interior-point solve converged to `options.tolerance` leaves
        // residuals of that order, so the repair gate scales with it (floored
        // at the historical 1e-7 for full-tolerance solves).  Without the
        // scaling, every relaxed-tolerance solve of Algorithm 1's intermediate
        // refinements would be "repaired" — blending the matrix and, worse,
        // discarding the converged iterate that warm-starts the next solve.
        let violation_gate = (10.0 * options.tolerance).max(1e-7);
        if solution.status != SolveStatus::Optimal || lp.max_violation(&x) > violation_gate {
            // A repaired point is no longer the solver's converged iterate;
            // seeding a neighbour from it could poison that solve.
            warm_out = None;
            x = self.repair_towards_uniform(lp, x)?;
        }
        let matrix = ObfuscationMatrix::from_lp_solution(self.cells.clone(), x)?;
        Ok((matrix, warm_out))
    }

    /// Blend a candidate solution towards the (strictly feasible) uniform matrix
    /// until every LP constraint is satisfied.
    fn repair_towards_uniform(&self, lp: &LpProblem, x: Vec<f64>) -> Result<Vec<f64>> {
        let k = self.size();
        let uniform = 1.0 / k as f64;
        for &theta in &[0.0, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25, 0.5, 1.0] {
            let blended: Vec<f64> = x
                .iter()
                .map(|&v| (1.0 - theta) * v.max(0.0) + theta * uniform)
                .collect();
            if lp.max_violation(&blended) <= 1e-7 {
                return Ok(blended);
            }
        }
        Err(CorgiError::Solver(
            "could not repair the LP solution into a feasible matrix".to_string(),
        ))
    }
}

/// The effective privacy budget `ε − ε′` used in the robust constraints,
/// clamped to stay strictly positive (the paper does not discuss the corner case
/// where the reserved budget exceeds ε; clamping keeps the LP feasible and errs
/// on the side of a *stricter* constraint never being relaxed).
pub fn effective_epsilon(epsilon: f64, reserved: f64) -> f64 {
    const MIN_FRACTION: f64 = 0.05;
    (epsilon - reserved).max(epsilon * MIN_FRACTION)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geoind;
    use corgi_hexgrid::{HexGrid, HexGridConfig};
    use corgi_lp::{InteriorPointSolver, LpSolver, SimplexSolver};

    fn tree() -> LocationTree {
        LocationTree::new(HexGrid::new(HexGridConfig::san_francisco()).unwrap())
    }

    /// The plain LP of `p` (Eq. 8) solved by an oracle solver, post-processed
    /// like a served solve.
    fn oracle_solve(p: &ObfuscationProblem, solver: &dyn LpSolver) -> ObfuscationMatrix {
        let (lp, _) = p.build_lp(None).unwrap();
        let solution = solver.solve(&lp).unwrap();
        p.matrix_from_solution(&lp, solution, InteriorPointOptions::default())
            .unwrap()
            .0
    }

    fn problem(k_level: u8, graph_approx: bool) -> (LocationTree, ObfuscationProblem) {
        let t = tree();
        let subtree = t.privacy_forest(k_level).unwrap()[0].clone();
        let k = subtree.leaf_count();
        let prior: Vec<f64> = (0..k).map(|i| 1.0 + (i % 5) as f64).collect();
        let targets: Vec<usize> = (0..k).step_by(3).collect();
        let p =
            ObfuscationProblem::new(&t, &subtree, &prior, &targets, 15.0, graph_approx).unwrap();
        (t, p)
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        let t = tree();
        let subtree = t.privacy_forest(1).unwrap()[0].clone();
        let prior = vec![1.0; 7];
        assert!(matches!(
            ObfuscationProblem::new(&t, &subtree, &prior, &[0], 0.0, true),
            Err(CorgiError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            ObfuscationProblem::new(&t, &subtree, &[1.0; 6], &[0], 15.0, true),
            Err(CorgiError::InvalidPrior(_))
        ));
        assert!(matches!(
            ObfuscationProblem::new(&t, &subtree, &prior, &[], 15.0, true),
            Err(CorgiError::InvalidPrior(_))
        ));
        assert!(matches!(
            ObfuscationProblem::new(&t, &subtree, &prior, &[9], 15.0, true),
            Err(CorgiError::InvalidPrior(_))
        ));
        assert!(matches!(
            ObfuscationProblem::new(&t, &subtree, &[0.0; 7], &[0], 15.0, true),
            Err(CorgiError::InvalidPrior(_))
        ));
    }

    #[test]
    fn graph_approximation_reduces_constraints() {
        let (_t, with) = problem(2, true);
        let (_t, without) = problem(2, false);
        assert!(with.uses_graph_approximation());
        assert!(!without.uses_graph_approximation());
        assert_eq!(
            without.num_geo_ind_constraints(),
            geoind::full_constraint_count(49)
        );
        assert!(with.num_geo_ind_constraints() < without.num_geo_ind_constraints() / 3);
    }

    #[test]
    fn cost_matrix_has_zero_diagonal_contribution() {
        // Reporting the true location has zero estimation error, so c_{k,k} = 0.
        let (_t, p) = problem(1, true);
        let costs = p.cost_matrix();
        let k = p.size();
        for i in 0..k {
            assert!(costs[i * k + i].abs() < 1e-12);
        }
        // And some off-diagonal cost is strictly positive.
        assert!(costs.iter().any(|&c| c > 1e-9));
    }

    #[test]
    fn solved_matrix_is_stochastic_and_geo_ind() {
        let (_t, p) = problem(1, true);
        let matrix = p.solve(None).unwrap();
        matrix.check_stochastic(1e-6).unwrap();
        // The graph approximation is sufficient for all-pairs Geo-Ind (Theorem 4.1).
        let report = geoind::check_all_pairs(&matrix, p.distances(), p.epsilon(), 1e-6);
        assert!(
            report.is_satisfied(),
            "violations: {} / {} (worst {})",
            report.violated,
            report.total_constraints,
            report.worst_margin
        );
    }

    #[test]
    fn solvers_agree_on_small_instance() {
        // Use a moderate ε so the e^{ε·d} coefficients stay in a range where the
        // dense tableau simplex is numerically exact; it then serves as the
        // reference for both interior-point paths.  (At the paper's ε = 15/km the
        // coefficients reach ~10³–10⁶ and the production path is the IPM; the
        // simplex honestly reports the loss of optimality instead of returning an
        // infeasible point, see `SimplexSolver` docs.)
        let t = tree();
        let subtree = t.privacy_forest(1).unwrap()[0].clone();
        let prior: Vec<f64> = (0..7).map(|i| 1.0 + (i % 5) as f64).collect();
        let targets: Vec<usize> = (0..7).step_by(3).collect();
        let p = ObfuscationProblem::new(&t, &subtree, &prior, &targets, 3.0, true).unwrap();
        let simplex = oracle_solve(&p, &SimplexSolver::new());
        let block = p.solve(None).unwrap();
        let general = oracle_solve(&p, &InteriorPointSolver::default());
        let q_s = p.quality_loss(&simplex);
        let q_b = p.quality_loss(&block);
        let q_g = p.quality_loss(&general);
        assert!((q_s - q_b).abs() < 1e-3 * (1.0 + q_s), "{q_s} vs {q_b}");
        assert!((q_s - q_g).abs() < 1e-3 * (1.0 + q_s), "{q_s} vs {q_g}");
    }

    #[test]
    fn interior_point_paths_agree_at_paper_epsilon() {
        let (_t, p) = problem(1, true);
        let block = p.solve(None).unwrap();
        let general = oracle_solve(&p, &InteriorPointSolver::default());
        let q_b = p.quality_loss(&block);
        let q_g = p.quality_loss(&general);
        assert!((q_b - q_g).abs() < 1e-3 * (1.0 + q_b), "{q_b} vs {q_g}");
    }

    #[test]
    fn quality_loss_matches_lp_objective() {
        let (_t, p) = problem(1, true);
        let (lp, _) = p.build_lp(None).unwrap();
        let matrix = p.solve(None).unwrap();
        let from_lp = lp.objective_value(matrix.data());
        let from_quality = p.quality_loss(&matrix);
        assert!((from_lp - from_quality).abs() < 1e-9);
    }

    #[test]
    fn larger_epsilon_means_lower_quality_loss() {
        // Weaker privacy (larger ε) gives the LP more freedom, so the optimal
        // quality loss cannot increase (paper Fig. 11).
        let t = tree();
        let subtree = t.privacy_forest(1).unwrap()[0].clone();
        let prior = vec![1.0; 7];
        let targets = [0usize, 3];
        let losses: Vec<f64> = [5.0, 10.0, 20.0]
            .iter()
            .map(|&eps| {
                let p = ObfuscationProblem::new(&t, &subtree, &prior, &targets, eps, true).unwrap();
                let m = p.solve(None).unwrap();
                p.quality_loss(&m)
            })
            .collect();
        assert!(losses[0] >= losses[1] - 1e-6);
        assert!(losses[1] >= losses[2] - 1e-6);
    }

    /// The Geo-Ind rows of the K = 7 and K = 49 obfuscation LPs prepare into
    /// exactly one run of K rows per constrained pair, in pair order, so the
    /// solver sweeps each pair's K columns as contiguous slices.
    #[test]
    fn sweep_obfuscation_lp_prepares_one_run_per_pair() {
        for (level, k) in [(1u8, 7usize), (2, 49)] {
            let (_t, p) = problem(level, true);
            assert_eq!(p.size(), k);
            let lp = p.prepare_lp(None).unwrap();
            let runs: Vec<_> = lp.inequality_runs().collect();
            let expected: Vec<_> = (0..p.constrained_pairs().len())
                .map(|pair| pair * k..(pair + 1) * k)
                .collect();
            assert_eq!(runs, expected, "level {level}");
        }
    }

    #[test]
    fn effective_epsilon_is_clamped() {
        assert_eq!(effective_epsilon(10.0, 2.0), 8.0);
        assert!((effective_epsilon(10.0, 20.0) - 0.5).abs() < 1e-12);
        assert!(effective_epsilon(10.0, 9.99) > 0.0);
    }
}
