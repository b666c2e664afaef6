//! Figure 12 + the paper's headline numbers: percentage of violated Geo-Ind
//! constraints after pruning 1..10 random locations, for CORGI (δ-prunable) and
//! the non-robust baseline.
//!
//! * (a) δ = 3 over 49 locations;
//! * (b) δ = 5 over 70 locations (run with `--full`; the default uses 49
//!   locations for (b) as well to keep the quick run short).
//!
//! Headline (abstract): pruning 7 of 49 locations (14.28 %) causes ~3 % Geo-Ind
//! violations for CORGI vs ~18 % for the non-robust matrix.

use corgi_bench::{print_table, write_json, ExperimentContext, DEFAULT_EPSILON};
use corgi_core::{
    generate_nonrobust_matrix, generate_robust_matrix, geoind, prune_matrix, ObfuscationMatrix,
    ObfuscationProblem, RobustConfig,
};
use rand::prelude::*;

fn violation_percentage(
    problem: &ObfuscationProblem,
    matrix: &ObfuscationMatrix,
    prune_count: usize,
    trials: usize,
    rng: &mut StdRng,
) -> f64 {
    let mut total_pct = 0.0;
    let mut counted = 0usize;
    for _ in 0..trials {
        let mut cells = problem.cells().to_vec();
        cells.shuffle(rng);
        let prune: Vec<_> = cells[..prune_count].to_vec();
        let Ok(pruned) = prune_matrix(matrix, &prune) else {
            continue; // over-pruned a row; skip this draw as the paper's users would
        };
        let survivors: Vec<usize> = problem
            .cells()
            .iter()
            .enumerate()
            .filter(|(_, c)| !prune.contains(c))
            .map(|(i, _)| i)
            .collect();
        let distances: Vec<Vec<f64>> = survivors
            .iter()
            .map(|&i| {
                survivors
                    .iter()
                    .map(|&j| problem.distances()[i][j])
                    .collect()
            })
            .collect();
        let report = geoind::check_all_pairs(&pruned, &distances, problem.epsilon(), 1e-7);
        total_pct += report.violation_percentage();
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total_pct / counted as f64
    }
}

fn run_panel(
    ctx: &ExperimentContext,
    name: &str,
    locations: usize,
    delta: usize,
    iterations: usize,
    trials: usize,
    json: &mut Vec<serde_json::Value>,
) {
    let problem = ctx.problem_for_n_locations(locations, DEFAULT_EPSILON, true);
    let nonrobust = generate_nonrobust_matrix(&problem).expect("baseline");
    let robust = generate_robust_matrix(&problem, &RobustConfig { delta, iterations })
        .expect("robust generation")
        .matrix;

    let mut rng = StdRng::seed_from_u64(42);
    let mut rows = Vec::new();
    for pruned in 1..=10usize {
        let pct_nonrobust = violation_percentage(&problem, &nonrobust, pruned, trials, &mut rng);
        let pct_robust = violation_percentage(&problem, &robust, pruned, trials, &mut rng);
        json.push(serde_json::json!({
            "panel": name, "locations": locations, "delta": delta, "pruned": pruned,
            "non_robust_pct": pct_nonrobust, "corgi_pct": pct_robust,
        }));
        rows.push(vec![
            format!("{pruned}"),
            format!("{pct_nonrobust:.2}"),
            format!("{pct_robust:.2}"),
        ]);
    }
    print_table(
        &format!("Fig. 12{name} — % violated Geo-Ind constraints ({locations} locations, delta = {delta}, {trials} trials/point)"),
        &["pruned", "non-robust (%)", "CORGI (%)"],
        &rows,
    );

    // Headline: prune 14.28% of the locations (7 of 49).
    if locations == 49 {
        let headline_prune = 7;
        let pct_nonrobust =
            violation_percentage(&problem, &nonrobust, headline_prune, trials, &mut rng);
        let pct_robust = violation_percentage(&problem, &robust, headline_prune, trials, &mut rng);
        println!(
            "\nHeadline: pruning {headline_prune}/49 locations (14.28%) -> CORGI {pct_robust:.2}% vs non-robust {pct_nonrobust:.2}% violated Geo-Ind constraints (paper: 3.07% vs 18.58%)."
        );
        json.push(serde_json::json!({
            "panel": "headline", "pruned": headline_prune,
            "non_robust_pct": pct_nonrobust, "corgi_pct": pct_robust,
        }));
    }
}

fn main() {
    let ctx = ExperimentContext::standard();
    let full = corgi_bench::full_scale_requested();
    let trials = if full { 500 } else { 60 };
    let iterations = if full { 10 } else { 4 };
    let mut json = Vec::new();

    run_panel(&ctx, "(a)", 49, 3, iterations, trials, &mut json);
    let panel_b_locations = if full { 70 } else { 49 };
    run_panel(
        &ctx,
        "(b)",
        panel_b_locations,
        5,
        iterations,
        trials,
        &mut json,
    );

    write_json("fig12_pruning_violations", &serde_json::json!(json));
    println!("\nExpected shape (paper Fig. 12): CORGI's violation percentage stays near zero up to delta pruned locations and far below the non-robust baseline throughout; a larger delta gives more robustness.");
}
