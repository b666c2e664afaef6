//! Figure 9: convergence of the quality loss (estimation error of travelling
//! cost) over the iterations of Algorithm 1, for δ = 2 and δ = 4.
//!
//! Prints, per δ, the objective value after every iteration and the difference
//! between consecutive iterations, averaged over several repetitions with
//! different target draws (the paper runs 10 repetitions; the default here is 3,
//! `--full` uses 10).

use corgi_bench::{print_table, spread_targets, write_json, ExperimentContext, DEFAULT_EPSILON};
use corgi_core::{generate_robust_matrix, ObfuscationProblem, RobustConfig};

fn main() {
    let ctx = ExperimentContext::standard();
    let repetitions = if corgi_bench::full_scale_requested() {
        10
    } else {
        3
    };
    let iterations = 10usize;
    let subtree = ctx.level2_subtree();
    let mut json = serde_json::Map::new();

    for &delta in &[2usize, 4] {
        let mut sums = vec![0.0f64; iterations + 1];
        for rep in 0..repetitions {
            // Vary the target set across repetitions (the paper randomly samples
            // NR_TARGET leaf nodes per run).
            let prior = ctx
                .prior
                .restricted_to(ctx.grid(), subtree.leaves())
                .expect("subtree prior");
            let mut targets = spread_targets(subtree.leaf_count(), corgi_bench::NR_TARGET);
            let shift = rep % targets.len().max(1);
            targets.rotate_left(shift);
            let problem = ObfuscationProblem::new(
                &ctx.tree,
                &subtree,
                &prior,
                &targets,
                DEFAULT_EPSILON,
                true,
            )
            .expect("problem");
            let run = generate_robust_matrix(&problem, &RobustConfig { delta, iterations })
                .expect("robust generation");
            for (i, v) in run.objective_per_iteration.iter().enumerate() {
                sums[i] += v;
            }
        }
        let means: Vec<f64> = sums.iter().map(|s| s / repetitions as f64).collect();
        let rows: Vec<Vec<String>> = means
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let diff = if i == 0 { 0.0 } else { v - means[i - 1] };
                vec![format!("{i}"), format!("{v:.4}"), format!("{diff:+.4}")]
            })
            .collect();
        print_table(
            &format!("Fig. 9 — convergence of quality loss (delta = {delta}, eps = {DEFAULT_EPSILON}/km, {repetitions} repetitions)"),
            &["iteration", "est. error (km)", "difference (km)"],
            &rows,
        );
        json.insert(
            format!("delta_{delta}"),
            serde_json::json!({ "objective_per_iteration": means }),
        );
    }
    write_json("fig09_convergence", &serde_json::Value::Object(json));
    println!("\nExpected shape (paper Fig. 9): the difference between consecutive iterations shrinks sharply after ~4 iterations for both delta values.");
}
