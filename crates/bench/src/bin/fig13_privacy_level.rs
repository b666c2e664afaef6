//! Figure 13: impact of the obfuscation range (privacy level) on quality loss,
//! as a function of ε (panel a) and of δ (panel b).
//!
//! The paper compares privacy level 2 (49 leaves) with privacy level 3
//! (343 leaves).  The default run compares levels 1 (7 leaves) and 2 (49
//! leaves), which exhibits the same monotone relationship at a fraction of the
//! cost; `--full` runs the paper-scale 2-vs-3 comparison.

use corgi_bench::{print_table, write_json, ExperimentContext, PAPER_EPSILONS};
use corgi_core::{generate_robust_matrix, RobustConfig};

fn main() {
    let ctx = ExperimentContext::standard();
    let full = corgi_bench::full_scale_requested();
    let levels: [u8; 2] = if full { [2, 3] } else { [1, 2] };
    let iterations = if full { 10 } else { 4 };

    let subtree_for = |level: u8| {
        ctx.tree
            .privacy_forest(level)
            .expect("level exists")
            .into_iter()
            .next()
            .expect("forest non-empty")
    };

    // ---- (a) quality loss vs epsilon (delta = 1) ----
    let mut rows_a = Vec::new();
    let mut json_a = Vec::new();
    for &eps in &PAPER_EPSILONS {
        let mut row = vec![format!("{eps}")];
        let mut entry = serde_json::json!({ "epsilon": eps });
        for &level in &levels {
            let problem = ctx.problem_for_subtree(&subtree_for(level), eps, true);
            let run = generate_robust_matrix(
                &problem,
                &RobustConfig {
                    delta: 1,
                    iterations,
                },
            )
            .expect("robust generation");
            let q = problem.quality_loss(&run.matrix);
            row.push(format!("{q:.4}"));
            entry[format!("privacy_level_{level}")] = serde_json::json!(q);
        }
        rows_a.push(row);
        json_a.push(entry);
    }
    print_table(
        &format!(
            "Fig. 13(a) — quality loss (km) vs epsilon, privacy levels {} and {}",
            levels[0], levels[1]
        ),
        &["epsilon", "lower level", "higher level"],
        &rows_a,
    );

    // ---- (b) quality loss vs delta (epsilon = 15) ----
    let deltas: Vec<usize> = if full {
        (1..=5).collect()
    } else {
        vec![1, 2, 3]
    };
    let mut rows_b = Vec::new();
    let mut json_b = Vec::new();
    for &delta in &deltas {
        let mut row = vec![format!("{delta}")];
        let mut entry = serde_json::json!({ "delta": delta });
        for &level in &levels {
            let problem =
                ctx.problem_for_subtree(&subtree_for(level), corgi_bench::DEFAULT_EPSILON, true);
            let run = generate_robust_matrix(&problem, &RobustConfig { delta, iterations })
                .expect("robust generation");
            let q = problem.quality_loss(&run.matrix);
            row.push(format!("{q:.4}"));
            entry[format!("privacy_level_{level}")] = serde_json::json!(q);
        }
        rows_b.push(row);
        json_b.push(entry);
    }
    print_table(
        &format!(
            "Fig. 13(b) — quality loss (km) vs delta, privacy levels {} and {}",
            levels[0], levels[1]
        ),
        &["delta", "lower level", "higher level"],
        &rows_b,
    );

    write_json(
        "fig13_privacy_level",
        &serde_json::json!({ "vs_epsilon": json_a, "vs_delta": json_b }),
    );
    println!("\nExpected shape (paper Fig. 13): the higher privacy level (wider obfuscation range) always has the larger quality loss; loss decreases with epsilon and increases with delta.");
}
