//! Figure 11: impact of the privacy parameter ε and the customization parameter
//! δ on quality loss, CORGI vs the non-robust baseline.

use corgi_bench::{print_table, write_json, ExperimentContext, PAPER_EPSILONS};
use corgi_core::{generate_nonrobust_matrix, generate_robust_matrix, RobustConfig};

fn main() {
    let ctx = ExperimentContext::standard();
    let full = corgi_bench::full_scale_requested();
    let iterations = if full { 10 } else { 4 };
    let deltas = [1usize, 2, 3];
    let subtree = ctx.level2_subtree();

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for &eps in &PAPER_EPSILONS {
        let problem = ctx.problem_for_subtree(&subtree, eps, true);
        let nonrobust = generate_nonrobust_matrix(&problem).expect("baseline");
        let q_nonrobust = problem.quality_loss(&nonrobust);
        let mut row = vec![format!("{eps}"), format!("{q_nonrobust:.4}")];
        let mut entry = serde_json::json!({ "epsilon": eps, "non_robust": q_nonrobust });
        for &delta in &deltas {
            let run = generate_robust_matrix(&problem, &RobustConfig { delta, iterations })
                .expect("robust generation");
            let q = problem.quality_loss(&run.matrix);
            row.push(format!("{q:.4}"));
            entry[format!("corgi_delta_{delta}")] = serde_json::json!(q);
        }
        rows.push(row);
        json.push(entry);
    }
    print_table(
        "Fig. 11 — quality loss (km) vs epsilon (1/km), 49 locations",
        &[
            "epsilon",
            "non-robust",
            "CORGI d=1",
            "CORGI d=2",
            "CORGI d=3",
        ],
        &rows,
    );
    write_json("fig11_privacy_params", &serde_json::json!(json));
    println!("\nExpected shape (paper Fig. 11): quality loss decreases as epsilon grows, increases with delta, and the non-robust baseline always has the lowest loss (it reserves no budget).");
}
