//! Figure 10: efficacy of the graph approximation (Section 4.2).
//!
//! * (a) running time of robust matrix generation with and without the graph
//!   approximation, for δ = 1..7;
//! * (b) number of Geo-Ind constraints with and without the graph approximation,
//!   for 7..49 locations.

use corgi_bench::{print_table, write_json, ExperimentContext, DEFAULT_EPSILON};
use corgi_core::{generate_robust_matrix, RobustConfig};
use std::time::Instant;

fn main() {
    let ctx = ExperimentContext::standard();
    let full = corgi_bench::full_scale_requested();
    let subtree = ctx.level2_subtree();
    let iterations = if full { 10 } else { 3 };
    let deltas: Vec<usize> = if full {
        (1..=7).collect()
    } else {
        vec![1, 3, 5, 7]
    };

    // ---- (a) running time with vs without graph approximation ----
    let mut rows_a = Vec::new();
    let mut json_a = Vec::new();
    for &delta in &deltas {
        let mut times = Vec::new();
        for &graph_approx in &[false, true] {
            let problem = ctx.problem_for_subtree(&subtree, DEFAULT_EPSILON, graph_approx);
            let start = Instant::now();
            let _ = generate_robust_matrix(&problem, &RobustConfig { delta, iterations })
                .expect("robust generation");
            times.push(start.elapsed().as_secs_f64());
        }
        json_a.push(serde_json::json!({
            "delta": delta, "without_s": times[0], "with_s": times[1]
        }));
        rows_a.push(vec![
            format!("{delta}"),
            format!("{:.2}", times[0]),
            format!("{:.2}", times[1]),
            format!("{:.1}%", 100.0 * (1.0 - times[1] / times[0])),
        ]);
    }
    print_table(
        "Fig. 10(a) — robust generation time (s), 49 locations",
        &["delta", "without approx", "with approx", "reduction"],
        &rows_a,
    );

    // ---- (b) number of Geo-Ind constraints ----
    let mut rows_b = Vec::new();
    let mut json_b = Vec::new();
    for &n in &[7usize, 14, 21, 28, 35, 42, 49] {
        let without = ctx.problem_for_n_locations(n, DEFAULT_EPSILON, false);
        let with = ctx.problem_for_n_locations(n, DEFAULT_EPSILON, true);
        json_b.push(serde_json::json!({
            "locations": n,
            "without": without.num_geo_ind_constraints(),
            "with": with.num_geo_ind_constraints(),
        }));
        rows_b.push(vec![
            format!("{n}"),
            format!("{}", without.num_geo_ind_constraints()),
            format!("{}", with.num_geo_ind_constraints()),
            format!(
                "{:.1}%",
                100.0
                    * (1.0
                        - with.num_geo_ind_constraints() as f64
                            / without.num_geo_ind_constraints() as f64)
            ),
        ]);
    }
    print_table(
        "Fig. 10(b) — number of Geo-Ind constraints",
        &["locations", "without approx", "with approx", "reduction"],
        &rows_b,
    );
    write_json(
        "fig10_graph_approx",
        &serde_json::json!({ "running_time": json_a, "constraints": json_b }),
    );
    println!("\nExpected shape (paper Fig. 10): the graph approximation cuts the constraint count by >50% on average and reduces generation time at every delta.");
}
