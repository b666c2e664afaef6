//! Figure 14: running time of matrix precision reduction vs recalculating the
//! matrix at the coarser level, as a function of the number of locations (a)
//! and of δ (b).

use corgi_bench::{print_table, write_json, ExperimentContext, DEFAULT_EPSILON};
use corgi_core::{generate_robust_matrix, precision_reduction, RobustConfig};
use std::time::Instant;

fn main() {
    let ctx = ExperimentContext::standard();
    let full = corgi_bench::full_scale_requested();
    let iterations = if full { 10 } else { 3 };

    // ---- (a) vs number of locations (delta = 1) ----
    let sizes: Vec<usize> = if full {
        vec![28, 35, 42, 49, 56, 63, 70]
    } else {
        vec![28, 42, 49, 70]
    };
    let mut rows_a = Vec::new();
    let mut json_a = Vec::new();
    for &n in &sizes {
        let (recalc, reduce) = measure(&ctx, n, 1, iterations);
        json_a.push(
            serde_json::json!({ "locations": n, "recalculation_s": recalc, "reduction_s": reduce }),
        );
        rows_a.push(vec![
            format!("{n}"),
            format!("{recalc:.3}"),
            format!("{:.6}", reduce),
            format!("{:.0}x", recalc / reduce.max(1e-9)),
        ]);
    }
    print_table(
        "Fig. 14(a) — matrix recalculation vs precision reduction (s), by locations",
        &[
            "locations",
            "recalculation",
            "precision reduction",
            "speed-up",
        ],
        &rows_a,
    );

    // ---- (b) vs delta (49 locations) ----
    let deltas: Vec<usize> = if full {
        (1..=7).collect()
    } else {
        vec![1, 3, 5, 7]
    };
    let mut rows_b = Vec::new();
    let mut json_b = Vec::new();
    for &delta in &deltas {
        let (recalc, reduce) = measure(&ctx, 49, delta, iterations);
        json_b.push(
            serde_json::json!({ "delta": delta, "recalculation_s": recalc, "reduction_s": reduce }),
        );
        rows_b.push(vec![
            format!("{delta}"),
            format!("{recalc:.3}"),
            format!("{:.6}", reduce),
            format!("{:.0}x", recalc / reduce.max(1e-9)),
        ]);
    }
    print_table(
        "Fig. 14(b) — matrix recalculation vs precision reduction (s), by delta",
        &["delta", "recalculation", "precision reduction", "speed-up"],
        &rows_b,
    );

    write_json(
        "fig14_precision_reduction",
        &serde_json::json!({ "by_locations": json_a, "by_delta": json_b }),
    );
    println!("\nExpected shape (paper Fig. 14): precision reduction is orders of magnitude faster than recalculating the matrix, at every size and every delta.");
}

/// Returns (recalculation seconds, precision-reduction seconds) for a robust
/// matrix over the `n` closest leaves with the given δ.
fn measure(ctx: &ExperimentContext, n: usize, delta: usize, iterations: usize) -> (f64, f64) {
    // The leaf-level matrix the user received.
    let problem = ctx.problem_for_n_locations(n, DEFAULT_EPSILON, true);
    let leaf_matrix = generate_robust_matrix(&problem, &RobustConfig { delta, iterations })
        .expect("robust generation")
        .matrix;

    // Recalculation: generate a fresh robust matrix (what the server would have
    // to do if the user changed the precision level and no reduction existed).
    let start = Instant::now();
    let _ = generate_robust_matrix(&problem, &RobustConfig { delta, iterations })
        .expect("recalculation");
    let recalc = start.elapsed().as_secs_f64();

    // Precision reduction of the already-delivered leaf matrix to level 1.
    let priors: Vec<f64> = leaf_matrix
        .cells()
        .iter()
        .map(|c| ctx.prior.prob_of_cell(ctx.grid(), c).max(1e-12))
        .collect();
    let start = Instant::now();
    let reduced =
        precision_reduction(&leaf_matrix, &ctx.tree, 1, &priors).expect("precision reduction");
    let reduce = start.elapsed().as_secs_f64();
    assert!(reduced.size() <= leaf_matrix.size());
    (recalc, reduce)
}
