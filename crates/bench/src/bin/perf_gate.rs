//! CI perf gate: compare `BENCH_results.json` (JSON-lines emitted by the
//! criterion shim when `CORGI_BENCH_JSON` is set) against the checked-in
//! `BENCH_baseline.json` and fail when a named bench regresses.
//!
//! ```text
//! perf_gate [--results PATH] [--baseline PATH] [--absolute]
//! ```
//!
//! # Ratio gating (default)
//!
//! Absolute medians are machine-specific: a runner-generation change moves
//! every number at once and either trips the gate spuriously or forces a
//! tolerance so wide it misses real regressions.  The default mode therefore
//! gates on **within-run ratios**: each optimized bench is paired with the
//! reference implementation measured in the *same* run (`…/blocked/…` vs
//! `…/reference/…`, `fused_in_place` vs `per_column`), and the gate fails when
//! `optimized/reference` grows by more than the tolerance relative to the
//! baseline's ratio.  Losing an optimized kernel path is a 2–7× ratio jump
//! and is caught on any hardware; uniform machine slowdowns cancel out.
//!
//! Pairs whose two sides do *different kinds* of work (the binary wire codec
//! is memcpy-bound, its JSON reference is formatting-bound) carry a widened
//! per-pair tolerance multiplier in the pair table, since such ratios shift
//! more across CPU generations; the regressions those pairs exist to catch
//! are 50–100× ratio jumps, far beyond any multiplier.
//!
//! A few pairs additionally carry a **hard cap on the current-run ratio**
//! (see `RATIO_CAPS`): the warm-chained refinement engine must stay ≤ 0.75×
//! its cold sibling on any machine, the parallel block factorization must
//! stay ≤ 0.85× its serial sibling wherever a second core exists, and the
//! hardware SHA-256 kernel must seal a frame in ≤ 0.4× the scalar kernel's
//! time wherever the CPU has the SHA extensions.  On a host that lacks what
//! a cap needs, both sides execute the identical fallback path: the cap
//! relaxes to parity plus the tolerance and is the pair's only gate, since
//! drift against a baseline from a capable host would measure the host, not
//! the code.  Drift gating alone would let a baseline refreshed on a machine
//! where the optimization is inert launder the loss; the caps assert the
//! optimization itself, not just its history.
//!
//! In ratio mode, reference-side benches (the slow comparison points named as
//! some optimized bench's sibling) are presence-checked only — their siblings
//! already gate the run, and a deliberately slow reference has no optimized
//! path to lose.  Optimized benches without a reference sibling (e.g. the
//! K = 343 blocked bench, whose reference run is too slow to time every push)
//! still gate on their absolute median at 3× the tolerance — wide enough to
//! survive runner-generation drift, tight enough to catch a lost kernel path.
//! `--absolute` (or `CORGI_PERF_GATE_ABSOLUTE=1`) gates every bench on
//! absolute medians at the plain tolerance instead.
//!
//! Every bench named in the baseline must be present in the results in both
//! modes (a renamed or deleted bench would otherwise silently leave the gate
//! open).  The tolerance is a fraction, default 20%, overridable with
//! `CORGI_PERF_GATE_TOLERANCE`.
//!
//! # Gate fields
//!
//! A baseline record gates on `median_ns` unless it names another numeric
//! field in `"gate_field"` — histogram records emitted by
//! `criterion::report_histogram` set `"gate_field":"p99_ns"`, so the loadgen
//! entry gates CI on tail latency under load rather than a median.  The same
//! field is read from both baseline and results; a results record missing
//! the gated field fails the gate.
//!
//! To refresh the baseline after an intentional perf change:
//!
//! ```text
//! rm -f BENCH_results.json
//! CORGI_BENCH_JSON=$PWD/BENCH_results.json cargo bench --bench lp_benches
//! cp BENCH_results.json BENCH_baseline.json
//! ```

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Substring rewrites that turn an optimized bench name into its same-run
/// reference sibling, with a per-pair tolerance multiplier.  A baseline name
/// pairs on the first rule that matches and whose rewritten name also exists
/// in the baseline.
///
/// The kernel pairs compare same-character workloads (both floating-point
/// compute), so their ratio is machine-stable and gates at 1× the tolerance.
/// The codec pairs compare a memcpy-bound path against a formatting-bound
/// one — those scale differently across CPU generations — so they gate at 3×
/// the tolerance, which still catches the failure mode they exist for
/// (losing the raw-f64-run encoding is a ~50-100× ratio jump).
const RATIO_PAIRS: &[(&str, &str, f64)] = &[
    ("/blocked", "/reference", 1.0),
    ("fused_in_place", "per_column", 1.0),
    ("pooled", "serial", 1.0),
    ("/binary", "/json", 3.0),
    ("warm_hit_roundtrip", "warm_hit_roundtrip_json", 3.0),
    // The readiness backend vs the 500 µs poll tick it replaced, measured on
    // the same warm-hit round trip in the same run.  Losing the epoll path
    // (a silently broken registration degrading to timers) collapses this
    // ratio toward 1.0 — a ~10× jump, caught at any tolerance.  One side
    // blocks in epoll_pwait and the other in a timed condvar wait, so the
    // ratio shifts more across schedulers than the kernel pairs: 3× tolerance.
    ("/epoll", "/tick", 3.0),
    // The incremental refinement engine (warm-chained, tolerance ladder) vs
    // eleven independent full-tolerance cold solves of the same chain, same
    // run, same thread count: losing warm capture or application collapses
    // the ratio toward 1.0.
    ("k49/warm", "k49/cold", 1.0),
    // Parallel block factorization vs the serial path in the same run.  The
    // multicore cap below is what catches a lost parallel path; on a
    // single-core runner both sides execute the identical serial code and
    // only that cap's parity fallback gates the pair.
    ("/n_threads", "/1_thread", 1.0),
    // The SHA-extensions kernel vs the scalar one sealing the same frame in
    // the same run.  The two sides run on different execution units whose
    // relative speed varies across CPU generations: 3× tolerance.
    ("/sha_ni", "/portable", 3.0),
];

/// Hard caps on the *current-run* ratio of a gated pair, independent of the
/// baseline.  Drift gating catches regressions relative to history; these
/// caps encode the stronger invariant that the optimized side must actually
/// beat its reference — a baseline accidentally refreshed on a machine where
/// the optimization is inert would otherwise launder the loss.
struct RatioCap {
    /// Substring naming the optimized side (same matching as [`RATIO_PAIRS`]).
    optimized: &'static str,
    /// Maximum allowed `optimized/reference` ratio in the current run.
    max_ratio: f64,
    /// What the host must offer for the optimized side to run its own path.
    needs: HostNeed,
}

/// What a ratio cap needs from the host before it binds.  Without it both
/// sides of the pair run the same fallback path, so the cap relaxes to
/// parity plus the tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HostNeed {
    /// Binds on any machine.
    Nothing,
    /// A second core for the parallel kernels.
    Multicore,
    /// The x86-64 SHA extensions for the hardware SHA-256 kernel.
    ShaExtensions,
}

impl HostNeed {
    fn met(self) -> bool {
        match self {
            HostNeed::Nothing => true,
            HostNeed::Multicore => std::thread::available_parallelism()
                .map(|n| n.get() >= 2)
                .unwrap_or(false),
            HostNeed::ShaExtensions => corgi_framework::auth::has_sha_extensions(),
        }
    }
}

const RATIO_CAPS: &[RatioCap] = &[
    // Grid warming must be decisively cheaper than cold re-solves on any
    // machine: warm restarts converge in a fraction of the cold iteration
    // count, independent of core count.
    RatioCap {
        optimized: "k49/warm",
        max_ratio: 0.75,
        needs: HostNeed::Nothing,
    },
    // Parallel factorization must beat serial wherever a second core exists.
    RatioCap {
        optimized: "/n_threads",
        max_ratio: 0.85,
        needs: HostNeed::Multicore,
    },
    // Hashing on the SHA extensions must beat the scalar rounds outright
    // (about 0.12× where measured) wherever the CPU has them.
    RatioCap {
        optimized: "/sha_ni",
        max_ratio: 0.4,
        needs: HostNeed::ShaExtensions,
    },
];

/// The ratio cap binding `name`, if any.
fn ratio_cap(name: &str) -> Option<&'static RatioCap> {
    RATIO_CAPS.iter().find(|cap| name.contains(cap.optimized))
}

/// The cap actually enforced for a run: the configured cap, or parity plus
/// tolerance when the host lacks what the cap needs.
fn enforced_cap(cap: &RatioCap, need_met: bool, tol: f64) -> f64 {
    if need_met {
        cap.max_ratio
    } else {
        1.0 + tol
    }
}

/// Whole records per bench name; later lines win, so re-running a bench
/// binary into the same results file updates its entries.  Each record must
/// carry `name` and a numeric value under its gate field (`median_ns` unless
/// the record names another field in `gate_field`, e.g. the loadgen entry
/// gating on `p99_ns`).
fn parse_jsonl(path: &str) -> Result<BTreeMap<String, Value>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut records = BTreeMap::new();
    for (lineno, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: invalid JSON: {e:?}", lineno + 1))?;
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: missing \"name\"", lineno + 1))?
            .to_string();
        let field = gate_field(&value);
        if metric(&value, field).is_none() {
            return Err(format!(
                "{path}:{}: missing numeric \"{field}\"",
                lineno + 1
            ));
        }
        records.insert(name, value);
    }
    Ok(records)
}

/// The field this record gates on: `median_ns` unless the record says
/// otherwise (histogram entries gate on a percentile, e.g. `p99_ns`).
fn gate_field(record: &Value) -> &str {
    record
        .get("gate_field")
        .and_then(Value::as_str)
        .unwrap_or("median_ns")
}

/// The numeric value of `field` in a record.
fn metric(record: &Value, field: &str) -> Option<f64> {
    record.get(field).and_then(Value::as_f64)
}

/// The reference sibling a bench's ratio is computed against (and the pair's
/// tolerance multiplier), if the pair table names one that exists in `names`.
fn reference_pair(name: &str, names: &BTreeMap<String, Value>) -> Option<(String, f64)> {
    for (optimized, reference, tol_multiplier) in RATIO_PAIRS {
        if name.contains(optimized) {
            let sibling = name.replace(optimized, reference);
            if sibling != name && names.contains_key(&sibling) {
                return Some((sibling, *tol_multiplier));
            }
        }
    }
    None
}

/// The reference sibling alone (see [`reference_pair`]).
fn reference_sibling(name: &str, names: &BTreeMap<String, Value>) -> Option<String> {
    reference_pair(name, names).map(|(sibling, _)| sibling)
}

/// Shared verdict ladder: classify a drift factor against a failure
/// tolerance, recording a failure line when it regresses.
fn judge(
    drift: f64,
    fail_tol: f64,
    improve_tol: f64,
    failures: &mut Vec<String>,
    failure_line: impl FnOnce() -> String,
) -> &'static str {
    if drift > 1.0 + fail_tol {
        failures.push(failure_line());
        "REGRESSED"
    } else if drift < 1.0 - improve_tol {
        "improved"
    } else {
        "ok"
    }
}

fn tolerance() -> f64 {
    std::env::var("CORGI_PERF_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.20)
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn main() -> ExitCode {
    let mut results_path = "BENCH_results.json".to_string();
    let mut baseline_path = "BENCH_baseline.json".to_string();
    let mut absolute = std::env::var("CORGI_PERF_GATE_ABSOLUTE")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--results" => {
                results_path = args.next().unwrap_or_else(|| {
                    eprintln!("--results needs a path");
                    std::process::exit(2);
                })
            }
            "--baseline" => {
                baseline_path = args.next().unwrap_or_else(|| {
                    eprintln!("--baseline needs a path");
                    std::process::exit(2);
                })
            }
            "--absolute" => absolute = true,
            other => {
                eprintln!(
                    "unknown argument {other}; usage: perf_gate [--results PATH] [--baseline PATH] [--absolute]"
                );
                return ExitCode::from(2);
            }
        }
    }

    let (results, baseline) = match (parse_jsonl(&results_path), parse_jsonl(&baseline_path)) {
        (Ok(r), Ok(b)) => (r, b),
        (r, b) => {
            for err in [r.err(), b.err()].into_iter().flatten() {
                eprintln!("perf_gate: {err}");
            }
            return ExitCode::from(2);
        }
    };

    let tol = tolerance();
    println!(
        "perf gate ({} mode): {} baseline benches, {} result benches, tolerance +{:.0}%",
        if absolute { "absolute" } else { "ratio" },
        baseline.len(),
        results.len(),
        tol * 100.0
    );
    // Names that serve as the reference side of some gated ratio: they are
    // deliberately slow comparison points with no optimized path to lose, so
    // in ratio mode they are presence-checked but not gated (their optimized
    // siblings already gate the same run).
    let reference_names: std::collections::BTreeSet<String> = baseline
        .keys()
        .filter_map(|name| reference_sibling(name, &baseline))
        .collect();
    let mut failures = Vec::new();
    for (name, base_record) in &baseline {
        // The baseline entry decides which field gates this bench: medians
        // for classic benches, a tail percentile (e.g. `p99_ns`) for
        // histogram entries like the loadgen run.
        let field = gate_field(base_record);
        let base_ns = metric(base_record, field).expect("validated by parse_jsonl");
        let Some(now_record) = results.get(name) else {
            failures.push(format!(
                "{name}: missing from results (renamed or deleted?)"
            ));
            continue;
        };
        let Some(now_ns) = metric(now_record, field) else {
            failures.push(format!(
                "{name}: results record lacks the gated field \"{field}\""
            ));
            continue;
        };
        let shown = if field == "median_ns" {
            name.clone()
        } else {
            format!("{name} [{field}]")
        };
        if absolute {
            let ratio = now_ns / base_ns.max(1.0);
            let verdict = judge(ratio, tol, tol, &mut failures, || {
                format!(
                    "{shown}: {} → {} ({:+.1}%)",
                    format_ns(base_ns),
                    format_ns(now_ns),
                    (ratio - 1.0) * 100.0
                )
            });
            println!(
                "  {shown:<50} baseline {:>10}  now {:>10}  {:+7.1}%  {verdict}",
                format_ns(base_ns),
                format_ns(now_ns),
                (ratio - 1.0) * 100.0
            );
            continue;
        }
        // Ratio mode: gate optimized/reference drift measured within one run.
        if reference_names.contains(name) {
            println!(
                "  {shown:<50} baseline {:>10}  now {:>10}  (reference side of a gated ratio; presence-checked only)",
                format_ns(base_ns),
                format_ns(now_ns),
            );
            continue;
        }
        let Some((sibling, pair_tol_multiplier)) = reference_pair(name, &baseline) else {
            // No reference sibling to ratio against (e.g. the K = 343 blocked
            // bench, whose reference is too slow to gate on): fall back to
            // absolute gating at a widened tolerance — loose enough to
            // survive runner-generation drift (~25-30%), tight enough to
            // catch the step-function regressions the gate exists for
            // (losing an optimized kernel path is a 2-7x hit).
            let unpaired_tol = 3.0 * tol;
            let ratio = now_ns / base_ns.max(1.0);
            let verdict = judge(ratio, unpaired_tol, tol, &mut failures, || {
                format!(
                    "{shown}: {} → {} ({:+.1}%, unpaired absolute gate at +{:.0}%)",
                    format_ns(base_ns),
                    format_ns(now_ns),
                    (ratio - 1.0) * 100.0,
                    unpaired_tol * 100.0
                )
            });
            println!(
                "  {shown:<50} baseline {:>10}  now {:>10}  {:+7.1}%  {verdict} (unpaired; absolute at +{:.0}%)",
                format_ns(base_ns),
                format_ns(now_ns),
                (ratio - 1.0) * 100.0,
                unpaired_tol * 100.0
            );
            continue;
        };
        let (Some(base_sib), Some(now_sib)) = (baseline.get(&sibling), results.get(&sibling))
        else {
            // Presence of the sibling in the results is checked by its own
            // baseline iteration; skip the ratio rather than divide by air.
            continue;
        };
        let sib_field = gate_field(base_sib);
        let (Some(base_ref), Some(now_ref)) =
            (metric(base_sib, sib_field), metric(now_sib, sib_field))
        else {
            continue;
        };
        let base_ratio = base_ns / base_ref.max(1.0);
        let now_ratio = now_ns / now_ref.max(1.0);
        let drift = now_ratio / base_ratio.max(1e-12);
        let pair_tol = tol * pair_tol_multiplier;
        if let Some(cap) = ratio_cap(name) {
            let need_met = cap.needs.met();
            let limit = enforced_cap(cap, need_met, tol);
            if now_ratio > limit {
                failures.push(format!(
                    "{shown}: current-run ratio vs {sibling} is {now_ratio:.3}, above the {limit:.2} cap (the optimized path must beat its reference outright)"
                ));
            }
            if !need_met {
                println!(
                    "  {shown:<50} ratio {now_ratio:>6.3}  host lacks {:?}: parity cap {limit:.2} only",
                    cap.needs
                );
                continue;
            }
        }
        let verdict = judge(drift, pair_tol, tol, &mut failures, || {
            format!(
                "{shown}: ratio vs {sibling} {base_ratio:.3} → {now_ratio:.3} ({:+.1}%, gated at +{:.0}%)",
                (drift - 1.0) * 100.0,
                pair_tol * 100.0
            )
        });
        println!(
            "  {shown:<50} ratio {base_ratio:>6.3} → {now_ratio:>6.3}  {:+7.1}%  {verdict} (gate +{:.0}%)",
            (drift - 1.0) * 100.0,
            pair_tol * 100.0
        );
    }
    for name in results.keys() {
        if !baseline.contains_key(name) {
            println!("  {name:<50} (not in baseline; not gated)");
        }
    }

    if failures.is_empty() {
        println!("perf gate: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("perf gate: FAIL");
        for f in &failures {
            eprintln!("  {f}");
        }
        eprintln!(
            "If the regression is intentional, refresh BENCH_baseline.json (see README § Performance)."
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_jsonl_reads_records_and_later_lines_win() {
        let path =
            std::env::temp_dir().join(format!("perf_gate_test_{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            concat!(
                "{\"name\":\"a/b\",\"median_ns\":100,\"samples\":5}\n",
                "\n",
                "{\"name\":\"c/d\",\"median_ns\":2.5e3,\"samples\":5}\n",
                "{\"name\":\"a/b\",\"median_ns\":120,\"samples\":5}\n",
            ),
        )
        .unwrap();
        let records = parse_jsonl(path.to_str().unwrap()).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(metric(&records["a/b"], "median_ns"), Some(120.0));
        assert_eq!(metric(&records["c/d"], "median_ns"), Some(2500.0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parse_jsonl_reports_malformed_lines() {
        let path = std::env::temp_dir().join(format!("perf_gate_bad_{}.jsonl", std::process::id()));
        std::fs::write(&path, "{\"median_ns\":100}\n").unwrap();
        let err = parse_jsonl(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("missing \"name\""), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parse_jsonl_validates_the_declared_gate_field() {
        let path =
            std::env::temp_dir().join(format!("perf_gate_field_{}.jsonl", std::process::id()));
        // A histogram record gating on p99_ns parses even though readers of
        // median_ns alone would also find one; a record declaring a gate
        // field it does not carry is rejected.
        std::fs::write(
            &path,
            "{\"name\":\"loadgen/calibrated\",\"median_ns\":1e6,\"p99_ns\":9e6,\"gate_field\":\"p99_ns\"}\n",
        )
        .unwrap();
        let records = parse_jsonl(path.to_str().unwrap()).unwrap();
        let record = &records["loadgen/calibrated"];
        assert_eq!(gate_field(record), "p99_ns");
        assert_eq!(metric(record, gate_field(record)), Some(9e6));

        std::fs::write(
            &path,
            "{\"name\":\"loadgen/calibrated\",\"median_ns\":1e6,\"gate_field\":\"p99_ns\"}\n",
        )
        .unwrap();
        let err = parse_jsonl(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("missing numeric \"p99_ns\""), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn gate_field_defaults_to_median() {
        let record: Value = serde_json::json!({"name": "a", "median_ns": 5.0});
        assert_eq!(gate_field(&record), "median_ns");
        assert_eq!(metric(&record, gate_field(&record)), Some(5.0));
        assert_eq!(metric(&record, "p99_ns"), None);
    }

    #[test]
    fn format_ns_scales_units() {
        assert_eq!(format_ns(850.0), "850ns");
        assert_eq!(format_ns(1_500.0), "1.50µs");
        assert_eq!(format_ns(2_500_000.0), "2.50ms");
        assert_eq!(format_ns(7.8e9), "7.80s");
    }

    #[test]
    fn ratio_pairs_resolve_reference_siblings() {
        let mut names = BTreeMap::new();
        for name in [
            "cholesky_factorize/blocked/49",
            "cholesky_factorize/reference/49",
            "cholesky_multi_rhs/fused_in_place",
            "cholesky_multi_rhs/per_column",
            "forest_generation_k343_2iters/blocked",
        ] {
            names.insert(name.to_string(), serde_json::json!({"median_ns": 1.0}));
        }
        assert_eq!(
            reference_sibling("cholesky_factorize/blocked/49", &names).as_deref(),
            Some("cholesky_factorize/reference/49")
        );
        assert_eq!(
            reference_sibling("cholesky_multi_rhs/fused_in_place", &names).as_deref(),
            Some("cholesky_multi_rhs/per_column")
        );
        // Optimized bench without a measured reference: unpaired, not gated.
        assert_eq!(
            reference_sibling("forest_generation_k343_2iters/blocked", &names),
            None
        );
        // Reference benches never pair onto themselves.
        assert_eq!(
            reference_sibling("cholesky_factorize/reference/49", &names),
            None
        );
    }

    #[test]
    fn warm_and_parallel_benches_pair_and_carry_caps() {
        let mut names = BTreeMap::new();
        for name in [
            "warm_vs_cold_ipm/k49/warm",
            "warm_vs_cold_ipm/k49/cold",
            "block_factorize_parallel/n_threads",
            "block_factorize_parallel/1_thread",
        ] {
            names.insert(name.to_string(), serde_json::json!({"median_ns": 1.0}));
        }
        assert_eq!(
            reference_pair("warm_vs_cold_ipm/k49/warm", &names),
            Some(("warm_vs_cold_ipm/k49/cold".to_string(), 1.0))
        );
        assert_eq!(
            reference_pair("block_factorize_parallel/n_threads", &names),
            Some(("block_factorize_parallel/1_thread".to_string(), 1.0))
        );
        // The cold and serial sides are reference points, never paired.
        assert_eq!(reference_sibling("warm_vs_cold_ipm/k49/cold", &names), None);
        assert_eq!(
            reference_sibling("block_factorize_parallel/1_thread", &names),
            None
        );

        // Caps: warm binds everywhere; parallel binds only with ≥ 2 cores.
        let warm = ratio_cap("warm_vs_cold_ipm/k49/warm").expect("warm cap");
        assert_eq!(warm.needs, HostNeed::Nothing);
        assert!(warm.needs.met());
        assert_eq!(enforced_cap(warm, true, 0.2), 0.75);
        let par = ratio_cap("block_factorize_parallel/n_threads").expect("parallel cap");
        assert_eq!(par.needs, HostNeed::Multicore);
        assert_eq!(enforced_cap(par, true, 0.2), 0.85);
        assert!((enforced_cap(par, false, 0.2) - 1.2).abs() < 1e-12);
        // Uncapped benches stay uncapped.
        assert!(ratio_cap("cholesky_factorize/blocked/49").is_none());
    }

    #[test]
    fn codec_benches_pair_binary_against_json() {
        let mut names = BTreeMap::new();
        for name in [
            "wire_codec/forest_roundtrip/binary",
            "wire_codec/forest_roundtrip/json",
            "transport_loopback/warm_hit_roundtrip",
            "transport_loopback/warm_hit_roundtrip_json",
            "transport_loopback/warm_hit_roundtrip/epoll",
            "transport_loopback/warm_hit_roundtrip/tick",
        ] {
            names.insert(name.to_string(), serde_json::json!({"median_ns": 1.0}));
        }
        // Codec pairs carry the widened (3×) tolerance multiplier: binary-vs-
        // JSON ratios compare memcpy-bound against formatting-bound work and
        // are less machine-stable than the same-character kernel pairs.
        assert_eq!(
            reference_pair("wire_codec/forest_roundtrip/binary", &names),
            Some(("wire_codec/forest_roundtrip/json".to_string(), 3.0))
        );
        assert_eq!(
            reference_pair("transport_loopback/warm_hit_roundtrip", &names),
            Some((
                "transport_loopback/warm_hit_roundtrip_json".to_string(),
                3.0
            ))
        );
        // The backend pair: the epoll round trip gates against the tick
        // round trip from the same run.  The "warm_hit_roundtrip" rule
        // matches the name first, but its rewritten sibling
        // (`…/warm_hit_roundtrip_json/epoll`) does not exist, so pairing
        // falls through to the `/epoll` → `/tick` rule.
        assert_eq!(
            reference_pair("transport_loopback/warm_hit_roundtrip/epoll", &names),
            Some((
                "transport_loopback/warm_hit_roundtrip/tick".to_string(),
                3.0
            ))
        );
        // The JSON and tick sides are reference points, never paired onto
        // themselves.
        assert_eq!(
            reference_sibling("wire_codec/forest_roundtrip/json", &names),
            None
        );
        assert_eq!(
            reference_sibling("transport_loopback/warm_hit_roundtrip_json", &names),
            None
        );
        assert_eq!(
            reference_sibling("transport_loopback/warm_hit_roundtrip/tick", &names),
            None
        );
    }

    #[test]
    fn frame_auth_benches_pair_sha_ni_against_portable() {
        let mut names = BTreeMap::new();
        for name in [
            "frame_auth/seal_134k/sha_ni",
            "frame_auth/seal_134k/portable",
        ] {
            names.insert(name.to_string(), serde_json::json!({"median_ns": 1.0}));
        }
        assert_eq!(
            reference_pair("frame_auth/seal_134k/sha_ni", &names),
            Some(("frame_auth/seal_134k/portable".to_string(), 3.0))
        );
        assert_eq!(
            reference_sibling("frame_auth/seal_134k/portable", &names),
            None
        );
        // The cap binds only where the CPU has the SHA extensions.
        let sha = ratio_cap("frame_auth/seal_134k/sha_ni").expect("sha cap");
        assert_eq!(sha.needs, HostNeed::ShaExtensions);
        assert_eq!(enforced_cap(sha, true, 0.2), 0.4);
        assert!((enforced_cap(sha, false, 0.2) - 1.2).abs() < 1e-12);
    }
}
