//! End-to-end and per-layer benchmark of the CORGI serving stack.
//!
//! ```text
//! benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! benchmark --smoke
//! benchmark --compare <A.jsonl> <B.jsonl>
//! ```
//!
//! One run boots the real stack in-process, drives it over loopback, checks
//! every forest it served, prints each metric with its unit, and ends its
//! standard output with one JSON line: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics of `BENCHMARK.json`, or with `--trace 1`
//! its per-layer metrics).  `--out` appends that line, tagged with workload
//! and seed, to a file that `--compare` reads.  The exit code is non-zero
//! when any request or check failed.

mod check;
mod drive;
mod layers;
mod stack;
mod workloads;

use drive::{median, quartiles};
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Params, Report, WORKLOADS};

/// The metric, workload and bound definitions this binary reports against.
const SPEC: &str = include_str!("../../BENCHMARK.json");

struct MetricSpec {
    name: String,
    unit: String,
    better: String,
    bound: Option<f64>,
}

struct Spec {
    run_seconds: f64,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

impl Spec {
    fn load() -> Self {
        let root: Value = serde_json::from_str(SPEC).expect("BENCHMARK.json parses");
        let metrics = |key: &str| -> Vec<MetricSpec> {
            root[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| MetricSpec {
                    name: m["name"].as_str().expect("name").to_string(),
                    unit: m["unit"].as_str().expect("unit").to_string(),
                    better: m["better"].as_str().expect("better").to_string(),
                    bound: m["bound"].as_f64(),
                })
                .collect()
        };
        let workloads: Vec<&str> = root["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        assert_eq!(
            workloads, WORKLOADS,
            "BENCHMARK.json names the workloads this binary runs"
        );
        Self {
            run_seconds: root["run_seconds"].as_f64().expect("run_seconds"),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    fn reported(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
        smoke: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(value()?.into()),
            "--smoke" => args.smoke = true,
            "--compare" => {
                let a = value()?;
                let b = it.next().ok_or("--compare needs two files")?;
                args.compare = Some((a.into(), b.into()));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {}; expected one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    if let Some((a, b)) = &args.compare {
        return compare(&spec, a, b);
    }
    if let Err(message) = stack::check_environment() {
        eprintln!("benchmark: {message}");
        return ExitCode::from(2);
    }
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let trace = args.trace || args.smoke;
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.5 } else { spec.run_seconds });
    println!(
        "# corgi benchmark: seed={} seconds={seconds} trace={}",
        args.seed,
        u8::from(trace)
    );
    println!("# {}", stack::describe());
    let mut results = Vec::new();
    for name in &names {
        let params = Params {
            workload: name.to_string(),
            seed: args.seed,
            seconds,
            trace,
            smoke: args.smoke,
        };
        let report = workloads::run(&params);
        let result = summarize(&spec, &params, &report);
        if let Some(out) = &args.out {
            let line = json!({
                "workload": name.to_string(),
                "seed": args.seed,
                "trace": u8::from(trace),
                "result": result.clone()
            });
            if let Err(e) = append_line(out, &line.to_string()) {
                eprintln!("benchmark: writing {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
        }
        results.push((name.to_string(), result));
    }
    let last = if results.len() == 1 {
        results.pop().expect("one result").1
    } else {
        combine(&results)
    };
    let correct = last["correct"].as_bool() == Some(true);
    println!("{last}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print one workload's report and build its result object.
fn summarize(spec: &Spec, params: &Params, report: &Report) -> Value {
    let mut failed = report.failed;
    let mut problems = report.problems.clone();
    println!("\n== {} ==", params.workload);
    let mut metrics = Map::new();
    for metric in spec.reported(params.trace) {
        match report.metrics.get(&metric.name) {
            Some(value) if value.is_finite() => {
                metrics.insert(
                    metric.name.clone(),
                    json!({ "value": *value, "unit": metric.unit.clone() }),
                );
            }
            // A smoke run serves level-1 keys only and measures nothing.
            _ if params.smoke => {}
            _ => {
                failed += 1;
                problems.push(format!("metric {} was not measured", metric.name));
            }
        }
    }
    print_table(spec, params, report);
    if params.trace {
        print_trace(params, report);
    }
    for problem in &problems {
        println!("FAILED: {problem}");
    }
    json!({
        "correct": failed == 0,
        "attempted": report.attempted.max(1),
        "failed": failed,
        "metrics": Value::Object(metrics)
    })
}

fn print_table(spec: &Spec, params: &Params, report: &Report) {
    let shown = spec
        .end_to_end
        .iter()
        .chain(spec.per_layer.iter().filter(|_| params.trace));
    for metric in shown {
        if let Some(value) = report.metrics.get(&metric.name) {
            println!("{:<36} {:>16.4} {}", metric.name, value, metric.unit);
        }
    }
    println!(
        "{:<36} {:>16} (failed {})",
        "requests_and_checks", report.attempted, report.failed
    );
}

/// The per-layer breakdown of a hit's round trip, the spans' self times,
/// the tracing overhead, and the span file.
fn print_trace(params: &Params, report: &Report) {
    let m = &report.metrics;
    let get = |name: &str| m.get(name).copied().unwrap_or(f64::NAN);
    println!("-- a hit's round trip by layer (median replay of each traced request, us) --");
    println!(
        "  {:<24} {:>12.3}",
        "service.lookup",
        get("service.lookup_ns") / 1e3
    );
    for layer in [
        "codec.encode_us",
        "codec.decode_us",
        "auth.seal_us",
        "auth.open_us",
    ] {
        let (l1, l2) = (get(&format!("{layer}.l1")), get(&format!("{layer}.l2")));
        println!("  {layer:<24} {l1:>12.3} (level 1) {l2:>12.3} (level 2)");
    }
    println!(
        "  {:<24} {:>12.3} (round trip minus lookup, codec{})",
        "transport.residual",
        get("transport.residual_us"),
        if params.workload == "cluster_keyed" {
            " and MAC"
        } else {
            ""
        }
    );
    println!("-- self time per span (median, us) --");
    for (name, us) in layers::self_times_us(&report.spans) {
        println!("  {name:<24} {us:>12.3} us");
    }
    println!(
        "tracing overhead: p50 {:.4} ms traced vs {:.4} ms untraced ({:+.4} ms)",
        get("trace.p50_traced_ms"),
        get("trace.p50_untraced_ms"),
        get("trace.overhead_ms")
    );
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark");
    let path = dir.join(format!("trace-{}.jsonl", params.workload));
    match layers::write_spans(&path, &report.spans) {
        Ok(()) => println!("spans: {} ({} spans)", path.display(), report.spans.len()),
        Err(e) => println!("spans: could not write {}: {e}", path.display()),
    }
}

/// One result object over several workloads: metrics prefixed by workload.
fn combine(results: &[(String, Value)]) -> Value {
    let mut metrics = Map::new();
    let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
    for (name, result) in results {
        attempted += result["attempted"].as_f64().unwrap_or(0.0);
        failed += result["failed"].as_f64().unwrap_or(0.0);
        correct &= result["correct"].as_bool() == Some(true);
        if let Some(map) = result["metrics"].as_object() {
            for (metric, value) in map {
                metrics.insert(format!("{name}.{metric}"), value.clone());
            }
        }
    }
    json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics)
    })
}

fn append_line(path: &PathBuf, line: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")?;
    file.sync_all()
}

/// Values of each (workload, metric) over the untraced runs in a file.
fn load_runs(path: &PathBuf) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record: Value = serde_json::from_str(line)
            .map_err(|e| format!("{}:{}: {e}", path.display(), number + 1))?;
        if record["trace"].as_u64() != Some(0) {
            continue;
        }
        let workload = record["workload"].as_str().unwrap_or_default().to_string();
        if let Some(metrics) = record["result"]["metrics"].as_object() {
            for (name, metric) in metrics {
                if let Some(value) = metric["value"].as_f64() {
                    runs.entry((workload.clone(), name.clone()))
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    Ok(runs)
}

/// Median, delta and verdict for every workload and end-to-end metric of
/// two sets of runs: FAIL when B is worse than A by more than the bound,
/// UNRESOLVED when either set spreads wider than the bound.
fn compare(spec: &Spec, a: &PathBuf, b: &PathBuf) -> ExitCode {
    let (runs_a, runs_b) = match (load_runs(a), load_runs(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let spread = |values: &[f64]| {
        quartiles(values).map_or(f64::INFINITY, |[q1, _, q3]| (q3 - q1) / median(values))
    };
    println!(
        "{:<20} {:<18} {:>12} {:>12} {:>8} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "delta", "bound", "sprd A", "sprd B"
    );
    let mut failures = 0;
    for workload in WORKLOADS {
        for metric in &spec.end_to_end {
            let key = (workload.to_string(), metric.name.clone());
            let (Some(va), Some(vb)) = (runs_a.get(&key), runs_b.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let delta = (mb - ma) / ma;
            let worse = if metric.better == "lower" {
                delta
            } else {
                -delta
            };
            let bound = metric.bound.unwrap_or(0.0);
            let (sa, sb) = (spread(va), spread(vb));
            // setup_s is judged on its median only: its spread is not bounded.
            let unresolved = metric.name != "setup_s" && (sa > bound || sb > bound);
            let verdict = if unresolved {
                "UNRESOLVED"
            } else if worse > bound {
                failures += 1;
                "FAIL"
            } else {
                "PASS"
            };
            println!(
                "{:<20} {:<18} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {:>7.1}% {:>7.1}%  {verdict}",
                workload,
                metric.name,
                ma,
                mb,
                delta * 100.0,
                bound * 100.0,
                sa * 100.0,
                sb * 100.0
            );
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_spec_declares_what_the_binary_reports() {
        let spec = Spec::load();
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let setup_bound = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .and_then(|m| m.bound);
        for metric in &spec.end_to_end {
            assert!(metric
                .bound
                .is_some_and(|b| b > 0.0 && b <= setup_bound.unwrap()));
        }
    }

    #[test]
    fn smoke_run_serves_checks_and_traces_every_workload() {
        for workload in WORKLOADS {
            let params = Params {
                workload: workload.to_string(),
                seed: 7,
                seconds: 0.5,
                trace: true,
                smoke: true,
            };
            let report = workloads::run(&params);
            assert!(
                report.problems.is_empty(),
                "{workload}: {:?}",
                report.problems
            );
            assert_eq!(report.failed, 0, "{workload}");
            assert!(report.attempted > 0, "{workload}");
            assert!(!report.spans.is_empty(), "{workload} recorded no spans");
            for name in [
                "l1_p50_ms",
                "setup_s",
                "service.lookup_ns",
                "codec.encode_us.l1",
            ] {
                assert!(
                    report.metrics.get(name).is_some_and(|v| v.is_finite()),
                    "{workload}: {name} missing"
                );
            }
        }
    }
}
