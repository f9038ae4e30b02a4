//! `zsbench run`: every workload in a fresh child process, untraced then
//! traced, into one `results.json` — and `zsbench compare`, the verdict
//! on two such result sets.

use crate::machine;
use crate::spec::{get, MetricDecl, Spec};
use crate::stats::{iqr_share, median};
use crate::workloads::Settings;
use serde_json::Value;
use std::path::Path;
use std::process::Command;

/// Name of the result file inside `--out`.
const RESULTS_FILE: &str = "results.json";

/// Arguments of `zsbench run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// First seed; untraced run `r` of a workload uses `seed + r`.
    pub seed: u64,
    /// Untraced runs per workload (their median and spread are reported).
    pub runs: usize,
    /// Seconds each run measures.
    pub seconds: f64,
    /// Tiny inputs, one repetition.
    pub smoke: bool,
    /// Directory `results.json` is written to.
    pub out: String,
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One parsed result line of a child.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value)` in declaration order.
    metrics: Vec<(String, f64)>,
}

/// Run one workload in a child process of this binary and parse the
/// result line, checking that it names exactly the declared metrics.
fn run_child(
    spec: &Spec,
    workload: &str,
    seed: u64,
    traced: bool,
    args: &RunArgs,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {}) exited with {}:\n{stdout}{}",
            u8::from(traced),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let parsed = serde_json::parse_value(last)
        .map_err(|e| format!("{workload}: last line is not JSON ({e}): {last}"))?;
    let number = |key: &str| {
        get(&parsed, key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{workload}: result has no whole number `{key}`"))
    };
    let emitted = get(&parsed, "metrics")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{workload}: result has no `metrics`"))?;
    let declared = spec.metrics(traced);
    let emitted_names: Vec<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
    let declared_names: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    if emitted_names != declared_names {
        return Err(format!(
            "{workload}: emitted metrics {emitted_names:?} are not the declared {declared_names:?}"
        ));
    }
    let metrics = emitted
        .iter()
        .map(|(name, entry)| {
            get(entry, "value")
                .and_then(Value::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{workload}: metric `{name}` has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildResult {
        correct: matches!(get(&parsed, "correct"), Some(Value::Bool(true))),
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
    })
}

fn print_metric(workload: &str, decl: &MetricDecl, value: f64, spread: Option<f64>) {
    match spread {
        Some(s) => println!(
            "{workload} {} {value} {} (iqr {:.2}%)",
            decl.name,
            decl.unit,
            s * 100.0
        ),
        None => println!("{workload} {} {value} {}", decl.name, decl.unit),
    }
}

/// `zsbench run`: all workloads, `runs` untraced runs (seeds `seed`,
/// `seed + 1`, …) and one traced run each.  Prints every metric as
/// `workload metric value unit` and writes `<out>/results.json`.
pub fn run_all(spec: &Spec, args: &RunArgs) -> Result<(), String> {
    let settings = Settings::new(args.seed, args.seconds, false, args.smoke);
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for (workload, _) in &spec.workloads {
        let untraced: Vec<ChildResult> = (0..args.runs)
            .map(|r| run_child(spec, workload, args.seed + r as u64, false, args))
            .collect::<Result<_, _>>()?;
        let traced = run_child(spec, workload, args.seed, true, args)?;

        let mut end_to_end = Vec::new();
        for (i, decl) in spec.end_to_end.iter().enumerate() {
            let values: Vec<f64> = untraced.iter().map(|r| r.metrics[i].1).collect();
            let spread = (values.len() > 1).then(|| iqr_share(&values));
            print_metric(workload, decl, median(&values), spread);
            end_to_end.push((
                decl.name.as_str(),
                object(vec![
                    ("unit", Value::Str(decl.unit.clone())),
                    ("median", Value::Float(median(&values))),
                    ("iqr_share", Value::Float(spread.unwrap_or(0.0))),
                    (
                        "values",
                        Value::Array(values.iter().map(|v| Value::Float(*v)).collect()),
                    ),
                ]),
            ));
        }
        let attempted: u64 = untraced.iter().chain([&traced]).map(|r| r.attempted).sum();
        let failed: u64 = untraced.iter().chain([&traced]).map(|r| r.failed).sum();
        let correct = untraced.iter().chain([&traced]).all(|r| r.correct);
        all_correct &= correct;
        println!(
            "{workload} failed_share {} ratio ({failed} of {attempted} operations)",
            failed as f64 / attempted as f64
        );
        let mut per_layer = Vec::new();
        for (decl, (_, value)) in spec.per_layer.iter().zip(&traced.metrics) {
            print_metric(workload, decl, *value, None);
            per_layer.push((
                decl.name.as_str(),
                object(vec![
                    ("unit", Value::Str(decl.unit.clone())),
                    ("value", Value::Float(*value)),
                ]),
            ));
        }
        workloads.push((
            workload.as_str(),
            object(vec![
                ("correct", Value::Bool(correct)),
                ("attempted", Value::UInt(attempted)),
                ("failed", Value::UInt(failed)),
                (
                    "failed_share",
                    Value::Float(failed as f64 / attempted as f64),
                ),
                ("end_to_end", object(end_to_end)),
                ("per_layer", object(per_layer)),
            ]),
        ));
    }
    let results = object(vec![
        ("machine", machine::stanza()),
        (
            "config",
            object(vec![
                ("seed", Value::UInt(args.seed)),
                ("runs", Value::UInt(args.runs as u64)),
                ("seconds", Value::Float(args.seconds)),
                ("smoke", Value::Bool(args.smoke)),
                ("generators", Value::UInt(settings.generators as u64)),
                ("workers", Value::UInt(settings.workers as u64)),
                ("setups_per_run", Value::UInt(settings.setups() as u64)),
                (
                    "window_ms",
                    Value::UInt(settings.window().as_millis() as u64),
                ),
            ]),
        ),
        ("workloads", object(workloads)),
    ]);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("create {}: {e}", args.out))?;
    let path = Path::new(&args.out).join(RESULTS_FILE);
    let text = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if all_correct {
        Ok(())
    } else {
        Err("a correctness gate was violated or operations failed (see above)".to_string())
    }
}

/// Verdict on one (workload, metric) pair of two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Better,
    /// The medians are within the bound of each other.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A spread is wider than the bound and the runs interleave, so the
    /// medians say nothing either way.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare the runs of one metric.  `a` is the baseline.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Relative change of the median in the bad direction.
    let worse_by =
        if higher_is_better { ma - mb } else { mb - ma } / ma.abs().max(f64::MIN_POSITIVE);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let separated = max(a) < min(b) || max(b) < min(a);
    if iqr_share(a).max(iqr_share(b)) > bound && !separated {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load_results(dir: &str) -> Result<Value, String> {
    let path = Path::new(dir).join(RESULTS_FILE);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::parse_value(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

fn metric_values(results: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let entry = get(
        get(get(get(results, "workloads")?, workload)?, "end_to_end")?,
        metric,
    )?;
    get(entry, "values")?
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

fn failed_share(results: &Value, workload: &str) -> Option<f64> {
    get(get(get(results, "workloads")?, workload)?, "failed_share")?.as_f64()
}

/// `zsbench compare A B`: one row per (workload, end-to-end metric).
/// `Ok(false)` when any row is `worse` or B failed a larger share of its
/// operations than A.
pub fn compare(spec: &Spec, dir_a: &str, dir_b: &str) -> Result<bool, String> {
    let (a, b) = (load_results(dir_a)?, load_results(dir_b)?);
    let mut acceptable = true;
    println!(
        "{:<16} {:<24} {:>14} {:>8} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "iqr A", "median B", "iqr B", "bound"
    );
    for (workload, _) in &spec.workloads {
        for decl in &spec.end_to_end {
            let values = |results: &Value, dir: &str| {
                metric_values(results, workload, &decl.name)
                    .filter(|v| !v.is_empty())
                    .ok_or_else(|| format!("{dir}: no values for {workload} {}", decl.name))
            };
            let (va, vb) = (values(&a, dir_a)?, values(&b, dir_b)?);
            let bound = decl.bound.expect("end-to-end metrics have a bound");
            let v = verdict(&va, &vb, decl.higher_is_better, bound);
            acceptable &= v != Verdict::Worse;
            println!(
                "{:<16} {:<24} {:>14.6} {:>7.2}% {:>14.6} {:>7.2}% {:>5.0}%  {}",
                workload,
                decl.name,
                median(&va),
                iqr_share(&va) * 100.0,
                median(&vb),
                iqr_share(&vb) * 100.0,
                bound * 100.0,
                v.name()
            );
        }
        let share = |results: &Value, dir: &str| {
            failed_share(results, workload)
                .ok_or_else(|| format!("{dir}: no failed_share for {workload}"))
        };
        let (fa, fb) = (share(&a, dir_a)?, share(&b, dir_b)?);
        let higher = fb > fa;
        acceptable &= !higher;
        println!(
            "{:<16} {:<24} {:>14.6} {:>8} {:>14.6} {:>8} {:>6}  {}",
            workload,
            "failed_share",
            fa,
            "",
            fb,
            "",
            "0%",
            if higher { "worse" } else { "same" }
        );
    }
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scale = |f: f64| base.map(|v| v * f);
        // Lower is better, bound 10%.
        assert_eq!(verdict(&base, &scale(1.05), false, 0.10), Verdict::Same);
        assert_eq!(verdict(&base, &scale(1.20), false, 0.10), Verdict::Worse);
        assert_eq!(verdict(&base, &scale(0.80), false, 0.10), Verdict::Better);
        // Higher is better: the same changes read the other way round.
        assert_eq!(verdict(&base, &scale(1.20), true, 0.10), Verdict::Better);
        assert_eq!(verdict(&base, &scale(0.80), true, 0.10), Verdict::Worse);
        // A spread wider than the bound with interleaved runs resolves
        // nothing, whatever the medians say.
        let noisy_a = [60.0, 100.0, 140.0, 80.0, 120.0];
        let noisy_b = [70.0, 115.0, 150.0, 90.0, 135.0];
        assert_eq!(
            verdict(&noisy_a, &noisy_b, false, 0.10),
            Verdict::Unresolved
        );
        // ... unless every run of one side beats every run of the other.
        let far_b = noisy_a.map(|v| v * 3.0);
        assert_eq!(verdict(&noisy_a, &far_b, false, 0.10), Verdict::Worse);
        // Bit-equal deterministic metrics are the same.
        assert_eq!(verdict(&[1.25; 3], &[1.25; 3], false, 0.01), Verdict::Same);
    }
}
