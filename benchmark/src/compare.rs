//! Result sets: `--suite` runs every workload (one child process each,
//! as the driver does) into one file; `--compare` applies the bounds of
//! `BENCHMARK.json` to two such files.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median_of, quartile_spread};
use crate::streams::Workload;
use serde_json::{json, Map, Value};

/// Run this binary on one workload and parse the result line it prints
/// last.
fn run_child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = serde_json::from_str(last)
        .map_err(|e| format!("{}: no result line ({e}): {last}", workload.name()))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}: {last}", workload.name(), output.status));
    }
    Ok(result)
}

fn metric_value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Run all six workloads — `repeats` untraced runs and one traced run
/// each — print every metric by name and write the result set to `out`.
pub fn suite(out: &str, seed: u64, seconds: f64, repeats: usize) -> i32 {
    let mut workloads = Map::new();
    let mut code = 0;
    for workload in Workload::ALL {
        let mut end_to_end: Vec<(&str, Vec<f64>)> =
            END_TO_END.iter().map(|m| (m.0, Vec::new())).collect();
        let mut per_layer = Map::new();
        let mut runs = (0..repeats).map(|_| false).chain([true]);
        let correct = runs.all(|trace| match run_child(workload, seed, seconds, trace) {
            Ok(result) if trace => {
                for (name, unit, _) in PER_LAYER {
                    let value = metric_value(&result, name);
                    println!("{:<14} {name:<32} {value:>16.4} {unit}", workload.name());
                    per_layer.insert(name.to_string(), json!(value));
                }
                true
            }
            Ok(result) => {
                for (name, values) in end_to_end.iter_mut() {
                    values.push(metric_value(&result, name));
                }
                true
            }
            Err(e) => {
                eprintln!("{e}");
                false
            }
        });
        if !correct {
            code = 1;
        }
        let mut e2e = Map::new();
        for ((name, values), (_, unit, _, _)) in end_to_end.iter().zip(END_TO_END) {
            println!(
                "{:<14} {name:<32} {:>16.4} {unit}  (median of {})",
                workload.name(),
                median_of(values),
                values.len()
            );
            e2e.insert(name.to_string(), json!(values));
        }
        workloads.insert(
            workload.name().to_string(),
            json!({"correct": correct, "end_to_end": e2e, "per_layer": per_layer}),
        );
    }
    let body = json!({
        "benchmark": "flashp-benchmark",
        "claim": Value::Null,
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
        "workloads": workloads,
    });
    let text = serde_json::to_string_pretty(&body).expect("json") + "\n";
    if let Err(e) = std::fs::write(out, text) {
        eprintln!("cannot write {out}: {e}");
        return 1;
    }
    println!("wrote {out}");
    code
}

/// How one metric of one workload moved between two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The second set's median is worse than the first's by more than the
    /// bound.
    Worse,
    /// A set's own run-to-run spread exceeds the bound, so a move of that
    /// size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric: `a` and `b` are the runs of the two sets.
pub fn judge(a: &[f64], b: &[f64], better: &str, bound: f64) -> Verdict {
    let spread = |v: &[f64]| quartile_spread(v).unwrap_or(0.0);
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median_of(a), median_of(b));
    let worse_by = if better == "higher" { (ma - mb) / ma.abs() } else { (mb - ma) / ma.abs() };
    if ma != 0.0 && worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// The bounds in force: `BENCHMARK.json` in the working directory (the
/// repository root, where the driver runs) or beside this package.
fn bounds() -> Result<Vec<(String, String, f64)>, String> {
    let beside = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = load("BENCHMARK.json").or_else(|_| load(beside))?;
    let list = manifest.get("end_to_end").and_then(Value::as_array).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Value::as_str).map(str::to_string);
            Some((text("name")?, text("better")?, m.get("bound")?.as_f64()?))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry".to_string())
}

fn runs_of(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(Value::as_array)
        .map(|values| values.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Print one row per (workload, end-to-end metric); exit code 1 unless
/// every row is `ok`.
pub fn compare(a_path: &str, b_path: &str) -> i32 {
    let loaded = load(a_path).and_then(|a| Ok((a, load(b_path)?, bounds()?)));
    let (a, b, bounds) = match loaded {
        Ok(sets) => sets,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!(
        "{:<14} {:<14} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "change", "spread a", "spread b", "bound"
    );
    let mut all_ok = true;
    for workload in Workload::ALL {
        for (metric, better, bound) in &bounds {
            let (ra, rb) =
                (runs_of(&a, workload.name(), metric), runs_of(&b, workload.name(), metric));
            if ra.is_empty() || rb.is_empty() {
                println!("{:<14} {metric:<14} missing from a result set", workload.name());
                all_ok = false;
                continue;
            }
            let verdict = judge(&ra, &rb, better, *bound);
            all_ok &= verdict == Verdict::Ok;
            let (ma, mb) = (median_of(&ra), median_of(&rb));
            println!(
                "{:<14} {metric:<14} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>7.1}% {:>7.1}% {:>5.0}%  {}",
                workload.name(),
                100.0 * (mb - ma) / ma,
                100.0 * quartile_spread(&ra).unwrap_or(0.0),
                100.0 * quartile_spread(&rb).unwrap_or(0.0),
                100.0 * bound,
                verdict.name(),
            );
        }
    }
    i32::from(!all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let noisy = [10.0, 14.0, 7.0, 12.0, 9.0];
        // Lower is better: +15 % is worse, −15 % is fine.
        assert_eq!(judge(&steady, &slower, "lower", 0.10), Verdict::Worse);
        assert_eq!(judge(&slower, &steady, "lower", 0.10), Verdict::Ok);
        // Higher is better: the same move reads the other way round.
        assert_eq!(judge(&steady, &slower, "higher", 0.10), Verdict::Ok);
        assert_eq!(judge(&slower, &steady, "higher", 0.10), Verdict::Worse);
        // Within the bound either way.
        assert_eq!(judge(&steady, &[10.5, 10.6, 10.4, 10.5, 10.5], "lower", 0.10), Verdict::Ok);
        // A set noisier than the bound cannot resolve a move of that size.
        assert_eq!(judge(&steady, &noisy, "lower", 0.10), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &steady, "higher", 0.10), Verdict::Unresolved);
        // A single run has no spread of its own and is judged on its value.
        assert_eq!(judge(&[10.0], &[12.0], "lower", 0.10), Verdict::Worse);
    }
}
