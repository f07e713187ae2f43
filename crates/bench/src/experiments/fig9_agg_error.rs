//! **Figure 9** — relative aggregation error of the five samplers for
//! varying sampling rate, at selectivity 0.5 % (panel a) and 5 %
//! (panel b), on Favorite.

use crate::experiments::figure_samplers;
use crate::{agg_error, mean_std, paper_rates, print_table, rate_label, runs, Harness};
use serde_json::json;

const MEASURE: usize = 2; // Favorite

pub fn run(h: &Harness) -> serde_json::Value {
    let samplers = figure_samplers();
    let rates = paper_rates();
    let engines: Vec<_> = samplers.iter().map(|s| h.engine(s.clone(), &rates)).collect();
    let (t0, t1) = h.train_range(150.min(h.num_days - 8));
    let n_tasks = runs();

    let mut out = serde_json::Map::new();
    for selectivity in [0.005, 0.05] {
        let tasks = h.tasks(MEASURE, selectivity, n_tasks, 900 + (selectivity * 1e4) as u64);
        let mut rows = Vec::new();
        let mut panel = serde_json::Map::new();
        for (sampler, engine) in samplers.iter().zip(&engines) {
            let mut row = vec![sampler.label().to_string()];
            let mut series = Vec::new();
            for &rate in &rates {
                let errs: Vec<f64> = tasks
                    .iter()
                    .map(|task| {
                        let pred = h.table.compile_predicate(&task.predicate).unwrap();
                        agg_error(engine, MEASURE, &pred, t0, t1, rate)
                    })
                    .collect();
                let (mean, std) = mean_std(&errs);
                row.push(format!("{:.1}±{:.1}%", mean * 100.0, std * 100.0));
                series.push(json!({"rate": rate, "error": mean, "std": std}));
            }
            panel.insert(sampler.label().to_string(), json!(series));
            rows.push(row);
        }
        let headers: Vec<String> = std::iter::once("sampler".to_string())
            .chain(rates.iter().map(|r| rate_label(*r)))
            .collect();
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        print_table(
            &format!(
                "Fig. 9{}: aggregation error (Favorite, selectivity {}%)",
                if selectivity < 0.01 { "a" } else { "b" },
                selectivity * 100.0
            ),
            &headers_ref,
            &rows,
        );
        out.insert(format!("selectivity_{selectivity}"), serde_json::Value::Object(panel));
    }
    println!("expected shape: Uniform worst; Opt-GSW ≈ Priority best; compressed between; errors shrink with rate and selectivity");
    let value = serde_json::Value::Object(out);
    crate::write_json("fig9_agg_error", &value);
    value
}
