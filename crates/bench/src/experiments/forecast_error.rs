//! **Figures 10, 11, 13, 14** — relative forecast error of the five
//! samplers for varying sampling rate, with ARIMA and LSTM models:
//!
//! * Fig. 10: Favorite, selectivity 0.5 %   * Fig. 11: Favorite, 5 %
//! * Fig. 13: Impression, selectivity 0.5 % * Fig. 14: Impression, 5 %

use crate::experiments::figure_samplers;
use crate::{
    forecast_eval, mean_std, paper_rates, print_table, rate_label, runs, sweep_rates, Harness,
};
use serde_json::json;

struct Panel {
    fig: &'static str,
    measure: usize,
    measure_name: &'static str,
    selectivity: f64,
}

const PANELS: [Panel; 4] = [
    Panel { fig: "Fig. 10", measure: 2, measure_name: "Favorite", selectivity: 0.005 },
    Panel { fig: "Fig. 11", measure: 2, measure_name: "Favorite", selectivity: 0.05 },
    Panel { fig: "Fig. 13", measure: 0, measure_name: "Impression", selectivity: 0.005 },
    Panel { fig: "Fig. 14", measure: 0, measure_name: "Impression", selectivity: 0.05 },
];

pub fn run(h: &Harness) -> serde_json::Value {
    // `FLASHP_PANEL` (1-4) restricts to one figure; default runs all four.
    let only: Option<usize> =
        std::env::var("FLASHP_PANEL").ok().and_then(|v| v.parse::<usize>().ok());
    let samplers = figure_samplers();
    let engines: Vec<_> = samplers.iter().map(|s| h.engine(s.clone(), &paper_rates())).collect();
    let sweep = sweep_rates();
    let (t0, t1) = h.train_range(150.min(h.num_days - 8));
    let n_tasks = runs();

    let mut out = serde_json::Map::new();
    for (idx, panel) in PANELS.iter().enumerate() {
        if let Some(o) = only {
            if o != idx + 1 {
                continue;
            }
        }
        let tasks = h.tasks(panel.measure, panel.selectivity, n_tasks, 1_300 + idx as u64 * 17);
        let mut panel_json = serde_json::Map::new();
        for model in ["arima", "lstm"] {
            let mut rows = Vec::new();
            for (sampler, engine) in samplers.iter().zip(&engines) {
                let mut row = vec![sampler.label().to_string()];
                let mut series = Vec::new();
                for &rate in &sweep {
                    let errs: Vec<f64> = tasks
                        .iter()
                        .filter_map(|task| {
                            let pred = h.table.compile_predicate(&task.predicate).unwrap();
                            let truth = h.truth(panel.measure, &pred, t1 + 1, t1 + 7);
                            forecast_eval(
                                engine,
                                panel.measure,
                                &pred,
                                (t0, t1),
                                model,
                                rate,
                                &truth,
                            )
                            .ok()
                            .map(|e| e.forecast_error)
                        })
                        .collect();
                    let (mean, std) = mean_std(&errs);
                    row.push(format!("{:.1}±{:.1}%", mean * 100.0, std * 100.0));
                    series.push(json!({"rate": rate, "error": mean, "std": std}));
                }
                panel_json.insert(format!("{}_{}", model, sampler.label()), json!(series));
                rows.push(row);
            }
            let headers: Vec<String> = std::iter::once("sampler".to_string())
                .chain(sweep.iter().map(|r| rate_label(*r)))
                .collect();
            let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
            print_table(
                &format!(
                    "{} ({}): forecast error, {} selectivity {}%, {n_tasks} tasks",
                    panel.fig,
                    model.to_uppercase(),
                    panel.measure_name,
                    panel.selectivity * 100.0
                ),
                &headers_ref,
                &rows,
            );
        }
        out.insert(
            panel.fig.replace(". ", "").to_lowercase(),
            serde_json::Value::Object(panel_json),
        );
    }
    println!(
        "expected shape: error grows as rate shrinks; ≥1% rates ≈ full data; \
         Opt-GSW/Priority degrade slowest; Uniform fastest"
    );
    let value = serde_json::Value::Object(out);
    crate::write_json("fig10_14_forecast_error", &value);
    value
}
