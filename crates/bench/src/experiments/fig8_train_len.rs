//! **Figure 8** — forecast error vs number of training time stamps
//! (30/60/90/150) at each sampling rate; ARIMA (panel a) and LSTM
//! (panel b). Selectivity 5 %, Impression, optimal GSW.

use crate::{
    forecast_eval, mean_std, paper_rates, print_table, rate_label, runs, sweep_rates, Harness,
};
use flashp_core::SamplerChoice;
use serde_json::json;

const MEASURE: usize = 0; // Impression
const TRAIN_LENS: [usize; 4] = [30, 60, 90, 150];

pub fn run(h: &Harness) -> serde_json::Value {
    let engine = &h.engine(SamplerChoice::OptimalGsw, &paper_rates());
    let sweep = sweep_rates();
    let tasks = h.tasks(MEASURE, 0.05, runs(), 801);

    let mut out = serde_json::Map::new();
    for model in ["arima", "lstm"] {
        let mut rows = Vec::new();
        let mut model_json = Vec::new();
        for &rate in &sweep {
            let mut row = vec![rate_label(rate)];
            for &len in &TRAIN_LENS {
                let (t0, t1) = h.train_range(len.min(h.num_days - 8));
                let errs: Vec<f64> = tasks
                    .iter()
                    .filter_map(|task| {
                        let pred = h.table.compile_predicate(&task.predicate).unwrap();
                        let truth = h.truth(MEASURE, &pred, t1 + 1, t1 + 7);
                        forecast_eval(engine, MEASURE, &pred, (t0, t1), model, rate, &truth)
                            .ok()
                            .map(|e| e.forecast_error)
                    })
                    .collect();
                let (mean, std) = mean_std(&errs);
                row.push(format!("{:.1}±{:.1}%", mean * 100.0, std * 100.0));
                model_json.push(json!({
                    "model": model, "rate": rate, "train_len": len,
                    "error": mean, "std": std,
                }));
            }
            rows.push(row);
        }
        let headers: Vec<String> = std::iter::once("rate".to_string())
            .chain(TRAIN_LENS.iter().map(|l| format!("{l} days")))
            .collect();
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        print_table(
            &format!(
                "Fig. 8{}: forecast error vs training length ({}, Impression, sel 5%)",
                if model == "arima" { "a" } else { "b" },
                model.to_uppercase()
            ),
            &headers_ref,
            &rows,
        );
        out.insert(model.to_string(), json!(model_json));
    }
    println!("expected shape: 150 days gives the most accurate and stable prediction");
    let value = serde_json::Value::Object(out);
    crate::write_json("fig8_train_len", &value);
    value
}
