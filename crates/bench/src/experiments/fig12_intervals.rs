//! **Figure 12** — (a) mean 90 % forecast-interval width of ARIMA per
//! sampler for varying sampling rate (selectivity 0.5 %, Favorite);
//! (b) forecast intervals of one concrete task at the 0.02 % rate,
//! printed next to the true values.

use crate::experiments::figure_samplers;
use crate::{
    forecast_eval, mean_std, paper_rates, print_table, rate_label, rate_scale, runs, sweep_rates,
    Harness,
};
use serde_json::json;

const MEASURE: usize = 2; // Favorite

pub fn run(h: &Harness) -> serde_json::Value {
    let samplers = figure_samplers();
    let engines: Vec<_> = samplers.iter().map(|s| h.engine(s.clone(), &paper_rates())).collect();
    let sweep = sweep_rates();
    let (t0, t1) = h.train_range(150.min(h.num_days - 8));
    let tasks = h.tasks(MEASURE, 0.005, runs(), 1_201);

    // Panel (a): interval width vs rate.
    let mut rows = Vec::new();
    let mut panel_a = serde_json::Map::new();
    for (sampler, engine) in samplers.iter().zip(&engines) {
        let mut row = vec![sampler.label().to_string()];
        let mut series = Vec::new();
        for &rate in &sweep {
            let widths: Vec<f64> = tasks
                .iter()
                .filter_map(|task| {
                    let pred = h.table.compile_predicate(&task.predicate).unwrap();
                    let truth = h.truth(MEASURE, &pred, t1 + 1, t1 + 7);
                    forecast_eval(engine, MEASURE, &pred, (t0, t1), "arima", rate, &truth)
                        .ok()
                        .map(|e| e.interval_width)
                })
                .collect();
            let (mean, _) = mean_std(&widths);
            row.push(format!("{mean:.0}"));
            series.push(json!({"rate": rate, "width": mean}));
        }
        panel_a.insert(sampler.label().to_string(), json!(series));
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("sampler".to_string())
        .chain(sweep.iter().map(|r| rate_label(*r)))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(
        "Fig. 12a: mean 90% forecast-interval width (ARIMA, Favorite, sel 0.5%)",
        &headers_ref,
        &rows,
    );

    // Panel (b): one task at 0.02 %, intervals per sampler + truth.
    let task = &tasks[0];
    let pred = h.table.compile_predicate(&task.predicate).unwrap();
    let truth = h.truth(MEASURE, &pred, t1 + 1, t1 + 7);
    let mut rows_b = Vec::new();
    let mut panel_b = serde_json::Map::new();
    for (sampler, engine) in samplers.iter().zip(&engines) {
        if let Ok(eval) = forecast_eval(
            engine,
            MEASURE,
            &pred,
            (t0, t1),
            "arima",
            (0.0002 * rate_scale()).min(1.0),
            &truth,
        ) {
            for (i, ((lo, hi), fc)) in eval.intervals.iter().zip(&eval.forecasts).enumerate() {
                rows_b.push(vec![
                    sampler.label().to_string(),
                    format!("h+{}", i + 1),
                    format!("{fc:.0}"),
                    format!("[{lo:.0}, {hi:.0}]"),
                    format!("{:.0}", truth[i]),
                ]);
            }
            panel_b.insert(
                sampler.label().to_string(),
                json!({"forecasts": eval.forecasts, "intervals": eval.intervals, "truth": truth}),
            );
        }
    }
    print_table(
        "Fig. 12b: one task at 0.02% sampling",
        &["sampler", "step", "forecast", "90% interval", "true"],
        &rows_b,
    );
    println!(
        "expected shape: larger rates → narrower intervals; Uniform widest, \
         Priority/Opt-GSW narrowest"
    );
    let value = json!({ "panel_a": panel_a, "panel_b": panel_b });
    crate::write_json("fig12_intervals", &value);
    value
}
