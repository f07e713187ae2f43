//! **Figure 7** — end-to-end response time vs sampling rate, split into
//! the aggregation portion and the forecasting portion (ARIMA; the LSTM
//! fitting time is reported alongside, matching Exp-II's remark).

use crate::{forecast_eval, paper_rates, print_table, rate_label, rate_scale, runs, Harness};
use flashp_core::SamplerChoice;
use serde_json::json;

pub fn run(h: &Harness) -> serde_json::Value {
    let engine = &h.engine(SamplerChoice::OptimalGsw, &paper_rates());
    let (t0, t1) = h.train_range(150.min(h.num_days - 8));
    let tasks = h.tasks(0, 0.05, runs().min(5), 71);
    // The figure's x axis: 100 %, 1 %, 0.05 %, 0.02 % (scaled).
    let k = rate_scale();
    let rates = [1.0, (0.01 * k).min(1.0), (0.0005 * k).min(1.0), (0.0002 * k).min(1.0)];

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for &rate in &rates {
        let mut agg_ms = Vec::new();
        let mut arima_ms = Vec::new();
        let mut lstm_ms = Vec::new();
        for task in &tasks {
            let pred = h.table.compile_predicate(&task.predicate).unwrap();
            let truth = h.truth(0, &pred, t1 + 1, t1 + 7);
            let a = forecast_eval(engine, 0, &pred, (t0, t1), "arima", rate, &truth).unwrap();
            agg_ms.push(a.agg_time.as_secs_f64() * 1e3);
            arima_ms.push(a.fit_time.as_secs_f64() * 1e3);
            let l = forecast_eval(engine, 0, &pred, (t0, t1), "lstm", rate, &truth).unwrap();
            lstm_ms.push(l.fit_time.as_secs_f64() * 1e3);
        }
        let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        let (agg, arima, lstm) = (mean(&agg_ms), mean(&arima_ms), mean(&lstm_ms));
        rows.push(vec![
            rate_label(rate),
            format!("{agg:.2} ms"),
            format!("{arima:.2} ms"),
            format!("{:.2} ms", agg + arima),
            format!("{lstm:.2} ms"),
        ]);
        out.push(json!({
            "rate": rate,
            "aggregation_ms": agg,
            "forecasting_arima_ms": arima,
            "total_arima_ms": agg + arima,
            "forecasting_lstm_ms": lstm,
        }));
    }
    print_table(
        "Fig. 7: end-to-end response time (ARIMA split; LSTM fit for reference)",
        &["rate", "aggregation", "ARIMA fit", "total", "LSTM fit"],
        &rows,
    );
    println!(
        "expected shape: aggregation dominates at 100% and collapses by orders of \
         magnitude under sampling (paper: ~20 s → 30 ms at production scale)"
    );
    let value = json!(out);
    crate::write_json("fig7_response", &value);
    value
}
