//! **Figure 3** — the forecasting example: estimated aggregations (red
//! line) train the model, which produces forecasts with confidence
//! intervals (green lines). Printed as aligned series rows suitable for
//! plotting.

use crate::{forecast_eval, print_table, Harness};
use flashp_core::SamplerChoice;
use serde_json::json;

pub fn run(h: &Harness) -> serde_json::Value {
    let engine = &h.engine(SamplerChoice::OptimalGsw, &[0.01]);
    let (t0, t1) = h.train_range(90.min(h.num_days - 8));
    let task = h.tasks(0, 0.1, 1, 42).pop().unwrap();
    let pred = h.table.compile_predicate(&task.predicate).unwrap();
    let truth_train = h.truth(0, &pred, t0, t1);
    let truth_future = h.truth(0, &pred, t1 + 1, t1 + 7);
    let eval =
        forecast_eval(engine, 0, &pred, (t0, t1), "arima", 0.01, &truth_future).expect("pipeline");

    // Print the last two weeks of training estimates + the forecast week.
    let mut rows = Vec::new();
    let n = eval.estimates.len();
    for i in n.saturating_sub(14)..n {
        let t = t0 + i as i64;
        rows.push(vec![
            t.to_string(),
            format!("{:.0}", eval.estimates[i]),
            format!("{:.0}", truth_train[i]),
            String::new(),
            String::new(),
        ]);
    }
    for (i, fc) in eval.forecasts.iter().enumerate() {
        let t = t1 + 1 + i as i64;
        let (lo, hi) = eval.intervals[i];
        rows.push(vec![
            t.to_string(),
            String::new(),
            format!("{:.0}", truth_future[i]),
            format!("{fc:.0}"),
            format!("[{lo:.0}, {hi:.0}]"),
        ]);
    }
    print_table(
        &format!("Fig. 3: forecasting example (constraint: {})", task.predicate),
        &["day", "estimated M̂", "true value", "forecast", "90% interval"],
        &rows,
    );
    println!("forecast error over the week: {:.1}%", eval.forecast_error * 100.0);
    let value = json!({
        "constraint": task.predicate.to_string(),
        "estimates": eval.estimates,
        "truth_train": truth_train,
        "forecasts": eval.forecasts,
        "intervals": eval.intervals,
        "truth_future": truth_future,
        "forecast_error": eval.forecast_error,
    });
    crate::write_json("fig3_example", &value);
    value
}
