//! **Table 1** — summary of forecast errors at a 0.1 % sample: Full vs
//! PIM vs Uniform vs Optimal GSW vs Arithmetic compressed GSW, per
//! measure, ARIMA model, random tasks with selectivity 0.5–10 %.

use crate::{forecast_eval, mean_std, print_table, runs, Harness, MEASURES};
use flashp_core::{build_model, SamplerChoice};
use flashp_data::PimModel;
use flashp_forecast::metrics::mean_relative_error;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;

// The paper's 0.1 % sample, scaled per FLASHP_RATE_SCALE (see lib docs).
fn rate() -> f64 {
    (0.001 * crate::rate_scale()).min(1.0)
}
const TRAIN_LEN: usize = 150;
const MODEL: &str = "arima";

pub fn run(h: &Harness) -> serde_json::Value {
    let rate = rate();
    let [uniform, opt_gsw, c_gsw] =
        [SamplerChoice::Uniform, SamplerChoice::OptimalGsw, SamplerChoice::ArithmeticGsw]
            .map(|s| h.engine(s, &[rate]));
    eprintln!("[table1] building PIM marginals…");
    let pim = PimModel::build(&h.table);
    let (t0, t1) = h.train_range(TRAIN_LEN.min(h.num_days - 8));
    let n_tasks = runs();

    let mut rows = Vec::new();
    let mut out = serde_json::Map::new();
    for (measure, name) in MEASURES.iter().enumerate() {
        // Tasks with selectivity drawn from 0.5 %–10 % (log-uniform).
        let mut sel_rng = StdRng::seed_from_u64(measure as u64 + 1);
        let tasks: Vec<_> = (0..n_tasks)
            .map(|i| {
                let sel = 0.005 * (20.0f64).powf(sel_rng.gen::<f64>());
                h.tasks(measure, sel, 1, 7_000 + (measure * 100 + i) as u64).pop().unwrap()
            })
            .collect();

        let mut errs: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
        for task in &tasks {
            let pred = h.table.compile_predicate(&task.predicate).unwrap();
            let truth = h.truth(measure, &pred, t1 + 1, t1 + 7);

            // Full (exact scan).
            let full =
                forecast_eval(&uniform, measure, &pred, (t0, t1), MODEL, 1.0, &truth).unwrap();
            errs.entry("Full").or_default().push(full.forecast_error);

            // PIM: estimate the training series from marginals, same model.
            let pim_series: Vec<f64> = pim
                .estimate_series(t0, t1, measure, &pred)
                .unwrap()
                .into_iter()
                .map(|(_, v)| v)
                .collect();
            let mut model = build_model(MODEL).unwrap();
            if model.fit(&pim_series).is_ok() {
                if let Ok(fc) = model.forecast(7, 0.9) {
                    let e = mean_relative_error(&fc.values(), &truth).unwrap_or(f64::NAN);
                    errs.entry("PIM").or_default().push(e);
                }
            }

            // Sampled methods.
            for (label, engine) in [("Uniform", &uniform), ("Opt-GSW", &opt_gsw), ("C-GSW", &c_gsw)]
            {
                let eval =
                    forecast_eval(engine, measure, &pred, (t0, t1), MODEL, rate, &truth).unwrap();
                errs.entry(label).or_default().push(eval.forecast_error);
            }
        }

        let mut row = vec![name.to_string()];
        let mut mrow = serde_json::Map::new();
        for method in ["Full", "PIM", "Uniform", "Opt-GSW", "C-GSW"] {
            let (mean, std) = mean_std(&errs[method]);
            row.push(format!("{mean:.3}±{std:.3}"));
            mrow.insert(method.to_string(), json!(mean));
        }
        rows.push(row);
        out.insert(name.to_string(), serde_json::Value::Object(mrow));
    }

    print_table(
        &format!(
            "Table 1: forecast error, {} sample, {n_tasks} tasks, ARIMA",
            crate::rate_label(rate)
        ),
        &["measure", "Full", "PIM", "Uniform", "Opt-GSW", "C-GSW"],
        &rows,
    );
    println!(
        "paper (0.1%): Favorite 0.105/0.695/0.248/0.131/0.196; \
         Impression 0.140/0.374/0.147/0.142/0.144 (Full/PIM/Uniform/Opt/C)"
    );
    let value = serde_json::Value::Object(out);
    crate::write_json("table1", &value);
    value
}
