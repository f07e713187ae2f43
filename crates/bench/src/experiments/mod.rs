//! One module per table/figure of the paper's evaluation (§6). Each
//! exposes `run(&Harness) -> serde_json::Value` which prints the rows the
//! paper reports and returns a machine-readable summary. [`REGISTRY`]
//! names every module once; `run_all --only <key>[,<key>…]` selects
//! from it by module name.

pub mod ablation_tail;
pub mod fig12_intervals;
pub mod fig15_space;
pub mod fig3_example;
pub mod fig5_grouping;
pub mod fig7_response;
pub mod fig8_train_len;
pub mod fig9_agg_error;
pub mod forecast_error;
pub mod prop1;
pub mod table1;

use crate::Harness;
use flashp_core::SamplerChoice;

/// One registered experiment.
pub struct Experiment {
    /// Selection key: the name of the module that implements it.
    pub key: &'static str,
    /// What the experiment regenerates, for progress output.
    pub title: &'static str,
    /// The module's `run`.
    pub run: fn(&Harness) -> serde_json::Value,
}

/// Register experiments by module, so each key is its module's name.
macro_rules! registry {
    ($($module:ident => $title:literal),* $(,)?) => {
        [$(Experiment { key: stringify!($module), title: $title, run: $module::run }),*]
    };
}

/// Every experiment, in the order `run_all` runs them.
pub const REGISTRY: [Experiment; 11] = registry![
    prop1 => "Proposition 1",
    fig3_example => "Fig. 3 example",
    fig5_grouping => "Fig. 5 grouping",
    fig7_response => "Fig. 7 response time",
    fig9_agg_error => "Fig. 9 aggregation error",
    table1 => "Table 1 summary",
    forecast_error => "Figs. 10-14 forecast error",
    fig8_train_len => "Fig. 8 training length",
    fig12_intervals => "Fig. 12 intervals",
    fig15_space => "Fig. 15 space cost",
    ablation_tail => "Ablation: tail vs priority",
];

/// The experiments `run_all`'s arguments select: all of them with no
/// arguments, or those named by `--only <key>[,<key>…]`, in registry
/// order. Any other argument, or a key no experiment has, is an error
/// whose message lists the valid keys.
pub fn select(args: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let keys = match args {
        [] => return Ok(REGISTRY.iter().collect()),
        [flag, list] if flag == "--only" => list.split(',').map(str::trim).collect::<Vec<_>>(),
        _ => return Err(format!("usage: run_all [--only <key>[,<key>…]]\n{}", valid_keys())),
    };
    if let Some(bad) = keys.iter().find(|k| !REGISTRY.iter().any(|e| e.key == **k)) {
        return Err(format!("unknown experiment {bad:?}\n{}", valid_keys()));
    }
    Ok(REGISTRY.iter().filter(|e| keys.contains(&e.key)).collect())
}

fn valid_keys() -> String {
    let keys: Vec<&str> = REGISTRY.iter().map(|e| e.key).collect();
    format!("valid keys: {}", keys.join(", "))
}

/// The sampler lineup of Figs. 9–14.
pub fn figure_samplers() -> Vec<SamplerChoice> {
    vec![
        SamplerChoice::OptimalGsw,
        SamplerChoice::Priority,
        SamplerChoice::ArithmeticGsw,
        SamplerChoice::GeometricGsw,
        SamplerChoice::Uniform,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn registry_keys_are_unique_module_names() {
        // Every `pub mod` declared above is registered exactly once, under
        // its own name.
        let modules: Vec<&str> = include_str!("mod.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';'))
            .collect();
        let mut keys: Vec<&str> = REGISTRY.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), REGISTRY.len(), "duplicate key");
        let mut sorted_modules = modules.clone();
        sorted_modules.sort_unstable();
        assert_eq!(keys, sorted_modules);
    }

    #[test]
    fn only_selects_named_experiments_in_registry_order() {
        assert_eq!(select(&[]).unwrap().len(), REGISTRY.len());
        let picked = select(&args(&["--only", "fig15_space,prop1"])).unwrap();
        let keys: Vec<&str> = picked.iter().map(|e| e.key).collect();
        assert_eq!(keys, ["prop1", "fig15_space"]);
    }

    #[test]
    fn unknown_key_or_argument_lists_the_valid_keys() {
        for bad in [
            args(&["--only", "prop1,fig99"]),
            args(&["--only", ""]),
            args(&["--only"]),
            args(&["prop1"]),
        ] {
            let err = select(&bad).err().unwrap_or_else(|| panic!("{bad:?} accepted"));
            for e in &REGISTRY {
                assert!(err.contains(e.key), "{bad:?}: {err}");
            }
        }
    }
}
