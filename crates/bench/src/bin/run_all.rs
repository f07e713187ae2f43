//! Run the paper's experiments in sequence on one shared dataset,
//! regenerating its tables and figures: all of them, or only those named
//! by `--only <key>[,<key>…]`, where each key is an `experiments::*`
//! module name. An unknown key exits with status 2 before any dataset is
//! generated. See the crate docs for env knobs.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected = match flashp_bench::experiments::select(&args) {
        Ok(selected) => selected,
        Err(msg) => {
            eprintln!("run_all: {msg}");
            std::process::exit(2);
        }
    };
    let harness = flashp_bench::Harness::load();
    for experiment in selected {
        eprintln!("\n################ {} ################", experiment.title);
        let t = std::time::Instant::now();
        (experiment.run)(&harness);
        eprintln!("[{}] finished in {:.1?}", experiment.title, t.elapsed());
    }
}
