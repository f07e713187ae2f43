//! Incremental GSW maintenance (§4.1): new rows stream in during the day
//! and the sample absorbs them by raising Δ — without ever revisiting
//! rows that were previously rejected.
//!
//! ```text
//! cargo run --release --example incremental_ingest
//! ```

use flashp::sampling::{estimate_agg, GswSampler, SampleSize, WeightStrategy};
use flashp::storage::{AggFunc, CmpOp, DataType, Partition, PartitionBuilder, Predicate, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema =
        Schema::from_names(&[("segment", DataType::Int64)], &["Impression"])?.into_shared();

    // The stream arrives in 10 batches of 20k rows into one growing
    // partition; the sampler recalibrates Δ after each batch so the
    // sample keeps an expected 2,000 rows.
    let sampler =
        GswSampler::with_size(WeightStrategy::SingleMeasure(0), SampleSize::Expected(2_000));
    let mut data_rng = StdRng::seed_from_u64(99);
    let mut draw_rng = StdRng::seed_from_u64(7);
    let mut partition = Partition::empty(&schema);
    let mut cell = None;
    let mut true_total = 0.0;

    println!(
        "{:>6} {:>12} {:>10} {:>12} {:>14} {:>8}",
        "batch", "rows seen", "retained", "delta", "estimate", "err%"
    );
    for batch in 0..10 {
        // Build one batch with a heavy tail and append it.
        let mut builder = PartitionBuilder::with_capacity(&schema, 20_000);
        for i in 0..20_000i64 {
            let heavy = if data_rng.gen::<f64>() < 0.002 { 500.0 } else { 1.0 };
            let value = heavy * (1.0 + data_rng.gen::<f64>());
            true_total += value;
            builder.push_raw_row(&[i % 50], &[value])?;
        }
        partition.extend(&builder.finish())?;

        // The first batch is drawn; every later one is absorbed — only the
        // appended rows draw, retained rows are re-checked against Δ′.
        let (sample, state) = match &cell {
            None => sampler.sample_recording(&schema, &partition, &mut draw_rng)?,
            Some((_, state)) => sampler
                .absorb(state, &schema, &partition)?
                .ok_or("absorb refused a grown partition")?,
        };

        // Estimate the running total (constraint: everything).
        let all = Predicate::True.compile(&schema, &[None])?;
        let est = estimate_agg(&sample, 0, &all, AggFunc::Sum)?;
        let err = (est.value - true_total).abs() / true_total * 100.0;
        println!(
            "{:>6} {:>12} {:>10} {:>12.2} {:>14.0} {:>7.2}%",
            batch + 1,
            state.population_rows(),
            state.len(),
            state.delta(),
            est.value,
            err
        );
        cell = Some((sample, state));
    }

    // Subset estimation still works on the final sample.
    let (sample, _) = cell.ok_or("no batches")?;
    let subset = Predicate::cmp("segment", CmpOp::Lt, 25).compile(&schema, &[None])?;
    let est = estimate_agg(&sample, 0, &subset, AggFunc::Sum)?;
    println!(
        "\nsubset (segment < 25) estimate: {:.0} (±{:.0} std)",
        est.value,
        est.std_dev().unwrap_or(0.0)
    );
    println!(
        "final sample: {} rows covering a population of {} ({} KiB)",
        sample.num_rows(),
        sample.population_rows(),
        sample.byte_size() / 1024
    );
    Ok(())
}
