//! Assembling the synthetic dataset into a [`TimeSeriesTable`].
//!
//! Generation is deterministic given the config: each day derives its own
//! RNG from `(seed, day)`, so the result is identical regardless of how
//! days are parallelized.

use crate::config::DatasetConfig;
use crate::dimensions::{
    build_schema, city_name, sample_dims, CHANNELS, DEVICES, GENDERS, NUM_CITIES, OSES,
};
use crate::error::DataError;
use crate::measures::sample_measures;
use crate::temporal::day_context;
use flashp_storage::parallel::{default_threads, parallel_map};
use flashp_storage::{Partition, PartitionBuilder, TimeSeriesTable, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated dataset: the table plus the config that produced it.
#[derive(Debug)]
pub struct Dataset {
    pub table: TimeSeriesTable,
    pub config: DatasetConfig,
}

impl Dataset {
    /// First timestamp of the dataset.
    pub fn start(&self) -> Timestamp {
        Timestamp::from_yyyymmdd(self.config.start_date).expect("validated at generation")
    }

    /// Last timestamp of the dataset.
    pub fn end(&self) -> Timestamp {
        self.start() + (self.config.num_days as i64 - 1)
    }
}

/// Generate the full dataset. Parallel across days; deterministic given
/// `config.seed`.
pub fn generate_dataset(config: &DatasetConfig) -> Result<Dataset, DataError> {
    config.validate()?;
    let schema = build_schema();
    let mut table = TimeSeriesTable::new(schema.clone());

    // Pre-intern every categorical value so dictionary codes match the
    // raw codes produced by `sample_dims` (vocab order = code order).
    for g in GENDERS {
        table.intern(crate::dimensions::dim::GENDER, g)?;
    }
    for c in 0..NUM_CITIES {
        table.intern(crate::dimensions::dim::CITY, &city_name(c))?;
    }
    for d in DEVICES {
        table.intern(crate::dimensions::dim::DEVICE, d)?;
    }
    for o in OSES {
        table.intern(crate::dimensions::dim::OS, o)?;
    }
    for ch in CHANNELS {
        table.intern(crate::dimensions::dim::CHANNEL, ch)?;
    }

    let start = Timestamp::from_yyyymmdd(config.start_date)?;
    let days: Vec<usize> = (0..config.num_days).collect();
    let partitions: Vec<Partition> =
        parallel_map(&days, default_threads(), |&day| generate_day(config, &schema, start, day));
    for (day, partition) in partitions.into_iter().enumerate() {
        table.insert_partition(start + day as i64, partition);
    }
    Ok(Dataset { table, config: clone_config(config) })
}

fn clone_config(c: &DatasetConfig) -> DatasetConfig {
    DatasetConfig {
        rows_per_day: c.rows_per_day,
        num_days: c.num_days,
        start_date: c.start_date,
        seed: c.seed,
        table_name: c.table_name.clone(),
    }
}

fn generate_day(
    config: &DatasetConfig,
    schema: &flashp_storage::SchemaRef,
    start: Timestamp,
    day: usize,
) -> Partition {
    let mut rng =
        StdRng::seed_from_u64(config.seed ^ (day as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let t = start + day as i64;
    // Day-level multiplicative shock (σ = 0.05 in log space) plus row-count
    // variation by weekday.
    let shock = (0.05 * box_muller(&mut rng)).exp();
    let ctx = day_context(day, t, shock);
    let weekday_factor = crate::temporal::WEEKLY[t.weekday() as usize];
    let rows = ((config.rows_per_day as f64) * weekday_factor).round().max(1.0) as usize;

    let mut builder = PartitionBuilder::with_capacity(schema, rows);
    for _ in 0..rows {
        let dims = sample_dims(&mut rng);
        let measures = sample_measures(&mut rng, &dims, &ctx);
        builder
            .push_raw_row(&dims.0, &measures)
            .expect("generator produces schema-conformant rows");
    }
    builder.finish()
}

fn box_muller(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashp_storage::{AggFunc, Predicate, ScanOptions};

    fn tiny() -> Dataset {
        generate_dataset(&DatasetConfig::new(300, 21, 42)).unwrap()
    }

    #[test]
    fn generates_requested_shape() {
        let ds = tiny();
        assert_eq!(ds.table.num_partitions(), 21);
        assert_eq!(ds.start().to_yyyymmdd(), 20200101);
        assert_eq!(ds.end() - ds.start(), 20);
        // Row counts vary with weekday but stay near the nominal value.
        for (_, p) in ds.table.partitions() {
            let n = p.num_rows() as f64;
            assert!(n > 0.7 * 300.0 && n < 1.3 * 300.0, "rows = {n}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = tiny();
        let b = tiny();
        let pred = a.table.compile_predicate(&Predicate::True).unwrap();
        let sa = flashp_storage::aggregate_range(
            &a.table,
            0,
            &pred,
            AggFunc::Sum,
            a.start(),
            a.end(),
            ScanOptions { threads: 1 },
        )
        .unwrap();
        let pred_b = b.table.compile_predicate(&Predicate::True).unwrap();
        let sb = flashp_storage::aggregate_range(
            &b.table,
            0,
            &pred_b,
            AggFunc::Sum,
            b.start(),
            b.end(),
            ScanOptions { threads: 4 },
        )
        .unwrap();
        assert_eq!(sa, sb, "generation must not depend on threading");
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_dataset(&DatasetConfig::new(100, 3, 1)).unwrap();
        let b = generate_dataset(&DatasetConfig::new(100, 3, 2)).unwrap();
        let pa = a.table.partition(a.start()).unwrap().measure(0)[0];
        let pb = b.table.partition(b.start()).unwrap().measure(0)[0];
        assert_ne!(pa, pb);
    }

    #[test]
    fn series_has_weekly_structure() {
        let ds = generate_dataset(&DatasetConfig::new(500, 28, 7)).unwrap();
        let pred = ds.table.compile_predicate(&Predicate::True).unwrap();
        let series = flashp_storage::aggregate_range(
            &ds.table,
            0,
            &pred,
            AggFunc::Sum,
            ds.start(),
            ds.end(),
            ScanOptions::default(),
        )
        .unwrap();
        // Wednesdays should out-pull Sundays on average.
        let mut wed = (0.0, 0);
        let mut sun = (0.0, 0);
        for (t, v) in &series {
            match t.weekday() {
                2 => {
                    wed.0 += v;
                    wed.1 += 1;
                }
                6 => {
                    sun.0 += v;
                    sun.1 += 1;
                }
                _ => {}
            }
        }
        let wed_avg = wed.0 / wed.1 as f64;
        let sun_avg = sun.0 / sun.1 as f64;
        assert!(wed_avg > sun_avg, "wed {wed_avg} vs sun {sun_avg}");
    }

    #[test]
    fn dictionary_codes_match_vocab_order() {
        let ds = tiny();
        let dicts = ds.table.dictionaries();
        assert_eq!(dicts[crate::dimensions::dim::GENDER].as_ref().unwrap().lookup("F"), Some(0));
        assert_eq!(dicts[crate::dimensions::dim::GENDER].as_ref().unwrap().lookup("M"), Some(1));
        assert_eq!(
            dicts[crate::dimensions::dim::DEVICE].as_ref().unwrap().lookup("mobile"),
            Some(0)
        );
        assert_eq!(
            dicts[crate::dimensions::dim::CITY].as_ref().unwrap().lookup("city_00"),
            Some(0)
        );
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(generate_dataset(&DatasetConfig::new(0, 5, 0)).is_err());
    }
}
