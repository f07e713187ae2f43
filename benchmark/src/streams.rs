//! Seeded statement streams. Every statement is a pure function of
//! `(workload, seed, client index, position)`: the server only ever sees
//! the text lines produced here, and two runs with the same seed send the
//! same bytes.

use flashp_data::dimensions::city_name;
use flashp_data::dimensions::measure::NAMES as MEASURES;
use flashp_storage::Timestamp;

/// Days in the generated table (`DatasetConfig::new(.., 200, ..)`).
pub const TABLE_DAYS: i64 = 200;
/// Training-window length in days (the paper's default).
pub const WINDOW_DAYS: i64 = 150;
/// `FORE_PERIOD` of every FORECAST (the paper's default).
pub const FORE_PERIOD: usize = 7;
/// Client streams a workload hands out: 0 = phase A, 1 and 2 = the two
/// phase-B clients, 3 = warm-up. Cold streams interleave on this stride so
/// no two clients ever send the same statement.
pub const CLIENT_STREAMS: u64 = 4;

/// The six workloads. Names are fixed: later PRs compare against them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DashWarm,
    ExploreCold,
    ScanExact,
    FitHeavy,
    PublishLive,
    DashSharded,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::DashWarm,
        Workload::ExploreCold,
        Workload::ScanExact,
        Workload::FitHeavy,
        Workload::PublishLive,
        Workload::DashSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DashWarm => "dash_warm",
            Workload::ExploreCold => "explore_cold",
            Workload::ScanExact => "scan_exact",
            Workload::FitHeavy => "fit_heavy",
            Workload::PublishLive => "publish_live",
            Workload::DashSharded => "dash_sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One-shot statements with fresh predicates: the plan cache and the
    /// day-partial cache miss on every statement.
    pub fn is_cold(self) -> bool {
        matches!(self, Workload::ExploreCold | Workload::ScanExact)
    }

    pub fn is_sharded(self) -> bool {
        self == Workload::DashSharded
    }
}

/// Predicate shape of a statement; selects the scan kernel on the exact
/// path (`Single` → fused compare+aggregate, the others → mask kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One comparison on one column.
    Single,
    /// Two comparisons bounding one column.
    Range,
    /// An age band plus an equality or threshold on a second column.
    Conj,
    /// A city IN-list.
    In,
}

/// One statement of a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// The line sent on the wire (`EXECUTE ...` or a one-shot statement).
    pub line: String,
    /// The equivalent one-shot statement with every parameter written as
    /// a literal. The in-process oracle executes this text: the repo pins
    /// prepared ≡ one-shot and wire ≡ in-process to the bit.
    pub sql: String,
    /// Index of the prepared tile an `EXECUTE` runs; `None` for one-shots.
    pub tile: Option<usize>,
    pub shape: Shape,
}

/// A dashboard tile: one prepared FORECAST per connection.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    pub name: String,
    /// Statement text after `PREPARE <name> AS`.
    pub sql: String,
}

fn day(index: i64) -> i64 {
    let start = Timestamp::from_yyyymmdd(20200101).expect("valid literal");
    (start + index).to_yyyymmdd()
}

/// `(aggregate, predicate, shape)` of the four dashboard tiles. Each has
/// its own `(predicate, measure)` pair, so each owns its cache entries.
const TILE_DEFS: [(&str, &str, Shape); 4] = [
    ("SUM(Impression)", "age <= 40 AND gender = 'F'", Shape::Conj),
    ("COUNT(Click)", "device = 'mobile' AND membership >= 1", Shape::Conj),
    ("AVG(Favorite)", "interest >= 4 AND interest <= 20", Shape::Range),
    ("SUM(Cart)", "city IN ('city_00', 'city_03', 'city_07', 'city_12')", Shape::In),
];

/// Trailing-window lengths of the `publish_live` tiles.
const LIVE_WINDOWS: [i64; 4] = [150, 120, 90, 150];

fn tile_count(workload: Workload) -> usize {
    match workload {
        // Three tiles on three windows: an odd number of distinct fits.
        // Each auto-ARIMA fit has its own fixed cost (30 to 72 ms here), so
        // with an even number the median would sit between two of them and
        // flip with the rotation offset.
        Workload::FitHeavy => 3,
        Workload::DashWarm | Workload::DashSharded | Workload::PublishLive => 4,
        Workload::ExploreCold | Workload::ScanExact => 0,
    }
}

fn window_count(workload: Workload) -> usize {
    match workload {
        Workload::FitHeavy => 3,
        _ => 8,
    }
}

fn tile_sql(workload: Workload, tile: usize, using: &str) -> String {
    let (agg, pred, _) = TILE_DEFS[tile];
    format!(
        "FORECAST {agg} FROM ads WHERE {pred} USING {using} \
         OPTION (MODEL = '{}', FORE_PERIOD = {FORE_PERIOD})",
        model(workload)
    )
}

fn live_using(tile: usize) -> String {
    format!("LAST {} DAYS", LIVE_WINDOWS[tile])
}

/// A `publish_live` tile with its trailing window written out as the
/// literal range it resolves to when `last` is the table's latest day.
pub fn live_sql_at(tile: usize, last: Timestamp) -> String {
    let first = last + (1 - LIVE_WINDOWS[tile]);
    tile_sql(
        Workload::PublishLive,
        tile,
        &format!("({}, {})", first.to_yyyymmdd(), last.to_yyyymmdd()),
    )
}

/// The tiles every connection of `workload` PREPAREs (empty for the
/// one-shot workloads).
pub fn tiles(workload: Workload) -> Vec<Tile> {
    (0..tile_count(workload))
        .map(|i| {
            let using = if workload == Workload::PublishLive {
                live_using(i)
            } else {
                "(?, ?)".to_string()
            };
            Tile { name: format!("tile{i}"), sql: tile_sql(workload, i, &using) }
        })
        .collect()
}

/// The model every FORECAST of `workload` names.
pub fn model(workload: Workload) -> &'static str {
    if workload == Workload::FitHeavy {
        "arima"
    } else {
        "ar(7)"
    }
}

/// The same statement answered from the full table (`SAMPLE_RATE = 1.0`):
/// the exact reference the accuracy metrics compare a sampled reply to.
pub fn exact_variant(sql: &str) -> String {
    let fore = format!("FORE_PERIOD = {FORE_PERIOD}");
    if sql.contains("SAMPLE_RATE = 0.1") {
        sql.replace("SAMPLE_RATE = 0.1", "SAMPLE_RATE = 1.0")
    } else {
        sql.replace(&fore, &format!("{fore}, SAMPLE_RATE = 1.0"))
    }
}

/// Statements in one full rotation: every tile on every window of a
/// prepared workload (one rotation warms every day partial it will
/// touch), every predicate shape of a one-shot workload.
pub fn rotation_len(workload: Workload) -> usize {
    if workload.is_cold() {
        cold_shapes(workload).len()
    } else {
        tile_count(workload) * window_count(workload)
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A seeded bijection on `0..n` (affine map with a multiplier coprime to
/// `n`), so consecutive positions land on unrelated items without a table.
fn permute(index: u64, n: u64, key: u64) -> u64 {
    let mut a = (splitmix(key) % n) | 1;
    while gcd(a, n) != 1 {
        a += 2;
    }
    let b = splitmix(key ^ 0xA5A5_A5A5) % n;
    ((a % n) * (index % n) + b) % n
}

/// Integer columns a comparison can bound: `(name, lowest, highest)`.
const INT_COLUMNS: [(&str, i64, i64); 3] =
    [("age", 18, 70), ("interest", 0, 31), ("intent", 0, 15)];

const SINGLE_ITEMS: u64 = single_items();
const RANGE_ITEMS: u64 = range_items();
const CONJ_ITEMS: u64 = 32 * 20 * CONJ_SECOND.len() as u64;
const IN_ITEMS: u64 = 64 * 5 * 16;

const fn single_items() -> u64 {
    // Per column: `<=`, `>=`, `=` on every value, `<` and `>` on all but
    // the end that would select nothing; plus `city = <each city>`.
    let mut total = 64;
    let mut c = 0;
    while c < INT_COLUMNS.len() {
        let n = (INT_COLUMNS[c].2 - INT_COLUMNS[c].1 + 1) as u64;
        total += 5 * n - 2;
        c += 1;
    }
    total
}

const fn range_items() -> u64 {
    let mut total = 0;
    let mut c = 0;
    while c < INT_COLUMNS.len() {
        let n = (INT_COLUMNS[c].2 - INT_COLUMNS[c].1 + 1) as u64;
        total += n * (n - 1) / 2;
        c += 1;
    }
    total
}

/// Predicates in a shape's space; every index is a different predicate,
/// none selects nothing.
pub fn shape_items(shape: Shape) -> u64 {
    match shape {
        Shape::Single => SINGLE_ITEMS,
        Shape::Range => RANGE_ITEMS,
        Shape::Conj => CONJ_ITEMS,
        Shape::In => IN_ITEMS,
    }
}

fn single_predicate(mut i: u64) -> String {
    for (col, lo, hi) in INT_COLUMNS {
        let n = (hi - lo + 1) as u64;
        for (op, first, count) in
            [("<=", lo, n), (">=", lo, n), ("=", lo, n), ("<", lo + 1, n - 1), (">", lo, n - 1)]
        {
            if i < count {
                return format!("{col} {op} {}", first + i as i64);
            }
            i -= count;
        }
    }
    format!("city = '{}'", city_name(i as usize))
}

fn range_predicate(mut i: u64) -> String {
    for (col, lo, hi) in INT_COLUMNS {
        for a in lo..hi {
            let count = (hi - a) as u64;
            if i < count {
                return format!("{col} >= {a} AND {col} <= {}", a + 1 + i as i64);
            }
            i -= count;
        }
    }
    unreachable!("index {i} beyond the range space")
}

/// Second condition of a conjunction, beside its age band.
const CONJ_SECOND: [&str; 19] = [
    "gender = 'F'",
    "gender = 'M'",
    "device = 'mobile'",
    "device = 'pc'",
    "device = 'tablet'",
    "channel = 'search'",
    "channel = 'feed'",
    "channel = 'social'",
    "channel = 'direct'",
    "membership >= 1",
    "membership >= 2",
    "membership >= 3",
    "membership >= 4",
    "daypart <= 0",
    "daypart <= 1",
    "daypart <= 2",
    "daypart <= 3",
    "daypart <= 4",
    "daypart <= 5",
];

fn conj_predicate(i: u64) -> String {
    let lo = 18 + (i % 32) as i64;
    let width = 5 + (i / 32 % 20) as i64;
    let second = CONJ_SECOND[(i / 640) as usize];
    format!("age >= {lo} AND age <= {} AND {second}", lo + width)
}

fn in_predicate(i: u64) -> String {
    let first = i % 64;
    let count = 3 + i / 64 % 5;
    // Odd strides below 32: two progressions of equal length are the same
    // set only when they are the same progression.
    let stride = 1 + 2 * (i / 320);
    let cities: Vec<String> = (0..count)
        .map(|k| format!("'{}'", city_name(((first + k * stride) % 64) as usize)))
        .collect();
    format!("city IN ({})", cities.join(", "))
}

fn predicate(shape: Shape, item: u64) -> String {
    match shape {
        Shape::Single => single_predicate(item),
        Shape::Range => range_predicate(item),
        Shape::Conj => conj_predicate(item),
        Shape::In => in_predicate(item),
    }
}

fn cold_shapes(workload: Workload) -> [Shape; 3] {
    match workload {
        Workload::ScanExact => [Shape::Single, Shape::Conj, Shape::In],
        _ => [Shape::Range, Shape::Conj, Shape::In],
    }
}

fn cold_stmt(workload: Workload, seed: u64, client: u64, k: u64) -> Stmt {
    let shapes = cold_shapes(workload);
    let shape = shapes[(k % 3) as usize];
    // Position in this shape's space, interleaved across client streams.
    let g = (k / 3) * CLIENT_STREAMS + client % CLIENT_STREAMS;
    let space = shape_items(shape) * MEASURES.len() as u64;
    let lap = g / space;
    let picked = permute(g, space, seed ^ ((shape as u64 + 1) << 56) ^ workload as u64);
    let measure = MEASURES[(picked % MEASURES.len() as u64) as usize];
    let pred = predicate(shape, picked / MEASURES.len() as u64);
    // A second lap over a space re-uses its predicates long after the LRU
    // caches dropped them; a shifted window keeps the text distinct.
    let start = 5 * (splitmix(picked).wrapping_add(lap) % 8) as i64;
    let (a, b) = (day(start), day(start + WINDOW_DAYS - 1));
    let sql = match workload {
        Workload::ScanExact => format!(
            "SELECT SUM({measure}) FROM ads WHERE {pred} AND t BETWEEN {a} AND {b} GROUP BY t"
        ),
        _ => format!(
            "FORECAST SUM({measure}) FROM ads WHERE {pred} USING ({a}, {b}) \
             OPTION (MODEL = 'ar(7)', FORE_PERIOD = {FORE_PERIOD}, SAMPLE_RATE = 0.1)"
        ),
    };
    Stmt { line: sql.clone(), sql, tile: None, shape }
}

/// Statement `k` of `client`'s stream.
pub fn stmt(workload: Workload, seed: u64, client: u64, k: u64) -> Stmt {
    if workload.is_cold() {
        return cold_stmt(workload, seed, client, k);
    }
    let tiles = tile_count(workload) as u64;
    let windows = window_count(workload) as u64;
    // Clients walk the same rotation from seed- and client-dependent
    // offsets, so two clients rarely ask for the same tile at once.
    let offset = splitmix(seed ^ ((workload as u64) << 8)) % (tiles * windows) + client * 3;
    let pos = (k + offset) % (tiles * windows);
    let tile = (pos % tiles) as usize;
    let shape = TILE_DEFS[tile].2;
    if workload == Workload::PublishLive {
        return Stmt {
            line: format!("EXECUTE tile{tile}"),
            sql: tile_sql(workload, tile, &live_using(tile)),
            tile: Some(tile),
            shape,
        };
    }
    // Window starts step in whole multiples of five days across the days
    // the table has beyond one window (5 days for 8 windows, 15 for 3).
    let step = (TABLE_DAYS - WINDOW_DAYS) / windows as i64 / 5 * 5;
    let start = (pos / tiles) as i64 * step;
    let (a, b) = (day(start), day(start + WINDOW_DAYS - 1));
    Stmt {
        line: format!("EXECUTE tile{tile} ({a}, {b})"),
        sql: tile_sql(workload, tile, &format!("({a}, {b})")),
        tile: Some(tile),
        shape,
    }
}

/// Statement `k` of the cache fill that precedes a cold workload: fresh
/// predicates on the small 0.01 layer, which occupy the day-partial cache
/// as well as any (its capacity is shared by all layers) at a fraction of
/// the cost. Drawn from the warm-up stream, so no timed statement repeats
/// one.
pub fn cache_fill_stmt(seed: u64, k: u64) -> String {
    cold_stmt(Workload::ExploreCold, seed, CLIENT_STREAMS - 1, k)
        .line
        .replace("SAMPLE_RATE = 0.1", "SAMPLE_RATE = 0.01")
}

/// Open-loop schedule of the `publish_live` writer: batch `k` is due at
/// `k × period` after the phase starts, whatever the replies took. A late
/// writer catches up; it never shifts the schedule.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    pub period_ns: u64,
}

impl Pacer {
    pub fn due_ns(&self, k: u64) -> u64 {
        k * self.period_ns
    }

    /// How long to sleep before sending batch `k`, and how late it already
    /// is, given the time since the phase started.
    pub fn wait_and_lateness_ns(&self, k: u64, elapsed_ns: u64) -> (u64, u64) {
        let due = self.due_ns(k);
        (due.saturating_sub(elapsed_ns), elapsed_ns.saturating_sub(due))
    }

    /// Batches due strictly before `deadline_ns`.
    pub fn batches_before(&self, deadline_ns: u64) -> u64 {
        deadline_ns.div_ceil(self.period_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn streams_are_pure_functions_of_their_key() {
        for w in Workload::ALL {
            for client in 0..CLIENT_STREAMS {
                for k in (0..2_000).step_by(37) {
                    assert_eq!(stmt(w, 11, client, k), stmt(w, 11, client, k));
                }
            }
            assert_eq!(tiles(w), tiles(w));
        }
        // The seed reaches the stream: same position, other seed, other text.
        let differs = (0..50).any(|k| {
            stmt(Workload::ExploreCold, 1, 0, k).line != stmt(Workload::ExploreCold, 2, 0, k).line
        });
        assert!(differs);
    }

    #[test]
    fn cold_streams_never_repeat_a_statement() {
        for w in [Workload::ExploreCold, Workload::ScanExact] {
            let mut seen = HashSet::new();
            for client in 0..CLIENT_STREAMS {
                for k in 0..12_000 {
                    let s = stmt(w, 5, client, k);
                    assert!(seen.insert(s.line.clone()), "{}: repeated {}", w.name(), s.line);
                }
            }
        }
    }

    #[test]
    fn cold_shapes_take_equal_shares() {
        for w in [Workload::ExploreCold, Workload::ScanExact] {
            let mut counts = [0usize; 4];
            for k in 0..300 {
                counts[stmt(w, 9, 0, k).shape as usize] += 1;
            }
            let used: Vec<usize> = counts.into_iter().filter(|c| *c > 0).collect();
            assert_eq!(used, vec![100, 100, 100], "{}", w.name());
        }
    }

    #[test]
    fn every_predicate_in_a_space_is_distinct() {
        for shape in [Shape::Single, Shape::Range, Shape::Conj, Shape::In] {
            let n = shape_items(shape);
            let all: HashSet<String> = (0..n).map(|i| predicate(shape, i)).collect();
            assert_eq!(all.len() as u64, n, "{shape:?}");
        }
        // IN-lists are distinct as sets too, not only as text.
        let sets: HashSet<Vec<String>> = (0..IN_ITEMS)
            .map(|i| {
                let text = in_predicate(i);
                let mut items: Vec<String> =
                    text.split('\'').skip(1).step_by(2).map(str::to_string).collect();
                items.sort();
                items
            })
            .collect();
        assert_eq!(sets.len() as u64, IN_ITEMS);
    }

    #[test]
    fn permutation_is_a_bijection() {
        for n in [7u64, 640, 7_976, 20_480] {
            let seen: HashSet<u64> = (0..n).map(|i| permute(i, n, 42)).collect();
            assert_eq!(seen.len() as u64, n);
        }
    }

    #[test]
    fn statements_parse_and_windows_stay_inside_the_table() {
        for w in Workload::ALL {
            for tile in tiles(w) {
                flashp_query::parse(&tile.sql).unwrap_or_else(|e| panic!("{}: {e}", tile.sql));
            }
            for k in 0..200 {
                let s = stmt(w, 3, 1, k);
                flashp_query::parse(&s.sql).unwrap_or_else(|e| panic!("{}: {e}", s.sql));
                flashp_server::parse_command(&s.line)
                    .unwrap_or_else(|e| panic!("{}: {}", s.line, e.message));
                let last = s
                    .sql
                    .match_indices("2020")
                    .filter_map(|(i, _)| s.sql.get(i..i + 8)?.parse::<i64>().ok())
                    .max();
                assert!(
                    last.is_none_or(|d| d <= day(TABLE_DAYS - 1)),
                    "window past the table: {}",
                    s.sql
                );
            }
        }
        assert_eq!(day(0), 20200101);
        assert_eq!(day(TABLE_DAYS - 1), 20200718);
    }

    #[test]
    fn exact_variant_only_changes_the_rate() {
        for w in [Workload::DashWarm, Workload::ExploreCold, Workload::PublishLive] {
            let sql = stmt(w, 3, 0, 5).sql;
            let exact = exact_variant(&sql);
            assert_ne!(sql, exact);
            assert!(exact.contains("SAMPLE_RATE = 1.0"), "{exact}");
            assert_eq!(exact.matches("SAMPLE_RATE").count(), 1, "{exact}");
            flashp_query::parse(&exact).unwrap_or_else(|e| panic!("{exact}: {e}"));
        }
    }

    #[test]
    fn a_rotation_visits_every_tile_on_every_window() {
        for w in [Workload::DashWarm, Workload::FitHeavy, Workload::DashSharded] {
            let n = rotation_len(w) as u64;
            let lines: HashSet<String> = (0..n).map(|k| stmt(w, 8, 0, k).line).collect();
            assert_eq!(lines.len() as u64, n, "{}", w.name());
        }
    }

    #[test]
    fn writer_schedule_ignores_reply_times() {
        let pacer = Pacer { period_ns: 500_000_000 };
        // Due times depend on the batch index alone.
        assert_eq!(pacer.due_ns(0), 0);
        assert_eq!(pacer.due_ns(3), 1_500_000_000);
        // A batch that finished early waits; one that ran long is late by
        // the overrun and the next due time does not move.
        assert_eq!(pacer.wait_and_lateness_ns(2, 700_000_000), (300_000_000, 0));
        assert_eq!(pacer.wait_and_lateness_ns(2, 1_250_000_000), (0, 250_000_000));
        assert_eq!(pacer.wait_and_lateness_ns(3, 1_250_000_000), (250_000_000, 0));
        // The number of batches in a phase is fixed by its length.
        assert_eq!(pacer.batches_before(10_000_000_000), 20);
        assert_eq!(pacer.batches_before(10_100_000_000), 21);
    }
}
