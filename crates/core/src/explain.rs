//! `EXPLAIN` rendering: a [`LogicalPlan`] as a structured [`PlanNode`]
//! tree — sampler, layer rate, estimated rows scanned, and the predicate
//! after constant folding — without executing anything.

use crate::planner::{
    ForecastPlan, LogicalPlan, PredicateSlot, ScanSource, SelectPlan, SourceSlot, TimeRangeSlot,
};
use flashp_storage::{CompiledPredicate, Schema};
use std::fmt;

/// One node of an `EXPLAIN` tree: an operator name, key/value properties,
/// and child operators.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Operator name (e.g. `Forecast`, `SampleEstimate`, `FullScan`).
    pub name: String,
    /// Properties in display order.
    pub props: Vec<(String, String)>,
    /// Child operators.
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    fn new(name: &str) -> Self {
        PlanNode { name: name.to_string(), props: Vec::new(), children: Vec::new() }
    }

    fn with(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.props.push((key.to_string(), value.to_string()));
        self
    }

    fn child(mut self, child: PlanNode) -> Self {
        self.children.push(child);
        self
    }

    /// Look up a property by key, searching this node only.
    pub fn prop(&self, key: &str) -> Option<&str> {
        self.props.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Look up a property by key anywhere in the tree (pre-order).
    pub fn find_prop(&self, key: &str) -> Option<&str> {
        self.prop(key).or_else(|| self.children.iter().find_map(|c| c.find_prop(key)))
    }

    /// The first node (pre-order) with the given operator name.
    pub fn find(&self, name: &str) -> Option<&PlanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    fn render(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let indent = "  ".repeat(depth);
        write!(f, "{indent}{}", self.name)?;
        if !self.props.is_empty() {
            let props: Vec<String> = self.props.iter().map(|(k, v)| format!("{k}={v}")).collect();
            write!(f, " [{}]", props.join(", "))?;
        }
        writeln!(f)?;
        for child in &self.children {
            child.render(f, depth + 1)?;
        }
        Ok(())
    }
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, 0)
    }
}

/// Render a plan as an `EXPLAIN` tree. The `schema` maps dimension
/// indices in the compiled predicate back to column names;
/// `partial_cache` reports whether the engine's day-partial cache is
/// active (rendered as `partial_cache=on|off` on the scan source — an
/// engine property, like the kernel tier, rather than a plan one).
pub fn explain_plan(plan: &LogicalPlan, schema: &Schema, partial_cache: bool) -> PlanNode {
    match plan {
        LogicalPlan::Forecast(p) => explain_forecast(p, schema, partial_cache),
        LogicalPlan::Select(p) => explain_select(p, schema, partial_cache),
    }
}

fn explain_forecast(p: &ForecastPlan, schema: &Schema, partial_cache: bool) -> PlanNode {
    let mut series =
        PlanNode::new("EstimateSeries").with("agg", format!("{}({})", p.agg, p.measure_name));
    series = match &p.range {
        TimeRangeSlot::Static(Some((s, e))) => {
            series.with("range", format!("{s}..{e}")).with("points", (*e - *s + 1).max(0))
        }
        TimeRangeSlot::Static(None) => series.with("range", "empty").with("points", 0),
        TimeRangeSlot::Dynamic(w) => {
            series.with("range", "dynamic").with("window", w).with("points", "dynamic")
        }
    };
    PlanNode::new("Forecast")
        .with("model", &p.model)
        .with("horizon", p.horizon)
        .with("confidence", p.confidence)
        .with("noise_aware", p.noise_aware)
        .child(
            series
                .child(source_slot_node(&p.source, partial_cache))
                .child(predicate_node(&p.predicate, schema)),
        )
}

fn explain_select(p: &SelectPlan, schema: &Schema, partial_cache: bool) -> PlanNode {
    let mut node = PlanNode::new("Select")
        .with("agg", format!("{}({})", p.agg, p.measure_name))
        .with("group_by_time", p.group_by_time);
    node = match &p.range {
        TimeRangeSlot::Static(Some((lo, hi))) => node.with("range", format!("{lo}..{hi}")),
        TimeRangeSlot::Static(None) => node.with("range", "empty"),
        TimeRangeSlot::Dynamic(w) => node.with("range", "dynamic").with("window", w),
    };
    node.child(source_slot_node(&p.source, partial_cache))
        .child(predicate_node(&p.predicate, schema))
}

fn source_slot_node(slot: &SourceSlot, partial_cache: bool) -> PlanNode {
    match slot {
        SourceSlot::Planned(source) => source_node(source, partial_cache),
        // A parameterized range can't pick its serving layer until the
        // parameters bind; `PreparedQuery::explain_with` renders the
        // concrete choice for one binding.
        SourceSlot::Deferred => PlanNode::new("BindTimeSource")
            .with("selection", "deferred")
            .with("reason", "layer and est_rows are re-selected when the range parameters bind"),
    }
}

fn source_node(source: &ScanSource, partial_cache: bool) -> PlanNode {
    // The scan-kernel tier is process-global (dispatched once at startup,
    // see `flashp_storage::simd`), so it is reported on the scan source
    // rather than stored in the plan: whatever tier is active is exactly
    // what the executor's predicate and aggregation kernels will run.
    // `partial_cache` is likewise an engine property.
    let simd = flashp_storage::simd::active_tier();
    let cache = if partial_cache { "on" } else { "off" };
    match source {
        ScanSource::FullScan { est_rows } => PlanNode::new("FullScan")
            .with("sampler", "full scan")
            .with("est_rows", est_rows)
            .with("simd", simd)
            .with("partial_cache", cache),
        ScanSource::SampleLayer {
            layer,
            rate,
            sampler,
            bucket,
            est_rows,
            rationale,
            catalog_version,
        } => PlanNode::new("SampleEstimate")
            .with("sampler", sampler)
            .with("layer", layer)
            .with("rate", rate)
            .with("bucket", bucket)
            .with("est_rows", est_rows)
            .with("catalog_version", catalog_version)
            .with("simd", simd)
            .with("partial_cache", cache)
            .with("rationale", rationale),
    }
}

fn predicate_node(slot: &PredicateSlot, schema: &Schema) -> PlanNode {
    match slot {
        PredicateSlot::Compiled(pred) => PlanNode::new("Predicate")
            .with("folded", render_predicate(pred, schema))
            .with("params", 0),
        PredicateSlot::Template { constraint, num_params } => {
            PlanNode::new("Predicate").with("template", constraint).with("params", num_params)
        }
    }
}

/// Render a compiled (constant-folded) predicate with dimension indices
/// resolved back to column names. Categorical literals render as their
/// dictionary codes — folding has already replaced the strings.
pub fn render_predicate(pred: &CompiledPredicate, schema: &Schema) -> String {
    fn dim_name(schema: &Schema, dim: usize) -> String {
        schema.dimensions().get(dim).map(|d| d.name.clone()).unwrap_or_else(|| format!("dim{dim}"))
    }
    match pred {
        CompiledPredicate::Const(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        CompiledPredicate::Cmp { dim, op, value } => {
            format!("{} {} {}", dim_name(schema, *dim), op.symbol(), value)
        }
        // `{:?}` keeps the decimal point (`3.0`, not `3`) so float
        // comparisons are distinguishable from integer ones.
        CompiledPredicate::CmpF64 { dim, op, value } => {
            format!("{} {} {:?}", dim_name(schema, *dim), op.symbol(), value)
        }
        CompiledPredicate::InSet { dim, values, .. } => {
            let vals: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            format!("{} IN ({})", dim_name(schema, *dim), vals.join(", "))
        }
        CompiledPredicate::And(children) => children
            .iter()
            .map(|c| format!("({})", render_predicate(c, schema)))
            .collect::<Vec<_>>()
            .join(" AND "),
        CompiledPredicate::Or(children) => children
            .iter()
            .map(|c| format!("({})", render_predicate(c, schema)))
            .collect::<Vec<_>>()
            .join(" OR "),
        CompiledPredicate::Not(child) => format!("NOT ({})", render_predicate(child, schema)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SampleCatalog;
    use crate::config::{EngineConfig, SamplerChoice};
    use crate::planner::Planner;
    use crate::test_support::test_table;
    use flashp_query::parse;

    fn explain(sql: &str) -> PlanNode {
        let table = test_table();
        let config = EngineConfig {
            layer_rates: vec![0.2, 0.05],
            sampler: SamplerChoice::OptimalGsw,
            default_rate: 0.05,
            ..Default::default()
        };
        let catalog = SampleCatalog::build(&table, &config).unwrap();
        let planner = Planner::new(&table, &config, Some(&catalog));
        let plan = planner.plan(&parse(sql).unwrap()).unwrap();
        explain_plan(&plan, table.schema(), true)
    }

    #[test]
    fn forecast_tree_names_sampler_rate_and_rows() {
        let node = explain(
            "FORECAST SUM(m1) FROM T WHERE seg <= 5 USING (20200101, 20200202) \
             OPTION (MODEL = 'ar(7)')",
        );
        assert_eq!(node.name, "Forecast");
        assert_eq!(node.prop("model"), Some("ar(7)"));
        let est = node.find("SampleEstimate").expect("sampled source");
        assert_eq!(est.prop("sampler"), Some("Optimal GSW"));
        assert_eq!(est.prop("rate"), Some("0.05"));
        assert!(est.prop("est_rows").unwrap().parse::<usize>().unwrap() > 0);
        assert_eq!(est.prop("partial_cache"), Some("on"));
        // The active scan-kernel tier is named on the source.
        let simd = est.prop("simd").expect("scan source names its kernel tier");
        let tiers = flashp_storage::KernelTier::ALL.map(flashp_storage::KernelTier::name);
        assert!(tiers.contains(&simd), "unknown tier {simd}");
        assert_eq!(simd, flashp_storage::simd::active_tier().name());
        // Constant-folded predicate with names resolved.
        let pred = node.find("Predicate").unwrap();
        assert_eq!(pred.prop("folded"), Some("seg <= 5"));
        // Rendered tree is indented and contains every operator.
        let text = node.to_string();
        assert!(text.contains("Forecast"));
        assert!(text.contains("  EstimateSeries"));
        assert!(text.contains("    SampleEstimate"));
    }

    #[test]
    fn constant_folding_is_visible() {
        // An impossible IN list on a categorical column folds to FALSE.
        let node = explain("SELECT SUM(m1) FROM T WHERE grp IN ('nope') AND t = 20200101");
        let pred = node.find("Predicate").unwrap();
        assert_eq!(pred.prop("folded"), Some("FALSE"));
    }

    #[test]
    fn template_predicates_render_placeholders() {
        let node = explain("SELECT SUM(m1) FROM T WHERE seg <= ? GROUP BY t");
        let pred = node.find("Predicate").unwrap();
        assert_eq!(pred.prop("params"), Some("1"));
        assert_eq!(pred.prop("template"), Some("seg <= ?"));
    }

    #[test]
    fn full_scan_sources_render() {
        let node = explain("SELECT COUNT(*) FROM T WHERE t = 20200101");
        let scan = node.find("FullScan").unwrap();
        assert_eq!(scan.prop("sampler"), Some("full scan"));
        assert_eq!(scan.prop("est_rows"), Some("400"));
        assert_eq!(scan.prop("simd"), Some(flashp_storage::simd::active_tier().name()));
        assert_eq!(scan.prop("partial_cache"), Some("on"));
    }
}
