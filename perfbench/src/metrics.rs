//! The metric catalog, process memory readings and the result line.
//!
//! `BENCHMARK.json` lists the same metrics with the same units and
//! directions; `perfbench/test_benchmark.py` keeps the two in step.

use std::collections::BTreeMap;

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Printed by untraced runs (`--trace 0`). `sim_*` values, the message
/// count and recall are simulated or counted and repeat exactly per
/// seed; the others are wall-clock or OS readings.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("wall_sessions_per_s", "1/s", "higher"),
    m("setup_rss_mb", "MB", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("sim_latency_p50_ms", "sim_ms", "lower"),
    m("sim_latency_p99_ms", "sim_ms", "lower"),
    m("messages_per_session", "count", "lower"),
    m("recall", "fraction", "higher"),
    m("completed_share", "fraction", "higher"),
];

/// Printed by traced runs (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    m("pgrid.topology.build_s", "s", "lower"),
    m("pgrid.topology.responsible_ns", "ns", "lower"),
    m("pgrid.hash.key_ns", "ns", "lower"),
    m("pgrid.overlay.route_ns", "ns", "lower"),
    m("pgrid.overlay.hops", "count", "lower"),
    m("rdf.store.match_ns", "ns", "lower"),
    m("rdf.store.rows_per_match", "count", "lower"),
    m("core.system.insert_triple_us", "us", "lower"),
    m("core.place.copies_per_triple", "count", "lower"),
    m("rdf.join.join_ns", "ns", "lower"),
    m("rdf.join.rows_in", "count", "lower"),
    m("rdf.join.rows_out", "count", "lower"),
    m("semantic.reformulate.closure_ns", "ns", "lower"),
    m("semantic.reformulate.closure_size", "count", "lower"),
    m("semantic.cache.hit_ratio", "fraction", "higher"),
    m("semantic.cache.evictions", "count", "lower"),
    m("semantic.mapping_fetches_per_session", "count", "lower"),
    m("core.pool.open_ns", "ns", "lower"),
    m("core.pool.step_ns", "ns", "lower"),
    m("core.pool.steps_per_session", "count", "lower"),
    m("core.pool.rss_kb_per_session", "kB", "lower"),
    m("core.exec.subqueries_per_session", "count", "lower"),
    m("core.exec.bindings_shipped_per_session", "count", "lower"),
    m("core.exec.max_in_flight", "count", "lower"),
    m("load.queue_wait_p99_ms", "sim_ms", "lower"),
    m("load.queued_share", "fraction", "lower"),
    m("netsim.latency.sample_ns", "ns", "lower"),
    m("netsim.event.queue_ns", "ns", "lower"),
    m("self_s.pgrid", "s", "lower"),
    m("self_s.core", "s", "lower"),
    m("self_s.bench", "s", "lower"),
    m("bench.trace_overhead", "ratio", "lower"),
];

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in MB.
pub fn proc_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The result line: `catalog` fixes which metrics appear, in which
/// order and with which unit; a metric missing from `values` or not
/// finite is an error.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    catalog: &[Metric],
    values: &BTreeMap<&str, f64>,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(catalog.len());
    for metric in catalog {
        let v = *values
            .get(metric.name)
            .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", metric.name));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_metric_has_a_valid_name_unit_and_direction() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "bad name {}", metric.name);
            assert!(seen.insert(metric.name), "duplicate name {}", metric.name);
            assert!(
                !metric.unit.is_empty()
                    && metric.unit.len() <= 16
                    && metric
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} of {}",
                metric.unit,
                metric.name
            );
            assert!(
                metric.better == "lower" || metric.better == "higher",
                "bad direction of {}",
                metric.name
            );
        }
    }

    #[test]
    fn simulated_times_carry_a_simulated_unit() {
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            if metric.name.starts_with("sim_") || metric.name.contains(".queue_wait_") {
                assert_eq!(&metric.unit[..4], "sim_", "{} is simulated", metric.name);
            } else {
                assert!(
                    !metric.unit.starts_with("sim_"),
                    "{} is not simulated",
                    metric.name
                );
            }
        }
    }

    #[test]
    fn result_line_rejects_missing_and_non_finite_values() {
        let one = [m("setup_s", "s", "lower")];
        let mut values = BTreeMap::new();
        assert!(result_line(true, 1, 0, &one, &values).is_err());
        values.insert("setup_s", f64::NAN);
        assert!(result_line(true, 1, 0, &one, &values).is_err());
        values.insert("setup_s", 0.25);
        let line = result_line(true, 1, 0, &one, &values).expect("complete");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
