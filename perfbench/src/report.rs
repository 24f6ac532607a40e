//! What one workload run hands back, and the result line it prints.

use crate::trace::{layer_times, root_ms, span_cost_ns, total_ms, Tracer};
use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports every one of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("detect_p50_s", "sim_s"),
    ("detect_p95_s", "sim_s"),
    ("peak_rss_mb", "MB"),
];

/// Layers the benchmark calls into directly; each gets busy and self
/// time from the traced run's spans.
pub const SPAN_LAYERS: [&str; 6] = ["apps", "collector", "events", "routing", "core", "serve"];

/// Per-layer counters, read from the layers' public counters and stats
/// structs. A workload that never reaches a layer reports them as 0.
pub const COUNTERS: [(&str, &str); 29] = [
    ("apps.checkpoints", "count"),
    ("apps.emissions", "count"),
    ("apps.amendments", "count"),
    ("apps.degraded_emissions", "count"),
    ("apps.state_size_peak", "count"),
    ("events.instances", "count"),
    ("events.delta_passes", "count"),
    ("events.delta_ratio", "ratio"),
    ("collector.records_accepted", "count"),
    ("collector.records_deduplicated", "count"),
    ("collector.records_quarantined", "count"),
    ("collector.records_expired", "count"),
    ("collector.rows_retained_peak", "count"),
    ("collector.segments_scanned", "count"),
    ("collector.segments_pruned", "count"),
    ("collector.decodes", "count"),
    ("collector.cache_hits", "count"),
    ("collector.reseals", "count"),
    ("collector.spilled_bytes", "bytes"),
    ("collector.feed_unhealthy_cycles", "count"),
    ("core.symptoms", "count"),
    ("correlation.tests", "count"),
    ("correlation.hits", "count"),
    ("correlation.skipped", "count"),
    ("serve.batches", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.load_retries", "count"),
    ("serve.publishes", "count"),
    ("serve.publishes_elided", "count"),
];

/// Per-layer times (ms): the summed duration of the traced run's spans
/// around one public function.
pub const SPAN_TOTALS: [(&str, &str); 11] = [
    ("apps.advance_ms_total", "apps.advance"),
    ("apps.checkpoint_ms_total", "apps.checkpoint"),
    ("events.extract_ms", "events.extract_all"),
    ("collector.ingest_ms", "collector.ingest"),
    ("routing.build_ms", "routing.build_routing"),
    ("core.diagnose_ms", "core.diagnose_all"),
    ("core.candidate_series_ms", "core.candidate_series"),
    ("core.screen_ms", "core.screen"),
    ("serve.swap_ms", "serve.publish"),
    ("serve.publisher_ingest_ms", "serve.ingest"),
    ("serve.publish_build_ms", "serve.publish_if_changed"),
];

/// One workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end values by name (see [`END_TO_END`]).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer counters by name (see [`COUNTERS`]); absent means 0.
    pub layer: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.layer.insert(name, v);
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.layer.entry(name).or_default() += v;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.layer.entry(name).or_default();
        *e = e.max(v);
    }
}

/// Name and unit of every per-layer metric, in output order.
pub fn per_layer_schema() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        COUNTERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(SPAN_TOTALS.iter().map(|&(n, _)| (n.to_string(), "ms")));
    for layer in SPAN_LAYERS {
        out.push((format!("{layer}.busy_ms"), "ms"));
        out.push((format!("{layer}.self_ms"), "ms"));
    }
    out.push(("trace.spans".to_string(), "count"));
    out.push(("trace.overhead_pct".to_string(), "%"));
    out
}

/// The per-layer metrics of a traced run: counters, span totals,
/// busy/self time per layer, and the tracing overhead: the measured cost
/// of recording its spans as a share of the traced work.
pub fn per_layer(traced: &Outcome, tracer: &Tracer) -> Vec<(String, f64, &'static str)> {
    let spans = tracer.spans();
    let mut values: BTreeMap<String, f64> = traced
        .layer
        .iter()
        .map(|(&k, &v)| (k.to_string(), v))
        .collect();
    for (name, span) in SPAN_TOTALS {
        values.insert(name.to_string(), total_ms(spans, span));
    }
    for (layer, (busy, own)) in layer_times(spans) {
        values.insert(format!("{layer}.busy_ms"), busy);
        values.insert(format!("{layer}.self_ms"), own);
    }
    values.insert("trace.spans".to_string(), spans.len() as f64);
    values.insert(
        "trace.overhead_pct".to_string(),
        spans.len() as f64 * span_cost_ns() / (root_ms(spans) * 1e6) * 100.0,
    );
    per_layer_schema()
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect()
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}, …}}`.
pub fn result_line(o: &Outcome, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failures.is_empty(),
        o.attempted,
        o.failed,
        body.join(", ")
    )
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
/// A metric a failed check left unmeasured is a failure of its own.
pub fn end_to_end(o: &mut Outcome) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    for (name, unit) in END_TO_END {
        match o.e2e.get(name) {
            Some(&v) => out.push((name.to_string(), v, unit)),
            None => o.failures.push(format!("{name} was not measured")),
        }
    }
    out
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    grca_bench::mem::vm_hwm_kb().expect("VmHWM readable from /proc/self/status") as f64 / 1024.0
}
