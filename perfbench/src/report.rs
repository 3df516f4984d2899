//! The metric catalogue and the result of one run.
//!
//! End-to-end metrics are reported on every workload under the same
//! names, so their names are slots: `op1`, `op2` and `op3` are the three op
//! types each workload runs, and which statistic fills a slot is fixed per
//! workload (see [`crate::Workload::ops`] and the README).
//! Per-layer metrics keep one name across workloads; a layer that does no
//! work on a workload reports 0.

use std::collections::BTreeMap;

/// End-to-end metrics: name and unit. Latencies are in `probe` units:
/// milliseconds divided by the run's median host-probe time
/// ([`crate::common::Probe`]).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op1", "probe"),
    ("op1_tail", "probe"),
    ("op1_ttfb", "probe"),
    ("op2", "probe"),
    ("op3", "probe"),
    ("op3_tail", "probe"),
];

/// Per-layer metrics: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("model.json.parse_ms", "ms"),
    ("model.json.parse_mb_per_s", "MB/s"),
    ("model.json.parse_growth", "ratio"),
    ("model.json.parse_share.op1", "share"),
    ("data.csv.read_ms", "ms"),
    ("marginals.engine.build_ms", "ms"),
    ("marginals.engine.append_ms", "ms"),
    ("marginals.engine.scans", "count"),
    ("marginals.engine.projections", "count"),
    ("marginals.engine.cache_hits", "count"),
    ("marginals.engine.hit_ratio", "share"),
    ("marginals.engine.bytes_materialized", "bytes"),
    ("core.greedy.adult_ms", "ms"),
    ("core.greedy.nltcs_ms", "ms"),
    ("core.conditionals.ms", "ms"),
    ("core.sampler.compile_ms", "ms"),
    ("core.sampler.rows_per_s", "1/s"),
    ("core.sampler.cond_rows_per_s", "1/s"),
    ("core.sampler.lw_share", "share"),
    ("core.inference.theta_projection_p50_ms", "ms"),
    ("core.inference.theta_projection_p99_ms", "ms"),
    ("core.inference.model_marginal_p50_ms", "ms"),
    ("synth.spec.render_ms", "ms"),
    ("server.stage.parse_ms", "ms"),
    ("server.stage.ledger_ms", "ms"),
    ("server.stage.lookup_ms", "ms"),
    ("server.stage.sample_ms", "ms"),
    ("server.stage.write_ms", "ms"),
    ("server.request_ms", "ms"),
    ("server.wait_ms", "ms"),
    ("server.connections_reused", "count"),
    ("server.queue_rejected", "count"),
    ("server.cache.hits", "count"),
    ("server.cache.misses", "count"),
    ("server.cache.hit_ratio", "share"),
    ("server.cache.evicted_bytes", "bytes"),
    ("server.ledger.charge_ms", "ms"),
    ("server.ledger.register_ms", "ms"),
    ("server.ledger.persist_ms", "ms"),
    ("server.ledger.stripe_contention", "count"),
    ("server.ingest.append_ms", "ms"),
    ("server.ingest.append_growth", "ratio"),
    ("server.ingest.bytes_written_per_byte", "ratio"),
    ("server.ingest.refits_ok", "count"),
    ("server.ingest.refits_failed", "count"),
    ("server.ingest.refit_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.unattributed_share.op1", "share"),
    ("trace.unattributed_share.op2", "share"),
    ("trace.unattributed_share.op3", "share"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates that did not hold, one line each.
    pub violations: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// The metrics under the names a reader of the workload knows them by
    /// (`synth_p90_ms`, `fit_upload_p50_ms`, ...), with units.
    pub named: Vec<(String, f64, &'static str)>,
    /// Sample counts and other facts worth keeping with the record.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    /// Records a correctness gate.
    pub fn gate(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    pub fn e2e(&mut self, slot: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == slot), "unknown metric {slot}");
        self.end_to_end.insert(slot, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.layers.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Records a latency slot: `ms` over the run's median probe time, and
    /// the raw milliseconds under the workload's own name.
    pub fn latency(&mut self, slot: &'static str, name: &str, ms: f64, probe_ms: f64) {
        self.e2e(slot, ms / probe_ms);
        if !self.named.iter().any(|(n, _, _)| n == name) {
            self.name(name, ms, "ms");
        }
    }

    pub fn name(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_string(), value, unit));
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }
}

/// Formats a number for JSON with every digit it has.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Escapes a string for a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line: `correct`, `attempted`, `failed` and the
/// metrics of the chosen kind, each with its unit.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    let source = if traced { &outcome.layers } else { &outcome.end_to_end };
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = source.get(name).copied().unwrap_or(0.0);
            format!("{}: {{\"value\": {}, \"unit\": {}}}", quote(name), num(value), quote(unit))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
