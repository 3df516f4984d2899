//! `/metrics` deltas around the timed work of a traced run.

use std::net::SocketAddr;

use privbayes_server::{Client, Snapshot};

use crate::report::Outcome;

/// Two scrapes of one server: before and after the timed work.
pub struct Delta {
    before: Snapshot,
    after: Snapshot,
}

pub fn scrape(addr: SocketAddr) -> Snapshot {
    Client::new(addr.to_string()).metrics().expect("scrape /metrics from the benchmark server")
}

impl Delta {
    pub fn new(before: Snapshot, after: Snapshot) -> Self {
        Self { before, after }
    }

    /// Change of the samples named `name` whose labels include every pair
    /// in `labels` (all samples when `labels` is empty), minus those whose
    /// labels include `skip`.
    fn change(&self, name: &str, labels: &[(&str, &str)], skip: Option<(&str, &str)>) -> f64 {
        let total = |snap: &Snapshot| -> f64 {
            snap.samples
                .iter()
                .filter(|s| s.name == name)
                .filter(|s| {
                    labels.iter().all(|&(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
                })
                .filter(|s| {
                    skip.is_none_or(|(k, v)| !s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
                })
                .map(|s| s.value)
                .sum()
        };
        total(&self.after) - total(&self.before)
    }

    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.change(name, labels, None)
    }

    /// Mean of the observations added to histogram `name`, in ms; 0 when
    /// none were added. `skip` excludes one label value (the scrape's own
    /// `endpoint="metrics"` requests).
    pub fn mean_ms(&self, name: &str, labels: &[(&str, &str)], skip: Option<(&str, &str)>) -> f64 {
        let count = self.change(&format!("{name}_count"), labels, skip);
        if count <= 0.0 {
            return 0.0;
        }
        self.change(&format!("{name}_sum"), labels, skip) / count * 1e3
    }

    /// The server-side per-layer metrics every workload reports: stage
    /// means, request time, wait time, connection reuse, admission
    /// rejections, the row-block cache and the ledger.
    pub fn record(&self, outcome: &mut Outcome, mean_client_ms: f64) {
        let stage = |s: &str| self.mean_ms("privbayes_stage_seconds", &[("stage", s)], None);
        outcome.layer("server.stage.parse_ms", stage("parse"));
        outcome.layer("server.stage.ledger_ms", stage("ledger"));
        outcome.layer("server.stage.lookup_ms", stage("lookup"));
        outcome.layer("server.stage.sample_ms", stage("sample"));
        outcome.layer("server.stage.write_ms", stage("write"));
        let skip = Some(("endpoint", "metrics"));
        let request_ms = self.mean_ms("privbayes_request_seconds", &[], skip);
        outcome.layer("server.request_ms", request_ms);
        // Negative when the server's clock runs past the moment the client
        // already holds the whole response (the worker is descheduled
        // before it records the request).
        outcome.layer("server.wait_ms", mean_client_ms - request_ms);
        outcome.layer(
            "server.connections_reused",
            self.counter("privbayes_connections_reused_total", &[]),
        );
        outcome.layer("server.queue_rejected", self.counter("privbayes_queue_rejected_total", &[]));
        let hits = self.counter("privbayes_rowblock_cache_hits_total", &[]);
        let misses = self.counter("privbayes_rowblock_cache_misses_total", &[]);
        outcome.layer("server.cache.hits", hits);
        outcome.layer("server.cache.misses", misses);
        outcome.layer(
            "server.cache.hit_ratio",
            if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
        );
        outcome.layer(
            "server.cache.evicted_bytes",
            self.counter("privbayes_rowblock_cache_evicted_bytes_total", &[]),
        );
        outcome.layer(
            "server.ledger.persist_ms",
            self.mean_ms("privbayes_ledger_persist_seconds", &[], None),
        );
        outcome.layer(
            "server.ledger.stripe_contention",
            self.counter("privbayes_ledger_stripe_contention_total", &[]),
        );
    }
}
