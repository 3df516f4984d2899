//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A traced run replays every op's exact inputs through the layers'
//! public functions. Each op gets a root span; each layer call inside it a
//! child span carrying the op's id and the root as parent. Spans stay in
//! memory until the run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::common::Probe;

pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An open op span; close it with [`Tracer::end_op`].
pub struct OpSpan {
    id: usize,
    op: u64,
}

/// The replay runs after the timed loop, when the host may run at another
/// speed. The tracer times the host probe between ops, and span times are
/// compared with loop latencies after scaling by the ratio of the loop's
/// median probe time to the replay's.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    probe: Probe,
    loop_probe_ms: f64,
}

impl Tracer {
    /// A tracer for a replay of a loop whose median probe time was
    /// `loop_probe_ms`.
    pub fn new(loop_probe_ms: f64) -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), probe: Probe::new(), loop_probe_ms }
    }

    /// Converts replay milliseconds to the timed loop's host speed.
    pub fn in_loop_ms(&self, replay_ms: f64) -> f64 {
        if self.probe.samples().is_empty() {
            return replay_ms;
        }
        replay_ms * self.loop_probe_ms / crate::stats::median(self.probe.samples())
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin_op(&mut self, op: u64, name: &'static str) -> OpSpan {
        self.probe.tick();
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent: None, op, name, start_ns, end_ns: start_ns });
        OpSpan { id, op }
    }

    pub fn end_op(&mut self, span: OpSpan) {
        self.spans[span.id].end_ns = self.now_ns();
    }

    /// Times one layer call as a child of `parent`.
    pub fn layer<T>(&mut self, parent: &OpSpan, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: Some(parent.id),
            op: parent.op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Median, over the ops whose root span is named `root`, of the share
    /// of each op's end-to-end time (`e2e_ms` of its op id) that its child
    /// spans named in `covering` (scaled to the loop's host speed) leave
    /// uncovered, floored at 0. Spans replay the op without contention, so
    /// time an op spent waiting for a core, a lock or the socket shows up
    /// here.
    pub fn unattributed(&self, root: &str, covering: &[&str], e2e_ms: impl Fn(u64) -> f64) -> f64 {
        let mut covered: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent.is_some() && covering.contains(&s.name) {
                *covered.entry(s.op).or_insert(0.0) += s.ms();
            }
        }
        let shares: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| {
                let covered = self.in_loop_ms(covered.get(&s.op).copied().unwrap_or(0.0));
                (1.0 - covered / e2e_ms(s.op)).max(0.0)
            })
            .collect();
        if shares.is_empty() {
            0.0
        } else {
            crate::stats::median(&shares)
        }
    }

    /// Durations in ms of the child spans named `name` under roots named
    /// `root`.
    pub fn durations_in(&self, root: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == root))
            .map(Span::ms)
            .collect()
    }

    /// Wall time covered by root spans, in ms.
    pub fn traced_ms(&self) -> f64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(Span::ms).sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// The cost of recording one span, measured on an empty layer call.
    pub fn span_cost_ns() -> f64 {
        let mut probe = Tracer::new(1.0);
        let op = probe.begin_op(0, "probe");
        let reps = 20_000;
        let started = Instant::now();
        for _ in 0..reps {
            probe.layer(&op, "probe.empty", || std::hint::black_box(0));
        }
        started.elapsed().as_nanos() as f64 / f64::from(reps)
    }
}
