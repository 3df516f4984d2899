//! `serve-mix`: reads only. Two keep-alive clients send unconditional
//! Adult synth (one request in four replays a hot seed from the row-block
//! cache), conditional NLTCS synth on the likelihood-weighted path, and
//! exact marginal queries on both models.
//!
//! Each client runs whole rounds of a fixed composition in an order drawn
//! from the seed, so every run sees the same mix of work: per client and
//! round, 12 synth requests (3 hot), 3 conditional requests, half of the
//! 696 one- to three-way NLTCS attribute sets and half of a 24-set Adult
//! query pool.
//!
//! Each client opens one connection per round. The two clients meet at a
//! barrier after every round: both close, the probe is timed while no
//! request is in flight, and both reopen. Which cores the scheduler gives a
//! connection's client thread and server worker persists for the
//! connection's life and moves synth latency by up to 1.8x on two cores;
//! a connection per round gives a run many lives to average that over,
//! where the server's cap of 1,000 requests leaves a handful. Reopening
//! together lets the acceptor's round-robin put the two new connections on
//! different workers, so neither queues behind the other's. Every round
//! has the same composition, so the time one client waits for the other
//! at the barrier is the same in every run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use privbayes::conditionals::NoisyModel;
use privbayes::inference::{model_marginal, theta_projection, DEFAULT_CELL_CAP};
use privbayes::sampler::SampleSpec;
use privbayes_bench::reference::reference_theta_projection;
use privbayes_data::Schema;
use privbayes_model::Json;
use privbayes_server::{
    BudgetLedger, MarginalQuery, ModelEntry, ModelRegistry, ServerConfig, SynthSpec,
};
use privbayes_synth::{fit_method, FitSettings, Method};

use crate::common::{
    adult_corpus, digest, fit_threads, nltcs_corpus, peak_rss_mb, repeated_setup, Draw, Probe,
    Running, ADULT_ROWS,
};
use crate::http::Conn;
use crate::replay;
use crate::report::Outcome;
use crate::scrape::{scrape, Delta};
use crate::stats::{growth, mean, median, percentile, supports, FAILED_MS};
use crate::trace::Tracer;

const SYNTH_ROWS: usize = 10_000;
const COND_ROWS: usize = 2_000;
const HOT_SEEDS: usize = 4;
const ADULT_POOL: usize = 24;
const CLIENTS: usize = 2;
/// Per client: 6 rounds give 2 × 6 × 9 = 108 cold synth requests, 36
/// conditional requests and 4,320 queries at least.
const MIN_ROUNDS: usize = 6;
/// Probe timings in each pause between rounds.
const PAUSE_PROBES: usize = 8;
/// Set-up builds per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;
const SYNTH_PER_ROUND: usize = 12;
const HOT_PER_ROUND: usize = 3;
const COND_PER_ROUND: usize = 3;
/// The models are part of the set-up, fitted from fixed seeds.
const ADULT_FIT_SEED: u64 = 1042;
const NLTCS_FIT_SEED: u64 = 2042;

#[derive(Clone)]
enum Kind {
    Synth { seed: u64 },
    Cond { seed: u64, evidence: (usize, u32) },
    Query { adult: bool, attrs: Vec<usize> },
}

struct Op {
    kind: Kind,
    path: String,
    body: Vec<u8>,
}

struct Done {
    op: Op,
    ms: f64,
    ttfb_ms: f64,
    ok: bool,
    digest: u64,
    /// The response body, kept for the first query of each attribute set.
    body: Option<Vec<u8>>,
}

struct Setup {
    running: Running,
    adult: Arc<ModelEntry>,
    nltcs: Arc<ModelEntry>,
    nltcs_sets: Vec<Vec<usize>>,
    adult_pool: Vec<Vec<usize>>,
    evidence: Vec<(usize, u32)>,
    hot: Vec<u64>,
}

/// Cells the θ-projection enumerates for `attrs`: the product of the
/// domains in the query's ancestral closure.
fn closure_cells(model: &NoisyModel, schema: &Schema, attrs: &[usize]) -> usize {
    let mut needed = vec![false; schema.len()];
    for &a in attrs {
        needed[a] = true;
    }
    for cond in model.conditionals.iter().rev() {
        if needed[cond.child] {
            for axis in &cond.parents {
                needed[axis.attr] = true;
            }
        }
    }
    (0..schema.len())
        .filter(|&a| needed[a])
        .fold(1usize, |cells, a| cells.saturating_mul(schema.attribute(a).domain_size()))
}

/// Every one- to three-way attribute set of a `d`-attribute schema.
fn attribute_sets(d: usize) -> Vec<Vec<usize>> {
    let mut sets = Vec::new();
    for a in 0..d {
        sets.push(vec![a]);
        for b in a + 1..d {
            sets.push(vec![a, b]);
            for c in b + 1..d {
                sets.push(vec![a, b, c]);
            }
        }
    }
    sets
}

fn build(seed: u64) -> Setup {
    let settings = FitSettings {
        threads: Some(fit_threads()),
        comment: "serve-mix".into(),
        ..FitSettings::default()
    };
    let adult =
        fit_method(Method::PrivBayes, &adult_corpus(ADULT_ROWS), 1.0, ADULT_FIT_SEED, &settings)
            .expect("fit the Adult model");
    let nltcs = fit_method(
        Method::PrivBayesK,
        &nltcs_corpus(),
        1.0,
        NLTCS_FIT_SEED,
        &FitSettings { fixed_k: 3, ..settings },
    )
    .expect("fit the NLTCS model");
    let registry = Arc::new(ModelRegistry::new());
    registry.load("adult", adult.artifact).expect("load the Adult model");
    registry.load("nltcs", nltcs.artifact).expect("load the NLTCS model");
    let adult = registry.get("adult").expect("loaded above");
    let nltcs = registry.get("nltcs").expect("loaded above");
    let running =
        Running::start(ServerConfig::default(), registry, Arc::new(BudgetLedger::in_memory()));

    // The Adult pool: the sets θ-projection can answer under the server's
    // cell cap, ordered by closure size, sampled evenly from the cheapest
    // to the most expensive.
    let (model, schema) = (&adult.artifact.model, &adult.artifact.schema);
    let mut feasible: Vec<(usize, Vec<usize>)> = attribute_sets(schema.len())
        .into_iter()
        .map(|s| (closure_cells(model, schema, &s), s))
        .filter(|(cells, _)| *cells <= DEFAULT_CELL_CAP)
        .collect();
    feasible.sort();
    let adult_pool = (0..ADULT_POOL)
        .map(|i| feasible[i * (feasible.len() - 1) / (ADULT_POOL - 1)].1.clone())
        .collect();

    // Evidence for conditional requests: a value of a non-root NLTCS
    // attribute with marginal probability at least 5%, which the sampler
    // answers by likelihood weighting.
    let (model, schema) = (&nltcs.artifact.model, &nltcs.artifact.schema);
    let mut evidence = Vec::new();
    for cond in model.conditionals.iter().filter(|c| !c.parents.is_empty()) {
        let marginal = theta_projection(model, schema, &[cond.child], DEFAULT_CELL_CAP)
            .expect("one-way NLTCS marginals are small");
        for (code, &p) in marginal.values().iter().enumerate() {
            if p >= 0.05 {
                evidence.push((cond.child, code as u32));
            }
        }
    }

    let mut draw = Draw::new(seed, 0x0048_4f54);
    let hot: Vec<u64> = (0..HOT_SEEDS).map(|_| draw.next() >> 32).collect();
    // Warm the cache with the hot seeds: replays are what they measure.
    let mut conn = Conn::open(running.addr()).expect("connect to the benchmark server");
    for &s in &hot {
        let reply =
            conn.send("POST", "/v1/models/adult/synth", &synth_body(s)).expect("warm a hot seed");
        assert_eq!(reply.code, 200, "warming hot seed {s}: {}", reply.text());
    }
    let nltcs_sets = attribute_sets(schema.len());
    Setup { running, adult, nltcs, nltcs_sets, adult_pool, evidence, hot }
}

fn synth_body(seed: u64) -> Vec<u8> {
    let spec = SynthSpec::new().with_rows(SYNTH_ROWS).with_seed(seed);
    spec.to_json().to_string_compact().expect("a spec renders").into_bytes()
}

impl Setup {
    /// One client's round: a fixed composition in an order drawn from the
    /// seed, with fresh request seeds.
    fn round(&self, seed: u64, client: usize, round: usize) -> Vec<Op> {
        let mut draw = Draw::new(seed, ((client as u64) << 32) | round as u64);
        let mut kinds: Vec<Kind> = Vec::new();
        for i in 0..SYNTH_PER_ROUND {
            let seed =
                if i < HOT_PER_ROUND { self.hot[draw.below(HOT_SEEDS)] } else { draw.next() >> 32 };
            kinds.push(Kind::Synth { seed });
        }
        for _ in 0..COND_PER_ROUND {
            let evidence = self.evidence[draw.below(self.evidence.len())];
            kinds.push(Kind::Cond { seed: draw.next() >> 32, evidence });
        }
        for (i, attrs) in self.nltcs_sets.iter().enumerate() {
            if i % CLIENTS == client {
                kinds.push(Kind::Query { adult: false, attrs: attrs.clone() });
            }
        }
        for (i, attrs) in self.adult_pool.iter().enumerate() {
            if i % CLIENTS == client {
                kinds.push(Kind::Query { adult: true, attrs: attrs.clone() });
            }
        }
        draw.shuffle(&mut kinds);
        kinds.into_iter().map(|kind| self.op(kind)).collect()
    }

    fn op(&self, kind: Kind) -> Op {
        let (path, body) = match &kind {
            Kind::Synth { seed } => ("/v1/models/adult/synth".to_string(), synth_body(*seed)),
            Kind::Cond { seed, evidence } => {
                let name = self.nltcs.artifact.schema.attribute(evidence.0).name();
                let spec = SynthSpec::new()
                    .with_rows(COND_ROWS)
                    .with_seed(*seed)
                    .where_eq(name, evidence.1);
                (
                    "/v1/models/nltcs/synth".to_string(),
                    spec.to_json().to_string_compact().expect("renders").into_bytes(),
                )
            }
            Kind::Query { adult, attrs } => {
                let entry = if *adult { &self.adult } else { &self.nltcs };
                let query = attrs.iter().fold(MarginalQuery::new(), |q, &a| {
                    q.over(entry.artifact.schema.attribute(a).name())
                });
                (
                    format!("/v1/models/{}/query", entry.id),
                    query.to_json().to_string_compact().expect("renders").into_bytes(),
                )
            }
        };
        Op { kind, path, body }
    }
}

/// Where the two clients meet between connections.
struct Pause {
    barrier: Barrier,
    /// Whether another round follows; client 0 decides at the end of each.
    more: AtomicBool,
}

/// One client's closed loop: whole rounds until the run length has passed
/// and the minimum round count is reached. Client 0 times the probe in the
/// pauses, while client 1 waits and no request is in flight.
fn client_loop(
    setup: &Setup,
    seed: u64,
    client: usize,
    seconds: f64,
    started: Instant,
    pause: &Pause,
) -> (Vec<Done>, Vec<f64>) {
    let addr = setup.running.addr();
    let mut probe = (client == 0).then(Probe::new);
    let mut done = Vec::new();
    let mut kept: std::collections::HashSet<(bool, Vec<usize>)> = Default::default();
    let mut round = 0;
    while pause.more.load(Ordering::SeqCst) {
        let mut conn = Conn::open(addr).expect("connect to the benchmark server");
        for op in setup.round(seed, client, round) {
            let reply = conn.send("POST", &op.path, &op.body);
            let (ms, ttfb_ms, ok, dg, body) = match reply {
                Ok(reply) => {
                    let lines = reply.body.iter().filter(|&&b| b == b'\n').count();
                    let ok = reply.code == 200
                        && match &op.kind {
                            Kind::Synth { .. } => lines == SYNTH_ROWS + 1,
                            Kind::Cond { .. } => lines == COND_ROWS + 1,
                            Kind::Query { .. } => true,
                        };
                    let body = match &op.kind {
                        Kind::Query { adult, attrs } if kept.insert((*adult, attrs.clone())) => {
                            Some(reply.body.clone())
                        }
                        _ => None,
                    };
                    let ms = reply.elapsed.as_secs_f64() * 1e3;
                    (ms, reply.ttfb.as_secs_f64() * 1e3, ok, digest(&reply.body), body)
                }
                Err(_) => {
                    conn = Conn::open(addr).expect("reconnect to the benchmark server");
                    (FAILED_MS, FAILED_MS, false, 0, None)
                }
            };
            let (ms, ttfb_ms) = if ok { (ms, ttfb_ms) } else { (FAILED_MS, FAILED_MS) };
            done.push(Done { op, ms, ttfb_ms, ok, digest: dg, body });
        }
        drop(conn);
        pause.barrier.wait();
        if let Some(probe) = probe.as_mut() {
            probe.time(PAUSE_PROBES);
            let more = round + 1 < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds;
            pause.more.store(more, Ordering::SeqCst);
        }
        pause.barrier.wait();
        round += 1;
    }
    (done, probe.map(Probe::into_samples).unwrap_or_default())
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (setup, setup_s) = repeated_setup(SETUP_REPEATS, || build(seed));
    let mut outcome = Outcome::default();
    outcome.e2e("setup_s", setup_s);

    let before = traced.then(|| scrape(setup.running.addr()));
    let started = Instant::now();
    let mut probes = Vec::new();
    let mut done: Vec<Done> = Vec::new();
    let pause = Pause { barrier: Barrier::new(CLIENTS), more: AtomicBool::new(true) };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (setup, pause) = (&setup, &pause);
                scope.spawn(move || client_loop(setup, seed, c, seconds, started, pause))
            })
            .collect();
        for w in workers {
            let (ops, samples) = w.join().expect("client thread");
            done.extend(ops);
            probes.extend(samples);
        }
    });
    let probe_ms = median(&probes);
    let wall = started.elapsed();
    outcome.e2e("peak_rss_mb", peak_rss_mb());
    let delta = before.map(|b| Delta::new(b, scrape(setup.running.addr())));

    let pick =
        |f: fn(&Kind) -> bool| -> Vec<&Done> { done.iter().filter(|d| f(&d.op.kind)).collect() };
    let synth = pick(|k| matches!(k, Kind::Synth { .. }));
    let cond = pick(|k| matches!(k, Kind::Cond { .. }));
    let query = pick(|k| matches!(k, Kind::Query { .. }));
    let ms = |ops: &[&Done]| -> Vec<f64> { ops.iter().map(|d| d.ms).collect() };
    let (synth_ms, cond_ms, query_ms) = (ms(&synth), ms(&cond), ms(&query));
    let cold: Vec<&Done> = synth
        .iter()
        .copied()
        .filter(|d| matches!(d.op.kind, Kind::Synth { seed } if !setup.hot.contains(&seed)))
        .collect();
    let cold_ms = ms(&cold);
    let ttfb: Vec<f64> = cold.iter().map(|d| d.ttfb_ms).collect();

    outcome.attempted = done.len() as u64;
    outcome.failed = done.iter().filter(|d| !d.ok).count() as u64;
    let enough =
        supports(synth.len(), 0.9) && supports(cond.len(), 0.5) && supports(query.len(), 0.99);
    outcome.gate(enough, || {
        format!(
            "too few ops: {} synth, {} conditional, {} queries",
            synth.len(),
            cond.len(),
            query.len()
        )
    });
    let p = |v: &[f64], q: f64| if v.is_empty() { FAILED_MS } else { percentile(v, q) };
    // The slot takes the cold requests: with a quarter of the requests
    // replayed from the cache in well under a millisecond, the median of
    // all of them falls between two modes and does not repeat run to run.
    outcome.latency("op1", "synth_cold_p50_ms", p(&cold_ms, 0.5), probe_ms);
    outcome.latency("op1_tail", "synth_cold_p90_ms", p(&cold_ms, 0.9), probe_ms);
    outcome.latency("op1_ttfb", "synth_cold_ttfb_p50_ms", p(&ttfb, 0.5), probe_ms);
    outcome.name("synth_p50_ms", p(&synth_ms, 0.5), "ms");
    outcome.name("synth_p90_ms", p(&synth_ms, 0.9), "ms");
    outcome.name(
        "synth_ttfb_p50_ms",
        p(&synth.iter().map(|d| d.ttfb_ms).collect::<Vec<_>>(), 0.5),
        "ms",
    );
    outcome.latency("op2", "cond_synth_p50_ms", p(&cond_ms, 0.5), probe_ms);
    outcome.latency("op3", "query_p50_ms", p(&query_ms, 0.5), probe_ms);
    outcome.latency("op3_tail", "query_p99_ms", p(&query_ms, 0.99), probe_ms);
    outcome.name("probe_ms", probe_ms, "ms");
    outcome.fact("synth_requests", synth.len());
    outcome.fact("cond_requests", cond.len());
    outcome.fact("queries", query.len());
    outcome.fact("measured_s", format!("{:.3}", wall.as_secs_f64()));

    verify(&setup, &done, &mut outcome);
    if let Some(delta) = delta {
        let all: Vec<f64> = done.iter().map(|d| d.ms).collect();
        delta.record(&mut outcome, mean(&all));
        trace(&setup, &done, &mut outcome, &cold_ms, probe_ms);
    }
    outcome
}

/// A stream's inputs: unconditional or not, seed, evidence.
type StreamInput = (bool, u64, Option<(usize, u32)>);
/// A query's inputs: Adult or NLTCS, attribute set.
type QueryKey = (bool, Vec<usize>);

/// The correctness gates: streamed bytes against the batch sampler and
/// `write_csv`, query answers bit for bit against the reference
/// θ-projection.
fn verify(setup: &Setup, done: &[Done], outcome: &mut Outcome) {
    let adult = setup.adult.sampler().expect("compiled at load");
    let nltcs = setup.nltcs.sampler().expect("compiled at load");
    // Expected digests per distinct input, computed on two threads.
    let mut inputs: Vec<StreamInput> = done
        .iter()
        .filter_map(|d| match d.op.kind {
            Kind::Synth { seed } => Some((true, seed, None)),
            Kind::Cond { seed, evidence } => Some((false, seed, Some(evidence))),
            Kind::Query { .. } => None,
        })
        .collect();
    inputs.sort_unstable();
    inputs.dedup();
    let expected: BTreeMap<StreamInput, u64> = std::thread::scope(|scope| {
        let halves: Vec<_> = inputs
            .chunks(inputs.len().div_ceil(2).max(1))
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&(synth, seed, ev)| {
                            let bytes = match ev {
                                None => replay::batch_csv(adult, SYNTH_ROWS, seed),
                                Some(e) => {
                                    replay::batch_conditional_csv(nltcs, COND_ROWS, &[e], seed)
                                }
                            };
                            ((synth, seed, ev), digest(&bytes))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves.into_iter().flat_map(|h| h.join().expect("verify thread")).collect()
    });
    let mut canonical: BTreeMap<QueryKey, (u64, &[u8])> = BTreeMap::new();
    for d in done.iter().filter(|d| d.ok) {
        if let (Kind::Query { adult, attrs }, Some(body)) = (&d.op.kind, &d.body) {
            canonical.entry((*adult, attrs.clone())).or_insert((digest(body), body));
        }
    }
    for d in done.iter().filter(|d| d.ok) {
        match &d.op.kind {
            Kind::Synth { seed } => outcome.gate(expected[&(true, *seed, None)] == d.digest, || {
                format!("synth seed {seed}: streamed bytes differ from sample_dataset + write_csv")
            }),
            Kind::Cond { seed, evidence } => {
                outcome.gate(expected[&(false, *seed, Some(*evidence))] == d.digest, || {
                    format!("conditional seed {seed}: streamed bytes differ from sample_conditional + write_csv")
                })
            }
            Kind::Query { adult, attrs } => {
                let (want, _) = canonical[&(*adult, attrs.clone())];
                outcome.gate(want == d.digest, || format!("query {attrs:?}: answers differ between requests"));
            }
        }
    }
    for ((adult, attrs), (_, body)) in &canonical {
        let entry = if *adult { &setup.adult } else { &setup.nltcs };
        let oracle =
            reference_theta_projection(&entry.artifact.model, &entry.artifact.schema, attrs);
        let served: Option<Vec<u64>> = std::str::from_utf8(body)
            .ok()
            .and_then(|t| Json::parse(t).ok())
            .and_then(|j| j.get("values").and_then(Json::as_array).map(|v| v.to_vec()))
            .and_then(|v| v.iter().map(|x| x.as_f64().map(f64::to_bits)).collect());
        let want: Vec<u64> = oracle.values().iter().map(|v| v.to_bits()).collect();
        outcome.gate(served.as_ref() == Some(&want), || {
            format!(
                "query {attrs:?} on {}: values are not bit-identical to reference_theta_projection",
                entry.id
            )
        });
    }
}

/// Replays every op through the layers with spans and derives the
/// per-layer metrics. Hot synth requests are answered from the row-block
/// cache, so their replay has no sampling or rendering to time.
fn trace(setup: &Setup, done: &[Done], outcome: &mut Outcome, op1_ms: &[f64], probe_ms: f64) {
    let mut tracer = Tracer::new(probe_ms);
    let adult = setup.adult.sampler().expect("compiled at load");
    let nltcs = setup.nltcs.sampler().expect("compiled at load");
    let (mut parsed_bytes, mut weighted, mut cond_ops) = (0usize, 0usize, 0usize);
    let (mut sampled_rows, mut cond_rows) = (0usize, 0usize);
    for (id, d) in done.iter().enumerate().filter(|(_, d)| d.ok) {
        let text = std::str::from_utf8(&d.op.body).expect("bodies are UTF-8");
        parsed_bytes += text.len();
        match &d.op.kind {
            Kind::Synth { seed } => {
                let op = tracer.begin_op(id as u64, "op.synth");
                tracer.layer(&op, "model.json.parse", || Json::parse(text)).expect("valid body");
                if !setup.hot.contains(seed) {
                    let spec = SampleSpec::rows(SYNTH_ROWS);
                    let (bytes, _) = replay::stream(
                        &mut tracer,
                        &op,
                        adult,
                        &spec,
                        *seed,
                        "core.sampler.sample",
                    );
                    sampled_rows += SYNTH_ROWS;
                    outcome.gate(digest(&bytes) == d.digest, || {
                        format!("replay of synth seed {seed} differs")
                    });
                }
                tracer.end_op(op);
            }
            Kind::Cond { seed, evidence } => {
                let op = tracer.begin_op(id as u64, "op.cond");
                tracer.layer(&op, "model.json.parse", || Json::parse(text)).expect("valid body");
                let (model, schema) = (&setup.nltcs.artifact.model, &setup.nltcs.artifact.schema);
                // The server's exact guard against impossible evidence.
                tracer
                    .layer(&op, "core.inference.evidence_guard", || {
                        theta_projection(model, schema, &[evidence.0], DEFAULT_CELL_CAP)
                    })
                    .expect("one-way NLTCS marginals are small");
                let spec = SampleSpec::rows(COND_ROWS).with_evidence(vec![*evidence]);
                let (bytes, lw) =
                    replay::stream(&mut tracer, &op, nltcs, &spec, *seed, "core.sampler.cond");
                tracer.end_op(op);
                cond_ops += 1;
                cond_rows += COND_ROWS;
                weighted += usize::from(lw);
                outcome.gate(digest(&bytes) == d.digest, || {
                    format!("replay of conditional seed {seed} differs")
                });
            }
            Kind::Query { adult, attrs } => {
                let entry = if *adult { &setup.adult } else { &setup.nltcs };
                let (model, schema) = (&entry.artifact.model, &entry.artifact.schema);
                let op = tracer.begin_op(id as u64, "op.query");
                tracer.layer(&op, "model.json.parse", || Json::parse(text)).expect("valid body");
                let table = tracer
                    .layer(&op, "core.inference.theta_projection", || {
                        theta_projection(model, schema, attrs, DEFAULT_CELL_CAP)
                    })
                    .expect("pool sets fit the cell cap");
                let rendered = tracer.layer(&op, "model.json.render", || {
                    query_answer(&entry.id, schema, attrs, &table)
                });
                // Variable elimination on the same set: not on the request
                // path today, timed for comparison.
                tracer
                    .layer(&op, "core.inference.model_marginal", || {
                        model_marginal(model, schema, attrs, DEFAULT_CELL_CAP)
                    })
                    .expect("pool sets fit the cell cap");
                tracer.end_op(op);
                outcome.gate(digest(rendered.as_bytes()) == d.digest, || {
                    format!(
                        "replay of query {attrs:?} on {} differs from the served answer",
                        entry.id
                    )
                });
            }
        }
    }
    let parse = tracer.durations("model.json.parse");
    outcome.layer("model.json.parse_ms", mean(&parse));
    outcome
        .layer("model.json.parse_mb_per_s", parsed_bytes as f64 / 1e3 / parse.iter().sum::<f64>());
    outcome.layer("model.json.parse_growth", growth(&parse));
    outcome.layer(
        "model.json.parse_share.op1",
        tracer.in_loop_ms(median(&tracer.durations_in("op.synth", "model.json.parse")))
            / percentile(op1_ms, 0.5),
    );
    outcome.layer(
        "core.sampler.rows_per_s",
        sampled_rows as f64 / (tracer.total_ms("core.sampler.sample") / 1e3),
    );
    outcome.layer(
        "core.sampler.cond_rows_per_s",
        cond_rows as f64 / (tracer.total_ms("core.sampler.cond") / 1e3),
    );
    outcome.layer("core.sampler.lw_share", weighted as f64 / cond_ops.max(1) as f64);
    let theta = tracer.durations("core.inference.theta_projection");
    outcome.layer("core.inference.theta_projection_p50_ms", percentile(&theta, 0.5));
    outcome.layer("core.inference.theta_projection_p99_ms", percentile(&theta, 0.99));
    outcome.layer(
        "core.inference.model_marginal_p50_ms",
        percentile(&tracer.durations("core.inference.model_marginal"), 0.5),
    );
    outcome.layer(
        "synth.spec.render_ms",
        tracer.total_ms("synth.spec.render") / ((sampled_rows + cond_rows) as f64 / 10_000.0),
    );
    let covering = [
        "model.json.parse",
        "model.json.render",
        "core.sampler.sample",
        "core.sampler.cond",
        "synth.spec.render",
        "core.inference.theta_projection",
        "core.inference.evidence_guard",
    ];
    let e2e = |op: u64| done[op as usize].ms;
    outcome.layer("trace.unattributed_share.op1", tracer.unattributed("op.synth", &covering, e2e));
    outcome.layer("trace.unattributed_share.op2", tracer.unattributed("op.cond", &covering, e2e));
    outcome.layer("trace.unattributed_share.op3", tracer.unattributed("op.query", &covering, e2e));
    crate::finish_trace(&tracer, outcome);
}

/// The server's query answer body, rendered as the server renders it.
fn query_answer(
    id: &str,
    schema: &Schema,
    attrs: &[usize],
    table: &privbayes_marginals::ContingencyTable,
) -> String {
    let names =
        attrs.iter().map(|&a| Json::String(schema.attribute(a).name().to_string())).collect();
    let dims = table.dims().iter().map(|&d| Json::from_usize(d)).collect();
    let values = table.values().iter().map(|&v| Json::Number(v)).collect();
    Json::object(vec![
        ("model", Json::String(id.to_string())),
        ("attrs", Json::Array(names)),
        ("dims", Json::Array(dims)),
        ("values", Json::Array(values)),
    ])
    .to_string_compact()
    .expect("an answer renders")
}
