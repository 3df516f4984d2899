//! `fit-publish`: the curator path. One client runs three ops in rotation:
//!
//! * op2, Adult publish: `read_csv` of the pre-rendered 45,222-row Adult
//!   CSV, `fit_method(privbayes)`, and `PUT /models/{id}` of the artifact,
//!   the calls `privbayes-cli fit` makes plus an upload;
//! * op3, NLTCS publish: the same with `privbayes-k`, k = 3, on the
//!   all-binary NLTCS table (the count engine's bit backend);
//! * op1, upload: `POST /fit` with a 2,000-row Adult CSV body, charging one
//!   of 1,000 tenants in a persisted ledger.

use std::sync::Arc;
use std::time::Instant;

use privbayes_data::csv::read_csv;
use privbayes_data::Dataset;
use privbayes_marginals::{CountEngine, EngineStats};
use privbayes_model::{schema_from_json, schema_to_json, Json};
use privbayes_server::{BudgetLedger, ModelRegistry, ServerConfig};
use privbayes_synth::{fit_method, FitSettings, Method};

use crate::common::{
    adult_corpus, csv_bytes, digest, fit_threads, nltcs_corpus, peak_rss_mb, repeated_setup, Draw,
    Probe, Running, Workdir, ADULT_ROWS,
};
use crate::http::Conn;
use crate::replay::{self, Structure};
use crate::report::Outcome;
use crate::scrape::{scrape, Delta};
use crate::stats::{mean, median, percentile, supports, FAILED_MS};
use crate::trace::Tracer;

const TENANTS: usize = 1_000;
const UPLOAD_ROWS: usize = 2_000;
const EPSILON: f64 = 1.0;
/// 20 rotations leave ten samples beyond each median.
const MIN_ROTATIONS: usize = 20;
/// Set-up builds per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
const NLTCS_K: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Upload,
    Adult,
    Nltcs,
}

/// One op's inputs, drawn from the workload seed and the rotation alone,
/// so the checks and the replay draw them again rather than keep them.
struct Input {
    kind: Kind,
    model_id: String,
    seed: u64,
    tenant: String,
    /// An upload's `POST /fit` body and the CSV inside it.
    upload: Option<(String, String)>,
}

struct Done {
    kind: Kind,
    rotation: usize,
    model_id: String,
    seed: u64,
    ms: f64,
    ttfb_ms: f64,
    ok: bool,
    /// Digest of the artifact the op published (publish ops) or the body
    /// it posted (uploads).
    sent: u64,
    /// Digest of the artifact the server registered under the op's id.
    registered: Option<u64>,
    tenant: String,
}

struct Setup {
    // Field order is drop order: the server stops before its ledger file
    // is removed.
    running: Running,
    _work: Workdir,
    adult: Dataset,
    adult_csv: Vec<u8>,
    nltcs_csv: Vec<u8>,
    nltcs_schema: privbayes_data::Schema,
}

fn tenant(i: usize) -> String {
    format!("tenant-{i:04}")
}

fn build() -> Setup {
    let adult = adult_corpus(ADULT_ROWS);
    let nltcs = nltcs_corpus();
    let (adult_csv, nltcs_csv) = (csv_bytes(&adult), csv_bytes(&nltcs));
    let work = Workdir::new("fit-publish");
    let ledger =
        BudgetLedger::with_persistence(work.path().join("ledger.json")).expect("open the ledger");
    for i in 0..TENANTS {
        ledger.register(&tenant(i), 1e6).expect("register a tenant");
    }
    let running =
        Running::start(ServerConfig::default(), Arc::new(ModelRegistry::new()), Arc::new(ledger));
    Setup {
        running,
        _work: work,
        nltcs_schema: nltcs.schema().clone(),
        adult,
        adult_csv,
        nltcs_csv,
    }
}

fn publish_settings() -> FitSettings {
    FitSettings {
        threads: Some(fit_threads()),
        comment: "fit-publish".into(),
        ..FitSettings::default()
    }
}

/// The settings the server fits an upload with.
fn upload_settings(tenant: &str) -> FitSettings {
    FitSettings {
        threads: Some(fit_threads()),
        comment: format!("fit via privbayes-server for tenant {tenant}"),
        ..FitSettings::default()
    }
}

impl Setup {
    /// The three ops of rotation `rotation`, in the order they run.
    fn rotation(&self, seed: u64, rotation: usize) -> [Input; 3] {
        let mut draw = Draw::new(seed, rotation as u64);
        [Kind::Adult, Kind::Nltcs, Kind::Upload].map(|kind| {
            let op_seed = draw.next() >> 32;
            let (model_id, tenant) = match kind {
                Kind::Adult => (format!("adult-{rotation}"), String::new()),
                Kind::Nltcs => (format!("nltcs-{rotation}"), String::new()),
                Kind::Upload => (format!("upload-{rotation}"), tenant(draw.below(TENANTS))),
            };
            let upload = (kind == Kind::Upload)
                .then(|| self.upload_body(&mut draw, &model_id, &tenant, op_seed));
            Input { kind, model_id, seed: op_seed, tenant, upload }
        })
    }

    /// The inputs of the op `d` ran, drawn again.
    fn input(&self, seed: u64, d: &Done) -> Input {
        let [adult, nltcs, upload] = self.rotation(seed, d.rotation);
        match d.kind {
            Kind::Adult => adult,
            Kind::Nltcs => nltcs,
            Kind::Upload => upload,
        }
    }

    /// A `POST /fit` body over `UPLOAD_ROWS` Adult rows drawn by `draw`,
    /// and the CSV inside it.
    fn upload_body(
        &self,
        draw: &mut Draw,
        model_id: &str,
        tenant: &str,
        seed: u64,
    ) -> (String, String) {
        let rows: Vec<usize> = (0..UPLOAD_ROWS).map(|_| draw.below(self.adult.n())).collect();
        let csv =
            String::from_utf8(csv_bytes(&self.adult.select_rows(&rows))).expect("CSV is UTF-8");
        let body = Json::object(vec![
            ("tenant", Json::String(tenant.to_string())),
            ("model_id", Json::String(model_id.to_string())),
            ("method", Json::String("privbayes".into())),
            ("epsilon", Json::Number(EPSILON)),
            ("seed", Json::from_usize(seed as usize)),
            ("schema", schema_to_json(self.adult.schema())),
            ("csv", Json::String(csv.clone())),
        ])
        .to_string_compact()
        .expect("a fit body renders");
        (body, csv)
    }

    /// Publish: read the CSV, fit, upload the artifact. Returns the op's
    /// latency, whether it succeeded, and the artifact.
    fn publish(
        &self,
        conn: &mut Conn,
        kind: Kind,
        model_id: &str,
        seed: u64,
    ) -> (f64, bool, String) {
        let started = Instant::now();
        let (csv, method, settings) = match kind {
            Kind::Adult => (&self.adult_csv, Method::PrivBayes, publish_settings()),
            _ => (
                &self.nltcs_csv,
                Method::PrivBayesK,
                FitSettings { fixed_k: NLTCS_K, ..publish_settings() },
            ),
        };
        let schema = if kind == Kind::Adult { self.adult.schema() } else { &self.nltcs_schema };
        let data = read_csv(schema, &csv[..]).expect("the corpus CSV reads back");
        let fitted = fit_method(method, &data, EPSILON, seed, &settings).expect("fit the corpus");
        let json = fitted.artifact.to_json_string().expect("an artifact renders");
        let ok = conn
            .send("PUT", &format!("/models/{model_id}"), json.as_bytes())
            .is_ok_and(|r| r.code == 201);
        (started.elapsed().as_secs_f64() * 1e3, ok, json)
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (setup, setup_s) = repeated_setup(SETUP_REPEATS, build);
    let mut outcome = Outcome::default();
    outcome.e2e("setup_s", setup_s);
    let addr = setup.running.addr();
    let before = traced.then(|| scrape(addr));
    let mut conn = Conn::open(addr).expect("connect to the benchmark server");
    let started = Instant::now();
    let mut done: Vec<Done> = Vec::new();
    let mut rotation = 0;
    let mut probe = Probe::new();
    let registry = &setup.running.registry;
    while rotation < MIN_ROTATIONS || started.elapsed().as_secs_f64() < seconds {
        for input in setup.rotation(seed, rotation) {
            // Between ops the one client waits for nothing and the server
            // is idle: a quiet window.
            probe.time(1);
            let Input { kind, model_id, seed: op_seed, tenant, upload } = input;
            let (ms, ttfb_ms, ok, sent) = if let Some((body, _)) = upload {
                let sent = digest(body.as_bytes());
                match conn.send("POST", "/fit", body.as_bytes()) {
                    Ok(reply) => (
                        reply.elapsed.as_secs_f64() * 1e3,
                        reply.ttfb.as_secs_f64() * 1e3,
                        reply.code == 201,
                        sent,
                    ),
                    Err(_) => {
                        conn = Conn::open(addr).expect("reconnect to the benchmark server");
                        (FAILED_MS, FAILED_MS, false, sent)
                    }
                }
            } else {
                let (ms, ok, json) = setup.publish(&mut conn, kind, &model_id, op_seed);
                (ms, ms, ok, digest(json.as_bytes()))
            };
            let (ms, ttfb_ms) = if ok { (ms, ttfb_ms) } else { (FAILED_MS, FAILED_MS) };
            // Keep the digest of what the server registered and evict the
            // model: the registry, and the memory it holds, stay the same
            // size however many rotations the host's speed lets a run fit.
            let registered = registry
                .get(&model_id)
                .and_then(|e| e.artifact.to_json_string().ok())
                .map(|json| digest(json.as_bytes()));
            let _ = registry.evict(&model_id);
            done.push(Done {
                kind,
                rotation,
                model_id,
                seed: op_seed,
                ms,
                ttfb_ms,
                ok,
                sent,
                registered,
                tenant,
            });
        }
        rotation += 1;
    }
    let wall = started.elapsed();
    outcome.e2e("peak_rss_mb", peak_rss_mb());
    let delta = before.map(|b| Delta::new(b, scrape(addr)));

    let ms =
        |kind: Kind| -> Vec<f64> { done.iter().filter(|d| d.kind == kind).map(|d| d.ms).collect() };
    let (upload, adult, nltcs) = (ms(Kind::Upload), ms(Kind::Adult), ms(Kind::Nltcs));
    let ttfb: Vec<f64> =
        done.iter().filter(|d| d.kind == Kind::Upload).map(|d| d.ttfb_ms).collect();
    outcome.attempted = done.len() as u64;
    outcome.failed = done.iter().filter(|d| !d.ok).count() as u64;
    outcome.gate(
        supports(upload.len(), 0.5) && supports(adult.len(), 0.5) && supports(nltcs.len(), 0.5),
        || format!("too few ops for a median: {} rotations", rotation),
    );
    let probe_ms = median(&probe.into_samples());
    outcome.latency("op1", "fit_upload_p50_ms", percentile(&upload, 0.5), probe_ms);
    outcome.latency("op1_tail", "fit_upload_p50_ms", percentile(&upload, 0.5), probe_ms);
    outcome.latency("op1_ttfb", "fit_upload_ttfb_p50_ms", percentile(&ttfb, 0.5), probe_ms);
    outcome.latency("op2", "fit_adult_p50_ms", percentile(&adult, 0.5), probe_ms);
    outcome.latency("op3", "fit_nltcs_p50_ms", percentile(&nltcs, 0.5), probe_ms);
    outcome.latency("op3_tail", "fit_nltcs_p50_ms", percentile(&nltcs, 0.5), probe_ms);
    outcome.name("probe_ms", probe_ms, "ms");
    outcome.fact("rotations", rotation);
    outcome.fact("measured_s", format!("{:.3}", wall.as_secs_f64()));

    verify(&setup, seed, &done, &mut outcome);
    if let Some(delta) = delta {
        let all: Vec<f64> = done.iter().map(|d| d.ms).collect();
        delta.record(&mut outcome, mean(&all));
        trace(&setup, seed, &done, &mut outcome, probe_ms);
    }
    outcome
}

/// The correctness gates: each published artifact is what the server
/// registered; each upload's artifact equals `fit_method` run on the same
/// CSV and seed; every upload charged its tenant exactly once.
fn verify(setup: &Setup, seed: u64, done: &[Done], outcome: &mut Outcome) {
    let mut uploads = 0.0;
    for d in done.iter().filter(|d| d.ok) {
        let expected = match d.kind {
            Kind::Adult | Kind::Nltcs => d.sent,
            Kind::Upload => {
                uploads += EPSILON;
                let input = setup.input(seed, d);
                let (_, csv) = input.upload.expect("an upload has a body");
                let data =
                    read_csv(setup.adult.schema(), csv.as_bytes()).expect("upload CSV reads");
                let json = fit_method(
                    Method::PrivBayes,
                    &data,
                    EPSILON,
                    d.seed,
                    &upload_settings(&d.tenant),
                )
                .expect("fit the upload locally")
                .artifact
                .to_json_string()
                .expect("an artifact renders");
                digest(json.as_bytes())
            }
        };
        outcome.gate(d.registered == Some(expected), || {
            format!("model `{}` differs from the artifact fitted from the same input", d.model_id)
        });
    }
    let spent: f64 = setup.running.ledger.snapshot().iter().map(|t| t.spent).sum();
    outcome.gate(spent == uploads, || format!("ledger spent {spent}, uploads charged {uploads}"));
}

/// Replays every op through the layers with spans: the CSV reader, the
/// count engine, greedy structure learning, noisy conditionals, the alias
/// compile, the JSON writer and parser, and a ledger charge on a persisted
/// ledger holding the workload's 1,000 tenants.
fn trace(setup: &Setup, seed: u64, done: &[Done], outcome: &mut Outcome, probe_ms: f64) {
    let work = Workdir::new("fit-publish-replay");
    let ledger =
        BudgetLedger::with_persistence(work.path().join("ledger.json")).expect("open the ledger");
    for i in 0..TENANTS {
        ledger.register(&tenant(i), 1e6).expect("register a tenant");
    }
    let register_ms: Vec<f64> = (0..20)
        .map(|i| {
            let started = Instant::now();
            ledger.register(&format!("probe-{i}"), 1.0).expect("register a probe tenant");
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    outcome.layer("server.ledger.register_ms", median(&register_ms));

    let mut tracer = Tracer::new(probe_ms);
    let mut stats: Vec<EngineStats> = Vec::new();
    let mut parsed_bytes = 0usize;
    for (id, d) in done.iter().enumerate().filter(|(_, d)| d.ok) {
        let (root, greedy, structure) = match d.kind {
            Kind::Adult => ("op.fit_adult", "core.greedy.adult", Structure::Adaptive),
            Kind::Nltcs => ("op.fit_nltcs", "core.greedy.nltcs", Structure::FixedK(NLTCS_K)),
            Kind::Upload => ("op.fit_upload", "core.greedy.adult", Structure::Adaptive),
        };
        let op = tracer.begin_op(id as u64, root);
        let (data, settings) = if d.kind == Kind::Upload {
            let (sent, _) = setup.input(seed, d).upload.expect("an upload has a body");
            parsed_bytes += sent.len();
            let body =
                tracer.layer(&op, "model.json.parse", || Json::parse(&sent)).expect("valid body");
            let schema = schema_from_json(body.get("schema").expect("body has a schema"))
                .expect("valid schema");
            let csv = body.get("csv").and_then(Json::as_str).expect("body has csv");
            let data = tracer
                .layer(&op, "data.csv.read", || read_csv(&schema, csv.as_bytes()))
                .expect("CSV reads");
            tracer
                .layer(&op, "server.ledger.charge", || ledger.charge(&d.tenant, EPSILON))
                .expect("charge");
            (data, upload_settings(&d.tenant))
        } else {
            let (csv, schema) = match d.kind {
                Kind::Adult => (&setup.adult_csv, setup.adult.schema()),
                _ => (&setup.nltcs_csv, &setup.nltcs_schema),
            };
            let data = tracer
                .layer(&op, "data.csv.read", || read_csv(schema, &csv[..]))
                .expect("CSV reads");
            let settings = match d.kind {
                Kind::Nltcs => FitSettings { fixed_k: NLTCS_K, ..publish_settings() },
                _ => publish_settings(),
            };
            (data, settings)
        };
        let engine = tracer.layer(&op, "marginals.engine.build", || CountEngine::new(&data));
        let artifact =
            replay::fit(&mut tracer, &op, &engine, structure, EPSILON, d.seed, &settings, greedy);
        stats.push(engine.stats());
        let json =
            tracer.layer(&op, "model.json.render", || artifact.to_json_string()).expect("renders");
        if d.kind != Kind::Upload {
            // The server parses the uploaded artifact.
            parsed_bytes += json.len();
            tracer.layer(&op, "model.json.parse", || Json::parse(&json)).expect("valid artifact");
        }
        tracer.end_op(op);
        outcome.gate(d.registered == Some(digest(json.as_bytes())), || {
            format!("replay of `{}` differs from the registered artifact", d.model_id)
        });
    }
    let parse = tracer.durations("model.json.parse");
    outcome.layer("model.json.parse_ms", mean(&parse));
    outcome
        .layer("model.json.parse_mb_per_s", parsed_bytes as f64 / 1e3 / parse.iter().sum::<f64>());
    outcome.layer(
        "model.json.parse_growth",
        crate::stats::growth(&tracer.durations_in("op.fit_upload", "model.json.parse")),
    );
    let upload_ms: Vec<f64> =
        done.iter().filter(|d| d.kind == Kind::Upload).map(|d| d.ms).collect();
    outcome.layer(
        "model.json.parse_share.op1",
        tracer.in_loop_ms(median(&tracer.durations_in("op.fit_upload", "model.json.parse")))
            / percentile(&upload_ms, 0.5),
    );
    outcome.layer("data.csv.read_ms", mean(&tracer.durations("data.csv.read")));
    outcome.layer("marginals.engine.build_ms", mean(&tracer.durations("marginals.engine.build")));
    record_engine(outcome, &stats);
    outcome.layer("core.greedy.adult_ms", mean(&tracer.durations("core.greedy.adult")));
    outcome.layer("core.greedy.nltcs_ms", mean(&tracer.durations("core.greedy.nltcs")));
    outcome.layer("core.conditionals.ms", mean(&tracer.durations("core.conditionals")));
    outcome.layer("core.sampler.compile_ms", mean(&tracer.durations("core.sampler.compile")));
    outcome.layer("server.ledger.charge_ms", median(&tracer.durations("server.ledger.charge")));
    let covering = [
        "model.json.parse",
        "model.json.render",
        "data.csv.read",
        "server.ledger.charge",
        "marginals.engine.build",
        "core.greedy.adult",
        "core.greedy.nltcs",
        "core.conditionals",
        "core.sampler.compile",
    ];
    let e2e = |op: u64| done[op as usize].ms;
    outcome.layer(
        "trace.unattributed_share.op1",
        tracer.unattributed("op.fit_upload", &covering, e2e),
    );
    outcome
        .layer("trace.unattributed_share.op2", tracer.unattributed("op.fit_adult", &covering, e2e));
    outcome
        .layer("trace.unattributed_share.op3", tracer.unattributed("op.fit_nltcs", &covering, e2e));
    crate::finish_trace(&tracer, outcome);
}

/// Per-fit means of the count engine's counters.
pub fn record_engine(outcome: &mut Outcome, stats: &[EngineStats]) {
    let per_fit = |f: fn(&EngineStats) -> f64| mean(&stats.iter().map(f).collect::<Vec<_>>());
    let (hits, projections, scans) = (
        per_fit(|s| s.hits as f64),
        per_fit(|s| s.projections as f64),
        per_fit(|s| s.scans as f64),
    );
    outcome.layer("marginals.engine.scans", scans);
    outcome.layer("marginals.engine.projections", projections);
    outcome.layer("marginals.engine.cache_hits", hits);
    outcome.layer("marginals.engine.hit_ratio", hits / (hits + projections + scans));
    outcome.layer("marginals.engine.bytes_materialized", per_fit(|s| s.bytes_materialized as f64));
}
