//! `ingest-refit`: writes beside reads. One connection posts 500-row Adult
//! CSV batches to `/v1/tenants/{t}/ingest` until 50,000 rows are journaled
//! on disk; the server refits under `RefitPolicy {min_rows: 5000}`, each
//! refit charged to the tenant's persisted ledger, so ten generations are
//! released and the last covers every row. Once the first generation is
//! servable the second connection streams cold 10,000-row synth from the
//! model being refit, always with fresh seeds.
//!
//! A run is one such cycle, sized by rows ingested rather than by
//! `--seconds`, because a batch costs more as history grows; a second
//! cycle would also carry the first one's tenant and models in memory.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use privbayes::sampler::SampleSpec;
use privbayes_data::Dataset;
use privbayes_marginals::{CountEngine, EngineStats};
use privbayes_model::{schema_to_json, Json};
use privbayes_server::{
    parse_batch, BatchFormat, BudgetLedger, Cursor, DatasetStore, GenerationLookup, ModelEntry,
    ModelRegistry, RefitPolicy, RefitSpec, ServerConfig, SynthSpec,
};
use privbayes_synth::{fit_method, FitSettings, Method};

use crate::common::{
    adult_corpus, csv_bytes, digest, fit_threads, peak_rss_mb, repeated_setup, Draw, Probe,
    Running, Workdir,
};
use crate::fit_publish::record_engine;
use crate::http::Conn;
use crate::replay::{self, Structure};
use crate::report::Outcome;
use crate::scrape::{scrape, Delta};
use crate::stats::{growth, mean, median, percentile, supports, FAILED_MS};
use crate::trace::Tracer;

const TOTAL_ROWS: usize = 50_000;
const BATCH_ROWS: usize = 500;
const REFIT_ROWS: u64 = 5_000;
/// A backstop far above the time 5,000 rows take to arrive: it only fires
/// if a batch lands while a refit job is being cut, which leaves fewer
/// than `REFIT_ROWS` pending after the last batch.
const REFIT_STALENESS: Duration = Duration::from_secs(5);
const SYNTH_ROWS: usize = 10_000;
const EPSILON: f64 = 1.0;
const SERVABLE_TIMEOUT: Duration = Duration::from_secs(60);
/// Set-up builds per run; `setup_s` is their median. The set-up is short,
/// so it takes many to give a steady median.
pub const SETUP_REPEATS: usize = 11;
/// Probe timings in each quiet window, before the first batch and after
/// the cycle's last generation is servable.
const QUIET_PROBES: usize = 40;

struct Setup {
    // Field order is drop order: the server stops before its journal and
    // ledger are removed.
    running: Running,
    _work: Workdir,
    /// The 50,000 rows in the order the seed gives them.
    rows: Dataset,
    fit_seed: u64,
}

fn build(seed: u64) -> Setup {
    let corpus = adult_corpus(TOTAL_ROWS);
    let mut order: Vec<usize> = (0..TOTAL_ROWS).collect();
    let mut draw = Draw::new(seed, 0x0049_4e47);
    draw.shuffle(&mut order);
    let rows = corpus.select_rows(&order);
    let work = Workdir::new("ingest-refit");
    let ledger =
        BudgetLedger::with_persistence(work.path().join("ledger.json")).expect("open the ledger");
    let config = ServerConfig {
        data_dir: Some(work.path().join("data")),
        refit: RefitPolicy { min_rows: REFIT_ROWS, max_staleness: Some(REFIT_STALENESS) },
        ..ServerConfig::default()
    };
    let running = Running::start(config, Arc::new(ModelRegistry::new()), Arc::new(ledger));
    Setup { running, _work: work, rows, fit_seed: draw.next() >> 32 }
}

/// The settings the server refits with.
fn refit_settings(tenant: &str) -> FitSettings {
    FitSettings {
        threads: Some(fit_threads()),
        comment: format!("refit via privbayes-server ingest for tenant {tenant}"),
        ..FitSettings::default()
    }
}

struct Batch {
    body: String,
    ms: f64,
    ttfb_ms: f64,
    ok: bool,
}

struct Synth {
    seed: u64,
    body: Vec<u8>,
    ms: f64,
    ok: bool,
    digest: u64,
    generation: u64,
}

struct Cycle {
    tenant: String,
    model: String,
    batches: Vec<Batch>,
    synth: Vec<Synth>,
    /// Host-probe times from the quiet windows around the cycle.
    probes: Vec<f64>,
    servable_ms: f64,
    /// Refits that succeeded during the cycle.
    refits: u64,
    /// Every generation a synth request was served from, plus the final
    /// one, kept alive for the checks.
    generations: BTreeMap<u64, Arc<ModelEntry>>,
}

impl Setup {
    /// The cycle's 100 batch bodies; the first names the schema and what
    /// the refits produce.
    fn bodies(&self, model: &str) -> Vec<String> {
        (0..TOTAL_ROWS / BATCH_ROWS)
            .map(|b| {
                let rows: Vec<usize> = (b * BATCH_ROWS..(b + 1) * BATCH_ROWS).collect();
                let csv =
                    String::from_utf8(csv_bytes(&self.rows.select_rows(&rows))).expect("UTF-8");
                let mut fields = vec![("csv", Json::String(csv))];
                if b == 0 {
                    fields.extend([
                        ("schema", schema_to_json(self.rows.schema())),
                        ("model_id", Json::String(model.to_string())),
                        ("method", Json::String("privbayes".into())),
                        ("epsilon", Json::Number(EPSILON)),
                        ("seed", Json::from_usize(self.fit_seed as usize)),
                    ]);
                }
                Json::object(fields).to_string_compact().expect("a batch body renders")
            })
            .collect()
    }

    fn cycle(&self, seed: u64, index: usize) -> Cycle {
        let (tenant, model) = (format!("tenant-{index}"), format!("live-{index}"));
        self.running.ledger.register(&tenant, 1e6).expect("register the tenant");
        let bodies = self.bodies(&model);
        let metrics = self.running.handle.as_ref().expect("server running").metrics();
        let refits_ok = metrics.registry().counter("privbayes_refits_total", &[("status", "ok")]);
        let refits_before = refits_ok.get();
        let addr = self.running.addr();
        let ingesting = AtomicBool::new(true);
        let generations: Mutex<BTreeMap<u64, Arc<ModelEntry>>> = Mutex::new(BTreeMap::new());
        let registry = &self.running.registry;
        let keep = |generation: u64| {
            if let GenerationLookup::Found(entry) = registry.get_generation(&model, generation) {
                generations.lock().expect("generation map").entry(generation).or_insert(entry);
            }
        };
        // Before the first batch and after the last refit nothing of the
        // program runs: the quiet windows in which the probe is timed.
        let mut probe = Probe::new();
        probe.time(QUIET_PROBES);
        let (batches, servable_ms, synth) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut conn = Conn::open(addr).expect("connect to the benchmark server");
                let mut draw = Draw::new(seed, 0x5359_4e00 + index as u64);
                let generations_path = format!("/v1/models/{model}/generations");
                while ingesting.load(Ordering::SeqCst)
                    && !conn.send("GET", &generations_path, b"").is_ok_and(|r| r.code == 200)
                {
                    std::thread::sleep(Duration::from_millis(5));
                }
                let mut done = Vec::new();
                while ingesting.load(Ordering::SeqCst) {
                    let seed = draw.next() >> 32;
                    let spec = SynthSpec::new().with_rows(SYNTH_ROWS).with_seed(seed);
                    let body = spec.to_json().to_string_compact().expect("renders").into_bytes();
                    let (ms, ok, dg, generation) =
                        match conn.send("POST", &format!("/v1/models/{model}/synth"), &body) {
                            Ok(r) => {
                                let generation = r
                                    .header("x-privbayes-cursor")
                                    .and_then(|c| Cursor::decode(c).ok())
                                    .and_then(|c| c.generation)
                                    .unwrap_or(0);
                                let lines = r.body.iter().filter(|&&b| b == b'\n').count();
                                let ok = r.code == 200 && lines == SYNTH_ROWS + 1;
                                (r.elapsed.as_secs_f64() * 1e3, ok, digest(&r.body), generation)
                            }
                            Err(_) => {
                                conn = Conn::open(addr).expect("reconnect to the benchmark server");
                                (FAILED_MS, false, 0, 0)
                            }
                        };
                    keep(generation);
                    done.push(Synth {
                        seed,
                        body,
                        ms: if ok { ms } else { FAILED_MS },
                        ok,
                        digest: dg,
                        generation,
                    });
                }
                done
            });
            let mut conn = Conn::open(addr).expect("connect to the benchmark server");
            let path = format!("/v1/tenants/{tenant}/ingest");
            let first_sent = Instant::now();
            let mut batches = Vec::with_capacity(bodies.len());
            for (i, body) in bodies.into_iter().enumerate() {
                let (ms, ttfb_ms, ok) = match conn.send("POST", &path, body.as_bytes()) {
                    Ok(r) => {
                        let total = Json::parse(r.text())
                            .ok()
                            .and_then(|j| j.get("total_rows")?.as_usize());
                        let ok = r.code == 200 && total == Some((i + 1) * BATCH_ROWS);
                        (r.elapsed.as_secs_f64() * 1e3, r.ttfb.as_secs_f64() * 1e3, ok)
                    }
                    Err(_) => {
                        conn = Conn::open(addr).expect("reconnect to the benchmark server");
                        (FAILED_MS, FAILED_MS, false)
                    }
                };
                let (ms, ttfb_ms) = if ok { (ms, ttfb_ms) } else { (FAILED_MS, FAILED_MS) };
                batches.push(Batch { body, ms, ttfb_ms, ok });
            }
            let generations_path = format!("/v1/models/{model}/generations");
            let servable_ms = loop {
                let covered =
                    conn.send("GET", &generations_path, b"").ok().and_then(|r| {
                        let json = Json::parse(r.text()).ok()?;
                        let list = json.get("generations")?.as_array()?.to_vec();
                        Some(list.iter().any(|g| {
                            g.get("source_rows").and_then(Json::as_usize) == Some(TOTAL_ROWS)
                        }))
                    });
                if covered == Some(true) {
                    break first_sent.elapsed().as_secs_f64() * 1e3;
                }
                if first_sent.elapsed() > SERVABLE_TIMEOUT {
                    break FAILED_MS;
                }
                std::thread::sleep(Duration::from_millis(2));
            };
            ingesting.store(false, Ordering::SeqCst);
            let synth = reader.join().expect("synth thread");
            (batches, servable_ms, synth)
        });
        probe.time(QUIET_PROBES);
        if let Some(entry) = registry.get(&model) {
            keep(entry.generation);
        }
        Cycle {
            refits: refits_ok.get() - refits_before,
            tenant,
            model,
            batches,
            synth,
            probes: probe.into_samples(),
            servable_ms,
            generations: generations.into_inner().expect("generation map"),
        }
    }
}

pub fn run(seed: u64, traced: bool) -> Outcome {
    let (setup, setup_s) = repeated_setup(SETUP_REPEATS, || build(seed));
    let mut outcome = Outcome::default();
    outcome.e2e("setup_s", setup_s);
    let addr = setup.running.addr();
    let before = traced.then(|| scrape(addr));
    let started = Instant::now();
    let cycles = vec![setup.cycle(seed, 0)];
    let wall = started.elapsed();
    outcome.e2e("peak_rss_mb", peak_rss_mb());
    let delta = before.map(|b| Delta::new(b, scrape(addr)));

    let ingest: Vec<f64> = cycles.iter().flat_map(|c| c.batches.iter().map(|b| b.ms)).collect();
    let ttfb: Vec<f64> = cycles.iter().flat_map(|c| c.batches.iter().map(|b| b.ttfb_ms)).collect();
    let synth: Vec<f64> = cycles.iter().flat_map(|c| c.synth.iter().map(|s| s.ms)).collect();
    let servable: Vec<f64> = cycles.iter().map(|c| c.servable_ms).collect();
    let ops = cycles.iter().map(|c| c.batches.len() + c.synth.len() + 1).sum::<usize>();
    let failed = cycles
        .iter()
        .map(|c| {
            c.batches.iter().filter(|b| !b.ok).count()
                + c.synth.iter().filter(|s| !s.ok).count()
                + usize::from(c.servable_ms >= FAILED_MS)
        })
        .sum::<usize>();
    outcome.attempted = ops as u64;
    outcome.failed = failed as u64;
    outcome.gate(supports(ingest.len(), 0.9) && supports(synth.len(), 0.5), || {
        format!("too few ops: {} batches, {} synth requests", ingest.len(), synth.len())
    });
    let p = |v: &[f64], q: f64| if v.is_empty() { FAILED_MS } else { percentile(v, q) };
    let probes: Vec<f64> = cycles.iter().flat_map(|c| c.probes.iter().copied()).collect();
    let probe_ms = median(&probes);
    outcome.latency("op1", "ingest_p50_ms", p(&ingest, 0.5), probe_ms);
    outcome.latency("op1_tail", "ingest_p90_ms", p(&ingest, 0.9), probe_ms);
    outcome.latency("op1_ttfb", "ingest_ttfb_p50_ms", p(&ttfb, 0.5), probe_ms);
    // The slot takes the p90: whether a request overlaps a batch's parse
    // or its journal fsync splits the synth latencies into two modes, and
    // the median falls between them.
    outcome.latency("op2", "synth_p90_ms", p(&synth, 0.9), probe_ms);
    outcome.name("synth_p50_ms", p(&synth, 0.5), "ms");
    outcome.latency("op3", "ingest_to_servable_ms", median(&servable), probe_ms);
    outcome.latency("op3_tail", "ingest_to_servable_ms", median(&servable), probe_ms);
    outcome.name("probe_ms", probe_ms, "ms");
    outcome.fact("cycles", cycles.len());
    outcome.fact("synth_requests", synth.len());
    outcome.fact("measured_s", format!("{:.3}", wall.as_secs_f64()));
    let rows: Vec<String> = cycles[0]
        .generations
        .values()
        .map(|e| e.artifact.metadata.source_rows.to_string())
        .collect();
    outcome.fact("generations_seen_rows", rows.join(" "));

    verify(&setup, &cycles, &mut outcome);
    if let Some(delta) = delta {
        let all: Vec<f64> = ingest.iter().chain(&synth).copied().collect();
        delta.record(&mut outcome, mean(&all));
        outcome.layer(
            "server.ingest.refits_ok",
            delta.counter("privbayes_refits_total", &[("status", "ok")]),
        );
        outcome.layer(
            "server.ingest.refits_failed",
            delta.counter("privbayes_refits_total", &[("status", "failed")]),
        );
        outcome.layer("server.ingest.refit_ms", delta.mean_ms("privbayes_fit_seconds", &[], None));
        trace(&setup, &cycles[0], &mut outcome, probe_ms);
    }
    outcome
}

/// The correctness gates: every streamed response equals the batch
/// sampler's bytes on the generation that served it; the final refit
/// equals a cold fit of all 50,000 rows; every refit was charged once.
fn verify(setup: &Setup, cycles: &[Cycle], outcome: &mut Outcome) {
    let jobs: Vec<(&Synth, Arc<ModelEntry>)> = cycles
        .iter()
        .flat_map(|c| {
            c.synth
                .iter()
                .filter(|s| s.ok)
                .map(move |s| (s, c.generations.get(&s.generation).cloned()))
        })
        .filter_map(|(s, e)| e.map(|e| (s, e)))
        .collect();
    let served = cycles.iter().map(|c| c.synth.iter().filter(|s| s.ok).count()).sum::<usize>();
    outcome.gate(jobs.len() == served, || {
        "a served generation was evicted before it could be checked".into()
    });
    let mismatches: usize = std::thread::scope(|scope| {
        let halves: Vec<_> = jobs
            .chunks(jobs.len().div_ceil(2).max(1))
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .filter(|(s, entry)| {
                            let sampler = entry.sampler().expect("served generations compile");
                            digest(&replay::batch_csv(sampler, SYNTH_ROWS, s.seed)) != s.digest
                        })
                        .count()
                })
            })
            .collect();
        halves.into_iter().map(|h| h.join().expect("verify thread")).sum()
    });
    outcome.gate(mismatches == 0, || {
        format!("{mismatches} streams differ from sample_dataset + write_csv")
    });

    let registry = &setup.running.registry;
    for c in cycles {
        let cold = fit_method(
            Method::PrivBayes,
            &setup.rows,
            EPSILON,
            setup.fit_seed,
            &refit_settings(&c.tenant),
        )
        .expect("cold fit of every row")
        .artifact
        .to_json_string()
        .expect("renders");
        let last = registry.get(&c.model).and_then(|e| e.artifact.to_json_string().ok());
        outcome.gate(last.as_deref() == Some(cold.as_str()), || {
            format!(
                "`{}`: the final refit differs from a cold fit of all {TOTAL_ROWS} rows",
                c.model
            )
        });
        let spent = setup.running.ledger.budget(&c.tenant).map_or(0.0, |b| b.spent);
        outcome.gate(c.refits > 0 && spent == c.refits as f64 * EPSILON, || {
            format!("{}: {} refits succeeded but {spent} ε was charged", c.tenant, c.refits)
        });
        outcome.fact(&format!("refits_{}", c.tenant), c.refits);
    }
}

/// Replays the first cycle through the layers with spans: per batch the
/// JSON parser, the batch reader and `DatasetStore::append` on a journaled
/// store at the same history (with `CountEngine::append` timed beside it);
/// each observed refit through the engine-taking fit layers; each synth
/// request through the sampler and renderer.
fn trace(setup: &Setup, cycle: &Cycle, outcome: &mut Outcome, probe_ms: f64) {
    let work = Workdir::new("ingest-refit-replay");
    let store = DatasetStore::open(work.path().join("data")).expect("open the replay store");
    let journal = work.path().join("data").join(format!("{}.dataset.json", cycle.tenant));
    let spec = RefitSpec {
        model_id: cycle.model.clone(),
        method: Method::PrivBayes,
        epsilon: EPSILON,
        seed: setup.fit_seed,
    };
    let refit_rows: BTreeMap<usize, &Arc<ModelEntry>> =
        cycle.generations.values().map(|e| (e.artifact.metadata.source_rows, e)).collect();
    let schema = setup.rows.schema();
    let mut tracer = Tracer::new(probe_ms);
    let mut engine: Option<CountEngine> = None;
    let (mut parsed_bytes, mut batch_bytes, mut journal_bytes) = (0usize, 0u64, 0u64);
    let mut stats: Vec<EngineStats> = Vec::new();
    let mut refit_ms = 0.0;
    let settings = refit_settings(&cycle.tenant);
    // Each op's end-to-end time, by op id.
    let mut e2e_of: Vec<f64> = Vec::new();
    for (i, b) in cycle.batches.iter().enumerate() {
        let op = tracer.begin_op(e2e_of.len() as u64, "op.ingest");
        e2e_of.push(b.ms);
        parsed_bytes += b.body.len();
        let json =
            tracer.layer(&op, "model.json.parse", || Json::parse(&b.body)).expect("valid body");
        let csv = json.get("csv").and_then(Json::as_str).expect("body has csv");
        batch_bytes += csv.len() as u64;
        let batch = tracer
            .layer(&op, "data.csv.read", || parse_batch(schema, BatchFormat::Csv, csv))
            .expect("valid batch");
        let refit = (i == 0).then_some(&spec);
        tracer
            .layer(&op, "server.ingest.append", || store.append(&cycle.tenant, &batch, refit))
            .expect("append");
        journal_bytes += std::fs::metadata(&journal).map_or(0, |m| m.len());
        match engine.as_mut() {
            None => engine = Some(CountEngine::new(&batch)),
            Some(e) => tracer.layer(&op, "marginals.engine.append", || e.append(&batch)),
        }
        tracer.end_op(op);
        let total = (i + 1) * BATCH_ROWS;
        if let Some(entry) = refit_rows.get(&total) {
            let op = tracer.begin_op(e2e_of.len() as u64, "op.refit");
            e2e_of.push(0.0);
            let started = Instant::now();
            let (artifact, before, after) = store
                .with_engine(&cycle.tenant, |e| {
                    let before = e.stats();
                    let artifact = replay::fit(
                        &mut tracer,
                        &op,
                        e,
                        Structure::Adaptive,
                        EPSILON,
                        setup.fit_seed,
                        &settings,
                        "core.greedy.adult",
                    );
                    (artifact, before, e.stats())
                })
                .expect("the tenant exists");
            refit_ms = started.elapsed().as_secs_f64() * 1e3;
            tracer.end_op(op);
            stats.push(EngineStats {
                hits: after.hits - before.hits,
                projections: after.projections - before.projections,
                scans: after.scans - before.scans,
                bytes_materialized: after.bytes_materialized - before.bytes_materialized,
                ..after
            });
            let (want, got) =
                (entry.artifact.to_json_string().ok(), artifact.to_json_string().ok());
            outcome.gate(want.is_some() && want == got, || {
                format!("replayed refit at {total} rows differs")
            });
        }
    }
    for s in cycle.synth.iter().filter(|s| s.ok) {
        let Some(entry) = cycle.generations.get(&s.generation) else { continue };
        let op = tracer.begin_op(e2e_of.len() as u64, "op.synth");
        e2e_of.push(s.ms);
        let text = std::str::from_utf8(&s.body).expect("UTF-8");
        parsed_bytes += text.len();
        tracer.layer(&op, "model.json.parse", || Json::parse(text)).expect("valid body");
        let sampler = entry.sampler().expect("compiled");
        let (bytes, _) = replay::stream(
            &mut tracer,
            &op,
            sampler,
            &SampleSpec::rows(SYNTH_ROWS),
            s.seed,
            "core.sampler.sample",
        );
        tracer.end_op(op);
        outcome.gate(digest(&bytes) == s.digest, || {
            format!("replay of synth seed {} differs", s.seed)
        });
    }
    let parse = tracer.durations("model.json.parse");
    outcome.layer("model.json.parse_ms", mean(&parse));
    outcome
        .layer("model.json.parse_mb_per_s", parsed_bytes as f64 / 1e3 / parse.iter().sum::<f64>());
    let batch_parse = tracer.durations_in("op.ingest", "model.json.parse");
    outcome.layer("model.json.parse_growth", growth(&batch_parse));
    let ingest_ms: Vec<f64> = cycle.batches.iter().map(|b| b.ms).collect();
    outcome.layer(
        "model.json.parse_share.op1",
        tracer.in_loop_ms(median(&batch_parse)) / percentile(&ingest_ms, 0.5),
    );
    outcome.layer("data.csv.read_ms", mean(&tracer.durations("data.csv.read")));
    outcome.layer("marginals.engine.append_ms", mean(&tracer.durations("marginals.engine.append")));
    let append = tracer.durations("server.ingest.append");
    outcome.layer("server.ingest.append_ms", mean(&append));
    outcome.layer("server.ingest.append_growth", growth(&append));
    outcome
        .layer("server.ingest.bytes_written_per_byte", journal_bytes as f64 / batch_bytes as f64);
    record_engine(outcome, &stats);
    outcome.layer("core.greedy.adult_ms", mean(&tracer.durations("core.greedy.adult")));
    outcome.layer("core.conditionals.ms", mean(&tracer.durations("core.conditionals")));
    outcome.layer("core.sampler.compile_ms", mean(&tracer.durations("core.sampler.compile")));
    let sampled = cycle.synth.iter().filter(|s| s.ok).count() * SYNTH_ROWS;
    outcome.layer(
        "core.sampler.rows_per_s",
        sampled as f64 / (tracer.total_ms("core.sampler.sample") / 1e3),
    );
    outcome.layer(
        "synth.spec.render_ms",
        tracer.total_ms("synth.spec.render") / (sampled as f64 / 10_000.0),
    );
    ledger_probe(&work, outcome);

    let covering = [
        "model.json.parse",
        "data.csv.read",
        "server.ingest.append",
        "core.sampler.sample",
        "synth.spec.render",
    ];
    let e2e = |op: u64| e2e_of[op as usize];
    outcome.layer("trace.unattributed_share.op1", tracer.unattributed("op.ingest", &covering, e2e));
    outcome.layer("trace.unattributed_share.op2", tracer.unattributed("op.synth", &covering, e2e));
    // Ingest to servable: every batch's layers plus the final refit.
    let batches_ms: f64 = ["model.json.parse", "data.csv.read", "server.ingest.append"]
        .iter()
        .map(|n| tracer.durations_in("op.ingest", n).iter().sum::<f64>())
        .sum();
    let covered = tracer.in_loop_ms(batches_ms + refit_ms);
    outcome.layer("trace.unattributed_share.op3", (1.0 - covered / cycle.servable_ms).max(0.0));
    crate::finish_trace(&tracer, outcome);
}

/// `BudgetLedger::charge` and `register` on a persisted ledger holding the
/// workload's one tenant.
fn ledger_probe(work: &Workdir, outcome: &mut Outcome) {
    let ledger =
        BudgetLedger::with_persistence(work.path().join("ledger.json")).expect("open the ledger");
    ledger.register("tenant-0", 1e6).expect("register");
    let time = |f: &mut dyn FnMut()| {
        let started = Instant::now();
        f();
        started.elapsed().as_secs_f64() * 1e3
    };
    let charge: Vec<f64> =
        (0..20).map(|_| time(&mut || drop(ledger.charge("tenant-0", EPSILON)))).collect();
    let register: Vec<f64> = (0..20)
        .map(|i| time(&mut || ledger.register(&format!("probe-{i}"), 1.0).expect("register")))
        .collect();
    outcome.layer("server.ledger.charge_ms", median(&charge));
    outcome.layer("server.ledger.register_ms", median(&register));
}
