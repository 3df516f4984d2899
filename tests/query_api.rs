//! The query-API tier: the v2 request surface end to end.
//!
//! 1. **Conditional sampling** — `CompiledSampler` draws conditioned on
//!    evidence are cross-checked against the exact conditionals of
//!    `privbayes::inference` on small networks (TVD below tolerance at a
//!    fixed seed), for evidence on roots, leaves, several attributes, and
//!    rare evidence; impossible or oversized evidence is refused up front.
//!    Unconditional and ancestrally closed streams keep pinned digests.
//! 2. **Projection** — projected streams are byte-equivalent to sampling
//!    everything and dropping columns afterwards.
//! 3. **Cursor resume** — an interrupted `/v1` stream resumed from a cursor
//!    concatenates byte-identically to an uninterrupted one.
//! 4. **Marginal queries** — `/v1/models/{id}/query` answers are
//!    bit-identical to the independent θ-projection oracle in
//!    `privbayes_bench::reference`.
//! 5. **Error shape** — spec mistakes come back `400` with the structured
//!    `invalid-spec` body; every response carries `Content-Type` and
//!    `X-PrivBayes-Api: v1`.

use std::sync::Arc;

use privbayes_bench::reference::reference_theta_projection;
use privbayes_suite::core::conditionals::{noisy_conditionals_general, Conditional, NoisyModel};
use privbayes_suite::core::inference::{model_conditional, DEFAULT_CELL_CAP};
use privbayes_suite::core::network::{ApPair, BayesianNetwork};
use privbayes_suite::core::{CompiledSampler, PrivBayesError, SampleSpec, CHUNK_ROWS};
use privbayes_suite::data::{Attribute, Dataset, Schema};
use privbayes_suite::marginals::{total_variation, Axis, ContingencyTable};
use privbayes_suite::model::{Json, ModelMetadata, ReleasedModel};
use privbayes_suite::server::{
    BudgetLedger, Client, Cursor, MarginalQuery, ModelRegistry, Server, ServerConfig, ServerError,
    SynthSpec,
};
use privbayes_suite::synth::RowFormat;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A 3-attribute chain model (a → b → c with c depending on both) fit
/// noise-free-ish on correlated data, wrapped as a release artifact.
fn chain_artifact(seed: u64) -> ReleasedModel {
    let schema = Schema::new(vec![
        Attribute::binary("smoker"),
        Attribute::binary("cough"),
        Attribute::categorical_labelled("region", ["north", "south", "west"]).unwrap(),
    ])
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<u32>> = (0..4000)
        .map(|_| {
            let a = rng.random_range(0..2u32);
            let b = if rng.random::<f64>() < 0.8 { a } else { 1 - a };
            let c = (a + b + u32::from(rng.random::<f64>() < 0.3)) % 3;
            vec![a, b, c]
        })
        .collect();
    let data = Dataset::from_rows(schema, &rows).unwrap();
    let net = BayesianNetwork::new(
        vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0]), ApPair::new(2, vec![0, 1])],
        data.schema(),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let model = noisy_conditionals_general(&data, &net, Some(2.0), &mut rng).unwrap();
    ReleasedModel::new(
        ModelMetadata {
            method: "privbayes".into(),
            epsilon: 2.0,
            beta: 0.3,
            theta: 4.0,
            score: "R".into(),
            encoding: "vanilla".into(),
            source_rows: data.n(),
            comment: "query api fixture".into(),
        },
        data.schema().clone(),
        model,
    )
    .unwrap()
}

/// A hand-built two-attribute model `a → b` with `Pr[a] = root` and
/// `Pr[b | a] = leaf` (row-major over `a`).
fn two_node_artifact(root: [f64; 2], leaf: [f64; 4], comment: &str) -> ReleasedModel {
    let schema = Schema::new(vec![Attribute::binary("a"), Attribute::binary("b")]).unwrap();
    let net = BayesianNetwork::new(vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0])], &schema)
        .unwrap();
    let model = NoisyModel {
        network: net,
        conditionals: vec![
            Conditional {
                child: 0,
                parents: vec![],
                parent_dims: vec![],
                child_dim: 2,
                probs: root.to_vec(),
            },
            Conditional {
                child: 1,
                parents: vec![Axis::raw(0)],
                parent_dims: vec![2],
                child_dim: 2,
                probs: leaf.to_vec(),
            },
        ],
    };
    hand_built(schema, model, comment)
}

/// Wraps a hand-built model as a release artifact.
fn hand_built(schema: Schema, model: NoisyModel, comment: &str) -> ReleasedModel {
    ReleasedModel::new(
        ModelMetadata {
            method: "privbayes".into(),
            epsilon: 1.0,
            beta: 0.3,
            theta: 4.0,
            score: "R".into(),
            encoding: "vanilla".into(),
            source_rows: 100,
            comment: comment.into(),
        },
        schema,
        model,
    )
    .unwrap()
}

/// The leaf value `b = 1` is rare: `Pr[b = 1] = 0.7·0.002 + 0.3·0.022 =
/// 0.008`, and the exact posterior is `Pr[a = 1 | b = 1] = 0.0066/0.008 =
/// 0.825` against the prior 0.3.
fn rare_leaf_artifact() -> ReleasedModel {
    two_node_artifact([0.7, 0.3], [0.998, 0.002, 0.978, 0.022], "rare-evidence fixture")
}

/// The leaf value `b = 1` has `Pr[b = 1] = 0.99·1e-6 + 0.01·1e-3 ≈
/// 1.1e-5`, and the exact posterior is `Pr[a = 1 | b = 1] ≈ 0.91` against
/// the prior 0.01.
fn very_rare_leaf_artifact() -> ReleasedModel {
    two_node_artifact([0.99, 0.01], [1.0 - 1e-6, 1e-6, 0.999, 0.001], "1e-5 evidence fixture")
}

/// `Pr[a = 1] = 0` and `Pr[b = 1] = 0` exactly — zero-probability evidence
/// on a root and on a leaf with a free ancestor.
fn zero_mass_artifact() -> ReleasedModel {
    two_node_artifact([1.0, 0.0], [1.0, 0.0, 0.5, 0.5], "zero-mass fixture")
}

/// Four roots `x0..x3` over 170 codes, and four binary children `e_i` of
/// `(x_i, x_{i+1 mod 4})`. Evidence on every `e_i` leaves the roots on a
/// cycle of pairwise factors: eliminating any root joins a factor over
/// three of them, 170³ ≈ 4.9M cells, past `DEFAULT_CELL_CAP`.
fn cycle_artifact() -> ReleasedModel {
    const N: usize = 170;
    let mut attrs: Vec<Attribute> =
        (0..4).map(|i| Attribute::categorical(format!("x{i}"), N).unwrap()).collect();
    attrs.extend((0..4).map(|i| Attribute::binary(format!("e{i}"))));
    let schema = Schema::new(attrs).unwrap();
    let mut pairs: Vec<ApPair> = (0..4).map(|i| ApPair::new(i, vec![])).collect();
    pairs.extend((0..4).map(|i| ApPair::new(4 + i, vec![i, (i + 1) % 4])));
    let net = BayesianNetwork::new(pairs, &schema).unwrap();
    let mut conditionals: Vec<Conditional> = (0..4)
        .map(|i| Conditional {
            child: i,
            parents: vec![],
            parent_dims: vec![],
            child_dim: N,
            probs: vec![1.0 / N as f64; N],
        })
        .collect();
    conditionals.extend((0..4).map(|i| {
        Conditional {
            child: 4 + i,
            parents: vec![Axis::raw(i), Axis::raw((i + 1) % 4)],
            parent_dims: vec![N, N],
            child_dim: 2,
            probs: (0..N * N)
                .flat_map(|cell| {
                    let p = (cell % 7 + 1) as f64 / 10.0;
                    [1.0 - p, p]
                })
                .collect(),
        }
    }));
    hand_built(schema, NoisyModel { network: net, conditionals }, "cell-cap fixture")
}

/// Evidence `e_i = 1` on every child of [`cycle_artifact`].
const CYCLE_EVIDENCE: [(usize, u32); 4] = [(4, 1), (5, 1), (6, 1), (7, 1)];

/// FNV-1a (64-bit) of the CSV bytes a server streams for `spec`: the
/// header (unless resumed), then every chunk rendered.
fn csv_digest(sampler: &CompiledSampler, spec: &SampleSpec, seed: u64) -> u64 {
    let schema = sampler.schema();
    let projection = spec.projection.as_deref();
    let mut bytes = Vec::new();
    if spec.start_row == 0 {
        bytes.extend_from_slice(RowFormat::Csv.header(schema, projection).as_bytes());
    }
    for chunk in sampler.stream_spec(spec, &mut StdRng::seed_from_u64(seed)).unwrap() {
        bytes.extend_from_slice(RowFormat::Csv.render(schema, projection, &chunk).as_bytes());
    }
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn start_server() -> (privbayes_suite::server::ServerHandle, Client) {
    let registry = Arc::new(ModelRegistry::new());
    registry.load("m", chain_artifact(11)).unwrap();
    registry.load("z", zero_mass_artifact()).unwrap();
    registry.load("cycle", cycle_artifact()).unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig { workers: 4, fit_threads: Some(1), ..ServerConfig::default() },
        registry,
        Arc::new(BudgetLedger::in_memory()),
    )
    .unwrap();
    let handle = server.spawn();
    let client = Client::new(handle.addr().to_string());
    (handle, client)
}

#[test]
fn clamped_conditional_draws_match_exact_inference() {
    // Evidence on the root attribute: the evidence set is ancestrally
    // closed, so clamped ancestral sampling is exact — only Monte-Carlo
    // error remains.
    let artifact = chain_artifact(3);
    let sampler = artifact.compiled().unwrap();
    let sample =
        sampler.sample_conditional(30_000, &[(0, 1)], &mut StdRng::seed_from_u64(5)).unwrap();
    assert!(sample.column(0).iter().all(|&v| v == 1), "evidence must clamp");
    let got = ContingencyTable::from_dataset(&sample, &[Axis::raw(1), Axis::raw(2)]);
    let want =
        model_conditional(&artifact.model, &artifact.schema, &[1, 2], &[(0, 1)], DEFAULT_CELL_CAP)
            .unwrap();
    let tvd = total_variation(got.values(), want.values());
    assert!(tvd < 0.02, "clamp-exact conditional must match inference, tvd = {tvd}");
}

#[test]
fn posterior_conditional_draws_match_exact_inference() {
    // Evidence on the leaf conditions its ancestors — the Bayes-inversion
    // direction — and evidence on two children shares the free root
    // `smoker` between them. Draws come from the compiled evidence buckets,
    // so only Monte-Carlo error remains.
    let artifact = chain_artifact(7);
    let sampler = artifact.compiled().unwrap();
    for (evidence, targets) in [(vec![(2, 2)], vec![0, 1]), (vec![(1, 0), (2, 2)], vec![0])] {
        let sample =
            sampler.sample_conditional(30_000, &evidence, &mut StdRng::seed_from_u64(13)).unwrap();
        for &(attr, code) in &evidence {
            assert!(sample.column(attr).iter().all(|&v| v == code), "evidence must clamp");
        }
        let axes: Vec<Axis> = targets.iter().map(|&a| Axis::raw(a)).collect();
        let got = ContingencyTable::from_dataset(&sample, &axes);
        let want = model_conditional(
            &artifact.model,
            &artifact.schema,
            &targets,
            &evidence,
            DEFAULT_CELL_CAP,
        )
        .unwrap();
        let tvd = total_variation(got.values(), want.values());
        assert!(tvd < 0.02, "evidence {evidence:?}: conditional must match inference, tvd = {tvd}");
    }
}

#[test]
fn posterior_conditional_stays_calibrated_under_rare_evidence() {
    // Evidence rarer than one hit per 64 forward draws, down to ~1e-5. A
    // sampler that falls back to unconditioned draws of the ancestors
    // returns the *prior* instead of the posterior; here the two are far
    // apart (TVD 0.525 and ~0.9), so drifting toward the prior trips the
    // tolerance immediately. Monte-Carlo error at 40 000 rows is ~0.003.
    for (artifact, seed) in [(rare_leaf_artifact(), 29), (very_rare_leaf_artifact(), 31)] {
        // Confirm the fixture really is in the rare regime.
        let marginal =
            model_conditional(&artifact.model, &artifact.schema, &[1], &[], DEFAULT_CELL_CAP)
                .unwrap();
        let p_evidence = marginal.values()[1];
        assert!(p_evidence < 1.0 / 64.0, "fixture must be rarer than 1/64, Pr = {p_evidence}");

        let sampler = artifact.compiled().unwrap();
        let sample = sampler
            .sample_conditional(40_000, &[(1, 1)], &mut StdRng::seed_from_u64(seed))
            .unwrap();
        assert!(sample.column(1).iter().all(|&v| v == 1), "evidence must clamp");
        let got = ContingencyTable::from_dataset(&sample, &[Axis::raw(0)]);
        let want =
            model_conditional(&artifact.model, &artifact.schema, &[0], &[(1, 1)], DEFAULT_CELL_CAP)
                .unwrap();
        let tvd = total_variation(got.values(), want.values());
        assert!(tvd < 0.02, "Pr = {p_evidence}: conditional must track the posterior, tvd = {tvd}");
        let prior =
            model_conditional(&artifact.model, &artifact.schema, &[0], &[], DEFAULT_CELL_CAP)
                .unwrap();
        let tvd_prior = total_variation(got.values(), prior.values());
        assert!(
            tvd_prior > 10.0 * tvd.max(0.01),
            "draws must not drift toward the prior: tvd(posterior) = {tvd}, tvd(prior) = {tvd_prior}"
        );
    }
}

#[test]
fn impossible_or_oversized_evidence_is_refused_before_streaming() {
    for (artifact, evidence) in [
        (zero_mass_artifact(), vec![(0, 1)]),
        (zero_mass_artifact(), vec![(1, 1)]),
        (cycle_artifact(), CYCLE_EVIDENCE.to_vec()),
    ] {
        let spec = SampleSpec::rows(10).with_evidence(evidence.clone());
        let err = artifact
            .compiled()
            .unwrap()
            .stream_spec(&spec, &mut StdRng::seed_from_u64(1))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, PrivBayesError::InvalidConfig(_)), "evidence {evidence:?}: {err}");
    }
}

#[test]
fn unconditional_and_ancestrally_closed_streams_keep_their_bytes() {
    // Digests of the streams as they were before evidence was compiled by
    // bucket elimination: streams without a free closure variable draw
    // exactly what they drew then.
    let artifact = chain_artifact(11);
    let sampler = artifact.compiled().unwrap();
    let rows = 2 * CHUNK_ROWS + 137;
    let closed_resumed = SampleSpec::rows(rows)
        .with_evidence(vec![(0, 0)])
        .with_projection(vec![2, 1])
        .with_start_row(1100);
    for (spec, seed, digest) in [
        (SampleSpec::rows(rows), 9, 0x8343_ce18_f908_bac6),
        (SampleSpec::rows(rows).with_evidence(vec![(0, 1)]), 77, 0x08ea_9a41_9feb_c85e),
        (closed_resumed, 5, 0x5fa8_b9d1_928c_0cf1),
    ] {
        assert_eq!(csv_digest(sampler, &spec, seed), digest, "{spec:?}");
    }
}

#[test]
fn posterior_streams_resume_and_skip_chunks_as_exact_suffixes() {
    let artifact = chain_artifact(11);
    let sampler = artifact.compiled().unwrap();
    let spec = SampleSpec::rows(2 * CHUNK_ROWS + 137).with_evidence(vec![(2, 2)]);
    let full: Vec<Vec<Vec<u32>>> =
        sampler.stream_spec(&spec, &mut StdRng::seed_from_u64(77)).unwrap().collect();
    let rows = full.concat();
    let resumed: Vec<Vec<u32>> = sampler
        .stream_spec(&spec.clone().with_start_row(1100), &mut StdRng::seed_from_u64(77))
        .unwrap()
        .flatten()
        .collect();
    assert_eq!(resumed, rows[1100..], "resume must yield exactly the suffix");
    let mut stream = sampler.stream_spec(&spec, &mut StdRng::seed_from_u64(77)).unwrap();
    stream.skip_chunk();
    assert_eq!(stream.next().as_ref(), Some(&full[1]));
    stream.skip_chunk();
    assert_eq!(stream.next(), None);
}

#[test]
fn conditional_sampling_is_deterministic_and_stream_equals_batch() {
    let artifact = chain_artifact(19);
    let sampler = artifact.compiled().unwrap();
    let rows = CHUNK_ROWS + 321;
    let a = sampler.sample_conditional(rows, &[(2, 1)], &mut StdRng::seed_from_u64(4)).unwrap();
    let b = sampler.sample_conditional(rows, &[(2, 1)], &mut StdRng::seed_from_u64(4)).unwrap();
    assert_eq!(a, b, "fixed (model, seed, evidence) must reproduce rows exactly");
    let spec = SampleSpec::rows(rows).with_evidence(vec![(2, 1)]);
    let stream = sampler.stream_spec(&spec, &mut StdRng::seed_from_u64(4)).unwrap();
    let streamed: Vec<Vec<u32>> = stream.flatten().collect();
    assert_eq!(streamed.len(), rows);
    for (row, tuple) in streamed.iter().enumerate() {
        assert_eq!(*tuple, a.row(row), "row {row}");
    }
}

#[test]
fn projection_is_byte_equivalent_to_post_hoc_column_dropping() {
    let artifact = chain_artifact(23);
    let sampler = artifact.compiled().unwrap();
    let rows = CHUNK_ROWS + 77;
    let full: Vec<Vec<u32>> = sampler
        .stream_spec(&SampleSpec::rows(rows), &mut StdRng::seed_from_u64(9))
        .unwrap()
        .flatten()
        .collect();
    let spec = SampleSpec::rows(rows).with_projection(vec![2, 0]);
    let projected: Vec<Vec<u32>> =
        sampler.stream_spec(&spec, &mut StdRng::seed_from_u64(9)).unwrap().flatten().collect();
    let dropped: Vec<Vec<u32>> = full.iter().map(|t| vec![t[2], t[0]]).collect();
    assert_eq!(projected, dropped, "projection must equal dropping columns after the fact");
}

#[test]
fn cursor_resume_is_byte_identical_to_an_uninterrupted_stream() {
    let (handle, client) = start_server();
    let rows = 2 * CHUNK_ROWS + 137;
    let spec = SynthSpec::new().with_rows(rows).with_seed(9);
    let full = client.synth_with("m", &spec).unwrap();
    assert_eq!(full.header("x-privbayes-seed"), Some("9"));
    assert_eq!(full.header("x-privbayes-api"), Some("v1"));
    assert_eq!(full.header("content-type"), Some("text/csv"));
    let full_text = full.text();

    // Interrupt mid-chunk: keep the header plus the first 1100 rows, then
    // resume from row 1100 (the cursor needs no other spec change).
    let resume_at = 1100usize;
    let resumed = client
        .synth_with(
            "m",
            &SynthSpec::new().with_rows(rows).with_cursor(Cursor {
                seed: 9,
                row: resume_at as u64,
                generation: None,
            }),
        )
        .unwrap();
    let prefix: String = full_text.lines().take(1 + resume_at).map(|l| format!("{l}\n")).collect();
    assert_eq!(
        format!("{prefix}{}", resumed.text()),
        full_text,
        "prefix + resumed must equal the uninterrupted stream byte for byte"
    );

    // Conditional + projected streams resume identically too.
    let spec = SynthSpec::new()
        .with_rows(rows)
        .with_seed(77)
        .where_eq("region", "south")
        .select("smoker")
        .select("region");
    let full = client.synth_with("m", &spec).unwrap().text();
    let again = client.synth_with("m", &spec).unwrap().text();
    assert_eq!(full, again, "conditional streams must be deterministic");
    let resumed = client
        .synth_with(
            "m",
            &spec.clone().with_cursor(Cursor { seed: 77, row: 2000, generation: None }),
        )
        .unwrap();
    let prefix: String = full.lines().take(1 + 2000).map(|l| format!("{l}\n")).collect();
    assert_eq!(format!("{prefix}{}", resumed.text()), full);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn v1_marginal_answers_are_bit_identical_to_the_oracle() {
    let (handle, client) = start_server();
    let artifact = chain_artifact(11); // same seed as the served model
    for attrs in [vec![0usize], vec![2], vec![2, 0], vec![0, 1, 2]] {
        let mut query = MarginalQuery::new();
        for &a in &attrs {
            query = query.over(artifact.schema.attribute(a).name());
        }
        let answer = client.query("m", &query).unwrap();
        let served: Vec<f64> = answer
            .get("values")
            .and_then(Json::as_array)
            .expect("values array")
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        let oracle = reference_theta_projection(&artifact.model, &artifact.schema, &attrs);
        assert_eq!(served.len(), oracle.values().len(), "attrs {attrs:?}");
        for (i, (a, b)) in served.iter().zip(oracle.values()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "attrs {attrs:?}, cell {i}: served {a} vs oracle {b}"
            );
        }
        let dims: Vec<usize> = answer
            .get("dims")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_usize().unwrap())
            .collect();
        assert_eq!(&dims[..], oracle.dims(), "attrs {attrs:?}");
    }
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn spec_failures_are_structured_invalid_spec_responses() {
    let (handle, client) = start_server();

    // Unknown attribute in a synth spec.
    let err = client.synth_with("m", &SynthSpec::new().select("bogus")).unwrap_err();
    let ServerError::Status { code, body } = err else { panic!("want status, got {err}") };
    assert_eq!(code, 400);
    assert!(body.contains("\"invalid-spec\""), "{body}");
    assert!(body.contains("bogus"), "{body}");

    // Unknown attribute in a marginal query.
    let err = client.query("m", &MarginalQuery::new().over("bogus")).unwrap_err();
    let ServerError::Status { code, body } = err else { panic!("want status, got {err}") };
    assert_eq!(code, 400);
    assert!(body.contains("\"invalid-spec\""), "{body}");

    // Out-of-domain evidence value.
    let err = client.synth_with("m", &SynthSpec::new().where_eq("region", "east")).unwrap_err();
    let ServerError::Status { code, body } = err else { panic!("want status, got {err}") };
    assert_eq!(code, 400);
    assert!(body.contains("\"invalid-spec\""), "{body}");

    // Malformed cursor token (raw body — the typed client can't build one).
    let response = client
        .request(
            "POST",
            "/v1/models/m/synth",
            Some(("application/json", br#"{"cursor": "garbage"}"# as &[u8])),
        )
        .unwrap();
    assert_eq!(response.code, 400);
    assert!(response.text().contains("\"invalid-spec\""), "{}", response.text());

    // Evidence with probability zero under the model, on a root and on a
    // leaf with a free ancestor.
    for attr in ["a", "b"] {
        let err = client.synth_with("z", &SynthSpec::new().where_eq(attr, 1u32)).unwrap_err();
        let ServerError::Status { code, body } = err else { panic!("want status, got {err}") };
        assert_eq!(code, 400);
        assert!(body.contains("\"invalid-spec\""), "{body}");
        assert!(body.contains("probability zero"), "{body}");
    }

    // Evidence whose elimination needs a factor over the cell cap.
    let spec = CYCLE_EVIDENCE.iter().fold(SynthSpec::new().with_rows(10), |spec, &(attr, code)| {
        spec.where_eq(format!("e{}", attr - 4), code)
    });
    let err = client.synth_with("cycle", &spec).unwrap_err();
    let ServerError::Status { code, body } = err else { panic!("want status, got {err}") };
    assert_eq!(code, 400);
    assert!(body.contains("\"invalid-spec\""), "{body}");
    assert!(body.contains("cap"), "{body}");

    // Error responses carry the content-type and API headers too.
    let response =
        client.request("POST", "/v1/models/nope/synth", Some(("application/json", b"{}"))).unwrap();
    assert_eq!(response.code, 404);
    assert_eq!(response.header("content-type"), Some("application/json"));
    assert_eq!(response.header("x-privbayes-api"), Some("v1"));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn content_types_cover_every_format() {
    let (handle, client) = start_server();
    let csv = client.synth_with("m", &SynthSpec::new().with_rows(10).with_seed(1)).unwrap();
    assert_eq!(csv.header("content-type"), Some("text/csv"));
    let ndjson = client
        .synth_with(
            "m",
            &SynthSpec::new()
                .with_rows(10)
                .with_seed(1)
                .with_format(privbayes_suite::synth::RowFormat::Jsonl),
        )
        .unwrap();
    assert_eq!(ndjson.header("content-type"), Some("application/x-ndjson"));
    assert_eq!(ndjson.text().lines().count(), 10, "one JSON object per row");
    let health = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(health.header("content-type"), Some("application/json"));
    assert_eq!(health.header("x-privbayes-api"), Some("v1"));
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn projected_conditional_stream_matches_post_hoc_processing_of_the_full_stream() {
    let (handle, client) = start_server();
    // Full conditioned stream, all columns.
    let base = SynthSpec::new().with_rows(800).with_seed(31).where_eq("smoker", "v1");
    let full = client.synth_with("m", &base).unwrap().text();
    // Same request with a projection: must equal dropping columns from the
    // full response line by line.
    let projected =
        client.synth_with("m", &base.clone().select("region").select("cough")).unwrap().text();
    let expect: String = full
        .lines()
        .map(|line| {
            let cells: Vec<&str> = line.split(',').collect();
            format!("{},{}\n", cells[2], cells[1])
        })
        .collect();
    assert_eq!(projected, expect, "projection must be post-hoc column dropping, byte for byte");
    client.shutdown().unwrap();
    handle.join().unwrap();
}
