//! Layer-by-layer replays of one op's exact inputs through the layers'
//! public functions, timed with [`Tracer`] spans, plus the independent
//! reference computations the correctness gates compare served bytes with.

use privbayes::conditionals::noisy_conditionals_general_engine;
use privbayes::greedy::{
    greedy_bayes_adaptive_engine, greedy_bayes_fixed_k_engine, GreedySettings,
};
use privbayes::sampler::SampleSpec;
use privbayes::{CompiledSampler, ScoreKind};
use privbayes_data::csv::write_csv;
use privbayes_data::encoding::EncodingKind;
use privbayes_dp::budget::BudgetSplit;
use privbayes_marginals::CountEngine;
use privbayes_model::{ModelMetadata, ReleasedModel};
use privbayes_synth::{FitSettings, Method, RowFormat};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::{OpSpan, Tracer};

/// Expected bytes of an unconditional CSV stream: the batch sampler
/// followed by `write_csv`, a path independent of the server's streaming
/// loop.
pub fn batch_csv(sampler: &CompiledSampler, rows: usize, seed: u64) -> Vec<u8> {
    let data = sampler
        .sample_dataset(rows, None, &mut StdRng::seed_from_u64(seed))
        .expect("a compiled sampler samples its own schema");
    crate::common::csv_bytes(&data)
}

/// Expected bytes of a conditional CSV stream: the batch conditional
/// sampler followed by `write_csv`.
pub fn batch_conditional_csv(
    sampler: &CompiledSampler,
    rows: usize,
    evidence: &[(usize, u32)],
    seed: u64,
) -> Vec<u8> {
    let data = sampler
        .sample_conditional(rows, evidence, &mut StdRng::seed_from_u64(seed))
        .expect("evidence was validated when the op was planned");
    let mut out = Vec::new();
    write_csv(&data, &mut out).expect("rendering CSV into memory cannot fail");
    out
}

/// Replays a streamed synth response: the sampler's chunk loop and the CSV
/// renderer, one span per chunk for each. `sample_name` separates the
/// unconditional and likelihood-weighted spans. Returns the bytes and
/// whether the stream took the likelihood-weighted path.
pub fn stream(
    tracer: &mut Tracer,
    op: &OpSpan,
    sampler: &CompiledSampler,
    spec: &SampleSpec,
    seed: u64,
    sample_name: &'static str,
) -> (Vec<u8>, bool) {
    let schema = sampler.schema();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = tracer.layer(op, sample_name, || {
        sampler.stream_spec(spec, &mut rng).expect("the op's spec was accepted by the server")
    });
    let weighted = stream.is_likelihood_weighted();
    let mut out = RowFormat::Csv.header(schema, None).into_bytes();
    while let Some(chunk) = tracer.layer(op, sample_name, || stream.next()) {
        let text =
            tracer.layer(op, "synth.spec.render", || RowFormat::Csv.render(schema, None, &chunk));
        out.extend_from_slice(text.as_bytes());
    }
    (out, weighted)
}

/// How a replayed fit learns its structure.
#[derive(Clone, Copy)]
pub enum Structure {
    /// `privbayes`: Algorithm 4 (θ-usefulness, adaptive degree).
    Adaptive,
    /// `privbayes-k`: Algorithm 2 with this fixed degree.
    FixedK(usize),
}

impl Structure {
    pub fn method(self) -> Method {
        match self {
            Structure::Adaptive => Method::PrivBayes,
            Structure::FixedK(_) => Method::PrivBayesK,
        }
    }
}

/// Replays `fit_method_with_engine` for the two PrivBayes methods step by
/// step with the settings `fit_method` uses: greedy structure learning,
/// Laplace-noised conditionals, the release artifact, and the alias
/// compile. The artifact must serialise identically to the op's.
#[allow(clippy::too_many_arguments)]
pub fn fit(
    tracer: &mut Tracer,
    op: &OpSpan,
    engine: &CountEngine,
    structure: Structure,
    epsilon: f64,
    seed: u64,
    settings: &FitSettings,
    greedy_name: &'static str,
) -> ReleasedModel {
    let (eps1, eps2) =
        BudgetSplit::new(settings.beta).expect("default beta is valid").split(epsilon);
    let greedy = GreedySettings {
        score: ScoreKind::R,
        epsilon1: Some(eps1),
        max_degree: settings.max_degree,
        threads: settings.threads,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let network = tracer.layer(op, greedy_name, || match structure {
        Structure::Adaptive => {
            greedy_bayes_adaptive_engine(engine, settings.theta, eps2, false, &greedy, &mut rng)
        }
        Structure::FixedK(k) => greedy_bayes_fixed_k_engine(engine, k, &greedy, &mut rng),
    });
    let network = network.expect("the op's fit succeeded on the same data");
    let model = tracer.layer(op, "core.conditionals", || {
        noisy_conditionals_general_engine(engine, &network, Some(eps2), &mut rng)
    });
    let model = model.expect("the op's fit succeeded on the same data");
    let artifact = ReleasedModel::new(
        ModelMetadata {
            method: structure.method().name().to_string(),
            epsilon,
            beta: settings.beta,
            theta: settings.theta,
            score: ScoreKind::R.name().to_string(),
            encoding: EncodingKind::Vanilla.name().to_string(),
            source_rows: engine.n(),
            comment: settings.comment.clone(),
        },
        engine.schema().clone(),
        model,
    )
    .expect("a replayed model is as valid as the op's");
    tracer.layer(op, "core.sampler.compile", || {
        artifact.compiled().map(|_| ()).expect("a valid artifact compiles");
    });
    artifact
}
