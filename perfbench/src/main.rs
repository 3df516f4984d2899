//! `perfbench`: the serving system's benchmark.
//!
//! ```text
//! perfbench --workload <serve-mix|fit-publish|ingest-refit> --seed N --seconds S --trace <0|1>
//! perfbench steady [--runs N] [--seconds S] [--trace <0|1>]
//! ```
//!
//! A run builds its workload's set-up, drives an in-process
//! `privbayes-server` on loopback from at most two client threads for at
//! least `--seconds`, checks every output, and prints a record line, the
//! metrics by name, and, last, one JSON result line. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` scrapes `/metrics` around the timed
//! work, replays every op through the layers with spans, reports the
//! per-layer metrics and writes the spans to `.bench_work/`. `steady` runs
//! each workload `--runs` times with seeds 1..=runs and prints each
//! metric's median, quartiles and spread. See `perfbench/README.md`.

mod common;
mod fit_publish;
mod http;
mod ingest_refit;
mod replay;
mod report;
mod scrape;
mod serve_mix;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::OnceLock;

use privbayes_model::Json;

use report::{num, quote, Outcome, END_TO_END, PER_LAYER};

#[derive(Clone, Copy)]
enum Workload {
    ServeMix,
    FitPublish,
    IngestRefit,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::ServeMix, Workload::FitPublish, Workload::IngestRefit];

    fn name(self) -> &'static str {
        match self {
            Workload::ServeMix => "serve-mix",
            Workload::FitPublish => "fit-publish",
            Workload::IngestRefit => "ingest-refit",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What the `op1`..`op3` metric slots measure on this workload.
    fn ops(self) -> [&'static str; 3] {
        match self {
            Workload::ServeMix => [
                "op1 = p50 of cold /v1 synth, 10,000 Adult rows (tail p90, ttfb p50)",
                "op2 = p50 of conditional /v1 synth, 2,000 NLTCS rows",
                "op3 = p50 of /v1/query (tail p99)",
            ],
            Workload::FitPublish => [
                "op1 = p50 of POST /fit upload, 2,000 Adult rows (tail p50, ttfb p50)",
                "op2 = p50 of Adult publish: read_csv, fit, PUT",
                "op3 = p50 of NLTCS publish: read_csv, fit, PUT (tail p50)",
            ],
            Workload::IngestRefit => [
                "op1 = p50 of a 500-row ingest batch (tail p90, ttfb p50)",
                "op2 = p90 of cold /v1 synth, 10,000 rows, under ingest",
                "op3 = ingest to servable: first batch sent to the 50,000-row generation (tail: same)",
            ],
        }
    }

    fn setup_repeats(self) -> usize {
        match self {
            Workload::ServeMix => serve_mix::SETUP_REPEATS,
            Workload::FitPublish => fit_publish::SETUP_REPEATS,
            Workload::IngestRefit => ingest_refit::SETUP_REPEATS,
        }
    }

    fn run(self, seed: u64, seconds: f64, traced: bool) -> Outcome {
        match self {
            Workload::ServeMix => serve_mix::run(seed, seconds, traced),
            Workload::FitPublish => fit_publish::run(seed, seconds, traced),
            Workload::IngestRefit => ingest_refit::run(seed, traced),
        }
    }
}

static TRACE_FILE: OnceLock<PathBuf> = OnceLock::new();

/// Derives the tracing metrics shared by every workload and writes the
/// spans out.
fn finish_trace(tracer: &trace::Tracer, outcome: &mut Outcome) {
    let cost_ms = trace::Tracer::span_cost_ns() * tracer.spans().len() as f64 / 1e6;
    outcome.layer("trace.overhead_share", cost_ms / tracer.traced_ms());
    if let Some(path) = TRACE_FILE.get() {
        match tracer.write_jsonl(path) {
            Ok(()) => outcome.fact("trace_file", path.display()),
            Err(e) => outcome.gate(false, || format!("writing {}: {e}", path.display())),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds `{value}`"))?
            }
            "--trace" => traced = value == "1",
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, traced })
}

fn environment(args: &Args) -> Vec<(&'static str, String)> {
    vec![
        ("workload", quote(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("run_seconds", num(args.seconds)),
        ("traced", args.traced.to_string()),
        ("available_parallelism", common::available_parallelism().to_string()),
        ("server_workers", common::SERVER_WORKERS.to_string()),
        ("fit_threads", common::fit_threads().to_string()),
        ("setup_repeats", args.workload.setup_repeats().to_string()),
        ("git_commit", quote(&common::git_commit())),
        ("build_profile", quote(if cfg!(debug_assertions) { "debug" } else { "release" })),
    ]
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("steady") {
        return steady(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    if args.traced {
        let file = format!("trace-{}-seed{}.jsonl", args.workload.name(), args.seed);
        TRACE_FILE.set(PathBuf::from(".bench_work").join(file)).expect("set once");
    }
    let env = environment(&args);
    let outcome = args.workload.run(args.seed, args.seconds, args.traced);
    for (name, _) in END_TO_END {
        assert!(outcome.end_to_end.contains_key(name), "workload left `{name}` unmeasured");
    }

    let fields: Vec<String> = env.iter().map(|(k, v)| format!("{}: {v}", quote(k))).collect();
    let named: Vec<String> = outcome
        .named
        .iter()
        .map(|(n, v, u)| format!("{}: [{}, {}]", quote(n), num(*v), quote(u)))
        .collect();
    let facts: Vec<String> =
        outcome.facts.iter().map(|(k, v)| format!("{}: {}", quote(k), quote(v))).collect();
    let violations: Vec<String> = outcome.violations.iter().map(|v| quote(v)).collect();
    let ops: Vec<String> = args.workload.ops().iter().map(|o| quote(o)).collect();
    println!(
        "{{\"record\": {{{}, \"ops\": [{}], \"named\": {{{}}}, \"facts\": {{{}}}, \"violations\": [{}]}}}}",
        fields.join(", "),
        ops.join(", "),
        named.join(", "),
        facts.join(", "),
        violations.join(", ")
    );
    for (name, value, unit) in &outcome.named {
        println!("{} {name} = {value:.4} {unit}", args.workload.name());
    }
    for v in &outcome.violations {
        println!("{} VIOLATION {v}", args.workload.name());
    }
    println!("{}", report::result_line(&outcome, args.traced));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs each workload `--runs` times with seeds 1..=runs and prints, per
/// metric, the median, the quartiles and the spread (interquartile range
/// over median) that the bounds in `BENCHMARK.json` are set from.
fn steady(argv: &[String]) -> ExitCode {
    let (mut runs, mut seconds, mut trace) = (10u64, 10.0f64, "0".to_string());
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("perfbench steady: {flag} needs a value");
            return ExitCode::from(2);
        };
        let ok = match flag.as_str() {
            "--runs" => value.parse().map(|v| runs = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok(),
            "--trace" => {
                trace = value.clone();
                true
            }
            _ => false,
        };
        if !ok || runs < 2 {
            eprintln!("perfbench steady: bad `{flag} {value}`");
            return ExitCode::from(2);
        }
    }
    let exe = std::env::current_exe().expect("locate the running binary");
    let catalogue = if trace == "1" { PER_LAYER } else { END_TO_END };
    let mut all_ok = true;
    for workload in Workload::ALL {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); catalogue.len()];
        let mut named: std::collections::BTreeMap<String, (Vec<f64>, String)> = Default::default();
        for seed in 1..=runs {
            let output = Command::new(&exe)
                .args(["--workload", workload.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", &trace])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            let result = lines.last().and_then(|l| Json::parse(l).ok());
            let correct = result.as_ref().and_then(|r| r.get("correct")).and_then(Json::as_bool);
            if !output.status.success() || correct != Some(true) {
                all_ok = false;
                eprintln!(
                    "{} seed {seed}: run failed\n{stdout}{}",
                    workload.name(),
                    String::from_utf8_lossy(&output.stderr)
                );
                continue;
            }
            let metrics =
                result.as_ref().and_then(|r| r.get("metrics")).expect("result has metrics");
            for ((name, _), column) in catalogue.iter().zip(values.iter_mut()) {
                if let Some(v) =
                    metrics.get(name).and_then(|m| m.get("value")).and_then(Json::as_f64)
                {
                    column.push(v);
                }
            }
            let record = lines
                .iter()
                .find_map(|l| Json::parse(l).ok().filter(|j| j.get("record").is_some()));
            if let Some(pairs) = record
                .as_ref()
                .and_then(|r| r.get("record")?.get("named")?.as_object().map(<[_]>::to_vec))
            {
                for (name, pair) in pairs {
                    let pair = pair.as_array().unwrap_or(&[]);
                    if let (Some(v), Some(unit)) =
                        (pair.first().and_then(Json::as_f64), pair.get(1).and_then(Json::as_str))
                    {
                        named
                            .entry(name)
                            .or_insert_with(|| (Vec::new(), unit.to_string()))
                            .0
                            .push(v);
                    }
                }
            }
            eprintln!("{} seed {seed}: ok", workload.name());
        }
        println!("{} ({runs} runs, seeds 1..{runs})", workload.name());
        println!("  {:<44} {:>12} {:>12} {:>12} {:>9}", "metric", "median", "q1", "q3", "iqr/med");
        for ((name, unit), column) in catalogue.iter().zip(&values) {
            if column.len() < 2 {
                continue;
            }
            let (q1, q3) = stats::quartiles(column);
            let med = stats::median(column);
            let spread = if med != 0.0 { (q3 - q1) / med } else { 0.0 };
            println!("  {:<44} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>9.4} {unit}", name);
        }
        for (name, (column, unit)) in &named {
            let med = stats::median(column);
            let (q1, q3) = if column.len() >= 2 { stats::quartiles(column) } else { (med, med) };
            let spread = if med != 0.0 { (q3 - q1) / med } else { 0.0 };
            println!(
                "  {:<44} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>9.4} {unit}",
                format!("[{name}]")
            );
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
