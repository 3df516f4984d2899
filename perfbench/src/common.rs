//! Inputs, environment and small utilities shared by the workloads.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use privbayes_data::csv::write_csv;
use privbayes_data::Dataset;
use privbayes_server::{BudgetLedger, ModelRegistry, Server, ServerConfig, ServerHandle};

/// Rows of the Adult corpus (the paper's cardinality).
pub const ADULT_ROWS: usize = 45_222;
/// Rows of the NLTCS corpus (the paper's cardinality).
pub const NLTCS_ROWS: usize = 21_574;
/// The corpora are fixed tables; the workload seed draws the traffic
/// (request seeds, query sets, fit seeds, row order) over them.
const ADULT_CORPUS_SEED: u64 = 7;
const NLTCS_CORPUS_SEED: u64 = 8;

/// Server request-handler threads in every workload.
pub const SERVER_WORKERS: usize = 2;

/// The synthetic Adult table with `n` rows.
pub fn adult_corpus(n: usize) -> Dataset {
    privbayes_datasets::adult::adult_sized(ADULT_CORPUS_SEED, n).data
}

/// The synthetic NLTCS table at the paper's size.
pub fn nltcs_corpus() -> Dataset {
    privbayes_datasets::nltcs::nltcs_sized(NLTCS_CORPUS_SEED, NLTCS_ROWS).data
}

/// Renders a dataset as headered coded CSV (the `read_csv` input format).
pub fn csv_bytes(data: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    write_csv(data, &mut out).expect("rendering CSV into memory cannot fail");
    out
}

/// Worker threads for every fit, in the server and in the benchmark.
pub fn fit_threads() -> usize {
    available_parallelism().min(2)
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64: the benchmark's own generator for drawing traffic, so the
/// op sequence depends on `--seed` alone.
pub struct Draw(u64);

impl Draw {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut draw = Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        draw.next();
        draw
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over a byte string: a cheap fingerprint to compare served bytes
/// with expected bytes after the timed loop.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A scratch directory under `.bench_work/` in the working directory,
/// removed when dropped.
pub struct Workdir(PathBuf);

impl Workdir {
    pub fn new(label: &str) -> Self {
        let path = PathBuf::from(".bench_work").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the benchmark's scratch directory");
        Self(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running in-process server plus the handles the benchmark keeps to
/// check its outputs.
pub struct Running {
    pub handle: Option<ServerHandle>,
    pub registry: Arc<ModelRegistry>,
    pub ledger: Arc<BudgetLedger>,
}

impl Running {
    pub fn start(
        config: ServerConfig,
        registry: Arc<ModelRegistry>,
        ledger: Arc<BudgetLedger>,
    ) -> Self {
        let config =
            ServerConfig { workers: SERVER_WORKERS, fit_threads: Some(fit_threads()), ..config };
        let server =
            Server::bind("127.0.0.1:0", config, Arc::clone(&registry), Arc::clone(&ledger))
                .expect("bind the benchmark server on loopback");
        Self { handle: Some(server.spawn()), registry, ledger }
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.as_ref().expect("server running").addr()
    }

    /// Shuts the server down and waits for every worker to end.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let client = privbayes_server::Client::new(handle.addr().to_string());
            let _ = client.shutdown();
            let _ = handle.join();
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Runs `build` `repeats` times, dropping all but the last result, and
/// returns it with the median build time in seconds.
pub fn repeated_setup<T>(repeats: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut kept = None;
    for _ in 0..repeats {
        drop(kept.take());
        let started = Instant::now();
        kept = Some(build());
        times.push(started.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), crate::stats::median(&times))
}

/// The commit the benchmark was built from, when the working directory is
/// a git checkout; `unknown` otherwise.
pub fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// How often the tracer times the probe between replayed ops.
pub const PROBE_EVERY: Duration = Duration::from_millis(100);

/// The host-speed probe: a fixed piece of benchmark-owned work (formatting
/// numbers into a growing string, dependent random reads over a table
/// larger than L2, integer arithmetic) that calls nothing in the program
/// under test. A workload times it only in quiet windows, while no request
/// or refit is in flight, so it measures the host and nothing of the
/// program: a slower host slows both it and the ops, a slower program only
/// the ops. End-to-end latencies are reported in units of the run's median
/// probe time.
pub struct Probe {
    table: Vec<u32>,
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Probe {
    pub fn new() -> Self {
        let mut draw = Draw::new(0x0050_524f_4245, 0);
        let table = (0..(8 << 20) / 4).map(|_| draw.next() as u32).collect();
        Self { table, samples: Vec::new(), last: None }
    }

    /// Times the probe `reps` times back to back, after one untimed pass
    /// that brings its table back into the caches: the timings measure
    /// the host, not what the previous op left in the caches.
    pub fn time(&mut self, reps: usize) {
        self.once();
        for _ in 0..reps {
            let ms = self.once();
            self.samples.push(ms);
        }
    }

    /// Times the probe once if [`PROBE_EVERY`] has passed since the last.
    pub fn tick(&mut self) {
        if !self.last.is_some_and(|t| t.elapsed() < PROBE_EVERY) {
            self.time(1);
        }
    }

    /// Runs the probe once and returns its time in milliseconds.
    fn once(&mut self) -> f64 {
        let started = Instant::now();
        let mut text = String::new();
        for i in 0..20_000u32 {
            text.push_str(&(i.wrapping_mul(2_654_435_761) % 100_000).to_string());
            text.push(if i % 15 == 14 { '\n' } else { ',' });
        }
        let mut at = text.len() as u32;
        for _ in 0..50_000 {
            at = self.table[at as usize % self.table.len()];
        }
        let mut x = u64::from(at);
        for i in 0..300_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i ^ (x >> 7));
        }
        std::hint::black_box((x, text));
        self.last = Some(Instant::now());
        started.elapsed().as_secs_f64() * 1e3
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }
}
