//! The HTTP service: accept loop, worker pool, and route handlers.
//!
//! # Endpoints
//!
//! | method & path | effect |
//! |---|---|
//! | `GET /healthz` | liveness + registry/ledger counts (live, from the metric registry) |
//! | `GET /metrics` | Prometheus text exposition (v0.0.4) of every server metric |
//! | `GET /models` | list loaded models |
//! | `PUT /models/{id}` | load a release artifact (body: `privbayes-model/1` JSON) |
//! | `GET /models/{id}` | one model's metadata |
//! | `DELETE /models/{id}` | evict from the registry |
//! | `POST /v1/models/{id}/synth` | stream rows per a [`SynthSpec`] JSON body (evidence, projection, cursor resume) |
//! | `POST /v1/models/{id}/query` | answer a [`MarginalQuery`] exactly from the released θ |
//! | `POST /fit` | fit + register a model, debiting the tenant's ε |
//! | `GET /tenants` | ledger snapshot |
//! | `PUT /tenants/{id}?budget=E` | register a tenant |
//! | `GET /tenants/{id}` | one tenant's budget |
//! | `POST /shutdown` | drain in-flight requests and stop |
//!
//! Every response — fixed, chunked, success, or error — carries a
//! `Content-Type`, an `X-PrivBayes-Api: v1` header, and an
//! `X-PrivBayes-Request-Id` (echoing the client's, when it sent a valid
//! one). Spec-validation failures (unknown attribute, out-of-domain
//! evidence value, bad cursor, …) are answered `400` with the structured
//! body `{"error": "invalid-spec", "message": …}`.
//!
//! # Observability
//!
//! One [`ServerMetrics`] registry backs `GET /metrics`, `GET /healthz`,
//! the live [`ServerHandle::stats`] view, and the final counters from
//! [`ServerHandle::join`] — a single source of truth, so the surfaces can
//! never drift. Requests are counted by endpoint and status (including
//! acceptor-level 503 rejections, under `endpoint="acceptor"`), stage wall
//! time is recorded per request (`parse → ledger → lookup → sample →
//! write`), and every finished request appends one JSON line to the
//! access-log ring (and file sink, when configured). The cost discipline
//! is one relaxed atomic add per event, with no locks on the per-chunk
//! streaming path.
//!
//! # Concurrency and determinism
//!
//! One acceptor thread round-robins accepted sockets (with `TCP_NODELAY`
//! set) across per-worker bounded queues — workers never contend on a
//! shared receiver lock. Connections are **persistent**: each worker runs a
//! keep-alive loop per connection, serving requests until the client asks
//! `Connection: close`, the per-connection request cap
//! ([`ServerConfig::max_conn_requests`]) is reached, the idle deadline
//! expires, or the response failed mid-write (a truncated chunked stream
//! must be followed by a close, so the client sees the interruption). An
//! idle kept-alive connection is *parked*, not pinned: the worker polls
//! parked connections between new ones, so a quiet client never starves
//! the queue.
//!
//! A synthesis response is computed entirely from `(model, seed, spec)` —
//! the per-request RNG is seeded from the request, rows are generated in
//! the sampler's fixed 1024-row chunk scheme, and each chunk is written as
//! one HTTP chunk — so a fixed request is **byte-identical** no matter how
//! many other streams are in flight, which worker serves it, whether the
//! connection is fresh or reused, or how often the model was evicted and
//! reloaded in between. Unconditioned, unprojected streams are additionally
//! served through the [`RowBlockCache`]: formatted chunks are keyed by
//! `(model generation, seed, format, chunk index, rows)` and replayed as a
//! memcpy on repeat — the bytes are identical by construction, and the
//! generation key means a reloaded model can never replay its predecessor's
//! blocks. A cursor-resumed stream yields exactly the suffix of its
//! uninterrupted counterpart. Shutdown closes the accept loop first, then
//! lets every queued and in-flight request complete (idle parked
//! connections are simply closed).
//!
//! [`SynthSpec`]: privbayes_synth::SynthSpec
//! [`MarginalQuery`]: privbayes_synth::MarginalQuery

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use privbayes::inference::{theta_projection, DEFAULT_CELL_CAP};
use privbayes::CHUNK_ROWS;
use privbayes_data::csv::read_csv;
use privbayes_model::{schema_from_json, Json, ReleasedModel};
use privbayes_synth::{
    fit_method, fit_method_with_engine, Cursor, EngineStats, FitSettings, MarginalQuery, Method,
    ResolvedSynth, SpecError, SynthSpec,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::cache::{BlockKey, CacheMetrics, RowBlockCache};
use crate::error::ServerError;
#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::{Fault, FaultPlan, FaultSite, FaultStream};
use crate::http::{write_response, ChunkedResponse, Request};
use crate::ingest::{parse_batch, BatchFormat, DatasetStore, RefitJob, RefitPolicy, RefitSpec};
use crate::ledger::{BudgetLedger, LedgerError, LedgerObserver, TenantBudget};
use crate::metrics::{RequestCtx, ServerMetrics, REQUEST_ID_HEADER};
use crate::registry::{GenerationLookup, ModelEntry, ModelRegistry};
#[cfg(any(test, feature = "fault-injection"))]
use std::sync::RwLock;

/// The API version marker attached to every response.
const API_HEADER: (&str, &str) = ("X-PrivBayes-Api", "v1");

/// The shared fault-plan slot handed to tests (absent from release builds).
#[cfg(any(test, feature = "fault-injection"))]
pub type FaultSlot = Arc<RwLock<Option<Arc<FaultPlan>>>>;

/// Tunables for a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Request-handler threads (the accept loop runs on the caller's
    /// thread). Minimum 1.
    pub workers: usize,
    /// Worker threads used *inside* a fit request (candidate scoring and
    /// synthesis); `None` uses [`std::thread::available_parallelism`].
    pub fit_threads: Option<usize>,
    /// Upper bound on `rows` per synthesis request; larger requests get a
    /// structured 400. Bounds how long one request can pin a worker.
    pub max_rows: usize,
    /// How long a worker waits for request bytes before answering 408 — a
    /// slow-loris peer is reaped instead of pinning the worker.
    pub read_deadline: Duration,
    /// Socket write timeout: a peer that stops draining its response frees
    /// the worker after this long.
    pub write_deadline: Duration,
    /// Budget for handler work after the request is read. Checked between
    /// stream chunks (an overrunning stream is truncated) and before
    /// starting a fit.
    pub handler_deadline: Duration,
    /// Bound on connections accepted but not yet claimed by a worker
    /// (split evenly across the per-worker queues). Overflow is answered
    /// immediately with 503 + `Retry-After` — graceful degradation instead
    /// of unbounded queueing. Minimum 1.
    pub queue_depth: usize,
    /// Requests served per kept-alive connection before the server closes
    /// it (`Connection: close` on the final response). Bounds how long one
    /// client can monopolise connection state. Minimum 1 (every response
    /// closes).
    pub max_conn_requests: usize,
    /// How long a kept-alive connection may sit idle between requests
    /// before the server closes it. Idle connections are parked, not
    /// pinned — this bounds parked-state lifetime, not worker time.
    pub idle_deadline: Duration,
    /// Byte budget for the preformatted row-block cache ([`RowBlockCache`]).
    /// `0` disables caching; every stream then samples and formats from
    /// scratch.
    pub cache_bytes: usize,
    /// Whether `GET /metrics` is served (the registry itself always runs —
    /// `/healthz` and [`ServerHandle::stats`] read it regardless).
    pub metrics_enabled: bool,
    /// File appended with one JSON line per finished request. `None`
    /// disables the file sink; the in-memory ring is always kept.
    pub access_log: Option<PathBuf>,
    /// Directory for the per-tenant dataset journals behind
    /// `POST /v1/tenants/{t}/ingest`. `None` keeps ingested data in memory
    /// only (appends do not survive a restart).
    pub data_dir: Option<PathBuf>,
    /// When accumulated appends trigger a ledger-accounted background
    /// refit. The default never triggers; ingested rows then sit pending
    /// until the policy is enabled.
    pub refit: RefitPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            fit_threads: None,
            max_rows: 10_000_000,
            read_deadline: Duration::from_secs(30),
            write_deadline: Duration::from_secs(30),
            handler_deadline: Duration::from_secs(120),
            queue_depth: 64,
            max_conn_requests: 1000,
            idle_deadline: Duration::from_secs(5),
            cache_bytes: 64 << 20,
            metrics_enabled: true,
            access_log: None,
            data_dir: None,
            refit: RefitPolicy::disabled(),
        }
    }
}

/// Counters reported by [`Server::run`] after a clean shutdown — a
/// snapshot of the live metric registry, so [`ServerHandle::stats`],
/// `GET /healthz`, `GET /metrics`, and the value returned by
/// [`ServerHandle::join`] all read the same source of truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests answered (including the shutdown request itself and
    /// acceptor-level 503 rejections, which are also in `queue_rejected`).
    pub requests: u64,
    /// Handler panics caught and isolated (each also answered 500 when the
    /// response had not started). Zero in a healthy server.
    pub panics: u64,
    /// Connections rejected with 503 because the pending queue was full.
    pub queue_rejected: u64,
}

impl ServerStats {
    /// The current counters, read live from the metric registry.
    fn snapshot(metrics: &ServerMetrics) -> Self {
        Self {
            requests: metrics.registry().counter_total("privbayes_requests_total"),
            panics: metrics.panics.get(),
            queue_rejected: metrics.queue_rejected.get(),
        }
    }
}

/// Shared state visible to every worker.
struct Shared {
    registry: Arc<ModelRegistry>,
    ledger: Arc<BudgetLedger>,
    store: Arc<DatasetStore>,
    config: ServerConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
    metrics: Arc<ServerMetrics>,
    cache: RowBlockCache,
    refits: RefitQueue,
    #[cfg(any(test, feature = "fault-injection"))]
    fault: FaultSlot,
}

/// Refit jobs the ingest handler cut, waiting for the refit janitor.
#[derive(Default)]
struct RefitQueue {
    jobs: Mutex<Vec<RefitJob>>,
    ready: Condvar,
}

impl RefitQueue {
    fn push(&self, job: RefitJob) {
        self.jobs.lock().expect("refit queue lock poisoned").push(job);
        self.ready.notify_one();
    }

    /// Every queued job, after waiting up to `timeout` for one to arrive.
    fn take(&self, timeout: Duration) -> Vec<RefitJob> {
        let jobs = self.jobs.lock().expect("refit queue lock poisoned");
        let (mut jobs, _) = self
            .ready
            .wait_timeout_while(jobs, timeout, |jobs| jobs.is_empty())
            .expect("refit queue lock poisoned");
        std::mem::take(&mut *jobs)
    }
}

/// A bound-but-not-yet-running synthesis service.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) over the
    /// given registry and ledger. Callers keep their `Arc`s to pre-load
    /// models or inspect the ledger while the server runs.
    ///
    /// # Errors
    /// Returns [`ServerError::Io`] if the address cannot be bound.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        registry: Arc<ModelRegistry>,
        ledger: Arc<BudgetLedger>,
    ) -> Result<Self, ServerError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let access_log =
            match &config.access_log {
                Some(path) => {
                    Some(std::fs::OpenOptions::new().create(true).append(true).open(path).map_err(
                        |e| ServerError::Io(format!("access log {}: {e}", path.display())),
                    )?)
                }
                None => None,
            };
        let metrics = Arc::new(ServerMetrics::new(access_log));
        // The ledger records persist latency and outcomes into the same
        // registry; the per-tenant ε gauges stay scrape-time mirrors of
        // the ledger snapshot (the ledger remains the accounting truth).
        ledger.set_observer(Some(LedgerObserver {
            persist_seconds: Arc::clone(&metrics.ledger_persist_seconds),
            ok: metrics.registry().counter("privbayes_ledger_persist_total", &[("outcome", "ok")]),
            rolled_back: metrics
                .registry()
                .counter("privbayes_ledger_persist_total", &[("outcome", "rolled_back")]),
            durable_failure: metrics
                .registry()
                .counter("privbayes_ledger_persist_total", &[("outcome", "durable_failure")]),
            stripe_contention: (0..ledger.stripe_count())
                .map(|i| {
                    metrics.registry().counter(
                        "privbayes_ledger_stripe_contention_total",
                        &[("stripe", &i.to_string())],
                    )
                })
                .collect(),
        }));
        let cache = RowBlockCache::new(
            config.cache_bytes,
            CacheMetrics {
                hits: Arc::clone(&metrics.rowblock_cache_hits),
                misses: Arc::clone(&metrics.rowblock_cache_misses),
                evicted_bytes: Arc::clone(&metrics.rowblock_cache_evicted_bytes),
            },
        );
        // The dataset store recovers every journaled tenant before the
        // first request is accepted, so a post-restart append lands on the
        // full recovered history.
        let store = Arc::new(match &config.data_dir {
            Some(dir) => DatasetStore::open(dir)?,
            None => DatasetStore::in_memory(),
        });
        let shared = Arc::new(Shared {
            registry,
            ledger,
            store,
            config,
            addr,
            shutdown: AtomicBool::new(false),
            metrics,
            cache,
            refits: RefitQueue::default(),
            #[cfg(any(test, feature = "fault-injection"))]
            fault: Arc::new(RwLock::new(None)),
        });
        Ok(Self { listener, shared })
    }

    /// The live metric registry surface (shared with `GET /metrics`).
    #[must_use]
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The per-tenant dataset store behind the ingest endpoint (shared
    /// with the running server; callers keep it across [`Server::spawn`]
    /// to inspect ingestion state or install fault plans in tests).
    #[must_use]
    pub fn store(&self) -> Arc<DatasetStore> {
        Arc::clone(&self.shared.store)
    }

    /// The actual bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The slot tests use to install, swap, or clear a [`FaultPlan`] while
    /// the server runs. The plan is consulted per connection (IO faults)
    /// and per request (handler faults). Test-only: absent from release
    /// builds.
    #[cfg(any(test, feature = "fault-injection"))]
    #[must_use]
    pub fn fault_slot(&self) -> FaultSlot {
        Arc::clone(&self.shared.fault)
    }

    /// Serves until a `POST /shutdown` request arrives, then drains every
    /// queued and in-flight request and returns. Blocks the calling thread;
    /// use [`Server::spawn`] to run in the background.
    ///
    /// # Errors
    /// Returns [`ServerError::Io`] if the accept loop fails fatally.
    pub fn run(self) -> Result<ServerStats, ServerError> {
        let shared = self.shared;
        let workers = shared.config.workers.max(1);
        let queue_depth = shared.config.queue_depth.max(1);
        // Bounded *per-worker* queues are the admission-control valve: the
        // total capacity stays `queue_depth`, but each worker drains its
        // own channel, so claiming a connection never contends on a shared
        // receiver lock. When every queue is full the acceptor answers 503
        // instead of queueing without limit.
        let per_worker = queue_depth.div_ceil(workers).max(1);
        let handles = Arc::new(Mutex::new(Vec::new()));
        let mut senders = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::sync_channel::<TcpStream>(per_worker);
            senders.push(tx);
            spawn_worker(&shared, &Arc::new(Mutex::new(rx)), &handles);
        }
        // The refit janitor: runs the jobs the ingest handler cut, polls
        // the dataset store for tenants gone stale, and runs each refit with
        // the same ledger discipline as `POST /fit` (charge first, refund on
        // failure). It runs beside the workers so a long fit never blocks
        // request serving; the store single-flights per tenant, so at most
        // one refit per tenant is in flight regardless of poll cadence.
        let janitor = shared.config.refit.is_enabled().then(|| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                while !shared.shutdown.load(Ordering::SeqCst) {
                    let mut jobs = shared.refits.take(Duration::from_millis(20));
                    jobs.extend(shared.store.due_refits(&shared.config.refit));
                    for job in jobs {
                        run_refit(&shared, &job);
                    }
                }
            })
        });
        let mut next_worker = 0usize;
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(_) if shared.shutdown.load(Ordering::SeqCst) => break,
                Err(_) => {
                    // Transient accept failure (e.g. fd exhaustion):
                    // back off briefly instead of hot-looping; the
                    // condition clears as in-flight connections close.
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
            };
            if shared.shutdown.load(Ordering::SeqCst) {
                // The wake-up connection from the shutdown handler (or a
                // straggler racing it): stop accepting. Dropping the
                // stream closes it; queued requests still complete.
                break;
            }
            // Small responses must not sit in the kernel waiting for an ACK
            // under Nagle — a keep-alive ping-pong would otherwise pay up
            // to one RTT-with-delay per request.
            let _ = stream.set_nodelay(true);
            // Round-robin across worker queues, skipping full ones; a full
            // scan with no slot means the whole tier is saturated.
            let mut pending = Some(stream);
            let mut any_alive = false;
            for offset in 0..workers {
                let w = (next_worker + offset) % workers;
                match senders[w].try_send(pending.take().expect("stream present")) {
                    Ok(()) => {
                        shared.metrics.queue_depth.add(1);
                        next_worker = (w + 1) % workers;
                        break;
                    }
                    Err(mpsc::TrySendError::Full(s)) => {
                        any_alive = true;
                        pending = Some(s);
                    }
                    // Unreachable while respawn holds the pool at `workers`
                    // threads; skip rather than spin if it somehow isn't.
                    Err(mpsc::TrySendError::Disconnected(s)) => pending = Some(s),
                }
            }
            match pending {
                None => {}
                Some(stream) if any_alive => reject_overloaded(&shared, stream),
                Some(_) => break, // every worker queue is gone: bail
            }
        }
        drop(senders);
        if let Some(handle) = janitor {
            let _ = handle.join();
        }
        // Join every worker, including any respawned after a panic (the
        // vector grows while we drain it, hence the loop-and-pop).
        loop {
            let handle = handles.lock().expect("worker handles lock poisoned").pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        // A batch drained after the janitor stopped may have cut a job that
        // never ran: release its tenant so the store can cut it again.
        for job in shared.refits.take(Duration::ZERO) {
            shared.store.refit_finished(&job.tenant, None);
        }
        Ok(ServerStats::snapshot(&shared.metrics))
    }

    /// Runs the server on a background thread, returning a handle with the
    /// bound address and the eventual stats.
    #[must_use]
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let metrics = Arc::clone(&self.shared.metrics);
        let join = std::thread::spawn(move || self.run());
        ServerHandle { addr, metrics, join }
    }
}

/// A running background server (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: Arc<ServerMetrics>,
    join: std::thread::JoinHandle<Result<ServerStats, ServerError>>,
}

impl ServerHandle {
    /// The server's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current counters, read live while the server runs — the same
    /// registry `GET /metrics` and `GET /healthz` serve, so this view and
    /// the final [`ServerHandle::join`] value can never disagree.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        ServerStats::snapshot(&self.metrics)
    }

    /// The live metric registry surface (shared with the running server).
    #[must_use]
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Waits for the server to shut down (something must send
    /// `POST /shutdown`, e.g. [`crate::client::Client::shutdown`]).
    ///
    /// # Errors
    /// Propagates the server's exit error; panics if the server thread
    /// panicked.
    pub fn join(self) -> Result<ServerStats, ServerError> {
        self.join.join().expect("server thread panicked")
    }
}

/// Starts one pool worker over its own connection queue; its handle is
/// recorded in `handles` so shutdown can join the *current* pool even
/// after respawns.
fn spawn_worker(
    shared: &Arc<Shared>,
    rx: &Arc<Mutex<mpsc::Receiver<TcpStream>>>,
    handles: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    let shared = Arc::clone(shared);
    let rx = Arc::clone(rx);
    let handles_slot = Arc::clone(handles);
    let handle = std::thread::spawn(move || {
        let guard = RespawnGuard {
            shared: Arc::clone(&shared),
            rx: Arc::clone(&rx),
            handles: Arc::clone(&handles_slot),
        };
        worker_loop(&shared, &rx);
        // Clean exit: disarm the guard so no replacement is spawned.
        std::mem::forget(guard);
    });
    handles.lock().expect("worker handles lock poisoned").push(handle);
}

/// How long a worker waits on one socket probe while it has parked
/// connections to rotate through. Small enough that a request landing on
/// any parked connection (or the worker's queue) is picked up promptly;
/// large enough not to spin.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// One worker: drains its queue, serving each connection's requests until
/// the connection goes idle — idle connections are *parked* and polled
/// between new ones, so a quiet keep-alive client never pins the worker.
fn worker_loop(shared: &Shared, rx: &Mutex<mpsc::Receiver<TcpStream>>) {
    let mut parked: VecDeque<Conn> = VecDeque::new();
    loop {
        // New connections take priority; block on the queue only when no
        // parked connection could become ready behind our back.
        let incoming = if parked.is_empty() {
            match rx.lock().expect("worker queue lock poisoned").recv() {
                Ok(stream) => Some(stream),
                Err(_) => return, // acceptor closed the channel: drain done
            }
        } else {
            match rx.lock().expect("worker queue lock poisoned").try_recv() {
                Ok(stream) => Some(stream),
                Err(mpsc::TryRecvError::Empty) => None,
                // Shutdown: parked connections are idle by definition —
                // dropping them closes them with no request in flight.
                Err(mpsc::TryRecvError::Disconnected) => return,
            }
        };
        if let Some(stream) = incoming {
            // The connection has left the pending queue and owns this
            // worker now.
            shared.metrics.queue_depth.sub(1);
            if let Some(conn) = Conn::new(shared, stream) {
                drive(shared, conn, &mut parked);
            }
            continue;
        }
        // Nothing new: give the longest-parked connection a poll window.
        let mut conn = parked.pop_front().expect("checked non-empty above");
        match conn.poll(IDLE_POLL) {
            Poll::Ready => drive(shared, conn, &mut parked),
            Poll::Idle if conn.parked_at.elapsed() >= shared.config.idle_deadline => {
                // Idle past the deadline: close silently (there is no
                // request to answer).
            }
            Poll::Idle => parked.push_back(conn),
            Poll::Closed => {} // peer hung up between requests
        }
    }
}

/// Serves requests on `conn` for as long as they keep coming, then parks
/// it (keep-alive, no data ready) or drops it (close).
fn drive(shared: &Shared, mut conn: Conn, parked: &mut VecDeque<Conn>) {
    loop {
        if !serve_request(shared, &mut conn) {
            return; // dropping the connection closes it
        }
        // Linger briefly: a pipelining or ping-pong client's next request
        // lands within the window and is served with zero handoff.
        match conn.poll(IDLE_POLL) {
            Poll::Ready => continue,
            Poll::Closed => return,
            Poll::Idle => {
                conn.parked_at = Instant::now();
                parked.push_back(conn);
                return;
            }
        }
    }
}

/// The connection's IO type: faultable in test builds, bare TCP otherwise.
#[cfg(any(test, feature = "fault-injection"))]
type ConnIo = FaultStream<TcpStream>;
#[cfg(not(any(test, feature = "fault-injection")))]
type ConnIo = TcpStream;

/// Outcome of probing a connection for buffered request bytes.
enum Poll {
    /// Request bytes are buffered: serve now.
    Ready,
    /// No data within the window; the socket is still open.
    Idle,
    /// EOF or a socket error between requests: nothing left to serve.
    Closed,
}

/// One accepted connection with its buffered halves and keep-alive state.
struct Conn {
    /// A plain handle on the socket, kept for timeout control (the file
    /// description — and thus `SO_RCVTIMEO` — is shared with both halves).
    socket: TcpStream,
    reader: BufReader<ConnIo>,
    writer: TrackedWriter<BufWriter<ConnIo>>,
    /// Requests already answered on this connection.
    served: u64,
    /// When the connection was last parked (for the idle deadline).
    parked_at: Instant,
}

impl Conn {
    /// Wraps an accepted socket. Under fault injection both halves go
    /// through the currently installed plan (captured once per connection).
    fn new(shared: &Shared, stream: TcpStream) -> Option<Self> {
        let _ = stream.set_read_timeout(Some(shared.config.read_deadline));
        let _ = stream.set_write_timeout(Some(shared.config.write_deadline));
        let read_half = stream.try_clone().ok()?;
        let socket = stream.try_clone().ok()?;
        #[cfg(any(test, feature = "fault-injection"))]
        let (reader, writer) = {
            let plan = shared.fault.read().expect("fault plan lock poisoned").clone();
            (
                BufReader::new(FaultStream::new(read_half, plan.clone())),
                TrackedWriter::new(BufWriter::new(FaultStream::new(stream, plan))),
            )
        };
        #[cfg(not(any(test, feature = "fault-injection")))]
        let (reader, writer) =
            (BufReader::new(read_half), TrackedWriter::new(BufWriter::new(stream)));
        Some(Self { socket, reader, writer, served: 0, parked_at: Instant::now() })
    }

    /// Probes for buffered request bytes, waiting at most `window`.
    fn poll(&mut self, window: Duration) -> Poll {
        let _ = self.socket.set_read_timeout(Some(window));
        match self.reader.fill_buf() {
            Ok([]) => Poll::Closed,
            Ok(_) => Poll::Ready,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Poll::Idle
            }
            Err(_) => Poll::Closed,
        }
    }
}

/// The per-request core: read, dispatch inside `catch_unwind`, answer,
/// count. Returns whether the connection survives for another request.
///
/// A handler panic is isolated to this request — counted, answered with a
/// structured 500 when the response has not started (after that the torn
/// connection itself is the correct failure signal) — and always closes
/// the connection. A read deadline expiring mid-request is answered 408. A
/// peer that closes (or resets) a kept-alive connection *between* requests
/// is not an error and not a request: the connection is dropped silently,
/// so idle churn never skews the request counters.
fn serve_request(shared: &Shared, conn: &mut Conn) -> bool {
    let metrics = &shared.metrics;
    // `poll` may have shrunk the socket timeout; requests get the full
    // read deadline (the head may still be in flight behind the probe).
    let _ = conn.socket.set_read_timeout(Some(shared.config.read_deadline));
    conn.writer.begin_request();
    let parsed = Request::read_from(&mut conn.reader);
    let reused = conn.served > 0;
    if reused && matches!(parsed, Err(ServerError::Io(_))) {
        // EOF or reset between requests on a kept-alive connection.
        return false;
    }
    let inbound_id = parsed.as_ref().ok().and_then(|r| r.header("x-privbayes-request-id"));
    let ctx = RequestCtx::new(metrics, metrics.request_id(inbound_id));
    ctx.stage("parse");
    let (method, path) = match &parsed {
        Ok(request) => (request.method.clone(), request.path.clone()),
        Err(_) => ("-".to_string(), "-".to_string()),
    };
    let mut keep = false;
    match parsed {
        Ok(request) => {
            if reused {
                metrics.connections_reused.inc();
            }
            conn.served += 1;
            ctx.keep_alive.set(
                request.wants_keep_alive()
                    && conn.served < shared.config.max_conn_requests.max(1) as u64
                    && !shared.shutdown.load(Ordering::SeqCst),
            );
            let deadline = Instant::now() + shared.config.handler_deadline;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                route(shared, &request, &mut conn.writer, deadline, &ctx)
            }));
            match outcome {
                // The handler may flip `keep_alive` off (shutdown does).
                Ok(Ok(())) => keep = ctx.keep_alive.get(),
                // Socket-level failure mid-response: for a streaming
                // response this is the deliberate truncation path — the
                // close is what lets the client detect the torn transfer.
                Ok(Err(_)) => {}
                Err(_) => {
                    metrics.panics.inc();
                    if !conn.writer.started() {
                        ctx.keep_alive.set(false);
                        let _ = respond_error(
                            &mut conn.writer,
                            &ctx,
                            500,
                            "internal",
                            "request handler panicked",
                        );
                    }
                }
            }
        }
        Err(ServerError::Timeout(msg)) => {
            ctx.endpoint.set("read");
            let _ = respond_error(&mut conn.writer, &ctx, 408, "request-timeout", &msg);
        }
        Err(e) => {
            ctx.endpoint.set("read");
            let _ = respond_error(&mut conn.writer, &ctx, 400, "bad-request", &e.to_string());
        }
    }
    metrics.finish_request(&ctx, &method, &path, conn.writer.request_bytes());
    keep
}

/// Insurance against pool decay: per-request `catch_unwind` already stops
/// panics from unwinding the worker loop, but if one ever escapes anyway
/// (e.g. a panic inside the response-error path itself), this guard spawns
/// a replacement worker as the dying thread unwinds, so pool capacity never
/// shrinks.
struct RespawnGuard {
    shared: Arc<Shared>,
    rx: Arc<Mutex<mpsc::Receiver<TcpStream>>>,
    handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.metrics.panics.inc();
            spawn_worker(&self.shared, &self.rx, &self.handles);
        }
    }
}

/// Answers an over-capacity connection from the acceptor thread: an
/// immediate 503 with `Retry-After`, without reading the request — the
/// whole point is to spend no worker time on it. The rejection still goes
/// through the normal instrumentation path, so overload shows up in the
/// request counters and the access log (under `endpoint="acceptor"`), not
/// just in `queue_rejected`.
fn reject_overloaded(shared: &Shared, stream: TcpStream) {
    let metrics = &shared.metrics;
    metrics.queue_rejected.inc();
    let ctx = RequestCtx::new(metrics, metrics.request_id(None));
    ctx.endpoint.set("acceptor");
    let _ = stream.set_write_timeout(Some(shared.config.write_deadline));
    let mut writer = TrackedWriter::new(BufWriter::new(stream));
    let body = Json::object(vec![
        ("error", Json::String("overloaded".into())),
        ("message", Json::String("pending-connection queue is full; retry shortly".into())),
    ]);
    let text = body.to_string_compact().expect("static body");
    ctx.status.set(503);
    let _ = write_response(
        &mut writer,
        503,
        "application/json",
        &[API_HEADER, ("Retry-After", "1"), (REQUEST_ID_HEADER, &ctx.id)],
        false,
        text.as_bytes(),
    );
    metrics.finish_request(&ctx, "-", "-", writer.request_bytes());
}

/// A writer that counts response bytes per request on a persistent
/// connection: `started` tells the panic handler whether a structured 500
/// is still possible for the *current* request, and `request_bytes` feeds
/// the access log.
struct TrackedWriter<W: Write> {
    inner: W,
    bytes: u64,
    mark: u64,
}

impl<W: Write> TrackedWriter<W> {
    fn new(inner: W) -> Self {
        Self { inner, bytes: 0, mark: 0 }
    }

    /// Resets the per-request view (call before reading each request).
    fn begin_request(&mut self) {
        self.mark = self.bytes;
    }

    /// Whether any byte of the current request's response was written.
    fn started(&self) -> bool {
        self.bytes > self.mark
    }

    /// Bytes written for the current request.
    fn request_bytes(&self) -> u64 {
        self.bytes - self.mark
    }
}

impl<W: Write> Write for TrackedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Dispatches on `(method, path)`. Each arm labels `ctx.endpoint` before
/// doing any work, so even a response that fails mid-write is attributed.
fn route<W: Write>(
    shared: &Shared,
    req: &Request,
    out: &mut W,
    deadline: Instant,
    ctx: &RequestCtx<'_>,
) -> std::io::Result<()> {
    #[cfg(any(test, feature = "fault-injection"))]
    if let Some(plan) = shared.fault.read().expect("fault plan lock poisoned").as_ref() {
        if let Some(Fault::Panic) = plan.take(FaultSite::Handler) {
            panic!("injected handler panic");
        }
    }
    let segments = req.segments();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            ctx.endpoint.set("healthz");
            let metrics = &shared.metrics;
            respond_json(
                out,
                ctx,
                200,
                &Json::object(vec![
                    ("status", Json::String("ok".into())),
                    ("models", Json::from_usize(shared.registry.len())),
                    ("tenants", Json::from_usize(shared.ledger.snapshot().len())),
                    (
                        "requests",
                        Json::from_usize(
                            metrics.registry().counter_total("privbayes_requests_total") as usize,
                        ),
                    ),
                    ("panics", Json::from_usize(metrics.panics.get() as usize)),
                    ("queue_rejected", Json::from_usize(metrics.queue_rejected.get() as usize)),
                    ("queue_depth", Json::from_usize(metrics.queue_depth.get().max(0) as usize)),
                    (
                        "active_streams",
                        Json::from_usize(metrics.active_streams.get().max(0) as usize),
                    ),
                ]),
            )
        }
        ("GET", ["metrics"]) => {
            ctx.endpoint.set("metrics");
            if !shared.config.metrics_enabled {
                return respond_error(
                    out,
                    ctx,
                    404,
                    "not-found",
                    "metrics exposition is disabled on this server",
                );
            }
            let body = shared.metrics.render(&shared.ledger.snapshot());
            ctx.status.set(200);
            ctx.stage("write");
            write_response(
                out,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &[API_HEADER, (REQUEST_ID_HEADER, &ctx.id)],
                ctx.keep_alive.get(),
                body.as_bytes(),
            )
        }
        ("GET", ["models"]) => {
            ctx.endpoint.set("models");
            let models: Vec<Json> = shared.registry.list().iter().map(|e| model_json(e)).collect();
            respond_json(out, ctx, 200, &Json::Array(models))
        }
        ("PUT", ["models", id]) => load_model(shared, id, &req.body, out, ctx),
        ("GET", ["models", id]) => {
            ctx.endpoint.set("models");
            ctx.stage("lookup");
            match shared.registry.get(id) {
                Some(entry) => respond_json(out, ctx, 200, &model_json(&entry)),
                None => respond_error(out, ctx, 404, "model-not-found", id),
            }
        }
        ("DELETE", ["models", id]) => {
            ctx.endpoint.set("models");
            if shared.registry.evict(id) {
                respond_json(
                    out,
                    ctx,
                    200,
                    &Json::object(vec![("evicted", Json::String((*id).to_string()))]),
                )
            } else {
                respond_error(out, ctx, 404, "model-not-found", id)
            }
        }
        ("POST", ["v1", "models", id, "synth"]) => synth_v1(shared, id, req, out, deadline, ctx),
        ("POST", ["v1", "models", id, "query"]) => query_v1(shared, id, req, out, ctx),
        ("GET", ["v1", "models", id, "generations"]) => generations_v1(shared, id, out, ctx),
        ("POST", ["v1", "tenants", tenant, "ingest"]) => ingest_v1(shared, tenant, req, out, ctx),
        ("POST", ["fit"]) => fit(shared, req, out, deadline, ctx),
        ("GET", ["tenants"]) => {
            ctx.endpoint.set("tenants");
            let tenants: Vec<Json> = shared.ledger.snapshot().iter().map(tenant_json).collect();
            respond_json(out, ctx, 200, &Json::Array(tenants))
        }
        ("PUT", ["tenants", id]) => {
            ctx.endpoint.set("tenants");
            let Some(raw) = req.query("budget") else {
                return respond_error(
                    out,
                    ctx,
                    400,
                    "bad-request",
                    "missing `budget` query parameter",
                );
            };
            let Ok(total) = raw.parse::<f64>() else {
                return respond_error(out, ctx, 400, "bad-request", "unparsable `budget`");
            };
            match shared.ledger.register(id, total) {
                Ok(()) => {
                    let row = shared.ledger.budget(id).expect("registered above");
                    respond_json(out, ctx, 201, &tenant_json(&row))
                }
                Err(ServerError::Conflict(msg)) => {
                    respond_error(out, ctx, 409, "tenant-exists", &msg)
                }
                Err(e @ ServerError::Ledger(_)) => {
                    respond_error(out, ctx, 500, "ledger-error", &e.to_string())
                }
                Err(e) => respond_error(out, ctx, 400, "bad-request", &e.to_string()),
            }
        }
        ("GET", ["tenants", id]) => {
            ctx.endpoint.set("tenants");
            match shared.ledger.budget(id) {
                Some(row) => respond_json(out, ctx, 200, &tenant_json(&row)),
                None => respond_error(out, ctx, 404, "tenant-not-found", id),
            }
        }
        ("POST", ["shutdown"]) => {
            ctx.endpoint.set("shutdown");
            shared.shutdown.store(true, Ordering::SeqCst);
            // The final response on a draining server always closes.
            ctx.keep_alive.set(false);
            let result = respond_json(
                out,
                ctx,
                200,
                &Json::object(vec![("status", Json::String("shutting-down".into()))]),
            );
            // Wake the acceptor, which is blocked in `accept`; it sees the
            // flag and stops. Errors are moot — if the connect fails the
            // listener is already gone.
            let _ = TcpStream::connect(shared.addr);
            result
        }
        // A known path with the wrong method is 405; an unknown path is 404.
        _ if endpoint_label(&segments) != "unknown" => {
            ctx.endpoint.set(endpoint_label(&segments));
            respond_error(out, ctx, 405, "method-not-allowed", &req.method)
        }
        _ => respond_error(out, ctx, 404, "not-found", &req.path),
    }
}

/// The metric endpoint label for a known path, so wrong-method 405s are
/// counted under the endpoint they aimed at instead of `unknown`.
fn endpoint_label(segments: &[&str]) -> &'static str {
    match segments {
        ["healthz"] => "healthz",
        ["metrics"] => "metrics",
        ["models"] | ["models", _] => "models",
        ["v1", "models", _, "synth"] => "synth",
        ["v1", "models", _, "query"] => "query",
        ["v1", "models", _, "generations"] => "generations",
        ["v1", "tenants", _, "ingest"] => "ingest",
        ["fit"] => "fit",
        ["tenants"] | ["tenants", _] => "tenants",
        ["shutdown"] => "shutdown",
        _ => "unknown",
    }
}

/// `PUT /models/{id}`: parse, validate, compile, register.
fn load_model<W: Write>(
    shared: &Shared,
    id: &str,
    body: &[u8],
    out: &mut W,
    ctx: &RequestCtx<'_>,
) -> std::io::Result<()> {
    ctx.endpoint.set("models");
    let Ok(text) = std::str::from_utf8(body) else {
        return respond_error(out, ctx, 400, "bad-request", "artifact body is not UTF-8");
    };
    let artifact = match ReleasedModel::from_json_string(text) {
        Ok(artifact) => artifact,
        Err(e) => return respond_error(out, ctx, 400, "invalid-model", &e.to_string()),
    };
    // `registry.load` validates and eagerly compiles the alias tables; its
    // wall time is the alias-build cost for this artifact.
    let compile_started = Instant::now();
    let loaded = shared.registry.load(id, artifact);
    ctx.metrics.alias_build_seconds.observe(compile_started.elapsed());
    match loaded {
        Ok(created) => {
            let entry = shared.registry.get(id).expect("loaded above");
            shared.metrics.set_model_generation(id, entry.generation);
            respond_json(out, ctx, if created { 201 } else { 200 }, &model_json(&entry))
        }
        Err(e) => respond_error(out, ctx, 400, "invalid-model", &e.to_string()),
    }
}

/// `POST /v1/models/{id}/synth`: parse the [`SynthSpec`] body, resolve it
/// against the model's schema, stream rows.
///
/// [`SynthSpec`]: privbayes_synth::SynthSpec
fn synth_v1<W: Write>(
    shared: &Shared,
    id: &str,
    req: &Request,
    out: &mut W,
    deadline: Instant,
    ctx: &RequestCtx<'_>,
) -> std::io::Result<()> {
    ctx.endpoint.set("synth");
    let json = match parse_json_body(&req.body) {
        Ok(json) => json,
        Err(e) => return respond_error(out, ctx, 400, "bad-request", &e.to_string()),
    };
    let spec = match SynthSpec::from_json(&json) {
        Ok(spec) => spec,
        Err(e) => return respond_invalid_spec(out, ctx, &e),
    };
    ctx.stage("lookup");
    // A `pbc2` cursor pins the model *generation* it was cut from, so a
    // stream resumed across a hot-swap keeps sampling the exact artifact
    // that produced its prefix — bytes identical to the uninterrupted
    // stream. Unpinned requests serve the newest generation.
    let pinned = spec.cursor.as_ref().and_then(|c| c.generation);
    let entry = match pinned {
        None => match shared.registry.get(id) {
            Some(entry) => entry,
            None => return respond_error(out, ctx, 404, "model-not-found", id),
        },
        Some(generation) => match shared.registry.get_generation(id, generation) {
            GenerationLookup::Found(entry) => entry,
            GenerationLookup::Evicted { newest } => {
                return respond_error(
                    out,
                    ctx,
                    410,
                    "generation-evicted",
                    &format!(
                        "generation {generation} of model `{id}` has aged out \
                         (newest is {newest}); restart the stream without a cursor"
                    ),
                );
            }
            GenerationLookup::Unknown => {
                return respond_error(out, ctx, 404, "model-not-found", id)
            }
        },
    };
    let resolved = match spec.resolve(&entry.artifact.schema) {
        Ok(resolved) => resolved,
        Err(e) => return respond_invalid_spec(out, ctx, &e),
    };
    stream_synth(shared, &entry, &resolved, out, deadline, ctx)
}

/// Streams one resolved synthesis request. The response carries
/// `X-PrivBayes-Seed` (the effective seed, also when the server drew it)
/// and `X-PrivBayes-Cursor` (the stream's own resume token), and skips the
/// CSV header on resumed streams so `prefix + resumed` is byte-identical
/// to an uninterrupted stream.
fn stream_synth<W: Write>(
    shared: &Shared,
    entry: &ModelEntry,
    resolved: &ResolvedSynth,
    out: &mut W,
    deadline: Instant,
    ctx: &RequestCtx<'_>,
) -> std::io::Result<()> {
    let rows = resolved.rows.unwrap_or(entry.artifact.metadata.source_rows);
    if rows > shared.config.max_rows {
        return respond_error(
            out,
            ctx,
            400,
            "too-many-rows",
            &format!("rows = {rows} exceeds the per-request cap of {}", shared.config.max_rows),
        );
    }
    let seed = match resolved.seed {
        Some(seed) => seed,
        None => match StdRng::try_from_rng(&mut rand::rngs::SysRng) {
            Ok(mut rng) => rng.random::<u64>(),
            Err(_) => {
                return respond_error(out, ctx, 500, "internal", "entropy source unavailable")
            }
        },
    };
    let sampler = match entry.sampler() {
        Ok(sampler) => sampler,
        Err(e) => return respond_error(out, ctx, 500, "internal", &e.to_string()),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = match sampler.stream_spec(&resolved.sample_spec(rows), &mut rng) {
        Ok(stream) => stream,
        Err(e) => return respond_error(out, ctx, 400, "invalid-spec", &e.to_string()),
    };
    let schema = sampler.schema();
    let projection = resolved.projection.as_deref();
    let seed_text = seed.to_string();
    // The resume token pins the generation actually serving this stream,
    // so resuming after a refit hot-swaps in keeps the original artifact.
    let cursor =
        Cursor { seed, row: resolved.start_row as u64, generation: Some(entry.generation) }
            .encode();
    let headers = [
        API_HEADER,
        ("X-PrivBayes-Seed", &seed_text),
        ("X-PrivBayes-Cursor", &cursor),
        (REQUEST_ID_HEADER, &ctx.id),
    ];
    if Instant::now() >= deadline {
        // Out of budget before the first byte: a clean 408 is still
        // possible (and more useful than a truncated stream).
        return respond_error(out, ctx, 408, "request-timeout", "handler deadline expired");
    }
    ctx.status.set(200);
    let metrics = ctx.metrics;
    metrics.active_streams.add(1);
    let _guard = StreamGuard(metrics);
    // Stage timings and throughput counters accumulate locally per chunk
    // and hit the shared atomics once per stream — the hot loop stays
    // identical in its output bytes and pays no per-chunk contention.
    let mut sample_time = Duration::ZERO;
    let mut write_time = Duration::ZERO;
    let mut rows_out: u64 = 0;
    let mut bytes_out: u64 = 0;
    let finalize = |sample: Duration, write: Duration, rows: u64, bytes: u64| {
        ctx.observe_stage("sample", sample);
        ctx.observe_stage("write", write);
        metrics.rows_streamed.add(rows);
        metrics.bytes_streamed.add(bytes);
    };
    let write_started = Instant::now();
    let mut chunked = ChunkedResponse::begin(
        out,
        200,
        resolved.format.content_type(),
        &headers,
        ctx.keep_alive.get(),
    )?;
    if resolved.start_row == 0 {
        let header = resolved.format.header(schema, projection);
        bytes_out += header.len() as u64;
        chunked.write(header.as_bytes())?;
    }
    write_time += write_started.elapsed();
    // Unconditioned, unprojected, from-the-start streams are pure functions
    // of `(model generation, seed, format, rows)` chunk by chunk, so they
    // route through the row-block cache: each chunk is either replayed from
    // cache or sampled, formatted, and published for the next request.
    // Everything else (evidence, projection, cursor resume) streams cold.
    let cacheable = shared.cache.enabled()
        && resolved.evidence.is_empty()
        && resolved.projection.is_none()
        && resolved.start_row == 0;
    while stream.remaining_rows() > 0 {
        // Deadline at chunk boundaries: once the response has started the
        // only honest way to stop is to truncate the chunked stream (no
        // terminating chunk), which the client decodes as an interrupted
        // transfer and may resume via the cursor.
        if Instant::now() >= deadline {
            finalize(sample_time, write_time, rows_out, bytes_out);
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "handler deadline expired mid-stream",
            ));
        }
        // Chunks are absolute-aligned and seeded by chunk index, so a hit
        // skips the sampler past its chunk and hits and misses interleave
        // without changing a byte.
        let next_row = rows - stream.remaining_rows();
        let chunk_rows = CHUNK_ROWS.min(rows - next_row);
        let key = cacheable.then_some(BlockKey {
            generation: entry.generation,
            seed,
            format: resolved.format,
            chunk_index: next_row / CHUNK_ROWS,
            rows: chunk_rows,
        });
        if let Some(block) = key.as_ref().and_then(|key| shared.cache.get(key)) {
            stream.skip_chunk();
            let write_started = Instant::now();
            rows_out += chunk_rows as u64;
            bytes_out += block.len() as u64;
            chunked.write(block.as_bytes())?;
            write_time += write_started.elapsed();
            continue;
        }
        let sample_started = Instant::now();
        let Some(chunk) = stream.next() else { break };
        sample_time += sample_started.elapsed();
        let write_started = Instant::now();
        let rendered = resolved.format.render(schema, projection, &chunk);
        rows_out += chunk.len() as u64;
        bytes_out += rendered.len() as u64;
        chunked.write(rendered.as_bytes())?;
        if let Some(key) = key {
            shared.cache.insert(key, Arc::from(rendered));
        }
        write_time += write_started.elapsed();
    }
    let write_started = Instant::now();
    let result = chunked.finish();
    write_time += write_started.elapsed();
    finalize(sample_time, write_time, rows_out, bytes_out);
    result
}

/// RAII guard: decrements the `privbayes_active_streams` gauge when a
/// streaming response ends — finished, timed out, or client hang-up alike.
struct StreamGuard<'m>(&'m ServerMetrics);

impl Drop for StreamGuard<'_> {
    fn drop(&mut self) {
        self.0.active_streams.sub(1);
    }
}

/// `POST /v1/models/{id}/query`: answer a [`MarginalQuery`] exactly from
/// the released θ via the deterministic θ-projection — no sampling, no
/// privacy cost (post-processing), bit-reproducible values.
///
/// [`MarginalQuery`]: privbayes_synth::MarginalQuery
fn query_v1<W: Write>(
    shared: &Shared,
    id: &str,
    req: &Request,
    out: &mut W,
    ctx: &RequestCtx<'_>,
) -> std::io::Result<()> {
    ctx.endpoint.set("query");
    ctx.stage("lookup");
    let Some(entry) = shared.registry.get(id) else {
        return respond_error(out, ctx, 404, "model-not-found", id);
    };
    let json = match parse_json_body(&req.body) {
        Ok(json) => json,
        Err(e) => return respond_error(out, ctx, 400, "bad-request", &e.to_string()),
    };
    let schema = &entry.artifact.schema;
    let attrs = match MarginalQuery::from_json(&json).and_then(|q| q.resolve(schema)) {
        Ok(attrs) => attrs,
        Err(e) => return respond_invalid_spec(out, ctx, &e),
    };
    let table = match theta_projection(&entry.artifact.model, schema, &attrs, DEFAULT_CELL_CAP) {
        Ok(table) => table,
        Err(e) => return respond_error(out, ctx, 400, "invalid-spec", &e.to_string()),
    };
    ctx.stage("sample");
    let names: Vec<Json> =
        attrs.iter().map(|&a| Json::String(schema.attribute(a).name().to_string())).collect();
    let dims: Vec<Json> = table.dims().iter().map(|&d| Json::from_usize(d)).collect();
    let values: Vec<Json> = table.values().iter().map(|&v| Json::Number(v)).collect();
    let body = Json::object(vec![
        ("model", Json::String(entry.id.clone())),
        ("attrs", Json::Array(names)),
        ("dims", Json::Array(dims)),
        ("values", Json::Array(values)),
    ]);
    respond_json(out, ctx, 200, &body)
}

/// `GET /v1/models/{id}/generations`: the retained generation chain,
/// newest first — what a pinned cursor can still resume against.
fn generations_v1<W: Write>(
    shared: &Shared,
    id: &str,
    out: &mut W,
    ctx: &RequestCtx<'_>,
) -> std::io::Result<()> {
    ctx.endpoint.set("generations");
    ctx.stage("lookup");
    match shared.registry.generations(id) {
        Some(entries) => {
            let generations: Vec<Json> = entries.iter().map(|e| model_json(e)).collect();
            respond_json(
                out,
                ctx,
                200,
                &Json::object(vec![
                    ("id", Json::String(id.to_string())),
                    ("retained", Json::from_usize(generations.len())),
                    ("generations", Json::Array(generations)),
                ]),
            )
        }
        None => respond_error(out, ctx, 404, "model-not-found", id),
    }
}

/// `POST /v1/tenants/{t}/ingest`: append a schema-validated batch to the
/// tenant's journaled dataset. The first batch must carry `schema` and the
/// refit target (`model_id`, `epsilon`, optional `method`/`seed`); later
/// batches may omit both. Rows ride in `csv` (the `POST /fit` layout) or
/// `jsonl` (one object or array per line). Appending spends no budget —
/// ε is debited by the background refit the appended rows trigger.
fn ingest_v1<W: Write>(
    shared: &Shared,
    tenant: &str,
    req: &Request,
    out: &mut W,
    ctx: &RequestCtx<'_>,
) -> std::io::Result<()> {
    ctx.endpoint.set("ingest");
    let json = match parse_json_body(&req.body) {
        Ok(json) => json,
        Err(e) => return respond_error(out, ctx, 400, "bad-request", &e.to_string()),
    };
    let (spec, format, text) = match parse_ingest_body(&json) {
        Ok(parsed) => parsed,
        Err(e) => return respond_error(out, ctx, 400, "bad-request", &e.to_string()),
    };
    let schema = match json.get("schema") {
        Some(v) => match schema_from_json(v) {
            Ok(schema) => schema,
            Err(e) => return respond_error(out, ctx, 400, "bad-request", &format!("schema: {e}")),
        },
        None => match shared.store.schema(tenant) {
            Some(schema) => schema,
            None => {
                return respond_error(
                    out,
                    ctx,
                    400,
                    "bad-request",
                    &format!("first ingest batch for tenant `{tenant}` must carry `schema`"),
                )
            }
        },
    };
    let batch = match parse_batch(&schema, format, &text) {
        Ok(batch) => batch,
        Err(e) => return respond_error(out, ctx, 400, "bad-batch", &e.to_string()),
    };
    ctx.stage("parse");
    match shared.store.append(tenant, &batch, spec.as_ref()) {
        Ok(receipt) => {
            shared.metrics.record_ingest(tenant, receipt.batch_rows);
            // Cut before answering, so the refit covers exactly the rows
            // that made it due and the next batch waits for the next one.
            if shared.config.refit.is_enabled() {
                if let Some(job) = shared.store.due_refit(tenant, &shared.config.refit) {
                    shared.refits.push(job);
                }
            }
            respond_json(
                out,
                ctx,
                200,
                &Json::object(vec![
                    ("tenant", Json::String(tenant.to_string())),
                    ("batch_rows", Json::from_usize(receipt.batch_rows as usize)),
                    ("total_rows", Json::from_usize(receipt.total_rows as usize)),
                    ("pending_rows", Json::from_usize(receipt.pending_rows as usize)),
                ]),
            )
        }
        Err(e @ ServerError::Dataset(_)) => {
            respond_error(out, ctx, 400, "ingest-rejected", &e.to_string())
        }
        Err(e) => respond_error(out, ctx, 400, "bad-request", &e.to_string()),
    }
}

/// Pulls the optional refit target and the batch rows out of an ingest
/// body. A body naming `model_id` must also carry a valid `epsilon`;
/// `method` defaults to `privbayes` and `seed` to 0 (refit seeds are fixed
/// per tenant so every generation is a pure function of the data).
fn parse_ingest_body(json: &Json) -> Result<(Option<RefitSpec>, BatchFormat, String), ServerError> {
    let field = |name: &str| ServerError::Protocol(format!("missing or mistyped `{name}`"));
    let spec = match json.get("model_id") {
        None => None,
        Some(v) => {
            let model_id = v.as_str().ok_or_else(|| field("model_id"))?.to_string();
            let method = match json.get("method") {
                None => Method::PrivBayes,
                Some(v) => {
                    let name = v.as_str().ok_or_else(|| field("method"))?;
                    Method::parse(name).ok_or_else(|| {
                        ServerError::Protocol(format!(
                            "unknown method `{name}`; valid methods: {}",
                            Method::names()
                        ))
                    })?
                }
            };
            let epsilon =
                json.get("epsilon").and_then(Json::as_f64).ok_or_else(|| field("epsilon"))?;
            let seed = match json.get("seed") {
                None => 0,
                Some(v) => v.as_usize().ok_or_else(|| field("seed"))? as u64,
            };
            Some(RefitSpec { model_id, method, epsilon, seed })
        }
    };
    let (format, text) = if let Some(v) = json.get("csv") {
        (BatchFormat::Csv, v.as_str().ok_or_else(|| field("csv"))?.to_string())
    } else if let Some(v) = json.get("jsonl") {
        (BatchFormat::Jsonl, v.as_str().ok_or_else(|| field("jsonl"))?.to_string())
    } else {
        return Err(ServerError::Protocol("batch must carry `csv` or `jsonl` rows".into()));
    };
    Ok((spec, format, text))
}

/// One background refit: debit the tenant exactly as `POST /fit` would,
/// fit over the tenant's live engine, hot-swap the model's registry
/// generation, and refund the debit on any failure — a failed refit never
/// leaks budget, a successful one is charged exactly once. The fit holds
/// the tenant's dataset lock, so same-tenant appends queue behind it and
/// each generation covers an exact point-in-time prefix of the data.
fn run_refit(shared: &Shared, job: &RefitJob) {
    let spec = &job.spec;
    let spends = spec.method.spends_budget();
    if spends {
        if let Err(e) = shared.ledger.charge(&job.tenant, spec.epsilon) {
            let status = match e {
                LedgerError::Exhausted { .. } => "exhausted",
                _ => "charge-failed",
            };
            shared.metrics.record_refit(status);
            shared.store.refit_finished(&job.tenant, None);
            return;
        }
    } else if shared.ledger.budget(&job.tenant).is_none() {
        shared.metrics.record_refit("charge-failed");
        shared.store.refit_finished(&job.tenant, None);
        return;
    }
    let settings = FitSettings {
        threads: shared.config.fit_threads,
        comment: format!("refit via privbayes-server ingest for tenant {}", job.tenant),
        ..FitSettings::default()
    };
    let fit_started = Instant::now();
    let outcome = shared.store.with_engine(&job.tenant, |engine| {
        let before = engine.stats();
        let fitted =
            fit_method_with_engine(spec.method, engine, spec.epsilon, spec.seed, &settings);
        (before, fitted)
    });
    shared.metrics.fit_seconds.observe(fit_started.elapsed());
    let loaded = match outcome {
        Some((before, Ok(fitted))) => {
            // The tenant engine is long-lived; record only this fit's
            // counter increments, not the cumulative engine totals.
            let after = fitted.stats;
            shared.metrics.record_engine(&EngineStats {
                hits: after.hits.saturating_sub(before.hits),
                projections: after.projections.saturating_sub(before.projections),
                scans: after.scans.saturating_sub(before.scans),
                bytes_materialized: after
                    .bytes_materialized
                    .saturating_sub(before.bytes_materialized),
                ..after
            });
            let compile_started = Instant::now();
            let loaded = shared.registry.load(&spec.model_id, fitted.artifact);
            shared.metrics.alias_build_seconds.observe(compile_started.elapsed());
            loaded.map(|_| ())
        }
        Some((_, Err(e))) => Err(ServerError::Model(e.to_string())),
        None => Err(ServerError::Dataset(format!("tenant `{}` vanished mid-refit", job.tenant))),
    };
    match loaded {
        Ok(()) => {
            if let Some(entry) = shared.registry.get(&spec.model_id) {
                shared.metrics.set_model_generation(&spec.model_id, entry.generation);
            }
            shared.metrics.record_refit("ok");
            shared.store.refit_finished(&job.tenant, Some(job.total_rows));
        }
        Err(_) => {
            if spends {
                shared.ledger.refund(&job.tenant, spec.epsilon);
            }
            shared.metrics.record_refit("failed");
            shared.store.refit_finished(&job.tenant, None);
        }
    }
}

/// Parses a request body as UTF-8 JSON.
fn parse_json_body(body: &[u8]) -> Result<Json, ServerError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServerError::Protocol("request body is not UTF-8".into()))?;
    Json::parse(text).map_err(|e| ServerError::Protocol(e.to_string()))
}

/// Answers a spec-validation failure: `400` with the `invalid-spec` error
/// code and the typed error's message.
fn respond_invalid_spec<W: Write>(
    out: &mut W,
    ctx: &RequestCtx<'_>,
    e: &SpecError,
) -> std::io::Result<()> {
    respond_error(out, ctx, 400, "invalid-spec", &e.to_string())
}

/// `POST /fit`: debit the tenant, fit on the uploaded table with the
/// requested method, register the resulting model. The charge happens first
/// (atomically), and is refunded if the input turns out to be invalid — so a
/// rejected or failed request never leaks budget, and an over-budget request
/// never touches the data. Methods that spend no budget (`uniform`) skip the
/// charge entirely, but the tenant must still be registered.
fn fit<W: Write>(
    shared: &Shared,
    req: &Request,
    out: &mut W,
    deadline: Instant,
    ctx: &RequestCtx<'_>,
) -> std::io::Result<()> {
    ctx.endpoint.set("fit");
    let parsed = match parse_fit_body(&req.body) {
        Ok(parsed) => parsed,
        Err(e) => return respond_error(out, ctx, 400, "bad-request", &e.to_string()),
    };
    ctx.stage("parse");
    // Checked before the charge: a fit that cannot start within its budget
    // must not touch the ledger at all.
    if Instant::now() >= deadline {
        return respond_error(out, ctx, 408, "request-timeout", "handler deadline expired");
    }
    let spends = parsed.method.spends_budget();
    if spends {
        let charged = shared.ledger.charge(&parsed.tenant, parsed.epsilon);
        ctx.stage("ledger");
        match charged {
            Ok(_) => {}
            Err(e @ LedgerError::Exhausted { .. }) => {
                let message = e.to_string();
                let LedgerError::Exhausted { tenant, requested, remaining } = e else {
                    return respond_error(out, ctx, 500, "internal", &message);
                };
                let body = Json::object(vec![
                    ("error", Json::String("budget-exhausted".into())),
                    ("message", Json::String(message)),
                    ("tenant", Json::String(tenant)),
                    ("requested", Json::Number(requested)),
                    ("remaining", Json::Number(remaining)),
                ]);
                return respond_json(out, ctx, 402, &body);
            }
            Err(LedgerError::UnknownTenant(t)) => {
                return respond_error(out, ctx, 404, "tenant-not-found", &t);
            }
            Err(LedgerError::InvalidAmount(msg)) => {
                return respond_error(out, ctx, 400, "bad-request", &msg);
            }
            Err(e @ LedgerError::Persistence(_)) => {
                return respond_error(out, ctx, 500, "ledger-error", &e.to_string());
            }
        }
    } else if shared.ledger.budget(&parsed.tenant).is_none() {
        ctx.stage("ledger");
        return respond_error(out, ctx, 404, "tenant-not-found", &parsed.tenant);
    } else {
        ctx.stage("ledger");
    }
    // Charged: any failure from here on refunds before reporting.
    let fit_started = Instant::now();
    let outcome = run_fit(shared, &parsed);
    shared.metrics.fit_seconds.observe(fit_started.elapsed());
    match outcome {
        Ok(entry) => {
            let remaining = shared.ledger.budget(&parsed.tenant).map_or(0.0, |row| row.remaining());
            let mut body = model_json(&entry);
            if let Json::Object(fields) = &mut body {
                fields.push(("tenant".into(), Json::String(parsed.tenant.clone())));
                fields.push(("remaining".into(), Json::Number(remaining)));
            }
            respond_json(out, ctx, 201, &body)
        }
        Err(e) => {
            if spends {
                shared.ledger.refund(&parsed.tenant, parsed.epsilon);
            }
            respond_error(out, ctx, 400, "fit-failed", &e.to_string())
        }
    }
}

/// A parsed `POST /fit` body.
struct FitRequest {
    tenant: String,
    model_id: String,
    method: Method,
    epsilon: f64,
    beta: Option<f64>,
    theta: Option<f64>,
    alpha: Option<usize>,
    iterations: Option<usize>,
    k: Option<usize>,
    seed: Option<u64>,
    schema: Json,
    csv: String,
}

fn parse_fit_body(body: &[u8]) -> Result<FitRequest, ServerError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServerError::Protocol("fit body is not UTF-8".into()))?;
    let json = Json::parse(text).map_err(|e| ServerError::Protocol(e.to_string()))?;
    let field = |name: &str| ServerError::Protocol(format!("missing or mistyped `{name}`"));
    let str_field = |name: &str| -> Result<String, ServerError> {
        Ok(json.get(name).and_then(Json::as_str).ok_or_else(|| field(name))?.to_string())
    };
    let opt_number = |name: &str| -> Result<Option<f64>, ServerError> {
        match json.get(name) {
            None => Ok(None),
            Some(v) => Ok(Some(v.as_f64().ok_or_else(|| field(name))?)),
        }
    };
    let opt_usize = |name: &str| -> Result<Option<usize>, ServerError> {
        match json.get(name) {
            None => Ok(None),
            Some(v) => Ok(Some(v.as_usize().ok_or_else(|| field(name))?)),
        }
    };
    // Validate the id *here*, before the caller charges the ledger and
    // runs the fit — a request that can only fail at registration must
    // never spend CPU on the DP mechanism.
    let model_id = str_field("model_id")?;
    crate::registry::validate_id(&model_id)?;
    let method = match json.get("method") {
        None => Method::PrivBayes,
        Some(v) => {
            let name = v.as_str().ok_or_else(|| field("method"))?;
            Method::parse(name).ok_or_else(|| {
                ServerError::Protocol(format!(
                    "unknown method `{name}`; valid methods: {}",
                    Method::names()
                ))
            })?
        }
    };
    Ok(FitRequest {
        tenant: str_field("tenant")?,
        model_id,
        method,
        epsilon: json.get("epsilon").and_then(Json::as_f64).ok_or_else(|| field("epsilon"))?,
        beta: opt_number("beta")?,
        theta: opt_number("theta")?,
        alpha: opt_usize("alpha")?,
        iterations: opt_usize("iterations")?,
        k: opt_usize("k")?,
        seed: match json.get("seed") {
            None => None,
            Some(v) => Some(v.as_usize().ok_or_else(|| field("seed"))? as u64),
        },
        schema: json.get("schema").ok_or_else(|| field("schema"))?.clone(),
        csv: str_field("csv")?,
    })
}

/// Fits the model with the requested method and registers it; every failure
/// is reported (and the caller refunds).
fn run_fit(shared: &Shared, fit: &FitRequest) -> Result<Arc<ModelEntry>, ServerError> {
    let schema = schema_from_json(&fit.schema).map_err(|e| ServerError::Model(e.to_string()))?;
    let data = read_csv(&schema, fit.csv.as_bytes())
        .map_err(|e| ServerError::Model(format!("csv: {e}")))?;
    let defaults = FitSettings::default();
    let settings = FitSettings {
        beta: fit.beta.unwrap_or(defaults.beta),
        theta: fit.theta.unwrap_or(defaults.theta),
        alpha: fit.alpha.unwrap_or(defaults.alpha),
        fixed_k: fit.k.unwrap_or(defaults.fixed_k),
        mwem: privbayes_synth::MwemOptions {
            iterations: fit.iterations.unwrap_or(defaults.mwem.iterations),
            ..defaults.mwem
        },
        threads: shared.config.fit_threads,
        comment: format!("fit via privbayes-server for tenant {}", fit.tenant),
        ..defaults
    };
    let seed = match fit.seed {
        Some(seed) => seed,
        None => StdRng::try_from_rng(&mut rand::rngs::SysRng)
            .map_err(|_| ServerError::Io("entropy source unavailable".into()))?
            .random::<u64>(),
    };
    let fitted = fit_method(fit.method, &data, fit.epsilon, seed, &settings)
        .map_err(|e| ServerError::Model(e.to_string()))?;
    // The fit-phase engine counters (cache hits, scans, bytes materialised)
    // feed the `privbayes_engine_*` families; the registry load is the
    // alias-compile step and is timed as such.
    shared.metrics.record_engine(&fitted.stats);
    let compile_started = Instant::now();
    let loaded = shared.registry.load(&fit.model_id, fitted.artifact);
    shared.metrics.alias_build_seconds.observe(compile_started.elapsed());
    loaded?;
    let entry = shared.registry.get(&fit.model_id).expect("loaded above");
    shared.metrics.set_model_generation(&fit.model_id, entry.generation);
    Ok(entry)
}

/// A model's public metadata (no conditionals — those are the artifact).
fn model_json(entry: &ModelEntry) -> Json {
    let meta = &entry.artifact.metadata;
    Json::object(vec![
        ("id", Json::String(entry.id.clone())),
        ("generation", Json::from_usize(entry.generation as usize)),
        ("method", Json::String(meta.method.clone())),
        ("attributes", Json::from_usize(entry.artifact.schema.len())),
        ("epsilon", Json::Number(meta.epsilon)),
        ("source_rows", Json::from_usize(meta.source_rows)),
        ("score", Json::String(meta.score.clone())),
        ("encoding", Json::String(meta.encoding.clone())),
    ])
}

fn tenant_json(row: &TenantBudget) -> Json {
    Json::object(vec![
        ("tenant", Json::String(row.tenant.clone())),
        ("total", Json::Number(row.total)),
        ("spent", Json::Number(row.spent)),
        ("remaining", Json::Number(row.remaining())),
    ])
}

/// Writes a complete JSON response. Every response carries the
/// [`API_HEADER`] and the request id (errors included), and records its
/// status on the [`RequestCtx`] so the access log and counters agree with
/// what hit the wire.
fn respond_json<W: Write>(
    out: &mut W,
    ctx: &RequestCtx<'_>,
    code: u16,
    body: &Json,
) -> std::io::Result<()> {
    let text = body.to_string_compact().expect("response bodies are finite");
    ctx.status.set(code);
    ctx.stage("write");
    write_response(
        out,
        code,
        "application/json",
        &[API_HEADER, (REQUEST_ID_HEADER, &ctx.id)],
        ctx.keep_alive.get(),
        text.as_bytes(),
    )
}

/// Writes a structured error: `{"error": CODE, "message": …}`.
fn respond_error<W: Write>(
    out: &mut W,
    ctx: &RequestCtx<'_>,
    code: u16,
    error: &str,
    message: &str,
) -> std::io::Result<()> {
    let body = Json::object(vec![
        ("error", Json::String(error.to_string())),
        ("message", Json::String(message.to_string())),
    ]);
    respond_json(out, ctx, code, &body)
}
