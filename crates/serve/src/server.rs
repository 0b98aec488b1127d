//! The daemon core: routing, the in-memory result cache, single-flight
//! job deduplication, and admission control.
//!
//! [`Server`] is generic over an [`Engine`] — the thing that knows how
//! to turn a cache key into a report document (in production the
//! experiment harness; in tests a mock). Everything service-shaped
//! lives here: concurrent identical requests for one cache key share a
//! single execution (single-flight), finished cells are held warm in
//! memory and persisted to the content-addressed [`ResultStore`], and
//! a bounded admission queue sheds load with `429 Too Many Requests` +
//! `Retry-After` instead of queueing unboundedly.
//!
//! [`Server::handle`] maps one parsed request to one response with no
//! I/O on the connection and no clock reads, so request/response pairs
//! are deterministic and pinned as golden files; the nondeterministic
//! parts (latency epochs, the accept loop) live in [`Server::serve`].

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use tdc_util::http::{read_request, write_response, Request, Response};
use tdc_util::obs::{EventKind, EventLog, LogHistogram};
use tdc_util::{run_tasks_telemetry, Json};

use crate::store::ResultStore;
use crate::wire;

/// In-memory result-cache counters reported by an [`Engine`] (the
/// harness `ResultCache` hit/miss/insert counters in production).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a cached report.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Reports inserted.
    pub inserts: u64,
}

/// What the server needs from the experiment side. One instance backs
/// the whole daemon lifetime, holding its result cache warm across
/// requests.
pub trait Engine: Send + Sync + 'static {
    /// Every figure id this engine can materialize, in catalog order.
    fn figure_ids(&self) -> Vec<String>;
    /// The job cache keys behind one figure id; `None` if unknown.
    fn figure_keys(&self, id: &str) -> Option<Vec<String>>;
    /// Whether `key` names a cell in this engine's job plan.
    fn has_key(&self, key: &str) -> bool;
    /// Number of distinct cells in the job plan.
    fn key_count(&self) -> usize;
    /// Executes (or fetches from its own cache) the cell for `key`,
    /// returning the report document.
    fn execute(&self, key: &str) -> Result<Json, String>;
    /// Generates the figure document for `id`; all of the figure's
    /// cells have been materialized via [`Engine::execute`] or
    /// [`Engine::preload`] first.
    fn figure(&self, id: &str) -> Result<Json, String>;
    /// Seeds the engine's cache with a previously-stored report for
    /// `key` (warm start from the disk store).
    fn preload(&self, key: &str, report: &Json) -> Result<(), String>;
    /// The engine-side result-cache counters.
    fn cache_stats(&self) -> CacheStats;
}

/// Daemon tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads per sweep (feeds
    /// [`tdc_util::pool::run_tasks_telemetry`]).
    pub jobs: usize,
    /// Admission-queue capacity: the maximum number of concurrently
    /// admitted work requests (`/sweep`, `/figure`); beyond it the
    /// server answers `429` with `Retry-After`.
    pub queue: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            queue: 32,
        }
    }
}

thread_local! {
    /// Server locks the current thread holds (0 or 1; see [`locked`]).
    static HELD: Cell<u32> = const { Cell::new(0) };
}

/// A held server lock: the guard plus the thread's held-lock token.
/// Fields drop in order, so the mutex is released before the count.
struct Locked<'a, T> {
    guard: MutexGuard<'a, T>,
    _held: Held,
}

/// One server lock counted against the current thread.
struct Held;

impl Held {
    fn take() -> Self {
        let held = HELD.with(|n| n.replace(n.get() + 1));
        debug_assert_eq!(held, 0, "server lock taken while holding another server lock");
        Held
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|n| n.set(n.get() - 1));
    }
}

/// Locks `m`, recovering the data from a poisoned mutex. A poisoned
/// lock means some other request's thread panicked; every critical
/// section here leaves its map/counter consistent at each step, so the
/// daemon keeps serving instead of cascading the panic through every
/// thread that touches the same lock.
///
/// Every server lock is a leaf: no thread takes one while holding
/// another, which debug builds assert before blocking. Code that holds
/// a single lock at a time cannot deadlock on lock order, whatever
/// order its critical sections run in. Edition 2021 keeps temporaries
/// of an `if let`/`match` scrutinee or of a whole `let` statement alive
/// to the end of that construct, so take each guard in its own
/// statement.
fn locked<T>(m: &Mutex<T>) -> Locked<'_, T> {
    let held = Held::take();
    Locked {
        guard: m.lock().unwrap_or_else(PoisonError::into_inner),
        _held: held,
    }
}

impl<T> Locked<'_, T> {
    /// Blocks on `cv`, releasing the lock while asleep (the thread
    /// holds no server lock then) and retaking it on wakeup.
    fn wait(self, cv: &Condvar) -> Self {
        let Locked { guard, _held } = self;
        drop(_held);
        let guard = cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        Locked {
            guard,
            _held: Held::take(),
        }
    }
}

impl<T> Deref for Locked<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for Locked<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// One `/metrics` epoch record: a completed request with its latency.
#[derive(Debug, Clone)]
struct EpochRecord {
    epoch: u64,
    endpoint: String,
    status: u16,
    micros: u64,
}

/// How many recent epochs `/metrics` retains.
const EPOCH_RING: usize = 64;

/// Service counters (observability only; never part of deterministic
/// response payloads except on `/metrics` and `/status` themselves).
#[derive(Default)]
struct Metrics {
    sweep: AtomicU64,
    figure: AtomicU64,
    status: AtomicU64,
    metrics: AtomicU64,
    shutdown: AtomicU64,
    other: AtomicU64,
    executed: AtomicU64,
    mem_hits: AtomicU64,
    deduped: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    peak_active: AtomicU64,
    epoch: AtomicU64,
    epochs: Mutex<VecDeque<EpochRecord>>,
    latency_us: Mutex<LogHistogram>,
    // Cumulative scheduler counters over every pooled sweep batch
    // (DESIGN.md §7); wall-clock observability, `/metrics` only.
    pool_batches: AtomicU64,
    pool_tasks: AtomicU64,
    pool_busy_ns: AtomicU64,
    pool_idle_ns: AtomicU64,
}

/// A single in-flight computation for one cache key; followers block
/// on `ready` until the leader fills `slot`.
struct Flight {
    slot: Mutex<Option<Result<Arc<Json>, String>>>,
    ready: Condvar,
}

/// The long-running sweep service. See the module docs for the split
/// between deterministic routing ([`Server::handle`]) and the socket
/// loop ([`Server::serve`]).
pub struct Server<E: Engine> {
    engine: E,
    cfg: ServerConfig,
    store: Option<ResultStore>,
    store_loaded: AtomicU64,
    mem: Mutex<BTreeMap<String, Arc<Json>>>,
    flights: Mutex<BTreeMap<String, Arc<Flight>>>,
    active: Mutex<usize>,
    metrics: Metrics,
    next_id: AtomicU64,
    event_log: Option<EventLog>,
    stop: AtomicBool,
    addr: Mutex<Option<SocketAddr>>,
    conns: Mutex<usize>,
    conns_idle: Condvar,
}

/// Releases one admission slot on drop, so every early return from a
/// work endpoint gives its slot back.
struct AdmissionSlot<'a, E: Engine>(&'a Server<E>);

impl<E: Engine> Drop for AdmissionSlot<'_, E> {
    fn drop(&mut self) {
        let mut active = locked(&self.0.active);
        *active = active.saturating_sub(1);
    }
}

impl<E: Engine> Server<E> {
    /// A server over `engine`, optionally persisting results to
    /// `store`.
    pub fn new(engine: E, cfg: ServerConfig, store: Option<ResultStore>) -> Self {
        Self {
            engine,
            cfg: ServerConfig {
                jobs: cfg.jobs.max(1),
                queue: cfg.queue,
            },
            store,
            store_loaded: AtomicU64::new(0),
            mem: Mutex::new(BTreeMap::new()),
            flights: Mutex::new(BTreeMap::new()),
            active: Mutex::new(0),
            metrics: Metrics::default(),
            next_id: AtomicU64::new(0),
            event_log: None,
            stop: AtomicBool::new(false),
            addr: Mutex::new(None),
            conns: Mutex::new(0),
            conns_idle: Condvar::new(),
        }
    }

    /// The engine backing this server.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Attaches a structured event log (DESIGN.md §13). Every request
    /// handled after this writes span-correlated JSONL events tagged
    /// with the request id.
    pub fn with_event_log(mut self, log: EventLog) -> Self {
        self.event_log = Some(log);
        self
    }

    /// Emits one structured event, if an event log is attached.
    /// Fire-and-forget: logging never fails a request.
    fn event(&self, rid: u64, span: &str, kind: EventKind, detail: &str) {
        if let Some(log) = &self.event_log {
            log.emit(rid, span, kind, detail);
        }
    }

    /// Records one request latency into the Prometheus histogram.
    /// Public so exposition-format golden tests can feed deterministic
    /// samples; production callers go through the private
    /// `Server::record_epoch`.
    pub fn observe_latency_us(&self, micros: u64) {
        locked(&self.metrics.latency_us).record(micros);
    }

    /// Whether `/shutdown` has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Preloads every valid, in-plan entry from the disk store into the
    /// engine cache and the in-memory map. Returns `(loaded, skipped)`;
    /// out-of-plan entries (other scales/seeds) stay on disk untouched.
    pub fn warm_load(&self) -> io::Result<(usize, usize)> {
        let Some(store) = &self.store else {
            return Ok((0, 0));
        };
        let (entries, mut skipped) = store.load_all()?;
        let mut loaded = 0usize;
        for (key, doc) in entries {
            if !self.engine.has_key(&key) {
                continue;
            }
            if self.engine.preload(&key, &doc).is_ok() {
                locked(&self.mem).insert(key, Arc::new(doc));
                loaded += 1;
            } else {
                skipped += 1;
            }
        }
        self.store_loaded.store(loaded as u64, Ordering::Relaxed);
        Ok((loaded, skipped))
    }

    // -- deterministic request handling ---------------------------------

    /// Maps one request to one response. Pure with respect to the
    /// connection: no socket I/O, no clock reads — the counters it
    /// bumps only surface through `/status` and `/metrics`.
    pub fn handle(&self, req: &Request) -> Response {
        let rid = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.event(
            rid,
            "request",
            EventKind::RequestBegin,
            &format!("{} {}", req.method, req.target),
        );
        let resp = self.handle_with_id(req, rid);
        self.event(
            rid,
            "request",
            EventKind::RequestEnd,
            &format!("{} {}", req.target, resp.status),
        );
        resp
    }

    /// [`Server::handle`] with the request id already assigned; the id
    /// tags every structured event this request produces, including
    /// those emitted from pool workers while materializing cells.
    fn handle_with_id(&self, req: &Request, rid: u64) -> Response {
        match (req.method.as_str(), req.target.as_str()) {
            ("POST", "/sweep") => {
                self.metrics.sweep.fetch_add(1, Ordering::Relaxed);
                self.sweep(rid, &req.target, &req.body)
            }
            ("GET", target) if target.starts_with("/figure/") => {
                self.metrics.figure.fetch_add(1, Ordering::Relaxed);
                self.figure_endpoint(rid, target)
            }
            ("GET", "/status") => {
                self.metrics.status.fetch_add(1, Ordering::Relaxed);
                self.status_endpoint()
            }
            ("GET", "/metrics") => {
                self.metrics.metrics.fetch_add(1, Ordering::Relaxed);
                self.metrics_endpoint()
            }
            ("GET", "/metrics.prom") => {
                self.metrics.metrics.fetch_add(1, Ordering::Relaxed);
                Response::new(
                    200,
                    "text/plain; version=0.0.4",
                    self.prometheus_text().into_bytes(),
                )
            }
            ("POST", "/shutdown") => {
                self.metrics.shutdown.fetch_add(1, Ordering::Relaxed);
                self.stop.store(true, Ordering::SeqCst);
                self.ok("/shutdown", Json::obj([("stopping", Json::from(true))]))
            }
            (_, target @ ("/sweep" | "/status" | "/metrics" | "/metrics.prom" | "/shutdown")) => {
                self.metrics.other.fetch_add(1, Ordering::Relaxed);
                self.error(target, 405, &format!("method {} not allowed here", req.method))
            }
            (_, target) if target.starts_with("/figure/") => {
                self.metrics.other.fetch_add(1, Ordering::Relaxed);
                self.error(target, 405, &format!("method {} not allowed here", req.method))
            }
            (_, target) => {
                self.metrics.other.fetch_add(1, Ordering::Relaxed);
                self.error(target, 404, &format!("no such endpoint '{target}'"))
            }
        }
    }

    fn sweep(&self, rid: u64, endpoint: &str, body: &[u8]) -> Response {
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => return self.error(endpoint, 400, "request body is not UTF-8"),
        };
        let doc = match Json::parse(text) {
            Ok(d) => d,
            Err(e) => return self.error(endpoint, 400, &format!("malformed JSON: {e}")),
        };
        let parsed = match wire::parse_sweep(&doc) {
            Ok(p) => p,
            Err(e) => return self.error(endpoint, 400, &e),
        };

        let mut keys = parsed.keys;
        for fig in &parsed.figures {
            match self.engine.figure_keys(fig) {
                Some(more) => keys.extend(more),
                None => return self.error(endpoint, 404, &format!("unknown figure '{fig}'")),
            }
        }
        keys.sort();
        keys.dedup();
        if let Some(bad) = keys.iter().find(|k| !self.engine.has_key(k)) {
            return self.error(endpoint, 404, &format!("unknown cache key '{bad}'"));
        }

        let Some(_slot) = self.admit() else {
            return self.saturated(rid, endpoint);
        };
        match self.materialize(rid, &keys) {
            Ok(cells) => self.ok(endpoint, Json::obj([("cells", Json::Arr(cells))])),
            Err(e) => self.error(endpoint, 500, &e),
        }
    }

    fn figure_endpoint(&self, rid: u64, target: &str) -> Response {
        let id = target.strip_prefix("/figure/").unwrap_or_default();
        let Some(keys) = self.engine.figure_keys(id) else {
            return self.error(target, 404, &format!("unknown figure '{id}'"));
        };
        let Some(_slot) = self.admit() else {
            return self.saturated(rid, target);
        };
        let mut keys = keys;
        keys.sort();
        keys.dedup();
        if let Err(e) = self.materialize(rid, &keys) {
            return self.error(target, 500, &e);
        }
        match self.engine.figure(id) {
            Ok(doc) => self.ok(target, doc),
            Err(e) => self.error(target, 500, &e),
        }
    }

    fn status_endpoint(&self) -> Response {
        let cached_cells = locked(&self.mem).len();
        let active = *locked(&self.active);
        let figures = Json::Arr(
            self.engine
                .figure_ids()
                .into_iter()
                .map(Json::from)
                .collect(),
        );
        let data = Json::obj([
            ("figures", figures),
            ("plan_cells", Json::from(self.engine.key_count())),
            ("cached_cells", Json::from(cached_cells)),
            (
                "queue",
                Json::obj([
                    ("active", Json::from(active)),
                    ("capacity", Json::from(self.cfg.queue)),
                ]),
            ),
            (
                "store",
                match &self.store {
                    Some(s) => Json::from(s.dir().display().to_string()),
                    None => Json::Null,
                },
            ),
        ]);
        self.ok("/status", data)
    }

    fn metrics_endpoint(&self) -> Response {
        let m = &self.metrics;
        let count = |a: &AtomicU64| Json::from(a.load(Ordering::Relaxed));
        let requests = Json::obj([
            ("sweep", count(&m.sweep)),
            ("figure", count(&m.figure)),
            ("status", count(&m.status)),
            ("metrics", count(&m.metrics)),
            ("shutdown", count(&m.shutdown)),
            ("other", count(&m.other)),
        ]);
        let work = Json::obj([
            ("executed", count(&m.executed)),
            ("mem_hits", count(&m.mem_hits)),
            (
                "store_hits",
                Json::from(self.store.as_ref().map_or(0, |s| s.counters().hits)),
            ),
            ("deduped", count(&m.deduped)),
            ("rejected", count(&m.rejected)),
            ("errors", count(&m.errors)),
        ]);
        let cache = self.engine.cache_stats();
        let result_cache = Json::obj([
            ("hits", Json::from(cache.hits)),
            ("misses", Json::from(cache.misses)),
            ("inserts", Json::from(cache.inserts)),
        ]);
        let store = match &self.store {
            Some(s) => {
                let c = s.counters();
                Json::obj([
                    ("dir", Json::from(s.dir().display().to_string())),
                    ("loaded", Json::from(self.store_loaded.load(Ordering::Relaxed))),
                    ("hits", Json::from(c.hits)),
                    ("misses", Json::from(c.misses)),
                    ("persisted", Json::from(c.persisted)),
                ])
            }
            None => Json::Null,
        };
        let queue = Json::obj([
            ("active", Json::from(*locked(&self.active))),
            ("capacity", Json::from(self.cfg.queue)),
            ("peak", count(&m.peak_active)),
        ]);
        let epochs = Json::Arr(
            locked(&m.epochs)
                .iter()
                .map(|e| {
                    Json::obj([
                        ("epoch", Json::from(e.epoch)),
                        ("endpoint", Json::from(e.endpoint.as_str())),
                        ("status", Json::from(u64::from(e.status))),
                        ("micros", Json::from(e.micros)),
                    ])
                })
                .collect(),
        );
        let pool = Json::obj([
            ("batches", count(&m.pool_batches)),
            ("tasks", count(&m.pool_tasks)),
            ("busy_ns", count(&m.pool_busy_ns)),
            ("idle_ns", count(&m.pool_idle_ns)),
        ]);
        let data = Json::obj([
            ("requests", requests),
            ("work", work),
            ("result_cache", result_cache),
            ("store", store),
            ("queue", queue),
            ("pool", pool),
            ("epochs", epochs),
        ]);
        self.ok("/metrics", data)
    }

    /// The `/metrics.prom` body: the same counters as `/metrics` plus
    /// the request-latency histogram, in Prometheus text exposition
    /// format (version 0.0.4). Public so golden tests can pin the
    /// exact bytes.
    pub fn prometheus_text(&self) -> String {
        let m = &self.metrics;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut out = String::new();
        out.push_str("# HELP tdc_requests_total Requests served, by endpoint.\n");
        out.push_str("# TYPE tdc_requests_total counter\n");
        for (endpoint, counter) in [
            ("sweep", &m.sweep),
            ("figure", &m.figure),
            ("status", &m.status),
            ("metrics", &m.metrics),
            ("shutdown", &m.shutdown),
            ("other", &m.other),
        ] {
            out.push_str(&format!(
                "tdc_requests_total{{endpoint=\"{endpoint}\"}} {}\n",
                load(counter)
            ));
        }
        out.push_str("# HELP tdc_work_total Cell-work outcomes, by kind.\n");
        out.push_str("# TYPE tdc_work_total counter\n");
        let store_hits = self.store.as_ref().map_or(0, |s| s.counters().hits);
        for (kind, value) in [
            ("executed", load(&m.executed)),
            ("mem_hits", load(&m.mem_hits)),
            ("store_hits", store_hits),
            ("deduped", load(&m.deduped)),
            ("rejected", load(&m.rejected)),
            ("errors", load(&m.errors)),
        ] {
            out.push_str(&format!("tdc_work_total{{kind=\"{kind}\"}} {value}\n"));
        }
        out.push_str("# HELP tdc_request_duration_us Request latency in microseconds.\n");
        out.push_str("# TYPE tdc_request_duration_us histogram\n");
        let hist = locked(&m.latency_us);
        for (le, cumulative) in hist.prometheus_buckets() {
            out.push_str(&format!(
                "tdc_request_duration_us_bucket{{le=\"{le}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "tdc_request_duration_us_bucket{{le=\"+Inf\"}} {}\n",
            hist.count()
        ));
        out.push_str(&format!("tdc_request_duration_us_sum {}\n", hist.sum()));
        out.push_str(&format!("tdc_request_duration_us_count {}\n", hist.count()));
        out
    }

    // -- cell materialization -------------------------------------------

    /// Materializes every key (deduplicated, sorted by the caller) and
    /// returns the deterministic `cells` array.
    fn materialize(&self, rid: u64, keys: &[String]) -> Result<Vec<Json>, String> {
        let results = if keys.len() <= 1 {
            // Fast path for the single-cell request mix: no pool spawn.
            keys.iter().map(|k| self.cell(rid, k)).collect::<Vec<_>>()
        } else {
            let (results, telemetry) =
                run_tasks_telemetry(keys, self.cfg.jobs, |_, k| self.cell(rid, k));
            self.record_pool(&telemetry);
            results
        };
        let mut cells = Vec::with_capacity(keys.len());
        for (key, result) in keys.iter().zip(results) {
            let doc = result.map_err(|e| format!("cell '{key}' failed: {e}"))?;
            cells.push(Json::obj([
                ("key", Json::from(key.as_str())),
                ("report", (*doc).clone()),
            ]));
        }
        Ok(cells)
    }

    /// Folds one sweep batch's scheduler telemetry (DESIGN.md §7)
    /// into the cumulative `/metrics` pool counters.
    fn record_pool(&self, telemetry: &tdc_util::obs::PoolTelemetry) {
        let m = &self.metrics;
        m.pool_batches.fetch_add(1, Ordering::Relaxed);
        for w in &telemetry.workers {
            m.pool_tasks.fetch_add(w.tasks, Ordering::Relaxed);
            m.pool_busy_ns.fetch_add(w.busy_ns, Ordering::Relaxed);
            m.pool_idle_ns.fetch_add(w.idle_ns, Ordering::Relaxed);
        }
    }

    /// One cell: memory cache, then disk store, then a single-flight
    /// execution shared with every concurrent request for this key.
    fn cell(&self, rid: u64, key: &str) -> Result<Arc<Json>, String> {
        let cached = locked(&self.mem).get(key).cloned();
        if let Some(doc) = cached {
            self.metrics.mem_hits.fetch_add(1, Ordering::Relaxed);
            self.event(rid, "cell", EventKind::MemHit, key);
            return Ok(doc);
        }
        if let Some(store) = &self.store {
            if let Some(doc) = store.get(key) {
                // A stored report the engine rejects (e.g. written by a
                // newer report schema) falls through to re-execution.
                if self.engine.preload(key, &doc).is_ok() {
                    self.event(rid, "cell", EventKind::StoreHit, key);
                    let doc = Arc::new(doc);
                    locked(&self.mem).insert(key.to_string(), doc.clone());
                    return Ok(doc);
                }
            }
        }

        let (flight, leader) = {
            let mut flights = locked(&self.flights);
            match flights.get(key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight {
                        slot: Mutex::new(None),
                        ready: Condvar::new(),
                    });
                    flights.insert(key.to_string(), Arc::clone(&f));
                    (f, true)
                }
            }
        };
        if !leader {
            self.metrics.deduped.fetch_add(1, Ordering::Relaxed);
            self.event(rid, "cell", EventKind::DedupJoin, key);
            let mut slot = locked(&flight.slot);
            while slot.is_none() {
                slot = slot.wait(&flight.ready);
            }
            return slot
                .clone()
                .unwrap_or_else(|| Err("flight slot empty after wakeup".to_string()));
        }

        self.event(rid, "cell", EventKind::Execute, key);
        let result = self.engine.execute(key).map(Arc::new);
        if result.is_err() {
            self.event(rid, "cell", EventKind::EngineError, key);
        }
        if let Ok(doc) = &result {
            self.metrics.executed.fetch_add(1, Ordering::Relaxed);
            if let Some(store) = &self.store {
                // Persistence is best-effort: a full disk must not fail
                // the request the simulation just answered.
                let _ = store.put(key, doc);
            }
            locked(&self.mem).insert(key.to_string(), Arc::clone(doc));
        }
        *locked(&flight.slot) = Some(result.clone());
        flight.ready.notify_all();
        locked(&self.flights).remove(key);
        result
    }

    // -- admission control ----------------------------------------------

    /// Takes one admission slot, or `None` when the queue is full.
    fn admit(&self) -> Option<AdmissionSlot<'_, E>> {
        let mut active = locked(&self.active);
        if *active >= self.cfg.queue {
            return None;
        }
        *active += 1;
        self.metrics
            .peak_active
            .fetch_max(*active as u64, Ordering::Relaxed);
        Some(AdmissionSlot(self))
    }

    // -- response builders ----------------------------------------------

    fn ok(&self, endpoint: &str, data: Json) -> Response {
        let body = wire::envelope(endpoint, 200, data, None).pretty();
        Response::new(200, "application/json", body.into_bytes())
    }

    fn error(&self, endpoint: &str, status: u16, message: &str) -> Response {
        self.metrics.errors.fetch_add(1, Ordering::Relaxed);
        let body = wire::envelope(endpoint, status, Json::Null, Some(message)).pretty();
        Response::new(status, "application/json", body.into_bytes())
    }

    fn saturated(&self, rid: u64, endpoint: &str) -> Response {
        self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        self.event(rid, "request", EventKind::Reject, endpoint);
        let body = wire::envelope(
            endpoint,
            429,
            Json::Null,
            Some("admission queue is full; retry shortly"),
        )
        .pretty();
        let mut resp = Response::new(429, "application/json", body.into_bytes());
        resp.headers.push(("Retry-After".to_string(), "1".to_string()));
        resp
    }

    // -- the socket loop ------------------------------------------------

    /// Accepts connections until `/shutdown`; one thread per
    /// connection, one request per connection (`Connection: close`).
    pub fn serve(self: &Arc<Self>, listener: TcpListener) -> io::Result<()> {
        let addr = listener.local_addr()?;
        *locked(&self.addr) = Some(addr);
        for stream in listener.incoming() {
            if self.stopping() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let server = Arc::clone(self);
            *locked(&self.conns) += 1;
            std::thread::spawn(move || {
                server.handle_conn(stream);
                *locked(&server.conns) -= 1;
                server.conns_idle.notify_all();
            });
        }
        // Wait out in-flight handlers so every response written around
        // the stop flip is fully delivered before the process exits.
        let mut n = locked(&self.conns);
        while *n > 0 {
            n = n.wait(&self.conns_idle);
        }
        Ok(())
    }

    fn handle_conn(&self, stream: TcpStream) {
        let mut reader = BufReader::new(&stream);
        let req = match read_request(&mut reader) {
            Ok(r) => r,
            Err(e) => {
                if !e.contains("closed before request") {
                    let _ = write_response(&mut &stream, &self.error("/", 400, &e));
                }
                return;
            }
        };
        // Latency is telemetry for /metrics epochs only; it never
        // reaches a deterministic payload.
        let started = std::time::Instant::now(); // tdc-lint: allow(time-source)
        let resp = self.handle(&req);
        let _ = write_response(&mut &stream, &resp);
        self.record_epoch(&req, resp.status, started.elapsed().as_micros() as u64);
        // Graceful close: half-close our side, then wait (bounded) for
        // the peer to finish reading and close. Dropping the socket
        // outright can turn into a reset that discards response bytes
        // still in flight — fatal when `/shutdown` ends the process
        // right after this handler.
        let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(5)));
        let _ = stream.shutdown(Shutdown::Write);
        let mut scratch = [0u8; 256];
        while matches!(reader.read(&mut scratch), Ok(n) if n > 0) {}
        // Only the handler that served `/shutdown` wakes the accept
        // loop — a sibling handler observing the flag mid-flight must
        // not trigger the exit while responses are still being written.
        if self.stopping() && req.target == "/shutdown" {
            let addr = *locked(&self.addr);
            if let Some(addr) = addr {
                let _ = TcpStream::connect(addr);
            }
        }
    }

    /// Appends one per-request epoch to the bounded `/metrics` ring and
    /// the unbounded latency histogram behind `/metrics.prom`.
    fn record_epoch(&self, req: &Request, status: u16, micros: u64) {
        self.observe_latency_us(micros);
        let number = self.metrics.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let mut ring = locked(&self.metrics.epochs);
        if ring.len() == EPOCH_RING {
            ring.pop_front();
        }
        ring.push_back(EpochRecord {
            epoch: number,
            endpoint: req.target.clone(),
            status,
            micros,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// A two-figure mock: `figA` = {cell:a, cell:b}, `figB` = {cell:b}.
    /// With `fail_b` set, executing `cell:b` returns an error.
    struct MockEngine {
        delay: Duration,
        executed: AtomicU64,
        fail_b: bool,
        failed: AtomicU64,
    }

    impl MockEngine {
        fn new(delay: Duration) -> Self {
            Self {
                delay,
                executed: AtomicU64::new(0),
                fail_b: false,
                failed: AtomicU64::new(0),
            }
        }
    }

    impl Engine for MockEngine {
        fn figure_ids(&self) -> Vec<String> {
            vec!["figA".into(), "figB".into()]
        }
        fn figure_keys(&self, id: &str) -> Option<Vec<String>> {
            match id {
                "figA" => Some(vec!["cell:a".into(), "cell:b".into()]),
                "figB" => Some(vec!["cell:b".into()]),
                _ => None,
            }
        }
        fn has_key(&self, key: &str) -> bool {
            key == "cell:a" || key == "cell:b"
        }
        fn key_count(&self) -> usize {
            2
        }
        fn execute(&self, key: &str) -> Result<Json, String> {
            std::thread::sleep(self.delay);
            if self.fail_b && key == "cell:b" {
                self.failed.fetch_add(1, Ordering::SeqCst);
                return Err("mock failure".into());
            }
            self.executed.fetch_add(1, Ordering::SeqCst);
            Ok(Json::obj([
                ("key", Json::from(key)),
                ("value", Json::from(key.len() as u64)),
            ]))
        }
        fn figure(&self, id: &str) -> Result<Json, String> {
            Ok(Json::obj([("id", Json::from(id))]))
        }
        fn preload(&self, _key: &str, _report: &Json) -> Result<(), String> {
            Ok(())
        }
        fn cache_stats(&self) -> CacheStats {
            CacheStats::default()
        }
    }

    fn server(queue: usize) -> Server<MockEngine> {
        Server::new(
            MockEngine::new(Duration::ZERO),
            ServerConfig { jobs: 2, queue },
            None,
        )
    }

    fn sweep_req(keys: &[&str]) -> Request {
        let keys: Vec<String> = keys.iter().map(|s| s.to_string()).collect();
        Request::new("POST", "/sweep", wire::sweep_request(&keys, &[]).pretty())
    }

    fn body_json(resp: &Response) -> Json {
        Json::parse(std::str::from_utf8(&resp.body).expect("utf8 body")).expect("json body")
    }

    #[test]
    fn sweep_materializes_and_caches() {
        let srv = server(4);
        let first = srv.handle(&sweep_req(&["cell:a"]));
        assert_eq!(first.status, 200);
        let second = srv.handle(&sweep_req(&["cell:a"]));
        assert_eq!(second.body, first.body, "warm hit must be byte-identical");
        assert_eq!(srv.engine().executed.load(Ordering::SeqCst), 1);
        assert_eq!(srv.metrics.mem_hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_identical_sweeps_share_one_execution() {
        let srv = Arc::new(Server::new(
            MockEngine::new(Duration::from_millis(50)),
            ServerConfig { jobs: 2, queue: 8 },
            None,
        ));
        let responses: Vec<Response> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let srv = Arc::clone(&srv);
                    scope.spawn(move || srv.handle(&sweep_req(&["cell:b"])))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        assert!(responses.iter().all(|r| r.status == 200));
        assert!(responses.iter().all(|r| r.body == responses[0].body));
        assert_eq!(
            srv.engine().executed.load(Ordering::SeqCst),
            1,
            "single-flight must collapse concurrent identical jobs"
        );
        let dedup = srv.metrics.deduped.load(Ordering::Relaxed)
            + srv.metrics.mem_hits.load(Ordering::Relaxed);
        assert_eq!(dedup, 3, "three requests rode the leader's execution");
    }

    #[test]
    fn saturated_queue_rejects_with_retry_after() {
        let srv = server(0);
        let resp = srv.handle(&sweep_req(&["cell:a"]));
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("Retry-After"), Some("1"));
        assert_eq!(srv.metrics.rejected.load(Ordering::Relaxed), 1);
        assert_eq!(srv.engine().executed.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn admission_slots_are_released() {
        let srv = server(1);
        assert_eq!(srv.handle(&sweep_req(&["cell:a"])).status, 200);
        // The slot came back: the next request is admitted again.
        assert_eq!(srv.handle(&sweep_req(&["cell:b"])).status, 200);
        assert_eq!(*locked(&srv.active), 0);
    }

    #[test]
    fn unknown_routes_figures_and_keys() {
        let srv = server(4);
        assert_eq!(srv.handle(&Request::new("GET", "/nope", Vec::new())).status, 404);
        assert_eq!(srv.handle(&Request::new("GET", "/sweep", Vec::new())).status, 405);
        let unknown_fig = Request::new(
            "POST",
            "/sweep",
            wire::sweep_request(&[], &["figZ".into()]).pretty(),
        );
        assert_eq!(srv.handle(&unknown_fig).status, 404);
        assert_eq!(srv.handle(&sweep_req(&["cell:zzz"])).status, 404);
    }

    #[test]
    fn figure_endpoint_materializes_cells_first() {
        let srv = server(4);
        let resp = srv.handle(&Request::new("GET", "/figure/figA", Vec::new()));
        assert_eq!(resp.status, 200);
        assert_eq!(srv.engine().executed.load(Ordering::SeqCst), 2);
        let env = body_json(&resp);
        assert_eq!(
            env.get("data").and_then(|d| d.get("id")).and_then(Json::as_str),
            Some("figA")
        );
    }

    #[test]
    fn store_round_trip_and_warm_load() {
        let dir = std::env::temp_dir().join(format!("tdc-serve-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).expect("store opens");
        let srv = Server::new(
            MockEngine::new(Duration::ZERO),
            ServerConfig { jobs: 1, queue: 4 },
            Some(store),
        );
        assert_eq!(srv.handle(&sweep_req(&["cell:a"])).status, 200);
        assert_eq!(srv.engine().executed.load(Ordering::SeqCst), 1);

        // A fresh server over the same directory warm-starts from disk.
        let store2 = ResultStore::open(&dir).expect("store reopens");
        let srv2 = Server::new(
            MockEngine::new(Duration::ZERO),
            ServerConfig { jobs: 1, queue: 4 },
            Some(store2),
        );
        let (loaded, skipped) = srv2.warm_load().expect("warm load");
        assert_eq!((loaded, skipped), (1, 0));
        assert_eq!(srv2.handle(&sweep_req(&["cell:a"])).status, 200);
        assert_eq!(
            srv2.engine().executed.load(Ordering::SeqCst),
            0,
            "warm-started cell must not re-execute"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_sets_the_stop_flag() {
        let srv = server(4);
        assert!(!srv.stopping());
        let resp = srv.handle(&Request::new("POST", "/shutdown", Vec::new()));
        assert_eq!(resp.status, 200);
        assert!(srv.stopping());
    }

    #[test]
    fn metrics_endpoint_reports_counters() {
        let srv = server(4);
        srv.handle(&sweep_req(&["cell:a"]));
        srv.handle(&sweep_req(&["cell:a"]));
        let env = body_json(&srv.handle(&Request::new("GET", "/metrics", Vec::new())));
        let work = env.get("data").and_then(|d| d.get("work")).expect("work object");
        assert_eq!(work.get("executed").and_then(Json::as_u64), Some(1));
        assert_eq!(work.get("mem_hits").and_then(Json::as_u64), Some(1));
    }

    /// Seeded random requests — method, target (known routes, junk
    /// figure ids, very long and mutated paths) and a mutated body —
    /// never panic the handler. Every response is a `serve-envelope`
    /// with a status from the documented set, and a 500 only ever
    /// reports an engine error.
    #[test]
    fn handle_never_panics_on_random_requests() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use tdc_util::testkit::XorShift64;

        let mut engine = MockEngine::new(Duration::ZERO);
        engine.fail_b = true;
        let srv = Server::new(engine, ServerConfig { jobs: 2, queue: 4 }, None);
        let methods = ["GET", "POST", "PUT", "get", ""];
        let routes = ["/sweep", "/status", "/metrics", "/metrics.prom", "/figure/figA", "/figure/figB"];
        let bodies = [
            sweep_req(&["cell:a"]).body,
            sweep_req(&["cell:a", "cell:b"]).body,
            wire::sweep_request(&[], &["figA".into(), "figZ".into()]).pretty().into_bytes(),
            b"{\"format_version\":1}".to_vec(),
        ];
        let dict: [&[u8]; 8] = [b"{", b"}", b"[]", b"\"", b":", b"null", b"\xff", b"\"cell:b\""];
        let mut rng = XorShift64::new(2015);
        let mut seen = BTreeMap::new();
        for case in 0..3_000 {
            let method = methods[rng.below(methods.len() as u64) as usize];
            let route = routes[rng.below(routes.len() as u64) as usize];
            let target = match rng.below(4) {
                0 => route.to_string(),
                1 => format!("/figure/{}", rng.next_u64()),
                2 => format!("{route}/{}", "x".repeat(rng.below(70_000) as usize)),
                _ => {
                    let mut bytes = route.as_bytes().to_vec();
                    rng.mutate(&mut bytes, &dict);
                    String::from_utf8_lossy(&bytes).into_owned()
                }
            };
            let mut body = bodies[rng.below(bodies.len() as u64) as usize].clone();
            if rng.chance(60) {
                rng.mutate(&mut body, &dict);
            }
            let req = Request::new(method, &target, body);
            let failures = srv.engine().failed.load(Ordering::SeqCst);
            let resp = catch_unwind(AssertUnwindSafe(|| srv.handle(&req)))
                .unwrap_or_else(|_| panic!("case {case} panicked the handler: {req:?}"));
            let engine_failed = srv.engine().failed.load(Ordering::SeqCst) > failures;
            *seen.entry(resp.status).or_insert(0u32) += 1;
            if method == "GET" && target == "/metrics.prom" {
                assert_eq!(resp.status, 200);
                continue;
            }
            let env = body_json(&resp);
            let Json::Obj(fields) = &env else {
                panic!("case {case}: response is not an envelope object");
            };
            let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, wire::WIRE_FIELDS, "case {case}");
            assert_eq!(
                env.get("status").and_then(Json::as_u64),
                Some(u64::from(resp.status)),
                "case {case}"
            );
            assert!(
                [200, 400, 404, 405, 429, 500].contains(&resp.status),
                "case {case}: status {} for {req:?}",
                resp.status
            );
            assert!(
                resp.status != 500 || engine_failed,
                "case {case}: 500 without an engine error for {req:?}"
            );
        }
        // Every status the handler can produce single-threaded showed
        // up, so the cases reached each route's error paths.
        for status in [200, 400, 404, 405, 500] {
            assert!(seen.contains_key(&status), "no {status} in {seen:?}");
        }
    }
}
