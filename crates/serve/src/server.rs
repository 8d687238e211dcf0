//! The HTTP front end: accept loop, router, and daemon lifecycle.
//!
//! Endpoints (all under `/v1`, documented in `docs/SERVICE.md`):
//!
//! | Method   | Path                    | Purpose                                |
//! |----------|-------------------------|----------------------------------------|
//! | `GET`    | `/v1/healthz`           | liveness + API version + job-state counts |
//! | `GET`    | `/v1/tenants`           | per-tenant usage + the quotas in force |
//! | `GET`    | `/v1/jobs`              | list jobs in submission order          |
//! | `POST`   | `/v1/jobs`              | submit a job spec (202, or typed 429)  |
//! | `GET`    | `/v1/jobs/{id}`         | status: state machine + progress       |
//! | `DELETE` | `/v1/jobs/{id}`         | cancel (queued: immediate; running: next unit boundary) |
//! | `GET`    | `/v1/jobs/{id}/events`  | ordered event log, long-polls with `?since=N&wait_ms=T` |
//! | `GET`    | `/v1/jobs/{id}/report`  | canonical `TuningReport` bytes         |
//! | `GET`    | `/v1/jobs/{id}/metrics` | observability metrics text             |
//! | `GET`    | `/v1/jobs/{id}/profile` | kernel-model warm-start profile        |
//! | `GET`    | `/v1/store`             | profile-store census + latest entries  |
//! | `GET`    | `/v1/store/blob/{hash}` | one profile blob by content hash       |
//!
//! The store endpoints exist only when the daemon was started with
//! `--store`; without it they are 404s, and jobs whose spec sets
//! `"store": true` are rejected at submit time with a 409.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use critter_core::json::canonical_text;
use parking_lot::Mutex;

use critter_store::Store;

use crate::api::JobSpec;
use crate::error::ServeError;
use crate::http::{read_request, write_response, Request, Response, READ_TIMEOUT};
use crate::job::{JobState, Registry};
use crate::scheduler::{JobTicket, QuotaConfig, Scheduler};
use crate::API_VERSION;

/// Cap on one long-poll wait (`wait_ms` is clamped to this), comfortably
/// below the connection read timeout so a waiting client never times out.
pub const MAX_EVENT_WAIT: Duration = Duration::from_secs(8);

/// Daemon configuration (the `critter-serve` CLI flags).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (the chosen address
    /// is written to `<data_dir>/addr`).
    pub addr: String,
    /// Data directory holding one subdirectory per job.
    pub data_dir: PathBuf,
    /// Concurrent tuning sweeps.
    pub job_workers: usize,
    /// Concurrent HTTP connections.
    pub http_workers: usize,
    /// Bounded job-queue depth (beyond it, submissions get 429).
    pub queue_capacity: usize,
    /// Per-tenant cap on queued jobs (`0` = unlimited).
    pub tenant_max_queued: usize,
    /// Per-tenant cap on running jobs (`0` = unlimited).
    pub tenant_max_running: usize,
    /// Per-tenant cap on concurrently leased rank threads (`0` = unlimited).
    pub tenant_max_ranks: usize,
    /// Shared content-addressed profile store (`--store`). Jobs whose
    /// spec sets `"store": true` warm-start from it and publish back into
    /// it; the `/v1/store` endpoints expose its census and blobs.
    pub store: Option<PathBuf>,
}

impl ServerConfig {
    /// Defaults matching `critter-serve --help`.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            addr: "127.0.0.1:8787".into(),
            data_dir: data_dir.into(),
            job_workers: 2,
            http_workers: 4,
            queue_capacity: 64,
            tenant_max_queued: 16,
            tenant_max_running: 2,
            tenant_max_ranks: 0,
            store: None,
        }
    }

    /// The per-tenant quotas this configuration implies.
    pub fn quota(&self) -> QuotaConfig {
        QuotaConfig {
            max_queued: self.tenant_max_queued,
            max_running: self.tenant_max_running,
            max_ranks: self.tenant_max_ranks,
        }
    }

    /// Attach a shared profile-store directory.
    pub fn with_store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store = Some(dir.into());
        self
    }
}

/// A running daemon. Dropping it leaks the threads; call
/// [`Server::shutdown`] for an orderly stop (tests do; the binary runs
/// until killed — that's what the kill/restart oracle is for).
pub struct Server {
    addr: SocketAddr,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    accept_handle: JoinHandle<()>,
    http_handles: Vec<JoinHandle<()>>,
    scheduler: Arc<Scheduler>,
}

impl Server {
    /// Open the registry (recovering any jobs found in the data dir),
    /// start the worker pools, bind the listener, and write
    /// `<data_dir>/addr` with the bound address.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let (registry, pending) = Registry::open(&config.data_dir)?;
        let registry = Arc::new(registry);
        // Open the store up front: a bad --store directory fails the start
        // instead of every job, and the layout exists before the first
        // publish races the first census.
        let store = match &config.store {
            Some(dir) => Some(critter_store::Store::open(dir).map_err(std::io::Error::other)?),
            None => None,
        };
        let scheduler = Arc::new(Scheduler::start(
            registry.clone(),
            config.job_workers,
            config.queue_capacity,
            config.quota(),
            config.store.clone(),
        ));

        // Recovered jobs re-enter the queue in submission order. They were
        // admitted before the restart, so they bypass the queue bound and
        // the tenant quotas; the priority queue still orders them.
        for id in pending {
            let Ok(entry) = registry.get(&id) else { continue };
            scheduler.enqueue_recovered(ticket_for(&id, &entry.spec));
        }

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        std::fs::write(config.data_dir.join("addr"), format!("{addr}\n"))?;

        let stop = Arc::new(AtomicBool::new(false));
        let (conn_tx, conn_rx) = sync_channel::<TcpStream>(config.http_workers.max(1) * 2);
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let http_handles = (0..config.http_workers.max(1))
            .map(|i| {
                let registry = registry.clone();
                let scheduler = scheduler.clone();
                let conn_rx = conn_rx.clone();
                let store = store.clone();
                std::thread::Builder::new()
                    .name(format!("critter-serve-http-{i}"))
                    .spawn(move || http_loop(&registry, &scheduler, &store, &conn_rx))
                    .expect("spawning an HTTP worker")
            })
            .collect();
        let accept_handle = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("critter-serve-accept".into())
                .spawn(move || accept_loop(&listener, &conn_tx, &stop))
                .expect("spawning the accept loop")
        };

        Ok(Server { addr, registry, stop, accept_handle, http_handles, scheduler })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The job registry (the oracle suites inspect it directly).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Orderly stop: close the listener, drain the HTTP workers, and wait
    /// for job workers to finish their current sweeps.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_handle.join();
        for handle in self.http_handles {
            let _ = handle.join();
        }
        if let Ok(scheduler) = Arc::try_unwrap(self.scheduler) {
            scheduler.shutdown();
        }
    }
}

fn accept_loop(listener: &TcpListener, conn_tx: &SyncSender<TcpStream>, stop: &AtomicBool) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            return; // drops conn_tx, which drains the HTTP workers
        }
        if conn_tx.send(stream).is_err() {
            return;
        }
    }
}

fn http_loop(
    registry: &Arc<Registry>,
    scheduler: &Arc<Scheduler>,
    store: &Option<Store>,
    conn_rx: &Arc<Mutex<Receiver<TcpStream>>>,
) {
    loop {
        let mut stream = match conn_rx.lock().recv() {
            Ok(s) => s,
            Err(_) => return,
        };
        stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
        let response = match read_request(&mut stream) {
            Ok(request) => {
                // Handler panics become 500s, never a dead worker.
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    route(registry, scheduler, store, &request)
                }))
                .unwrap_or_else(|_| Err(ServeError::Internal("handler panicked".into())))
                .unwrap_or_else(|e| Response::from_error(&e))
            }
            Err(e) => Response::from_error(&e),
        };
        write_response(&mut stream, &response);
    }
}

/// Dispatch one request. Client mistakes surface as typed 4xx responses;
/// only daemon-side faults map to 500.
fn route(
    registry: &Arc<Registry>,
    scheduler: &Arc<Scheduler>,
    store: &Option<Store>,
    request: &Request,
) -> Result<Response, ServeError> {
    let method = request.method.as_str();
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (method, segments.as_slice()) {
        ("GET", ["v1", "healthz"]) => Ok(healthz(registry, store)),
        (_, ["v1", "healthz"]) => method_not_allowed(method, "GET"),

        ("GET", ["v1", "tenants"]) => Ok(tenants(registry, scheduler)),
        (_, ["v1", "tenants"]) => method_not_allowed(method, "GET"),

        ("GET", ["v1", "jobs"]) => Ok(Response::json(200, registry.list_json())),
        ("POST", ["v1", "jobs"]) => submit(registry, scheduler, store, request),
        (_, ["v1", "jobs"]) => method_not_allowed(method, "GET, POST"),

        ("GET", ["v1", "jobs", id]) => Ok(Response::json(200, registry.status_json(id)?)),
        ("DELETE", ["v1", "jobs", id]) => {
            registry.cancel(id)?;
            // A still-queued job is finalized right here: out of the queue,
            // quota slot released, `cancelled.json` written. A running job
            // keeps the old contract — its flag stops the sweep at the next
            // committed unit boundary.
            scheduler.cancel_queued(registry, id);
            Ok(Response::json(202, registry.status_json(id)?))
        }
        (_, ["v1", "jobs", _]) => method_not_allowed(method, "GET, DELETE"),

        ("GET", ["v1", "jobs", id, "events"]) => events(registry, id, request),
        (_, ["v1", "jobs", _, "events"]) => method_not_allowed(method, "GET"),

        ("GET", ["v1", "jobs", id, "report"]) => artifact(registry, id, "report.json", true),
        ("GET", ["v1", "jobs", id, "metrics"]) => artifact(registry, id, "metrics.txt", false),
        ("GET", ["v1", "jobs", id, "profile"]) => artifact(registry, id, "profile.json", true),
        (_, ["v1", "jobs", _, "report" | "metrics" | "profile"]) => {
            method_not_allowed(method, "GET")
        }

        ("GET", ["v1", "store"]) => store_census(store),
        (_, ["v1", "store"]) => method_not_allowed(method, "GET"),
        ("GET", ["v1", "store", "blob", hash]) => store_blob(store, hash),
        (_, ["v1", "store", "blob", _]) => method_not_allowed(method, "GET"),

        _ => Err(ServeError::NotFound(format!("no such endpoint `{}`", request.path))),
    }
}

fn method_not_allowed(method: &str, allowed: &str) -> Result<Response, ServeError> {
    Err(ServeError::MethodNotAllowed(format!(
        "method {method} is not supported here (allowed: {allowed})"
    )))
}

fn healthz(registry: &Registry, store: &Option<Store>) -> Response {
    let counts = registry.state_counts();
    let mut jobs = serde_json::Map::new();
    for (state, n) in counts {
        jobs.insert(state.to_string(), serde_json::json!(n));
    }
    let mut doc = serde_json::json!({
        "ok": true,
        "version": env!("CARGO_PKG_VERSION"),
        "api": serde_json::json!({ "version": API_VERSION }),
        "jobs": serde_json::Value::Object(jobs),
    });
    // The store census appears only on daemons started with --store, so
    // store-less deployments keep their exact healthz document.
    if let Some(store) = store {
        let map = doc.as_object_mut().expect("doc is an object");
        match store.census() {
            Ok(census) => map.insert(
                "store".into(),
                serde_json::json!({
                    "blobs": census.blobs,
                    "entries": census.entries,
                    "generation": census.generation,
                }),
            ),
            Err(e) => map.insert("store".into(), serde_json::json!({"error": e.to_string()})),
        };
    }
    Response::json(200, canonical_text(&doc))
}

/// `GET /v1/tenants`: the quotas in force plus, per tenant, the total job
/// count and the live queued/running/rank-lease usage.
fn tenants(registry: &Registry, scheduler: &Scheduler) -> Response {
    let (usage, quota) = scheduler.tenant_usage();
    let mut tenants = serde_json::Map::new();
    for (tenant, jobs) in registry.tenant_counts() {
        let live = usage.get(&tenant).copied().unwrap_or_default();
        tenants.insert(
            tenant,
            serde_json::json!({
                "jobs": jobs,
                "queued": live.queued,
                "running": live.running,
                "running_ranks": live.running_ranks,
            }),
        );
    }
    let doc = serde_json::json!({
        "quotas": serde_json::json!({
            "max_queued": quota.max_queued,
            "max_running": quota.max_running,
            "max_ranks": quota.max_ranks,
        }),
        "tenants": serde_json::Value::Object(tenants),
    });
    Response::json(200, canonical_text(&doc))
}

/// `GET /v1/jobs/{id}/events?since=N&wait_ms=T`: the ordered event log
/// suffix after seq `N`, long-polling up to `T` milliseconds when it is
/// empty and the job is still live. The response's `next` is the client's
/// next `since`.
fn events(registry: &Arc<Registry>, id: &str, request: &Request) -> Result<Response, ServeError> {
    let since = request.query_u64("since", 0)?;
    let wait = Duration::from_millis(request.query_u64("wait_ms", 0)?).min(MAX_EVENT_WAIT);
    let entry = registry.get(id)?;
    let wait = if entry.state.is_terminal() { Duration::ZERO } else { wait };
    let (events, next) = entry.events.since(since, wait);
    let doc = serde_json::json!({
        "events": serde_json::Value::Array(events),
        "next": next,
    });
    Ok(Response::json(200, canonical_text(&doc)))
}

fn store_census(store: &Option<Store>) -> Result<Response, ServeError> {
    let store = require_store(store)?;
    let census = store.census().map_err(|e| ServeError::Internal(e.to_string()))?;
    let index = store.latest().map_err(|e| ServeError::Internal(e.to_string()))?;
    let entries: Vec<serde_json::Value> =
        index.iter().flat_map(|i| i.entries.iter().map(|e| e.to_json())).collect();
    let doc = serde_json::json!({
        "blobs": census.blobs,
        "entries": entries,
        "generation": census.generation,
    });
    Ok(Response::json(200, canonical_text(&doc)))
}

fn store_blob(store: &Option<Store>, hash: &str) -> Result<Response, ServeError> {
    let store = require_store(store)?;
    let hash = u64::from_str_radix(hash, 16)
        .map_err(|_| ServeError::BadRequest(format!("`{hash}` is not a hex content hash")))?;
    let stores = store
        .load_blob(hash)
        .map_err(|e| ServeError::NotFound(format!("blob {hash:013x}: {e}")))?;
    Ok(Response::json(200, canonical_text(&critter_core::snapshot::stores_to_json(&stores))))
}

fn require_store(store: &Option<Store>) -> Result<&Store, ServeError> {
    store.as_ref().ok_or_else(|| {
        ServeError::NotFound("this daemon has no profile store (start with --store DIR)".into())
    })
}

fn submit(
    registry: &Arc<Registry>,
    scheduler: &Arc<Scheduler>,
    store: &Option<Store>,
    request: &Request,
) -> Result<Response, ServeError> {
    let spec = JobSpec::from_json(request.body_utf8()?)?;
    if spec.store && store.is_none() {
        return Err(ServeError::Conflict(
            "job spec sets \"store\": true but this daemon has no profile store \
             (start with --store DIR)"
                .into(),
        ));
    }
    let ticket_spec = spec.clone();
    let id = registry.create(spec)?;
    // Snapshot the status document before handing the job to the workers,
    // so the response deterministically shows the submit-time state
    // (`queued`, zero progress) even if a worker dequeues it immediately.
    let body = registry.status_json(&id)?;
    if let Err(e) = scheduler.enqueue(ticket_for(&id, &ticket_spec)) {
        // Backpressure or an exceeded tenant quota: roll the whole
        // submission back so a rejected job leaves no trace in the
        // registry or on disk.
        registry.discard(&id);
        return Err(e);
    }
    Ok(Response::json(202, body))
}

/// The scheduler's view of a job: id, tenant, priority, and the rank
/// threads its sweep leases.
fn ticket_for(id: &str, spec: &JobSpec) -> JobTicket {
    JobTicket {
        id: id.to_string(),
        tenant: spec.tenant.clone(),
        priority: spec.priority,
        ranks: spec.ranks(),
    }
}

/// Serve a terminal artifact's bytes verbatim. `json` selects the
/// content type; the report and profile are canonical JSON documents, the
/// metrics artifact is plain text.
fn artifact(
    registry: &Arc<Registry>,
    id: &str,
    name: &str,
    json: bool,
) -> Result<Response, ServeError> {
    let entry = registry.get(id)?;
    match entry.state {
        JobState::Done => {}
        JobState::Failed => {
            return Err(ServeError::Conflict(format!(
                "job `{id}` failed: {}",
                entry.error.as_deref().unwrap_or("unknown failure")
            )))
        }
        state => {
            return Err(ServeError::Conflict(format!(
                "job `{id}` is {}; artifacts exist once it is done",
                state.name()
            )))
        }
    }
    let path = registry.job_dir(id).join(name);
    if !path.is_file() {
        return Err(ServeError::NotFound(format!(
            "job `{id}` produced no `{name}` (enable the matching spec option)"
        )));
    }
    let bytes = std::fs::read_to_string(&path)
        .map_err(|e| ServeError::Internal(format!("reading {name} of {id}: {e}")))?;
    Ok(if json { Response::json(200, bytes) } else { Response::text(200, bytes) })
}
