//! The daemon itself: accept loop, worker pool, supervised execution.
//!
//! ## Threading and backpressure (DESIGN.md §15)
//!
//! One accept thread plus `workers` worker threads. Each worker owns a
//! bounded connection queue; the queue capacities partition the total
//! `backlog` budget with [`lowband_model::parallel::shard_bounds`] — the
//! same contiguous-block sharding the batch executors use to split seeds
//! across threads, reused here to split admission slots across workers
//! (a surplus worker simply owns an empty shard and sits idle). The
//! accept thread dispatches round-robin, skipping full queues; when
//! **every** queue is full the connection is refused with a typed
//! [`Response::Overloaded`] frame and closed — backpressure is explicit
//! on the wire, never a silent hang.
//!
//! A worker serves one connection at a time, request-at-a-time, until
//! the client closes it. Every execute request runs through the shared
//! [`Supervisor`] (one `Mutex<Supervisor>` across all workers, so the
//! schedule cache, circuit breakers and quarantine strikes are
//! daemon-global); decode, validation and response encoding happen
//! outside the lock.
//!
//! ## Shutdown
//!
//! A [`Request::Shutdown`] frame flips the daemon-wide flag and is
//! acknowledged with a metrics snapshot. The accept thread stops
//! admitting; workers finish the request in flight, answer any further
//! execute requests with [`Response::ShuttingDown`], close connections
//! that stay idle past a short grace period (a parked worker must not
//! pin the drain on a quiet keep-alive connection), drain their queues
//! the same way, and exit. [`ServerHandle::join`] then dumps the final
//! snapshot through [`FlightRecorder::dump_postmortem`] so every run
//! leaves an artifact even when no client asked for stats.

use crate::digest::product_digest;
use crate::wire::{read_frame, write_frame, ExecuteRequest, Request, Response, WireSemiring};
use lowband_core::{BatchMode, Rung};
use lowband_matrix::{Bool, Fp, Gf2, MinPlus, SparseMatrix, Wrap64};
use lowband_model::parallel::shard_bounds;
use lowband_serve::{ServeError, Supervisor, SupervisorConfig};
use lowband_trace::{FlightRecorder, Json, MetricsRegistry};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning of one daemon.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (tests).
    pub addr: String,
    /// Worker threads (`0` = available parallelism, floored at 2).
    pub workers: usize,
    /// Total queued-connection budget, partitioned across workers with
    /// `shard_bounds`. When all shards are full, new connections are
    /// refused with [`Response::Overloaded`].
    pub backlog: usize,
    /// Largest accepted network size; bigger requests are refused with
    /// [`Response::BadRequest`] before any allocation.
    pub max_n: u32,
    /// Supervision tuning shared by all workers.
    pub supervisor: SupervisorConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            backlog: 64,
            max_n: 4096,
            // A network request carries one seed, so the packed rung's
            // SIMD lanes would run 1-wide: enter the ladder at the
            // linked rung instead. Everything below it is unchanged.
            supervisor: SupervisorConfig {
                start_rung: Rung::Linked,
                ..SupervisorConfig::default()
            },
        }
    }
}

impl ServerConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .max(2)
    }
}

/// Daemon-global request accounting, updated lock-free by the workers
/// and rendered into the stats / shutdown snapshots.
#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    rejected_overload: AtomicU64,
    ok: AtomicU64,
    breaker_open: AtomicU64,
    deadline_exceeded: AtomicU64,
    bad_request: AtomicU64,
    failed: AtomicU64,
    shutting_down: AtomicU64,
    quarantined: AtomicU64,
    rung_packed: AtomicU64,
    rung_linked: AtomicU64,
    rung_reference: AtomicU64,
}

impl Counters {
    fn rung_counter(&self, rung: Rung) -> &AtomicU64 {
        match rung {
            Rung::Packed => &self.rung_packed,
            Rung::Linked => &self.rung_linked,
            Rung::Reference => &self.rung_reference,
        }
    }

    fn to_json(&self) -> Json {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Json::obj()
            .set("accepted_connections", get(&self.accepted))
            .set("rejected_overload", get(&self.rejected_overload))
            .set("ok", get(&self.ok))
            .set("breaker_open", get(&self.breaker_open))
            .set("deadline_exceeded", get(&self.deadline_exceeded))
            .set("bad_request", get(&self.bad_request))
            .set("failed", get(&self.failed))
            .set("shutting_down", get(&self.shutting_down))
            .set("quarantined", get(&self.quarantined))
            .set(
                "rungs",
                Json::obj()
                    .set("packed", get(&self.rung_packed))
                    .set("linked", get(&self.rung_linked))
                    .set("reference", get(&self.rung_reference)),
            )
    }
}

/// One worker's bounded admission queue.
struct WorkerQueue {
    capacity: usize,
    queue: Mutex<VecDeque<TcpStream>>,
    wake: Condvar,
}

impl WorkerQueue {
    fn new(capacity: usize) -> WorkerQueue {
        WorkerQueue {
            capacity,
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
        }
    }

    /// Enqueue unless the shard is at capacity.
    fn try_push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.queue.lock().unwrap();
        if q.len() >= self.capacity {
            return Err(stream);
        }
        q.push_back(stream);
        drop(q);
        self.wake.notify_one();
        Ok(())
    }

    /// Dequeue, blocking until a connection arrives or shutdown flips.
    /// `None` once shutting down **and** empty — quiescence, not just
    /// the flag, ends the worker (that is the drain).
    fn pop(&self, shutdown: &AtomicBool) -> Option<TcpStream> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if let Some(stream) = q.pop_front() {
                return Some(stream);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _timeout) = self
                .wake
                .wait_timeout(q, Duration::from_millis(20))
                .unwrap();
            q = guard;
        }
    }
}

/// State shared by the accept thread and every worker.
struct Shared {
    supervisor: Mutex<Supervisor>,
    metrics: Mutex<MetricsRegistry>,
    counters: Counters,
    shutdown: AtomicBool,
    max_n: u32,
    queues: Vec<WorkerQueue>,
}

impl Shared {
    /// The stats / shutdown snapshot: request counters plus the shared
    /// cache's accounting.
    fn snapshot(&self) -> Json {
        let sup = self.supervisor.lock().unwrap();
        Json::obj()
            .set("requests_supervised", sup.requests())
            .set("counters", self.counters.to_json())
            .set("cache", sup.cache().stats().to_json())
    }
}

/// A running daemon: its bound address plus the handles needed to stop
/// it and collect the final snapshot.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Flip the shutdown flag programmatically (tests; the wire path is
    /// [`Request::Shutdown`]).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for q in &self.shared.queues {
            q.wake.notify_one();
        }
    }

    /// Whether the daemon is draining.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Wait for drain: joins the accept thread and every worker, then
    /// dumps the final metrics snapshot as a postmortem artifact.
    /// Returns the snapshot.
    pub fn join(mut self) -> Json {
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept thread must not panic");
        }
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread must not panic");
        }
        let snapshot = self.shared.snapshot();
        let recorder = FlightRecorder::new(64);
        recorder
            .dump_postmortem("served-final", "graceful shutdown", snapshot.clone())
            .ok();
        snapshot
    }
}

/// Bind and start a daemon.
pub fn serve(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let workers = config.resolved_workers();
    // The admission budget is one contiguous block per worker — the
    // batch executors' sharding, reused. With fewer budget slots than
    // workers the tail shards are empty and those workers stay idle,
    // exactly the `threads > n` shape `shard_bounds` pins down.
    let bounds = shard_bounds(config.backlog.max(workers), workers);
    let queues: Vec<WorkerQueue> = (0..workers)
        .map(|w| WorkerQueue::new(bounds[w + 1] - bounds[w]))
        .collect();

    let shared = Arc::new(Shared {
        supervisor: Mutex::new(Supervisor::new(config.supervisor.clone())),
        metrics: Mutex::new(MetricsRegistry::default()),
        counters: Counters::default(),
        shutdown: AtomicBool::new(false),
        max_n: config.max_n,
        queues,
    });

    let worker_handles: Vec<_> = (0..workers)
        .map(|w| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("served-worker-{w}"))
                .spawn(move || worker_loop(&shared, w))
                .expect("spawn worker")
        })
        .collect();

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("served-accept".to_string())
        .spawn(move || accept_loop(listener, &accept_shared))
        .expect("spawn accept thread");

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        workers: worker_handles,
    })
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    let workers = shared.queues.len();
    let mut next = 0usize;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nodelay(true).ok();
                shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                // Round-robin over the shards, skipping full ones; a
                // refusal only happens when every shard is full.
                let mut unplaced = Some(stream);
                for probe in 0..workers {
                    let w = (next + probe) % workers;
                    match shared.queues[w].try_push(unplaced.take().expect("still unplaced")) {
                        Ok(()) => {
                            next = (w + 1) % workers;
                            break;
                        }
                        Err(back) => unplaced = Some(back),
                    }
                }
                if let Some(mut stream) = unplaced {
                    shared
                        .counters
                        .rejected_overload
                        .fetch_add(1, Ordering::Relaxed);
                    let backlog: usize = shared.queues.iter().map(|q| q.capacity).sum();
                    let reject = Response::Overloaded {
                        backlog: backlog as u32,
                    };
                    write_frame(&mut stream, &reject.encode()).ok();
                    // Dropping the stream closes the refused connection.
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    // Stopped accepting: wake every worker so drain can finish.
    for q in &shared.queues {
        q.wake.notify_one();
    }
}

fn worker_loop(shared: &Shared, w: usize) {
    while let Some(stream) = shared.queues[w].pop(&shared.shutdown) {
        serve_connection(shared, stream);
    }
}

/// How often a worker parked on a quiet connection re-checks the
/// shutdown flag (a `peek` under this read timeout — nothing is
/// consumed, so frame sync is never at risk).
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Idle polls a quiet connection survives *after* shutdown flips before
/// the worker closes it — grace for a client mid-turnaround (it just
/// read a response and is about to write its next request), so typed
/// `ShuttingDown` answers still win over an abrupt close.
const DRAIN_GRACE_POLLS: u32 = 10;

/// Serve one connection request-at-a-time until EOF or a fatal I/O
/// error. Frame-level decode errors answer `BadRequest` and keep the
/// connection (the framing itself is still synchronized); I/O errors
/// drop it.
///
/// The worker idles in short [`peek`](TcpStream::peek) timeouts rather
/// than a bare blocking read: a parked worker must still observe
/// shutdown, otherwise a single quiet keep-alive connection pins its
/// worker forever and [`ServerHandle::join`] never returns. Once bytes
/// arrive the timeout is lifted and the frame is read blocking as
/// before; during drain an idle connection is closed after
/// [`DRAIN_GRACE_POLLS`] quiet polls.
fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let mut drain_idle_polls = 0u32;
    loop {
        if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
            return;
        }
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => return, // clean EOF
            Ok(_) => drain_idle_polls = 0,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    drain_idle_polls += 1;
                    if drain_idle_polls >= DRAIN_GRACE_POLLS {
                        return;
                    }
                }
                continue;
            }
            Err(_) => return,
        }
        if stream.set_read_timeout(None).is_err() {
            return;
        }
        let payload = match read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => return,
        };
        let response = match Request::decode(&payload) {
            Err(e) => {
                shared.counters.bad_request.fetch_add(1, Ordering::Relaxed);
                Response::BadRequest {
                    detail: e.to_string(),
                }
            }
            Ok(Request::Stats) => Response::Stats {
                json: shared.snapshot().to_compact(),
            },
            Ok(Request::Shutdown) => {
                shared.shutdown.store(true, Ordering::SeqCst);
                for q in &shared.queues {
                    q.wake.notify_one();
                }
                shared
                    .counters
                    .shutting_down
                    .fetch_add(1, Ordering::Relaxed);
                Response::ShutdownAck {
                    json: shared.snapshot().to_compact(),
                }
            }
            Ok(Request::Execute(req)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    shared
                        .counters
                        .shutting_down
                        .fetch_add(1, Ordering::Relaxed);
                    Response::ShuttingDown
                } else {
                    execute(shared, &req)
                }
            }
        };
        if write_frame(&mut stream, &response.encode()).is_err() {
            return;
        }
    }
}

/// Validate and run one execute request, dispatching on the wire
/// semiring. Validation failures are typed `BadRequest`s; execution
/// goes through the shared supervisor.
fn execute(shared: &Shared, req: &ExecuteRequest) -> Response {
    if let Some(detail) = validate(shared, req) {
        shared.counters.bad_request.fetch_add(1, Ordering::Relaxed);
        return Response::BadRequest { detail };
    }
    let response = match req.semiring {
        WireSemiring::Fp => execute_typed::<Fp>(shared, req),
        WireSemiring::Wrap64 => execute_typed::<Wrap64>(shared, req),
        WireSemiring::MinPlus => execute_typed::<MinPlus>(shared, req),
        WireSemiring::Bool => execute_typed::<Bool>(shared, req),
        WireSemiring::Gf2 => execute_typed::<Gf2>(shared, req),
    };
    let counter = match &response {
        Response::Ok { rung, .. } => {
            shared
                .counters
                .rung_counter(*rung)
                .fetch_add(1, Ordering::Relaxed);
            &shared.counters.ok
        }
        Response::BreakerOpen { .. } => &shared.counters.breaker_open,
        Response::DeadlineExceeded => &shared.counters.deadline_exceeded,
        _ => &shared.counters.failed,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    response
}

/// Request validation, pre-supervisor. Returns the refusal detail, or
/// `None` when the request is admissible.
fn validate(shared: &Shared, req: &ExecuteRequest) -> Option<String> {
    if req.n > shared.max_n {
        return Some(format!(
            "network size {} exceeds the daemon's limit {}",
            req.n, shared.max_n
        ));
    }
    // The mode discriminant keys client intent; the shapes the batch
    // layer rejects with typed errors are refused here too, before any
    // execution — notably the zero-worker parallel batch
    // (`ModelError::ZeroWorkers`).
    match req.mode {
        BatchMode::Parallel { threads: 0 } => Some(format!(
            "batch mode rejected: {}",
            lowband_model::ModelError::ZeroWorkers
        )),
        _ => None,
    }
    .or_else(|| {
        for rate in [req.drop_rate, req.corrupt_rate, req.crash_rate] {
            if !(0.0..=1.0).contains(&rate) {
                return Some(format!("fault rate {rate} outside [0, 1]"));
            }
        }
        None
    })
}

fn execute_typed<S: lowband_core::BatchElement>(shared: &Shared, req: &ExecuteRequest) -> Response {
    let inst = req.instance();
    let spec = req.fault_spec();
    let mut out: SparseMatrix<S> = SparseMatrix::zeros(inst.xhat.clone());
    let started = Instant::now();
    let outcome = {
        let mut supervisor = shared.supervisor.lock().unwrap();
        let mut metrics = shared.metrics.lock().unwrap();
        supervisor.run_supervised_traced::<S, _>(
            &inst,
            req.algorithm,
            req.seed,
            req.compress,
            &spec,
            Some(&mut out),
            &mut *metrics,
        )
    };
    let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    match outcome.result {
        Ok(report) => Response::Ok {
            digest: product_digest(&out),
            rung: report.rung,
            descents: outcome.descents as u32,
            quarantined: outcome.quarantined,
            nanos,
        },
        Err(ServeError::BreakerOpen { cooldown_left }) => Response::BreakerOpen { cooldown_left },
        Err(ServeError::DeadlineExceeded { .. }) => Response::DeadlineExceeded,
        Err(e) => Response::Failed {
            detail: e.to_string(),
        },
    }
}
