//! The daemon itself: accept loop, worker pool, supervised execution.
//!
//! ## Threading and backpressure (DESIGN.md §15)
//!
//! One accept thread plus `workers` worker threads sharing one bounded
//! admission queue of `backlog.max(workers)` connections. The accept
//! thread pushes every accepted connection onto it and every worker pops
//! from it, so an idle worker takes the next connection whichever worker
//! is busy. When the queue is full the connection is refused with a typed
//! [`Response::Overloaded`] frame and closed — backpressure is explicit
//! on the wire, never a silent hang.
//!
//! A worker serves one connection at a time, request-at-a-time, until
//! the client closes it or lets a frame run late: once a frame's first
//! byte arrives, the whole frame must follow within [`FRAME_DEADLINE`],
//! so a client that stalls or trickles mid-frame cannot pin a worker.
//! Every execute request runs through the shared
//! [`Supervisor`] (one `Mutex<Supervisor>` across all workers, so the
//! schedule cache, circuit breakers and quarantine strikes are
//! daemon-global); decode, validation and response encoding happen
//! outside the lock. A run that panics answers [`Response::Failed`]
//! without poisoning the lock: the panic is caught while it is held.
//!
//! ## Shutdown
//!
//! A [`Request::Shutdown`] frame flips the daemon-wide flag and is
//! acknowledged with a metrics snapshot. The accept thread stops
//! admitting; workers finish the request in flight, answer any further
//! execute requests with [`Response::ShuttingDown`], close connections
//! that stay idle past a short grace period (a parked worker must not
//! pin the drain on a quiet keep-alive connection), drain the queue the
//! same way, and exit. [`ServerHandle::join`] then dumps the final
//! snapshot through [`FlightRecorder::dump_postmortem`] so every run
//! leaves an artifact even when no client asked for stats.

use crate::digest::product_digest;
use crate::wire::{read_frame, write_frame, ExecuteRequest, Request, Response, WireSemiring};
use lowband_core::densemm::DenseEngine;
use lowband_core::{Algorithm, Rung};
use lowband_matrix::{Bool, Fp, Gf2, MinPlus, SampleElement, Semiring, SparseMatrix, Wrap64};
use lowband_serve::{ServeError, Supervisor, SupervisorConfig};
use lowband_trace::{FlightRecorder, Json};
use std::collections::VecDeque;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
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
    /// Capacity of the one admission queue every worker pops from,
    /// floored at the worker count. When it is full, new connections are
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
            supervisor: SupervisorConfig::default(),
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
    rung_linked: AtomicU64,
    rung_reference: AtomicU64,
}

impl Counters {
    fn rung_counter(&self, rung: Rung) -> &AtomicU64 {
        match rung {
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
                    .set("linked", get(&self.rung_linked))
                    .set("reference", get(&self.rung_reference)),
            )
    }
}

/// State shared by the accept thread and every worker.
struct Shared {
    supervisor: Mutex<Supervisor>,
    /// The supervisor's tuning, kept to build a fresh one after a request
    /// panics mid-run.
    config: SupervisorConfig,
    counters: Counters,
    shutdown: AtomicBool,
    max_n: u32,
    /// Capacity of `queue`.
    backlog: usize,
    /// The admission queue: accepted connections no worker has taken yet.
    queue: Mutex<VecDeque<TcpStream>>,
    /// Signalled when a connection is queued or shutdown flips.
    wake: Condvar,
}

impl Shared {
    fn new(config: &ServerConfig, backlog: usize) -> Shared {
        Shared {
            supervisor: Mutex::new(Supervisor::new(config.supervisor.clone())),
            config: config.supervisor.clone(),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            max_n: config.max_n,
            backlog,
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
        }
    }

    /// Queue an accepted connection, or hand it back when the queue is
    /// full. (Neither queue method can panic while it holds the lock, so
    /// the lock is never poisoned.)
    fn admit(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.queue.lock().expect("admission queue unpoisoned");
        if q.len() >= self.backlog {
            return Err(stream);
        }
        q.push_back(stream);
        drop(q);
        self.wake.notify_one();
        Ok(())
    }

    /// The next queued connection, blocking until one arrives or shutdown
    /// flips. `None` once shutting down **and** empty — quiescence, not
    /// just the flag, ends a worker (that is the drain).
    fn next_connection(&self) -> Option<TcpStream> {
        let mut q = self.queue.lock().expect("admission queue unpoisoned");
        loop {
            if let Some(stream) = q.pop_front() {
                return Some(stream);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            q = self.wake.wait(q).expect("admission queue unpoisoned");
        }
    }

    /// Flip the shutdown flag and wake every parked worker. The flag
    /// flips under the queue lock, so a worker in `next_connection`
    /// either sees it before parking or is parked when the wake-up comes.
    fn begin_shutdown(&self) {
        let q = self.queue.lock().expect("admission queue unpoisoned");
        self.shutdown.store(true, Ordering::SeqCst);
        drop(q);
        self.wake.notify_all();
    }

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
        self.shared.begin_shutdown();
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

/// First item of each shard when `n` items are split across `threads`
/// workers (length `threads + 1`; shard `s` owns `bounds[s]..bounds[s+1]`)
/// — `loadgen`'s split of its requests across its connections.
/// Item `i` lands in shard `i * threads / n`, so blocks are contiguous and
/// differ in size by at most one.
///
/// Degenerate shapes are well defined: `threads > n` yields `threads - n`
/// empty shards (never out-of-bounds), and `threads == 0` yields
/// the zero-shard partition `[0]` — no shard owns anything, so a caller
/// with `n > 0` items must reject zero workers up front.
pub fn shard_bounds(n: usize, threads: usize) -> Vec<usize> {
    if threads == 0 {
        return vec![0];
    }
    // Shard `s` starts at the first item `i` with `i * threads >= s * n`.
    (0..=threads).map(|s| (s * n).div_ceil(threads)).collect()
}

/// Bind and start a daemon.
pub fn serve(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let workers = config.resolved_workers();
    let shared = Arc::new(Shared::new(&config, config.backlog.max(workers)));

    let worker_handles: Vec<_> = (0..workers)
        .map(|w| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("served-worker-{w}"))
                .spawn(move || worker_loop(&shared))
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
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nodelay(true).ok();
                shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                if let Err(mut stream) = shared.admit(stream) {
                    shared
                        .counters
                        .rejected_overload
                        .fetch_add(1, Ordering::Relaxed);
                    let reject = Response::Overloaded {
                        backlog: shared.backlog as u32,
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
}

fn worker_loop(shared: &Shared) {
    while let Some(stream) = shared.next_connection() {
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

/// How long a frame may take to arrive, counted from its first byte; a
/// connection whose frame is still incomplete then is closed. A per-read
/// timeout would not bound this: a client sending one byte per 100 ms
/// never trips one, and a client that stalls mid-frame would keep its
/// worker, and [`ServerHandle::join`], waiting until it closes the
/// socket. An honest client needs far less — [`write_frame`] sends a
/// frame back to back, and even a 16 MiB frame (the wire cap) crosses a
/// 100 Mb/s link in about 1.3 s — and this is as long as one stalled
/// client can hold a worker.
pub const FRAME_DEADLINE: Duration = Duration::from_secs(2);

/// One frame's reads under [`FRAME_DEADLINE`]. The socket timeout set at
/// the frame's first byte covers a frame that arrives whole, so such a
/// frame costs no extra socket call. Once a read returns short the frame
/// is trickling in, and each later read is re-armed to the time left, so
/// no read waits past the deadline.
struct FrameReader<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
    trickling: bool,
}

impl Read for FrameReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.trickling {
            let left = self.deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            self.stream.set_read_timeout(Some(left))?;
        }
        let n = self.stream.read(buf)?;
        self.trickling |= n < buf.len();
        Ok(n)
    }
}

/// Serve one connection request-at-a-time until EOF, a fatal I/O error
/// or a frame that misses [`FRAME_DEADLINE`]. Frame-level decode errors
/// answer `BadRequest` and keep the connection (the framing itself is
/// still synchronized); I/O errors and late frames drop it.
///
/// The worker idles in short [`peek`](TcpStream::peek) timeouts rather
/// than a bare blocking read: a parked worker must still observe
/// shutdown, otherwise a single quiet keep-alive connection pins its
/// worker forever and [`ServerHandle::join`] never returns. Once a
/// frame's first byte arrives the rest is read through a [`FrameReader`];
/// during drain an idle connection is closed after [`DRAIN_GRACE_POLLS`]
/// quiet polls.
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
        if stream.set_read_timeout(Some(FRAME_DEADLINE)).is_err() {
            return;
        }
        let mut frame = FrameReader {
            deadline: Instant::now() + FRAME_DEADLINE,
            stream: &mut stream,
            trickling: false,
        };
        let payload = match read_frame(&mut frame) {
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
                shared.begin_shutdown();
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
/// `None` when the request is admissible. An empty network and a NaN
/// fast-field exponent would panic the compiler, which `execute_typed`
/// contains only by discarding the supervisor's plan cache, so both are
/// refused here; ω is held to `[2, 3]`, where a matrix-multiplication
/// exponent lives.
fn validate(shared: &Shared, req: &ExecuteRequest) -> Option<String> {
    if req.n == 0 {
        return Some("network size 0: a network has at least one node".to_string());
    }
    if req.n > shared.max_n {
        return Some(format!(
            "network size {} exceeds the daemon's limit {}",
            req.n, shared.max_n
        ));
    }
    if let Algorithm::TwoPhase {
        engine: DenseEngine::FastField { omega },
        ..
    } = req.algorithm
    {
        if !(2.0..=3.0).contains(&omega) {
            return Some(format!("fast-field exponent ω = {omega} outside [2, 3]"));
        }
    }
    [req.drop_rate, req.corrupt_rate, req.crash_rate]
        .into_iter()
        .find(|rate| !(0.0..=1.0).contains(rate))
        .map(|rate| format!("fault rate {rate} outside [0, 1]"))
}

fn execute_typed<S: Semiring + SampleElement>(shared: &Shared, req: &ExecuteRequest) -> Response {
    let inst = req.instance();
    let spec = req.fault_spec();
    let mut out: SparseMatrix<S> = SparseMatrix::zeros(inst.xhat.clone());
    let started = Instant::now();
    let outcome = {
        let mut supervisor = shared.supervisor.lock().unwrap();
        // A panic must not unwind through the guard, which would poison
        // the mutex for every worker. It fails this request alone; the
        // supervisor may have been mid-update, so a fresh one replaces it
        // (a cold plan cache — the disk tier reopens from the same root).
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            supervisor.run_supervised::<S>(
                &inst,
                req.algorithm,
                req.seed,
                req.compress,
                &spec,
                Some(&mut out),
            )
        }));
        match run {
            Ok(outcome) => outcome,
            Err(payload) => {
                *supervisor = Supervisor::new(shared.config.clone());
                let reason = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                return Response::Failed {
                    detail: format!("request panicked: {reason}"),
                };
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::expected_digest;
    use lowband_matrix::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A value type whose every multiply panics.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Boom(u64);

    impl Semiring for Boom {
        fn zero() -> Boom {
            Boom(0)
        }
        fn one() -> Boom {
            Boom(1)
        }
        fn add(&self, rhs: &Boom) -> Boom {
            Boom(self.0.wrapping_add(rhs.0))
        }
        fn mul(&self, _: &Boom) -> Boom {
            panic!("poisoned multiply")
        }
    }

    impl SampleElement for Boom {
        fn sample_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Boom {
            Boom(rng.gen::<u64>() | 1)
        }
    }

    lowband_model::impl_packed_semiring_array!(Boom);

    #[test]
    fn shard_bounds_zero_threads_is_the_empty_partition() {
        for n in [0usize, 1, 5, 100] {
            assert_eq!(shard_bounds(n, 0), vec![0], "n={n}");
        }
    }

    #[test]
    fn shard_bounds_with_more_threads_than_nodes_has_empty_tail_shards() {
        for (n, threads) in [(0usize, 4usize), (1, 8), (3, 7), (5, 64)] {
            let bounds = shard_bounds(n, threads);
            assert_eq!(bounds.len(), threads + 1);
            assert_eq!(bounds[0], 0);
            assert_eq!(bounds[threads], n);
            for s in 0..threads {
                assert!(
                    bounds[s] <= bounds[s + 1] && bounds[s + 1] <= n,
                    "n={n} t={threads} shard={s} bounds={bounds:?}"
                );
            }
            let owned: usize = (0..threads).map(|s| bounds[s + 1] - bounds[s]).sum();
            assert_eq!(owned, n, "every node owned exactly once");
        }
    }

    #[test]
    fn shard_bounds_partition_the_nodes() {
        for (n, threads) in [(10usize, 3usize), (7, 7), (16, 4), (5, 1), (1, 1)] {
            let bounds = shard_bounds(n, threads);
            assert_eq!(bounds[0], 0);
            assert_eq!(bounds[threads], n);
            for node in 0..n {
                let s = node * threads / n;
                assert!(
                    bounds[s] <= node && node < bounds[s + 1],
                    "n={n} t={threads} node={node} shard={s} bounds={bounds:?}"
                );
            }
        }
    }

    /// `shard_bounds` blocks must be exactly the items its documented
    /// owner formula `i * threads / n` maps to each shard: `loadgen`'s
    /// connection split relies on it.
    #[test]
    fn sharding_invariant_holds_for_awkward_sizes() {
        for n in [1usize, 2, 5, 13, 64, 100] {
            for threads in [1usize, 2, 3, 7, 16] {
                let bounds = shard_bounds(n, threads);
                let holds = (0..n).all(|node| {
                    let s = node * threads / n;
                    bounds[s] <= node && node < bounds[s + 1]
                });
                assert!(holds, "n={n} threads={threads} bounds={bounds:?}");
            }
        }
    }

    /// A request that panics inside the supervised run answers `Failed`,
    /// leaves the supervisor mutex unpoisoned, and the next request on
    /// the same daemon state is served by a fresh supervisor.
    #[test]
    fn a_panicking_run_fails_one_request_and_poisons_nothing() {
        let shared = Shared::new(&ServerConfig::default(), 1);
        let mut rng = StdRng::seed_from_u64(0xB00);
        let s = gen::uniform_sparse(16, 3, &mut rng);
        let inst = lowband_core::Instance::new(s.clone(), s.clone(), s);
        let req = ExecuteRequest::clean(&inst, Algorithm::BoundedTriangles, false, 7);

        match execute_typed::<Boom>(&shared, &req) {
            Response::Failed { detail } => assert!(detail.contains("poisoned multiply")),
            other => panic!("a panicking run must answer Failed, got {other:?}"),
        }
        assert!(!shared.supervisor.is_poisoned());

        match execute_typed::<Fp>(&shared, &req) {
            Response::Ok { digest, .. } => assert_eq!(digest, expected_digest::<Fp>(&inst, 7)),
            other => panic!("the next request must be served, got {other:?}"),
        }
        assert!(!shared.supervisor.is_poisoned());
        assert_eq!(
            shared.supervisor.lock().unwrap().requests(),
            1,
            "a fresh supervisor"
        );
    }
}
