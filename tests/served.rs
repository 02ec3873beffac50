//! The network serving daemon (DESIGN.md §15): loopback protocol
//! round-trips, digest parity with direct supervised execution,
//! concurrent mixed-structure clients, typed refusals over the wire
//! (breaker-open, malformed requests, admission overload), one admission
//! queue that any idle worker serves, clients that stall, trickle or
//! vanish mid-frame, and graceful drain on shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Once;
use std::time::{Duration, Instant};

use lowband::core::densemm::DenseEngine;
use lowband::core::{Algorithm, Instance, Rung};
use lowband::matrix::{gen, Fp};
use lowband::model::NoopTracer;
use lowband::serve::{Supervisor, SupervisorConfig};
use lowband::served::server::{serve, ServerConfig, FRAME_DEADLINE};
use lowband::served::wire::{read_frame, write_frame};
use lowband::served::{
    expected_digest, product_digest, Client, ExecuteRequest, Request, Response, WireSemiring,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Keep the daemons' shutdown postmortem dumps out of the checked-in
/// `results/` directory. `Once` so parallel tests never race `set_var`.
fn isolate_results_dir() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let dir = std::env::temp_dir().join("lowband-served-tests");
        std::env::set_var("LOWBAND_RESULTS_DIR", dir);
    });
}

fn us_instance(n: usize, d: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    Instance::new(
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
        gen::uniform_sparse(n, d, &mut rng),
    )
}

fn small_daemon() -> lowband::served::ServerHandle {
    isolate_results_dir();
    serve(ServerConfig {
        workers: 2,
        backlog: 8,
        ..ServerConfig::default()
    })
    .expect("bind loopback daemon")
}

/// One clean execute round-trip; the digest must equal both the locally
/// recomputed reference digest and the digest of a *direct* supervised
/// execution of the same request — the wire adds transport, not
/// arithmetic.
#[test]
fn loopback_digest_matches_direct_supervised_execution() {
    let handle = small_daemon();
    let inst = us_instance(24, 3, 0x11);
    let seed = 42u64;
    let algorithm = Algorithm::BoundedTriangles;

    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let request = Request::Execute(Box::new(ExecuteRequest::clean(
        &inst, algorithm, false, seed,
    )));
    let response = client
        .roundtrip(&request)
        .expect("roundtrip")
        .expect("daemon must answer");
    let (digest, rung) = match response {
        Response::Ok { digest, rung, .. } => (digest, rung),
        other => panic!("expected Ok, got {other:?}"),
    };
    assert_ne!(
        rung,
        Rung::Reference,
        "a clean request must be served distributed"
    );

    // Local reference recomputation (what loadgen verifies against).
    assert_eq!(digest, expected_digest::<Fp>(&inst, seed));

    // Direct in-process supervised execution of the identical request.
    let mut sup = Supervisor::new(SupervisorConfig::default());
    let mut out = lowband::matrix::SparseMatrix::<Fp>::zeros(inst.xhat.clone());
    let outcome = sup.run_supervised_traced::<Fp, _>(
        &inst,
        algorithm,
        seed,
        false,
        &lowband::faults::FaultSpec::none(0),
        Some(&mut out),
        &mut NoopTracer,
    );
    outcome.result.expect("direct execution succeeds");
    assert_eq!(
        digest,
        product_digest(&out),
        "wire digest must be bit-identical to direct supervised execution"
    );

    handle.shutdown();
    handle.join();
}

/// Concurrent clients over distinct structures and semirings: every
/// response must verify against its own expected digest — the shared
/// supervisor must not cross request state between connections.
#[test]
fn concurrent_mixed_structure_requests_all_verify() {
    let handle = small_daemon();
    let addr = handle.addr().to_string();
    let algorithm = Algorithm::BoundedTriangles;
    let structures: Vec<Instance> = (0..4).map(|k| us_instance(20, 3, 0x222 + k)).collect();

    std::thread::scope(|scope| {
        for (t, inst) in structures.iter().enumerate() {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for round in 0..6u64 {
                    let seed = (t as u64) << 8 | round;
                    let mut req = ExecuteRequest::clean(inst, algorithm, false, seed);
                    // Odd rounds run over the tropical semiring to mix
                    // algebras across the shared cache.
                    let expected = if round % 2 == 1 {
                        req.semiring = WireSemiring::MinPlus;
                        expected_digest::<lowband::matrix::MinPlus>(inst, seed)
                    } else {
                        expected_digest::<Fp>(inst, seed)
                    };
                    let response = client
                        .roundtrip(&Request::Execute(Box::new(req)))
                        .expect("roundtrip")
                        .expect("daemon must answer");
                    match response {
                        Response::Ok { digest, .. } => assert_eq!(
                            digest, expected,
                            "thread {t} round {round}: digest mismatch"
                        ),
                        other => panic!("thread {t} round {round}: {other:?}"),
                    }
                }
            });
        }
    });

    handle.shutdown();
    let snapshot = handle.join();
    let ok = snapshot
        .get("counters")
        .and_then(|c| c.get("ok"))
        .and_then(|v| v.as_u64())
        .expect("snapshot carries ok count");
    assert_eq!(ok, 24, "4 threads x 6 requests, all served");
}

/// A total fault storm walks requests down to the reference rung; after
/// `breaker_threshold` consecutive distributed failures the structure's
/// breaker opens and the refusal crosses the wire typed.
#[test]
fn breaker_open_refusals_cross_the_wire() {
    isolate_results_dir();
    let handle = serve(ServerConfig {
        workers: 1,
        backlog: 4,
        supervisor: SupervisorConfig {
            breaker_threshold: 2,
            breaker_cooldown: 8,
            quarantine_threshold: u32::MAX,
            ..SupervisorConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind");
    let inst = us_instance(20, 3, 0x333);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    let storm = |seed: u64| {
        let mut req = ExecuteRequest::clean(&inst, Algorithm::BoundedTriangles, false, seed);
        req.drop_rate = 1.0;
        req.corrupt_rate = 1.0;
        req.crash_rate = 1.0;
        Request::Execute(Box::new(req))
    };

    // Two storms: both served (bottom rung), both striking the breaker.
    for seed in 0..2u64 {
        match client.roundtrip(&storm(seed)).unwrap().unwrap() {
            Response::Ok { rung, digest, .. } => {
                assert_eq!(rung, Rung::Reference, "storms must bottom the ladder");
                assert_eq!(digest, expected_digest::<Fp>(&inst, seed));
            }
            other => panic!("storm {seed} got {other:?}"),
        }
    }
    // The third request is refused while the breaker cools down.
    match client.roundtrip(&storm(2)).unwrap().unwrap() {
        Response::BreakerOpen { cooldown_left } => assert!(cooldown_left > 0),
        other => panic!("expected BreakerOpen, got {other:?}"),
    }

    handle.shutdown();
    handle.join();
}

/// Requests that would panic the compiler under the supervisor lock (an
/// empty network, a NaN fast-field exponent) or that carry a fault rate
/// outside [0, 1] are refused with typed `BadRequest` frames before any
/// execution, and the connection goes on to serve a clean request.
#[test]
fn malformed_requests_are_bad_requests_over_the_wire() {
    let handle = small_daemon();
    let inst = us_instance(16, 2, 0x444);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    let clean = || ExecuteRequest::clean(&inst, Algorithm::BoundedTriangles, false, 5);
    let empty = ExecuteRequest {
        n: 0,
        ahat: Vec::new(),
        bhat: Vec::new(),
        xhat: Vec::new(),
        ..clean()
    };
    let nan_omega = ExecuteRequest {
        algorithm: Algorithm::TwoPhase {
            d: 2,
            engine: DenseEngine::FastField { omega: f64::NAN },
        },
        ..clean()
    };
    let rate_above_one = ExecuteRequest {
        drop_rate: 1.5,
        ..clean()
    };
    let nan_rate = ExecuteRequest {
        crash_rate: f64::NAN,
        ..clean()
    };
    for (what, req) in [
        ("n = 0", empty),
        ("NaN omega", nan_omega),
        ("fault rate 1.5", rate_above_one),
        ("NaN fault rate", nan_rate),
    ] {
        match client.roundtrip(&Request::Execute(Box::new(req))).unwrap() {
            Some(Response::BadRequest { .. }) => {}
            other => panic!("{what}: expected BadRequest, got {other:?}"),
        }
    }

    // Same connection, clean request: served normally.
    match client
        .roundtrip(&Request::Execute(Box::new(clean())))
        .unwrap()
        .unwrap()
    {
        Response::Ok { digest, .. } => assert_eq!(digest, expected_digest::<Fp>(&inst, 5)),
        other => panic!("expected Ok, got {other:?}"),
    }

    handle.shutdown();
    handle.join();
}

/// With one worker pinned on a live connection and a backlog of one, the
/// third connection must be refused with a typed `Overloaded` frame —
/// backpressure is explicit, not a hang.
#[test]
fn admission_overload_is_a_typed_refusal() {
    isolate_results_dir();
    let handle = serve(ServerConfig {
        workers: 1,
        backlog: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();
    let inst = us_instance(16, 2, 0x555);

    // A round-trip guarantees the worker owns this connection.
    let mut held = Client::connect(&addr).expect("connect");
    match held
        .roundtrip(&Request::Execute(Box::new(ExecuteRequest::clean(
            &inst,
            Algorithm::BoundedTriangles,
            false,
            1,
        ))))
        .unwrap()
        .unwrap()
    {
        Response::Ok { .. } => {}
        other => panic!("warmup got {other:?}"),
    }

    // Fills the single backlog slot (never served while `held` lives).
    let _queued = std::net::TcpStream::connect(&addr).expect("queued connection");
    // Give the accept loop time to enqueue it before the next connect.
    std::thread::sleep(std::time::Duration::from_millis(50));

    // Everything is full: the next connection is refused.
    let mut refused = std::net::TcpStream::connect(&addr).expect("tcp connect still succeeds");
    refused
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let payload = lowband::served::wire::read_frame(&mut refused)
        .expect("read refusal frame")
        .expect("daemon must answer before closing");
    match Response::decode(&payload).expect("decodes") {
        Response::Overloaded { backlog } => assert_eq!(backlog, 1),
        other => panic!("expected Overloaded, got {other:?}"),
    }

    handle.shutdown();
    handle.join();
}

/// Every worker pops from one admission queue, so a connection never
/// waits behind a busy worker while another idles. With two workers, the
/// first client keeps its connection open and the second closes its own;
/// the third client must then be answered by the freed worker.
#[test]
fn an_idle_worker_serves_a_queued_connection() {
    let handle = small_daemon();
    let addr = handle.addr().to_string();
    let inst = us_instance(16, 2, 0x777);
    let execute = |seed| {
        Request::Execute(Box::new(ExecuteRequest::clean(
            &inst,
            Algorithm::BoundedTriangles,
            false,
            seed,
        )))
    };

    // A round-trip guarantees a worker owns each connection.
    let mut held = Client::connect(&addr).expect("connect");
    let warm = held.roundtrip(&execute(1)).unwrap();
    assert!(matches!(warm, Some(Response::Ok { .. })), "got {warm:?}");
    let mut closed = Client::connect(&addr).expect("connect");
    let done = closed.roundtrip(&execute(2)).unwrap();
    assert!(matches!(done, Some(Response::Ok { .. })), "got {done:?}");
    drop(closed);

    let mut third = std::net::TcpStream::connect(&addr).expect("connect");
    third
        .set_read_timeout(Some(std::time::Duration::from_secs(3)))
        .unwrap();
    lowband::served::wire::write_frame(&mut third, &execute(3).encode()).unwrap();
    let payload = lowband::served::wire::read_frame(&mut third)
        .expect("the idle worker answers within 3 s")
        .expect("daemon must answer before closing");
    match Response::decode(&payload).expect("decodes") {
        Response::Ok { digest, .. } => assert_eq!(digest, expected_digest::<Fp>(&inst, 3)),
        other => panic!("expected Ok, got {other:?}"),
    }

    drop((held, third));
    handle.shutdown();
    handle.join();
}

/// Graceful drain: shutdown is acknowledged with a snapshot, later
/// execute requests are answered `ShuttingDown` (typed, not a hang or a
/// dropped connection), and `join` returns a consistent final snapshot.
#[test]
fn shutdown_drains_cleanly_and_snapshots() {
    let handle = small_daemon();
    let addr = handle.addr().to_string();
    let inst = us_instance(16, 2, 0x666);

    let mut client = Client::connect(&addr).expect("connect");
    for seed in 0..3u64 {
        match client
            .roundtrip(&Request::Execute(Box::new(ExecuteRequest::clean(
                &inst,
                Algorithm::BoundedTriangles,
                false,
                seed,
            ))))
            .unwrap()
            .unwrap()
        {
            Response::Ok { digest, .. } => assert_eq!(digest, expected_digest::<Fp>(&inst, seed)),
            other => panic!("pre-shutdown request got {other:?}"),
        }
    }

    match client.roundtrip(&Request::Shutdown).unwrap().unwrap() {
        Response::ShutdownAck { json } => {
            let doc = lowband::model::trace::json::parse(&json).expect("snapshot parses");
            assert!(doc.get("cache").is_some(), "snapshot carries cache stats");
        }
        other => panic!("expected ShutdownAck, got {other:?}"),
    }
    assert!(handle.is_shutting_down());

    // The same (already-admitted) connection gets typed drain refusals.
    match client
        .roundtrip(&Request::Execute(Box::new(ExecuteRequest::clean(
            &inst,
            Algorithm::BoundedTriangles,
            false,
            9,
        ))))
        .unwrap()
        .unwrap()
    {
        Response::ShuttingDown => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    drop(client);

    let snapshot = handle.join();
    let counters = snapshot.get("counters").expect("counters in snapshot");
    assert_eq!(
        counters.get("ok").and_then(|v| v.as_u64()),
        Some(3),
        "exactly the three pre-shutdown requests served"
    );
    assert!(
        counters
            .get("shutting_down")
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
            >= 1,
        "drain refusals are accounted"
    );
}

/// Headroom over [`FRAME_DEADLINE`] for a loaded test host.
const SLACK: Duration = Duration::from_secs(3);

fn execute_request(inst: &Instance, seed: u64) -> Request {
    Request::Execute(Box::new(ExecuteRequest::clean(
        inst,
        Algorithm::BoundedTriangles,
        false,
        seed,
    )))
}

/// A raw connection that sends a frame's length prefix (100 payload
/// bytes declared) and 10 of those bytes, then goes quiet.
fn stall_mid_frame(addr: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&100u32.to_le_bytes()).unwrap();
    stream.write_all(&[0u8; 10]).unwrap();
    stream
}

/// Send `request` on a raw connection and wait at most `bound` for the
/// answer, so a daemon that never answers fails the test instead of
/// hanging it.
fn answer_within(addr: &str, request: &Request, bound: Duration) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(bound)).unwrap();
    write_frame(&mut stream, &request.encode()).unwrap();
    let payload = read_frame(&mut stream)
        .unwrap_or_else(|e| panic!("no answer within {bound:?}: {e}"))
        .expect("daemon must answer before closing");
    Response::decode(&payload).expect("decodes")
}

/// `join` on a helper thread, failing the test if the drain takes
/// longer than `bound` instead of hanging it.
fn join_within(handle: lowband::served::ServerHandle, bound: Duration) {
    let (tx, rx) = std::sync::mpsc::channel();
    let joiner = std::thread::spawn(move || {
        handle.join();
        tx.send(()).ok();
    });
    rx.recv_timeout(bound)
        .unwrap_or_else(|_| panic!("join did not return within {bound:?}"));
    joiner.join().expect("join thread");
}

/// Two clients that stall mid-frame occupy both workers; each is closed
/// once its frame misses the deadline, so a third client is still
/// answered, and the drain still ends while the stalled clients hold
/// their sockets open.
#[test]
fn clients_stalled_mid_frame_do_not_pin_workers() {
    let handle = small_daemon();
    let addr = handle.addr().to_string();
    let inst = us_instance(16, 2, 0x888);
    let stalled = [stall_mid_frame(&addr), stall_mid_frame(&addr)];

    match answer_within(&addr, &execute_request(&inst, 4), FRAME_DEADLINE + SLACK) {
        Response::Ok { digest, .. } => assert_eq!(digest, expected_digest::<Fp>(&inst, 4)),
        other => panic!("expected Ok, got {other:?}"),
    }

    handle.shutdown();
    join_within(handle, FRAME_DEADLINE + SLACK);
    drop(stalled);
}

/// A client that sends its frame one byte per 100 ms is closed once the
/// frame misses its deadline, counted from its first byte — not sooner,
/// and not only when the client gives up.
#[test]
fn a_client_trickling_a_frame_is_closed() {
    let handle = small_daemon();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut frame = 1000u32.to_le_bytes().to_vec();
    frame.resize(4 + 1000, 0);

    let started = Instant::now();
    let mut closed = false;
    for byte in &frame {
        if started.elapsed() > FRAME_DEADLINE + SLACK {
            break;
        }
        if stream.write_all(std::slice::from_ref(byte)).is_err() {
            closed = true;
            break;
        }
        // The read doubles as the 100 ms pause between bytes.
        match stream.read(&mut [0u8; 1]) {
            Ok(0) => closed = true,
            Ok(_) => panic!("the daemon answered a frame still incomplete"),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => closed = true,
        }
        if closed {
            break;
        }
    }
    let elapsed = started.elapsed();
    assert!(closed, "still open {elapsed:?} after the first byte");
    assert!(
        elapsed >= FRAME_DEADLINE,
        "closed after {elapsed:?}, before the frame deadline"
    );

    handle.shutdown();
    join_within(handle, FRAME_DEADLINE + SLACK);
}

/// A client that disconnects mid-frame frees its worker at once, well
/// before the frame deadline: the daemon's only worker answers the next
/// client inside half of it.
#[test]
fn a_client_disconnecting_mid_frame_frees_its_worker() {
    isolate_results_dir();
    let handle = serve(ServerConfig {
        workers: 1,
        backlog: 4,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();
    let inst = us_instance(16, 2, 0x999);
    drop(stall_mid_frame(&addr));

    match answer_within(&addr, &execute_request(&inst, 5), FRAME_DEADLINE / 2) {
        Response::Ok { digest, .. } => assert_eq!(digest, expected_digest::<Fp>(&inst, 5)),
        other => panic!("expected Ok, got {other:?}"),
    }

    handle.shutdown();
    join_within(handle, FRAME_DEADLINE + SLACK);
}
