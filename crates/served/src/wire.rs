//! The daemon's length-prefixed binary wire protocol (DESIGN.md §15).
//!
//! Every message is one **frame**: a little-endian `u32` payload length
//! followed by that many payload bytes. Payloads are flat little-endian
//! encodings with no self-description — both ends are compiled from this
//! module, and [`PROTOCOL_VERSION`] guards skew.
//!
//! A request carries everything the [`lowband_serve::StructureKey`] is
//! computed from (the instance structure: `n` plus the three supports),
//! the algorithm and compression discriminants, the value-set seed, the
//! semiring and batch-mode discriminants, and an optional fault
//! specification — so fault injection works through the daemon path
//! exactly as it does in-process. A response is either a result digest
//! (plus the landing rung and server-side timing) or a typed refusal:
//! admission rejection under backpressure, an open circuit breaker, a
//! missed deadline, a malformed request, or drain during shutdown.

use lowband_core::densemm::DenseEngine;
use lowband_core::{Algorithm, BatchMode, Instance, Rung};
use lowband_matrix::Support;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Bumped on any incompatible payload change.
pub const PROTOCOL_VERSION: u8 = 1;

/// Frames larger than this are rejected before allocation — a malformed
/// or hostile length prefix must not OOM the daemon.
pub const MAX_FRAME: usize = 16 << 20;

/// Decode failures. `Malformed` covers both truncated payloads and
/// out-of-range discriminants.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The frame or payload ended before the field did, or a
    /// discriminant had no decoding.
    Malformed(&'static str),
    /// The peer speaks a different protocol version.
    Version { theirs: u8 },
    /// The length prefix exceeded [`MAX_FRAME`].
    Oversized { len: usize },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Version { theirs } => {
                write!(
                    f,
                    "protocol version mismatch: theirs {theirs}, ours {PROTOCOL_VERSION}"
                )
            }
            WireError::Oversized { len } => write!(f, "frame of {len} bytes exceeds {MAX_FRAME}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Flat little-endian payload writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty payload.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Flat little-endian payload reader.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Malformed(what));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }
    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
    fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }
    fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.u32(what)? as usize;
        if len > MAX_FRAME {
            return Err(WireError::Oversized { len });
        }
        String::from_utf8(self.take(len, what)?.to_vec()).map_err(|_| WireError::Malformed(what))
    }
}

/// Which value algebra a request executes over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireSemiring {
    /// `𝔽_p`, the default field.
    Fp,
    /// `ℤ/2⁶⁴` wrapping ring.
    Wrap64,
    /// Tropical (min, +).
    MinPlus,
    /// Boolean OR/AND.
    Bool,
    /// GF(2).
    Gf2,
}

impl WireSemiring {
    /// All semirings, wire order.
    pub const ALL: [WireSemiring; 5] = [
        WireSemiring::Fp,
        WireSemiring::Wrap64,
        WireSemiring::MinPlus,
        WireSemiring::Bool,
        WireSemiring::Gf2,
    ];

    fn tag(self) -> u8 {
        match self {
            WireSemiring::Fp => 0,
            WireSemiring::Wrap64 => 1,
            WireSemiring::MinPlus => 2,
            WireSemiring::Bool => 3,
            WireSemiring::Gf2 => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<WireSemiring, WireError> {
        Self::ALL
            .into_iter()
            .find(|s| s.tag() == tag)
            .ok_or(WireError::Malformed("semiring tag"))
    }

    /// Stable lowercase name (artifact sections, logs).
    pub fn as_str(self) -> &'static str {
        match self {
            WireSemiring::Fp => "fp",
            WireSemiring::Wrap64 => "wrap64",
            WireSemiring::MinPlus => "minplus",
            WireSemiring::Bool => "bool",
            WireSemiring::Gf2 => "gf2",
        }
    }
}

/// One execute request: the structure (everything the `StructureKey`
/// hashes), the execution discriminants, the seed, and the fault rates.
#[derive(Clone, PartialEq, Debug)]
pub struct ExecuteRequest {
    /// Network size (supports are `n × n`).
    pub n: u32,
    /// `Â` support entries.
    pub ahat: Vec<(u32, u32)>,
    /// `B̂` support entries.
    pub bhat: Vec<(u32, u32)>,
    /// `X̂` support entries.
    pub xhat: Vec<(u32, u32)>,
    /// Which algorithm to compile.
    pub algorithm: Algorithm,
    /// Whether to round-compress the schedule.
    pub compress: bool,
    /// Value algebra.
    pub semiring: WireSemiring,
    /// Batch-mode discriminant. The daemon validates it (zero worker
    /// threads and off-menu lane widths are refused with
    /// [`Response::BadRequest`]) but executes the single seed through the
    /// supervisor's own ladder — the field keys client intent, not server
    /// threading.
    pub mode: BatchMode,
    /// Value-set seed.
    pub seed: u64,
    /// Fault-injection seed.
    pub fault_seed: u64,
    /// Per-message drop probability.
    pub drop_rate: f64,
    /// Per-message corruption probability.
    pub corrupt_rate: f64,
    /// Per-round crash probability.
    pub crash_rate: f64,
}

impl ExecuteRequest {
    /// A fault-free request over `𝔽_p`, sequential mode.
    pub fn clean(inst: &Instance, algorithm: Algorithm, compress: bool, seed: u64) -> Self {
        ExecuteRequest {
            n: inst.n as u32,
            ahat: inst.ahat.iter().collect(),
            bhat: inst.bhat.iter().collect(),
            xhat: inst.xhat.iter().collect(),
            algorithm,
            compress,
            semiring: WireSemiring::Fp,
            mode: BatchMode::Sequential,
            seed,
            fault_seed: seed,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            crash_rate: 0.0,
        }
    }

    /// Rebuild the instance the structure fields describe.
    pub fn instance(&self) -> Instance {
        let n = self.n as usize;
        Instance::new(
            Support::from_entries(n, n, self.ahat.iter().copied()),
            Support::from_entries(n, n, self.bhat.iter().copied()),
            Support::from_entries(n, n, self.xhat.iter().copied()),
        )
    }

    /// The request's fault specification.
    pub fn fault_spec(&self) -> lowband_model::FaultSpec {
        lowband_model::FaultSpec {
            seed: self.fault_seed,
            drop_rate: self.drop_rate,
            corrupt_rate: self.corrupt_rate,
            crash_rate: self.crash_rate,
        }
    }
}

/// A client → daemon message.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// Execute one seeded request.
    Execute(Box<ExecuteRequest>),
    /// Snapshot the daemon's accounting (cache stats, request counters).
    Stats,
    /// Begin graceful shutdown: drain in-flight requests, dump the final
    /// metrics snapshot, stop accepting.
    Shutdown,
}

const OP_EXECUTE: u8 = 1;
const OP_STATS: u8 = 2;
const OP_SHUTDOWN: u8 = 3;

fn write_support(w: &mut Writer, entries: &[(u32, u32)]) {
    w.u32(entries.len() as u32);
    for &(i, j) in entries {
        w.u32(i);
        w.u32(j);
    }
}

fn read_support(r: &mut Reader<'_>, n: u32) -> Result<Vec<(u32, u32)>, WireError> {
    let nnz = r.u32("support nnz")? as usize;
    if nnz > MAX_FRAME / 8 {
        return Err(WireError::Oversized { len: nnz * 8 });
    }
    let mut entries = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        let i = r.u32("support row")?;
        let j = r.u32("support col")?;
        if i >= n || j >= n {
            return Err(WireError::Malformed("support entry out of bounds"));
        }
        entries.push((i, j));
    }
    Ok(entries)
}

fn write_algorithm(w: &mut Writer, algorithm: Algorithm) {
    match algorithm {
        Algorithm::Trivial => w.u8(1),
        Algorithm::BoundedTriangles => w.u8(2),
        Algorithm::TwoPhase { d, engine } => {
            w.u8(3);
            w.u32(d as u32);
            match engine {
                DenseEngine::Cube3d => w.u8(0),
                DenseEngine::FastField { omega } => {
                    w.u8(1);
                    w.f64(omega);
                }
                DenseEngine::StrassenExec => w.u8(2),
            }
        }
        Algorithm::DenseCube => w.u8(4),
        Algorithm::StrassenField => w.u8(5),
    }
}

fn read_algorithm(r: &mut Reader<'_>) -> Result<Algorithm, WireError> {
    Ok(match r.u8("algorithm tag")? {
        1 => Algorithm::Trivial,
        2 => Algorithm::BoundedTriangles,
        3 => {
            let d = r.u32("two-phase d")? as usize;
            let engine = match r.u8("dense engine tag")? {
                0 => DenseEngine::Cube3d,
                1 => DenseEngine::FastField {
                    omega: r.f64("fast-field omega")?,
                },
                2 => DenseEngine::StrassenExec,
                _ => return Err(WireError::Malformed("dense engine tag")),
            };
            Algorithm::TwoPhase { d, engine }
        }
        4 => Algorithm::DenseCube,
        5 => Algorithm::StrassenField,
        _ => return Err(WireError::Malformed("algorithm tag")),
    })
}

fn write_mode(w: &mut Writer, mode: BatchMode) {
    match mode {
        BatchMode::Sequential => {
            w.u8(0);
            w.u32(0);
        }
        BatchMode::Parallel { threads } => {
            w.u8(1);
            w.u32(threads as u32);
        }
        BatchMode::Packed { lanes } => {
            w.u8(2);
            w.u32(lanes as u32);
        }
    }
}

fn read_mode(r: &mut Reader<'_>) -> Result<BatchMode, WireError> {
    let tag = r.u8("batch-mode tag")?;
    let param = r.u32("batch-mode param")? as usize;
    Ok(match tag {
        0 => BatchMode::Sequential,
        1 => BatchMode::Parallel { threads: param },
        2 => BatchMode::Packed { lanes: param },
        _ => return Err(WireError::Malformed("batch-mode tag")),
    })
}

impl Request {
    /// Encode into a payload (no frame prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(PROTOCOL_VERSION);
        match self {
            Request::Stats => w.u8(OP_STATS),
            Request::Shutdown => w.u8(OP_SHUTDOWN),
            Request::Execute(req) => {
                w.u8(OP_EXECUTE);
                w.u32(req.n);
                write_support(&mut w, &req.ahat);
                write_support(&mut w, &req.bhat);
                write_support(&mut w, &req.xhat);
                write_algorithm(&mut w, req.algorithm);
                w.u8(req.compress as u8);
                w.u8(req.semiring.tag());
                write_mode(&mut w, req.mode);
                w.u64(req.seed);
                w.u64(req.fault_seed);
                w.f64(req.drop_rate);
                w.f64(req.corrupt_rate);
                w.f64(req.crash_rate);
            }
        }
        w.finish()
    }

    /// Decode from a payload.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let version = r.u8("protocol version")?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::Version { theirs: version });
        }
        match r.u8("request opcode")? {
            OP_STATS => Ok(Request::Stats),
            OP_SHUTDOWN => Ok(Request::Shutdown),
            OP_EXECUTE => {
                let n = r.u32("network size")?;
                let ahat = read_support(&mut r, n)?;
                let bhat = read_support(&mut r, n)?;
                let xhat = read_support(&mut r, n)?;
                let algorithm = read_algorithm(&mut r)?;
                let compress = r.u8("compress flag")? != 0;
                let semiring = WireSemiring::from_tag(r.u8("semiring tag")?)?;
                let mode = read_mode(&mut r)?;
                let seed = r.u64("seed")?;
                let fault_seed = r.u64("fault seed")?;
                let drop_rate = r.f64("drop rate")?;
                let corrupt_rate = r.f64("corrupt rate")?;
                let crash_rate = r.f64("crash rate")?;
                Ok(Request::Execute(Box::new(ExecuteRequest {
                    n,
                    ahat,
                    bhat,
                    xhat,
                    algorithm,
                    compress,
                    semiring,
                    mode,
                    seed,
                    fault_seed,
                    drop_rate,
                    corrupt_rate,
                    crash_rate,
                })))
            }
            _ => Err(WireError::Malformed("request opcode")),
        }
    }
}

/// A daemon → client message.
#[derive(Clone, PartialEq, Debug)]
pub enum Response {
    /// The request ran to a verified product.
    Ok {
        /// Order-independent digest of the extracted `X̂` product
        /// (see [`crate::digest::product_digest`]).
        digest: u64,
        /// The degradation-ladder rung the request landed on.
        rung: Rung,
        /// Supervised failures that forced rung descents.
        descents: u32,
        /// Served plan-free because the structure was quarantined.
        quarantined: bool,
        /// Server-side service time, nanoseconds.
        nanos: u64,
    },
    /// Backpressure: the admission queue was full. The connection is
    /// closed after this frame.
    Overloaded {
        /// The queue bound that was hit.
        backlog: u32,
    },
    /// The structure's circuit breaker is open.
    BreakerOpen {
        /// Refusals left before a half-open probe.
        cooldown_left: u32,
    },
    /// The per-request deadline expired mid-execution.
    DeadlineExceeded,
    /// The request failed to decode or failed validation.
    BadRequest {
        /// What was wrong.
        detail: String,
    },
    /// Any other server-side failure, rendered.
    Failed {
        /// The rendered error.
        detail: String,
    },
    /// Stats snapshot (rendered JSON).
    Stats {
        /// `{"requests":…,"cache":{…}}`.
        json: String,
    },
    /// Shutdown acknowledged; the final metrics snapshot rides along.
    /// The daemon drains in-flight requests and stops accepting.
    ShutdownAck {
        /// Rendered JSON of the final snapshot.
        json: String,
    },
    /// The daemon is draining and no longer serves execute requests.
    ShuttingDown,
}

const ST_OK: u8 = 0;
const ST_OVERLOADED: u8 = 1;
const ST_BREAKER_OPEN: u8 = 2;
const ST_DEADLINE: u8 = 3;
const ST_BAD_REQUEST: u8 = 4;
const ST_FAILED: u8 = 5;
const ST_STATS: u8 = 6;
const ST_SHUTDOWN_ACK: u8 = 7;
const ST_SHUTTING_DOWN: u8 = 8;

// Tag 2 stays unassigned, so a frame from an older build that carries it
// is refused instead of being misread as another rung.
fn rung_tag(rung: Rung) -> u8 {
    match rung {
        Rung::Packed => 0,
        Rung::Linked => 1,
        Rung::Reference => 3,
    }
}

fn rung_from_tag(tag: u8) -> Result<Rung, WireError> {
    Ok(match tag {
        0 => Rung::Packed,
        1 => Rung::Linked,
        3 => Rung::Reference,
        _ => return Err(WireError::Malformed("rung tag")),
    })
}

impl Response {
    /// Encode into a payload (no frame prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(PROTOCOL_VERSION);
        match self {
            Response::Ok {
                digest,
                rung,
                descents,
                quarantined,
                nanos,
            } => {
                w.u8(ST_OK);
                w.u64(*digest);
                w.u8(rung_tag(*rung));
                w.u32(*descents);
                w.u8(*quarantined as u8);
                w.u64(*nanos);
            }
            Response::Overloaded { backlog } => {
                w.u8(ST_OVERLOADED);
                w.u32(*backlog);
            }
            Response::BreakerOpen { cooldown_left } => {
                w.u8(ST_BREAKER_OPEN);
                w.u32(*cooldown_left);
            }
            Response::DeadlineExceeded => w.u8(ST_DEADLINE),
            Response::BadRequest { detail } => {
                w.u8(ST_BAD_REQUEST);
                w.str(detail);
            }
            Response::Failed { detail } => {
                w.u8(ST_FAILED);
                w.str(detail);
            }
            Response::Stats { json } => {
                w.u8(ST_STATS);
                w.str(json);
            }
            Response::ShutdownAck { json } => {
                w.u8(ST_SHUTDOWN_ACK);
                w.str(json);
            }
            Response::ShuttingDown => w.u8(ST_SHUTTING_DOWN),
        }
        w.finish()
    }

    /// Decode from a payload.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let version = r.u8("protocol version")?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::Version { theirs: version });
        }
        Ok(match r.u8("response status")? {
            ST_OK => Response::Ok {
                digest: r.u64("digest")?,
                rung: rung_from_tag(r.u8("rung tag")?)?,
                descents: r.u32("descents")?,
                quarantined: r.u8("quarantined flag")? != 0,
                nanos: r.u64("service nanos")?,
            },
            ST_OVERLOADED => Response::Overloaded {
                backlog: r.u32("backlog")?,
            },
            ST_BREAKER_OPEN => Response::BreakerOpen {
                cooldown_left: r.u32("cooldown")?,
            },
            ST_DEADLINE => Response::DeadlineExceeded,
            ST_BAD_REQUEST => Response::BadRequest {
                detail: r.str("bad-request detail")?,
            },
            ST_FAILED => Response::Failed {
                detail: r.str("failure detail")?,
            },
            ST_STATS => Response::Stats {
                json: r.str("stats json")?,
            },
            ST_SHUTDOWN_ACK => Response::ShutdownAck {
                json: r.str("shutdown snapshot")?,
            },
            ST_SHUTTING_DOWN => Response::ShuttingDown,
            _ => Err(WireError::Malformed("response status"))?,
        })
    }
}

/// Write one frame (length prefix + payload).
pub fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    let len = payload.len() as u32;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(payload)?;
    stream.flush()
}

/// Read one frame's payload. `Ok(None)` on clean EOF at a frame
/// boundary; errors inside a frame surface as `io::Error`.
pub fn read_frame(stream: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::Oversized { len },
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A blocking client for one daemon connection.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    /// Wrap an accepted stream (tests).
    pub fn from_stream(stream: TcpStream) -> Client {
        Client { stream }
    }

    /// Send one request and wait for its response. `Ok(None)` when the
    /// daemon closed the connection without answering (drain races).
    pub fn roundtrip(&mut self, request: &Request) -> std::io::Result<Option<Response>> {
        write_frame(&mut self.stream, &request.encode())?;
        match read_frame(&mut self.stream)? {
            None => Ok(None),
            Some(payload) => Response::decode(&payload)
                .map(Some)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_execute() -> Request {
        Request::Execute(Box::new(ExecuteRequest {
            n: 8,
            ahat: vec![(0, 1), (2, 3)],
            bhat: vec![(1, 2)],
            xhat: vec![(0, 2), (7, 7)],
            algorithm: Algorithm::TwoPhase {
                d: 3,
                engine: DenseEngine::FastField { omega: 2.372 },
            },
            compress: true,
            semiring: WireSemiring::MinPlus,
            mode: BatchMode::Packed { lanes: 8 },
            seed: 0xFEED,
            fault_seed: 0xDEAD,
            drop_rate: 0.125,
            corrupt_rate: 0.0,
            crash_rate: 0.5,
        }))
    }

    #[test]
    fn requests_roundtrip() {
        for req in [sample_execute(), Request::Stats, Request::Shutdown] {
            let decoded = Request::decode(&req.encode()).expect("roundtrip");
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let responses = [
            Response::Ok {
                digest: 0x1234_5678_9ABC_DEF0,
                rung: Rung::Linked,
                descents: 2,
                quarantined: true,
                nanos: 987_654,
            },
            Response::Overloaded { backlog: 64 },
            Response::BreakerOpen { cooldown_left: 3 },
            Response::DeadlineExceeded,
            Response::BadRequest {
                detail: "no".into(),
            },
            Response::Failed {
                detail: "lint: x".into(),
            },
            Response::Stats {
                json: "{\"requests\":1}".into(),
            },
            Response::ShutdownAck { json: "{}".into() },
            Response::ShuttingDown,
        ];
        // Byte 10 of an `Ok` frame is the rung tag; tag 2 is unassigned.
        let mut unassigned = responses[0].encode();
        unassigned[10] = 2;
        assert!(matches!(
            Response::decode(&unassigned),
            Err(WireError::Malformed("rung tag"))
        ));
        for resp in responses {
            let decoded = Response::decode(&resp.encode()).expect("roundtrip");
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn truncated_and_garbage_payloads_are_typed_errors() {
        let full = sample_execute().encode();
        for cut in [0usize, 1, 2, 5, full.len() - 1] {
            assert!(
                matches!(
                    Request::decode(&full[..cut]),
                    Err(WireError::Malformed(_) | WireError::Version { .. })
                ),
                "cut={cut}"
            );
        }
        assert!(matches!(
            Request::decode(&[PROTOCOL_VERSION, 99]),
            Err(WireError::Malformed("request opcode"))
        ));
        assert!(matches!(
            Request::decode(&[PROTOCOL_VERSION + 1, OP_STATS]),
            Err(WireError::Version { .. })
        ));
    }

    #[test]
    fn out_of_bounds_support_entries_are_rejected() {
        let mut req = match sample_execute() {
            Request::Execute(r) => r,
            _ => unreachable!(),
        };
        req.ahat.push((8, 0)); // n = 8 ⇒ max index 7
        let encoded = Request::Execute(req).encode();
        assert!(matches!(
            Request::decode(&encoded),
            Err(WireError::Malformed("support entry out of bounds"))
        ));
    }
}
