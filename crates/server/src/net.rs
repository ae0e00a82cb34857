//! Length-prefixed binary TCP front-end for the query service.
//!
//! The stdin/stdout serving loop is fine for pipelines, but measuring tail
//! latency with queueing effects — and serving real remote traffic — needs
//! a socket. This module speaks a deliberately tiny protocol over TCP:
//! every message is one *frame* (`u32` little-endian payload length, then
//! the payload), the server greets each connection with a hello frame, and
//! after that the client sends request-batch frames and receives one
//! response-batch frame per request frame, answers in request order.
//!
//! ## Wire format (version 3, all integers little-endian)
//!
//! ```text
//! frame          := len:u32 payload[len]            (len ≤ 64 MiB)
//! hello          := magic:u32 ("FPPV" = 0x46505056) version:u16
//!                   num_nodes:u64 epoch:u64 alpha:f64 delta:f64
//!
//! -- every post-hello request frame starts with an op byte; the server
//! -- answers each frame with exactly one response frame (no op byte:
//! -- the protocol is strictly request→response in order, so the client
//! -- knows what to decode)
//!
//! op             := 0 query | 1 stats | 2 prime0 | 3 expand | 4 update
//!
//! -- op 0 (query): the classic batch protocol
//! request-batch  := count:u32 request*
//! request        := query:u32 top_k:u32 deadline_ms:u32 stop
//!                   -- top_k 0 returns the full score vector
//!                   -- deadline_ms 0xFFFF_FFFF means "no deadline";
//!                      otherwise a *relative* budget in milliseconds from
//!                      server receipt (an absolute `Instant` does not
//!                      serialize; queue wait counts against it)
//! stop           := 0:u8 eta:u32                    (iteration budget η)
//!                 | 1:u8 l1_target:f64              (accuracy target φ)
//! response-batch := count:u32 response*
//! response       := 0:u8 answer
//!                 | 1:u8 msg_len:u32 msg[msg_len]
//!                 | 2:u8 retry_after_ms:u32          (overloaded: shed)
//! answer         := query:u32 iterations:u32 l1_error:f64 exhausted:u8
//!                   cached:u8 degraded:u8 latency_ns:u64
//!                   n:u32 (node:u32 score:f64)*n
//!
//! -- op 1 (stats): health probe, empty request body
//! stats-response := in_flight:u64 recent_p99_ns:u64 degraded:u64
//!                   shed:u64 epoch:u64
//!
//! -- op 2 (prime0): iteration 0 of a scattered query
//! prime0-request := request_id:u64 expect_epoch:u64 query:u32
//!                   -- expect_epoch 0xFFFF…FF ("any") skips the pin
//! sub-response   := request_id:u64 status
//! status         := 0:u8 ok-body
//!                 | 1:u8 current_epoch:u64           (epoch skew)
//!                 | 2:u8 msg_len:u32 msg[msg_len]    (error)
//! prime0-ok      := epoch:u64 n:u32 (node:u32 score:f64)*n
//!                   m:u32 (hub:u32 mass:f64)*m       (border frontier)
//!
//! -- op 3 (expand): one shard's slice of one increment step
//! expand-request := request_id:u64 expect_epoch:u64
//!                   m:u32 (hub:u32 mass:f64)*m       (ascending hub id)
//! expand-ok      := epoch:u64 n:u32 (node:u32 score:f64)*n
//!                   m:u32 (hub:u32 mass:f64)*m
//!                   increment_mass:f64 hubs_expanded:u32
//!
//! -- op 4 (update): two-phase coordinated publish
//! update-request := phase:u8 target_epoch:u64 events?
//!                   -- phase 0 prepare (carries events), 1 commit, 2 abort
//! events         := k:u32 (insert:u8 tail:u32 head:u32)*k
//! update-response:= 0:u8                             (ok)
//!                 | 1:u8 msg_len:u32 msg[msg_len]    (refused)
//! ```
//!
//! Version 2 added the `degraded` flag (the server capped the stopping
//! condition under load; `l1_error` is still the certified φ of what was
//! computed) and the `Overloaded` response (tag 2): a request shed past
//! the high-water mark fails fast with a positive retry hint instead of
//! queueing. See [`crate::service::OverloadOptions`].
//!
//! Version 3 made request frames op-tagged and added the scatter/gather
//! sub-ops a shard cluster needs: `stats` (router health probes),
//! `prime0`/`expand` (per-shard halves of a distributed FastPPV query,
//! epoch-pinned so a merge never mixes graph versions, request-id-echoed
//! so a hedged retry can never be credited to the wrong request), and
//! `update` (two-phase epoch barrier: prepare stages the refreshed store
//! without publishing, commit flips every shard in lockstep). The hello
//! now announces the serving epoch and the α/δ the stored index was
//! built with, so a stateless router can configure itself entirely from
//! its backends.
//!
//! A malformed frame closes the connection; a *well-formed* request for an
//! out-of-range node gets a per-request error response (the connection —
//! and the batch's other requests — are unaffected). Validation happens
//! against the same pinned snapshot the batch executes on, so a
//! concurrently published update can never turn a validated id into a
//! panic.
//!
//! ## Robustness
//!
//! The server enforces a *frame-stall* timeout ([`NetOptions`]): a
//! connection may idle indefinitely **between** frames, but once the
//! first byte of a frame has arrived the rest must keep flowing — a
//! slow-loris peer that trickles a frame one byte a minute is
//! disconnected instead of pinning a connection thread. The client side
//! sets connect/read/write timeouts ([`ClientOptions`]) so a dead or
//! SIGSTOPped server surfaces as a typed [`ClientError::Timeout`] rather
//! than a hang, and [`ResilientClient`] layers `retry_after`-aware
//! exponential backoff with jitter and bounded reconnect on top.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fastppv_core::query::StoppingCondition;
use fastppv_core::FlatIndex;
use fastppv_graph::gen::{apply_event, EdgeEvent};
use fastppv_graph::{Graph, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::service::{QueryService, Request, Response, SubQueryError};

/// Wire constants, re-exported from the workspace constant registry
/// under their historical public names. Protocol version history:
/// version 2 added the per-answer `degraded` flag and the `Overloaded`
/// response tag (accuracy shedding under load); version 3 op-tagged
/// request frames and added the scatter/gather sub-ops (`stats`,
/// `prime0`, `expand`, `update`) plus the extended hello (epoch, α, δ).
pub use fastppv_core::protocol_consts::{
    EPOCH_ANY, NET_MAGIC as MAGIC, OP_EXPAND, OP_PRIME0, OP_QUERY, OP_STATS, OP_UPDATE,
    PROTOCOL_VERSION,
};
/// Upper bound on a frame payload; larger frames are a protocol error.
pub const MAX_FRAME_BYTES: usize = 64 << 20;
/// Upper bound on requests per batch frame (a protocol error beyond it).
/// Bounds the worst-case response: even a batch of all-error responses
/// stays far below [`MAX_FRAME_BYTES`], and a batch whose *answers*
/// overflow the frame cap degrades into per-request errors instead of
/// killing the connection (see [`serve`]).
pub const MAX_BATCH_REQUESTS: usize = 1 << 16;
/// Concurrent connections the server accepts; beyond it new connections
/// are closed before the hello frame (admission control — each connection
/// gets a thread, and each in-flight batch its own scoped worker set, so
/// the cap bounds total threads).
pub const MAX_CONNECTIONS: usize = 1024;
/// `deadline_ms` sentinel for "no deadline".
const NO_DEADLINE: u32 = u32::MAX;

/// Per-request stopping condition on the wire.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WireStop {
    /// Run exactly this many increments (η).
    Iterations(u32),
    /// Iterate until the guaranteed L1 error φ falls below the target.
    L1Error(f64),
}

/// One query as sent by a client.
#[derive(Clone, Copy, Debug)]
pub struct WireRequest {
    /// The query node.
    pub query: NodeId,
    /// When to stop iterating.
    pub stop: WireStop,
    /// Relative deadline in milliseconds from server receipt (`None` = no
    /// deadline). Queue wait on the server counts against it.
    pub deadline_ms: Option<u32>,
    /// How many top entries to return; 0 returns the full score vector.
    pub top_k: u32,
}

impl WireRequest {
    /// A request running exactly `eta` increments, returning the full
    /// score vector.
    pub fn iterations(query: NodeId, eta: u32) -> Self {
        WireRequest {
            query,
            stop: WireStop::Iterations(eta),
            deadline_ms: None,
            top_k: 0,
        }
    }

    /// A request running until `φ ≤ target`.
    pub fn l1_error(query: NodeId, target: f64) -> Self {
        WireRequest {
            query,
            stop: WireStop::L1Error(target),
            deadline_ms: None,
            top_k: 0,
        }
    }

    /// Caps the response to the `k` highest-scoring entries.
    pub fn with_top_k(mut self, k: u32) -> Self {
        self.top_k = k;
        self
    }

    /// Adds a relative deadline in milliseconds from server receipt.
    pub fn with_deadline_ms(mut self, ms: u32) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    fn to_request(self, received: Instant) -> Request {
        let stop = match self.stop {
            WireStop::Iterations(eta) => StoppingCondition::iterations(eta as usize),
            WireStop::L1Error(target) => StoppingCondition::l1_error(target),
        };
        Request {
            query: self.query,
            stop,
            deadline: self
                .deadline_ms
                .map(|ms| received + Duration::from_millis(ms as u64)),
        }
    }
}

/// A served answer as decoded by a client.
#[derive(Clone, Debug)]
pub struct WireAnswer {
    /// The query node.
    pub query: NodeId,
    /// Increments run beyond iteration 0.
    pub iterations: u32,
    /// Accuracy-aware L1 error φ of the estimate.
    pub l1_error: f64,
    /// Whether the expansion frontier emptied.
    pub exhausted: bool,
    /// Whether the server's hot-PPV cache served this answer.
    pub cached: bool,
    /// Whether the server capped this request's stopping condition under
    /// load. `l1_error` is still the certified φ of what was computed.
    pub degraded: bool,
    /// Server-side service latency (queue wait within the batch included).
    pub latency: Duration,
    /// Score entries: the full vector (ascending node id) when the request
    /// asked `top_k = 0`, else the `top_k` best scores in descending order.
    pub entries: Vec<(NodeId, f64)>,
}

/// One per-request outcome in a response batch.
#[derive(Clone, Debug)]
pub enum WireResponse {
    /// The query was served.
    Answer(WireAnswer),
    /// The request was rejected (e.g. node out of range); the rest of the
    /// batch is unaffected.
    Error(String),
    /// The request was shed: the server is past its overload high-water
    /// mark and rejected it *before* queueing. Back off for at least
    /// `retry_after_ms` (always positive) before retrying.
    Overloaded {
        /// Server-suggested minimum backoff in milliseconds (> 0).
        retry_after_ms: u32,
    },
}

impl WireResponse {
    /// The answer, if the request was served.
    pub fn answer(&self) -> Option<&WireAnswer> {
        match self {
            WireResponse::Answer(a) => Some(a),
            _ => None,
        }
    }

    /// The rejection message, if the request failed.
    pub fn error(&self) -> Option<&str> {
        match self {
            WireResponse::Error(e) => Some(e),
            _ => None,
        }
    }

    /// The retry hint, if the request was shed under overload.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            WireResponse::Overloaded { retry_after_ms } => {
                Some(Duration::from_millis(*retry_after_ms as u64))
            }
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding / decoding
// ---------------------------------------------------------------------------

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The server went away cleanly between request and response. This is a
/// *connection* failure (`ConnectionAborted` — a crashed or restarting
/// peer, retryable on a fresh connection), never a protocol violation:
/// the router's hedging layer treats `InvalidData` as non-retryable
/// misbehavior, and a SIGKILLed shard must not be classified as that.
fn closed_mid_request() -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionAborted,
        "server closed mid-request",
    )
}

/// Bounds-checked little-endian reader over a frame payload.
struct Payload<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Payload<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Payload { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| bad_data("truncated frame payload"))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| bad_data("truncated frame payload"))?;
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        self.take(N)?
            .try_into()
            .map_err(|_| bad_data("truncated frame payload"))
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finish(self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad_data(format!(
                "{} trailing bytes after frame payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Writes one length-prefixed frame and flushes. Public for the router
/// front-end, which speaks the same protocol on its client side.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() <= MAX_FRAME_BYTES, "oversized outgoing frame");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary.
fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(bad_data(format!("frame of {len} bytes exceeds the cap")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// What a server announces at connect time. A stateless router configures
/// itself entirely from this: the graph size (request validation), the
/// serving epoch (scatter pinning), and the α/δ the stored index was
/// built with (merge arithmetic must match them bit-for-bit).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerHello {
    /// Number of graph nodes.
    pub num_nodes: u64,
    /// Serving epoch at connect time (may advance; sub-op responses carry
    /// the authoritative epoch).
    pub epoch: u64,
    /// Teleport probability α of the stored index.
    pub alpha: f64,
    /// Hub-expansion threshold δ of the stored index.
    pub delta: f64,
}

/// Encodes the server hello frame (shared by shards and the router).
pub fn encode_hello(hello: &ServerHello) -> Vec<u8> {
    let mut buf = Vec::with_capacity(38);
    put_u32(&mut buf, MAGIC);
    buf.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    put_u64(&mut buf, hello.num_nodes);
    put_u64(&mut buf, hello.epoch);
    put_f64(&mut buf, hello.alpha);
    put_f64(&mut buf, hello.delta);
    buf
}

fn decode_hello(payload: &[u8]) -> io::Result<ServerHello> {
    let mut p = Payload::new(payload);
    if p.u32()? != MAGIC {
        return Err(bad_data("bad magic: not a fastppv server"));
    }
    let version = p.u16()?;
    if version != PROTOCOL_VERSION {
        return Err(bad_data(format!(
            "protocol version {version} (this client speaks {PROTOCOL_VERSION})"
        )));
    }
    let num_nodes = p.u64()?;
    let epoch = p.u64()?;
    let alpha = p.f64()?;
    let delta = p.f64()?;
    p.finish()?;
    Ok(ServerHello {
        num_nodes,
        epoch,
        alpha,
        delta,
    })
}

fn encode_request_batch(requests: &[WireRequest]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + requests.len() * 17);
    put_u32(&mut buf, requests.len() as u32);
    for r in requests {
        put_u32(&mut buf, r.query);
        put_u32(&mut buf, r.top_k);
        put_u32(&mut buf, r.deadline_ms.unwrap_or(NO_DEADLINE));
        match r.stop {
            WireStop::Iterations(eta) => {
                buf.push(0);
                put_u32(&mut buf, eta);
            }
            WireStop::L1Error(target) => {
                buf.push(1);
                put_f64(&mut buf, target);
            }
        }
    }
    buf
}

/// Decodes an `OP_QUERY` body into its requests (shared by shards and
/// the router front-end).
pub fn decode_request_batch(payload: &[u8]) -> io::Result<Vec<WireRequest>> {
    let mut p = Payload::new(payload);
    let count = p.u32()? as usize;
    // The smallest request is 17 bytes; a count the payload cannot hold is
    // rejected before any allocation trusts it, as is a batch past the
    // response-size cap.
    if count > payload.len() / 17 {
        return Err(bad_data(format!("request count {count} overruns frame")));
    }
    if count > MAX_BATCH_REQUESTS {
        return Err(bad_data(format!(
            "request count {count} exceeds the per-frame cap ({MAX_BATCH_REQUESTS})"
        )));
    }
    let mut requests = Vec::with_capacity(count);
    for _ in 0..count {
        let query = p.u32()?;
        let top_k = p.u32()?;
        let deadline = p.u32()?;
        let stop = match p.u8()? {
            0 => WireStop::Iterations(p.u32()?),
            1 => WireStop::L1Error(p.f64()?),
            tag => return Err(bad_data(format!("unknown stop tag {tag}"))),
        };
        requests.push(WireRequest {
            query,
            stop,
            deadline_ms: (deadline != NO_DEADLINE).then_some(deadline),
            top_k,
        });
    }
    p.finish()?;
    Ok(requests)
}

/// Encodes a response batch (shared by shards and the router front-end).
pub fn encode_response_batch(responses: &[WireResponse]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, responses.len() as u32);
    for r in responses {
        match r {
            WireResponse::Error(msg) => {
                buf.push(1);
                put_u32(&mut buf, msg.len() as u32);
                buf.extend_from_slice(msg.as_bytes());
            }
            WireResponse::Overloaded { retry_after_ms } => {
                buf.push(2);
                put_u32(&mut buf, *retry_after_ms);
            }
            WireResponse::Answer(a) => {
                buf.push(0);
                put_u32(&mut buf, a.query);
                put_u32(&mut buf, a.iterations);
                put_f64(&mut buf, a.l1_error);
                buf.push(a.exhausted as u8);
                buf.push(a.cached as u8);
                buf.push(a.degraded as u8);
                put_u64(&mut buf, a.latency.as_nanos().min(u64::MAX as u128) as u64);
                put_u32(&mut buf, a.entries.len() as u32);
                for &(node, score) in &a.entries {
                    put_u32(&mut buf, node);
                    put_f64(&mut buf, score);
                }
            }
        }
    }
    buf
}

fn decode_response_batch(payload: &[u8]) -> io::Result<Vec<WireResponse>> {
    let mut p = Payload::new(payload);
    // The smallest response (an empty error) is 5 bytes; reject counts the
    // payload cannot hold before sizing any allocation off them.
    let count = p.u32()? as usize;
    if count > payload.len() / 5 {
        return Err(bad_data(format!("response count {count} overruns frame")));
    }
    let mut responses = Vec::with_capacity(count);
    for _ in 0..count {
        match p.u8()? {
            1 => {
                let len = p.u32()? as usize;
                let msg = std::str::from_utf8(p.take(len)?)
                    .map_err(|_| bad_data("error message is not UTF-8"))?;
                responses.push(WireResponse::Error(msg.to_string()));
            }
            2 => {
                let retry_after_ms = p.u32()?;
                if retry_after_ms == 0 {
                    return Err(bad_data(
                        "overloaded response with zero retry_after (retry-storm hazard)",
                    ));
                }
                responses.push(WireResponse::Overloaded { retry_after_ms });
            }
            0 => {
                let query = p.u32()?;
                let iterations = p.u32()?;
                let l1_error = p.f64()?;
                let exhausted = p.u8()? != 0;
                let cached = p.u8()? != 0;
                let degraded = p.u8()? != 0;
                let latency = Duration::from_nanos(p.u64()?);
                let n = p.u32()? as usize;
                if n > payload.len() / 12 {
                    return Err(bad_data(format!("entry count {n} overruns frame")));
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let node = p.u32()?;
                    let score = p.f64()?;
                    entries.push((node, score));
                }
                responses.push(WireResponse::Answer(WireAnswer {
                    query,
                    iterations,
                    l1_error,
                    exhausted,
                    cached,
                    degraded,
                    latency,
                    entries,
                }));
            }
            tag => return Err(bad_data(format!("unknown response tag {tag}"))),
        }
    }
    p.finish()?;
    Ok(responses)
}

fn answer_of(response: &Response, top_k: u32) -> WireAnswer {
    let entries = if top_k == 0 {
        response.scores.entries().to_vec()
    } else {
        response.top_k(top_k as usize)
    };
    WireAnswer {
        query: response.query,
        iterations: response.iterations as u32,
        l1_error: response.l1_error,
        exhausted: response.exhausted,
        cached: response.cached,
        degraded: response.degraded,
        latency: response.latency,
        entries,
    }
}

// ---------------------------------------------------------------------------
// Sub-op wire types and codecs (version 3)
// ---------------------------------------------------------------------------

/// A server's load picture as answered to a stats (health-probe) frame.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WireStats {
    /// Requests currently inside the service.
    pub in_flight: u64,
    /// Recent p99 service latency.
    pub recent_p99: Duration,
    /// Requests served degraded since startup.
    pub degraded: u64,
    /// Requests shed since startup.
    pub shed: u64,
    /// Current serving epoch.
    pub epoch: u64,
}

/// Iteration 0 of a scattered query as answered by a shard.
#[derive(Clone, Debug, PartialEq)]
pub struct WirePrime0 {
    /// Epoch of the snapshot that produced the answer.
    pub epoch: u64,
    /// `r̊⁰_q` entries, ascending node id (trivial tour excluded).
    pub entries: Vec<(NodeId, f64)>,
    /// The border-hub entries among them — iteration 1's frontier.
    pub frontier: Vec<(NodeId, f64)>,
}

/// One shard's contribution to one scattered increment step.
#[derive(Clone, Debug, PartialEq)]
pub struct WireExpand {
    /// Epoch of the snapshot that produced the contribution.
    pub epoch: u64,
    /// Partial increment entries, ascending node id.
    pub entries: Vec<(NodeId, f64)>,
    /// Partial next frontier (border hubs reached), ascending hub id.
    pub frontier: Vec<(NodeId, f64)>,
    /// Mass this partial increment added (`Σ entries`).
    pub increment_mass: f64,
    /// Frontier hubs actually expanded (mass above δ).
    pub hubs_expanded: u32,
}

/// Outcome of a scattered sub-request (`prime0` / `expand`), with the
/// echoed request id already validated by the client.
#[derive(Clone, Debug, PartialEq)]
pub enum SubReply<T> {
    /// The shard answered on the pinned epoch.
    Ok(T),
    /// The shard serves a different epoch; retry against `current`.
    EpochSkew {
        /// The epoch the shard currently serves.
        current: u64,
    },
    /// The shard refused the sub-request (bad node id, missing hub…).
    Error(String),
}

impl<T> SubReply<T> {
    /// The answer, if the shard served the sub-request.
    pub fn ok(self) -> Option<T> {
        match self {
            SubReply::Ok(t) => Some(t),
            _ => None,
        }
    }
}

/// Phase of a two-phase update frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdatePhase {
    /// Stage the refreshed store at `target_epoch` without publishing.
    Prepare,
    /// Publish the staged snapshot.
    Commit,
    /// Discard the staged snapshot.
    Abort,
}

fn encode_stats_request() -> Vec<u8> {
    vec![OP_STATS]
}

/// Encodes an `OP_STATS` response (shared by shards and the router).
pub fn encode_stats_response(s: &WireStats) -> Vec<u8> {
    let mut buf = Vec::with_capacity(40);
    put_u64(&mut buf, s.in_flight);
    put_u64(
        &mut buf,
        s.recent_p99.as_nanos().min(u64::MAX as u128) as u64,
    );
    put_u64(&mut buf, s.degraded);
    put_u64(&mut buf, s.shed);
    put_u64(&mut buf, s.epoch);
    buf
}

fn decode_stats_response(payload: &[u8]) -> io::Result<WireStats> {
    let mut p = Payload::new(payload);
    let stats = WireStats {
        in_flight: p.u64()?,
        recent_p99: Duration::from_nanos(p.u64()?),
        degraded: p.u64()?,
        shed: p.u64()?,
        epoch: p.u64()?,
    };
    p.finish()?;
    Ok(stats)
}

fn encode_prime0_request(request_id: u64, expect_epoch: u64, query: NodeId) -> Vec<u8> {
    let mut buf = Vec::with_capacity(21);
    buf.push(OP_PRIME0);
    put_u64(&mut buf, request_id);
    put_u64(&mut buf, expect_epoch);
    put_u32(&mut buf, query);
    buf
}

fn encode_expand_request(request_id: u64, expect_epoch: u64, sublist: &[(NodeId, f64)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(21 + sublist.len() * 12);
    buf.push(OP_EXPAND);
    put_u64(&mut buf, request_id);
    put_u64(&mut buf, expect_epoch);
    put_u32(&mut buf, sublist.len() as u32);
    for &(hub, mass) in sublist {
        put_u32(&mut buf, hub);
        put_f64(&mut buf, mass);
    }
    buf
}

fn put_entry_list(buf: &mut Vec<u8>, entries: &[(NodeId, f64)]) {
    put_u32(buf, entries.len() as u32);
    for &(node, score) in entries {
        put_u32(buf, node);
        put_f64(buf, score);
    }
}

fn take_entry_list(p: &mut Payload<'_>, payload_len: usize) -> io::Result<Vec<(NodeId, f64)>> {
    let n = p.u32()? as usize;
    if n > payload_len / 12 {
        return Err(bad_data(format!("entry count {n} overruns frame")));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let node = p.u32()?;
        let score = p.f64()?;
        entries.push((node, score));
    }
    Ok(entries)
}

const SUB_OK: u8 = 0;
const SUB_SKEW: u8 = 1;
const SUB_ERROR: u8 = 2;

/// Shared head of every sub-response: the echoed request id plus the
/// non-Ok statuses; `Ok(None)` means "status ok, body follows".
fn encode_sub_head(buf: &mut Vec<u8>, request_id: u64, status: u8) {
    put_u64(buf, request_id);
    buf.push(status);
}

fn encode_sub_skew(request_id: u64, current: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(17);
    encode_sub_head(&mut buf, request_id, SUB_SKEW);
    put_u64(&mut buf, current);
    buf
}

fn encode_sub_error(request_id: u64, msg: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(13 + msg.len());
    encode_sub_head(&mut buf, request_id, SUB_ERROR);
    put_u32(&mut buf, msg.len() as u32);
    buf.extend_from_slice(msg.as_bytes());
    buf
}

fn encode_prime0_ok(request_id: u64, answer: &WirePrime0) -> Vec<u8> {
    let mut buf = Vec::with_capacity(25 + (answer.entries.len() + answer.frontier.len()) * 12 + 8);
    encode_sub_head(&mut buf, request_id, SUB_OK);
    put_u64(&mut buf, answer.epoch);
    put_entry_list(&mut buf, &answer.entries);
    put_entry_list(&mut buf, &answer.frontier);
    buf
}

fn encode_expand_ok(request_id: u64, answer: &WireExpand) -> Vec<u8> {
    let mut buf = Vec::with_capacity(37 + (answer.entries.len() + answer.frontier.len()) * 12 + 8);
    encode_sub_head(&mut buf, request_id, SUB_OK);
    put_u64(&mut buf, answer.epoch);
    put_entry_list(&mut buf, &answer.entries);
    put_entry_list(&mut buf, &answer.frontier);
    put_f64(&mut buf, answer.increment_mass);
    put_u32(&mut buf, answer.hubs_expanded);
    buf
}

/// A sub-response head that was anything but `SUB_OK`. Separate from
/// [`SubReply`] so the decoders never hold an impossible `Ok(())` arm.
enum SubNonOk {
    EpochSkew { current: u64 },
    Error(String),
}

impl SubNonOk {
    fn into_reply<T>(self) -> SubReply<T> {
        match self {
            SubNonOk::EpochSkew { current } => SubReply::EpochSkew { current },
            SubNonOk::Error(e) => SubReply::Error(e),
        }
    }
}

/// Decodes a sub-response head, validating the echoed request id — a
/// response surviving from a previous (hedged, timed-out, desynced)
/// request on the same connection can never be credited to this one.
/// `Ok(None)` means the shard answered `SUB_OK` and the typed body
/// follows in the payload.
fn decode_sub_head(p: &mut Payload<'_>, expect_request_id: u64) -> io::Result<Option<SubNonOk>> {
    let request_id = p.u64()?;
    if request_id != expect_request_id {
        return Err(bad_data(format!(
            "response for request {request_id}, expected {expect_request_id}"
        )));
    }
    match p.u8()? {
        SUB_OK => Ok(None),
        SUB_SKEW => Ok(Some(SubNonOk::EpochSkew { current: p.u64()? })),
        SUB_ERROR => {
            let len = p.u32()? as usize;
            let msg = std::str::from_utf8(p.take(len)?)
                .map_err(|_| bad_data("error message is not UTF-8"))?;
            Ok(Some(SubNonOk::Error(msg.to_string())))
        }
        tag => Err(bad_data(format!("unknown sub-response status {tag}"))),
    }
}

fn decode_prime0_response(payload: &[u8], request_id: u64) -> io::Result<SubReply<WirePrime0>> {
    let mut p = Payload::new(payload);
    if let Some(non_ok) = decode_sub_head(&mut p, request_id)? {
        p.finish()?;
        return Ok(non_ok.into_reply());
    }
    let epoch = p.u64()?;
    let entries = take_entry_list(&mut p, payload.len())?;
    let frontier = take_entry_list(&mut p, payload.len())?;
    p.finish()?;
    Ok(SubReply::Ok(WirePrime0 {
        epoch,
        entries,
        frontier,
    }))
}

fn decode_expand_response(payload: &[u8], request_id: u64) -> io::Result<SubReply<WireExpand>> {
    let mut p = Payload::new(payload);
    if let Some(non_ok) = decode_sub_head(&mut p, request_id)? {
        p.finish()?;
        return Ok(non_ok.into_reply());
    }
    let epoch = p.u64()?;
    let entries = take_entry_list(&mut p, payload.len())?;
    let frontier = take_entry_list(&mut p, payload.len())?;
    let increment_mass = p.f64()?;
    let hubs_expanded = p.u32()?;
    p.finish()?;
    Ok(SubReply::Ok(WireExpand {
        epoch,
        entries,
        frontier,
        increment_mass,
        hubs_expanded,
    }))
}

fn encode_update_request(phase: UpdatePhase, target_epoch: u64, events: &[EdgeEvent]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(14 + events.len() * 9);
    buf.push(OP_UPDATE);
    buf.push(match phase {
        UpdatePhase::Prepare => 0,
        UpdatePhase::Commit => 1,
        UpdatePhase::Abort => 2,
    });
    put_u64(&mut buf, target_epoch);
    if phase == UpdatePhase::Prepare {
        put_u32(&mut buf, events.len() as u32);
        for e in events {
            buf.push(e.insert as u8);
            put_u32(&mut buf, e.tail);
            put_u32(&mut buf, e.head);
        }
    }
    buf
}

/// Decodes an `OP_UPDATE` body into its phase, target epoch, and (for
/// prepare) event batch. Shared by the shard handler and the router's
/// two-phase coordinator front-end.
pub fn decode_update_request(body: &[u8]) -> io::Result<(UpdatePhase, u64, Vec<EdgeEvent>)> {
    let mut p = Payload::new(body);
    let phase = p.u8()?;
    let target_epoch = p.u64()?;
    match phase {
        0 => {
            let k = p.u32()? as usize;
            if k > body.len() / 9 {
                return Err(bad_data(format!("event count {k} overruns frame")));
            }
            let mut events = Vec::with_capacity(k);
            for _ in 0..k {
                let insert = p.u8()? != 0;
                let tail = p.u32()?;
                let head = p.u32()?;
                events.push(EdgeEvent { tail, head, insert });
            }
            p.finish()?;
            Ok((UpdatePhase::Prepare, target_epoch, events))
        }
        1 => {
            p.finish()?;
            Ok((UpdatePhase::Commit, target_epoch, Vec::new()))
        }
        2 => {
            p.finish()?;
            Ok((UpdatePhase::Abort, target_epoch, Vec::new()))
        }
        tag => Err(bad_data(format!("unknown update phase {tag}"))),
    }
}

/// Encodes an `OP_UPDATE` response (shared by shards and the router).
pub fn encode_update_response(result: &Result<(), String>) -> Vec<u8> {
    match result {
        Ok(()) => vec![0],
        Err(msg) => {
            let mut buf = Vec::with_capacity(5 + msg.len());
            buf.push(1);
            put_u32(&mut buf, msg.len() as u32);
            buf.extend_from_slice(msg.as_bytes());
            buf
        }
    }
}

fn decode_update_response(payload: &[u8]) -> io::Result<Result<(), String>> {
    let mut p = Payload::new(payload);
    let result = match p.u8()? {
        0 => Ok(()),
        1 => {
            let len = p.u32()? as usize;
            let msg = std::str::from_utf8(p.take(len)?)
                .map_err(|_| bad_data("error message is not UTF-8"))?;
            Err(msg.to_string())
        }
        tag => return Err(bad_data(format!("unknown update status {tag}"))),
    };
    p.finish()?;
    Ok(result)
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Connection-level robustness knobs of [`serve_with_options`].
#[derive(Clone, Copy, Debug)]
pub struct NetOptions {
    /// Once the first byte of a frame has arrived, the rest must keep
    /// arriving: a read that makes no progress for this long mid-frame
    /// closes the connection (slow-loris defense). Idling *between*
    /// frames is unlimited. Also bounds how long a connection thread
    /// takes to notice server shutdown.
    pub frame_stall_timeout: Duration,
    /// Socket write timeout for response frames (`None` = no limit). A
    /// peer that stops draining its receive buffer would otherwise block
    /// the connection thread forever.
    pub write_timeout: Option<Duration>,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            frame_stall_timeout: Duration::from_secs(10),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl NetOptions {
    fn validate(&self) {
        assert!(
            !self.frame_stall_timeout.is_zero(),
            "frame stall timeout must be positive"
        );
        assert!(
            self.write_timeout != Some(Duration::ZERO),
            "write timeout must be positive (use None for no limit)"
        );
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one frame from a socket whose read timeout is set to the frame
/// stall timeout. `Ok(None)` on a clean EOF at a frame boundary **or**
/// when `stop` flips while idle (server shutdown). A timeout while a
/// frame is partially received is a stall and fails the connection.
pub fn read_frame_stalling<R: Read>(
    r: &mut R,
    stop: &AtomicBool,
    buf_scratch: &mut Vec<u8>,
) -> io::Result<Option<Vec<u8>>> {
    // Check at the frame boundary too, not only on idle timeouts: a
    // connection under sustained load never idles, and would otherwise
    // keep serving a stopped server indefinitely.
    if stop.load(Ordering::Acquire) {
        return Ok(None);
    }
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        // fppv-lint: allow(panic-freedom) -- got < 4 is the loop condition, so the slice start is in bounds
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None)
                } else {
                    Err(bad_data("connection closed mid frame header"))
                }
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if stop.load(Ordering::Acquire) {
                    return Ok(None);
                }
                if got > 0 {
                    return Err(bad_data("frame stalled inside the header"));
                }
                // Idle at a frame boundary: keep waiting.
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(bad_data(format!("frame of {len} bytes exceeds the cap")));
    }
    buf_scratch.clear();
    buf_scratch.resize(len, 0);
    let mut got = 0usize;
    while got < len {
        // fppv-lint: allow(panic-freedom) -- got < len = buf_scratch.len() is the loop condition
        match r.read(&mut buf_scratch[got..]) {
            Ok(0) => return Err(bad_data("connection closed mid frame payload")),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if stop.load(Ordering::Acquire) {
                    return Ok(None);
                }
                return Err(bad_data("frame stalled inside the payload"));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Some(std::mem::take(buf_scratch)))
}

/// A running TCP front-end (a shard's or the router's): a
/// thread-per-connection acceptor. Dropped or [`NetServer::shutdown`]: stops
/// accepting and joins the acceptor; connection threads observe the stop
/// flag within one frame-stall timeout, and in-flight queries are
/// cancelled at their next increment boundary.
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl NetServer {
    /// The address the server is listening on (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks until the acceptor exits (i.e. forever, absent a shutdown
    /// from another handle or a listener error). The CLI's
    /// `serve --listen` foreground mode.
    pub fn wait(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }

    /// Stops accepting new connections and joins the acceptor.
    pub fn shutdown(mut self) {
        self.signal_and_join();
    }

    fn signal_and_join(&mut self) {
        let Some(handle) = self.acceptor.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // Poke the blocking accept() so it observes the flag.
        let _ = TcpStream::connect(self.local_addr);
        let _ = handle.join();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.signal_and_join();
    }
}

/// Starts serving `service` on `listener`: one acceptor thread plus one
/// thread per connection, each feeding whole request-batch frames to
/// [`QueryService::process_batch`]'s scoped worker set. Returns
/// immediately with a [`NetServer`] handle.
///
/// Threading model, explicitly: the batching worker pool is *per
/// in-flight batch* (bounded by `options.workers`), so total compute
/// threads scale with concurrent connections × workers. The
/// [`MAX_CONNECTIONS`] admission cap bounds that product; past it, new
/// connections are closed before the hello frame (a connecting
/// [`Client`] sees "server closed before sending hello"). Size
/// `options.workers` for the *expected concurrency*, not the core count
/// alone, when many simultaneous connections are the workload.
pub fn serve(
    service: Arc<QueryService<FlatIndex>>,
    listener: TcpListener,
) -> io::Result<NetServer> {
    serve_with_options(service, listener, NetOptions::default())
}

/// [`serve`] with explicit connection-robustness knobs ([`NetOptions`]).
pub fn serve_with_options(
    service: Arc<QueryService<FlatIndex>>,
    listener: TcpListener,
    options: NetOptions,
) -> io::Result<NetServer> {
    options.validate();
    let handle = move |stream: TcpStream, stop: &AtomicBool| {
        handle_connection(&service, stream, stop, options)
    };
    spawn_acceptor(listener, "fastppv", MAX_CONNECTIONS, Arc::new(handle))
}

/// What a front-end runs on each admitted connection. An error (protocol
/// violation, broken pipe) closes just that connection; the flag is the
/// one [`NetServer::shutdown`] raises.
pub type ConnectionHandler = dyn Fn(TcpStream, &AtomicBool) -> io::Result<()> + Send + Sync;

/// The accept loop of every FastPPV front-end (this module's [`serve`]
/// and `fastppv_router::serve_router`): one `{name}-accept` thread plus
/// one `{name}-conn` thread per admitted connection running `handle`,
/// under the [`MAX_CONNECTIONS`] admission cap.
pub fn serve_connections(
    listener: TcpListener,
    name: &'static str,
    handle: Arc<ConnectionHandler>,
) -> io::Result<NetServer> {
    spawn_acceptor(listener, name, MAX_CONNECTIONS, handle)
}

fn spawn_acceptor(
    listener: TcpListener,
    name: &'static str,
    max_connections: usize,
    handle: Arc<ConnectionHandler>,
) -> io::Result<NetServer> {
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let active = Arc::new(AtomicUsize::new(0));
    let acceptor = std::thread::Builder::new()
        .name(format!("{name}-accept"))
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::Acquire) {
                    break;
                }
                let stream = match conn {
                    Ok(stream) => stream,
                    Err(_) => {
                        // Persistent accept failures (fd exhaustion) yield
                        // Err immediately and repeatedly; back off instead
                        // of busy-spinning the acceptor at 100% CPU.
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    }
                };
                // Admission control: past the cap, close before hello. The
                // slot is released by a Drop guard so a panicking handler
                // cannot leak it and starve future connections.
                if active.fetch_add(1, Ordering::AcqRel) >= max_connections {
                    active.fetch_sub(1, Ordering::AcqRel);
                    drop(stream);
                    continue;
                }
                let slot = SlotGuard(Arc::clone(&active));
                let handle = Arc::clone(&handle);
                let stop = Arc::clone(&stop_flag);
                // If the spawn itself fails, the closure — and the guard
                // inside it — is dropped here, releasing the slot.
                let _ = std::thread::Builder::new()
                    .name(format!("{name}-conn"))
                    .spawn(move || {
                        let _slot = slot;
                        // A protocol error or broken pipe closes just this
                        // connection; the acceptor keeps serving others.
                        let _ = handle(stream, &stop);
                    });
            }
        })?;
    Ok(NetServer {
        local_addr,
        stop,
        acceptor: Some(acceptor),
    })
}

/// Releases one admission slot on drop — including on unwind, so a panic
/// inside a connection handler cannot permanently shrink the accept cap.
struct SlotGuard(Arc<AtomicUsize>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn handle_connection(
    service: &QueryService<FlatIndex>,
    stream: TcpStream,
    stop: &AtomicBool,
    options: NetOptions,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    // The read timeout doubles as the frame-stall bound and the shutdown
    // poll interval; read_frame_stalling distinguishes idle-at-boundary
    // (fine, keep waiting) from stalled-mid-frame (close).
    stream.set_read_timeout(Some(options.frame_stall_timeout))?;
    stream.set_write_timeout(options.write_timeout)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    {
        let state = service.snapshot();
        let config = service.config();
        write_frame(
            &mut writer,
            &encode_hello(&ServerHello {
                num_nodes: state.graph().num_nodes() as u64,
                epoch: state.epoch(),
                alpha: config.alpha,
                delta: config.delta,
            }),
        )?;
    }
    let mut scratch = Vec::new();
    while let Some(payload) = read_frame_stalling(&mut reader, stop, &mut scratch)? {
        let Some((&op, body)) = payload.split_first() else {
            return Err(bad_data("empty frame (missing op byte)"));
        };
        match op {
            OP_QUERY => handle_query_frame(service, &mut writer, body, stop)?,
            OP_STATS => {
                Payload::new(body).finish()?;
                let load = service.load_stats();
                let stats = WireStats {
                    in_flight: load.in_flight as u64,
                    recent_p99: load.recent_p99,
                    degraded: load.degraded,
                    shed: load.shed,
                    epoch: service.epoch(),
                };
                write_frame(&mut writer, &encode_stats_response(&stats))?;
            }
            OP_PRIME0 => {
                let mut p = Payload::new(body);
                let request_id = p.u64()?;
                let expect_epoch = p.u64()?;
                let query = p.u32()?;
                p.finish()?;
                let expect = (expect_epoch != EPOCH_ANY).then_some(expect_epoch);
                let encoded = match service.prime0(query, expect) {
                    Ok((parts, epoch)) => encode_prime0_ok(
                        request_id,
                        &WirePrime0 {
                            epoch,
                            entries: parts.entries.clone(),
                            frontier: parts.frontier.clone(),
                        },
                    ),
                    Err(e) => encode_sub_failure(request_id, &e),
                };
                write_frame(&mut writer, &cap_sub_frame(request_id, encoded))?;
            }
            OP_EXPAND => {
                let mut p = Payload::new(body);
                let request_id = p.u64()?;
                let expect_epoch = p.u64()?;
                let sublist = take_entry_list(&mut p, body.len())?;
                p.finish()?;
                let expect = (expect_epoch != EPOCH_ANY).then_some(expect_epoch);
                let encoded = match service.expand(&sublist, expect) {
                    Ok(answer) => encode_expand_ok(
                        request_id,
                        &WireExpand {
                            epoch: answer.epoch,
                            entries: answer.outcome.entries.entries().to_vec(),
                            frontier: answer.outcome.frontier,
                            increment_mass: answer.outcome.increment_mass,
                            hubs_expanded: answer.outcome.hubs_expanded as u32,
                        },
                    ),
                    Err(e) => encode_sub_failure(request_id, &e),
                };
                write_frame(&mut writer, &cap_sub_frame(request_id, encoded))?;
            }
            OP_UPDATE => {
                let (phase, target_epoch, events) = decode_update_request(body)?;
                let result = match phase {
                    UpdatePhase::Prepare => prepare_from_events(service, target_epoch, &events),
                    UpdatePhase::Commit => service.commit_update(target_epoch),
                    UpdatePhase::Abort => {
                        service.abort_update();
                        Ok(())
                    }
                };
                write_frame(&mut writer, &encode_update_response(&result))?;
            }
            tag => return Err(bad_data(format!("unknown op byte {tag}"))),
        }
    }
    Ok(())
}

fn encode_sub_failure(request_id: u64, e: &SubQueryError) -> Vec<u8> {
    match e {
        SubQueryError::EpochSkew { current } => encode_sub_skew(request_id, *current),
        other => encode_sub_error(request_id, &other.to_string()),
    }
}

/// A sub-response whose entries overflow the frame cap degrades into an
/// in-protocol error (the router treats it like any per-shard refusal)
/// instead of an oversized-frame panic killing the connection.
fn cap_sub_frame(request_id: u64, encoded: Vec<u8>) -> Vec<u8> {
    if encoded.len() <= MAX_FRAME_BYTES {
        return encoded;
    }
    encode_sub_error(
        request_id,
        &format!(
            "sub-response of {} bytes exceeds the {} MiB frame cap",
            encoded.len(),
            MAX_FRAME_BYTES >> 20
        ),
    )
}

/// Phase-one handler: replays the event batch onto the pinned snapshot's
/// graph (every shard holds the full graph; only the PPV store is sliced)
/// and stages the shard-local refresh at `target_epoch`. Public so an
/// in-process shard backend can stage updates without a socket.
pub fn prepare_from_events(
    service: &QueryService<FlatIndex>,
    target_epoch: u64,
    events: &[EdgeEvent],
) -> Result<(), String> {
    let state = service.snapshot();
    let n = state.graph().num_nodes();
    for e in events {
        if (e.tail as usize) >= n || (e.head as usize) >= n {
            return Err(format!(
                "event edge {} -> {} out of range ({n} nodes)",
                e.tail, e.head
            ));
        }
    }
    let mut graph: Option<Graph> = None;
    for e in events {
        let base = graph.as_ref().unwrap_or_else(|| state.graph());
        graph = Some(apply_event(base, e));
    }
    let new_graph = graph.unwrap_or_else(|| state.graph().as_ref().clone());
    let mut tails: Vec<NodeId> = events.iter().map(|e| e.tail).collect();
    tails.sort_unstable();
    tails.dedup();
    service
        .prepare_update(target_epoch, new_graph, &tails)
        .map(|_| ())
}

fn handle_query_frame(
    service: &QueryService<FlatIndex>,
    writer: &mut BufWriter<TcpStream>,
    body: &[u8],
    stop: &AtomicBool,
) -> io::Result<()> {
    {
        let wire_requests = decode_request_batch(body)?;
        let received = Instant::now();
        // Pin one snapshot for the whole frame: ids are validated against
        // the exact graph the batch will run on, so a concurrent update
        // cannot invalidate the check mid-flight.
        let state = service.snapshot();
        let mut slots: Vec<Option<WireResponse>> = Vec::new();
        slots.resize_with(wire_requests.len(), || None);
        let mut batch: Vec<Request> = Vec::with_capacity(wire_requests.len());
        let mut batch_slots: Vec<usize> = Vec::with_capacity(wire_requests.len());
        for (i, wr) in wire_requests.iter().enumerate() {
            // Shed *before* queueing: a request past the high-water mark
            // gets its typed rejection immediately instead of adding to
            // the very backlog that triggered it.
            if let crate::service::Admission::Shed { retry_after } = service.admission() {
                service.note_shed();
                let retry_after_ms = (retry_after.as_millis() as u32).max(1);
                slots[i] = Some(WireResponse::Overloaded { retry_after_ms });
                continue;
            }
            match crate::service::check_in_range(state.graph(), wr.query) {
                Err(e) => slots[i] = Some(WireResponse::Error(e)),
                Ok(()) => {
                    batch.push(wr.to_request(received));
                    batch_slots.push(i);
                }
            }
        }
        // The server stop flag doubles as the cancellation token: shutdown
        // stops in-flight queries at their next increment boundary (each
        // returns its partial answer with its current certified φ).
        let responses = service.process_batch_on_cancel(&state, batch, Some(stop));
        for (&slot, response) in batch_slots.iter().zip(&responses) {
            slots[slot] = Some(WireResponse::Answer(answer_of(
                response,
                wire_requests[slot].top_k,
            )));
        }
        let out: Vec<WireResponse> = slots
            .into_iter()
            .map(|s| s.expect("every request got a slot"))
            .collect();
        let mut encoded = encode_response_batch(&out);
        if encoded.len() > MAX_FRAME_BYTES {
            // A well-formed batch whose *answers* (full score vectors on a
            // big graph) overflow the frame cap degrades into per-request
            // errors — bounded by MAX_BATCH_REQUESTS, so this frame always
            // fits — instead of killing the connection.
            let errors: Vec<WireResponse> = out
                .iter()
                .map(|r| match r {
                    WireResponse::Error(e) => WireResponse::Error(e.clone()),
                    WireResponse::Overloaded { retry_after_ms } => WireResponse::Overloaded {
                        retry_after_ms: *retry_after_ms,
                    },
                    WireResponse::Answer(a) => WireResponse::Error(format!(
                        "response batch exceeds the {} MiB frame cap; request \
                         fewer entries (top_k) or smaller batches (answer for \
                         node {} alone held {} entries)",
                        MAX_FRAME_BYTES >> 20,
                        a.query,
                        a.entries.len()
                    )),
                })
                .collect();
            encoded = encode_response_batch(&errors);
        }
        write_frame(writer, &encoded)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Socket timeouts of a [`Client`]. The defaults protect every phase —
/// connect, the hello handshake, request writes, response reads — so a
/// dead or SIGSTOPped server surfaces as a timeout error instead of
/// hanging the caller forever.
#[derive(Clone, Copy, Debug)]
pub struct ClientOptions {
    /// TCP connect timeout (`None` = OS default).
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout, covering the hello frame and every response
    /// frame (`None` = wait forever).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout for request frames (`None` = wait forever).
    pub write_timeout: Option<Duration>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            connect_timeout: Some(Duration::from_secs(10)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl ClientOptions {
    /// No timeouts anywhere: the pre-robustness behavior. Only sensible
    /// against a server you also control the lifetime of.
    pub fn unbounded() -> Self {
        ClientOptions {
            connect_timeout: None,
            read_timeout: None,
            write_timeout: None,
        }
    }
}

/// What went wrong talking to a fastppv server, split by what the caller
/// should *do* about it: back off and retry ([`ClientError::Timeout`],
/// [`ClientError::Disconnected`], [`ClientError::Io`] — the connection is
/// gone or wedged, a reconnect may succeed) versus give up
/// ([`ClientError::Protocol`] — retrying malformed traffic reproduces
/// it). [`ResilientClient`] applies exactly that split.
#[derive(Debug)]
pub enum ClientError {
    /// A connect, read, or write exceeded its [`ClientOptions`] timeout —
    /// the server is dead, stalled, or unreachable.
    Timeout(io::Error),
    /// The server closed or reset the connection.
    Disconnected(io::Error),
    /// Any other I/O failure.
    Io(io::Error),
    /// Malformed or protocol-violating data; not retryable.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Timeout(e) => write!(f, "timed out waiting on the server: {e}"),
            ClientError::Disconnected(e) => write!(f, "server closed the connection: {e}"),
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Timeout(e) | ClientError::Disconnected(e) | ClientError::Io(e) => Some(e),
            ClientError::Protocol(_) => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::Timeout(e),
            io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe => ClientError::Disconnected(e),
            io::ErrorKind::InvalidData => ClientError::Protocol(e.to_string()),
            _ => ClientError::Io(e),
        }
    }
}

impl ClientError {
    /// Whether a fresh connection and retry could plausibly succeed.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, ClientError::Protocol(_))
    }
}

/// A blocking client for the fastppv TCP protocol (one connection, one
/// outstanding request frame at a time).
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    hello: ServerHello,
    /// Monotonic per-connection request-id source for sub-ops.
    next_request_id: u64,
}

impl Client {
    /// Connects with [`ClientOptions::default`] timeouts and consumes the
    /// server's hello frame. A dead or stalled server fails within the
    /// timeouts instead of hanging forever; use [`Client::connect_with`]
    /// to tune or disable them.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::connect_with(addr, ClientOptions::default())
    }

    /// Connects with explicit timeouts and consumes the server's hello
    /// frame (which counts against `read_timeout` — the handshake is
    /// where a SIGSTOPped server hangs a naive client).
    pub fn connect_with<A: ToSocketAddrs>(addr: A, options: ClientOptions) -> io::Result<Self> {
        let stream = match options.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(limit) => {
                // connect_timeout needs concrete addresses; try each
                // resolution like TcpStream::connect does.
                let mut last = None;
                let mut stream = None;
                for a in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&a, limit) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                stream.ok_or_else(|| {
                    last.unwrap_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
                    })
                })?
            }
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(options.read_timeout)?;
        stream.set_write_timeout(options.write_timeout)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        let hello = read_frame(&mut reader)?
            .ok_or_else(|| bad_data("server closed before sending hello"))?;
        let hello = decode_hello(&hello)?;
        Ok(Client {
            reader,
            writer,
            hello,
            next_request_id: 1,
        })
    }

    /// Number of graph nodes the server announced at connect time.
    pub fn num_nodes(&self) -> u64 {
        self.hello.num_nodes
    }

    /// Everything the server announced at connect time (node count,
    /// serving epoch, index α/δ).
    pub fn hello(&self) -> &ServerHello {
        &self.hello
    }

    /// Sends one request batch and blocks for the response batch
    /// (responses in request order, one per request). Batches above
    /// [`MAX_BATCH_REQUESTS`] are rejected here with a precise error —
    /// the server would reject the frame and close the connection.
    pub fn request_batch(&mut self, requests: &[WireRequest]) -> io::Result<Vec<WireResponse>> {
        if requests.len() > MAX_BATCH_REQUESTS {
            return Err(bad_data(format!(
                "batch of {} requests exceeds the per-frame cap ({MAX_BATCH_REQUESTS})",
                requests.len()
            )));
        }
        let mut frame = vec![OP_QUERY];
        frame.extend_from_slice(&encode_request_batch(requests));
        write_frame(&mut self.writer, &frame)?;
        let payload = read_frame(&mut self.reader)?.ok_or_else(closed_mid_request)?;
        let responses = decode_response_batch(&payload)?;
        if responses.len() != requests.len() {
            return Err(bad_data(format!(
                "{} responses for {} requests",
                responses.len(),
                requests.len()
            )));
        }
        Ok(responses)
    }

    /// Sends a single request and blocks for its response.
    pub fn request_one(&mut self, request: WireRequest) -> io::Result<WireResponse> {
        let mut responses = self.request_batch(std::slice::from_ref(&request))?;
        Ok(responses.remove(0))
    }

    fn round_trip(&mut self, frame: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(&mut self.writer, frame)?;
        read_frame(&mut self.reader)?.ok_or_else(closed_mid_request)
    }

    fn take_request_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    /// Probes the server's load picture (the router's health check).
    pub fn stats(&mut self) -> io::Result<WireStats> {
        let payload = self.round_trip(&encode_stats_request())?;
        decode_stats_response(&payload)
    }

    /// Asks for iteration 0 of a scattered query, pinned to
    /// `expect_epoch` (`None` = whatever the shard serves). The request id
    /// is assigned here and validated against the response's echo.
    pub fn prime0(
        &mut self,
        query: NodeId,
        expect_epoch: Option<u64>,
    ) -> io::Result<SubReply<WirePrime0>> {
        let id = self.take_request_id();
        let payload = self.round_trip(&encode_prime0_request(
            id,
            expect_epoch.unwrap_or(EPOCH_ANY),
            query,
        ))?;
        decode_prime0_response(&payload, id)
    }

    /// Asks for one shard's slice of one increment step: `sublist` holds
    /// the frontier hubs this shard owns (ascending id) with their merged
    /// masses.
    pub fn expand(
        &mut self,
        sublist: &[(NodeId, f64)],
        expect_epoch: Option<u64>,
    ) -> io::Result<SubReply<WireExpand>> {
        let id = self.take_request_id();
        let payload = self.round_trip(&encode_expand_request(
            id,
            expect_epoch.unwrap_or(EPOCH_ANY),
            sublist,
        ))?;
        decode_expand_response(&payload, id)
    }

    /// Phase one of a coordinated update: ship the event batch and stage
    /// the refreshed store at `target_epoch` without publishing.
    pub fn update_prepare(
        &mut self,
        target_epoch: u64,
        events: &[EdgeEvent],
    ) -> io::Result<Result<(), String>> {
        let payload = self.round_trip(&encode_update_request(
            UpdatePhase::Prepare,
            target_epoch,
            events,
        ))?;
        decode_update_response(&payload)
    }

    /// Phase two: publish the snapshot staged at `target_epoch`.
    pub fn update_commit(&mut self, target_epoch: u64) -> io::Result<Result<(), String>> {
        let payload = self.round_trip(&encode_update_request(
            UpdatePhase::Commit,
            target_epoch,
            &[],
        ))?;
        decode_update_response(&payload)
    }

    /// Discards any staged snapshot on the server.
    pub fn update_abort(&mut self) -> io::Result<Result<(), String>> {
        let payload = self.round_trip(&encode_update_request(UpdatePhase::Abort, 0, &[]))?;
        decode_update_response(&payload)
    }
}

/// Retry behavior of a [`ResilientClient`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first (≥ 1). Reconnects are
    /// bounded by the same budget.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling (the exponential stops growing here).
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    fn validate(&self) {
        assert!(self.max_attempts >= 1, "at least one attempt is required");
    }

    /// Exponential backoff before retry number `retry` (1-based), capped.
    fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.saturating_sub(1).min(16);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

/// A [`Client`] wrapper that survives a flaky or overloaded server:
/// retryable failures (timeout, disconnect, I/O) drop the connection,
/// back off exponentially **with jitter**, reconnect, and try again,
/// bounded by [`RetryPolicy::max_attempts`]; a batch the server shed
/// *entirely* waits at least the server's `retry_after` hint before the
/// retry. Protocol errors are never retried — replaying malformed
/// traffic reproduces them.
///
/// Queries are read-only, so a retry after a mid-request failure is safe
/// (at worst the server computes an answer twice).
pub struct ResilientClient {
    addr: SocketAddr,
    options: ClientOptions,
    policy: RetryPolicy,
    client: Option<Client>,
    /// Backoff jitter source — seeded (port-derived by default) so tests
    /// stay reproducible under [`ResilientClient::with_jitter_seed`].
    rng: ChaCha8Rng,
}

impl ResilientClient {
    /// Creates a client for `addr` (no connection is made until the
    /// first request; [`ResilientClient::connect`] forces one eagerly).
    pub fn new(addr: SocketAddr, options: ClientOptions, policy: RetryPolicy) -> Self {
        policy.validate();
        ResilientClient {
            addr,
            options,
            policy,
            client: None,
            rng: ChaCha8Rng::seed_from_u64(0x243F_6A88_85A3_08D3 ^ (addr.port() as u64)),
        }
    }

    /// Seeds the backoff jitter (defaults to a port-derived constant).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.rng = ChaCha8Rng::seed_from_u64(seed);
        self
    }

    /// Connects eagerly (with the retry budget) and reports the server's
    /// announced node count.
    pub fn connect(&mut self) -> Result<u64, ClientError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.ensure_connected() {
                Ok(c) => return Ok(c.num_nodes()),
                Err(e) => self.backoff_or_fail(e, attempt, None)?,
            }
        }
    }

    /// Sends one request batch, retrying per the policy. Responses come
    /// back in request order; per-request `Overloaded` outcomes inside a
    /// *partially* served batch are returned as-is (the caller decides
    /// which requests to replay) — only a fully-shed batch is retried
    /// here, honoring the server's largest `retry_after` hint.
    pub fn request_batch(
        &mut self,
        requests: &[WireRequest],
    ) -> Result<Vec<WireResponse>, ClientError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let result = self
                .ensure_connected()
                .and_then(|c| c.request_batch(requests).map_err(ClientError::from));
            match result {
                Ok(responses) => {
                    let fully_shed = !responses.is_empty()
                        && responses.iter().all(|r| r.retry_after().is_some());
                    if !fully_shed {
                        return Ok(responses);
                    }
                    if attempt >= self.policy.max_attempts {
                        return Ok(responses); // hand the shed outcome back
                    }
                    let hint = responses
                        .iter()
                        .filter_map(|r| r.retry_after())
                        .max()
                        .unwrap_or(Duration::ZERO);
                    let wait = self.policy.backoff(attempt).max(hint);
                    std::thread::sleep(self.jittered(wait));
                }
                Err(e) => self.backoff_or_fail(e, attempt, Some(requests.len()))?,
            }
        }
    }

    /// Sends a single request with the full retry policy.
    pub fn request_one(&mut self, request: WireRequest) -> Result<WireResponse, ClientError> {
        let mut responses = self.request_batch(std::slice::from_ref(&request))?;
        Ok(responses.remove(0))
    }

    fn ensure_connected(&mut self) -> Result<&mut Client, ClientError> {
        if self.client.is_none() {
            self.client = Some(Client::connect_with(self.addr, self.options)?);
        }
        Ok(self.client.as_mut().expect("just connected"))
    }

    /// On a retryable error below the attempt budget: drop the (possibly
    /// wedged) connection, sleep a jittered backoff, and return `Ok` so
    /// the caller loops. Otherwise propagate the error.
    fn backoff_or_fail(
        &mut self,
        e: ClientError,
        attempt: u32,
        _batch: Option<usize>,
    ) -> Result<(), ClientError> {
        self.client = None;
        if !e.is_retryable() || attempt >= self.policy.max_attempts {
            return Err(e);
        }
        let wait = self.policy.backoff(attempt);
        std::thread::sleep(self.jittered(wait));
        Ok(())
    }

    /// Full jitter in `[wait/2, wait]`: desynchronizes a fleet of
    /// retrying clients without ever undercutting half the intended
    /// backoff (or a server-sent `retry_after` by more than half).
    fn jittered(&mut self, wait: Duration) -> Duration {
        let half = wait / 2;
        half + half.mul_f64(self.rng.gen::<f64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceOptions;
    use fastppv_core::offline::build_index;
    use fastppv_core::{Config, HubSet, PpvStore, QueryEngine};
    use fastppv_graph::toy;

    fn toy_service() -> Arc<QueryService<FlatIndex>> {
        let g = toy::graph();
        let hubs = HubSet::from_ids(8, toy::PAPER_HUBS.to_vec());
        let config = Config::exhaustive();
        let (index, _) = build_index(&g, &hubs, &config);
        Arc::new(QueryService::new(
            Arc::new(g),
            Arc::new(hubs),
            Arc::new(index),
            config,
            ServiceOptions {
                workers: 2,
                queue_capacity: 8,
                cache_capacity: 16,
            },
        ))
    }

    #[test]
    fn request_batch_round_trips() {
        let requests = vec![
            WireRequest::iterations(3, 2),
            WireRequest::l1_error(5, 0.125).with_top_k(7),
            WireRequest::iterations(0, 9).with_deadline_ms(1500),
        ];
        let decoded = decode_request_batch(&encode_request_batch(&requests)).unwrap();
        assert_eq!(decoded.len(), 3);
        for (a, b) in requests.iter().zip(&decoded) {
            assert_eq!(a.query, b.query);
            assert_eq!(a.stop, b.stop);
            assert_eq!(a.deadline_ms, b.deadline_ms);
            assert_eq!(a.top_k, b.top_k);
        }
    }

    #[test]
    fn response_batch_round_trips() {
        let responses = vec![
            WireResponse::Answer(WireAnswer {
                query: 4,
                iterations: 3,
                l1_error: 0.25,
                exhausted: true,
                cached: false,
                degraded: true,
                latency: Duration::from_micros(1234),
                entries: vec![(1, 0.5), (7, 0.25)],
            }),
            WireResponse::Error("node 99 out of range".into()),
            WireResponse::Overloaded { retry_after_ms: 75 },
        ];
        let decoded = decode_response_batch(&encode_response_batch(&responses)).unwrap();
        let a = decoded[0].answer().unwrap();
        assert_eq!((a.query, a.iterations), (4, 3));
        assert_eq!(a.l1_error, 0.25);
        assert!(a.exhausted && !a.cached);
        assert!(a.degraded, "degraded flag survives the wire");
        assert_eq!(a.latency, Duration::from_micros(1234));
        assert_eq!(a.entries, vec![(1, 0.5), (7, 0.25)]);
        assert_eq!(decoded[1].error(), Some("node 99 out of range"));
        assert_eq!(
            decoded[2].retry_after(),
            Some(Duration::from_millis(75)),
            "overloaded responses carry their retry hint"
        );
    }

    #[test]
    fn zero_retry_after_is_rejected_on_decode() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1);
        buf.push(2);
        put_u32(&mut buf, 0);
        let err = decode_response_batch(&buf).unwrap_err();
        assert!(err.to_string().contains("retry-storm"), "{err}");
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let good = encode_request_batch(&[WireRequest::iterations(1, 2)]);
        assert!(decode_request_batch(&good[..good.len() - 1]).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_request_batch(&trailing).is_err());
        // A count that the payload cannot possibly hold is rejected early.
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        assert!(decode_request_batch(&huge).is_err());
        let hello = ServerHello {
            num_nodes: 42,
            epoch: 7,
            alpha: 0.15,
            delta: 1e-4,
        };
        assert!(decode_hello(&encode_hello(&hello)[..3]).is_err());
        assert_eq!(decode_hello(&encode_hello(&hello)).unwrap(), hello);
    }

    #[test]
    fn sub_op_payloads_round_trip_and_validate_request_ids() {
        let p0 = WirePrime0 {
            epoch: 3,
            entries: vec![(1, 0.5), (4, 0.25)],
            frontier: vec![(4, 0.25)],
        };
        let decoded = decode_prime0_response(&encode_prime0_ok(9, &p0), 9).unwrap();
        assert_eq!(decoded, SubReply::Ok(p0.clone()));
        // A response echoing the wrong request id is a protocol error, not
        // a silently mis-credited answer (hedging correctness).
        let err = decode_prime0_response(&encode_prime0_ok(9, &p0), 10).unwrap_err();
        assert!(err.to_string().contains("expected 10"), "{err}");

        let ex = WireExpand {
            epoch: 5,
            entries: vec![(2, 0.125)],
            frontier: vec![],
            increment_mass: 0.125,
            hubs_expanded: 1,
        };
        let decoded = decode_expand_response(&encode_expand_ok(1, &ex), 1).unwrap();
        assert_eq!(decoded, SubReply::Ok(ex));

        assert_eq!(
            decode_prime0_response(&encode_sub_skew(2, 8), 2).unwrap(),
            SubReply::EpochSkew { current: 8 }
        );
        assert_eq!(
            decode_expand_response(&encode_sub_error(3, "nope"), 3).unwrap(),
            SubReply::Error("nope".into())
        );

        let stats = WireStats {
            in_flight: 2,
            recent_p99: Duration::from_micros(750),
            degraded: 1,
            shed: 4,
            epoch: 6,
        };
        assert_eq!(
            decode_stats_response(&encode_stats_response(&stats)).unwrap(),
            stats
        );

        let events = vec![
            EdgeEvent {
                tail: 1,
                head: 2,
                insert: true,
            },
            EdgeEvent {
                tail: 3,
                head: 0,
                insert: false,
            },
        ];
        let frame = encode_update_request(UpdatePhase::Prepare, 4, &events);
        assert_eq!(frame[0], OP_UPDATE);
        assert_eq!(
            decode_update_response(&encode_update_response(&Ok(()))).unwrap(),
            Ok(())
        );
        assert_eq!(
            decode_update_response(&encode_update_response(&Err("busy".into()))).unwrap(),
            Err("busy".to_string())
        );
    }

    #[test]
    fn loopback_sub_ops_serve_scatter_halves_and_two_phase_updates() {
        use fastppv_graph::gen::synth_events;
        let service = toy_service();
        let server = serve(
            Arc::clone(&service),
            TcpListener::bind("127.0.0.1:0").unwrap(),
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let hello = *client.hello();
        assert_eq!(hello.num_nodes, 8);
        assert_eq!(hello.epoch, 0);
        assert_eq!(hello.alpha, service.config().alpha);
        assert_eq!(hello.delta, service.config().delta);

        // Health probe.
        let stats = client.stats().unwrap();
        assert_eq!(stats.epoch, 0);

        // prime0 of a hub matches the stored prime PPV; pinning to a wrong
        // epoch skews instead of mixing versions.
        let hub = toy::PAPER_HUBS[0];
        let p0 = client.prime0(hub, Some(0)).unwrap().ok().expect("epoch 0");
        assert_eq!(p0.epoch, 0);
        let state = service.snapshot();
        let stored: Vec<(NodeId, f64)> = state
            .store()
            .view(hub)
            .expect("hub is stored")
            .to_prime_ppv()
            .entries
            .entries()
            .to_vec();
        assert_eq!(p0.entries, stored);
        assert!(p0.frontier.iter().all(|&(h, _)| { state.hubs().is_hub(h) }));
        assert!(matches!(
            client.prime0(hub, Some(99)).unwrap(),
            SubReply::EpochSkew { current: 0 }
        ));
        assert!(matches!(
            client.prime0(999, None).unwrap(),
            SubReply::Error(_)
        ));

        // expand over the prime0 frontier reproduces the first increment:
        // iteration 1 of the single-process engine.
        if !p0.frontier.is_empty() {
            let ex = client
                .expand(&p0.frontier, Some(0))
                .unwrap()
                .ok()
                .expect("epoch 0");
            assert!(ex.increment_mass > 0.0);
            assert_eq!(ex.hubs_expanded as usize, p0.frontier.len());
        }

        // Two-phase update: prepare stages (serving epoch unchanged),
        // commit publishes, and a pre-update pin now skews.
        let events = synth_events(state.graph(), 3, 0.0, 42);
        assert_eq!(client.update_prepare(1, &events).unwrap(), Ok(()));
        assert_eq!(service.epoch(), 0, "prepare must not publish");
        assert!(client.prime0(hub, Some(0)).unwrap().ok().is_some());
        assert_eq!(client.update_commit(1).unwrap(), Ok(()));
        assert_eq!(service.epoch(), 1);
        assert!(matches!(
            client.prime0(hub, Some(0)).unwrap(),
            SubReply::EpochSkew { current: 1 }
        ));
        assert!(client.prime0(hub, Some(1)).unwrap().ok().is_some());

        // Committing again fails cleanly; a fresh prepare can be aborted.
        assert!(client.update_commit(1).unwrap().is_err());
        let events2 = synth_events(&service.graph(), 2, 0.0, 43);
        assert_eq!(client.update_prepare(2, &events2).unwrap(), Ok(()));
        assert_eq!(client.update_abort().unwrap(), Ok(()));
        assert!(client.update_commit(2).unwrap().is_err());
        assert_eq!(service.epoch(), 1, "aborted update must not publish");

        drop(client);
        server.shutdown();
    }

    #[test]
    fn batch_and_count_caps_are_enforced() {
        // A frame large enough to hold MAX_BATCH_REQUESTS + 1 requests is
        // still rejected by the per-frame cap (bounds the response size).
        let over = MAX_BATCH_REQUESTS + 1;
        let mut payload = vec![0u8; 4 + over * 17];
        payload[..4].copy_from_slice(&(over as u32).to_le_bytes());
        let err = decode_request_batch(&payload).unwrap_err();
        assert!(err.to_string().contains("per-frame cap"), "{err}");
        // A response count the payload cannot hold is rejected before any
        // allocation is sized off it (client-side OOM guard).
        let mut bogus = Vec::new();
        put_u32(&mut bogus, 1000);
        let err = decode_response_batch(&bogus).unwrap_err();
        assert!(err.to_string().contains("overruns frame"), "{err}");
    }

    #[test]
    fn loopback_serves_exact_answers_and_per_request_errors() {
        let service = toy_service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = serve(Arc::clone(&service), listener).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.num_nodes(), 8);

        let responses = client
            .request_batch(&[
                WireRequest::iterations(toy::A, 3),
                WireRequest::iterations(99, 3), // out of range
                WireRequest::iterations(toy::E, 2).with_top_k(2),
            ])
            .unwrap();
        assert_eq!(responses.len(), 3);

        let state = service.snapshot();
        let engine = state.engine(*service.config());
        let direct = engine.query(toy::A, &StoppingCondition::iterations(3));
        let a = responses[0].answer().unwrap();
        assert_eq!(a.entries, direct.scores.entries().to_vec());
        assert_eq!(a.iterations as usize, direct.iterations);
        assert!((a.l1_error - direct.l1_error).abs() < 1e-15);

        let err = responses[1].error().unwrap();
        assert!(err.contains("out of range"), "{err}");

        let top2 = responses[2].answer().unwrap();
        let direct_e = engine.query(toy::E, &StoppingCondition::iterations(2));
        assert_eq!(top2.entries, direct_e.scores.top_k(2));

        // The connection survived the per-request error.
        let again = client
            .request_one(WireRequest::iterations(toy::A, 3))
            .unwrap();
        let again = again.answer().unwrap();
        assert!(again.cached, "repeat deterministic request hits the cache");
        assert_eq!(again.entries, direct.scores.entries().to_vec());

        drop(client);
        server.shutdown();
    }

    #[test]
    fn loopback_expired_deadline_stops_immediately() {
        let service = toy_service();
        let server = serve(
            Arc::clone(&service),
            TcpListener::bind("127.0.0.1:0").unwrap(),
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let r = client
            .request_one(WireRequest::iterations(toy::A, 50).with_deadline_ms(0))
            .unwrap();
        let a = r.answer().unwrap();
        assert_eq!(a.iterations, 0, "0 ms deadline must stop at iteration 0");
        drop(client);
        server.shutdown();
    }

    #[test]
    fn loopback_sheds_past_high_water_mark_and_recovers() {
        use crate::service::OverloadOptions;
        let g = toy::graph();
        let hubs = HubSet::from_ids(8, toy::PAPER_HUBS.to_vec());
        let config = Config::exhaustive();
        let (index, _) = build_index(&g, &hubs, &config);
        let service = Arc::new(
            QueryService::new(
                Arc::new(g),
                Arc::new(hubs),
                Arc::new(index),
                config,
                ServiceOptions {
                    workers: 1,
                    queue_capacity: 8,
                    cache_capacity: 0,
                },
            )
            .with_overload(OverloadOptions {
                degrade_in_flight: 2,
                shed_in_flight: 4,
                ..OverloadOptions::default()
            }),
        );
        let server = serve(
            Arc::clone(&service),
            TcpListener::bind("127.0.0.1:0").unwrap(),
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        // Pin the service past the high-water mark, as a flood of slow
        // batches would.
        let held = service.track_in_flight(4);
        let shed = client
            .request_one(WireRequest::iterations(toy::A, 3))
            .unwrap();
        let retry = shed.retry_after().expect("past high water: must shed");
        assert!(retry > Duration::ZERO, "retry hint must be positive");
        assert!(service.load_stats().shed >= 1);
        // Load drains: the same connection serves normally again.
        drop(held);
        let ok = client
            .request_one(WireRequest::iterations(toy::A, 3))
            .unwrap();
        assert!(ok.answer().is_some(), "recovered after shed: {ok:?}");
        // Between the watermarks: admitted but degraded, φ still carried.
        let held = service.track_in_flight(1); // +1 for the request itself = 2
        let soft = client
            .request_one(WireRequest::iterations(toy::A, 8))
            .unwrap();
        let a = soft.answer().expect("degrade admits the request");
        assert!(a.degraded, "degrade regime must flag the answer");
        assert!(a.l1_error.is_finite());
        drop(held);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn slow_loris_connection_is_disconnected_but_idle_survives() {
        let service = toy_service();
        let server = serve_with_options(
            Arc::clone(&service),
            TcpListener::bind("127.0.0.1:0").unwrap(),
            NetOptions {
                frame_stall_timeout: Duration::from_millis(100),
                write_timeout: Some(Duration::from_secs(5)),
            },
        )
        .unwrap();
        // An idle (frame-boundary) connection outlives many stall windows.
        let mut idle = Client::connect(server.local_addr()).unwrap();
        // A slow-loris peer: starts a frame, then stalls mid-header.
        let mut loris = TcpStream::connect(server.local_addr()).unwrap();
        loris
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        {
            let mut r = BufReader::new(loris.try_clone().unwrap());
            read_frame(&mut r).unwrap().expect("hello");
        }
        loris.write_all(&[7u8, 0]).unwrap(); // 2 of 4 header bytes, then silence
        std::thread::sleep(Duration::from_millis(400));
        // The server must have closed the stalled connection…
        loris.write_all(&[0u8, 0]).ok(); // complete the header (may already fail)
        let mut probe = [0u8; 1];
        let outcome = loris.read(&mut probe);
        assert!(
            matches!(outcome, Ok(0) | Err(_)),
            "stalled connection must be closed, got {outcome:?}"
        );
        // …while the idle one still serves.
        let r = idle
            .request_one(WireRequest::iterations(toy::A, 2))
            .unwrap();
        assert!(r.answer().is_some());
        drop(idle);
        server.shutdown();
    }

    #[test]
    fn admission_cap_closes_before_hello_and_frees_slots() {
        let service = toy_service();
        let options = NetOptions::default();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        // The acceptor `serve` and `serve_router` run, with a cap of 2.
        let handle = move |stream: TcpStream, stop: &AtomicBool| {
            handle_connection(&service, stream, stop, options)
        };
        let server = spawn_acceptor(listener, "fastppv-test", 2, Arc::new(handle)).unwrap();
        let addr = server.local_addr();
        // A connected client has read its hello, so its slot is taken.
        let first = Client::connect(addr).unwrap();
        let mut second = Client::connect(addr).unwrap();
        let Err(refused) = Client::connect(addr) else {
            panic!("a third connection was admitted past a cap of 2");
        };
        assert!(
            refused.to_string().contains("before sending hello"),
            "{refused}"
        );
        // Disconnecting frees the slot once the handler has seen the EOF.
        drop(first);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut third = loop {
            match Client::connect(addr) {
                Ok(client) => break client,
                Err(e) if Instant::now() >= deadline => panic!("slot never freed: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        for client in [&mut second, &mut third] {
            let r = client
                .request_one(WireRequest::iterations(toy::A, 2))
                .unwrap();
            assert!(r.answer().is_some());
        }
        drop((second, third));
        server.shutdown();
    }

    #[test]
    fn client_times_out_instead_of_hanging_on_a_silent_server() {
        // A listener that accepts but never says hello: the old client
        // blocked forever here; the typed path must fail within the read
        // timeout.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let conn = listener.accept().map(|(s, _)| s);
            std::thread::sleep(Duration::from_secs(2));
            drop(conn);
        });
        let started = Instant::now();
        let err = Client::connect_with(
            addr,
            ClientOptions {
                connect_timeout: Some(Duration::from_secs(5)),
                read_timeout: Some(Duration::from_millis(100)),
                write_timeout: Some(Duration::from_millis(100)),
            },
        )
        .unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "must not wait out the silent server"
        );
        assert!(
            matches!(ClientError::from(err), ClientError::Timeout(_)),
            "a silent server is a typed timeout"
        );
        hold.join().unwrap();
    }

    #[test]
    fn resilient_client_reconnects_when_the_server_comes_back() {
        // Claim a port, then leave nothing listening on it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let mut rc = ResilientClient::new(
            addr,
            ClientOptions::default(),
            RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(20),
            },
        )
        .with_jitter_seed(42);
        // Dead server: the bounded retry budget is exhausted and the
        // failure surfaces typed and retryable — no infinite loop, no
        // hang.
        let err = rc
            .request_one(WireRequest::iterations(toy::A, 2))
            .unwrap_err();
        assert!(err.is_retryable(), "dead server must be retryable: {err}");
        // Server appears on the claimed port: the same client heals
        // transparently on its next call.
        let service = toy_service();
        let server = serve(
            Arc::clone(&service),
            TcpListener::bind(addr).expect("rebind the claimed port"),
        )
        .unwrap();
        assert_eq!(rc.connect().unwrap(), 8);
        let healed = rc.request_one(WireRequest::iterations(toy::A, 2)).unwrap();
        assert!(healed.answer().is_some(), "reconnect must heal: {healed:?}");
        server.shutdown();
    }

    #[test]
    fn retry_policy_backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(60),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
        assert_eq!(p.backoff(4), Duration::from_millis(60), "capped");
        assert_eq!(p.backoff(30), Duration::from_millis(60), "no overflow");
        // Jitter stays within [wait/2, wait] — never below half the
        // intended backoff, never above the cap — and actually spreads
        // (a fleet of clients must desynchronize, not march in lockstep).
        let mut rc =
            ResilientClient::new("127.0.0.1:1".parse().unwrap(), ClientOptions::default(), p)
                .with_jitter_seed(7);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..100 {
            let j = rc.jittered(Duration::from_millis(100));
            assert!(j >= Duration::from_millis(50) && j <= Duration::from_millis(100));
            distinct.insert(j.as_nanos());
        }
        assert!(
            distinct.len() > 50,
            "jitter must spread: {}",
            distinct.len()
        );
        // Same seed, same delays: reproducible tests.
        let mut a =
            ResilientClient::new("127.0.0.1:1".parse().unwrap(), ClientOptions::default(), p)
                .with_jitter_seed(11);
        let mut b =
            ResilientClient::new("127.0.0.1:2".parse().unwrap(), ClientOptions::default(), p)
                .with_jitter_seed(11);
        for _ in 0..10 {
            assert_eq!(
                a.jittered(Duration::from_millis(64)),
                b.jittered(Duration::from_millis(64))
            );
        }
    }

    #[test]
    fn engine_matches_queryengine_reference() {
        // Guard against drift between `ServingState::engine` and a
        // hand-built QueryEngine over the same pieces.
        let service = toy_service();
        let state = service.snapshot();
        let by_state = state
            .engine(*service.config())
            .query(toy::B, &StoppingCondition::iterations(2));
        let by_hand = QueryEngine::new(
            state.graph(),
            state.hubs(),
            state.store().as_ref(),
            *service.config(),
        )
        .query(toy::B, &StoppingCondition::iterations(2));
        assert_eq!(by_state.scores, by_hand.scores);
    }
}
