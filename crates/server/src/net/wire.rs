//! The socket-free codec of the FastPPV wire protocol: the message types
//! and every `encode_*` / `decode_*` both sides of a connection use.
//! Nothing here touches a socket or a clock, so every decoder can be fed
//! arbitrary bytes in a test; a malformed payload is an `InvalidData`
//! error, never a panic.
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
//! queueing. See [`crate::OverloadOptions`].
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

use std::io;
use std::time::Duration;

use fastppv_core::query::StoppingCondition;
use fastppv_graph::gen::EdgeEvent;
use fastppv_graph::NodeId;

use crate::load::LoadStats;

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
/// killing the connection (see [`super::serve`]).
pub const MAX_BATCH_REQUESTS: usize = 1 << 16;
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

impl WireStop {
    /// The engine's stopping condition for this stop.
    pub fn condition(self) -> StoppingCondition {
        match self {
            WireStop::Iterations(eta) => StoppingCondition::iterations(eta as usize),
            WireStop::L1Error(target) => StoppingCondition::l1_error(target),
        }
    }
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

pub(super) fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
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

pub(super) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
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

/// Encodes the server hello frame.
pub(super) fn encode_hello(hello: &ServerHello) -> Vec<u8> {
    let mut buf = Vec::with_capacity(38);
    put_u32(&mut buf, MAGIC);
    buf.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    put_u64(&mut buf, hello.num_nodes);
    put_u64(&mut buf, hello.epoch);
    put_f64(&mut buf, hello.alpha);
    put_f64(&mut buf, hello.delta);
    buf
}

pub(super) fn decode_hello(payload: &[u8]) -> io::Result<ServerHello> {
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

/// Encodes an `OP_QUERY` frame (op byte included, like every request
/// encoder).
pub(super) fn encode_request_batch(requests: &[WireRequest]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(5 + requests.len() * 17);
    buf.push(OP_QUERY);
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

/// Decodes an `OP_QUERY` body into its requests.
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

/// Encodes a response batch.
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

pub(super) fn decode_response_batch(payload: &[u8]) -> io::Result<Vec<WireResponse>> {
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

impl WireStats {
    /// The stats frame of a front-end whose ledger reads `load` at `epoch`.
    pub fn from_load(load: LoadStats, epoch: u64) -> Self {
        WireStats {
            in_flight: load.in_flight as u64,
            recent_p99: load.recent_p99,
            degraded: load.degraded,
            shed: load.shed,
            epoch,
        }
    }
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

pub(super) fn encode_stats_request() -> Vec<u8> {
    vec![OP_STATS]
}

/// Checks that an `OP_STATS` body is empty, as the protocol says.
pub(super) fn decode_stats_request(body: &[u8]) -> io::Result<()> {
    Payload::new(body).finish()
}

/// Encodes an `OP_STATS` response.
pub(super) fn encode_stats_response(s: &WireStats) -> Vec<u8> {
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

pub(super) fn decode_stats_response(payload: &[u8]) -> io::Result<WireStats> {
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

pub(super) fn encode_prime0_request(
    request_id: u64,
    expect_epoch: Option<u64>,
    query: NodeId,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(21);
    buf.push(OP_PRIME0);
    put_u64(&mut buf, request_id);
    put_u64(&mut buf, expect_epoch.unwrap_or(EPOCH_ANY));
    put_u32(&mut buf, query);
    buf
}

/// A decoded `OP_PRIME0` / `OP_EXPAND` request: the request id to echo,
/// the epoch pin (`None` = any), and the query node or frontier sublist.
pub(super) type SubRequest<T> = (u64, Option<u64>, T);

pub(super) fn decode_prime0_request(body: &[u8]) -> io::Result<SubRequest<NodeId>> {
    let mut p = Payload::new(body);
    let request_id = p.u64()?;
    let expect_epoch = p.u64()?;
    let query = p.u32()?;
    p.finish()?;
    Ok((request_id, epoch_pin(expect_epoch), query))
}

pub(super) fn encode_expand_request(
    request_id: u64,
    expect_epoch: Option<u64>,
    sublist: &[(NodeId, f64)],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(21 + sublist.len() * 12);
    buf.push(OP_EXPAND);
    put_u64(&mut buf, request_id);
    put_u64(&mut buf, expect_epoch.unwrap_or(EPOCH_ANY));
    put_entry_list(&mut buf, sublist);
    buf
}

pub(super) fn decode_expand_request(body: &[u8]) -> io::Result<SubRequest<Vec<(NodeId, f64)>>> {
    let mut p = Payload::new(body);
    let request_id = p.u64()?;
    let expect_epoch = p.u64()?;
    let sublist = take_entry_list(&mut p, body.len())?;
    p.finish()?;
    Ok((request_id, epoch_pin(expect_epoch), sublist))
}

fn epoch_pin(expect_epoch: u64) -> Option<u64> {
    (expect_epoch != EPOCH_ANY).then_some(expect_epoch)
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

pub(super) fn encode_sub_skew(request_id: u64, current: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(17);
    encode_sub_head(&mut buf, request_id, SUB_SKEW);
    put_u64(&mut buf, current);
    buf
}

pub(super) fn encode_sub_error(request_id: u64, msg: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(13 + msg.len());
    encode_sub_head(&mut buf, request_id, SUB_ERROR);
    put_u32(&mut buf, msg.len() as u32);
    buf.extend_from_slice(msg.as_bytes());
    buf
}

pub(super) fn encode_prime0_ok(request_id: u64, answer: &WirePrime0) -> Vec<u8> {
    let mut buf = Vec::with_capacity(25 + (answer.entries.len() + answer.frontier.len()) * 12 + 8);
    encode_sub_head(&mut buf, request_id, SUB_OK);
    put_u64(&mut buf, answer.epoch);
    put_entry_list(&mut buf, &answer.entries);
    put_entry_list(&mut buf, &answer.frontier);
    buf
}

pub(super) fn encode_expand_ok(request_id: u64, answer: &WireExpand) -> Vec<u8> {
    let mut buf = Vec::with_capacity(37 + (answer.entries.len() + answer.frontier.len()) * 12 + 8);
    encode_sub_head(&mut buf, request_id, SUB_OK);
    put_u64(&mut buf, answer.epoch);
    put_entry_list(&mut buf, &answer.entries);
    put_entry_list(&mut buf, &answer.frontier);
    put_f64(&mut buf, answer.increment_mass);
    put_u32(&mut buf, answer.hubs_expanded);
    buf
}

/// Decodes a sub-response, validating the echoed request id — a
/// response surviving from a previous (hedged, timed-out, desynced)
/// request on the same connection can never be credited to this one.
/// On `SUB_OK`, `body` reads the typed answer that follows the head.
fn decode_sub_response<T>(
    payload: &[u8],
    expect_request_id: u64,
    body: impl FnOnce(&mut Payload<'_>) -> io::Result<T>,
) -> io::Result<SubReply<T>> {
    let mut p = Payload::new(payload);
    let request_id = p.u64()?;
    if request_id != expect_request_id {
        return Err(bad_data(format!(
            "response for request {request_id}, expected {expect_request_id}"
        )));
    }
    let reply = match p.u8()? {
        SUB_OK => SubReply::Ok(body(&mut p)?),
        SUB_SKEW => SubReply::EpochSkew { current: p.u64()? },
        SUB_ERROR => {
            let len = p.u32()? as usize;
            let msg = std::str::from_utf8(p.take(len)?)
                .map_err(|_| bad_data("error message is not UTF-8"))?;
            SubReply::Error(msg.to_string())
        }
        tag => return Err(bad_data(format!("unknown sub-response status {tag}"))),
    };
    p.finish()?;
    Ok(reply)
}

pub(super) fn decode_prime0_response(
    payload: &[u8],
    request_id: u64,
) -> io::Result<SubReply<WirePrime0>> {
    decode_sub_response(payload, request_id, |p| {
        Ok(WirePrime0 {
            epoch: p.u64()?,
            entries: take_entry_list(p, payload.len())?,
            frontier: take_entry_list(p, payload.len())?,
        })
    })
}

pub(super) fn decode_expand_response(
    payload: &[u8],
    request_id: u64,
) -> io::Result<SubReply<WireExpand>> {
    decode_sub_response(payload, request_id, |p| {
        Ok(WireExpand {
            epoch: p.u64()?,
            entries: take_entry_list(p, payload.len())?,
            frontier: take_entry_list(p, payload.len())?,
            increment_mass: p.f64()?,
            hubs_expanded: p.u32()?,
        })
    })
}

pub(super) fn encode_update_request(
    phase: UpdatePhase,
    target_epoch: u64,
    events: &[EdgeEvent],
) -> Vec<u8> {
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
/// prepare) event batch.
pub(super) fn decode_update_request(body: &[u8]) -> io::Result<(UpdatePhase, u64, Vec<EdgeEvent>)> {
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

/// Encodes an `OP_UPDATE` response.
pub(super) fn encode_update_response(result: &Result<(), String>) -> Vec<u8> {
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

pub(super) fn decode_update_response(payload: &[u8]) -> io::Result<Result<(), String>> {
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
