//! The server side of a connection: frame I/O, the acceptor, and the one
//! dispatch loop both TCP front-ends run — a shard's [`QueryService`] and
//! the router (`fastppv_router::Router`). A front-end says what it
//! answers to each op ([`Frontend`]); this module decides everything
//! else once: socket timeouts, the hello frame, the frame-stall bound,
//! op dispatch, body decoding, the frame-cap fallbacks, and which
//! protocol violations close the connection.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fastppv_core::query::{expand_frontier, QueryWorkspace};
use fastppv_core::{FlatIndex, PpvStore};
use fastppv_graph::gen::{try_apply_event, EdgeEvent};
use fastppv_graph::{Graph, NodeId};

use super::wire::{
    bad_data, decode_expand_request, decode_prime0_request, decode_request_batch,
    decode_stats_request, decode_update_request, encode_expand_ok, encode_hello, encode_prime0_ok,
    encode_response_batch, encode_stats_response, encode_sub_error, encode_sub_skew,
    encode_update_response, ServerHello, SubReply, UpdatePhase, WireAnswer, WireExpand, WirePrime0,
    WireRequest, WireResponse, WireStats, MAX_FRAME_BYTES, OP_EXPAND, OP_PRIME0, OP_QUERY,
    OP_STATS, OP_UPDATE,
};
use crate::load::Admission;
use crate::service::{
    check_in_range, check_whole_store, QueryService, Request, Response, ServingState,
};

/// Concurrent connections a front-end accepts; beyond it new connections
/// are closed before the hello frame (admission control — each connection
/// gets a thread, and each in-flight batch its own scoped worker set, so
/// the cap bounds total threads).
pub const MAX_CONNECTIONS: usize = 1024;

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
    /// A zero timeout is refused at start: the OS rejects it on every
    /// socket, so the front-end would start and then drop each connection
    /// before its hello.
    fn validate(&self) -> io::Result<()> {
        let invalid = |msg| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        if self.frame_stall_timeout.is_zero() {
            return invalid("frame stall timeout must be positive");
        }
        if self.write_timeout == Some(Duration::ZERO) {
            return invalid("write timeout must be positive (use None for no limit)");
        }
        Ok(())
    }
}

/// Writes one length-prefixed frame and flushes.
pub(super) fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() <= MAX_FRAME_BYTES, "oversized outgoing frame");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary.
pub(super) fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut frame = PartialFrame::default();
    match frame.fill(r) {
        Ok(()) => Ok(Some(frame.take())),
        Err(e) if !frame.started() && e.kind() == io::ErrorKind::ConnectionAborted => Ok(None),
        Err(e) => Err(e),
    }
}

/// A frame read in as many pieces as the socket hands over: a read that
/// times out mid-frame loses nothing, and the next [`PartialFrame::fill`]
/// resumes where it stopped.
#[derive(Debug, Default)]
pub(super) struct PartialFrame {
    /// The length prefix, and how many of its bytes are in.
    head: [u8; 4],
    head_filled: usize,
    /// The payload (sized once the prefix is in), and how much of it is in.
    body: Vec<u8>,
    body_filled: usize,
}

impl PartialFrame {
    /// Reads until the frame is whole. On an error — a socket timeout
    /// included — what arrived stays put. The peer closing is an error
    /// too (`ConnectionAborted`), even at a frame boundary: a frame is
    /// due.
    pub(super) fn fill<R: Read>(&mut self, r: &mut R) -> io::Result<()> {
        while self.head_filled < 4 {
            // fppv-lint: allow(panic-freedom) -- head_filled < 4 = head.len() is the loop condition
            self.head_filled += read_some(r, &mut self.head[self.head_filled..])?;
            if self.head_filled == 4 {
                let len = u32::from_le_bytes(self.head) as usize;
                if len > MAX_FRAME_BYTES {
                    return Err(bad_data(format!("frame of {len} bytes exceeds the cap")));
                }
                self.body = vec![0; len];
                self.body_filled = 0;
            }
        }
        while self.body_filled < self.body.len() {
            // fppv-lint: allow(panic-freedom) -- body_filled < body.len() is the loop condition
            self.body_filled += read_some(r, &mut self.body[self.body_filled..])?;
        }
        Ok(())
    }

    /// Whether any byte of the frame is in.
    pub(super) fn started(&self) -> bool {
        self.head_filled > 0
    }

    /// The whole frame's payload; the buffer starts over for the next one.
    pub(super) fn take(&mut self) -> Vec<u8> {
        self.head_filled = 0;
        std::mem::take(&mut self.body)
    }
}

/// One read of at least a byte. A peer that closes is a *connection*
/// failure (`ConnectionAborted` — a crashed or restarting peer, retryable
/// on a fresh connection), never a protocol violation: the router's
/// hedging layer treats `InvalidData` as non-retryable misbehavior, and a
/// SIGKILLed shard must not be classified as that.
fn read_some<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match r.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

pub(super) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one frame from a socket whose read timeout is set to the frame
/// stall timeout. `Ok(None)` on a clean EOF at a frame boundary **or**
/// when `stop` flips while idle (server shutdown). A timeout while a
/// frame is partially received is a stall and fails the connection.
pub(super) fn read_frame_stalling<R: Read>(
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

/// What a TCP front-end answers, op by op. [`serve_with_options`] runs
/// the rest — the same loop, monomorphized, for every implementation.
pub trait Frontend: Send + Sync + 'static {
    /// Thread-name prefix of the acceptor and its connection threads.
    const NAME: &'static str = "fastppv";

    /// What each connecting client is greeted with.
    fn hello(&self) -> ServerHello;

    /// Answers one `OP_QUERY` batch: one response per request, in request
    /// order. `stop` is raised at server shutdown; in-flight work may be
    /// cancelled on it.
    fn query(&self, requests: &[WireRequest], stop: &AtomicBool) -> Vec<WireResponse>;

    /// The load picture answered to an `OP_STATS` probe.
    fn stats(&self) -> WireStats;

    /// Runs one phase of a two-phase update (`OP_UPDATE`).
    fn update(
        &self,
        phase: UpdatePhase,
        target_epoch: u64,
        events: &[EdgeEvent],
    ) -> Result<(), String>;

    /// Iteration 0 of a scattered query (`OP_PRIME0`). `None`, the
    /// default, means this front-end serves no shard sub-ops: the
    /// connection that sent one is closed.
    fn prime0(&self, _query: NodeId, _expect_epoch: Option<u64>) -> Option<SubReply<WirePrime0>> {
        None
    }

    /// One shard's slice of a scattered increment step (`OP_EXPAND`);
    /// `None` as for [`Frontend::prime0`].
    fn expand(
        &self,
        _sublist: &[(NodeId, f64)],
        _expect_epoch: Option<u64>,
    ) -> Option<SubReply<WireExpand>> {
        None
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
/// [`super::Client`] sees "server closed before sending hello"). Size
/// `options.workers` for the *expected concurrency*, not the core count
/// alone, when many simultaneous connections are the workload.
pub fn serve(
    service: Arc<QueryService<FlatIndex>>,
    listener: TcpListener,
) -> io::Result<NetServer> {
    serve_with_options(service, listener, NetOptions::default())
}

/// Starts any [`Frontend`] on `listener` with explicit
/// connection-robustness knobs: the one entry point of both front-ends.
/// A zero timeout in `options` is an `InvalidInput` error here, before
/// anything is spawned.
pub fn serve_with_options<F: Frontend>(
    frontend: Arc<F>,
    listener: TcpListener,
    options: NetOptions,
) -> io::Result<NetServer> {
    spawn_acceptor(frontend, listener, options, MAX_CONNECTIONS)
}

pub(super) fn spawn_acceptor<F: Frontend>(
    frontend: Arc<F>,
    listener: TcpListener,
    options: NetOptions,
    max_connections: usize,
) -> io::Result<NetServer> {
    options.validate()?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let active = Arc::new(AtomicUsize::new(0));
    let acceptor = std::thread::Builder::new()
        .name(format!("{}-accept", F::NAME))
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
                let frontend = Arc::clone(&frontend);
                let stop = Arc::clone(&stop_flag);
                // If the spawn itself fails, the closure — and the guard
                // inside it — is dropped here, releasing the slot.
                let _ = std::thread::Builder::new()
                    .name(format!("{}-conn", F::NAME))
                    .spawn(move || {
                        let _slot = slot;
                        // A protocol error or broken pipe closes just this
                        // connection; the acceptor keeps serving others.
                        let _ = handle_connection(&*frontend, stream, &stop, options);
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

/// The dispatch loop: hello, then one response frame per request frame
/// until EOF or shutdown. A malformed frame, an unknown op, or a sub-op
/// the front-end does not serve is an error that closes the connection.
fn handle_connection<F: Frontend>(
    frontend: &F,
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
    write_frame(&mut writer, &encode_hello(&frontend.hello()))?;
    let mut scratch = Vec::new();
    while let Some(payload) = read_frame_stalling(&mut reader, stop, &mut scratch)? {
        let Some((&op, body)) = payload.split_first() else {
            return Err(bad_data("empty frame (missing op byte)"));
        };
        let not_served = || bad_data(format!("op byte {op} is not served by this front-end"));
        let response = match op {
            OP_QUERY => {
                let requests = decode_request_batch(body)?;
                encode_query_response(&frontend.query(&requests, stop))
            }
            OP_STATS => {
                decode_stats_request(body)?;
                encode_stats_response(&frontend.stats())
            }
            OP_PRIME0 => {
                let (id, expect_epoch, query) = decode_prime0_request(body)?;
                let answer = frontend
                    .prime0(query, expect_epoch)
                    .ok_or_else(not_served)?;
                encode_sub_response(id, answer, encode_prime0_ok)
            }
            OP_EXPAND => {
                let (id, expect_epoch, sublist) = decode_expand_request(body)?;
                let answer = frontend
                    .expand(&sublist, expect_epoch)
                    .ok_or_else(not_served)?;
                encode_sub_response(id, answer, encode_expand_ok)
            }
            OP_UPDATE => {
                let (phase, target_epoch, events) = decode_update_request(body)?;
                encode_update_response(&frontend.update(phase, target_epoch, &events))
            }
            tag => return Err(bad_data(format!("unknown op byte {tag}"))),
        };
        write_frame(&mut writer, &response)?;
    }
    Ok(())
}

/// A well-formed batch whose *answers* (full score vectors on a big
/// graph) overflow the frame cap degrades into per-request errors —
/// bounded by `MAX_BATCH_REQUESTS`, so that frame always fits — instead
/// of killing the connection.
fn encode_query_response(responses: &[WireResponse]) -> Vec<u8> {
    let encoded = encode_response_batch(responses);
    if encoded.len() <= MAX_FRAME_BYTES {
        return encoded;
    }
    let errors: Vec<WireResponse> = responses
        .iter()
        .map(|r| match r {
            WireResponse::Answer(a) => WireResponse::Error(format!(
                "response batch exceeds the {} MiB frame cap; request \
                 fewer entries (top_k) or smaller batches (answer for \
                 node {} alone held {} entries)",
                MAX_FRAME_BYTES >> 20,
                a.query,
                a.entries.len()
            )),
            other => other.clone(),
        })
        .collect();
    encode_response_batch(&errors)
}

/// A sub-op's response: the encoded answer or refusal. One whose entries
/// overflow the frame cap degrades into an in-protocol error (the router
/// treats it like any per-shard refusal) instead of an oversized-frame
/// panic killing the connection.
fn encode_sub_response<T>(
    request_id: u64,
    reply: SubReply<T>,
    encode_ok: fn(u64, &T) -> Vec<u8>,
) -> Vec<u8> {
    let encoded = match reply {
        SubReply::Ok(answer) => encode_ok(request_id, &answer),
        SubReply::EpochSkew { current } => encode_sub_skew(request_id, current),
        SubReply::Error(msg) => encode_sub_error(request_id, &msg),
    };
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

/// A shard: the whole protocol, with admission, per-request range checks
/// and shutdown cancellation on `OP_QUERY`. A shard holding a slice of
/// the index answers every `OP_QUERY` request with a typed error naming
/// the router: only the scatter sub-ops are its to serve.
impl Frontend for QueryService<FlatIndex> {
    fn hello(&self) -> ServerHello {
        let state = self.snapshot();
        ServerHello {
            num_nodes: state.graph().num_nodes() as u64,
            epoch: state.epoch(),
            alpha: self.config().alpha,
            delta: self.config().delta,
        }
    }

    fn query(&self, requests: &[WireRequest], stop: &AtomicBool) -> Vec<WireResponse> {
        let received = Instant::now();
        // Pin one snapshot for the whole frame: ids are validated against
        // the exact graph the batch will run on, so a concurrent update
        // cannot invalidate the check mid-flight.
        let state = self.snapshot();
        if let Err(e) = check_whole_store(&state) {
            return vec![WireResponse::Error(e); requests.len()];
        }
        let mut out = Vec::with_capacity(requests.len());
        let mut batch: Vec<(Request, usize)> = Vec::with_capacity(requests.len());
        let mut batch_slots: Vec<usize> = Vec::with_capacity(requests.len());
        for (i, wr) in requests.iter().enumerate() {
            // Shed *before* queueing: a request past the high-water mark
            // gets its typed rejection immediately instead of adding to
            // the very backlog that triggered it.
            if let Admission::Shed { retry_after } = self.admission() {
                self.note_shed();
                let retry_after_ms = (retry_after.as_millis() as u32).max(1);
                out.push(WireResponse::Overloaded { retry_after_ms });
                continue;
            }
            out.push(match check_in_range(state.graph(), wr.query) {
                Err(e) => WireResponse::Error(e),
                Ok(()) => {
                    batch.push((to_request(wr, received), wr.top_k as usize));
                    batch_slots.push(i);
                    // A placeholder (no allocation) until the answer lands.
                    WireResponse::Error(String::new())
                }
            });
        }
        // The server stop flag doubles as the cancellation token: shutdown
        // stops in-flight queries at their next increment boundary (each
        // returns its partial answer with its current certified φ).
        let responses = self.process_batch_on_cancel(&state, batch, Some(stop));
        for (&slot, response) in batch_slots.iter().zip(&responses) {
            out[slot] = WireResponse::Answer(answer_of(response, requests[slot].top_k));
        }
        out
    }

    fn stats(&self) -> WireStats {
        WireStats::from_load(self.load_stats(), self.epoch())
    }

    fn update(
        &self,
        phase: UpdatePhase,
        target_epoch: u64,
        events: &[EdgeEvent],
    ) -> Result<(), String> {
        match phase {
            UpdatePhase::Prepare => prepare_from_events(self, target_epoch, events),
            UpdatePhase::Commit => self.commit_update(target_epoch),
            UpdatePhase::Abort => {
                self.abort_update();
                Ok(())
            }
        }
    }

    fn prime0(&self, query: NodeId, expect_epoch: Option<u64>) -> Option<SubReply<WirePrime0>> {
        Some(QueryService::prime0(self, query, expect_epoch))
    }

    fn expand(
        &self,
        sublist: &[(NodeId, f64)],
        expect_epoch: Option<u64>,
    ) -> Option<SubReply<WireExpand>> {
        Some(QueryService::expand(self, sublist, expect_epoch))
    }
}

/// The scatter sub-ops, computed straight into their wire replies — for a
/// remote router through `OP_PRIME0` / `OP_EXPAND`, and for an in-process
/// one directly. Neither is cached: the router caches the answers they
/// merge into.
impl<S: PpvStore + Send + Sync> QueryService<S> {
    /// Iteration 0 of a scattered query: the prime PPV of `query` from this
    /// shard's store (or computed on the fly for a non-hub `query`), split
    /// into entries + border-hub frontier for the router to fan out.
    ///
    /// `expect_epoch` (`None` = any) pins the merge to one graph version:
    /// a shard serving a different epoch answers [`SubReply::EpochSkew`]
    /// instead of contributing mixed-version mass.
    pub fn prime0(&self, query: NodeId, expect_epoch: Option<u64>) -> SubReply<WirePrime0> {
        self.sub_request(
            expect_epoch,
            |graph| check_in_range(graph, query),
            |state, ws| {
                let (entries, frontier) = ws.prime0_parts(
                    state.graph(),
                    state.hubs(),
                    state.store().as_ref(),
                    query,
                    self.config(),
                );
                Ok(WirePrime0 {
                    epoch: state.epoch(),
                    entries,
                    frontier,
                })
            },
        )
    }

    /// One shard's share of a scattered increment step: expands the border
    /// hubs in `sublist` (this shard's slice of the router's frontier,
    /// strictly ascending by hub id, masses as merged so far) against the
    /// stored prime PPVs. The partial entries / frontier / increment mass
    /// are merged router-side with the other shards'. A sublist out of
    /// order, with a repeated hub, an out-of-range id, a non-finite or
    /// negative mass, or a hub this shard does not hold is refused with
    /// [`SubReply::Error`].
    pub fn expand(
        &self,
        sublist: &[(NodeId, f64)],
        expect_epoch: Option<u64>,
    ) -> SubReply<WireExpand> {
        self.sub_request(
            expect_epoch,
            |graph| check_sublist(graph, sublist),
            |state, ws| {
                let outcome = expand_frontier(
                    sublist,
                    state.hubs(),
                    state.store().as_ref(),
                    self.config(),
                    ws.increment_scratch(),
                )
                .map_err(|hub| format!("hub {hub} not in this shard's store"))?;
                Ok(WireExpand {
                    epoch: state.epoch(),
                    entries: outcome.entries.into_entries(),
                    frontier: outcome.frontier,
                    increment_mass: outcome.increment_mass,
                    hubs_expanded: outcome.hubs_expanded as u32,
                })
            },
        )
    }

    /// One sub-request on the snapshot it pins: the epoch pin, then the
    /// input check, then — counted in flight, on a pooled workspace — the
    /// computation, whose latency is recorded once it answers. A refused
    /// sub-request is not served work and is not recorded, as `execute`
    /// records only answers.
    fn sub_request<T>(
        &self,
        expect_epoch: Option<u64>,
        check: impl FnOnce(&Graph) -> Result<(), String>,
        compute: impl FnOnce(&ServingState<S>, &mut QueryWorkspace) -> Result<T, String>,
    ) -> SubReply<T> {
        let state = self.snapshot();
        if expect_epoch.is_some_and(|expected| expected != state.epoch()) {
            return SubReply::EpochSkew {
                current: state.epoch(),
            };
        }
        if let Err(e) = check(state.graph()) {
            return SubReply::Error(format!("bad sub-query: {e}"));
        }
        let started = Instant::now();
        let _in_flight = self.load.enter(1);
        let mut ws = self.take_workspace(state.graph().num_nodes());
        let computed = compute(&state, &mut ws);
        self.recycle_workspace(ws);
        match computed {
            Ok(answer) => {
                self.load.record(started.elapsed());
                SubReply::Ok(answer)
            }
            Err(e) => SubReply::Error(e),
        }
    }
}

/// The input rule of `OP_EXPAND`: hub ids in range and strictly ascending
/// (the order the router's merge expands in; a repeat would expand a hub
/// twice), masses finite and non-negative.
fn check_sublist(graph: &Graph, sublist: &[(NodeId, f64)]) -> Result<(), String> {
    let mut previous: Option<NodeId> = None;
    for &(hub, mass) in sublist {
        check_in_range(graph, hub)?;
        if let Some(before) = previous.filter(|&before| before >= hub) {
            return Err(format!(
                "frontier hub {hub} follows hub {before}: hub ids must be strictly ascending"
            ));
        }
        if !mass.is_finite() || mass < 0.0 {
            return Err(format!(
                "non-finite or negative frontier mass {mass} at hub {hub}"
            ));
        }
        previous = Some(hub);
    }
    Ok(())
}

/// The service request a wire request asks for; its relative deadline
/// counts from `received`.
fn to_request(wr: &WireRequest, received: Instant) -> Request {
    Request {
        query: wr.query,
        stop: wr.stop.condition(),
        deadline: wr
            .deadline_ms
            .map(|ms| received + Duration::from_millis(ms as u64)),
    }
}

/// The wire answer to a request asking for `top_k` entries. For `top_k > 0`
/// the response already holds only those entries (in id order), so this
/// only puts them in rank order.
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

/// Phase-one handler: replays the event batch onto the pinned snapshot's
/// graph (every shard holds the full graph; only the PPV store is sliced)
/// and stages the shard-local refresh at `target_epoch`. Each event is
/// checked against the graph the batch has built so far: an endpoint out
/// of range, or a delete of an edge absent at that point of the batch,
/// refuses the whole batch and stages nothing.
fn prepare_from_events(
    service: &QueryService<FlatIndex>,
    target_epoch: u64,
    events: &[EdgeEvent],
) -> Result<(), String> {
    let state = service.snapshot();
    let mut graph = Graph::clone(state.graph());
    for (i, e) in events.iter().enumerate() {
        graph = try_apply_event(&graph, e).map_err(|err| format!("event {i}: {err}"))?;
    }
    let mut tails: Vec<NodeId> = events.iter().map(|e| e.tail).collect();
    tails.sort_unstable();
    tails.dedup();
    service
        .prepare_update(target_epoch, graph, &tails)
        .map(|_| ())
}
