//! The blocking client: one connection, one outstanding request frame
//! at a time. Benchmarks, the CLI and the router's shard backends speak the
//! protocol through it.

use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use fastppv_graph::gen::EdgeEvent;
use fastppv_graph::NodeId;

use super::conn::{is_timeout, read_frame, write_frame, PartialFrame};
use super::wire::{
    bad_data, decode_expand_response, decode_hello, decode_prime0_response, decode_response_batch,
    decode_stats_response, decode_update_response, encode_expand_request, encode_prime0_request,
    encode_request_batch, encode_stats_request, encode_update_request, ServerHello, SubReply,
    UpdatePhase, WireExpand, WirePrime0, WireRequest, WireResponse, WireStats, MAX_BATCH_REQUESTS,
};

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

/// What went wrong talking to a fastppv server, split by what the caller
/// should *do* about it: back off and retry ([`ClientError::Timeout`],
/// [`ClientError::Disconnected`], [`ClientError::Io`] — the connection is
/// gone or wedged, a reconnect may succeed) versus give up
/// ([`ClientError::Protocol`] — retrying malformed traffic reproduces
/// it).
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

/// A blocking client for the fastppv TCP protocol (one connection, one
/// outstanding request frame at a time).
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    hello: ServerHello,
    /// Monotonic per-connection request-id source for sub-ops.
    next_request_id: u64,
    /// The socket read timeout [`Client::wait_reply`] restores.
    read_timeout: Option<Duration>,
    /// The reply frame being read, kept across a timed-out
    /// [`Client::wait_reply`].
    reply: PartialFrame,
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
            read_timeout: options.read_timeout,
            reply: PartialFrame::default(),
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
        let payload = self.round_trip(&encode_request_batch(requests))?;
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
        self.read_reply()
    }

    fn read_reply(&mut self) -> io::Result<Vec<u8>> {
        self.reply.fill(&mut self.reader)?;
        Ok(self.reply.take())
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
        let id = self.send_prime0(query, expect_epoch)?;
        self.recv_prime0(id)
    }

    /// The sending half of [`Client::prime0`]: writes the request and
    /// returns its id, which [`Client::recv_prime0`] validates.
    pub fn send_prime0(&mut self, query: NodeId, expect_epoch: Option<u64>) -> io::Result<u64> {
        let id = self.take_request_id();
        write_frame(
            &mut self.writer,
            &encode_prime0_request(id, expect_epoch, query),
        )?;
        Ok(id)
    }

    /// The receiving half of [`Client::prime0`]: reads the reply to the
    /// request `id`.
    pub fn recv_prime0(&mut self, id: u64) -> io::Result<SubReply<WirePrime0>> {
        decode_prime0_response(&self.read_reply()?, id)
    }

    /// Asks for one shard's slice of one increment step: `sublist` holds
    /// the frontier hubs this shard owns (ascending id) with their merged
    /// masses.
    pub fn expand(
        &mut self,
        sublist: &[(NodeId, f64)],
        expect_epoch: Option<u64>,
    ) -> io::Result<SubReply<WireExpand>> {
        let id = self.send_expand(sublist, expect_epoch)?;
        self.recv_expand(id)
    }

    /// The sending half of [`Client::expand`]: writes the request and
    /// returns its id, which [`Client::recv_expand`] validates.
    pub fn send_expand(
        &mut self,
        sublist: &[(NodeId, f64)],
        expect_epoch: Option<u64>,
    ) -> io::Result<u64> {
        let id = self.take_request_id();
        write_frame(
            &mut self.writer,
            &encode_expand_request(id, expect_epoch, sublist),
        )?;
        Ok(id)
    }

    /// The receiving half of [`Client::expand`]: reads the reply to the
    /// request `id`.
    pub fn recv_expand(&mut self, id: u64) -> io::Result<SubReply<WireExpand>> {
        decode_expand_response(&self.read_reply()?, id)
    }

    /// Reads the reply to the request in flight until it is whole or
    /// `deadline` passes, whichever comes first — a reply that stalls
    /// mid-frame holds the caller no longer than one that never starts.
    /// Nothing read is lost: the reply stays buffered for the `recv_*`
    /// call that decodes it, and after [`ReplyWait::Pending`] that call
    /// finishes reading it under the client's own read timeout.
    pub fn wait_reply(&mut self, deadline: Instant) -> io::Result<ReplyWait> {
        self.reader.get_ref().set_nonblocking(true)?;
        let queued = self.reply.fill(&mut self.reader);
        self.reader.get_ref().set_nonblocking(false)?;
        match queued {
            Ok(()) => return Ok(ReplyWait::Queued),
            Err(e) if !is_timeout(&e) => return Err(e),
            Err(_) => {}
        }
        let waited = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break Ok(ReplyWait::Pending);
            }
            if let Err(e) = self.reader.get_ref().set_read_timeout(Some(left)) {
                break Err(e);
            }
            match self.reply.fill(&mut self.reader) {
                Ok(()) => break Ok(ReplyWait::Arrived),
                Err(e) if is_timeout(&e) => {}
                Err(e) => break Err(e),
            }
        };
        self.reader.get_ref().set_read_timeout(self.read_timeout)?;
        waited
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

/// How [`Client::wait_reply`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyWait {
    /// The whole reply was already queued when the wait began, so when
    /// it arrived is unknown.
    Queued,
    /// The reply finished arriving during the wait.
    Arrived,
    /// The deadline passed first. What did arrive stays buffered, so the
    /// connection is still in sync.
    Pending,
}
