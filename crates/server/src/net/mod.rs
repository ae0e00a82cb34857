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
//! Three layers, each re-exported here:
//!
//! * `wire` — the socket-free codec: message types and every
//!   `encode_*` / `decode_*`, with the byte-level format in its docs;
//! * `conn` — frame I/O, the acceptor, and the one dispatch loop every
//!   front-end runs: a shard's [`QueryService`](crate::QueryService) and
//!   the router each implement [`Frontend`] and start through
//!   [`serve_with_options`];
//! * `client` — the blocking [`Client`].
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
//! than a hang.

mod client;
mod conn;
mod wire;

pub use client::*;
pub use conn::*;
pub use wire::*;

#[cfg(test)]
mod tests;
