//! # FastPPV router — fault-tolerant scatter/gather over sharded indexes
//!
//! The paper's online phase (§5.2) assembles a query's answer as
//! `prime PPV + Σ increments`, where each increment expands the current
//! border hubs against the prime-PPV index. That sum is associative over
//! *which store held each hub's prime PPV* — so the index can be sliced
//! across shards by hub ownership ([`fastppv_cluster::ShardMap`]) and the
//! increment reassembled by a stateless front-end:
//!
//! * **scatter** — iteration 0 comes from one shard
//!   ([`fastppv_server::QueryService::prime0`]); each later iteration
//!   partitions the δ-filtered frontier by hub owner and sends every shard
//!   only the sublist it owns (`OP_EXPAND`);
//! * **gather** — per-shard partial entries, frontier contributions, and
//!   increment mass are merged in ascending shard order, reproducing the
//!   single-process [`fastppv_core`] iteration up to floating-point
//!   reassociation (the exactness oracle in `tests/` pins ≤ 1e-12);
//! * **certify** — the covered-mass ledger is summed router-side, so
//!   `φ = (1 − covered)⁺` stays the paper's exact self-certifying L1
//!   bound *even when shards are missing*: an unexpanded sublist simply
//!   never grows `covered`, inflating φ by exactly the unconverted border
//!   mass. Degraded answers are true answers with honest error bars.
//!
//! Robustness around that core:
//!
//! * a per-shard **health state machine** ([`health`]) — Up → Suspect →
//!   Down on consecutive failures, with a circuit breaker and capped
//!   exponential backoff before half-open retries, fed by both request
//!   outcomes and a background `OP_STATS` prober;
//! * **hedged sub-requests** ([`backend`]) — a scatter writes every
//!   shard's sub-request, then reads the replies, all on the caller's
//!   thread; only a straggling shard's sub-request is raced on threads,
//!   duplicated on a fresh connection after a p99-based delay; the first
//!   response wins, and per-connection request-id echo validation keeps a
//!   late loser from ever being mis-credited;
//! * **graceful degradation** ([`merge`]) — a Down shard's sublist is
//!   dropped (φ inflates to cover it) and the answer is flagged
//!   `degraded`; an accuracy target made unattainable by dead shards is
//!   shed with `Overloaded{retry_after}` instead of silently missed;
//! * a **two-phase publish barrier** ([`publish`]) — prepare the next
//!   epoch on every shard, then commit; queries pin the epoch of their
//!   iteration 0 and retry once on skew, so cross-shard merges never mix
//!   epochs.
//!
//! The TCP front-end ([`server`]) is the [`Router`] served through the
//! same accept and dispatch loop as a single `fastppv serve` process
//! (`fastppv_server::net::Frontend`) — clients connect to the router
//! unchanged.

pub mod backend;
pub mod health;
pub mod merge;
pub mod publish;
pub mod server;

pub use backend::{BackendError, LocalBackend, ProberHandle, TcpBackend, TcpBackendOptions};
pub use health::{Health, HealthBoard, HealthOptions, ShardHealth};
pub use merge::{merge_query, MergeError, MergedAnswer, RouterConfig, SubBackend};
pub use publish::{cluster_epoch, two_phase_publish, PublishError, UpdateBackend};
pub use server::{serve_router, Router, RouterOptions, RouterServer};
