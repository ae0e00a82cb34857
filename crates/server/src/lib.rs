//! # FastPPV server — concurrent query serving
//!
//! The paper's online phase (§5.2) is read-only over the graph, hub set,
//! and prime-PPV index, and after every increment the L1 error of the
//! estimate is known exactly (Eq. 6). Those two properties are what a
//! latency-budgeted service needs: one shared engine serves any number of
//! worker threads, and every request can carry its own accuracy/latency
//! contract. This crate packages that into a [`QueryService`]:
//!
//! * a **shared read-only engine** — [`fastppv_core::QueryEngine`] is
//!   `&self` at query time; workers differ only in their
//!   [`fastppv_core::QueryWorkspace`];
//! * a **fixed-size worker pool** over a **bounded submission queue**
//!   (backpressure instead of unbounded buffering), batching requests with
//!   per-request stopping conditions (iterations η / L1 target / deadline);
//! * **epoch-stamped snapshots** — the graph, hub set, and store live in
//!   one immutable [`ServingState`] behind a swap cell; queries pin a
//!   snapshot, and [`QueryService::apply_update`] (`&self`, concurrent
//!   with serving) refreshes the index against the pinned old state and
//!   publishes the next epoch while in-flight queries finish undisturbed;
//! * a **hot-PPV cache** — an [`EpochCache`] keyed by `(query, η, k)`
//!   memoizing deterministic requests as the `k` entries asked for (0 =
//!   the whole vector); every entry is stamped with its
//!   snapshot's epoch, so an update both clears the cache and rejects
//!   late inserts computed against the old state;
//! * a **load ledger** — one [`LoadTracker`] (in-flight count, degraded /
//!   shed counters, a [`LatencyWindow`] p99) behind admission and the
//!   `OP_STATS` probe, the same type the router keeps;
//! * a **TCP front-end** ([`net`]) — a length-prefixed binary protocol
//!   (`fastppv serve --listen ADDR`) with a thread-per-connection acceptor
//!   feeding the worker pool, relative-millisecond deadlines on the wire,
//!   and a blocking [`net::Client`] for drivers.
//!
//! ```
//! use std::sync::Arc;
//! use fastppv_core::{build_index, select_hubs, Config, HubPolicy};
//! use fastppv_graph::gen::barabasi_albert;
//! use fastppv_server::{QueryService, Request, ServiceOptions};
//!
//! let graph = barabasi_albert(300, 3, 42);
//! let config = Config::default();
//! let hubs = select_hubs(&graph, HubPolicy::ExpectedUtility, 20, 0);
//! let (index, _) = build_index(&graph, &hubs, &config);
//! let service = QueryService::new(
//!     Arc::new(graph),
//!     Arc::new(hubs),
//!     Arc::new(index),
//!     config,
//!     ServiceOptions { workers: 4, ..Default::default() },
//! );
//! let responses = service.process_batch(
//!     (0..20u32).map(|q| Request::iterations(q, 2)).collect(),
//! );
//! assert_eq!(responses.len(), 20);
//! assert!(responses.iter().all(|r| r.l1_error <= 0.85f64.powi(4)));
//!
//! // The same mix again is served from the hot-PPV cache.
//! let again = service.process_batch(
//!     (0..20u32).map(|q| Request::iterations(q, 2)).collect(),
//! );
//! assert!(again.iter().all(|r| r.cached));
//! ```

pub mod cache;
pub mod load;
pub mod net;
pub mod service;

pub use cache::{CacheStats, EpochCache, HeapBytes, LruCache};
pub use load::{Admission, LatencyWindow, LoadRegime, LoadStats, LoadTracker, OverloadOptions};
pub use service::{
    percentile_of_sorted, percentile_of_sorted_pair, LatencySummary, QueryService, Request,
    Response, ServiceOptions, ServingState,
};
