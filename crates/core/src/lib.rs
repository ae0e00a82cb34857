//! # FastPPV core — scheduled approximation of Personalized PageRank
//!
//! Reproduction of *Zhu, Fang, Chang, Ying. "Incremental and Accuracy-Aware
//! Personalized PageRank through Scheduled Approximation", PVLDB 6(6), 2013*.
//!
//! The Personalized PageRank Vector (PPV) of a query node `q` equals, per
//! entry, the *inverse P-distance*: the total reachability of all tours from
//! `q` to that node (paper Eq. 1–2). FastPPV partitions those tours by **hub
//! length** — the number of high-expected-utility hub nodes a tour passes
//! through — and processes partitions in order of importance:
//!
//! 1. [`hubs`] selects hubs by expected utility `EU(v) = PageRank(v)·|Out(v)|`.
//! 2. [`prime`] extracts, per node, the *prime subgraph* (the hub-free
//!    neighborhood, pruned at reachability `ε`) and computes its *prime PPV*.
//! 3. [`offline`] precomputes prime PPVs for every hub into an [`index`]
//!    — the query-independent building blocks. The serving layout, and the
//!    one index file, is the flat structure-of-arrays arena
//!    ([`index::FlatIndex`], built by [`offline::build_flat_index`]), whose
//!    reads are zero-copy borrowed views ([`index::PpvRef`]).
//! 4. [`query`] answers queries incrementally: iteration `i` assembles the
//!    tour partition `T^i` from the previous increment and the stored prime
//!    PPVs (Theorem 4), adding one increment per iteration. After each
//!    iteration the exact L1 error of the running estimate is known *without
//!    the exact PPV* (`φ(k) = 1 − ‖r̂‖₁`, Eq. 6), so the accuracy/latency
//!    trade-off is controlled at query time ([`query::StoppingCondition`]).
//! 5. [`error`] provides the exponential bound `φ(k) ≤ (1-α)^{k+2}`
//!    (Theorem 2); [`linearity`] handles multi-node queries; [`dynamic`]
//!    maintains the index under edge updates (the paper's future-work §7).
//!
//! ## The shared kernel
//!
//! Both phases funnel through one kernel: the prime-PPV computation in
//! [`prime`] (extract the hub-free neighborhood, renumber it for cache
//! locality, solve it with a worklist push). Its priority structure is a
//! monotone bucket queue over *quantized log-probabilities*
//! ([`prime::BucketQueue`]): bucket indices come from the raw IEEE-754
//! exponent/mantissa bits, the bucket width is matched to the per-step
//! decay `1-α` so pops stay exact despite quantization, and everything
//! downstream (interior set, best probabilities, degree-ordered local
//! numbering) is independent of pop order — so results are deterministic
//! and bit-identical across runs, thread counts, and platforms. Stored
//! prime PPVs are solved to `solve_tolerance`; the one a cold non-hub
//! query computes for itself stops at a residual of `δ`, the mass its
//! increment loop discards anyway (exact when `δ = 0`). See the [`prime`]
//! module docs for the full argument.
//!
//! ## Concurrency
//!
//! [`QueryEngine`] is immutable at query time: every query method takes
//! `&self`, and per-query mutable scratch lives in a [`QueryWorkspace`]
//! (one per thread, created with [`QueryEngine::workspace`]). A single
//! engine can therefore serve many threads at once — share it by reference
//! or in an `Arc` whenever the store is `Sync`, and call
//! [`QueryEngine::query_with`] with a thread-local workspace. The
//! `fastppv-server` crate builds a worker-pooled, cache-fronted query
//! service on exactly this property.
//!
//! ## Quickstart
//!
//! ```
//! use fastppv_core::{build_index, select_hubs, Config, HubPolicy, QueryEngine};
//! use fastppv_core::query::StoppingCondition;
//! use fastppv_graph::gen::barabasi_albert;
//!
//! let graph = barabasi_albert(500, 3, 42);
//! // δ/clip = 0: no truncation, so Theorem 2 applies exactly.
//! let config = Config::default().with_delta(0.0).with_clip(0.0);
//! let hubs = select_hubs(&graph, HubPolicy::ExpectedUtility, 25, 0);
//! let (index, _stats) = build_index(&graph, &hubs, &config);
//! let engine = QueryEngine::new(&graph, &hubs, &index, config);
//! let result = engine.query(7, &StoppingCondition::iterations(2));
//! assert!(result.l1_error <= 0.85f64.powi(4)); // Theorem 2 bound φ(2)
//! assert!(result.l1_error < 0.2); // in practice well below the bound
//!
//! // Hot loops reuse one workspace instead of allocating per query:
//! let mut ws = engine.workspace();
//! let refined = engine.query_with(&mut ws, 7, &StoppingCondition::l1_error(0.05));
//! assert!(refined.l1_error <= 0.05);
//! ```

pub mod atomic_io;
pub mod autotune;
pub mod config;
pub mod dynamic;
pub mod error;
pub mod hubs;
pub mod index;
pub mod linearity;
pub(crate) mod mapfile;
pub mod offline;
pub mod prime;
pub mod protocol_consts;
pub mod query;
pub mod wal;

pub use config::Config;
pub use dynamic::{DeltaConfig, RefreshStats, Refresher};
pub use hubs::{select_hubs, select_hubs_with_pagerank, HubPolicy, HubSet};
pub use index::{FlatIndex, MemoryIndex, OpenError, PpvRef, PpvStore, PrimePpv};
pub use offline::{build_flat_index, build_index, build_index_in_order, OfflineStats};
pub use prime::{
    BucketQueue, DeltaOutcome, DeltaPush, PrimeComputer, PrimeSubgraph, RowSource, SolveWork,
};
pub use query::{
    expand_frontier, ExpandOutcome, IncrementScratch, MassList, QueryEngine, QueryResult,
    QuerySession, QueryWorkspace, ScanWork, TopKResult,
};
pub use wal::{Manifest, Wal, WalBatch};
