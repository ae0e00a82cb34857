//! Benchmark harness reproducing the FastPPV paper's evaluation (§6).
//!
//! One binary per paper exhibit lives in `src/bin/`; `run_all` runs them in
//! this order:
//!
//! | paper exhibit | binary | what it prints |
//! |---|---|---|
//! | Figs. 1–4, §4.1 bounds | `exp_toy` | the running example: tour reachabilities, hub-length partition, per-iteration estimates, Theorem 2 bounds |
//! | §6 datasets | `exp_datasets` | structural statistics of the generated graphs next to the real datasets' published ones |
//! | Figs. 5–7 | `exp_baselines` | accuracy-moderated time/space against HubRankP and MonteCarlo |
//! | Figs. 8–9 | `exp_hub_policy` | hub selection policies, online and offline |
//! | Figs. 10–11 | `exp_num_hubs` | effect of the number of hubs |
//! | Fig. 12 | `exp_iterations` | accuracy, time and φ against the Theorem 2 bound as η grows |
//! | Figs. 13–15 | `exp_scalability` | growing-graph series: online time, offline space and time |
//! | Fig. 16 | `exp_disk` | cluster-at-a-time disk-based query processing |
//! | beyond the paper | `exp_ablation` | the ε / δ / clip truncation knobs |
//! | §7 future work | `exp_dynamic` | incremental index refresh against a full rebuild |
//!
//! Serving performance (throughput, latency, update rate, per-layer time)
//! is not measured here: that is `ppvbench/`, the repository's benchmark.
//! This library holds what the exhibit binaries share:
//!
//! * [`datasets`] — the DBLP-like and LiveJournal-like default graphs (the
//!   substitution for the paper's datasets, scaled for a laptop);
//! * [`workload`] — seeded test-query sampling (uniform and Zipf-skewed),
//!   parallel ground truth, and the deterministic result-stream digest the
//!   tier-1 tests pin;
//! * [`runner`] — offline+online evaluation of FastPPV and both baselines,
//!   producing method rows (time, space, four accuracy metrics);
//! * [`configs`] — the four accuracy-moderated configurations (Fig. 5);
//! * [`table`] — fixed-width table printing with paper-vs-measured columns;
//! * [`cli`] — the tiny `--scale`/`--queries` argument parser the binaries
//!   share.

pub mod cli;
pub mod configs;
pub mod datasets;
pub mod runner;
pub mod table;
pub mod workload;

pub use datasets::{dblp, livejournal, Dataset};
pub use runner::{eval_fastppv, eval_hubrank, eval_montecarlo, FastPpvSetup, MethodRow};
pub use workload::{ground_truth, sample_queries};
