//! Two-phase publish barrier: atomically advancing the cluster epoch.
//!
//! A scattered merge is only correct if every partial came from the same
//! epoch, so an index refresh must flip all shards together. The
//! coordinator does it in two phases:
//!
//! 1. **prepare** — every shard replays the event batch onto its pinned
//!    graph, refreshes *its owned hubs* against the new graph, and
//!    stages the result at `target_epoch` without publishing. Serving
//!    continues on the old epoch throughout. Any prepare failure aborts
//!    the round on every shard — nothing was published, nothing changed.
//! 2. **commit** — every shard publishes its staged snapshot. Commits
//!    are idempotent-ish in effect: a shard that misses its commit stays
//!    one epoch behind, every pinned sub-request against it reports
//!    epoch skew, and the router degrades around it (and the health
//!    prober surfaces the lag via the stats op) until the shard is
//!    repaired — queries never silently mix epochs.

use fastppv_core::FlatIndex;
use fastppv_graph::gen::EdgeEvent;
use fastppv_server::net::{Frontend, UpdatePhase};

use crate::backend::{BackendError, LocalBackend, TcpBackend};

/// Update-coordination surface of a backend (separate from
/// [`crate::SubBackend`]: query routing works against clusters whose
/// updates are coordinated elsewhere).
pub trait UpdateBackend: Sync {
    /// Number of shards.
    fn num_shards(&self) -> usize;

    /// The shard's current serving epoch.
    fn epoch(&self, shard: usize) -> Result<u64, BackendError>;

    /// Phase one on one shard. Outer error: the shard was unreachable;
    /// inner: it refused to stage.
    fn prepare(
        &self,
        shard: usize,
        target_epoch: u64,
        events: &[EdgeEvent],
    ) -> Result<Result<(), String>, BackendError>;

    /// Phase two on one shard.
    fn commit(&self, shard: usize, target_epoch: u64) -> Result<Result<(), String>, BackendError>;

    /// Discards the shard's staged snapshot.
    fn abort(&self, shard: usize) -> Result<Result<(), String>, BackendError>;
}

impl UpdateBackend for TcpBackend {
    fn num_shards(&self) -> usize {
        crate::SubBackend::num_shards(self)
    }

    fn epoch(&self, shard: usize) -> Result<u64, BackendError> {
        self.probe(shard).map(|s| s.epoch)
    }

    fn prepare(
        &self,
        shard: usize,
        target_epoch: u64,
        events: &[EdgeEvent],
    ) -> Result<Result<(), String>, BackendError> {
        self.update_prepare(shard, target_epoch, events)
    }

    fn commit(&self, shard: usize, target_epoch: u64) -> Result<Result<(), String>, BackendError> {
        self.update_commit(shard, target_epoch)
    }

    fn abort(&self, shard: usize) -> Result<Result<(), String>, BackendError> {
        self.update_abort(shard)
    }
}

impl UpdateBackend for LocalBackend<FlatIndex> {
    fn num_shards(&self) -> usize {
        crate::SubBackend::num_shards(self)
    }

    fn epoch(&self, shard: usize) -> Result<u64, BackendError> {
        Ok(self.service(shard).epoch())
    }

    fn prepare(
        &self,
        shard: usize,
        target_epoch: u64,
        events: &[EdgeEvent],
    ) -> Result<Result<(), String>, BackendError> {
        let service = self.service(shard);
        Ok(service.update(UpdatePhase::Prepare, target_epoch, events))
    }

    fn commit(&self, shard: usize, target_epoch: u64) -> Result<Result<(), String>, BackendError> {
        Ok(self.service(shard).commit_update(target_epoch))
    }

    fn abort(&self, shard: usize) -> Result<Result<(), String>, BackendError> {
        Ok(self.service(shard).update(UpdatePhase::Abort, 0, &[]))
    }
}

/// Why a publish round failed.
#[derive(Clone, Debug)]
pub enum PublishError {
    /// A prepare failed; the round was aborted everywhere and **no shard
    /// changed epoch**.
    Prepare {
        /// The shard that failed phase one.
        shard: usize,
        /// Why.
        message: String,
    },
    /// Some commits failed after every prepare succeeded. The listed
    /// shards are one epoch behind: pinned sub-requests against them
    /// skew, so the router serves degraded (never mixed-epoch) answers
    /// until they are repaired.
    Commit {
        /// Shards stuck on the old epoch, with reasons.
        failures: Vec<(usize, String)>,
    },
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::Prepare { shard, message } => {
                write!(
                    f,
                    "prepare failed on shard {shard} (round aborted): {message}"
                )
            }
            PublishError::Commit { failures } => {
                write!(f, "commit failed on {} shard(s):", failures.len())?;
                for (shard, message) in failures {
                    write!(f, " [{shard}] {message};")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PublishError {}

/// Highest epoch any reachable shard reports (`None` when none answer).
/// Shards normally agree; a lagging shard after a partial commit reports
/// lower and is the repair target.
pub fn cluster_epoch<B: UpdateBackend>(backend: &B) -> Option<u64> {
    (0..backend.num_shards())
        .filter_map(|s| backend.epoch(s).ok())
        .max()
}

/// Phase one on every shard: stage `events` at `target_epoch`, all
/// shards in parallel (a prepare refreshes that shard's owned hubs, the
/// expensive part). If any prepare fails, the round is aborted on every
/// shard and the first failure (in shard order) is returned.
pub(crate) fn prepare_all<B: UpdateBackend>(
    backend: &B,
    target_epoch: u64,
    events: &[EdgeEvent],
) -> Result<(), PublishError> {
    let n = backend.num_shards();
    let prepared: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|s| scope.spawn(move || backend.prepare(s, target_epoch, events)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("prepare worker panicked"))
            .collect()
    });
    for (shard, outcome) in prepared.into_iter().enumerate() {
        let message = match outcome {
            Ok(Ok(())) => continue,
            Ok(Err(msg)) => msg,
            Err(e) => e.to_string(),
        };
        // Roll back best-effort: staged snapshots hold memory, and a
        // stale staging would poison the next round's prepare.
        for s in 0..n {
            let _ = backend.abort(s);
        }
        return Err(PublishError::Prepare { shard, message });
    }
    Ok(())
}

/// Phase two on every shard, in shard order: publish the snapshot staged
/// at `target_epoch`. Every shard is tried; the ones that failed are
/// listed in [`PublishError::Commit`].
pub(crate) fn commit_all<B: UpdateBackend>(
    backend: &B,
    target_epoch: u64,
) -> Result<(), PublishError> {
    let failures: Vec<(usize, String)> = (0..backend.num_shards())
        .filter_map(|shard| match backend.commit(shard, target_epoch) {
            Ok(Ok(())) => None,
            Ok(Err(msg)) => Some((shard, msg)),
            Err(e) => Some((shard, e.to_string())),
        })
        .collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(PublishError::Commit { failures })
    }
}

/// Runs one two-phase publish: prepare on every shard in parallel,
/// aborting everywhere if any prepare fails, then commit on every shard.
pub fn two_phase_publish<B: UpdateBackend>(
    backend: &B,
    target_epoch: u64,
    events: &[EdgeEvent],
) -> Result<(), PublishError> {
    prepare_all(backend, target_epoch, events)?;
    commit_all(backend, target_epoch)
}
