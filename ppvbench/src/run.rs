//! One benchmark run: three set-ups, and on the first of them the
//! count-bounded phases every workload shares — warm-up, mix, cold,
//! write — driven over loopback TCP with `net::Client`, one core at a
//! time.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use fastppv_core::query::StoppingCondition;
use fastppv_graph::gen::EdgeEvent;
use fastppv_graph::NodeId;
use fastppv_server::net::{Client, WireAnswer, WireRequest, WireResponse, WireStop};

use crate::affinity::{self, CoreCell, Pinner};
use crate::check;
use crate::deploy::{self, Deployment, Serving, Topology};
use crate::host::{self, Probes};
use crate::inputs::{self, Dataset, DatasetSpec, Rng, BLOCK};
use crate::profile;
use crate::stats;
use crate::trace::Tracer;

/// Entries every timed request asks for.
pub const TOP_K: u32 = 10;
/// The seconds the count constants below are sized for.
const BASE_SECONDS: f64 = 16.0;
/// How many times the sized event count the beside-writer's pool holds.
const BESIDE_POOL: usize = 4;

/// One of the four workloads.
#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: fn() -> DatasetSpec,
    pub topology: Topology,
    pub stop: WireStop,
    /// Whether the writer streams beside the reader (on the other core)
    /// instead of after it.
    pub writer_beside: bool,
    /// Phase lengths at `--seconds 16`, sized on the design host.
    base: Counts,
}

/// Phase lengths, as request and event counts.
#[derive(Clone, Copy, Debug)]
pub struct Counts {
    /// Untimed blocks of the stream before anything is timed.
    pub warm_blocks: usize,
    /// Untimed blocks before each round's mix part: the hub cycles of the
    /// round before left the answer cache full of hubs in cycle order,
    /// not in the stream's own steady state.
    pub rewarm_blocks: usize,
    pub mix_blocks: usize,
    pub hub_requests: usize,
    pub nonhub_requests: usize,
    pub events: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "single",
        dataset: inputs::d20,
        topology: Topology::Single,
        stop: WireStop::Iterations(2),
        writer_beside: false,
        base: Counts {
            warm_blocks: 2,
            rewarm_blocks: 1,
            mix_blocks: 12,
            hub_requests: 16_000,
            nonhub_requests: 500,
            events: 150,
        },
    },
    Workload {
        name: "routed",
        dataset: inputs::d20,
        topology: Topology::Routed,
        stop: WireStop::Iterations(2),
        writer_beside: false,
        base: Counts {
            warm_blocks: 1,
            rewarm_blocks: 1,
            mix_blocks: 8,
            hub_requests: 12_800,
            nonhub_requests: 500,
            events: 150,
        },
    },
    Workload {
        name: "update_serve",
        dataset: inputs::d20,
        topology: Topology::Single,
        stop: WireStop::Iterations(2),
        writer_beside: true,
        base: Counts {
            warm_blocks: 2,
            rewarm_blocks: 1,
            mix_blocks: 16,
            hub_requests: 16_000,
            nonhub_requests: 700,
            events: 150,
        },
    },
    Workload {
        name: "accuracy",
        dataset: inputs::d5acc,
        topology: Topology::Single,
        stop: WireStop::L1Error(0.1),
        writer_beside: false,
        base: Counts {
            warm_blocks: 1,
            // Nothing on this workload is cacheable: there is no cache
            // state to restore between rounds.
            rewarm_blocks: 0,
            mix_blocks: 8,
            hub_requests: 800,
            nonhub_requests: 240,
            events: 60,
        },
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Phase lengths for this invocation: the base counts times
    /// `seconds / 16`, times `scale` for the shrunken smoke datasets, never
    /// below what each statistic needs to exist.
    pub fn counts(&self, seconds: f64, scale: f64, hubs: usize, nonhubs: usize) -> Counts {
        let f = (seconds / BASE_SECONDS) * scale;
        let of = |base: usize, floor: usize| ((base as f64 * f).round() as usize).max(floor);
        Counts {
            warm_blocks: of(self.base.warm_blocks, 1),
            rewarm_blocks: self.base.rewarm_blocks,
            // A whole number of blocks per round, at least one.
            mix_blocks: of(self.base.mix_blocks, ROUNDS).div_ceil(ROUNDS) * ROUNDS,
            // Whole cycles through the hub list in every round, so the LRU
            // (half the hubs) has always evicted a key before it returns.
            hub_requests: of(self.base.hub_requests, 1).div_ceil(ROUNDS * hubs) * ROUNDS * hubs,
            // Two passes over the same sources.
            nonhub_requests: (of(self.base.nonhub_requests, 4 * ROUNDS) / 2).min(nonhubs) * 2,
            events: of(self.base.events, 6),
        }
    }
}

/// Command-line of one run.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
    pub out_dir: std::path::PathBuf,
}

/// A named, united number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub counts: Counts,
    pub events_committed: usize,
    pub host: (f64, f64, f64),
}

/// Tally of operations attempted and failed, with the first failure's
/// reason kept for the result file.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// An operation already counted as attempted turned out to have
    /// failed after all.
    pub fn demote(&mut self, why: impl FnOnce() -> String) {
        self.attempted -= 1;
        self.fail(why);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// The reader connection: sends one request at a time and checks every
/// answer it gets back. Anything degraded, shed or errored is a failed
/// operation.
pub struct Reader {
    client: Client,
    stop: WireStop,
    pub tally: Tally,
}

impl Reader {
    pub fn connect(addr: SocketAddr, stop: WireStop) -> Result<Reader, String> {
        Ok(Reader {
            client: Client::connect(addr).map_err(|e| format!("connect reader: {e}"))?,
            stop,
            tally: Tally::default(),
        })
    }

    /// The stopping condition every request of this reader carries.
    pub fn stop(&self) -> WireStop {
        self.stop
    }

    /// A timed top-k round trip that must be a miss. A well-formed answer
    /// served from the cache is no sample; unless `may_hit` (the first
    /// cycle after another phase, which may still find that phase's
    /// answers cached) it is also a failed operation — the cold passes are
    /// built so it cannot happen.
    pub fn ask_cold(&mut self, q: NodeId, may_hit: bool) -> Result<Option<f64>, String> {
        let (micros, answer) = self.ask(q, TOP_K)?;
        Ok(match answer {
            Some(a) if a.cached && may_hit => None,
            Some(a) if a.cached => {
                self.tally
                    .demote(|| format!("cold request for {q} was served from the cache"));
                None
            }
            Some(_) => Some(micros),
            None => None,
        })
    }

    /// The epoch the server reports over the stats op.
    pub fn epoch(&mut self) -> Result<u64, String> {
        self.client
            .stats()
            .map(|s| s.epoch)
            .map_err(|e| format!("stats: {e}"))
    }

    /// One timed round trip. `Err` only when the connection itself broke
    /// (the run cannot go on); a bad answer is tallied and returned as
    /// `None`.
    pub fn ask(&mut self, q: NodeId, top_k: u32) -> Result<(f64, Option<WireAnswer>), String> {
        let request = wire_request(q, self.stop, top_k);
        let started = Instant::now();
        let response = self.client.request_one(request);
        let micros = started.elapsed().as_secs_f64() * 1e6;
        let response = match response {
            Ok(r) => r,
            Err(e) => {
                self.tally.fail(|| format!("request for {q}: {e}"));
                return Err(format!("reader connection broke on node {q}: {e}"));
            }
        };
        match response {
            WireResponse::Answer(a) => match check::answer_shape(&a, q, top_k, self.stop) {
                Ok(()) => {
                    self.tally.ok();
                    Ok((micros, Some(a)))
                }
                Err(why) => {
                    self.tally.fail(|| format!("answer for {q}: {why}"));
                    Ok((micros, None))
                }
            },
            WireResponse::Error(e) => {
                self.tally.fail(|| format!("node {q} rejected: {e}"));
                Ok((micros, None))
            }
            WireResponse::Overloaded { retry_after_ms } => {
                self.tally
                    .fail(|| format!("node {q} shed (retry after {retry_after_ms} ms)"));
                Ok((micros, None))
            }
        }
    }
}

/// One request as every phase sends it: no deadline, `top_k` entries
/// (0 = the whole vector).
pub fn wire_request(q: NodeId, stop: WireStop, top_k: u32) -> WireRequest {
    WireRequest {
        query: q,
        stop,
        deadline_ms: None,
        top_k,
    }
}

/// The in-process form of a wire stopping condition.
pub fn stopping(stop: WireStop) -> StoppingCondition {
    match stop {
        WireStop::Iterations(eta) => StoppingCondition::iterations(eta as usize),
        WireStop::L1Error(target) => StoppingCondition::l1_error(target),
    }
}

/// Pinning mode of the phases: everything on one core, or reader and
/// writer sides on opposite cores.
#[derive(Clone, Copy, PartialEq)]
pub enum Sides {
    Together,
    Opposite,
}

/// Puts the reader side on core `core` (a swap if it is on the other)
/// with a fresh swap clock either way.
fn move_to(pinner: &mut Pinner, sides: Sides, core: usize) {
    if pinner.two_cores() && pinner.core() != core {
        match sides {
            Sides::Together => pinner.swap_all(),
            Sides::Opposite => pinner.swap_sides(),
        }
    } else {
        pinner.stay();
    }
}

pub fn swap_if_due(pinner: &mut Pinner, sides: Sides) {
    if pinner.swap_due() {
        move_to(pinner, sides, 1 - pinner.core());
    }
}

/// What the mix phase measured.
#[derive(Default)]
pub struct MixOut {
    /// Seconds per block, by the core the block ran on.
    pub block_seconds: [Vec<f64>; 2],
    pub phi_sum: f64,
    pub answers: u64,
    pub cached: u64,
}

impl MixOut {
    /// `qps`: per core, the upper quartile of per-block rates; the better
    /// core is reported.
    pub fn qps(&self) -> Option<f64> {
        let per_core = [0, 1]
            .map(|c| stats::upper_quartile(&stats::block_rates(&self.block_seconds[c], BLOCK)));
        stats::better_of(per_core[0], per_core[1], true)
    }

    /// Requests over wall-clock, every block of both cores pooled.
    pub fn qps_plain(&self) -> f64 {
        let blocks = self.block_seconds[0].len() + self.block_seconds[1].len();
        let seconds: f64 = self.block_seconds.iter().flatten().sum();
        (blocks * BLOCK) as f64 / seconds.max(1e-12)
    }

    pub fn phi_mean(&self) -> f64 {
        self.phi_sum / self.answers.max(1) as f64
    }
}

/// `blocks` more blocks of the Zipf stream, closed loop, one connection,
/// added to `out`. Cores swap (and the host probes run) on block
/// boundaries, so every block belongs to one core.
#[allow(clippy::too_many_arguments)]
pub fn mix_phase(
    reader: &mut Reader,
    data: &Dataset,
    rng: &mut Rng,
    blocks: usize,
    pinner: &mut Pinner,
    sides: Sides,
    probes: &mut Probes,
    mut tracer: Option<&mut Tracer>,
    out: &mut MixOut,
) -> Result<(), String> {
    for _ in 0..blocks {
        swap_if_due(pinner, sides);
        let core = pinner.core();
        probes.sample(core);
        let block = data.mix_block(rng);
        let started = Instant::now();
        for &q in &block {
            let sent = Instant::now();
            let (_, answer) = reader.ask(q, TOP_K)?;
            if let Some(t) = tracer.as_deref_mut() {
                // Request ids of the run's own traced requests count up
                // from 0 (the layer profile's start far above).
                let request = t.spans.len() as u32;
                t.record("client.request", None, request, sent, Instant::now());
            }
            if let Some(a) = answer {
                out.phi_sum += a.l1_error;
                out.answers += 1;
                out.cached += a.cached as u64;
            }
        }
        out.block_seconds[core].push(started.elapsed().as_secs_f64());
    }
    Ok(())
}

/// Round-trip samples of one source class, in µs, by core.
#[derive(Default)]
pub struct ClassSamples {
    pub micros: [Vec<f64>; 2],
}

impl ClassSamples {
    /// The `p`-quantile per core, better (lower) core reported.
    pub fn best_core_quantile(&self, p: f64) -> Option<f64> {
        let per_core = [0, 1].map(|c| stats::quantile(&self.micros[c], p));
        stats::better_of(per_core[0], per_core[1], false)
    }

    /// The `p`-quantile of both cores' samples pooled (the ungated views;
    /// 0 without samples).
    pub fn pooled_quantile(&self, p: f64) -> f64 {
        stats::quantile(&self.micros.concat(), p).unwrap_or(0.0)
    }

    pub fn count(&self) -> usize {
        self.micros[0].len() + self.micros[1].len()
    }

    /// One stderr line: the shape of the sample, per core.
    fn describe(&self, what: &str) {
        for c in 0..2 {
            let s = stats::sorted(&self.micros[c]);
            if s.is_empty() {
                continue;
            }
            eprintln!(
                "ppvbench:   {what} core {c}: n {} p01 {:.1} p05 {:.1} p50 {:.1} p95 {:.1} mean {:.1} us",
                s.len(),
                stats::quantile_sorted(&s, 0.01),
                stats::quantile_sorted(&s, 0.05),
                stats::quantile_sorted(&s, 0.5),
                stats::quantile_sorted(&s, 0.95),
                s.iter().sum::<f64>() / s.len() as f64,
            );
        }
    }
}

/// One hub pass: `sources` in order, every answer a miss by construction
/// (anything served from the cache is a failed operation), cores swapping
/// on the clock between requests.
fn hub_pass(
    reader: &mut Reader,
    order: &[NodeId],
    requests: usize,
    pinner: &mut Pinner,
    sides: Sides,
    out: &mut ClassSamples,
) -> Result<(), String> {
    for (i, &q) in order.iter().cycle().take(requests).enumerate() {
        swap_if_due(pinner, sides);
        // The first cycle evicts what the phase before left cached; from
        // the second on, a hit means the pass is not cold.
        if let Some(micros) = reader.ask_cold(q, i < order.len())? {
            out.micros[pinner.core()].push(micros);
        }
    }
    Ok(())
}

/// Sources per core-swap of a non-hub pass (about half a second on the
/// design host).
const NONHUB_CHUNK: usize = 64;

/// One slice of a non-hub pass: `sources[range]` in order. Which core a
/// source is asked on depends only on its position in the whole list and
/// on `first_core` — cores alternate every [`NONHUB_CHUNK`] positions —
/// so the pass that starts on the other core asks every source on the
/// core it has not been on. Round trips land in `per_source` by position
/// (`None` where the answer failed).
#[allow(clippy::too_many_arguments)]
fn nonhub_slice(
    reader: &mut Reader,
    sources: &[NodeId],
    range: std::ops::Range<usize>,
    first_core: usize,
    pinner: &mut Pinner,
    sides: Sides,
    out: &mut ClassSamples,
    per_source: &mut [Option<f64>],
) -> Result<(), String> {
    for j in range.clone() {
        if j == range.start || j % NONHUB_CHUNK == 0 {
            move_to(pinner, sides, (first_core + j / NONHUB_CHUNK) % 2);
        }
        per_source[j] = reader.ask_cold(sources[j], false)?;
        if let Some(m) = per_source[j] {
            out.micros[pinner.core()].push(m);
        }
    }
    Ok(())
}

/// What a stream of edge events measured.
#[derive(Default)]
pub struct WriteOut {
    /// Per core: events committed wholly on it, and the seconds they took.
    pub per_core: [(usize, f64); 2],
    pub committed: usize,
    pub seconds: f64,
    /// Prepare-sent → commit-acknowledged, per event, ms.
    pub event_ms: Vec<f64>,
    /// `VmHWM` at the moment the `rss_mark`-th event was acknowledged.
    pub rss_mb_at_mark: Option<f64>,
    pub tally: Tally,
}

impl WriteOut {
    /// One stderr line: the shape of the event sample.
    fn describe(&self) {
        let ms = stats::sorted(&self.event_ms);
        if !ms.is_empty() {
            eprintln!(
                "ppvbench:   events: n {} p05 {:.1} p50 {:.1} p95 {:.1} max {:.1} ms; per core (n, 1/s) {:?}",
                ms.len(),
                stats::quantile_sorted(&ms, 0.05),
                stats::quantile_sorted(&ms, 0.5),
                stats::quantile_sorted(&ms, 0.95),
                ms[ms.len() - 1],
                self.per_core
                    .map(|(n, s)| (n, (n as f64 / s.max(1e-12) * 10.0).round() / 10.0)),
            );
        }
    }

    /// `events_per_s`: per core, events over the time they took; better
    /// core reported (all events pooled when no event stayed on one core).
    pub fn events_per_s(&self) -> Option<f64> {
        let per_core = [0, 1].map(|c| {
            let (n, s) = self.per_core[c];
            (n > 0).then(|| n as f64 / s.max(1e-12))
        });
        stats::better_of(per_core[0], per_core[1], true).or_else(|| {
            (self.committed > 0).then(|| self.committed as f64 / self.seconds.max(1e-12))
        })
    }
}

/// Where the writer side is, and what happens between its events.
trait WriterSide {
    /// Index of the core the writer side is on right now.
    fn core(&self) -> usize;
    /// Runs after each committed event.
    fn between(&mut self) {}
}

/// The solo write phase: the writer is the pinned set, and swaps it on
/// the clock between events.
struct SoloSide<'a>(&'a mut Pinner);

impl WriterSide for SoloSide<'_> {
    fn core(&self) -> usize {
        self.0.core()
    }
    fn between(&mut self) {
        swap_if_due(self.0, Sides::Together);
    }
}

/// The beside-writer: always on the core the reader is not on.
struct OppositeSide(CoreCell);

impl WriterSide for OppositeSide {
    fn core(&self) -> usize {
        1 - self.0.reader()
    }
}

/// Streams `events` one at a time — `update_prepare` then `update_commit`
/// at the next epoch — over `client`, until they run out or `stop` is
/// raised. An event that straddles a core swap counts for neither core.
/// Peak RSS is read as event number `rss_mark` is acknowledged: memory
/// grows with every published event, so it is compared at a fixed count
/// of them, not at whatever count the clock allowed.
fn stream_events(
    client: &mut Client,
    events: &[EdgeEvent],
    rss_mark: usize,
    stop: Option<&AtomicBool>,
    side: &mut dyn WriterSide,
) -> WriteOut {
    let mut out = WriteOut::default();
    for (i, event) in events.iter().enumerate() {
        if stop.is_some_and(|s| s.load(Ordering::Acquire)) {
            break;
        }
        let epoch = i as u64 + 1;
        let core_before = side.core();
        let started = Instant::now();
        let result = client
            .update_prepare(epoch, std::slice::from_ref(event))
            .map_err(|e| format!("prepare: {e}"))
            .and_then(|r| r.map_err(|e| format!("prepare refused: {e}")))
            .and_then(|()| {
                client
                    .update_commit(epoch)
                    .map_err(|e| format!("commit: {e}"))
                    .and_then(|r| r.map_err(|e| format!("commit refused: {e}")))
            });
        let seconds = started.elapsed().as_secs_f64();
        if let Err(why) = result {
            // The stream is sequentially consistent: nothing after a lost
            // event can be applied honestly, so the writer stops here.
            out.tally
                .fail(|| format!("event {i} at epoch {epoch}: {why}"));
            let _ = client.update_abort();
            break;
        }
        out.tally.ok();
        out.committed += 1;
        out.seconds += seconds;
        out.event_ms.push(seconds * 1e3);
        if out.committed == rss_mark {
            out.rss_mb_at_mark = host::peak_rss_mb();
        }
        if side.core() == core_before {
            out.per_core[core_before].0 += 1;
            out.per_core[core_before].1 += seconds;
        }
        side.between();
    }
    out
}

/// The writer of `update_serve`: a thread of its own on the other core,
/// with its own `serve()` port on the same service (opened from that core,
/// so its acceptor and connection threads live there too).
pub fn writer_beside(
    service: &std::sync::Arc<fastppv_server::QueryService<fastppv_core::FlatIndex>>,
    events: &[EdgeEvent],
    rss_mark: usize,
    cpu: usize,
    cell: CoreCell,
    stop: &AtomicBool,
    ready: mpsc::Sender<()>,
) -> Result<WriteOut, String> {
    affinity::pin_current_thread(cpu);
    let server = deploy::serve_on_loopback(service)?;
    let mut client =
        Client::connect(server.local_addr()).map_err(|e| format!("connect writer: {e}"))?;
    let _ = ready.send(());
    let out = stream_events(
        &mut client,
        events,
        rss_mark,
        Some(stop),
        &mut OppositeSide(cell),
    );
    drop(client);
    server.shutdown();
    Ok(out)
}

/// Phase wall-clocks on stderr: what a run spent where, for whoever
/// sizes the count constants.
struct Laps(Instant);

impl Laps {
    fn lap(&mut self, phase: &str) {
        eprintln!(
            "ppvbench: {phase:<10} {:>8.3} s",
            self.0.elapsed().as_secs_f64()
        );
        self.0 = Instant::now();
    }
}

/// Everything the phases of one run measured.
pub struct Phases {
    pub mix: MixOut,
    pub mix_traced: Option<MixOut>,
    pub hub: ClassSamples,
    pub nonhub: ClassSamples,
    /// Per non-hub source, the faster of its two round trips (one per
    /// core), µs.
    pub nonhub_best: Vec<f64>,
    pub write: WriteOut,
    pub events: Vec<EdgeEvent>,
    pub peak_rss_mb: f64,
}

/// Rounds the read phases are cut into. Each round is a slice of every
/// read phase — re-warm, mix, hubs, non-hubs — so each gated read metric
/// draws its samples from windows spread over the whole run instead of
/// one short stretch of it: on the design host, two phases a few seconds
/// apart are disturbed independently. Even, so the two non-hub passes
/// split over whole rounds.
pub const ROUNDS: usize = 4;

/// What the read rounds measured.
struct Reads {
    mix: MixOut,
    mix_traced: Option<MixOut>,
    hub: ClassSamples,
    nonhub: ClassSamples,
    nonhub_best: Vec<f64>,
}

/// The read phases, in [`ROUNDS`] rounds of: re-warm (untimed), mix,
/// every hub cyclically, a slice of the fixed non-hub list. Each hub part
/// is whole cycles through every hub — more keys than cache entries — so
/// the LRU has always evicted a key by the time it comes round, and every
/// non-hub answer cached before it is gone when the non-hub slice starts.
/// The first half of the rounds makes the first pass over the non-hub
/// list, the second half the second pass on the opposite cores.
#[allow(clippy::too_many_arguments)]
fn read_rounds(
    reader: &mut Reader,
    data: &Dataset,
    rng: &mut Rng,
    counts: Counts,
    hub_order: &[NodeId],
    nonhub_order: &[NodeId],
    pinner: &mut Pinner,
    sides: Sides,
    probes: &mut Probes,
    mut tracer: Option<&mut Tracer>,
) -> Result<Reads, String> {
    let mut mix = MixOut::default();
    let mut mix_traced = tracer.is_some().then(MixOut::default);
    let mut hub = ClassSamples::default();
    let mut nonhub = ClassSamples::default();
    let sources = &nonhub_order[..(counts.nonhub_requests / 2).min(nonhub_order.len())];
    let mut passes = [vec![None; sources.len()], vec![None; sources.len()]];
    let first_core = pinner.core();
    let half = ROUNDS / 2;
    for round in 0..ROUNDS {
        // Rounds alternate the core they start on, so every phase is seen
        // from both.
        move_to(pinner, sides, (first_core + round) % 2);
        for _ in 0..counts.rewarm_blocks {
            for q in data.mix_block(rng) {
                reader.ask(q, TOP_K)?;
            }
        }
        let blocks = counts.mix_blocks / ROUNDS;
        mix_phase(
            reader, data, rng, blocks, pinner, sides, probes, None, &mut mix,
        )?;
        if let (Some(t), Some(out)) = (tracer.as_deref_mut(), mix_traced.as_mut()) {
            mix_phase(
                reader,
                data,
                rng,
                blocks,
                pinner,
                sides,
                probes,
                Some(t),
                out,
            )?;
        }
        hub_pass(
            reader,
            hub_order,
            counts.hub_requests / ROUNDS,
            pinner,
            sides,
            &mut hub,
        )?;
        let (pass, part) = (round / half, round % half);
        nonhub_slice(
            reader,
            sources,
            part * sources.len() / half..(part + 1) * sources.len() / half,
            (first_core + pass) % 2,
            pinner,
            sides,
            &mut nonhub,
            &mut passes[pass],
        )?;
    }
    // `nonhub_p05_us`: every source was asked once on each core; its
    // faster round trip counts.
    let nonhub_best = passes[0]
        .iter()
        .zip(&passes[1])
        .filter_map(|(x, y)| stats::better_of(*x, *y, false))
        .collect();
    Ok(Reads {
        mix,
        mix_traced,
        hub,
        nonhub,
        nonhub_best,
    })
}

/// Runs the phases against a stood-up deployment. Every client opened
/// here is closed before this returns.
#[allow(clippy::too_many_arguments)]
fn run_phases(
    args: &Args,
    data: &Dataset,
    dep: &Deployment,
    counts: Counts,
    pinner: &mut Pinner,
    probes: &mut Probes,
    tally: &mut Tally,
    tracer: Option<&mut Tracer>,
) -> Result<Phases, String> {
    let w = args.workload;
    let mut rng = Rng::new(args.seed);
    let hub_order = data.hub_order(&mut rng);
    let nonhub_order = data.nonhub_order(&mut rng);
    // The beside-writer is bounded by the reader's phases, not by the
    // list: it draws from a pool several times the sized count.
    let pool = counts.events * if w.writer_beside { BESIDE_POOL } else { 1 };
    let events = data.events(args.seed, pool);

    // Acceptors move to core 0 now; connection threads are spawned by
    // them from here on and inherit it.
    pinner.pin_all(0);
    let mut reader = Reader::connect(dep.addr(), w.stop)?;
    let mut laps = Laps(Instant::now());

    check::answers_against_exact(&mut reader, data, dep, &hub_order, &nonhub_order, tally)?;
    laps.lap("check");

    // Warm-up, untimed: the stream's own blocks, then a taste of each
    // class, so workspaces, pools and code are warm.
    for _ in 0..counts.warm_blocks {
        for q in data.mix_block(&mut rng) {
            reader.ask(q, TOP_K)?;
        }
    }
    for &q in hub_order
        .iter()
        .take(100)
        .chain(nonhub_order.iter().rev().take(8))
    {
        reader.ask(q, TOP_K)?;
    }
    laps.lap("warm-up");

    let sides = if w.writer_beside && pinner.two_cores() {
        Sides::Opposite
    } else {
        Sides::Together
    };
    let stop_writer = AtomicBool::new(false);
    let (ready_tx, ready_rx) = mpsc::channel();
    let cell = pinner.cell();
    let writer_cpu = pinner.cpu(1 - pinner.core());

    let (reads, beside) = std::thread::scope(|scope| {
        let beside = w.writer_beside.then(|| {
            let Serving::Single { service, .. } = &dep.serving else {
                unreachable!("the beside-writer runs on the single topology");
            };
            let (events, stop, mark) = (&events, &stop_writer, counts.events);
            scope.spawn(move || {
                writer_beside(service, events, mark, writer_cpu, cell, stop, ready_tx)
            })
        });
        if beside.is_some() {
            // Either the writer is streaming or its thread has already
            // failed (and dropped the sender); both end the wait.
            let _ = ready_rx.recv();
        }
        let reads = read_rounds(
            &mut reader,
            data,
            &mut rng,
            counts,
            &hub_order,
            &nonhub_order,
            pinner,
            sides,
            probes,
            tracer,
        );
        stop_writer.store(true, Ordering::Release);
        let beside = beside.map(|h| h.join().expect("writer thread panicked"));
        reads.map(|reads| (reads, beside))
    })?;
    laps.lap("reads");
    reads.hub.describe("hub");
    reads.nonhub.describe("non-hub");

    let write = match beside {
        Some(out) => out?,
        None => {
            // Solo write phase: events back to back on a second
            // connection, the reader idle.
            let mut writer =
                Client::connect(dep.addr()).map_err(|e| format!("connect writer: {e}"))?;
            stream_events(
                &mut writer,
                &events,
                counts.events,
                None,
                &mut SoloSide(pinner),
            )
        }
    };
    laps.lap("write");
    write.describe();

    // Memory grows with every published event, so the peak is the one
    // read as the sized count of events was reached (the end of a solo
    // write phase; mid-stream for the beside-writer).
    let peak_rss_mb = write
        .rss_mb_at_mark
        .or_else(host::peak_rss_mb)
        .unwrap_or(0.0);
    check::after_updates(
        &mut reader,
        data,
        dep,
        &events[..write.committed],
        args.seed,
        tally,
    )?;
    laps.lap("check");
    tally.absorb(std::mem::take(&mut reader.tally));
    Ok(Phases {
        mix: reads.mix,
        mix_traced: reads.mix_traced,
        hub: reads.hub,
        nonhub: reads.nonhub,
        nonhub_best: reads.nonhub_best,
        write,
        events,
        peak_rss_mb,
    })
}

/// The whole run.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let spec = (w.dataset)();
    let baseline_threads = affinity::thread_count();
    let mut tally = Tally::default();
    let mut setups = Vec::new();

    // Set-up 1 of 3, unpinned; the phases run on this one.
    let (data, dep, seconds) = deploy::set_up(spec, w.topology, args.scale)?;
    setups.push(seconds);
    if args.scale == 1.0 && data.digests() != spec.pinned {
        return Err(format!(
            "inputs differ from the pinned ones, refusing to measure: {} hashes to {:x?}, pinned {:x?}",
            spec.name,
            data.digests(),
            spec.pinned
        ));
    }
    let counts = w.counts(
        args.seconds,
        args.scale,
        data.hubs.len(),
        data.nonhubs.len(),
    );

    let mut probes = Probes::new();
    let mut tracer = args.trace.then(Tracer::new);
    let mut pinner = Pinner::new();
    let phases = run_phases(
        args,
        &data,
        &dep,
        counts,
        &mut pinner,
        &mut probes,
        &mut tally,
        tracer.as_mut(),
    );
    pinner.restore();
    let slicing = dep.slicing();
    let built = dep.shut_down(baseline_threads)?;
    let mut phases = phases?;
    tally.absorb(std::mem::take(&mut phases.write.tally));

    // The traced run's layer profile: fresh deployments of both
    // topologies over the same dataset and index, torn down before the
    // extra set-ups.
    let mut per_layer = Vec::new();
    if let Some(tracer) = tracer.as_mut() {
        per_layer = profile::layer_profile(
            args,
            &data,
            &built,
            &phases,
            slicing,
            &mut probes,
            tracer,
            &mut tally,
            baseline_threads,
        )?;
        std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("create out dir: {e}"))?;
        tracer
            .write(&args.out_dir.join(format!("trace-{}.json", w.name)))
            .map_err(|e| format!("write trace: {e}"))?;
    }
    drop((data, built));

    // Set-ups 2 and 3: stand up, take down, time the standing up.
    for _ in 0..2 {
        let (_, dep, seconds) = deploy::set_up(spec, w.topology, args.scale)?;
        setups.push(seconds);
        dep.shut_down(baseline_threads)?;
    }

    let need = |value: Option<f64>, what: &str| {
        value
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| format!("{what} could not be measured (no samples)"))
    };
    let end_to_end = vec![
        metric("setup_s", "s", stats::median(&setups)),
        metric(
            "peak_rss_mb",
            "MB",
            need(Some(phases.peak_rss_mb), "peak_rss_mb")?,
        ),
        metric("qps", "1/s", need(phases.mix.qps(), "qps")?),
        metric(
            "hub_p05_us",
            "us",
            need(phases.hub.best_core_quantile(0.05), "hub_p05_us")?,
        ),
        metric(
            "nonhub_p05_us",
            "us",
            need(stats::quantile(&phases.nonhub_best, 0.05), "nonhub_p05_us")?,
        ),
        metric(
            "events_per_s",
            "1/s",
            need(phases.write.events_per_s(), "events_per_s")?,
        ),
        metric(
            "phi_mean",
            "l1",
            need(Some(phases.mix.phi_mean()), "phi_mean")?,
        ),
    ];

    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure,
        end_to_end,
        per_layer,
        counts,
        events_committed: phases.write.committed,
        host: probes.summary(),
    })
}
