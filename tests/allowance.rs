//! The query-time prime-0 allowance (`crate::core::prime`, "Two families,
//! one sweep loop"): a cold non-hub query stops its own prime-PPV solve
//! once the un-pushed residual is at most `δ`. Checked here as properties
//! on random graphs — the certificate is untouched, the cost in `φ` is at
//! most `δ`, and `δ = 0` is bit-for-bit the stored family — and as counts
//! of sweeps, settles and extracted nodes, the regression guards that do
//! not read a clock.

use std::time::Instant;

use fastppv::baselines::exact::{exact_ppv, ExactOptions};
use fastppv::core::index::FlatIndex;
use fastppv::core::query::{
    run_increments, IncrementScratch, QueryEngine, QueryResult, StoppingCondition,
};
use fastppv::core::{
    build_flat_index, select_hubs, Config, HubPolicy, HubSet, PrimeComputer, SolveWork,
};
use fastppv::graph::gen::{barabasi_albert, erdos_renyi};
use fastppv::graph::{Graph, NodeId};
use proptest::prelude::*;

const DELTAS: [f64; 4] = [0.0, 5e-4, 5e-3, 5e-2];

/// The same query assembled from the *stored* kernel family: an exactly
/// solved, unclipped prime PPV of `q` handed to the shared increment loop.
fn stored_family_query(
    g: &Graph,
    hubs: &HubSet,
    index: &FlatIndex,
    config: &Config,
    q: NodeId,
    stop: &StoppingCondition,
) -> QueryResult {
    let mut pc = PrimeComputer::new(g.num_nodes());
    let (prime0, _) = pc.prime_ppv(g, hubs, q, config, 0.0);
    let mut scratch = IncrementScratch::new(g.num_nodes());
    run_increments(
        q,
        &prime0,
        hubs,
        index,
        config,
        stop,
        &mut scratch,
        Instant::now(),
    )
}

fn assert_bit_equal(online: &QueryResult, stored: &QueryResult, what: &str) {
    let bits = |r: &QueryResult| -> Vec<(NodeId, u64)> {
        let scores = r.scores.entries().iter();
        scores.map(|&(v, s)| (v, s.to_bits())).collect()
    };
    assert_eq!(
        online.l1_error.to_bits(),
        stored.l1_error.to_bits(),
        "{what}: φ"
    );
    assert_eq!(online.iterations, stored.iterations, "{what}: iterations");
    assert_eq!(bits(online), bits(stored), "{what}: scores");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn allowance_keeps_the_certificate_and_costs_at_most_delta(
        ba in any::<bool>(),
        n in 80usize..300,
        density in 2usize..5,
        seed in 0u64..1_000,
        hub_divisor in 6usize..20,
        delta_ix in 0usize..DELTAS.len(),
        source_pick in 0usize..1_000,
        stop_ix in 0usize..7,
    ) {
        let g = if ba {
            barabasi_albert(n, density, seed)
        } else {
            erdos_renyi(n, n * (density + 1), seed)
        };
        let delta = DELTAS[delta_ix];
        let config = Config::default().with_epsilon(1e-6).with_delta(delta);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, n / hub_divisor, 0);
        let (index, _) = build_flat_index(&g, &hubs, &config, 1);
        let non_hubs: Vec<NodeId> = (0..n as NodeId).filter(|&v| !hubs.is_hub(v)).collect();
        let q = non_hubs[source_pick % non_hubs.len()];
        // η ∈ 0..=3, then three φ targets.
        let stop = match stop_ix {
            eta @ 0..=3 => StoppingCondition::iterations(eta),
            i => StoppingCondition::l1_error([0.3, 0.1, 0.03][i - 4]),
        };
        let engine = QueryEngine::new(&g, &hubs, &index, config);

        // The certificate, exactly as before the allowance existed: an
        // entry-wise lower bound whose true L1 error φ bounds.
        let exact = exact_ppv(&g, q, ExactOptions { tolerance: 1e-14, ..Default::default() });
        let answer = engine.query(q, &stop);
        for &(v, s) in answer.scores.entries() {
            prop_assert!(s <= exact[v as usize] + 1e-12, "node {}: {} above exact {}", v, s, exact[v as usize]);
        }
        let true_gap = answer.scores.l1_distance_dense(&exact);
        prop_assert!(true_gap <= answer.l1_error + 1e-9, "gap {} above φ {}", true_gap, answer.l1_error);

        // What the allowance costs: the kernel leaves at most δ, so
        // iteration 0 reports at most δ more than an exact solve would.
        let mut pc = PrimeComputer::new(n);
        let (_, subgraph_nodes) = pc.prime_ppv_into(&g, &hubs, q, &config);
        let work = pc.last_solve();
        let residual_bound = delta.max(config.solve_tolerance * subgraph_nodes as f64);
        prop_assert!(work.leftover <= residual_bound, "{:?} with δ {}", work, delta);
        let phi0 = engine.query(q, &StoppingCondition::iterations(0)).l1_error;
        let stored_phi0 = stored_family_query(
            &g, &hubs, &index, &config, q, &StoppingCondition::iterations(0),
        ).l1_error;
        let cost = phi0 - stored_phi0;
        prop_assert!((-1e-12..=delta + 1e-12).contains(&cost), "iteration 0 φ {} vs stored {} at δ {}", phi0, stored_phi0, delta);

        // Inert means inert.
        if delta == 0.0 {
            let stored = stored_family_query(&g, &hubs, &index, &config, q, &stop);
            assert_bit_equal(&answer, &stored, "δ = 0");
        }
    }
}

#[test]
fn delta_zero_configs_answer_bit_for_bit_like_the_stored_family() {
    // The documented guaranteed-accuracy settings: `Config::exhaustive()`,
    // ppvbench's D5acc configuration, and the default with only δ zeroed.
    let g = barabasi_albert(400, 4, 19);
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 30, 0);
    let d5acc = Config::default()
        .with_epsilon(1e-6)
        .with_delta(0.0)
        .with_clip(0.0);
    let named = [
        ("exhaustive", Config::exhaustive()),
        ("D5acc", d5acc),
        ("default, δ = 0", Config::default().with_delta(0.0)),
    ];
    let stops = [
        StoppingCondition::iterations(0),
        StoppingCondition::iterations(2),
        StoppingCondition::l1_error(0.1),
    ];
    for (name, config) in named {
        let (index, _) = build_flat_index(&g, &hubs, &config, 2);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let mut ws = engine.workspace();
        for q in (0..400).filter(|&v| !hubs.is_hub(v)).step_by(97) {
            for stop in &stops {
                let online = engine.query_with(&mut ws, q, stop);
                let stored = stored_family_query(&g, &hubs, &index, &config, q, stop);
                assert_bit_equal(&online, &stored, &format!("{name}, source {q}"));
            }
        }
    }
}

#[test]
fn query_time_family_sweeps_less_than_half_as_often() {
    // BA-2k / 80 hubs / ε = 1e-6, every eighth non-hub source: at the
    // default δ the query-time family needs at most 10 sweeps per source
    // and under 0.45 of the stored family's in total; at δ = 0 the two
    // run the same sweeps exactly.
    let g = barabasi_albert(2000, 4, 5);
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 80, 0);
    let default_delta = Config::default().with_epsilon(1e-6);
    assert_eq!(default_delta.delta, 0.005);
    let mut pc = PrimeComputer::new(2000);
    let (mut stored, mut online, mut online_exact) = (0usize, 0usize, 0usize);
    for q in (0..2000).filter(|&v| !hubs.is_hub(v)).step_by(8) {
        pc.prime_ppv(&g, &hubs, q, &default_delta, 0.0);
        stored += pc.last_solve().sweeps;
        pc.prime_ppv_into(&g, &hubs, q, &default_delta);
        let sweeps = pc.last_solve().sweeps;
        assert!(sweeps <= 10, "source {q}: {sweeps} sweeps at δ = 0.005");
        online += sweeps;
        pc.prime_ppv_into(&g, &hubs, q, &default_delta.with_delta(0.0));
        online_exact += pc.last_solve().sweeps;
    }
    assert!(
        online * 100 <= stored * 45,
        "query-time family swept {online} times, stored family {stored}"
    );
    assert_eq!(
        online_exact, stored,
        "δ = 0 must sweep like the stored family"
    );
}

#[test]
fn solve_work_and_subgraph_sizes_are_pinned() {
    // BA-2k / 80 hubs / ε = 1e-6 again: the stored family over every hub,
    // the query-time family (default δ) over the first 64 non-hubs. The
    // sweep order — source, then descending degree, ties by id — is part
    // of the kernel, so every count repeats exactly, and so does the
    // residual each solve left (read from the arrays it ran in, summed
    // here in hub / source order). A change that moves any of them re-pins
    // it in the same diff.
    let g = barabasi_albert(2000, 4, 5);
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 80, 0);
    let config = Config::default().with_epsilon(1e-6);
    let mut pc = PrimeComputer::new(2000);
    let total = |work: SolveWork, size: usize, sum: &mut [u64; 3], left: &mut f64| {
        sum[0] += work.sweeps as u64;
        sum[1] += work.settles as u64;
        sum[2] += size as u64;
        *left += work.leftover;
    };

    let (mut stored, mut stored_left) = ([0u64; 3], 0.0f64);
    for &h in hubs.ids() {
        let (_, size) = pc.prime_ppv(&g, &hubs, h, &config, config.clip);
        total(pc.last_solve(), size, &mut stored, &mut stored_left);
    }
    assert_eq!(
        stored,
        [2_716, 4_272_693, 159_620],
        "stored: sweeps, settles, nodes"
    );
    assert_eq!(
        stored_left.to_bits(),
        0x3e73_a750_b8f0_6b1b,
        "{stored_left:e}"
    );

    let (mut online, mut online_left) = ([0u64; 3], 0.0f64);
    for q in (0..2000).filter(|&v| !hubs.is_hub(v)).take(64) {
        let (_, size) = pc.prime_ppv_into(&g, &hubs, q, &config);
        let work = pc.last_solve();
        assert!(
            work.leftover > 0.0 && work.leftover <= config.delta,
            "{work:?}"
        );
        total(work, size, &mut online, &mut online_left);
    }
    assert_eq!(
        online,
        [473, 798_058, 127_675],
        "query-time: sweeps, settles, nodes"
    );
    assert_eq!(
        online_left.to_bits(),
        0x3fcc_7be2_a536_3cdc,
        "{online_left:e}"
    );
}

#[test]
fn search_work_is_pinned() {
    // BA-2k / 80 hubs / ε = 1e-6 once more: the search's own counters,
    // summed over every hub and every eighth non-hub source, on both
    // families at δ = 0.005 and at δ = 0. The search reads neither the
    // family nor δ, so all four runs pin the same totals; each total is a
    // fixed point of the search (the node sets, the best probabilities,
    // the sweep list), so a change to the kernel's control flow that does
    // the same work leaves every one of them where it is.
    let g = barabasi_albert(2000, 4, 5);
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 80, 0);
    let config = Config::default().with_epsilon(1e-6);
    let non_hubs: Vec<NodeId> = (0..2000).filter(|&v| !hubs.is_hub(v)).step_by(8).collect();
    let mut pc = PrimeComputer::new(2000);
    let add = |sum: &mut [usize; 6], work: SolveWork, size: usize| {
        assert_eq!(work.pops, work.pushes, "the queue drains: {work:?}");
        assert!(work.interior <= work.members && work.members == size);
        let counts = [
            work.pops,
            work.stale_pops,
            work.relaxations,
            work.pushes,
            work.interior,
            work.members,
        ];
        for (total, count) in sum.iter_mut().zip(counts) {
            *total += count;
        }
    };
    for delta in [0.005, 0.0] {
        let at = config.with_delta(delta);
        for (sources, pinned) in [
            (hubs.ids(), HUB_SEARCHES),
            (&non_hubs[..], NON_HUB_SEARCHES),
        ] {
            let (mut stored, mut online) = ([0; 6], [0; 6]);
            for &q in sources {
                let (_, size) = pc.prime_ppv(&g, &hubs, q, &at, at.clip);
                add(&mut stored, pc.last_solve(), size);
                let (_, size) = pc.prime_ppv_into(&g, &hubs, q, &at);
                add(&mut online, pc.last_solve(), size);
            }
            assert_eq!(stored, pinned, "stored family, δ = {delta}");
            assert_eq!(online, pinned, "query-time family, δ = {delta}");
        }
    }
}

/// [`search_work_is_pinned`]'s totals over the 80 hubs: pops, stale pops,
/// relaxations, pushes, interior nodes, subgraph nodes.
const HUB_SEARCHES: [usize; 6] = [177_333, 24_230, 963_663, 177_333, 153_103, 159_620];
/// The same totals over every eighth non-hub source.
const NON_HUB_SEARCHES: [usize; 6] = [523_117, 69_046, 2_554_195, 523_117, 454_071, 478_738];
