//! The "answers unchanged" guard. The stream: BA-1k (`barabasi_albert(1000,
//! 4, 42)`), 40 expected-utility hubs, ε = 1e-6, the first 64 of 200 Zipf(1)
//! queries drawn with seed 42, η = 2. Every score bit and every φ bit of its
//! result stream must digest to the constant pinned below — from the
//! built arena, and from that arena after a trip through its file. A PR that changes results on purpose re-pins the
//! constants in the same PR.
//!
//! Two more pins ride along. The same stream under `δ = 0` guards the
//! configuration the accuracy-grade deployments serve; like the default-`δ`
//! digest it is a function of the engine's floating-point evaluation order
//! and is re-pinned with it (the bit-level proof that a rule keyed on `δ` is
//! inert at `δ = 0` lives in `tests/kernel_equivalence.rs`:
//! `prime_ppv_into(δ = 0) == prime_ppv`). The arena file's own bytes are
//! the stored PPVs: no change to the online engine may move them.
//!
//! A second test pins the prime-0 kernel at scale, where the stream above
//! touches only 64 sources: every `(id, score bits)` entry of every
//! non-hub `prime_ppv_into` on BA-2k, at the default `δ` and at `δ = 0`,
//! and of every hub's `prime_ppv` at the default clip.

use fastppv::core::hubs::{select_hubs, select_hubs_with_pagerank, HubPolicy};
use fastppv::core::offline::build_flat_index;
use fastppv::core::{Config, FlatIndex, PrimeComputer};
use fastppv::graph::gen::barabasi_albert;
use fastppv::graph::{pagerank, NodeId, PageRankOptions};
use fastppv_bench::workload::{results_digest, sample_queries_zipf, Fnv1a};

const BASELINE_DIGEST: u64 = 0x853c_026e_f55f_65a0;
const DELTA_ZERO_DIGEST: u64 = 0x7812_fcb8_d763_5424;
const ARENA_FILE_DIGEST: u64 = 0xc14a_ad96_1331_a1ef;
/// Every non-hub prime-0 on BA-2k at the default δ, at δ = 0, and every
/// hub's stored prime PPV.
const PRIME0_DIGESTS: [u64; 3] = [
    0xce26_d131_a735_f7a8,
    0x2041_be1a_426c_165e,
    0xb8bb_7766_24c4_2c8c,
];

#[test]
fn smoke_results_digest_matches_the_committed_baseline() {
    let graph = barabasi_albert(1000, 4, 42);
    let pr = pagerank(&graph, PageRankOptions::default());
    let hubs = select_hubs_with_pagerank(&graph, HubPolicy::ExpectedUtility, 40, 0, Some(&pr));
    let config = Config::default().with_epsilon(1e-6);
    let queries = sample_queries_zipf(&graph, 200, 1.0, 42);
    let digest_queries = &queries[..64];

    let (flat, _) = build_flat_index(&graph, &hubs, &config, 1);
    let path = std::env::temp_dir().join(format!("fastppv-digest-{}.fppv", std::process::id()));
    flat.write_to_file(&path).unwrap();
    let mut arena_file = Fnv1a::default();
    arena_file.update(&std::fs::read(&path).unwrap());
    let opened = FlatIndex::open(&path).unwrap();

    let digest_of_arena = results_digest(&graph, &hubs, &flat, config, digest_queries, 2);
    let digest_of_file = results_digest(&graph, &hubs, &opened, config, digest_queries, 2);
    // δ is an online gate only: the same stores serve the δ = 0 stream.
    let exact_prime0 = config.with_delta(0.0);
    let delta_zero_arena = results_digest(&graph, &hubs, &flat, exact_prime0, digest_queries, 2);
    let delta_zero_file = results_digest(&graph, &hubs, &opened, exact_prime0, digest_queries, 2);
    drop(opened);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(digest_of_arena, BASELINE_DIGEST, "built arena");
    assert_eq!(
        digest_of_file, BASELINE_DIGEST,
        "arena opened from its file"
    );
    assert_eq!(delta_zero_arena, DELTA_ZERO_DIGEST, "δ = 0, built arena");
    assert_eq!(
        delta_zero_file, DELTA_ZERO_DIGEST,
        "δ = 0, arena opened from its file"
    );
    assert_eq!(
        arena_file.finish(),
        ARENA_FILE_DIGEST,
        "stored PPVs (the arena file's bytes)"
    );
}

#[test]
fn prime0_entries_at_scale_match_the_committed_digests() {
    let g = barabasi_albert(2000, 4, 5);
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 80, 0);
    let config = Config::default().with_epsilon(1e-6);
    let mut pc = PrimeComputer::new(2000);
    let fold = |digest: &mut Fnv1a, entries: &[(NodeId, f64)]| {
        for &(v, s) in entries {
            digest.update(&v.to_le_bytes());
            digest.update(&s.to_bits().to_le_bytes());
        }
    };
    let mut digests = [Fnv1a::default(), Fnv1a::default(), Fnv1a::default()];
    for q in (0..2000).filter(|&v| !hubs.is_hub(v)) {
        fold(&mut digests[0], pc.prime_ppv_into(&g, &hubs, q, &config).0);
        let exact = config.with_delta(0.0);
        fold(&mut digests[1], pc.prime_ppv_into(&g, &hubs, q, &exact).0);
    }
    for &h in hubs.ids() {
        let (ppv, _) = pc.prime_ppv(&g, &hubs, h, &config, config.clip);
        fold(&mut digests[2], ppv.entries.entries());
    }
    assert_eq!(digests.map(|d| d.finish()), PRIME0_DIGESTS);
}
