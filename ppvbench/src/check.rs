//! Correctness, checked in every run: the product is a *certified*
//! answer, so a fast run that answers wrongly is a failed run. Every
//! check is an attempted operation; every violation a failed one.

use std::collections::HashMap;

use fastppv_baselines::{exact_ppv, ExactOptions};
use fastppv_core::{PpvStore, PrimeComputer, QueryEngine};
use fastppv_graph::gen::EdgeEvent;
use fastppv_graph::NodeId;
use fastppv_server::net::{WireAnswer, WireStop};

use crate::deploy::{Deployment, Serving, UPDATE_BUDGET};
use crate::inputs::{Dataset, Rng};
use crate::run::{stopping, Reader, Tally};

/// Float slack on "within reported φ of exact".
const PHI_SLACK: f64 = 1e-9;
/// Routed and single-process answers agree to this (reassociation only).
const ROUTED_SLACK: f64 = 1e-12;
/// Sources of each class whose full answers are checked against exact PPV.
const EXACT_SAMPLES: usize = 3;
/// Hubs whose stored PPVs are checked against a fresh solve after writes.
const STORED_SAMPLES: usize = 12;
/// Slack on "stored PPV within budget of a fresh solve": the certified
/// budget bounds patched-vs-recomputed on the *same* extraction; a fresh
/// ε-pruned extraction on the final graph may draw its frontier slightly
/// differently.
const FRESH_SOLVE_SLACK: f64 = 0.5 * UPDATE_BUDGET;

/// Shape checks every timed answer must pass.
pub fn answer_shape(a: &WireAnswer, q: NodeId, top_k: u32, stop: WireStop) -> Result<(), String> {
    if a.query != q {
        return Err(format!("answered node {} instead", a.query));
    }
    if a.degraded {
        return Err("degraded".into());
    }
    if !a.l1_error.is_finite() || !(0.0..=1.0 + PHI_SLACK).contains(&a.l1_error) {
        return Err(format!("phi {} out of range", a.l1_error));
    }
    if let WireStop::L1Error(target) = stop {
        if a.l1_error > target + ROUTED_SLACK {
            return Err(format!("phi {} misses the target {target}", a.l1_error));
        }
    }
    if a.entries.is_empty() {
        return Err("no entries".into());
    }
    if top_k > 0 {
        if a.entries.len() > top_k as usize {
            return Err(format!("{} entries for top-{top_k}", a.entries.len()));
        }
        if a.entries.windows(2).any(|w| w[0].1 < w[1].1) {
            return Err("top-k not in descending score order".into());
        }
    }
    if a.entries.iter().any(|&(_, s)| !s.is_finite() || s < 0.0) {
        return Err("negative or non-finite score".into());
    }
    Ok(())
}

/// L1 distance between a sparse estimate (ascending node id) and a dense
/// exact vector.
fn l1_to_dense(entries: &[(NodeId, f64)], dense: &[f64]) -> f64 {
    let mut total: f64 = dense.iter().sum();
    for &(v, s) in entries {
        let exact = dense[v as usize];
        total += (exact - s).abs() - exact;
    }
    total
}

/// L1 distance between two sparse vectors (ascending node id).
fn l1_sparse(a: &[(NodeId, f64)], b: &[(NodeId, f64)]) -> f64 {
    let (mut i, mut j, mut total) = (0, 0, 0.0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&(v, s)), Some(&(w, t))) if v == w => {
                total += (s - t).abs();
                i += 1;
                j += 1;
            }
            (Some(&(v, s)), Some(&(w, _))) if v < w => {
                total += s.abs();
                i += 1;
            }
            (Some(&(_, s)), None) => {
                total += s.abs();
                i += 1;
            }
            (_, Some(&(_, t))) => {
                total += t.abs();
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    total
}

/// Sampled sources of the run (hubs, non-hubs, a block of the mix),
/// answered in full over the wire before anything is timed: each answer
/// must lie within its reported φ of the exact PPV, and on the routed
/// topology must equal the in-process single-index answer.
pub fn answers_against_exact(
    reader: &mut Reader,
    data: &Dataset,
    dep: &Deployment,
    hub_order: &[NodeId],
    nonhub_order: &[NodeId],
    tally: &mut Tally,
) -> Result<(), String> {
    let config = data.spec.config;
    let mix = data.mix_block(&mut Rng::new(hub_order.len() as u64));
    let sources: Vec<NodeId> = hub_order
        .iter()
        .take(EXACT_SAMPLES)
        .chain(nonhub_order.iter().take(EXACT_SAMPLES))
        .chain(mix.iter().take(EXACT_SAMPLES))
        .copied()
        .collect();
    let engine = QueryEngine::new(&data.graph, &data.hubs, dep.built.flat.as_ref(), config);
    let mut ws = engine.workspace();
    for q in sources {
        let (_, answer) = reader.ask(q, 0)?;
        let Some(answer) = answer else { continue };
        let exact = exact_ppv(
            &data.graph,
            q,
            ExactOptions {
                alpha: config.alpha,
                ..ExactOptions::default()
            },
        );
        let distance = l1_to_dense(&answer.entries, &exact);
        if distance <= answer.l1_error + PHI_SLACK {
            tally.ok();
        } else {
            tally.fail(|| {
                format!(
                    "node {q}: L1 to exact {distance:.3e} exceeds reported phi {:.3e}",
                    answer.l1_error
                )
            });
        }
        if matches!(dep.serving, Serving::Routed(_)) {
            let stop = stopping(reader.stop());
            let local = engine.query_with(&mut ws, q, &stop);
            let gap = l1_sparse(&answer.entries, local.scores.entries())
                .max((answer.l1_error - local.l1_error).abs());
            if gap <= ROUTED_SLACK {
                tally.ok();
            } else {
                tally.fail(|| format!("node {q}: routed answer {gap:.3e} off the single one"));
            }
        }
    }
    Ok(())
}

/// After the writer is done: the serving epoch equals the events
/// committed, the served graph holds exactly the edges the stream says it
/// should, and sampled hubs' stored PPVs are within budget of a fresh
/// solve on the final graph.
pub fn after_updates(
    reader: &mut Reader,
    data: &Dataset,
    dep: &Deployment,
    committed: &[EdgeEvent],
    seed: u64,
    tally: &mut Tally,
) -> Result<(), String> {
    let epoch = reader.epoch()?;
    if epoch == committed.len() as u64 {
        tally.ok();
    } else {
        tally.fail(|| format!("epoch {epoch} after {} committed events", committed.len()));
    }

    let services_graph = match &dep.serving {
        Serving::Single { service, .. } => service.graph(),
        Serving::Routed(cluster) => cluster.shards.services[0].graph(),
    };
    let mut last: HashMap<(NodeId, NodeId), bool> = HashMap::new();
    for e in committed {
        last.insert((e.tail, e.head), e.insert);
    }
    let wrong = last
        .iter()
        .filter(|(&(u, v), &live)| services_graph.has_edge(u, v) != live)
        .count();
    if wrong == 0 {
        tally.ok();
    } else {
        tally.fail(|| format!("{wrong} streamed edges are not in the state the stream left them"));
    }

    let config = data.spec.config;
    let mut prime = PrimeComputer::new(services_graph.num_nodes());
    let mut rng = Rng::new(seed ^ 0xC4EC);
    let mut sampled = data.hub_order(&mut rng);
    sampled.truncate(STORED_SAMPLES);
    for h in sampled {
        let stored = match &dep.serving {
            Serving::Single { service, .. } => service.store().load(h),
            Serving::Routed(cluster) => {
                let owner = cluster.shards.map.owner(h) as usize;
                cluster.shards.services[owner].store().load(h)
            }
        };
        let Some(stored) = stored else {
            tally.fail(|| format!("hub {h} missing from the store after updates"));
            continue;
        };
        let (fresh, _) = prime.prime_ppv(&services_graph, &data.hubs, h, &config, config.clip);
        let distance = l1_sparse(stored.entries.entries(), fresh.entries.entries());
        if distance <= UPDATE_BUDGET + FRESH_SOLVE_SLACK {
            tally.ok();
        } else {
            tally.fail(|| {
                format!("hub {h}: stored PPV {distance:.3e} from a fresh solve (budget {UPDATE_BUDGET})")
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(entries: Vec<(NodeId, f64)>, phi: f64) -> WireAnswer {
        WireAnswer {
            query: 3,
            iterations: 2,
            l1_error: phi,
            exhausted: false,
            cached: false,
            degraded: false,
            latency: std::time::Duration::ZERO,
            entries,
        }
    }

    #[test]
    fn shape_checks_catch_each_violation() {
        let eta = WireStop::Iterations(2);
        let good = answer(vec![(3, 0.4), (1, 0.2)], 0.3);
        assert!(answer_shape(&good, 3, 10, eta).is_ok());
        assert!(answer_shape(&good, 4, 10, eta).is_err(), "wrong node");
        assert!(answer_shape(&good, 3, 1, eta).is_err(), "too many entries");
        assert!(
            answer_shape(&good, 3, 10, WireStop::L1Error(0.1)).is_err(),
            "misses the phi target"
        );
        let mut bad = good.clone();
        bad.degraded = true;
        assert!(answer_shape(&bad, 3, 10, eta).is_err(), "degraded");
        let unsorted = answer(vec![(1, 0.2), (3, 0.4)], 0.3);
        assert!(
            answer_shape(&unsorted, 3, 10, eta).is_err(),
            "ascending top-k"
        );
        assert!(
            answer_shape(&unsorted, 3, 0, eta).is_ok(),
            "full vectors are by id"
        );
        assert!(
            answer_shape(&answer(vec![], 0.3), 3, 10, eta).is_err(),
            "empty"
        );
        assert!(
            answer_shape(&answer(vec![(3, 0.4)], 1.5), 3, 10, eta).is_err(),
            "phi > 1"
        );
    }

    #[test]
    fn l1_distances() {
        let dense = [0.5, 0.0, 0.25, 0.25];
        assert!((l1_to_dense(&[(0, 0.5), (2, 0.25), (3, 0.25)], &dense)).abs() < 1e-15);
        assert!((l1_to_dense(&[(0, 0.4)], &dense) - 0.6).abs() < 1e-15);
        let a = [(1, 0.5), (4, 0.25)];
        let b = [(1, 0.25), (2, 0.125)];
        assert!((l1_sparse(&a, &b) - 0.625).abs() < 1e-15);
        assert_eq!(l1_sparse(&a, &a), 0.0);
        assert!((l1_sparse(&[], &b) - 0.375).abs() < 1e-15);
    }
}
