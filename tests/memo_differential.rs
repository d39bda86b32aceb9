//! Memo-free differential: a pooled check proves each distinct key once and
//! serves every other node from that proof, while
//! [`ModularChecker::check_node`] proves one node's own conditions in a
//! fresh session. Both must find exactly the same failing (node, condition)
//! pairs — on every registry scenario, with and without sabotage.

use std::collections::{BTreeSet, HashSet};

use timepiece::core::check::{CheckOptions, CheckReport, ModularChecker};
use timepiece::core::incremental::node_fingerprint;
use timepiece::core::Temporal;
use timepiece::nets::BenchInstance;
use timepiece::topology::NodeId;
use timepiece_bench::{fattree_instance, BenchKind};

const REGISTRY: [&str; 13] = [
    "SpReach", "SpLen", "SpVf", "SpHijack", "ApReach", "ApLen", "ApVf", "ApHijack", "SpMed",
    "ApMed", "SpAd", "ApAd", "SpFail",
];

type Failing = BTreeSet<(String, String)>;

fn failing(report: &CheckReport) -> Failing {
    report.failures().iter().map(|f| (f.node_name.clone(), f.vc.to_string())).collect()
}

/// Three core/aggregation nodes drawn by a fixed xorshift, their property
/// tightened to "always has a route" — false at time 0, where no route has
/// arrived yet, so each one's safety condition fails.
fn sabotage(inst: &mut BenchInstance, seed: u64) -> Vec<NodeId> {
    let g = inst.network.topology();
    let mut eligible: Vec<NodeId> =
        g.nodes().filter(|&v| matches!(g.node_class(v), "core" | "agg")).collect();
    let mut state = seed;
    let mut picked = Vec::new();
    for _ in 0..3 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        picked.push(eligible.remove((state % eligible.len() as u64) as usize));
    }
    for &v in &picked {
        let tightened =
            inst.property.get(v).clone().and(Temporal::globally(|r| r.clone().is_some()));
        inst.property.set(v, tightened);
    }
    picked
}

/// The failing pairs of a pooled, memoised check and of memo-free per-node
/// checks must coincide.
fn assert_memo_is_invisible(label: &str, inst: &BenchInstance) -> Failing {
    let checker = ModularChecker::new(CheckOptions { threads: Some(2), ..CheckOptions::default() });
    let (net, interface, property) = (&inst.network, &inst.interface, &inst.property);
    let pooled = checker.check(net, interface, property).expect("check runs");
    let nodes = net.topology().node_count();
    assert_eq!(pooled.node_durations().len(), nodes, "{label}: every node answered");
    let memo = pooled.memo();
    assert_eq!(memo.proofs + memo.hits, nodes, "{label}: {memo:?}");
    let mut alone = Failing::new();
    for v in net.topology().nodes() {
        let (failures, _) = checker.check_node(net, interface, property, v).expect("check runs");
        alone.extend(failures.iter().map(|f| (f.node_name.clone(), f.vc.to_string())));
    }
    assert_eq!(failing(&pooled), alone, "{label}: memo and memo-free checks disagree");
    alone
}

fn scenario(kind: &str, k: usize, sabotaged: bool) {
    let mut inst = fattree_instance(BenchKind::parse(kind).expect("registered"), k);
    let label = format!("{kind} k={k}{}", if sabotaged { " sabotaged" } else { "" });
    let picked = if sabotaged { sabotage(&mut inst, 0x9e37_79b9 ^ k as u64) } else { Vec::new() };
    let found = assert_memo_is_invisible(&label, &inst);
    if !sabotaged {
        assert!(found.is_empty(), "{label} verifies: {found:?}");
        return;
    }
    let g = inst.network.topology();
    let key = |v| node_fingerprint(&inst.network, &inst.interface, &inst.property, 0, v);
    for &v in &picked {
        assert!(found.contains(&(g.name(v).to_owned(), "safety".to_owned())), "{label}: {found:?}");
        // the sabotaged node's key is its own among its class: no proof of
        // an intact class-mate can answer for it
        let mates: HashSet<_> = g
            .nodes()
            .filter(|&u| g.node_class(u) == g.node_class(v) && !picked.contains(&u))
            .map(key)
            .collect();
        assert!(!mates.contains(&key(v)), "{label}: {} shares a key", g.name(v));
    }
}

#[test]
fn every_registry_scenario_at_k4_agrees_with_memo_free_checks() {
    for kind in REGISTRY {
        scenario(kind, 4, false);
    }
}

#[test]
fn every_sabotaged_registry_scenario_at_k4_agrees_with_memo_free_checks() {
    for kind in REGISTRY {
        scenario(kind, 4, true);
    }
}

#[test]
fn single_destination_scenarios_at_k6_agree_with_memo_free_checks() {
    for kind in REGISTRY.into_iter().filter(|kind| kind.starts_with("Sp")) {
        scenario(kind, 6, false);
        scenario(kind, 6, true);
    }
}
