//! Cross-crate integration tests: every paper benchmark at k = 4, through
//! the public facade, on both engines, with failure injection.

use std::time::Duration;

use timepiece::core::check::{CheckOptions, ModularChecker};
use timepiece::core::monolithic::check_monolithic;
use timepiece::core::{NodeAnnotations, Temporal, VcKind};
use timepiece::nets::{
    hijack::HijackBench, len::LenBench, reach::ReachBench, vf::VfBench, wan::WanBench,
    BenchInstance,
};

fn modular(inst: &BenchInstance) -> timepiece::core::CheckReport {
    ModularChecker::new(CheckOptions::default())
        .check(&inst.network, &inst.interface, &inst.property)
        .expect("check runs")
}

#[test]
fn all_single_dest_benchmarks_verify_at_k4() {
    for (name, inst) in [
        ("SpReach", ReachBench::single_dest(4, 0).build()),
        ("SpLen", LenBench::single_dest(4, 0).build()),
        ("SpVf", VfBench::single_dest(4, 0).build()),
        ("SpHijack", HijackBench::single_dest(4, 0).build()),
    ] {
        let report = modular(&inst);
        assert!(report.is_verified(), "{name} failed: {:?}", report.failures());
    }
}

#[test]
fn all_pairs_benchmarks_verify_at_k4() {
    for (name, inst) in [
        ("ApReach", ReachBench::all_pairs(4).build()),
        ("ApLen", LenBench::all_pairs(4).build()),
        ("ApVf", VfBench::all_pairs(4).build()),
        ("ApHijack", HijackBench::all_pairs(4).build()),
    ] {
        let report = modular(&inst);
        assert!(report.is_verified(), "{name} failed: {:?}", report.failures());
    }
}

#[test]
fn every_edge_node_can_be_the_destination() {
    // Sp instances parameterized over each of the 8 edge nodes of a 4-fattree
    for i in 0..8 {
        let inst = ReachBench::single_dest(4, i).build();
        let report = modular(&inst);
        assert!(report.is_verified(), "dest {i}: {:?}", report.failures());
    }
}

#[test]
fn monolithic_and_modular_agree_on_sp_reach() {
    let inst = ReachBench::single_dest(4, 0).build();
    assert!(modular(&inst).is_verified());
    let mono = check_monolithic(&inst.network, &inst.property, None).expect("check runs");
    assert!(mono.outcome.is_verified());
}

#[test]
fn monolithic_rejects_a_false_property() {
    // claim: every node's stable route has length 0 — only the destination's
    // does, so the monolithic stable-state check must find a counterexample
    let inst = LenBench::single_dest(4, 0).build();
    let schema = timepiece::nets::bgp::BgpSchema::new([], []);
    let false_property = NodeAnnotations::new(
        inst.network.topology(),
        Temporal::globally(move |r| {
            r.clone()
                .is_some()
                .and(schema.len(&r.clone().get_some()).eq(timepiece::expr::Expr::int(0)))
        }),
    );
    let mono = check_monolithic(&inst.network, &false_property, None).expect("check runs");
    assert!(!mono.outcome.is_verified());
}

#[test]
fn per_node_timing_statistics_are_recorded() {
    let inst = ReachBench::single_dest(4, 0).build();
    let report = modular(&inst);
    let stats = report.stats();
    assert_eq!(stats.count, inst.network.topology().node_count());
    assert!(stats.median <= stats.p99);
    assert!(stats.p99 <= stats.max);
    assert!(stats.total >= stats.max);
}

#[test]
fn solver_timeouts_surface_as_unknown_failures() {
    // a 1-nanosecond budget forces Unknown on at least some node
    let inst = VfBench::all_pairs(4).build();
    let report = ModularChecker::new(CheckOptions {
        timeout: Some(Duration::from_nanos(1)),
        ..CheckOptions::default()
    })
    .check(&inst.network, &inst.interface, &inst.property)
    .expect("check runs");
    assert!(!report.is_verified());
}

#[test]
fn wan_block_to_external_verifies_and_scales_down() {
    for peers in [4usize, 16] {
        let inst = WanBench::with_peers(9, peers).build();
        let report = modular(&inst);
        assert!(report.is_verified(), "peers={peers}: {:?}", report.failures());
        assert_eq!(report.stats().count, 10 + peers);
    }
}

#[test]
fn delay_tolerant_interfaces_for_reach() {
    // Reach's hand-written interfaces pin each node's witness time to its
    // distance from the destination, the synchronous arrival time. Under one
    // unit of bounded delay (§4) a route may arrive later than that, so the
    // inductive condition rejects them at 17 of the 20 nodes. The
    // delay-widened interfaces that do verify are inference's job — see
    // `infers_sp_reach_k4_under_delay` in crates/infer/tests.
    let inst = ReachBench::single_dest(4, 0).build();
    let report = ModularChecker::new(CheckOptions { delay: 1, ..CheckOptions::default() })
        .check(&inst.network, &inst.interface, &inst.property)
        .expect("check runs");
    let mut failing: Vec<_> = report.failures().iter().map(|f| f.node).collect();
    failing.dedup();
    assert_eq!(failing.len(), 17, "{:?}", report.failures());
    for f in report.failures() {
        assert_eq!(f.vc, VcKind::Inductive, "{f:?}");
        assert!(f.counterexample().is_some(), "a decoded counterexample: {f:?}");
    }
}

#[test]
fn vf_simulation_and_verifier_agree_on_all_destinations() {
    use timepiece::expr::Env;
    // for each destination, the verified Vf instance simulates to exactly
    // dist-length routes — verifier and simulator tell one story
    for i in [0usize, 3, 7] {
        let bench = VfBench::single_dest(4, i);
        let inst = bench.build();
        assert!(modular(&inst).is_verified());
        let trace = timepiece::sim::simulate(&inst.network, &Env::new(), 16).expect("simulates");
        assert!(trace.converged_at().is_some());
    }
}
