//! Scheduler-equivalence property: the verification *verdict* is a pure
//! function of `(network, interface, property)` — never of how the pile of
//! per-node conditions was drained. Work-stealing pools of any thread count
//! must reproduce the same failing-node sets on the same sabotaged instance.

use std::collections::BTreeSet;

use proptest::prelude::*;
use timepiece::core::check::{CheckOptions, CheckReport, ModularChecker};
use timepiece::core::{NodeAnnotations, Temporal};
use timepiece::nets::reach::ReachBench;
use timepiece::nets::BenchInstance;

/// SpReach k=4 (20 nodes) with the nodes selected by `mask` sabotaged to
/// claim they never hold a route — failures then appear at every sabotaged
/// node that obtains one, and at neighbors whose conditions assumed it.
fn sabotaged_instance(mask: u32) -> (BenchInstance, NodeAnnotations) {
    let inst = ReachBench::single_dest(4, 0).build();
    let mut interface = inst.interface.clone();
    for v in inst.network.topology().nodes() {
        if mask & (1 << v.index()) != 0 {
            interface.set(v, Temporal::globally(|r| r.clone().is_some().not()));
        }
    }
    (inst, interface)
}

fn failing_nodes(report: &CheckReport) -> BTreeSet<String> {
    report.failures().iter().map(|f| f.node_name.clone()).collect()
}

proptest! {
    // each case runs three full modular checks; keep the count small
    #![proptest_config(ProptestConfig { cases: 6, rng_seed: 0x5ced_0001 })]

    #[test]
    fn thread_counts_agree_on_failing_nodes(mask in 1u32..(1 << 20)) {
        let (inst, interface) = sabotaged_instance(mask);
        let check = |threads: usize| {
            ModularChecker::new(CheckOptions { threads: Some(threads), ..CheckOptions::default() })
                .check(&inst.network, &interface, &inst.property)
                .expect("instance encodes")
        };
        let expected = failing_nodes(&check(1));
        prop_assert!(!expected.is_empty(), "a sabotaged instance must fail somewhere");

        for threads in [1usize, 4] {
            let report = check(threads);
            prop_assert_eq!(
                failing_nodes(&report),
                expected.clone(),
                "threads={} must match the reference verdict",
                threads
            );
            prop_assert_eq!(report.node_durations().len(), inst.network.topology().node_count());
        }
    }
}
