//! Scheduler-equivalence properties: the verification *verdict* is a pure
//! function of `(network, interface, property)` — never of how the pile of
//! per-node conditions was drained. Work-stealing thread counts and shard
//! partitions must all reproduce the same failing-node sets on the same
//! sabotaged instance.

use std::collections::BTreeSet;

use proptest::prelude::*;
use timepiece::core::check::{CheckOptions, CheckReport, ModularChecker};
use timepiece::core::{NodeAnnotations, Temporal};
use timepiece::nets::reach::ReachBench;
use timepiece::nets::BenchInstance;
use timepiece::sched::ShardPlan;

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
    // each case runs five full modular checks; keep the count small
    #![proptest_config(ProptestConfig { cases: 6, rng_seed: 0x5ced_0001 })]

    #[test]
    fn threads_and_shards_agree_on_failing_nodes(mask in 1u32..(1 << 20)) {
        let (inst, interface) = sabotaged_instance(mask);
        let topology = inst.network.topology();

        let reference = ModularChecker::new(CheckOptions {
            threads: Some(1),
            ..CheckOptions::default()
        })
        .check(&inst.network, &interface, &inst.property)
        .expect("instance encodes");
        let expected = failing_nodes(&reference);
        prop_assert!(!expected.is_empty(), "a sabotaged instance must fail somewhere");

        for threads in [1usize, 4] {
            for shards in [1usize, 3] {
                let checker = ModularChecker::new(CheckOptions {
                    threads: Some(threads),
                    ..CheckOptions::default()
                });
                let plan = ShardPlan::by_class(topology.nodes(), shards, |v| {
                    topology.node_class(v).to_owned()
                });
                prop_assert!(plan.covers(topology.nodes()));
                let merged = CheckReport::merge((0..shards).map(|shard| {
                    checker
                        .check_nodes(&inst.network, &interface, &inst.property, plan.nodes_of(shard))
                        .expect("shard encodes")
                }));
                prop_assert_eq!(
                    failing_nodes(&merged),
                    expected.clone(),
                    "threads={} shards={} must match the reference verdict",
                    threads,
                    shards
                );
                prop_assert_eq!(merged.node_durations().len(), topology.node_count());
            }
        }
    }
}

proptest! {
    // pure planning, no solver: cheap enough for a wider net
    #![proptest_config(ProptestConfig { cases: 32, rng_seed: 0x5ced_0002 })]

    // The striped plan must partition the node set — every node in exactly
    // one shard — for any shard count, including more shards than nodes
    // (k=4 has 20 nodes, k=6 has 45).
    #[test]
    fn striped_plans_partition_the_nodes(half_k in 2usize..4, shards in 1usize..64) {
        let k = 2 * half_k; // fattree parameter must be even: k in {4, 6}
        let inst = ReachBench::single_dest(k, 0).build();
        let topology = inst.network.topology();
        let plan = ShardPlan::by_class(topology.nodes(), shards, |v| topology.node_class(v));
        prop_assert_eq!(plan.shard_count(), shards);
        prop_assert!(plan.covers(topology.nodes()));
        let assigned: usize = (0..shards).map(|s| plan.nodes_of(s).len()).sum();
        prop_assert_eq!(assigned, topology.node_count());
    }
}

/// The full wire drill: a coordinator and two loopback TCP workers must
/// reproduce exactly the failing-node set of a single-process check on the
/// same sabotaged instance.
#[test]
fn tcp_loopback_distributed_matches_single_process() {
    use timepiece_bench::{
        load_instance, run_row_distributed, shut_down, BenchKind, DistOptions, SweepOptions,
    };
    use timepiece_daemon::{serve, DaemonState};

    let mask = 0b0010_0100_1001u32;
    let (inst, interface) = sabotaged_instance(mask);
    let topology = inst.network.topology();
    let reference = ModularChecker::new(CheckOptions::default())
        .check(&inst.network, &interface, &inst.property)
        .expect("instance encodes");
    let expected = failing_nodes(&reference);
    assert!(!expected.is_empty(), "the sabotaged instance must fail somewhere");

    // ship the same sabotage to every worker by node name
    let sabotage: Vec<String> = topology
        .nodes()
        .filter(|v| mask & (1 << v.index()) != 0)
        .map(|v| topology.name(v).to_owned())
        .collect();

    // two real TCP workers — daemons started with nothing loaded — on
    // ephemeral loopback ports, serving the distributed row below
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..2 {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        addrs.push(listener.local_addr().expect("local addr").to_string());
        let state = DaemonState::empty(CheckOptions::default()).with_loader(load_instance);
        handles.push(std::thread::spawn(move || serve(listener, state)));
    }

    let kind = BenchKind::parse("SpReach").expect("registered");
    let options = SweepOptions {
        timeout: std::time::Duration::from_secs(60),
        run_monolithic: false,
        threads: Some(1),
    };
    let dist = DistOptions { sabotage, ..DistOptions::default() };
    let row = run_row_distributed(kind, 4, &options, 3, &addrs, &dist)
        .expect("distributed row completes");
    let got: BTreeSet<String> = row.failing.iter().cloned().collect();
    assert_eq!(got, expected, "TCP workers must reproduce the single-process verdict");
    assert_eq!(row.tp.outcome(), "failed", "a sabotaged row must not verify");
    assert_eq!(shut_down(&addrs), Vec::<String>::new());
    for handle in handles {
        handle.join().expect("worker thread").expect("the daemon drains cleanly");
    }
}
