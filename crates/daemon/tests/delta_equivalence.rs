//! The daemon's incremental verdicts must equal a from-scratch check.
//!
//! Property: after *any* sequence of deltas — link down/up, edge-policy
//! edits (including sabotage drops), witness-time changes, failure-budget
//! changes, some of them deliberately invalid — the daemon's per-node
//! verdict map equals what a fresh [`ModularChecker`] says about the
//! daemon's current instance. That is the soundness claim of dirty-cone
//! re-checking: nodes outside the cone may keep cached verdicts *because*
//! their conditions are structurally unchanged.

use proptest::prelude::*;
use timepiece_core::check::{CheckOptions, ModularChecker};
use timepiece_core::Fingerprints;
use timepiece_daemon::fixture::hop_path;
use timepiece_daemon::{DaemonState, Delta, PolicySpec, Request};
use timepiece_nets::reach::ReachBench;
use timepiece_nets::BenchInstance;
use timepiece_topology::NodeId;

fn options() -> CheckOptions {
    CheckOptions { threads: Some(2), session_cap: Some(8), ..Default::default() }
}

/// What the opcodes of one instance decode against: its links (one
/// direction each) and its node names.
struct Targets {
    links: Vec<(String, String)>,
    nodes: Vec<String>,
    /// A route field `increment` policies may name.
    field: &'static str,
}

impl Targets {
    fn of(instance: &BenchInstance, field: &'static str) -> Targets {
        let g = instance.network.topology();
        let name = |v: NodeId| g.name(v).to_owned();
        Targets {
            links: g.edges().filter(|(u, v)| u < v).map(|(u, v)| (name(u), name(v))).collect(),
            nodes: g.nodes().map(name).collect(),
            field,
        }
    }

    /// Decodes one `(kind, a, b)` opcode into a delta. Some decodes are
    /// deliberately invalid (a link that is not down, a node without a
    /// witness time, a failure budget on a network without a failure model,
    /// a non-edge) — the daemon must reject them *without* changing state.
    fn decode(&self, kind: u8, a: u64, b: u64) -> Delta {
        let (u, v) = self.links[a as usize % self.links.len()].clone();
        match kind {
            0 => Delta::LinkDown { u, v },
            1 => Delta::LinkUp { u, v },
            2 => {
                // both directions of the link, all three policy kinds
                let (u, v) = if b.is_multiple_of(2) { (u, v) } else { (v, u) };
                let policy = match b % 3 {
                    0 => PolicySpec::Drop,
                    1 => PolicySpec::Default,
                    _ => PolicySpec::Increment(self.field.into()),
                };
                Delta::EdgePolicy { u, v, policy }
            }
            3 => Delta::WitnessTime {
                node: self.nodes[a as usize % self.nodes.len()].clone(),
                tau: (b % 8) as i64,
            },
            4 => Delta::FailureBudget { budget: a % 3 },
            // a policy edit between two nodes that need not be adjacent
            _ => Delta::EdgePolicy {
                u: self.nodes[a as usize % self.nodes.len()].clone(),
                v: self.nodes[b as usize % self.nodes.len()].clone(),
                policy: PolicySpec::Drop,
            },
        }
    }
}

/// The reference: a fresh checker run on the daemon's current instance.
fn from_scratch_failed(state: &DaemonState) -> Vec<NodeId> {
    let report = ModularChecker::new(options())
        .check(state.net(), state.interface(), state.property())
        .expect("reference check");
    let mut failed: Vec<NodeId> = report.failures().iter().map(|f| f.node).collect();
    failed.sort_unstable();
    failed.dedup();
    failed
}

/// Drives one daemon through `ops`, checking after *every* delta (accepted
/// or rejected) that
///
/// * the verdict cache equals a from-scratch check of the daemon's current
///   instance, and
/// * the fingerprints the daemon refreshed over the delta's footprint equal
///   a from-scratch [`Fingerprints::compute`] — i.e. the footprint covered
///   the exact cone, so no node kept a stale hash (which a later delta
///   would then diff against, missing a dirty node), and
/// * no worker holds a second solver session: sessions are keyed by what a
///   network declares, and no delta — policy or budget — declares anything,
///   so an edited network lands in the session that already holds its
///   compiled terms.
fn check_sequence(
    label: &str,
    instance: BenchInstance,
    field: &'static str,
    ops: Vec<(u8, u64, u64)>,
) {
    let targets = Targets::of(&instance, field);
    let n = targets.nodes.len();
    let mut state = DaemonState::new(label, instance, options()).unwrap();
    for (kind, a, b) in ops {
        let delta = targets.decode(kind, a, b);
        let reply = state.handle(&Request::Delta(delta.clone())).reply;
        let ok = reply.get("ok").and_then(timepiece_trace::Json::as_bool);
        assert!(ok.is_some(), "reply must carry ok: {reply}");
        assert_eq!(
            state.verdicts().len(),
            n,
            "no cancellation ran, so every node must keep a verdict"
        );
        let recomputed = Fingerprints::compute(state.net(), state.interface(), state.property(), 0);
        assert_eq!(
            state.fingerprints().dirty_cone(&recomputed),
            Vec::<NodeId>::new(),
            "after {:?} (ok={:?}) the footprint missed nodes whose conditions changed",
            delta,
            ok
        );
        let status = state.handle(&Request::Status).reply;
        let count = |key: &str| status.get(key).and_then(timepiece_trace::Json::as_usize).unwrap();
        assert!(
            count("sessions") <= count("workers"),
            "after {delta:?} the workers hold a second compiled copy: {status}"
        );
        let cached_failed = state.verdicts().failed_nodes();
        let reference_failed = from_scratch_failed(&state);
        assert_eq!(
            cached_failed, reference_failed,
            "after {:?} (ok={:?}) the cache diverged from a fresh check",
            delta, ok
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, rng_seed: 0x5ced_0008 })]

    #[test]
    fn incremental_verdicts_match_from_scratch(
        ops in proptest::collection::vec((0u8..6, 0u64..32, 0u64..32), 1..6),
    ) {
        // a failure budget makes every delta kind meaningful (and makes the
        // exact interface fail at some nodes, so both verdicts occur)
        check_sequence("hop equivalence", hop_path(5, Some(1)), "len", ops);
    }

    #[test]
    fn incremental_verdicts_match_from_scratch_on_a_fattree(
        ops in proptest::collection::vec((0u8..6, 0u64..64, 0u64..64), 1..8),
    ) {
        // SpReach k=4: 20 nodes of degree 2-4, no failure model (budget
        // deltas are rejected), boolean routes (increments are rejected)
        check_sequence("SpReach k=4", ReachBench::single_dest(4, 0).build(), "len", ops);
    }
}
