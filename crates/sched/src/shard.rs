//! Deterministic shard planning for multi-process verification.
//!
//! The all-pairs fattree benchmarks produce one independent check per node,
//! so they shard trivially. A [`ShardPlan`] is a pure function of `(node
//! set, shard count, class key)`: the coordinator of a worker fleet computes
//! it once per row and sends each worker the explicit node list of the
//! shard it is to check, so a recorded shard replays from its report alone.
//!
//! Nodes are grouped by a caller-supplied *symmetry-class* key (for
//! fattrees: core / aggregation / edge, cf. `Topology::node_class`) and each
//! class is striped round-robin across shards. Classes differ systematically
//! in verification cost — an aggregation node's inductive condition sees
//! `k` neighbors, an edge node's `k/2` — so striping *within* classes gives
//! every shard the same cost mix instead of handing one shard all the
//! expensive nodes.

use std::collections::BTreeMap;

use timepiece_topology::NodeId;

/// A deterministic assignment of nodes to shards.
///
/// # Example
///
/// ```
/// use timepiece_sched::ShardPlan;
/// use timepiece_topology::NodeId;
///
/// let nodes: Vec<NodeId> = (0..10u32).map(NodeId::new).collect();
/// // two classes: even and odd indices
/// let plan = ShardPlan::by_class(nodes.iter().copied(), 3, |v| v.index() % 2);
/// assert_eq!(plan.shard_count(), 3);
/// assert!(plan.covers(nodes.iter().copied()));
/// // every node is assigned to exactly one shard
/// let total: usize = (0..3).map(|s| plan.nodes_of(s).len()).sum();
/// assert_eq!(total, 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: Vec<Vec<NodeId>>,
}

impl ShardPlan {
    /// Plans `shards` shards over `nodes`, striping each symmetry class
    /// (nodes with equal `class_of` keys) round-robin across shards.
    ///
    /// Deterministic: the same nodes, shard count and class keys always
    /// produce the same plan, regardless of input order.
    pub fn by_class<K: Ord>(
        nodes: impl IntoIterator<Item = NodeId>,
        shards: usize,
        class_of: impl Fn(NodeId) -> K,
    ) -> ShardPlan {
        let shards = shards.max(1);
        let mut classes: BTreeMap<K, Vec<NodeId>> = BTreeMap::new();
        for v in nodes {
            classes.entry(class_of(v)).or_default().push(v);
        }
        let mut plan = ShardPlan { shards: vec![Vec::new(); shards] };
        let mut cursor = 0usize;
        for (_, mut members) in classes {
            members.sort_unstable();
            members.dedup();
            for v in members {
                plan.shards[cursor % shards].push(v);
                cursor += 1;
            }
        }
        plan
    }

    /// The number of shards planned.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The nodes assigned to `shard`, in deterministic order.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shard_count()`.
    pub fn nodes_of(&self, shard: usize) -> &[NodeId] {
        &self.shards[shard]
    }

    /// The shard a node was assigned to, if it is in the plan.
    pub fn shard_of(&self, v: NodeId) -> Option<usize> {
        self.shards.iter().position(|shard| shard.contains(&v))
    }

    /// Does the plan partition exactly `nodes` — every node assigned to
    /// precisely one shard, and no stranger assigned anywhere? This is the
    /// coverage check a shard coordinator runs before trusting merged
    /// reports.
    pub fn covers(&self, nodes: impl IntoIterator<Item = NodeId>) -> bool {
        let mut expected: Vec<NodeId> = nodes.into_iter().collect();
        expected.sort_unstable();
        expected.dedup();
        let mut assigned: Vec<NodeId> = self.shards.iter().flatten().copied().collect();
        let total = assigned.len();
        assigned.sort_unstable();
        assigned.dedup();
        assigned.len() == total && assigned == expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u32>) -> Vec<NodeId> {
        range.map(NodeId::new).collect()
    }

    #[test]
    fn plan_is_deterministic_and_order_independent() {
        let nodes = ids(0..20);
        let mut reversed = nodes.clone();
        reversed.reverse();
        let a = ShardPlan::by_class(nodes.iter().copied(), 4, |v| v.index() % 3);
        let b = ShardPlan::by_class(reversed, 4, |v| v.index() % 3);
        assert_eq!(a, b);
    }

    #[test]
    fn classes_are_striped_across_shards() {
        // one class of 9 "expensive" nodes must not land on a single shard
        let nodes = ids(0..9);
        let plan = ShardPlan::by_class(nodes.iter().copied(), 3, |_| 0u8);
        for shard in 0..3 {
            assert_eq!(plan.nodes_of(shard).len(), 3);
        }
    }

    #[test]
    fn covers_detects_missing_and_foreign_nodes() {
        let nodes = ids(0..6);
        let plan = ShardPlan::by_class(nodes.iter().copied(), 2, |v| v.index());
        assert!(plan.covers(nodes.iter().copied()));
        assert!(!plan.covers(ids(0..5)), "foreign assigned node");
        assert!(!plan.covers(ids(0..7)), "missing node");
    }

    #[test]
    fn shard_of_locates_nodes() {
        let nodes = ids(0..5);
        let plan = ShardPlan::by_class(nodes.iter().copied(), 2, |v| v.index());
        for v in nodes {
            let shard = plan.shard_of(v).unwrap();
            assert!(plan.nodes_of(shard).contains(&v));
        }
        assert_eq!(plan.shard_of(NodeId::new(99)), None);
    }

    #[test]
    fn one_shard_takes_everything_and_duplicates_collapse() {
        let mut nodes = ids(0..4);
        nodes.push(NodeId::new(0));
        let plan = ShardPlan::by_class(nodes, 1, |_| ());
        assert_eq!(plan.nodes_of(0).len(), 4);
        assert!(plan.covers(ids(0..4)));
    }

    #[test]
    fn more_shards_than_nodes_leaves_empties() {
        let plan = ShardPlan::by_class(ids(0..2), 5, |v| v.index());
        assert_eq!(plan.shard_count(), 5);
        assert!(plan.covers(ids(0..2)));
        assert_eq!((0..5).filter(|&s| plan.nodes_of(s).is_empty()).count(), 3);
    }
}
