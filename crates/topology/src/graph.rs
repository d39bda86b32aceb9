//! A compact directed graph with named nodes.

use std::collections::HashMap;
use std::fmt;

/// An index identifying a node in a [`Topology`].
///
/// Node ids are dense: a topology with `n` nodes uses ids `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub fn new(index: u32) -> NodeId {
        NodeId(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(i: u32) -> NodeId {
        NodeId(i)
    }
}

/// A directed graph with string-named nodes and deduplicated edges.
///
/// The network topology `G = (V, E)` of the paper's routing model: routes flow
/// along directed edges, so a bidirectional link is two edges.
///
/// # Example
///
/// ```
/// use timepiece_topology::Topology;
///
/// let mut g = Topology::new();
/// let a = g.add_node("a");
/// let b = g.add_node("b");
/// g.add_edge(a, b);
/// assert_eq!(g.preds(b), &[a]);
/// assert_eq!(g.succs(a), &[b]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    names: Vec<String>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
    by_name: HashMap<String, NodeId>,
    edge_count: usize,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Adds a node with a unique name and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a node with this name already exists.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        assert!(!self.by_name.contains_key(&name), "duplicate node name {name:?}");
        let id = NodeId(self.names.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Adds the directed edge `u → v` (idempotent).
    ///
    /// Returns `true` if the edge is new.
    ///
    /// # Panics
    ///
    /// Panics on self loops, which have no meaning in the routing model.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert_ne!(u, v, "self loops are not allowed");
        if self.succs[u.index()].contains(&v) {
            return false;
        }
        self.succs[u.index()].push(v);
        self.preds[v.index()].push(u);
        self.edge_count += 1;
        true
    }

    /// Adds both directions of a link.
    pub fn add_undirected(&mut self, u: NodeId, v: NodeId) {
        self.add_edge(u, v);
        self.add_edge(v, u);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.names.len() as u32).map(NodeId)
    }

    /// Iterates over all directed edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| self.succs(u).iter().map(move |&v| (u, v)))
    }

    /// The name of a node.
    pub fn name(&self, v: NodeId) -> &str {
        &self.names[v.index()]
    }

    /// Looks up a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// The node's *class stem*: its name up to the first `-`.
    ///
    /// Every generator in this workspace names nodes `<class>-<position>`
    /// (`core-3`, `agg-0-1`, `edge-2-0`, `internal-5`, `peer-17`, …), so the
    /// stem is a coarse symmetry class whose members share policy shape and
    /// verification cost. The checker tags each node's span with it, and
    /// `repro profile` rolls per-class costs up by it.
    pub fn node_class(&self, v: NodeId) -> &str {
        let name = self.name(v);
        name.split_once('-').map_or(name, |(stem, _)| stem)
    }

    /// In-neighbors of `v` (the `preds(v)` of the paper).
    pub fn preds(&self, v: NodeId) -> &[NodeId] {
        &self.preds[v.index()]
    }

    /// Out-neighbors of `v`.
    pub fn succs(&self, v: NodeId) -> &[NodeId] {
        &self.succs[v.index()]
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.preds[v.index()].len()
    }

    /// BFS distances (in hops, following edge direction) from `from` to every
    /// node; `None` for unreachable nodes.
    pub fn bfs_distances(&self, from: NodeId) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.node_count()];
        let mut queue = std::collections::VecDeque::new();
        dist[from.index()] = Some(0);
        queue.push_back(from);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].expect("queued nodes have distances");
            for &v in self.succs(u) {
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// The graph diameter (longest finite shortest-path distance), or `None`
    /// for an empty graph.
    pub fn diameter(&self) -> Option<u32> {
        self.nodes().flat_map(|v| self.bfs_distances(v).into_iter().flatten()).max()
    }

    /// Renders the topology in Graphviz DOT format.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph G {\n");
        for v in self.nodes() {
            writeln!(out, "  {} [label=\"{}\"];", v, self.name(v)).expect("writing to string");
        }
        for (u, v) in self.edges() {
            writeln!(out, "  {u} -> {v};").expect("writing to string");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Topology, [NodeId; 4]) {
        // a -> b, a -> c, b -> d, c -> d
        let mut g = Topology::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        (g, [a, b, c, d])
    }

    #[test]
    fn node_class_is_the_name_stem() {
        let mut g = Topology::new();
        let core = g.add_node("core-3");
        let agg = g.add_node("agg-0-1");
        let plain = g.add_node("hijacker");
        assert_eq!(g.node_class(core), "core");
        assert_eq!(g.node_class(agg), "agg");
        assert_eq!(g.node_class(plain), "hijacker");
    }

    #[test]
    fn counts_and_lookup() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.node_by_name("c"), Some(c));
        assert_eq!(g.node_by_name("zzz"), None);
        assert_eq!(g.name(a), "a");
        assert_eq!(g.preds(d), &[b, c]);
        assert_eq!(g.succs(a), &[b, c]);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.in_degree(a), 0);
    }

    #[test]
    fn edges_are_deduplicated() {
        let mut g = Topology::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        assert!(g.add_edge(a, b));
        assert!(!g.add_edge(a, b));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loops_rejected() {
        let mut g = Topology::new();
        let a = g.add_node("a");
        g.add_edge(a, a);
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_rejected() {
        let mut g = Topology::new();
        g.add_node("a");
        g.add_node("a");
    }

    #[test]
    fn bfs_follows_direction() {
        let (g, [a, _, _, d]) = diamond();
        let dist = g.bfs_distances(a);
        assert_eq!(dist[d.index()], Some(2));
        // edges are directed: nothing reaches a
        let back = g.bfs_distances(d);
        assert_eq!(back[a.index()], None);
    }

    #[test]
    fn diameter_of_diamond() {
        let (g, _) = diamond();
        assert_eq!(g.diameter(), Some(2));
        assert_eq!(Topology::new().diameter(), None);
    }

    #[test]
    fn undirected_adds_both() {
        let mut g = Topology::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_undirected(a, b);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.preds(a), &[b]);
    }

    #[test]
    fn edges_iterator_matches_count() {
        let (g, _) = diamond();
        assert_eq!(g.edges().count(), g.edge_count());
    }

    #[test]
    fn dot_mentions_all_nodes() {
        let (g, _) = diamond();
        let dot = g.to_dot();
        for v in g.nodes() {
            assert!(dot.contains(g.name(v)));
        }
        assert!(dot.contains("->"));
    }
}
