//! Phase-attributed profiling over a collected [`Trace`].
//!
//! Attribution uses **self time**: a span's duration minus the durations of
//! its direct children, so nested encode/solve spans are not double-counted
//! against the node check that contains them. A `Node` span's self time (its
//! bookkeeping beyond the encode/solve work inside it) lands in the `other`
//! bucket. Intern time is measured by the arena's registry counter (interning
//! is too hot for per-call spans) and passed in by the caller; it overlaps
//! the encode phase rather than partitioning it — the table reports it as an
//! informational column.

use std::collections::HashMap;

use crate::span::{Phase, SpanKind, Trace};

/// One node class's share of the work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassRow {
    /// Node class name (`edge`, `aggregation`, `core`, …).
    pub class: String,
    /// How many node checks carried this class.
    pub nodes: usize,
    /// Total duration of those node spans.
    pub total_ns: u64,
    /// Encode self time nested under them.
    pub encode_ns: u64,
    /// Solve self time nested under them.
    pub solve_ns: u64,
}

/// One node check, for slowest-node attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRow {
    /// The node span's display name.
    pub name: String,
    /// Node class (empty if the span carried none).
    pub class: String,
    /// Verdict annotation (empty if none).
    pub verdict: String,
    /// Full duration of the node span.
    pub total_ns: u64,
    /// Solve self time nested under it.
    pub solve_ns: u64,
}

/// A per-phase / per-class / per-node breakdown of one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Self time attributed to each phase, indexed like [`Phase::ALL`].
    /// `Node` self time is folded into `Other`; `Intern` holds the arena
    /// counter value handed to [`Profile::from_trace`].
    pub phase_self_ns: [u64; Phase::ALL.len()],
    /// Wall-clock extent of the trace (max end − min start), zero if empty.
    pub wall_ns: u64,
    /// Per-class rollup, sorted by descending total.
    pub classes: Vec<ClassRow>,
    /// Every node span, sorted by descending duration.
    pub nodes: Vec<NodeRow>,
}

fn phase_index(phase: Phase) -> usize {
    Phase::ALL.iter().position(|p| *p == phase).expect("phase in ALL")
}

impl Profile {
    /// Computes the breakdown. `intern_ns` is the arena's accumulated
    /// interning time (from the metrics registry); pass zero when profiling
    /// a trace from another process whose registry is gone.
    pub fn from_trace(trace: &Trace, intern_ns: u64) -> Profile {
        let mut profile = Profile::default();
        profile.phase_self_ns[phase_index(Phase::Intern)] = intern_ns;

        // parent links and per-parent child-duration sums (complete spans
        // only; instants carry no time)
        let mut meta: HashMap<u64, (Phase, u64)> = HashMap::new();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for span in &trace.spans {
            if span.kind != SpanKind::Complete {
                continue;
            }
            meta.insert(span.id, (span.phase, span.parent));
            *child_ns.entry(span.parent).or_default() += span.dur_ns;
        }

        // nearest enclosing Node span, walking parent links (bounded: the
        // parent forest is acyclic, but a truncated trace could be missing
        // links, so give up rather than spin)
        let enclosing_node = |mut id: u64| -> Option<u64> {
            for _ in 0..64 {
                let (phase, parent) = *meta.get(&id)?;
                if phase == Phase::Node {
                    return Some(id);
                }
                id = parent;
            }
            None
        };

        let mut node_solve: HashMap<u64, u64> = HashMap::new();
        let mut node_encode: HashMap<u64, u64> = HashMap::new();
        let mut min_start = u64::MAX;
        let mut max_end = 0u64;
        for span in &trace.spans {
            min_start = min_start.min(span.start_ns);
            max_end = max_end.max(span.end_ns());
            if span.kind != SpanKind::Complete {
                continue;
            }
            let self_ns = span.dur_ns.saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
            let bucket = if span.phase == Phase::Node { Phase::Other } else { span.phase };
            profile.phase_self_ns[phase_index(bucket)] += self_ns;
            if matches!(span.phase, Phase::Solve | Phase::Encode) {
                if let Some(node) = enclosing_node(span.parent) {
                    let sums =
                        if span.phase == Phase::Solve { &mut node_solve } else { &mut node_encode };
                    *sums.entry(node).or_default() += self_ns;
                }
            }
        }
        profile.wall_ns = max_end.saturating_sub(min_start.min(max_end));

        let mut classes: HashMap<String, ClassRow> = HashMap::new();
        for span in &trace.spans {
            if span.kind != SpanKind::Complete || span.phase != Phase::Node {
                continue;
            }
            let class = span.arg("class").unwrap_or("").to_owned();
            let solve_ns = node_solve.get(&span.id).copied().unwrap_or(0);
            let encode_ns = node_encode.get(&span.id).copied().unwrap_or(0);
            profile.nodes.push(NodeRow {
                name: span.name.clone(),
                class: class.clone(),
                verdict: span.arg("verdict").unwrap_or("").to_owned(),
                total_ns: span.dur_ns,
                solve_ns,
            });
            let row = classes.entry(class.clone()).or_insert_with(|| ClassRow {
                class,
                nodes: 0,
                total_ns: 0,
                encode_ns: 0,
                solve_ns: 0,
            });
            row.nodes += 1;
            row.total_ns += span.dur_ns;
            row.encode_ns += encode_ns;
            row.solve_ns += solve_ns;
        }
        profile.nodes.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        profile.classes = classes.into_values().collect();
        profile.classes.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.class.cmp(&b.class)));
        profile
    }

    /// Self time attributed to `phase`.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.phase_self_ns[phase_index(phase)]
    }

    /// Sum of all phase buckets except `intern` (which overlaps encode
    /// rather than partitioning the time).
    pub fn accounted_ns(&self) -> u64 {
        Phase::ALL.iter().filter(|p| **p != Phase::Intern).map(|p| self.phase_ns(*p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanRecord;

    fn complete(
        id: u64,
        parent: u64,
        phase: Phase,
        name: &str,
        start: u64,
        dur: u64,
        args: &[(&str, &str)],
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            kind: SpanKind::Complete,
            phase,
            name: name.to_owned(),
            start_ns: start,
            dur_ns: dur,
            tid: 1,
            args: args.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect(),
        }
    }

    fn sample() -> Trace {
        Trace {
            spans: vec![
                // node A (edge): 100 total = 20 encode + 60 solve + 20 self
                complete(1, 0, Phase::Node, "A", 0, 100, &[("class", "edge"), ("verdict", "ok")]),
                complete(2, 1, Phase::Encode, "A/vc", 5, 20, &[]),
                complete(3, 1, Phase::Solve, "A/vc", 30, 60, &[]),
                // node B (core): 50 total = 40 solve + 10 self
                complete(4, 0, Phase::Node, "B", 100, 50, &[("class", "core"), ("verdict", "ok")]),
                complete(5, 4, Phase::Solve, "B/vc", 105, 40, &[]),
                // top-level idle
                complete(6, 0, Phase::Idle, "claim", 150, 30, &[]),
            ],
            threads: vec![],
        }
    }

    #[test]
    fn self_time_subtracts_children_and_folds_node_into_other() {
        let p = Profile::from_trace(&sample(), 7);
        assert_eq!(p.phase_ns(Phase::Encode), 20);
        assert_eq!(p.phase_ns(Phase::Solve), 100);
        assert_eq!(p.phase_ns(Phase::Idle), 30);
        assert_eq!(p.phase_ns(Phase::Intern), 7);
        assert_eq!(p.phase_ns(Phase::Node), 0, "node self time folds into other");
        assert_eq!(p.phase_ns(Phase::Other), 30);
        assert_eq!(p.wall_ns, 180);
        assert_eq!(p.accounted_ns(), 180);
    }

    #[test]
    fn classes_and_nodes_attribute_nested_work() {
        let p = Profile::from_trace(&sample(), 0);
        assert_eq!(p.nodes.len(), 2);
        assert_eq!(p.nodes[0].name, "A", "sorted by descending duration");
        assert_eq!(p.nodes[0].solve_ns, 60);
        assert_eq!(p.nodes[0].verdict, "ok");
        assert_eq!(p.nodes[1].solve_ns, 40);
        let edge = p.classes.iter().find(|c| c.class == "edge").unwrap();
        assert_eq!((edge.nodes, edge.total_ns, edge.encode_ns, edge.solve_ns), (1, 100, 20, 60));
        let core = p.classes.iter().find(|c| c.class == "core").unwrap();
        assert_eq!((core.nodes, core.total_ns, core.encode_ns, core.solve_ns), (1, 50, 0, 40));
    }

    #[test]
    fn empty_trace_profiles_to_zero() {
        let p = Profile::from_trace(&Trace::default(), 0);
        assert_eq!(p.wall_ns, 0);
        assert_eq!(p.accounted_ns(), 0);
        assert!(p.nodes.is_empty() && p.classes.is_empty());
    }
}
