//! The global hash-consing arena behind every [`Expr`].
//!
//! Every term in the process is interned here: construction computes a
//! structural hash, probes the arena for an existing node with the same
//! shallow structure (children compare by identity — they are already
//! canonical), and either reuses the canonical [`Arc`] or allocates a new
//! node with a fresh, stable [`InternId`]. Two consequences the rest of the
//! workspace builds on:
//!
//! * **equality is O(1)** — structurally equal terms are pointer-equal, so
//!   `Expr::same_node` (and `==`) is a pointer comparison, and the smart
//!   constructors' identity folds (`x.eq(x)`, `ite` with identical branches)
//!   fire for *any* structurally equal operands, however they were built;
//! * **identities are stable** — an [`InternId`] is never reused for a
//!   different structure, so backend caches keyed by id (the SMT encoder's
//!   compiled-term cache in particular) stay valid across rows of a sweep,
//!   across `SolverSession`s, and for the life of the process.
//!
//! The probe follows the double-checked `get_or_init` shape of a concurrent
//! map: an optimistic read-lock probe serves the hot path (terms are built
//! far more often than new structures appear), and a miss re-probes under
//! the write lock before inserting, so two threads racing to intern the same
//! structure converge on one canonical node.
//!
//! The arena deliberately never evicts: canonical nodes must outlive every
//! id-keyed cache entry, and eviction would reintroduce the ABA hazard that
//! address-based identities had. [`stats`] reports the retained footprint so
//! callers can see what that policy costs.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use timepiece_trace::Counter;

use crate::expr::{Expr, ExprKind};

/// The arena's mirrors in the shared metrics registry, so `repro profile`
/// and metrics snapshots see intern traffic next to every other subsystem.
/// Handles are cached: the steady-state cost per intern is two relaxed
/// atomic adds (plus two clock reads when tracing is armed — interning is
/// far too hot for per-call spans, so its time is accumulated here instead).
struct ArenaMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    intern_ns: Arc<Counter>,
}

fn arena_metrics() -> &'static ArenaMetrics {
    static M: OnceLock<ArenaMetrics> = OnceLock::new();
    M.get_or_init(|| ArenaMetrics {
        hits: timepiece_trace::counter("expr.arena.intern_hits"),
        misses: timepiece_trace::counter("expr.arena.intern_misses"),
        intern_ns: timepiece_trace::counter("expr.arena.intern_ns"),
    })
}

/// The stable identity of an interned term.
///
/// Ids are assigned in interning order and never reused; structurally equal
/// terms have the same id and distinct structures have distinct ids. They
/// are meaningful within one process only — do not persist them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InternId(u64);

impl InternId {
    /// The raw index, for diagnostics.
    pub fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for InternId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One canonical node: the structure plus its precomputed identity and hash.
#[derive(Debug)]
pub(crate) struct ExprNode {
    pub(crate) kind: ExprKind,
    pub(crate) id: InternId,
    pub(crate) hash: u64,
}

/// Counters describing the arena's contents and traffic.
///
/// Snapshots are monotone (the arena never evicts), so per-phase costs fall
/// out of [`ArenaStats::delta_since`] on two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Distinct terms currently interned.
    pub terms: u64,
    /// Constructions served by an existing canonical node.
    pub hits: u64,
    /// Constructions that interned a new node.
    pub misses: u64,
    /// Approximate retained bytes (nodes plus their owned heap data).
    pub bytes: u64,
}

impl ArenaStats {
    /// Total constructions observed (hits + misses).
    pub fn constructed(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of constructions served by an existing node, in `0.0..=1.0`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.constructed();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Constructions per distinct term: how many times the average structure
    /// was (re)built. `1.0` means no sharing; higher is more dedup.
    pub fn dedup_ratio(&self) -> f64 {
        self.constructed() as f64 / self.terms.max(1) as f64
    }

    /// The traffic between an `earlier` snapshot and this one.
    pub fn delta_since(&self, earlier: &ArenaStats) -> ArenaStats {
        ArenaStats {
            terms: self.terms.saturating_sub(earlier.terms),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

struct Arena {
    /// Structural hash → every distinct node with that hash. Buckets hold
    /// the (rare) collisions; membership within a bucket is decided by
    /// shallow structural equality.
    nodes: RwLock<BTreeMap<u64, Vec<Arc<ExprNode>>>>,
    next_id: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes: AtomicU64,
}

static ARENA: Arena = Arena {
    nodes: RwLock::new(BTreeMap::new()),
    next_id: AtomicU64::new(0),
    hits: AtomicU64::new(0),
    misses: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};

/// A snapshot of the global arena's counters.
pub fn stats() -> ArenaStats {
    ArenaStats {
        terms: ARENA.next_id.load(Ordering::Relaxed),
        hits: ARENA.hits.load(Ordering::Relaxed),
        misses: ARENA.misses.load(Ordering::Relaxed),
        bytes: ARENA.bytes.load(Ordering::Relaxed),
    }
}

/// Interns `kind`, returning the canonical term for its structure.
///
/// `kind`'s children are already canonical (every `Expr` in existence came
/// out of this function), so the probe hashes and compares one level deep
/// only — child comparisons are pointer comparisons.
pub(crate) fn intern(kind: ExprKind) -> Expr {
    let timed = timepiece_trace::enabled().then(timepiece_trace::now_ns);
    let expr = intern_probe(kind);
    if let Some(start) = timed {
        arena_metrics().intern_ns.add(timepiece_trace::now_ns().saturating_sub(start));
    }
    expr
}

fn intern_probe(kind: ExprKind) -> Expr {
    let hash = shallow_hash(&kind);
    // optimistic read-lock probe: the common case is an already-interned
    // structure, and readers don't serialize
    {
        let nodes = ARENA.nodes.read().expect("arena lock poisoned");
        if let Some(node) = find(&nodes, hash, &kind) {
            ARENA.hits.fetch_add(1, Ordering::Relaxed);
            arena_metrics().hits.inc();
            return Expr(node);
        }
    }
    // miss: take the write lock and re-probe — another thread may have
    // interned the same structure between the two acquisitions
    let mut nodes = ARENA.nodes.write().expect("arena lock poisoned");
    if let Some(node) = find(&nodes, hash, &kind) {
        ARENA.hits.fetch_add(1, Ordering::Relaxed);
        arena_metrics().hits.inc();
        return Expr(node);
    }
    ARENA.misses.fetch_add(1, Ordering::Relaxed);
    arena_metrics().misses.inc();
    ARENA.bytes.fetch_add(approx_bytes(&kind), Ordering::Relaxed);
    let id = InternId(ARENA.next_id.fetch_add(1, Ordering::Relaxed));
    let node = Arc::new(ExprNode { kind, id, hash });
    nodes.entry(hash).or_default().push(Arc::clone(&node));
    Expr(node)
}

fn find(
    nodes: &BTreeMap<u64, Vec<Arc<ExprNode>>>,
    hash: u64,
    kind: &ExprKind,
) -> Option<Arc<ExprNode>> {
    nodes.get(&hash)?.iter().find(|n| n.kind == *kind).map(Arc::clone)
}

/// Hashes one level of structure: the node's own data plus its children's
/// *stored* hashes. Deterministic within a build (fixed-key SipHash), which
/// is all the id-keyed caches need — ids never cross process boundaries.
fn shallow_hash(kind: &ExprKind) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    kind.hash(&mut h);
    h.finish()
}

/// A rough per-node footprint: the node itself plus the heap its fields own.
/// Estimates only — good enough to watch growth, not an allocator audit.
fn approx_bytes(kind: &ExprKind) -> u64 {
    let owned = match kind {
        ExprKind::Var(name, _) => name.len(),
        ExprKind::Const(_) | ExprKind::None(_) => 0,
        ExprKind::And(xs) | ExprKind::Or(xs) | ExprKind::MkRecord(_, xs) => {
            xs.len() * std::mem::size_of::<Expr>()
        }
        ExprKind::GetField(_, s)
        | ExprKind::SetContains(_, s)
        | ExprKind::SetAdd(_, s)
        | ExprKind::SetRemove(_, s) => s.len(),
        ExprKind::WithField(_, s, _) => s.len(),
        _ => 0,
    };
    (std::mem::size_of::<ExprNode>() + owned) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;

    #[test]
    fn structurally_equal_terms_intern_once() {
        let a = Expr::var("arena-test-x", Type::Int).add(Expr::int(1));
        let b = Expr::var("arena-test-x", Type::Int).add(Expr::int(1));
        assert_eq!(a.node_id(), b.node_id());
        assert!(a.same_node(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_structures_get_distinct_ids() {
        let a = Expr::var("arena-test-y", Type::Int);
        let b = Expr::var("arena-test-y", Type::Bool);
        assert_ne!(a.node_id(), b.node_id());
        assert_ne!(a, b);
    }

    #[test]
    fn stats_count_traffic() {
        let before = stats();
        // a fresh structure: one miss, then a hit on reconstruction
        let salt = "arena-stats-probe";
        let a = Expr::var(salt, Type::Int).add(Expr::var(salt, Type::Int));
        let after_first = stats();
        assert!(after_first.misses > before.misses);
        assert!(after_first.bytes > before.bytes);
        let b = Expr::var(salt, Type::Int).add(Expr::var(salt, Type::Int));
        let after_second = stats();
        // the counters are process-global and sibling tests intern
        // concurrently, so "all hits" is read off the structure itself
        assert_eq!(b.node_id(), a.node_id(), "rebuild must be all hits");
        let delta = after_second.delta_since(&after_first);
        assert!(delta.hits >= 2);
        assert!(after_second.hit_rate() > 0.0);
        assert!(after_second.dedup_ratio() >= 1.0);
    }

    #[test]
    fn intern_traffic_is_mirrored_into_the_metrics_registry() {
        use timepiece_trace::metrics::counter_value;
        let (misses_before, hits_before) =
            (counter_value("expr.arena.intern_misses"), counter_value("expr.arena.intern_hits"));
        let salt = "arena-registry-probe";
        let _a = Expr::var(salt, Type::Int);
        let _b = Expr::var(salt, Type::Int);
        assert!(counter_value("expr.arena.intern_misses") > misses_before);
        assert!(counter_value("expr.arena.intern_hits") > hits_before);
    }

    #[test]
    fn intern_id_displays_with_index() {
        let e = Expr::bool(true);
        assert_eq!(format!("{}", e.node_id()), format!("#{}", e.node_id().index()));
    }
}
