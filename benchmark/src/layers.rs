//! The layer walk: the workload's inputs taken through each layer's public
//! functions on the calling thread, each call under a span of the
//! benchmark's own so the program's spans nest beneath it.

use std::time::{Duration, Instant};

use timepiece_core::vc::{inductive_vc, initial_vc, safety_vc};
use timepiece_expr::arena;
use timepiece_nets::BenchInstance;
use timepiece_smt::{Encoder, SolverSession, Validity, Vc};
use timepiece_topology::FatTree;
use timepiece_trace::{Phase, SpanKind, SpanRecord, Trace};

use crate::engine::Samples;
use crate::util::{median, ms};

/// Per-condition solver budget everywhere. No benchmark condition comes
/// near it; one that does is counted in `smt.timeouts` and as a failure.
pub const SOLVER_TIMEOUT: Duration = Duration::from_secs(60);

/// The name of the benchmark span around the walk's solver session; solve
/// spans directly beneath it are the walk's `smt.solve_*` samples.
const SMT_CHECK_SPAN: &str = "tpbench:smt.check";

/// Times `f` under a benchmark span named `layer`.
pub fn timed<R>(layer: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = timepiece_trace::span(Phase::Other, format!("tpbench:{layer}"));
    let start = Instant::now();
    let out = f();
    (out, ms(start.elapsed()))
}

/// One layer walk in progress: where its samples go, and what it has
/// checked so far.
#[derive(Debug)]
pub struct Walk<'s> {
    index: usize,
    samples: &'s mut Samples,
    term_lookups: f64,
    /// Conditions (or other operations) the walk checked against a known
    /// answer, and how many were wrong.
    pub attempted: usize,
    pub wrong: usize,
}

impl<'s> Walk<'s> {
    pub fn new(index: usize, samples: &'s mut Samples) -> Walk<'s> {
        Walk { index, samples, term_lookups: 0.0, attempted: 0, wrong: 0 }
    }

    /// Adds `value` to this walk's sample of `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.samples.add(self.index, name, value);
    }

    /// What this walk has added to `name` so far.
    pub fn sample(&self, name: &str) -> f64 {
        self.samples.get(name).get(self.index).copied().unwrap_or(0.0)
    }

    /// Walks one instance: topology → nets → algebra → core (VC
    /// construction) → smt (encode in a scratch encoder, then check in one
    /// session, as one checker worker would). `expected_failing` names the
    /// nodes whose safety condition must be invalid; every other condition
    /// must be valid.
    pub fn instance(
        &mut self,
        fattree_k: Option<usize>,
        build: impl FnOnce() -> BenchInstance,
        expected_failing: &[String],
    ) {
        if let Some(k) = fattree_k {
            let (_, t) = timed("topology.build", || FatTree::new(k));
            self.add("topology.build_ms", t);
        }
        let arena_before = arena::stats();
        let (inst, t) = timed("nets.build", build);
        self.add("nets.build_ms", t);
        let (_, t) = timed("algebra.signature", || inst.network.encoder_signature());
        self.add("algebra.signature_ms", t);

        let net = &inst.network;
        let (conditions, t) = timed("core.vc_build", || {
            net.topology()
                .nodes()
                .flat_map(|v| {
                    [
                        initial_vc(net, &inst.interface, v),
                        inductive_vc(net, &inst.interface, v, 0),
                        safety_vc(net, &inst.interface, &inst.property, v),
                    ]
                })
                .collect::<Vec<Vc>>()
        });
        self.add("core.vc_build_ms", t);
        self.add("core.vcs", conditions.len() as f64);
        let interned = arena::stats().delta_since(&arena_before);
        self.add("expr.terms_constructed", interned.constructed() as f64);
        self.add("expr.terms_new", interned.misses as f64);
        self.add("expr.arena_bytes", interned.bytes as f64);

        // a scratch encoder gives the compiled-term counts in isolation
        let (compiled, _) = timed("smt.compile", || {
            let mut encoder = Encoder::new();
            for vc in &conditions {
                for term in vc.assumptions().iter().chain([vc.goal()]) {
                    encoder.compile_bool(term).expect("benchmark conditions are well-typed");
                }
            }
            encoder.term_cache_stats()
        });
        self.add("smt.terms_compiled", compiled.misses as f64);
        self.term_lookups += compiled.lookups() as f64;

        // one session for the whole instance, as one checker worker would
        // hold; the program's encode and solve spans beneath this span split
        // its time in `finish`
        let _span = timepiece_trace::span(Phase::Other, SMT_CHECK_SPAN);
        let mut session = SolverSession::new(Some(SOLVER_TIMEOUT));
        for vc in &conditions {
            let must_fail = vc
                .name()
                .strip_prefix("safety@")
                .is_some_and(|node| expected_failing.iter().any(|n| n == node));
            self.attempted += 1;
            match session.check(vc).expect("benchmark conditions are well-typed") {
                Validity::Valid => self.wrong += usize::from(must_fail),
                Validity::Invalid(_) => self.wrong += usize::from(!must_fail),
                Validity::Unknown(_) => {
                    self.add("smt.timeouts", 1.0);
                    self.wrong += 1;
                }
            }
        }
    }

    /// Ends the walk: folds in the solver spans of its trace, and the
    /// ratios that need the whole walk's totals.
    pub fn finish(mut self, trace: &Trace) -> (usize, usize) {
        let sessions: Vec<&SpanRecord> =
            trace.spans.iter().filter(|s| s.name == SMT_CHECK_SPAN).collect();
        let under_session = |phase: Phase| -> Vec<f64> {
            trace
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Complete && s.phase == phase)
                .filter(|s| sessions.iter().any(|session| session.id == s.parent))
                .map(|s| s.dur_ns as f64 / 1e6)
                .collect()
        };
        let solves = under_session(Phase::Solve);
        let encode_ms: f64 = under_session(Phase::Encode).iter().sum();
        let session_ms: f64 = sessions.iter().map(|s| s.dur_ns as f64 / 1e6).sum();
        self.add("smt.encode_ms", encode_ms);
        self.add("smt.solve_ms", solves.iter().sum());
        self.add("smt.session_other_ms", session_ms - encode_ms - solves.iter().sum::<f64>());
        self.add("smt.checks", solves.len() as f64);
        self.add("smt.solve_p50_ms", median(&solves));
        self.add("smt.solve_max_ms", solves.iter().copied().fold(0.0, f64::max));
        let constructed = self.sample("expr.terms_constructed");
        if constructed > 0.0 {
            self.add("expr.intern_hit_rate", 1.0 - self.sample("expr.terms_new") / constructed);
        }
        if self.term_lookups > 0.0 {
            let hit_rate = 1.0 - self.sample("smt.terms_compiled") / self.term_lookups;
            self.add("smt.term_cache_hit_rate", hit_rate);
        }
        // the solver's share of the walk's layer time: the split the two
        // batch workloads exist to make different
        let layer_ms: f64 = [
            "topology.build_ms",
            "nets.build_ms",
            "algebra.signature_ms",
            "core.vc_build_ms",
            "smt.encode_ms",
            "smt.solve_ms",
            "smt.session_other_ms",
        ]
        .iter()
        .map(|name| self.sample(name))
        .sum();
        if layer_ms > 0.0 {
            self.add("smt.solve_share", self.sample("smt.solve_ms") / layer_ms);
        }
        (self.attempted, self.wrong)
    }
}
