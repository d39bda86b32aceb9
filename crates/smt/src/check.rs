//! Validity checking of verification conditions.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use timepiece_expr::{Env, Expr};
use z3::{InterruptHandle, SatResult, Solver};

use crate::encode::{Encoder, TermCacheStats};
use crate::error::SmtError;

/// A named verification condition: prove `goal` under `assumptions`.
///
/// Assumptions typically constrain symbolic inputs (e.g. "the external route
/// is not tagged internal", "t ≥ 0"); per the paper (§4) they are assumed, not
/// checked.
#[derive(Debug, Clone)]
pub struct Vc {
    name: String,
    assumptions: Vec<Expr>,
    goal: Expr,
}

impl Vc {
    /// Creates a verification condition.
    pub fn new(
        name: impl Into<String>,
        assumptions: impl IntoIterator<Item = Expr>,
        goal: Expr,
    ) -> Vc {
        Vc { name: name.into(), assumptions: assumptions.into_iter().collect(), goal }
    }

    /// The condition's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The assumptions.
    pub fn assumptions(&self) -> &[Expr] {
        &self.assumptions
    }

    /// The goal to prove valid.
    pub fn goal(&self) -> &Expr {
        &self.goal
    }
}

/// A counterexample to a verification condition: a concrete assignment to
/// every free variable under which the assumptions hold but the goal fails.
#[derive(Debug, Clone)]
pub struct CounterExample {
    /// The name of the violated condition.
    pub vc_name: String,
    /// The falsifying assignment, decodable by the reference interpreter.
    pub assignment: Env,
}

impl fmt::Display for CounterExample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counterexample to {}:", self.vc_name)?;
        let mut entries: Vec<_> = self.assignment.iter().collect();
        entries.sort_by_key(|(k, _)| k.to_owned());
        for (name, value) in entries {
            writeln!(f, "  {name} = {value}")?;
        }
        Ok(())
    }
}

/// The outcome of a validity check.
#[derive(Debug, Clone)]
pub enum Validity {
    /// The goal holds for all assignments satisfying the assumptions.
    Valid,
    /// The goal fails for the returned assignment.
    Invalid(Box<CounterExample>),
    /// The solver gave up (timeout or incompleteness), with its reason.
    Unknown(String),
}

impl Validity {
    /// Is this `Valid`?
    pub fn is_valid(&self) -> bool {
        matches!(self, Validity::Valid)
    }
}

/// An incremental validity-checking session: one Z3 solver (and one term
/// encoder) discharging a *sequence* of verification conditions.
///
/// Each [`SolverSession::check`] runs inside a `push`/`pop` scope, so the
/// conditions stay logically independent while the solver context, variable
/// declarations and compiled-term cache are reused. The modular checker
/// discharges a node's three conditions on one session instead of three
/// fresh solvers.
///
/// Sessions live on the calling thread's Z3 context and cannot move between
/// threads; create one per worker.
///
/// # Example
///
/// ```
/// use timepiece_expr::{Expr, Type};
/// use timepiece_smt::{SolverSession, Vc};
///
/// let x = Expr::var("x", Type::Int);
/// let mut session = SolverSession::new(None);
/// let good = Vc::new("good", [x.clone().gt(Expr::int(2))], x.clone().gt(Expr::int(1)));
/// let bad = Vc::new("bad", [], x.ge(Expr::int(0)));
/// assert!(session.check(&good)?.is_valid());
/// assert!(!session.check(&bad)?.is_valid());
/// # Ok::<(), timepiece_smt::SmtError>(())
/// ```
#[derive(Debug)]
pub struct SolverSession {
    enc: Encoder,
    solver: Solver,
    /// Variables declared before this index have their well-formedness
    /// constraints *permanently* asserted at the solver's base level; later
    /// checks need not repeat them. Variables declared inside a check's
    /// scope get scoped assertions first, then are promoted to permanent on
    /// the next check — so per-check assertion work stays proportional to
    /// *newly seen* variables instead of every variable the session ever
    /// declared (long-lived batched sessions would otherwise age
    /// quadratically).
    wf_promoted: usize,
    /// Conditions discharged since creation (see [`SolverSession::checks`]).
    checks: u64,
}

impl SolverSession {
    /// Creates a session on the thread's Z3 context, optionally bounding each
    /// check's solver time.
    pub fn new(timeout: Option<Duration>) -> SolverSession {
        let solver = Solver::new();
        if let Some(t) = timeout {
            let mut params = z3::Params::new();
            // round sub-millisecond budgets up so a tiny timeout stays a timeout
            params.set_u32("timeout", t.as_millis().clamp(1, u128::from(u32::MAX)) as u32);
            solver.set_params(&params);
        }
        SolverSession { enc: Encoder::new(), solver, wf_promoted: 0, checks: 0 }
    }

    /// Checks whether one verification condition is valid.
    ///
    /// # Errors
    ///
    /// Returns [`SmtError`] if the condition is ill-typed or a counterexample
    /// model cannot be decoded.
    pub fn check(&mut self, vc: &Vc) -> Result<Validity, SmtError> {
        // promote well-formedness of variables declared by earlier checks to
        // the base level: their declarations outlive the pops, so their
        // invariants may too (they are per-variable facts, not part of any
        // one condition)
        for wf in self.enc.well_formed_from(self.wf_promoted) {
            self.solver.assert(wf);
        }
        self.wf_promoted = self.enc.decl_count();
        self.checks += 1;
        timepiece_trace::instant(timepiece_trace::Phase::Other, "push");
        self.solver.push();
        let result = self.check_pushed(vc);
        self.solver.pop(1);
        timepiece_trace::instant(timepiece_trace::Phase::Other, "pop");
        result
    }

    /// Hit/miss counters of this session's compiled-term cache.
    ///
    /// The cache is keyed by stable intern ids, so hits accumulate across
    /// every condition this session ever discharged — including conditions
    /// from *earlier sweep rows* when the session lives in a pool.
    pub fn term_cache_stats(&self) -> TermCacheStats {
        self.enc.term_cache_stats()
    }

    /// How many conditions this session has discharged since it was created.
    ///
    /// The solver behind a session does not give everything back on `pop`:
    /// with the system libz3, one solver re-checking the same small
    /// conditions grows by some tens of bytes per check for as long as it
    /// lives, and only dropping it returns the memory. Together with
    /// [`SolverSession::compiled_terms`] this is what a long-lived owner
    /// budgets a session's age by ([`SessionPool::end_job`]).
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// How many compiled terms (live solver ASTs) this session's encoder
    /// cache holds.
    pub fn compiled_terms(&self) -> usize {
        self.enc.compiled_terms()
    }

    /// Runs `work` on this session, then forgets the terms it compiled: the
    /// encoder cache ends up holding what it held before (variables stay
    /// declared). For conditions the owner does not expect again — a pool
    /// worker checking a node it stole from another — so that a long-lived
    /// session keeps only what it will reuse.
    pub fn scratch<R>(&mut self, work: impl FnOnce(&mut SolverSession) -> R) -> R {
        self.enc.open_scratch();
        let result = work(self);
        self.enc.drop_scratch();
        result
    }

    /// A [`Send`]/[`Sync`] handle another thread can use to interrupt this
    /// session's in-flight solver call (the check then reports
    /// [`Validity::Unknown`], or is dropped entirely under
    /// [`SolverSession::check_cancellable`]). Interrupting a session with no
    /// check in flight, or one that was since dropped, is a no-op.
    pub fn interrupt_handle(&self) -> InterruptHandle {
        self.solver.interrupt_handle()
    }

    /// [`SolverSession::check`] with cooperative cancellation: the `cancel`
    /// flag is consulted *between* push/pop scopes — before opening the
    /// check's scope and again after it closes — so a canceller never
    /// corrupts the session's incremental state.
    ///
    /// Returns `Ok(None)` when the check was abandoned: the flag was already
    /// set, or it was raised mid-check and the solver gave up (an `Unknown`
    /// under a raised flag is indistinguishable from the interrupt artifact,
    /// so it is discarded rather than reported). A check that *completed*
    /// with a definite verdict is returned even if the flag rose meanwhile.
    ///
    /// Pair the flag with [`SolverSession::interrupt_handle`] to also abort
    /// long solver calls already in flight; without the interrupt, the
    /// current call runs to completion before the flag is seen.
    ///
    /// # Errors
    ///
    /// As [`SolverSession::check`].
    pub fn check_cancellable(
        &mut self,
        vc: &Vc,
        cancel: &AtomicBool,
    ) -> Result<Option<Validity>, SmtError> {
        if cancel.load(Ordering::Acquire) {
            timepiece_trace::instant(timepiece_trace::Phase::Other, "cancel-skip");
            return Ok(None);
        }
        let result = self.check(vc)?;
        if matches!(result, Validity::Unknown(_)) && cancel.load(Ordering::Acquire) {
            timepiece_trace::instant(timepiece_trace::Phase::Other, "cancel-interrupt");
            return Ok(None);
        }
        Ok(Some(result))
    }

    fn check_pushed(&mut self, vc: &Vc) -> Result<Validity, SmtError> {
        {
            let _encode = timepiece_trace::span(timepiece_trace::Phase::Encode, vc.name());
            for a in &vc.assumptions {
                let compiled = self.enc.compile_bool(a)?;
                self.solver.assert(compiled);
            }
            let goal = self.enc.compile_bool(&vc.goal)?;
            // variables first declared by *this* condition get their
            // well-formedness constraints inside the scope (the pop removes
            // them; the next check promotes them to the base level)
            for wf in self.enc.well_formed_from(self.wf_promoted) {
                self.solver.assert(wf);
            }
            self.solver.assert(goal.not());
        }
        let sat = {
            let mut solve = timepiece_trace::span(timepiece_trace::Phase::Solve, vc.name());
            let sat = self.solver.check();
            solve.arg(
                "result",
                match sat {
                    SatResult::Unsat => "unsat",
                    SatResult::Sat => "sat",
                    SatResult::Unknown => "unknown",
                },
            );
            sat
        };
        match sat {
            SatResult::Unsat => Ok(Validity::Valid),
            SatResult::Sat => {
                let model = self
                    .solver
                    .get_model()
                    .ok_or_else(|| SmtError::ModelDecode("missing model".to_owned()))?;
                let assignment = self.enc.decode_model(&model)?;
                Ok(Validity::Invalid(Box::new(CounterExample {
                    vc_name: vc.name().to_owned(),
                    assignment,
                })))
            }
            SatResult::Unknown => Ok(Validity::Unknown(
                self.solver.get_reason_unknown().unwrap_or_else(|| "unknown".to_owned()),
            )),
        }
    }
}

/// Checks whether a verification condition is valid, optionally bounding
/// solver time.
///
/// One-shot convenience over [`SolverSession`]: a fresh solver per call. The
/// check runs on the calling thread's Z3 context; independent conditions may
/// be checked concurrently from different threads.
///
/// # Errors
///
/// Returns [`SmtError`] if the condition is ill-typed or a counterexample
/// model cannot be decoded.
///
/// # Example
///
/// ```
/// use timepiece_expr::{Expr, Type};
/// use timepiece_smt::{check_validity, Validity, Vc};
///
/// let x = Expr::var("x", Type::Int);
/// let vc = Vc::new("bad", [], x.ge(Expr::int(0)));
/// match check_validity(&vc, None)? {
///     Validity::Invalid(cex) => {
///         let v = cex.assignment.get("x").unwrap().as_int().unwrap();
///         assert!(v < 0);
///     }
///     other => panic!("expected a counterexample, got {other:?}"),
/// }
/// # Ok::<(), timepiece_smt::SmtError>(())
/// ```
pub fn check_validity(vc: &Vc, timeout: Option<Duration>) -> Result<Validity, SmtError> {
    SolverSession::new(timeout).check(vc)
}

/// A pool's sessions are retired once their encoder caches together hold
/// this many times the compiled terms the largest single job added. One
/// compiled copy of the instance per worker is the floor (an edited network
/// keeps its declarations, hence its session); the rest of the budget is
/// room for the terms of instances since edited away — two more copies'
/// worth before the worker starts cold again. Measured on a daemon serving
/// SpReach k=8 edits: 2 thrashes (+26 % time), 3 costs ~4 % and holds the
/// process at its footprint, 4 costs nothing but lets RSS run 9 % higher.
const RETIRE_AT_JOB_TERMS: usize = 3;

/// A pool's sessions are retired once they have together discharged this
/// many times the checks of the largest single job: the solver's per-check
/// residue (see [`SolverSession::checks`]) is then bounded by a megabyte or
/// two per worker, for one cold rebuild every few dozen full checks.
const RETIRE_AT_JOB_CHECKS: u64 = 64;

/// A snapshot of a [`SessionPool`]'s size ([`SessionPool::stats`]). Sums
/// over the pools of several workers with `+`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionPoolStats {
    /// Live sessions.
    pub sessions: usize,
    /// Compiled terms held by the live sessions' encoder caches.
    pub compiled_terms: usize,
    /// Sessions [`SessionPool::end_job`] retired so far.
    pub retirements: usize,
}

impl std::ops::Add for SessionPoolStats {
    type Output = SessionPoolStats;
    fn add(self, rhs: SessionPoolStats) -> SessionPoolStats {
        SessionPoolStats {
            sessions: self.sessions + rhs.sessions,
            compiled_terms: self.compiled_terms + rhs.compiled_terms,
            retirements: self.retirements + rhs.retirements,
        }
    }
}

/// A keyed collection of long-lived [`SolverSession`]s: one per
/// *declaration signature*.
///
/// The only thing two conditions can clash on inside one encoder is a
/// variable's *(name, type)*, so the key names exactly that: conditions
/// that share a signature — the same route type and the same symbolic
/// inputs, hence consistent declarations and well-formedness shapes — are
/// discharged through one session, so the solver context, declarations and
/// compiled-term cache are reused across *every* condition with that
/// signature, not just within one node's. A scheduler worker holds one pool and batches all the nodes it
/// owns through it; terms shared between nodes (symbolic-destination
/// constraints, role-templated interfaces) are then encoded once per worker
/// instead of once per node.
///
/// Like [`SolverSession`], a pool lives on its creating thread.
///
/// # Example
///
/// ```
/// use timepiece_expr::{Expr, Type};
/// use timepiece_smt::{SessionPool, Vc};
///
/// let mut pool = SessionPool::new(None);
/// let x = Expr::var("x", Type::Int);
/// let vc = Vc::new("t", [x.clone().gt(Expr::int(2))], x.gt(Expr::int(1)));
/// assert!(pool.session("int-routes").check(&vc)?.is_valid());
/// assert!(pool.session("int-routes").check(&vc)?.is_valid());
/// assert_eq!(pool.len(), 1); // same signature, same session
/// # Ok::<(), timepiece_smt::SmtError>(())
/// ```
#[derive(Debug)]
pub struct SessionPool {
    timeout: Option<Duration>,
    /// At most this many sessions are kept (`None`: unbounded); opening one
    /// beyond the bound evicts the least-recently-used session.
    capacity: Option<usize>,
    /// Least-recently-used order of signatures (front = coldest).
    order: Vec<String>,
    evictions: usize,
    sessions: HashMap<String, SolverSession>,
    /// What the largest single job so far added to the pool, in compiled
    /// terms and in checks — the unit [`SessionPool::end_job`] measures the
    /// pool's growth in.
    largest_job: (usize, u64),
    /// The live sessions' summed compiled terms and checks when the last job
    /// ended.
    job_mark: (usize, u64),
    retirements: usize,
}

impl SessionPool {
    /// Creates an empty pool; every session it opens uses `timeout`.
    pub fn new(timeout: Option<Duration>) -> SessionPool {
        SessionPool {
            timeout,
            capacity: None,
            order: Vec::new(),
            evictions: 0,
            sessions: HashMap::new(),
            largest_job: (0, 0),
            job_mark: (0, 0),
            retirements: 0,
        }
    }

    /// A pool keeping at most `capacity` sessions, evicting the
    /// least-recently-used one beyond that: a service that checks instances
    /// of many different declaration signatures would otherwise accumulate
    /// one solver context per signature forever. Evicted sessions drop their declarations, compiled-term caches *and*
    /// term-cache counters (so [`SessionPool::term_cache_stats`] only sums
    /// the live sessions).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(timeout: Option<Duration>, capacity: usize) -> SessionPool {
        assert!(capacity > 0, "a session pool needs room for at least one session");
        SessionPool { capacity: Some(capacity), ..SessionPool::new(timeout) }
    }

    /// The session for `signature`, created on first use.
    pub fn session(&mut self, signature: &str) -> &mut SolverSession {
        match self.order.iter().position(|s| s == signature) {
            Some(pos) => {
                // touch: move to the warm end
                let key = self.order.remove(pos);
                self.order.push(key);
            }
            None => {
                self.order.push(signature.to_owned());
                if let Some(cap) = self.capacity {
                    while self.order.len() > cap {
                        let coldest = self.order.remove(0);
                        self.sessions.remove(&coldest);
                        self.evictions += 1;
                    }
                }
            }
        }
        // looked up once per node: no key is allocated for a warm session
        if !self.sessions.contains_key(signature) {
            self.sessions.insert(signature.to_owned(), SolverSession::new(self.timeout));
        }
        self.sessions.get_mut(signature).expect("present or just inserted")
    }

    /// Drops the session for `signature`, if there is one. For the owner of
    /// a session whose check returned an error: a condition that failed to
    /// encode may already have declared variables, at types the next
    /// well-typed condition under the same signature contradicts.
    pub fn discard(&mut self, signature: &str) {
        self.order.retain(|s| s != signature);
        self.sessions.remove(signature);
    }

    /// Marks the end of one job — a batch of checks after which the owner
    /// holds the pool idle — and, if the pool has outgrown the jobs it
    /// serves, retires its sessions; returns how many. Retired sessions are
    /// dropped whole (solver, declarations, compiled terms) and rebuilt
    /// lazily, cold, by the next [`SessionPool::session`] call for their
    /// signature.
    ///
    /// This matters to an owner that lives across many jobs (a daemon's
    /// persistent workers): without it an encoder cache keeps the compiled
    /// form of every term it ever saw — under a stream of edits, mostly
    /// terms of instances long since edited away — and each solver keeps a
    /// per-check residue, so memory tracks the request count. A pool that
    /// only ever ends one job (a one-shot check) has no history to outgrow
    /// and never retires.
    ///
    /// The yardstick is the pool's own history: the most compiled terms and
    /// checks any single job added. The sessions go when together they hold
    /// a fixed multiple of the one, or are a fixed multiple of the other
    /// old — so a pool fed ever larger instances (a sweep over `k`) raises
    /// its own bound and keeps its warm start, and one fed the same instance
    /// again and again retires on age alone. All go at once: the budget is
    /// the pool's, and evicting only the largest session was measured to
    /// hold more memory for more rebuilds.
    pub fn end_job(&mut self) -> usize {
        let (terms, checks) = self.totals();
        self.largest_job.0 = self.largest_job.0.max(terms.saturating_sub(self.job_mark.0));
        self.largest_job.1 = self.largest_job.1.max(checks.saturating_sub(self.job_mark.1));
        let max_terms = self.largest_job.0.saturating_mul(RETIRE_AT_JOB_TERMS);
        let max_checks = self.largest_job.1.saturating_mul(RETIRE_AT_JOB_CHECKS);
        let retired = if terms > max_terms || checks > max_checks {
            self.order.clear();
            self.sessions.drain().count()
        } else {
            0
        };
        self.retirements += retired;
        self.job_mark = self.totals();
        retired
    }

    /// The live sessions' summed compiled terms and checks.
    fn totals(&self) -> (usize, u64) {
        self.sessions
            .values()
            .fold((0, 0), |(terms, checks), s| (terms + s.compiled_terms(), checks + s.checks()))
    }

    /// How many sessions are live, how many compiled terms they hold, and
    /// how many sessions [`SessionPool::end_job`] has retired.
    pub fn stats(&self) -> SessionPoolStats {
        SessionPoolStats {
            sessions: self.sessions.len(),
            compiled_terms: self.totals().0,
            retirements: self.retirements,
        }
    }

    /// How many sessions this pool evicted to stay within its capacity.
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// How many distinct signatures have sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Aggregated compiled-term cache counters across every session in the
    /// pool. Snapshot before and after a batch of checks to attribute the
    /// traffic (hits on structurally shared terms, including terms first
    /// compiled by *previous* batches through the same pool).
    pub fn term_cache_stats(&self) -> TermCacheStats {
        self.sessions
            .values()
            .map(SolverSession::term_cache_stats)
            .fold(TermCacheStats::default(), |acc, s| acc + s)
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timepiece_expr::Type;

    #[test]
    fn valid_condition() {
        let x = Expr::var("x", Type::Int);
        let vc = Vc::new("t", [x.clone().gt(Expr::int(2))], x.gt(Expr::int(1)));
        assert!(check_validity(&vc, None).unwrap().is_valid());
    }

    #[test]
    fn invalid_condition_has_decodable_counterexample() {
        let x = Expr::var("x", Type::Int);
        let vc = Vc::new("t", [x.clone().gt(Expr::int(0))], x.clone().gt(Expr::int(10)));
        match check_validity(&vc, None).unwrap() {
            Validity::Invalid(cex) => {
                // the assignment satisfies assumptions and falsifies the goal
                let env = &cex.assignment;
                assert!(x.clone().gt(Expr::int(0)).eval_bool(env).unwrap());
                assert!(!x.clone().gt(Expr::int(10)).eval_bool(env).unwrap());
            }
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn assumptions_can_make_anything_valid() {
        let x = Expr::var("x", Type::Int);
        let vc = Vc::new("t", [Expr::bool(false)], x.gt(Expr::int(10)));
        assert!(check_validity(&vc, None).unwrap().is_valid());
    }

    #[test]
    fn counterexample_display_lists_assignment() {
        let x = Expr::var("x", Type::Int);
        let vc = Vc::new("myvc", [], x.ge(Expr::int(0)));
        match check_validity(&vc, None).unwrap() {
            Validity::Invalid(cex) => {
                let s = cex.to_string();
                assert!(s.contains("myvc"));
                assert!(s.contains("x ="));
            }
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn session_isolates_conditions_across_pops() {
        let x = Expr::var("x", Type::Int);
        let mut session = SolverSession::new(None);
        // a condition with an unsatisfiable assumption is vacuously valid...
        let vacuous = Vc::new("vacuous", [Expr::bool(false)], x.clone().gt(Expr::int(10)));
        assert!(session.check(&vacuous).unwrap().is_valid());
        // ...and must NOT leak its `false` assumption into later checks
        let bad = Vc::new("bad", [], x.clone().gt(Expr::int(10)));
        assert!(!session.check(&bad).unwrap().is_valid());
        // nor must the previous negated goal constrain this valid one
        let good = Vc::new("good", [x.clone().gt(Expr::int(2))], x.gt(Expr::int(1)));
        assert!(session.check(&good).unwrap().is_valid());
    }

    #[test]
    fn session_reuses_declarations_consistently() {
        // the same variable appears in many conditions; the shared encoder
        // must keep one declaration and still decode models per check
        let x = Expr::var("x", Type::Int);
        let mut session = SolverSession::new(None);
        for bound in [0i64, 5, 50] {
            let vc = Vc::new(format!("gt-{bound}"), [], x.clone().gt(Expr::int(bound)));
            match session.check(&vc).unwrap() {
                Validity::Invalid(cex) => {
                    let v = cex.assignment.get("x").unwrap().as_int().unwrap();
                    assert!(v <= i128::from(bound), "cex {v} for bound {bound}");
                }
                other => panic!("expected invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn scratch_work_leaves_the_term_cache_as_it_found_it() {
        let (x, y) = (Expr::var("x", Type::Int), Expr::var("y", Type::Int));
        let kept = Vc::new("kept", [x.clone().gt(Expr::int(2))], x.clone().gt(Expr::int(1)));
        // shares `x > 2` with `kept`, and brings a variable and terms of its own
        let passing =
            Vc::new("passing", [x.clone().gt(Expr::int(2)), y.clone().gt(x)], y.gt(Expr::int(3)));
        let mut session = SolverSession::new(None);
        assert!(session.check(&kept).unwrap().is_valid());
        let (held, before) = (session.compiled_terms(), session.term_cache_stats());
        assert!(session.scratch(|s| s.check(&passing)).unwrap().is_valid());
        assert_eq!(session.compiled_terms(), held, "the passing condition's terms stayed");
        let during = session.term_cache_stats().delta_since(&before);
        assert!(during.hits > 0 && during.misses > 0, "scratch work uses the cache: {during:?}");
        // what was there before still is, and the forgotten terms compile again
        let again = session.term_cache_stats();
        assert!(session.check(&kept).unwrap().is_valid());
        assert_eq!(session.term_cache_stats().delta_since(&again).misses, 0);
        assert!(session.check(&passing).unwrap().is_valid());
        assert!(session.compiled_terms() > held);
    }

    #[test]
    fn session_rejects_inconsistent_redeclaration() {
        let mut session = SolverSession::new(None);
        let ok = Vc::new("int", [], Expr::var("x", Type::Int).ge(Expr::int(0)));
        let clash = Vc::new("bool", [], Expr::var("x", Type::Bool));
        assert!(session.check(&ok).is_ok());
        assert!(session.check(&clash).is_err());
    }

    #[test]
    fn cancellable_check_skips_when_flag_already_set() {
        let mut session = SolverSession::new(None);
        let vc = Vc::new("t", [], Expr::bool(true));
        let cancel = AtomicBool::new(true);
        assert!(session.check_cancellable(&vc, &cancel).unwrap().is_none());
        // the session's incremental state is untouched: clearing the flag
        // lets the very same condition go through
        cancel.store(false, Ordering::Release);
        let validity = session.check_cancellable(&vc, &cancel).unwrap();
        assert!(validity.expect("flag clear").is_valid());
    }

    #[test]
    fn cancellable_check_keeps_definite_verdicts() {
        // a verdict that completed before the flag rose is still reported
        let mut session = SolverSession::new(None);
        let x = Expr::var("x", Type::Int);
        let vc = Vc::new("t", [], x.ge(Expr::int(0)));
        let cancel = AtomicBool::new(false);
        let validity = session.check_cancellable(&vc, &cancel).unwrap();
        assert!(matches!(validity, Some(Validity::Invalid(_))));
    }

    #[test]
    fn session_pool_reuses_sessions_per_signature() {
        let mut pool = SessionPool::new(None);
        assert!(pool.is_empty());
        let x = Expr::var("x", Type::Int);
        let vc = Vc::new("t", [x.clone().gt(Expr::int(2))], x.clone().gt(Expr::int(1)));
        for _ in 0..3 {
            assert!(pool.session("sig-a").check(&vc).unwrap().is_valid());
        }
        assert_eq!(pool.session("sig-a").checks(), 3, "one session served all three");
        assert_eq!(pool.len(), 1);
        // a different signature opens a fresh session with its own encoder,
        // so a clashing redeclaration of `x` is fine there
        let clash = Vc::new("bool", [], Expr::var("x", Type::Bool));
        assert!(pool.session("sig-b").check(&clash).is_ok());
        assert_eq!(pool.len(), 2);
        // ...but not on the original session
        assert!(pool.session("sig-a").check(&clash).is_err());
        // the failed check may have left its declaration behind; a discarded
        // session is rebuilt without it
        pool.discard("sig-a");
        assert_eq!(pool.len(), 1);
        assert!(pool.session("sig-a").check(&clash).is_ok());
    }

    #[test]
    fn bounded_pool_evicts_least_recently_used() {
        let mut pool = SessionPool::with_capacity(None, 2);
        let x = Expr::var("x", Type::Int);
        let vc = Vc::new("t", [x.clone().gt(Expr::int(2))], x.clone().gt(Expr::int(1)));
        assert!(pool.session("a").check(&vc).unwrap().is_valid());
        assert!(pool.session("b").check(&vc).unwrap().is_valid());
        // touch "a" so "b" is now the coldest
        pool.session("a");
        assert!(pool.session("c").check(&vc).unwrap().is_valid());
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.evictions(), 1);
        // "b" was evicted: recreating it evicts the new coldest ("a")
        assert_eq!(pool.session("b").checks(), 0, "evicted session must be rebuilt on next use");
        assert_eq!(pool.evictions(), 2);
        // an unbounded pool never evicts
        let mut pool = SessionPool::new(None);
        for sig in ["a", "b", "c", "d"] {
            pool.session(sig);
        }
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.evictions(), 0);
    }

    /// `n` distinct valid conditions over fresh constants starting at `from`.
    fn distinct_vcs(from: i64, n: i64) -> Vec<Vc> {
        let x = Expr::var("x", Type::Int);
        (from..from + n)
            .map(|i| {
                Vc::new(
                    format!("gt-{i}"),
                    [x.clone().gt(Expr::int(i + 1))],
                    x.clone().gt(Expr::int(i)),
                )
            })
            .collect()
    }

    /// One job: discharges `vcs` through the pool, then ends the job.
    fn run(pool: &mut SessionPool, vcs: &[Vc]) -> usize {
        for vc in vcs {
            assert!(pool.session("sig").check(vc).unwrap().is_valid());
        }
        pool.end_job()
    }

    #[test]
    fn end_job_retires_a_pool_that_outgrew_its_jobs() {
        let mut pool = SessionPool::new(None);
        // the first job sets the yardstick: what one job compiles
        assert_eq!(run(&mut pool, &distinct_vcs(0, 20)), 0);
        let one_job = pool.stats().compiled_terms;
        assert!(one_job > 0);
        // the same job again compiles nothing new: no growth, no retirement
        for _ in 0..10 {
            assert_eq!(run(&mut pool, &distinct_vcs(0, 20)), 0);
            assert_eq!(pool.stats().compiled_terms, one_job);
        }
        // a stream of small, always new jobs — edits — grows the cache until
        // it passes the multiple; then the session goes and is rebuilt cold
        let mut retired_at = None;
        for edit in 0..200 {
            if run(&mut pool, &distinct_vcs(1000 + 2 * edit, 2)) > 0 {
                retired_at = Some(edit);
                break;
            }
            assert!(pool.stats().compiled_terms <= RETIRE_AT_JOB_TERMS * one_job);
        }
        assert!(retired_at.is_some(), "the cache must not grow without bound");
        assert_eq!(
            pool.stats(),
            SessionPoolStats { sessions: 0, compiled_terms: 0, retirements: 1 }
        );
        // lazily rebuilt: the next job finds a fresh, working session
        assert_eq!(run(&mut pool, &distinct_vcs(0, 20)), 0);
        assert_eq!(pool.stats().compiled_terms, one_job);
        assert_eq!(pool.stats().sessions, 1);
    }

    #[test]
    fn end_job_retires_on_age_and_a_larger_job_raises_the_bound() {
        let mut pool = SessionPool::new(None);
        let vcs = distinct_vcs(0, 4);
        // nothing new is ever compiled, so only the solver's age can retire
        let mut jobs = 0;
        while run(&mut pool, &vcs) == 0 {
            jobs += 1;
            assert!(jobs <= RETIRE_AT_JOB_CHECKS, "age must retire the session");
        }
        assert_eq!(jobs, RETIRE_AT_JOB_CHECKS);
        assert_eq!(pool.stats().retirements, 1);
        // a job ten times the size is the new yardstick: the pool now holds
        // far more than three of the old jobs' terms, and keeps them
        assert_eq!(run(&mut pool, &distinct_vcs(100, 40)), 0);
        assert_eq!(run(&mut pool, &vcs), 0);
        assert_eq!(pool.stats().retirements, 1);
        // a pool that is never told of jobs never retires
        let mut scoped = SessionPool::new(None);
        for vc in distinct_vcs(0, 50) {
            assert!(scoped.session("sig").check(&vc).unwrap().is_valid());
        }
        assert_eq!(scoped.stats().retirements, 0);
        // nor does one whose first job is its only one (a one-shot check)
        assert_eq!(scoped.end_job(), 0);
        assert_eq!(scoped.stats().sessions, 1);
    }

    #[test]
    fn interrupt_handle_outlives_session() {
        let session = SolverSession::new(None);
        let handle = session.interrupt_handle();
        drop(session);
        handle.interrupt(); // no-op, must not crash
    }

    #[test]
    fn timeout_is_accepted() {
        // a trivial check under a generous timeout still succeeds
        let vc = Vc::new("t", [], Expr::bool(true));
        assert!(check_validity(&vc, Some(Duration::from_secs(5))).unwrap().is_valid());
    }

    #[test]
    fn vc_accessors() {
        let vc = Vc::new("n", [Expr::bool(true)], Expr::bool(true));
        assert_eq!(vc.name(), "n");
        assert_eq!(vc.assumptions().len(), 1);
        assert!(vc.goal().as_const().is_some());
    }
}
