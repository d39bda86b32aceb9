//! Validity checking of verification conditions.
//!
//! [`SolverSession`] is mechanism only: it checks, counts its checks and
//! compiled terms, forgets scratch work and can be interrupted. Which
//! conditions share a session and when one is replaced or retired is its
//! owner's policy (`timepiece_core::sweep`: one session per checker worker).

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
    /// from *earlier sweep rows* when a pool worker keeps the session.
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
    /// budgets a session's age by.
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
