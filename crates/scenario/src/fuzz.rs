//! Generative differential fuzzing of the three route-policy evaluators.
//!
//! Each case is a small random scenario — topology, schema, default policy —
//! run through three independent semantics of the policy IR:
//!
//! 1. the **fast path** ([`timepiece_sim::simulate`]), which executes
//!    policies directly over [`Value`]s,
//! 2. the **interpreted path** ([`timepiece_sim::simulate_interpreted`]),
//!    which compiles policies to expression terms and evaluates those, and
//! 3. **Z3** spot checks asserting that the compiled term of a policy (or
//!    merge) applied to a concrete route equals the direct execution.
//!
//! Any disagreement is a bug in one of the evaluators. Failing cases are
//! shrunk (the proptest shim has no shrinking, so the loop is hand-rolled)
//! and written to disk as a minimal scenario file replayable with
//! `repro check --scenario-file`.

use std::time::Duration;

use proptest::TestRng;
use timepiece_algebra::{
    MergeKey, Network, NetworkBuilder, RewriteOp, RouteGuard, RoutePolicy, RouteSchema,
};
use timepiece_core::{Instance, NodeAnnotations, Temporal};
use timepiece_expr::{Env, Expr, Type, Value};
use timepiece_smt::{check_validity, Validity, Vc};
use timepiece_topology::Topology;

use crate::compile::closing_env;
use crate::export::export_instance;

/// Knobs for a fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// How many random cases to run.
    pub cases: u32,
    /// RNG seed; the same seed replays the same cases.
    pub seed: u64,
    /// Deliberately corrupt one evaluator's output (testing the tester).
    pub sabotage: Option<Sabotage>,
    /// Where to write minimal failing scenario files (skipped when absent).
    pub out_dir: Option<String>,
    /// Simulation step bound per case.
    pub max_steps: usize,
    /// How many Z3 spot checks to discharge per case (0 disables them).
    pub z3_checks: usize,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            cases: 64,
            seed: 0x7177_0000_5eed,
            sabotage: None,
            out_dir: None,
            max_steps: 32,
            z3_checks: 2,
        }
    }
}

/// A deliberate fault injected at an evaluator-output boundary, used to
/// prove the differential harness actually detects disagreements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Adds one to the first integer field of the interpreted evaluator's
    /// state at some step ≥ 1.
    IntOffByOne,
}

/// One failing case, already shrunk.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Index of the case within the run (0-based).
    pub case_index: u32,
    /// What disagreed.
    pub description: String,
    /// The minimal failing scenario, as a scenario document.
    pub scenario: String,
    /// Where the scenario was written, when `out_dir` was set.
    pub path: Option<String>,
}

/// The outcome of a fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// How many cases ran.
    pub cases: u32,
    /// Shrunk failing cases (empty on a clean run).
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// True when every case agreed across all evaluators.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Case specification: pure data, so it can be shrunk and serialized
// ---------------------------------------------------------------------------

/// Topology shapes the generator draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TopoKind {
    Path,
    Ring,
    Star,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GuardSpec {
    True,
    IntEq(i64),
    NotIntEq(i64),
    BvEq(u64),
    HasTagX,
    IntEqAndTag(i64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpSpec {
    Inc(i64),
    SetBv(u64),
    SetFlag(bool),
    SetEnum(u8),
    AddTagY,
    RemoveTagX,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ActionSpec {
    Drop,
    Ops(Vec<OpSpec>),
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ClauseSpec {
    guard: GuardSpec,
    action: ActionSpec,
}

/// A complete random scenario, as pure data (shrinkable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSpec {
    topo: TopoKind,
    nodes: usize,
    use_bv: bool,
    use_flag: bool,
    use_enum: bool,
    use_set: bool,
    clauses: Vec<ClauseSpec>,
}

impl GuardSpec {
    fn needs_set(self) -> bool {
        matches!(self, GuardSpec::HasTagX | GuardSpec::IntEqAndTag(_))
    }

    fn needs_bv(self) -> bool {
        matches!(self, GuardSpec::BvEq(_))
    }

    fn guard(self) -> RouteGuard {
        match self {
            GuardSpec::True => RouteGuard::True,
            GuardSpec::IntEq(n) => RouteGuard::IntEq { field: "m0".into(), value: n },
            GuardSpec::NotIntEq(n) => RouteGuard::IntEq { field: "m0".into(), value: n }.not(),
            GuardSpec::BvEq(n) => RouteGuard::BvEq { field: "b0".into(), value: n },
            GuardSpec::HasTagX => RouteGuard::HasTag { field: "tags".into(), tag: "x".into() },
            GuardSpec::IntEqAndTag(n) => RouteGuard::IntEq { field: "m0".into(), value: n }
                .and(RouteGuard::HasTag { field: "tags".into(), tag: "y".into() }),
        }
    }
}

impl OpSpec {
    fn needs_bv(self) -> bool {
        matches!(self, OpSpec::SetBv(_))
    }

    fn needs_flag(self) -> bool {
        matches!(self, OpSpec::SetFlag(_))
    }

    fn needs_enum(self) -> bool {
        matches!(self, OpSpec::SetEnum(_))
    }

    fn needs_set(self) -> bool {
        matches!(self, OpSpec::AddTagY | OpSpec::RemoveTagX)
    }

    fn op(self) -> RewriteOp {
        const VARIANTS: [&str; 3] = ["a", "b", "c"];
        match self {
            OpSpec::Inc(by) => RewriteOp::IncInt { field: "m0".into(), by },
            OpSpec::SetBv(value) => RewriteOp::SetBv { field: "b0".into(), value },
            OpSpec::SetFlag(value) => RewriteOp::SetBool { field: "flag".into(), value },
            OpSpec::SetEnum(i) => {
                RewriteOp::SetEnum { field: "o0".into(), variant: VARIANTS[i as usize % 3].into() }
            }
            OpSpec::AddTagY => RewriteOp::AddTag { field: "tags".into(), tag: "y".into() },
            OpSpec::RemoveTagX => RewriteOp::RemoveTag { field: "tags".into(), tag: "x".into() },
        }
    }
}

impl CaseSpec {
    fn references(
        &self,
        pred: impl Fn(GuardSpec) -> bool,
        op_pred: impl Fn(OpSpec) -> bool,
    ) -> bool {
        self.clauses.iter().any(|c| {
            pred(c.guard)
                || match &c.action {
                    ActionSpec::Drop => false,
                    ActionSpec::Ops(ops) => ops.iter().any(|o| op_pred(*o)),
                }
        })
    }

    fn fields(&self) -> Vec<(String, Type)> {
        let mut fields = vec![("m0".to_owned(), Type::Int)];
        if self.use_bv {
            fields.push(("b0".to_owned(), Type::BitVec(8)));
        }
        if self.use_flag {
            fields.push(("flag".to_owned(), Type::Bool));
        }
        if self.use_enum {
            fields.push(("o0".to_owned(), Type::enumeration("fz-origin", ["a", "b", "c"])));
        }
        if self.use_set {
            fields.push(("tags".to_owned(), Type::set("fz-tags", ["x", "y"])));
        }
        fields
    }

    fn schema(&self) -> RouteSchema {
        let mut keys = vec![MergeKey::Lower("m0".to_owned())];
        if self.use_bv {
            keys.push(MergeKey::Lower("b0".to_owned()));
        }
        if self.use_enum {
            keys.push(MergeKey::RankEnum(
                "o0".to_owned(),
                vec!["a".to_owned(), "b".to_owned(), "c".to_owned()],
            ));
        }
        RouteSchema::new("fz-route", self.fields(), keys)
    }

    fn topology(&self) -> Topology {
        let mut t = Topology::new();
        let nodes: Vec<_> = (0..self.nodes).map(|i| t.add_node(format!("n{i}"))).collect();
        match self.topo {
            TopoKind::Path => {
                for w in nodes.windows(2) {
                    t.add_undirected(w[0], w[1]);
                }
            }
            TopoKind::Ring => {
                for w in nodes.windows(2) {
                    t.add_undirected(w[0], w[1]);
                }
                if self.nodes > 2 {
                    t.add_undirected(nodes[self.nodes - 1], nodes[0]);
                }
            }
            TopoKind::Star => {
                for &leaf in &nodes[1..] {
                    t.add_undirected(nodes[0], leaf);
                }
            }
        }
        t
    }

    fn policy(&self) -> RoutePolicy {
        let mut p = RoutePolicy::new();
        for c in &self.clauses {
            let action = match &c.action {
                ActionSpec::Drop => timepiece_algebra::ClauseAction::Drop,
                ActionSpec::Ops(ops) => {
                    timepiece_algebra::ClauseAction::Rewrite(ops.iter().map(|o| o.op()).collect())
                }
            };
            p = p.when(c.guard.guard(), action);
        }
        p
    }

    fn network(&self) -> Result<Network, String> {
        let schema = self.schema();
        let topology = self.topology();
        let origin = topology.node_by_name("n0").expect("generator always creates n0");
        let init = Expr::constant(Value::some(Value::default_of(schema.payload_type())));
        NetworkBuilder::from_schema(topology, schema)
            .default_policy(self.policy())
            .init(origin, init)
            .build()
            .map_err(|e| format!("generated case does not assemble: {e}"))
    }

    /// The case as an annotated instance (trivial `globally true` property
    /// and interface, so the interesting content is the policy layer).
    fn instance(&self) -> Result<Instance, String> {
        let network = self.network()?;
        let anns = NodeAnnotations::new(network.topology(), Temporal::any());
        Ok(Instance { interface: anns.clone(), property: anns, network })
    }

    /// Serializes the case as a scenario document (replayable with
    /// `repro check --scenario-file`).
    pub fn to_toml(&self) -> Result<String, String> {
        export_instance("fuzz-case", "fuzz", &self.instance()?, self.nodes)
    }
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

fn sample_guard(rng: &mut TestRng, spec: &CaseSpec) -> GuardSpec {
    let mut options = vec![
        GuardSpec::True,
        GuardSpec::IntEq(rng.below(3) as i64),
        GuardSpec::NotIntEq(rng.below(3) as i64),
    ];
    if spec.use_bv {
        options.push(GuardSpec::BvEq(rng.below(4)));
    }
    if spec.use_set {
        options.push(GuardSpec::HasTagX);
        options.push(GuardSpec::IntEqAndTag(rng.below(3) as i64));
    }
    options[rng.below(options.len() as u64) as usize]
}

fn sample_op(rng: &mut TestRng, spec: &CaseSpec) -> OpSpec {
    let mut options = vec![OpSpec::Inc(rng.below(3) as i64)];
    if spec.use_bv {
        options.push(OpSpec::SetBv(rng.below(16)));
    }
    if spec.use_flag {
        options.push(OpSpec::SetFlag(rng.below(2) == 1));
    }
    if spec.use_enum {
        options.push(OpSpec::SetEnum(rng.below(3) as u8));
    }
    if spec.use_set {
        options.push(OpSpec::AddTagY);
        options.push(OpSpec::RemoveTagX);
    }
    options[rng.below(options.len() as u64) as usize]
}

fn sample_case(rng: &mut TestRng) -> CaseSpec {
    let mut spec = CaseSpec {
        topo: match rng.below(3) {
            0 => TopoKind::Path,
            1 => TopoKind::Ring,
            _ => TopoKind::Star,
        },
        nodes: 2 + rng.below(4) as usize,
        use_bv: rng.below(2) == 1,
        use_flag: rng.below(2) == 1,
        use_enum: rng.below(2) == 1,
        use_set: rng.below(2) == 1,
        clauses: Vec::new(),
    };
    let n_clauses = 1 + rng.below(3);
    for _ in 0..n_clauses {
        let guard = sample_guard(rng, &spec);
        let action = if rng.below(4) == 0 {
            ActionSpec::Drop
        } else {
            let n_ops = 1 + rng.below(2);
            ActionSpec::Ops((0..n_ops).map(|_| sample_op(rng, &spec)).collect())
        };
        spec.clauses.push(ClauseSpec { guard, action });
    }
    spec
}

// ---------------------------------------------------------------------------
// Differential checking
// ---------------------------------------------------------------------------

/// Adds one to the first integer found inside `v` (descending through
/// options and records). Returns `None` when `v` holds no integer.
fn bump_first_int(v: &Value) -> Option<Value> {
    match v {
        Value::Int(n) => Some(Value::Int(n + 1)),
        Value::Option { payload, value: Some(inner) } => bump_first_int(inner)
            .map(|b| Value::Option { payload: payload.clone(), value: Some(Box::new(b)) }),
        Value::Record { def, fields } => {
            for (i, f) in fields.iter().enumerate() {
                if let Some(b) = bump_first_int(f) {
                    let mut fields = fields.clone();
                    fields[i] = b;
                    return Some(Value::Record { def: def.clone(), fields });
                }
            }
            None
        }
        _ => None,
    }
}

fn sabotage_states(states: &mut [Vec<Value>]) -> bool {
    for row in states.iter_mut().skip(1) {
        for v in row.iter_mut() {
            if let Some(b) = bump_first_int(v) {
                *v = b;
                return true;
            }
        }
    }
    false
}

/// Runs the fast and interpreted simulators on `network` and compares their
/// full traces; then discharges up to `z3_checks` spot VCs equating the
/// compiled policy/merge terms with direct execution on states drawn from
/// the trace. Returns one description per discrepancy.
pub fn diff_network(
    network: &Network,
    env: &Env,
    max_steps: usize,
    sabotage: Option<Sabotage>,
    z3_checks: usize,
) -> Vec<String> {
    let topology = network.topology();
    let fast = timepiece_sim::simulate(network, env, max_steps);
    let interp = timepiece_sim::simulate_interpreted(network, env, max_steps);
    let mut problems = Vec::new();
    let (fast, interp) = match (fast, interp) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(_), Err(_)) => return problems, // agreeing failures agree
        (Ok(_), Err(e)) => {
            problems.push(format!("fast simulation succeeds but the interpreted one fails: {e}"));
            return problems;
        }
        (Err(e), Ok(_)) => {
            problems.push(format!("interpreted simulation succeeds but the fast one fails: {e}"));
            return problems;
        }
    };

    let mut interp_states = interp.states().to_vec();
    if sabotage == Some(Sabotage::IntOffByOne) {
        sabotage_states(&mut interp_states);
    }

    if fast.converged_at() != interp.converged_at() {
        problems.push(format!(
            "convergence disagreement: fast at {:?}, interpreted at {:?}",
            fast.converged_at(),
            interp.converged_at()
        ));
    }
    'outer: for (t, (fast_state, interp_state)) in
        fast.states().iter().zip(&interp_states).enumerate()
    {
        for v in topology.nodes() {
            let a = &fast_state[v.index()];
            let b = &interp_state[v.index()];
            if a != b {
                problems.push(format!(
                    "state disagreement at node {:?}, step {t}: fast computes {a:?}, \
                     interpreted computes {b:?}",
                    topology.name(v)
                ));
                break 'outer; // one witness is enough; later steps diverge too
            }
        }
    }

    if z3_checks > 0 {
        if let Some(policies) = network.policies() {
            let schema = &policies.schema;
            // draw distinct non-initial routes from the trace as probes
            let mut probes: Vec<Value> = Vec::new();
            for row in fast.states() {
                for v in row {
                    if !probes.contains(v) {
                        probes.push(v.clone());
                    }
                }
            }
            probes.truncate(z3_checks.max(2));
            let timeout = Some(Duration::from_secs(10));
            if let Some(policy) = policies.default_policy.as_ref() {
                for (i, r) in probes.iter().take(z3_checks).enumerate() {
                    let direct = match policy.apply(schema, r, env) {
                        Ok(v) => v,
                        Err(e) => {
                            problems.push(format!("direct policy execution fails on {r:?}: {e}"));
                            continue;
                        }
                    };
                    let compiled = policy.compile(schema, &Expr::constant(r.clone()));
                    let goal = compiled.eq(Expr::constant(direct));
                    match check_validity(&Vc::new(format!("fz-policy-{i}"), vec![], goal), timeout)
                    {
                        Ok(Validity::Valid) => {}
                        Ok(Validity::Invalid(_)) => problems.push(format!(
                            "Z3 refutes policy compile/apply agreement on probe {r:?}"
                        )),
                        Ok(Validity::Unknown(_)) | Err(_) => {}
                    }
                }
            }
            if probes.len() >= 2 {
                let (a, b) = (&probes[0], &probes[1]);
                match schema.merge_value(a, b, env) {
                    Ok(direct) => {
                        let merged = schema
                            .merge_expr(&Expr::constant(a.clone()), &Expr::constant(b.clone()));
                        let goal = merged.eq(Expr::constant(direct));
                        match check_validity(&Vc::new("fz-merge", vec![], goal), timeout) {
                            Ok(Validity::Valid) => {}
                            Ok(Validity::Invalid(_)) => problems.push(format!(
                                "Z3 refutes merge compile/execute agreement on {a:?} vs {b:?}"
                            )),
                            Ok(Validity::Unknown(_)) | Err(_) => {}
                        }
                    }
                    Err(e) => problems.push(format!("direct merge fails on {a:?}, {b:?}: {e}")),
                }
            }
        }
    }

    problems
}

fn diff_spec(spec: &CaseSpec, options: &FuzzOptions) -> Vec<String> {
    let network = match spec.network() {
        Ok(n) => n,
        Err(e) => return vec![e],
    };
    let env = closing_env(&network);
    diff_network(&network, &env, options.max_steps, options.sabotage, options.z3_checks)
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

fn shrink_candidates(spec: &CaseSpec) -> Vec<CaseSpec> {
    let mut out = Vec::new();
    // remove a clause
    for i in 0..spec.clauses.len() {
        let mut s = spec.clone();
        s.clauses.remove(i);
        out.push(s);
    }
    // remove one op from a rewrite clause
    for (i, c) in spec.clauses.iter().enumerate() {
        if let ActionSpec::Ops(ops) = &c.action {
            for j in 0..ops.len() {
                let mut s = spec.clone();
                let ActionSpec::Ops(ops) = &mut s.clauses[i].action else { unreachable!() };
                ops.remove(j);
                if ops.is_empty() {
                    s.clauses.remove(i);
                }
                out.push(s);
            }
        }
    }
    // simplify a guard to `true`
    for (i, c) in spec.clauses.iter().enumerate() {
        if c.guard != GuardSpec::True {
            let mut s = spec.clone();
            s.clauses[i].guard = GuardSpec::True;
            out.push(s);
        }
    }
    // shrink the topology
    if spec.nodes > 2 {
        let mut s = spec.clone();
        s.nodes -= 1;
        out.push(s);
    }
    if spec.topo != TopoKind::Path {
        let mut s = spec.clone();
        s.topo = TopoKind::Path;
        out.push(s);
    }
    // drop unreferenced optional fields
    if spec.use_bv && !spec.references(GuardSpec::needs_bv, OpSpec::needs_bv) {
        let mut s = spec.clone();
        s.use_bv = false;
        out.push(s);
    }
    if spec.use_flag && !spec.references(|_| false, OpSpec::needs_flag) {
        let mut s = spec.clone();
        s.use_flag = false;
        out.push(s);
    }
    if spec.use_enum && !spec.references(|_| false, OpSpec::needs_enum) {
        let mut s = spec.clone();
        s.use_enum = false;
        out.push(s);
    }
    if spec.use_set && !spec.references(GuardSpec::needs_set, OpSpec::needs_set) {
        let mut s = spec.clone();
        s.use_set = false;
        out.push(s);
    }
    out
}

/// Greedily shrinks a failing case, re-running the differential check on
/// each candidate, until no smaller case still fails.
fn shrink(spec: CaseSpec, options: &FuzzOptions) -> CaseSpec {
    let mut current = spec;
    // bounded: every accepted candidate strictly shrinks the spec
    for _ in 0..256 {
        let next =
            shrink_candidates(&current).into_iter().find(|c| !diff_spec(c, options).is_empty());
        match next {
            Some(c) => current = c,
            None => break,
        }
    }
    current
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Runs `options.cases` random cases, shrinking and (when `out_dir` is set)
/// writing each failure to disk.
pub fn run_fuzz(options: &FuzzOptions) -> FuzzReport {
    let mut rng = TestRng::deterministic(options.seed, "scenario-fuzz");
    let mut failures = Vec::new();
    for case_index in 0..options.cases {
        let spec = sample_case(&mut rng);
        let problems = diff_spec(&spec, options);
        if problems.is_empty() {
            continue;
        }
        let minimal = shrink(spec, options);
        let description = diff_spec(&minimal, options).join("; ");
        let description = if description.is_empty() { problems.join("; ") } else { description };
        let scenario = minimal
            .to_toml()
            .unwrap_or_else(|e| format!("# unserializable case: {e}\n# spec: {minimal:?}\n"));
        let path = options.out_dir.as_ref().map(|dir| {
            let path = format!("{dir}/fuzz-{:#x}-case{case_index}.toml", options.seed);
            if let Err(e) = std::fs::write(&path, &scenario) {
                eprintln!("warning: cannot write {path:?}: {e}");
            }
            path
        });
        failures.push(FuzzFailure { case_index, description, scenario, path });
    }
    FuzzReport { cases: options.cases, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(sabotage: Option<Sabotage>) -> FuzzOptions {
        FuzzOptions {
            cases: 24,
            seed: 0x5eed,
            sabotage,
            out_dir: None,
            max_steps: 24,
            z3_checks: 0, // keep unit tests solver-free; the CLI smoke uses Z3
        }
    }

    #[test]
    fn honest_evaluators_agree() {
        let report = run_fuzz(&options(None));
        assert_eq!(report.cases, 24);
        assert!(
            report.clean(),
            "expected a clean run, found: {:?}",
            report.failures.iter().map(|f| &f.description).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sabotaged_evaluator_is_caught_and_shrunk() {
        let report = run_fuzz(&options(Some(Sabotage::IntOffByOne)));
        assert!(!report.clean(), "an off-by-one in one evaluator must be detected");
        let failure = &report.failures[0];
        assert!(
            failure.description.contains("disagreement"),
            "description names the disagreement: {}",
            failure.description
        );
        // the shrunk scenario is a real, replayable scenario document
        let compiled = crate::compile::compile_str(&failure.scenario)
            .expect("the minimal failing case recompiles");
        // ... and is genuinely minimal: a sabotage that corrupts every case
        // shrinks to the smallest network the generator can express
        assert_eq!(compiled.network.topology().node_count(), 2);
    }

    #[test]
    fn cases_are_deterministic_per_seed() {
        let mut a = TestRng::deterministic(7, "scenario-fuzz");
        let mut b = TestRng::deterministic(7, "scenario-fuzz");
        for _ in 0..16 {
            assert_eq!(sample_case(&mut a), sample_case(&mut b));
        }
    }
}
