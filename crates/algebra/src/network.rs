//! The expression-level network model.
//!
//! A [`Network`] is a routing algebra whose routes are terms of the
//! `timepiece-expr` IR: the initial routes are expressions (possibly over
//! symbolic variables), and transfer/merge are functions from terms to terms.
//! One definition therefore drives both concrete simulation (interpret the
//! terms) and SMT verification (compile the terms) — the sim/verifier
//! agreement the paper gets from using Zen for both.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use timepiece_expr::{Expr, Type, TypeError, Value};
use timepiece_topology::{NodeId, Topology};

use crate::policy::{FailureModel, RoutePolicy, RouteSchema};

/// The time variable of the inductive and safety conditions.
pub const TIME_VAR: &str = "t";

/// Does the checker bind `name` in a node's conditions? It binds
/// [`TIME_VAR`], every node's route variable `route-<node>`
/// ([`Network::route_var_name`]) and the positional route names a node's
/// conditions are keyed in (`route@self`, `route@in<i>`). A free variable
/// spelled like one of them — a symbolic, or a name a transfer, merge or
/// interface closure writes itself — would be captured by the checker's
/// variable, so [`NetworkBuilder::build`] refuses such symbolics and closures
/// must not write these names (a check refuses an interface or property
/// that writes a route name).
pub fn is_checker_bound(name: &str) -> bool {
    name == TIME_VAR || name.starts_with("route-") || name.starts_with("route@")
}

/// A transfer function `f_e`, building the route sent across an edge.
pub type TransferFn = Arc<dyn Fn(&Expr) -> Expr + Send + Sync>;

/// The merge function `⊕`, building the better of two routes.
pub type MergeFn = Arc<dyn Fn(&Expr, &Expr) -> Expr + Send + Sync>;

/// A symbolic input to the network: an unconstrained value chosen by the
/// adversary/environment, optionally restricted by a precondition.
///
/// Examples from the paper: the arbitrary route announced by an external
/// peer, or the symbolic destination prefix of the `Hijack` benchmark.
#[derive(Clone)]
pub struct Symbolic {
    name: String,
    ty: Type,
    constraint: Option<Expr>,
}

impl Symbolic {
    /// Creates a symbolic value, optionally constrained.
    ///
    /// The constraint may mention the symbolic variable itself (via
    /// [`Symbolic::var`]) and any other symbolic of the same network.
    pub fn new(name: impl Into<String>, ty: Type, constraint: Option<Expr>) -> Symbolic {
        Symbolic { name: name.into(), ty, constraint }
    }

    /// The symbolic variable's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The symbolic variable's type.
    pub fn ty(&self) -> &Type {
        &self.ty
    }

    /// The precondition, if any.
    pub fn constraint(&self) -> Option<&Expr> {
        self.constraint.as_ref()
    }

    /// The variable term referring to this symbolic.
    pub fn var(&self) -> Expr {
        Expr::var(self.name.clone(), self.ty.clone())
    }
}

impl fmt::Debug for Symbolic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Symbolic")
            .field("name", &self.name)
            .field("ty", &self.ty.to_string())
            .field("constrained", &self.constraint.is_some())
            .finish()
    }
}

/// An error found while assembling or validating a [`Network`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// An edge has no transfer function and no default was provided.
    MissingTransfer {
        /// The edge without a transfer function.
        edge: (NodeId, NodeId),
    },
    /// Two symbolics share a name.
    DuplicateSymbolic(String),
    /// A symbolic is named like a variable the checker binds, or an
    /// initial route, transfer result, merge result or constraint mentions
    /// one ([`is_checker_bound`]).
    ReservedName {
        /// Which component uses the name.
        what: String,
        /// The name.
        name: String,
    },
    /// An initial route, transfer result, merge result or constraint had the
    /// wrong type.
    BadType {
        /// Which component was ill-typed.
        what: String,
        /// The underlying type error.
        source: TypeError,
    },
    /// Declarative policies were mixed with closure-based transfer/merge
    /// components on the same builder.
    MixedPolicyModes,
    /// A policy delta was applied to a network not built through the policy
    /// IR (closure-built transfers are opaque and cannot be edited).
    NotPolicyMode,
    /// A delta named an edge the topology does not have.
    UnknownEdge {
        /// The unknown edge.
        edge: (NodeId, NodeId),
    },
    /// A failure-budget delta was applied to a network without a
    /// [`FailureModel`].
    NoFailureModel,
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::MissingTransfer { edge } => {
                write!(f, "edge {} -> {} has no transfer function", edge.0, edge.1)
            }
            NetworkError::DuplicateSymbolic(name) => {
                write!(f, "duplicate symbolic value {name:?}")
            }
            NetworkError::ReservedName { what, name } => write!(
                f,
                "{what}: {name:?} is a variable the checker binds (t, route-<node>, route@...)"
            ),
            NetworkError::BadType { what, source } => write!(f, "ill-typed {what}: {source}"),
            NetworkError::MixedPolicyModes => {
                write!(f, "declarative policies cannot be mixed with closure transfers/merge")
            }
            NetworkError::NotPolicyMode => {
                write!(f, "policy deltas require a network built through the policy IR")
            }
            NetworkError::UnknownEdge { edge } => {
                write!(f, "the topology has no edge {} -> {}", edge.0, edge.1)
            }
            NetworkError::NoFailureModel => {
                write!(f, "the network has no failure model to re-budget")
            }
        }
    }
}

impl std::error::Error for NetworkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetworkError::BadType { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The declarative policy layer of a network built through the policy IR:
/// the [`RouteSchema`], the per-edge [`RoutePolicy`]s (with an optional
/// default), and an optional [`FailureModel`].
///
/// Networks carrying this structure expose it to every downstream consumer:
/// the simulator runs the IR's concrete semantics directly, the daemon edits
/// it edge by edge ([`Network::set_edge_policy`]), and inference derives its
/// atom grammar from the schema.
#[derive(Debug, Clone)]
pub struct NetworkPolicies {
    /// The route schema (record shape + merge order).
    pub schema: RouteSchema,
    /// Per-edge policies.
    pub edge_policies: HashMap<(NodeId, NodeId), RoutePolicy>,
    /// The policy of edges without a specific one.
    pub default_policy: Option<RoutePolicy>,
    /// The bounded link-failure model, if any.
    pub failures: Option<FailureModel>,
}

impl NetworkPolicies {
    /// The policy of an edge (the default when no specific one is set).
    pub fn policy(&self, edge: (NodeId, NodeId)) -> Option<&RoutePolicy> {
        self.edge_policies.get(&edge).or(self.default_policy.as_ref())
    }
}

/// A complete network instance `N = (G, S, I, F, ⊕)` at the expression level.
///
/// Build one with [`NetworkBuilder`]; the builder validates the types of
/// every component against the declared route type.
///
/// # Example
///
/// ```
/// use timepiece_algebra::NetworkBuilder;
/// use timepiece_expr::{Expr, Type};
/// use timepiece_topology::gen;
///
/// // hop-count routing to v0 on a 3-node path
/// let g = gen::path(3);
/// let dest = g.node_by_name("v0").unwrap();
/// let route_ty = Type::option(Type::Int);
/// let net = NetworkBuilder::new(g, route_ty.clone())
///     .merge(|a, b| {
///         let better = a.clone().get_some().le(b.clone().get_some());
///         b.clone().is_none().or(a.clone().is_some().and(better)).ite(a.clone(), b.clone())
///     })
///     .default_transfer(|r| {
///         r.clone().match_option(Expr::none(Type::Int), |hops| hops.add(Expr::int(1)).some())
///     })
///     .init(dest, Expr::int(0).some())
///     .build()?;
/// assert_eq!(net.route_type(), &route_ty);
/// # Ok::<(), timepiece_algebra::network::NetworkError>(())
/// ```
#[derive(Clone)]
pub struct Network {
    topology: Arc<Topology>,
    route_type: Type,
    init: Vec<Expr>,
    transfers: HashMap<(NodeId, NodeId), TransferFn>,
    merge: MergeFn,
    symbolics: Vec<Symbolic>,
    policies: Option<Arc<NetworkPolicies>>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.topology.node_count())
            .field("edges", &self.topology.edge_count())
            .field("route_type", &self.route_type.to_string())
            .field("symbolics", &self.symbolics)
            .finish()
    }
}

impl Network {
    /// The topology `G`.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// A shared handle to the topology.
    pub fn topology_arc(&self) -> Arc<Topology> {
        Arc::clone(&self.topology)
    }

    /// The route type `S`.
    pub fn route_type(&self) -> &Type {
        &self.route_type
    }

    /// The initial route term `I(v)`.
    pub fn init(&self, v: NodeId) -> &Expr {
        &self.init[v.index()]
    }

    /// Applies the transfer function of an edge to a route term.
    ///
    /// # Panics
    ///
    /// Panics if the edge has no transfer function (prevented by the builder
    /// for edges of the topology).
    pub fn transfer(&self, edge: (NodeId, NodeId), route: &Expr) -> Expr {
        (self
            .transfers
            .get(&edge)
            .unwrap_or_else(|| panic!("no transfer function for edge {} -> {}", edge.0, edge.1)))(
            route,
        )
    }

    /// Applies the merge function to two route terms.
    pub fn merge(&self, a: &Expr, b: &Expr) -> Expr {
        (self.merge)(a, b)
    }

    /// The symbolic inputs.
    pub fn symbolics(&self) -> &[Symbolic] {
        &self.symbolics
    }

    /// The declarative policy layer, when the network was built through the
    /// policy IR ([`NetworkBuilder::from_schema`]). `None` for networks
    /// assembled from raw closures.
    pub fn policies(&self) -> Option<&NetworkPolicies> {
        self.policies.as_deref()
    }

    /// A hash of the variables the network itself declares: its route type
    /// and its symbolics' names and types. Networks of any topology and
    /// policy over one schema and one set of symbolics share it, so a policy
    /// or failure-budget edit keeps it. It does not decide whether two
    /// verification conditions can share a solver session — interfaces and
    /// properties declare free variables of their own, and a checker's
    /// encoder judges every variable by its name and type as it compiles
    /// it; the `tpbench` `algebra.signature` row times it.
    pub fn encoder_signature(&self) -> String {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.route_type.hash(&mut h);
        for s in &self.symbolics {
            (s.name(), s.ty()).hash(&mut h);
        }
        format!("decl:{:016x}", h.finish())
    }

    /// The preconditions of all symbolics, as boolean terms.
    pub fn symbolic_constraints(&self) -> Vec<Expr> {
        self.symbolics.iter().filter_map(|s| s.constraint().cloned()).collect()
    }

    /// A fresh variable denoting the route of node `u` (used as a neighbor
    /// input when building verification conditions).
    pub fn route_var(&self, u: NodeId) -> Expr {
        Expr::var(self.route_var_name(u), self.route_type.clone())
    }

    /// The name of [`Network::route_var`]'s variable for node `u` — the key
    /// a counterexample assignment binds that node's route under.
    pub fn route_var_name(&self, u: NodeId) -> String {
        format!("route-{}", self.topology.name(u))
    }

    /// A clone of this network with the policy of one edge replaced
    /// (`Some`) or its override removed so the edge falls back to the
    /// default policy (`None`) — the policy-delta primitive of the
    /// `timepieced` daemon. Only the edited edge's transfer is recompiled;
    /// every other component is shared with `self`, and so is the
    /// [`Network::encoder_signature`]: a policy declares no variable.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::NotPolicyMode`] for closure-built networks;
    /// * [`NetworkError::UnknownEdge`] if the topology lacks the edge;
    /// * [`NetworkError::MissingTransfer`] if removing the override leaves
    ///   the edge with no policy (no default was declared);
    /// * [`NetworkError::BadType`] if the new policy's output is ill-typed.
    pub fn set_edge_policy(
        &self,
        edge: (NodeId, NodeId),
        policy: Option<RoutePolicy>,
    ) -> Result<Network, NetworkError> {
        let Some(old) = &self.policies else { return Err(NetworkError::NotPolicyMode) };
        if !self.transfers.contains_key(&edge) {
            return Err(NetworkError::UnknownEdge { edge });
        }
        let mut edited = (**old).clone();
        match policy {
            Some(p) => {
                edited.edge_policies.insert(edge, p);
            }
            None => {
                edited.edge_policies.remove(&edge);
            }
        }
        let policies = Arc::new(edited);
        let Some(effective) = policies.policy(edge).cloned() else {
            return Err(NetworkError::MissingTransfer { edge });
        };
        // recompile exactly the edited edge, as `build` would have: the
        // other edges' closures capture the previous `Arc<NetworkPolicies>`,
        // which is fine — they only read the (unchanged) schema from it
        let p = Arc::clone(&policies);
        let fail_var = policies
            .failures
            .as_ref()
            .filter(|f| f.tracks(edge))
            .map(|_| FailureModel::var(&self.topology, edge));
        let transfer: TransferFn = Arc::new(move |r: &Expr| {
            let transferred = effective.compile(&p.schema, r);
            match &fail_var {
                Some(fail) => fail.clone().ite(p.schema.none_route(), transferred),
                None => transferred,
            }
        });
        let probe = Expr::var("probe-a", self.route_type.clone());
        expect_component(
            &transfer(&probe),
            &self.route_type,
            &format!(
                "transfer result of {} -> {}",
                self.topology.name(edge.0),
                self.topology.name(edge.1)
            ),
        )?;
        let mut net = self.clone();
        net.transfers.insert(edge, transfer);
        net.policies = Some(policies);
        Ok(net)
    }

    /// A clone of this network with the failure budget `f` replaced: the
    /// same tracked edges, a new at-most-`budget` assumption. Every failure
    /// symbolic's constraint is rebuilt (the budget constraint is a global
    /// fact each of them carries) and transfers are untouched (they gate on
    /// the failure *variable*, not the budget).
    ///
    /// # Errors
    ///
    /// * [`NetworkError::NotPolicyMode`] for closure-built networks;
    /// * [`NetworkError::NoFailureModel`] if the network tracks no failures.
    pub fn with_failure_budget(&self, budget: u64) -> Result<Network, NetworkError> {
        let Some(old) = &self.policies else { return Err(NetworkError::NotPolicyMode) };
        let Some(model) = &old.failures else { return Err(NetworkError::NoFailureModel) };
        let model = FailureModel::at_most(budget, model.edges().iter().copied());
        let constraint = model.budget_constraint(&self.topology);
        let fail_names: std::collections::HashSet<String> =
            model.edges().iter().map(|&e| FailureModel::var_name(&self.topology, e)).collect();
        let mut edited = (**old).clone();
        edited.failures = Some(model);
        let mut net = self.clone();
        net.symbolics = self
            .symbolics
            .iter()
            .map(|s| {
                if fail_names.contains(s.name()) {
                    Symbolic::new(s.name().to_owned(), s.ty().clone(), Some(constraint.clone()))
                } else {
                    s.clone()
                }
            })
            .collect();
        net.policies = Some(Arc::new(edited));
        Ok(net)
    }

    /// The one-step update `I(v) ⊕ ⨁_u f_{uv}(r_u)` of equation (4), given a
    /// route term for each in-neighbor (in `preds(v)` order).
    ///
    /// # Panics
    ///
    /// Panics if `neighbor_routes` does not match `preds(v)` in length.
    pub fn step(&self, v: NodeId, neighbor_routes: &[Expr]) -> Expr {
        let preds = self.topology.preds(v);
        assert_eq!(
            preds.len(),
            neighbor_routes.len(),
            "step at {} expects one route per in-neighbor",
            self.topology.name(v)
        );
        let mut acc = self.init(v).clone();
        for (&u, r) in preds.iter().zip(neighbor_routes) {
            let transferred = self.transfer((u, v), r);
            acc = self.merge(&acc, &transferred);
        }
        acc
    }
}

/// Builder for [`Network`], validating component types at [`build`].
///
/// The checker binds `t`, `route-<node>` and the positional `route@…` names
/// in every condition it builds ([`is_checker_bound`]), so no component may
/// use them itself — the checker's variable would capture its own. [`build`]
/// refuses a symbolic so named, and an initial route, a symbolic's
/// constraint, or a transfer or merge result (applied to probe routes) that
/// mentions one.
///
/// [`build`]: NetworkBuilder::build
pub struct NetworkBuilder {
    topology: Topology,
    route_type: Type,
    init: Vec<Option<Expr>>,
    transfers: HashMap<(NodeId, NodeId), TransferFn>,
    default_transfer: Option<TransferFn>,
    merge: Option<MergeFn>,
    symbolics: Vec<Symbolic>,
    schema: Option<RouteSchema>,
    edge_policies: HashMap<(NodeId, NodeId), RoutePolicy>,
    default_policy: Option<RoutePolicy>,
    failures: Option<FailureModel>,
}

impl fmt::Debug for NetworkBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetworkBuilder")
            .field("nodes", &self.topology.node_count())
            .field("route_type", &self.route_type.to_string())
            .finish()
    }
}

impl NetworkBuilder {
    /// Starts a builder for a topology and route type.
    pub fn new(topology: Topology, route_type: Type) -> NetworkBuilder {
        let n = topology.node_count();
        NetworkBuilder {
            topology,
            route_type,
            init: vec![None; n],
            transfers: HashMap::new(),
            default_transfer: None,
            merge: None,
            symbolics: Vec::new(),
            schema: None,
            edge_policies: HashMap::new(),
            default_policy: None,
            failures: None,
        }
    }

    /// Starts a *policy-mode* builder from a [`RouteSchema`]: the route type
    /// is the schema's, the merge `⊕` is compiled from the schema's keys,
    /// and transfers are declared as [`RoutePolicy`] values via
    /// [`NetworkBuilder::policy`] / [`NetworkBuilder::default_policy`].
    ///
    /// One declarative definition then drives simulation (value semantics),
    /// SMT (compiled terms) and inference (the schema's atom grammar).
    pub fn from_schema(topology: Topology, schema: RouteSchema) -> NetworkBuilder {
        let mut builder = NetworkBuilder::new(topology, schema.route_type());
        builder.schema = Some(schema);
        builder
    }

    /// Declares the policy of one edge (policy mode).
    pub fn policy(mut self, edge: (NodeId, NodeId), policy: RoutePolicy) -> Self {
        self.edge_policies.insert(edge, policy);
        self
    }

    /// Declares the policy used by edges without a specific one (policy
    /// mode).
    pub fn default_policy(mut self, policy: RoutePolicy) -> Self {
        self.default_policy = Some(policy);
        self
    }

    /// Attaches a bounded link-failure model (policy mode): every tracked
    /// edge's transfer is wrapped in its failure boolean (`fail → ∞`), the
    /// booleans join the network's symbolics, and the at-most-`f` budget is
    /// threaded through every verification condition as a constraint.
    pub fn failures(mut self, model: FailureModel) -> Self {
        self.failures = Some(model);
        self
    }

    /// Sets the merge function `⊕`.
    pub fn merge(mut self, f: impl Fn(&Expr, &Expr) -> Expr + Send + Sync + 'static) -> Self {
        self.merge = Some(Arc::new(f));
        self
    }

    /// Sets the initial route of a node (default: the route type's default
    /// value — `None` for option route types, matching the paper's `∞`).
    pub fn init(mut self, v: NodeId, route: Expr) -> Self {
        self.init[v.index()] = Some(route);
        self
    }

    /// Sets the transfer function of one edge.
    pub fn transfer(
        mut self,
        edge: (NodeId, NodeId),
        f: impl Fn(&Expr) -> Expr + Send + Sync + 'static,
    ) -> Self {
        self.transfers.insert(edge, Arc::new(f));
        self
    }

    /// Sets the transfer function used by edges without a specific one.
    pub fn default_transfer(mut self, f: impl Fn(&Expr) -> Expr + Send + Sync + 'static) -> Self {
        self.default_transfer = Some(Arc::new(f));
        self
    }

    /// Declares a symbolic input.
    pub fn symbolic(mut self, s: Symbolic) -> Self {
        self.symbolics.push(s);
        self
    }

    /// Validates and assembles the network.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::MissingTransfer`] if an edge lacks a transfer
    ///   function and no default was set;
    /// * [`NetworkError::DuplicateSymbolic`] for name collisions;
    /// * [`NetworkError::ReservedName`] for a symbolic named like a variable
    ///   the checker binds ([`is_checker_bound`]), or an initial route,
    ///   constraint, transfer output or merge output mentioning one;
    /// * [`NetworkError::BadType`] if any initial route, transfer output,
    ///   merge output or symbolic constraint does not type check against the
    ///   route type.
    pub fn build(self) -> Result<Network, NetworkError> {
        let NetworkBuilder {
            topology,
            route_type,
            init,
            mut transfers,
            default_transfer,
            mut merge,
            mut symbolics,
            schema,
            edge_policies,
            default_policy,
            failures,
        } = self;

        // policy mode: compile the declarative IR into the transfer/merge
        // slots the rest of the pipeline consumes, and remember the IR
        let policies = match schema {
            None => {
                if !edge_policies.is_empty() || default_policy.is_some() || failures.is_some() {
                    return Err(NetworkError::MixedPolicyModes);
                }
                None
            }
            Some(schema) => {
                if !transfers.is_empty() || default_transfer.is_some() || merge.is_some() {
                    return Err(NetworkError::MixedPolicyModes);
                }
                let policies =
                    Arc::new(NetworkPolicies { schema, edge_policies, default_policy, failures });
                {
                    let p = Arc::clone(&policies);
                    merge = Some(Arc::new(move |a: &Expr, b: &Expr| p.schema.merge_expr(a, b)));
                }
                for (u, v) in topology.edges() {
                    let Some(policy) = policies.policy((u, v)).cloned() else { continue };
                    let p = Arc::clone(&policies);
                    let fail_var = policies
                        .failures
                        .as_ref()
                        .filter(|f| f.tracks((u, v)))
                        .map(|_| FailureModel::var(&topology, (u, v)));
                    transfers.insert(
                        (u, v),
                        Arc::new(move |r: &Expr| {
                            let transferred = policy.compile(&p.schema, r);
                            match &fail_var {
                                Some(fail) => fail.clone().ite(p.schema.none_route(), transferred),
                                None => transferred,
                            }
                        }),
                    );
                }
                if let Some(model) = &policies.failures {
                    // every failure variable carries the (shared) at-most-f
                    // budget constraint: the global fact survives any
                    // consumer that samples, filters or reorders symbolics
                    // individually; duplicate assumptions are harmless
                    for &edge in model.edges() {
                        symbolics.push(Symbolic::new(
                            FailureModel::var_name(&topology, edge),
                            Type::Bool,
                            Some(model.budget_constraint(&topology)),
                        ));
                    }
                }
                Some(policies)
            }
        };

        for (i, s) in symbolics.iter().enumerate() {
            if is_checker_bound(s.name()) {
                return Err(NetworkError::ReservedName {
                    what: "symbolic value".to_owned(),
                    name: s.name().to_owned(),
                });
            }
            if symbolics[..i].iter().any(|t| t.name() == s.name()) {
                return Err(NetworkError::DuplicateSymbolic(s.name().to_owned()));
            }
            if let Some(c) = s.constraint() {
                expect_component(c, &Type::Bool, &format!("constraint of symbolic {}", s.name()))?;
            }
        }

        // fill in defaults and check edges
        for (u, v) in topology.edges() {
            if let std::collections::hash_map::Entry::Vacant(e) = transfers.entry((u, v)) {
                match &default_transfer {
                    Some(f) => {
                        e.insert(Arc::clone(f));
                    }
                    None => return Err(NetworkError::MissingTransfer { edge: (u, v) }),
                }
            }
        }

        let merge = merge.unwrap_or_else(|| {
            // a network with no merge cannot select among neighbors; default to
            // first-argument selection only for single-predecessor graphs, but
            // requiring an explicit merge is clearer — keep a panicking stub.
            Arc::new(|_: &Expr, _: &Expr| panic!("network merge function was not set"))
        });

        let default_init = Expr::constant(Value::default_of(&route_type));
        let init: Vec<Expr> =
            init.into_iter().map(|e| e.unwrap_or_else(|| default_init.clone())).collect();

        // type check every component against the route type, and refuse
        // the names the checker binds
        let probe_a = Expr::var("probe-a", route_type.clone());
        let probe_b = Expr::var("probe-b", route_type.clone());
        expect_component(&merge(&probe_a, &probe_b), &route_type, "merge result")?;
        for (v, e) in init.iter().enumerate() {
            expect_component(
                e,
                &route_type,
                &format!("initial route of {}", topology.name(NodeId::new(v as u32))),
            )?;
        }
        for ((u, v), f) in &transfers {
            expect_component(
                &f(&probe_a),
                &route_type,
                &format!("transfer result of {} -> {}", topology.name(*u), topology.name(*v)),
            )?;
        }

        Ok(Network {
            topology: Arc::new(topology),
            route_type,
            init,
            transfers,
            merge,
            symbolics,
            policies,
        })
    }
}

/// `e` has type `expected` and mentions no variable the checker binds.
fn expect_component(e: &Expr, expected: &Type, what: &str) -> Result<(), NetworkError> {
    expect_type(e, expected, what)?;
    let vars =
        e.free_vars().map_err(|source| NetworkError::BadType { what: what.to_owned(), source })?;
    match vars.into_keys().find(|name| is_checker_bound(name)) {
        Some(name) => Err(NetworkError::ReservedName { what: what.to_owned(), name }),
        None => Ok(()),
    }
}

fn expect_type(e: &Expr, expected: &Type, what: &str) -> Result<(), NetworkError> {
    match e.type_of() {
        Ok(t) if &t == expected => Ok(()),
        Ok(t) => Err(NetworkError::BadType {
            what: what.to_owned(),
            source: TypeError::Mismatch {
                context: "network component",
                expected: expected.clone(),
                found: t,
            },
        }),
        Err(source) => Err(NetworkError::BadType { what: what.to_owned(), source }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timepiece_expr::Env;
    use timepiece_topology::gen;

    fn hoplimit_net() -> Network {
        let g = gen::path(3);
        let dest = g.node_by_name("v0").unwrap();
        NetworkBuilder::new(g, Type::option(Type::Int))
            .merge(|a, b| {
                let a_better = a.clone().get_some().le(b.clone().get_some());
                b.clone().is_none().or(a.clone().is_some().and(a_better)).ite(a.clone(), b.clone())
            })
            .default_transfer(|r| {
                r.clone().match_option(Expr::none(Type::Int), |h| h.add(Expr::int(1)).some())
            })
            .init(dest, Expr::int(0).some())
            .build()
            .expect("valid network")
    }

    #[test]
    fn build_validates_and_steps() {
        let net = hoplimit_net();
        let g = net.topology();
        let v1 = g.node_by_name("v1").unwrap();
        // v1's only pred is v0 with route Some(0): one step gives Some(1)
        let stepped = net.step(v1, &[Expr::int(0).some()]);
        let v = stepped.eval(&Env::new()).unwrap();
        assert_eq!(v, Value::some(Value::int(1)));
    }

    #[test]
    fn default_init_is_type_default() {
        let net = hoplimit_net();
        let g = net.topology();
        let v2 = g.node_by_name("v2").unwrap();
        let v = net.init(v2).eval(&Env::new()).unwrap();
        assert_eq!(v, Value::none(Type::Int));
    }

    #[test]
    fn missing_transfer_reported() {
        let g = gen::path(2);
        let err = NetworkBuilder::new(g, Type::Bool)
            .merge(|a, b| a.clone().or(b.clone()))
            .build()
            .unwrap_err();
        assert!(matches!(err, NetworkError::MissingTransfer { .. }));
    }

    #[test]
    fn ill_typed_merge_reported() {
        let g = gen::path(2);
        let err = NetworkBuilder::new(g, Type::Bool)
            .merge(|a, b| a.clone().and(b.clone()).some()) // option<bool>, not bool
            .default_transfer(|r| r.clone())
            .build()
            .unwrap_err();
        assert!(matches!(err, NetworkError::BadType { .. }));
    }

    #[test]
    fn ill_typed_init_reported() {
        let g = gen::path(2);
        let v0 = g.node_by_name("v0").unwrap();
        let err = NetworkBuilder::new(g, Type::Bool)
            .merge(|a, b| a.clone().or(b.clone()))
            .default_transfer(|r| r.clone())
            .init(v0, Expr::int(3))
            .build()
            .unwrap_err();
        assert!(matches!(err, NetworkError::BadType { .. }));
    }

    #[test]
    fn symbolics_named_like_checker_variables_are_refused() {
        for name in ["t", "route-v0", "route-nowhere", "route@self", "route@in3"] {
            let err = NetworkBuilder::new(gen::path(2), Type::Bool)
                .merge(|a, b| a.clone().or(b.clone()))
                .default_transfer(|r| r.clone())
                .symbolic(Symbolic::new(name, Type::Int, None))
                .build()
                .unwrap_err();
            assert_eq!(
                err,
                NetworkError::ReservedName { what: "symbolic value".into(), name: name.into() }
            );
        }
        // names that merely contain a reserved one are free
        for name in ["time", "tt", "router", "my-route-v0"] {
            assert!(!is_checker_bound(name), "{name}");
        }
    }

    #[test]
    fn components_mentioning_checker_variables_are_refused() {
        let g = gen::path(2);
        let (v0, v1) = (g.node_by_name("v0").unwrap(), g.node_by_name("v1").unwrap());
        let bound = |name: &str| Expr::var(name, Type::Bool);
        let base = || {
            NetworkBuilder::new(g.clone(), Type::Bool)
                .merge(|a, b| a.clone().or(b.clone()))
                .default_transfer(|r| r.clone())
        };
        let refused = |b: NetworkBuilder, what: &str, name: &str| {
            let what = what.to_owned();
            assert_eq!(
                b.build().unwrap_err(),
                NetworkError::ReservedName { what, name: name.into() }
            );
        };
        let in0 = bound("route@in0");
        refused(
            base().transfer((v0, v1), move |r| r.clone().and(in0.clone().not())),
            "transfer result of v0 -> v1",
            "route@in0",
        );
        let own = bound("route-v0");
        refused(
            base().merge(move |a, b| a.clone().or(b.clone()).or(own.clone())),
            "merge result",
            "route-v0",
        );
        refused(base().init(v1, bound("route@self")), "initial route of v1", "route@self");
        let late = Expr::var("x", Type::Int).lt(Expr::var(TIME_VAR, Type::Int));
        refused(
            base().symbolic(Symbolic::new("x", Type::Int, Some(late))),
            "constraint of symbolic x",
            TIME_VAR,
        );
    }

    #[test]
    fn duplicate_symbolic_reported() {
        let g = gen::path(2);
        let err = NetworkBuilder::new(g, Type::Bool)
            .merge(|a, b| a.clone().or(b.clone()))
            .default_transfer(|r| r.clone())
            .symbolic(Symbolic::new("s", Type::Bool, None))
            .symbolic(Symbolic::new("s", Type::Int, None))
            .build()
            .unwrap_err();
        assert_eq!(err, NetworkError::DuplicateSymbolic("s".into()));
    }

    #[test]
    fn symbolic_constraints_collected() {
        let g = gen::path(2);
        let s = Symbolic::new("x", Type::Int, None);
        let c = s.var().ge(Expr::int(0));
        let net = NetworkBuilder::new(g, Type::Bool)
            .merge(|a, b| a.clone().or(b.clone()))
            .default_transfer(|r| r.clone())
            .symbolic(Symbolic::new("x", Type::Int, Some(c)))
            .build()
            .unwrap();
        assert_eq!(net.symbolics().len(), 1);
        assert_eq!(net.symbolic_constraints().len(), 1);
        let _ = s;
    }

    #[test]
    fn network_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Network>();
    }

    #[test]
    fn per_edge_transfer_overrides_default() {
        let g = gen::path(2);
        let v0 = g.node_by_name("v0").unwrap();
        let v1 = g.node_by_name("v1").unwrap();
        let net = NetworkBuilder::new(g, Type::Bool)
            .merge(|a, b| a.clone().or(b.clone()))
            .default_transfer(|r| r.clone())
            .transfer((v0, v1), |_| Expr::bool(false))
            .build()
            .unwrap();
        let out = net.transfer((v0, v1), &Expr::bool(true));
        assert_eq!(out.eval(&Env::new()).unwrap(), Value::Bool(false));
    }

    #[test]
    fn policy_mode_builds_and_records_the_ir() {
        use crate::policy::{MergeKey, RoutePolicy, RouteSchema};
        let schema = RouteSchema::new(
            "Hop",
            [("len".to_owned(), Type::Int)],
            [MergeKey::Lower("len".into())],
        );
        let g = gen::path(3);
        let dest = g.node_by_name("v0").unwrap();
        let origin = Expr::record(schema.record_def(), vec![Expr::int(0)]).some();
        let net = NetworkBuilder::from_schema(g, schema.clone())
            .default_policy(RoutePolicy::new().increment("len"))
            .init(dest, origin)
            .build()
            .expect("policy network builds");
        assert!(net.policies().is_some());
        // the signature names declarations, not how the network was built:
        // the same route type without an IR has the same signature
        let closure_built = NetworkBuilder::new(gen::path(5), schema.route_type())
            .merge(|a, _| a.clone())
            .default_transfer(|r| r.clone())
            .build()
            .unwrap();
        assert_eq!(net.encoder_signature(), closure_built.encoder_signature());
        assert_ne!(net.encoder_signature(), hoplimit_net().encoder_signature());
        // the compiled transfer increments
        let v1 = net.topology().node_by_name("v1").unwrap();
        let stepped = net.step(v1, &[Expr::record(schema.record_def(), vec![Expr::int(0)]).some()]);
        let out = stepped.eval(&Env::new()).unwrap();
        assert_eq!(out.unwrap_or_default().unwrap().field("len").unwrap().as_int(), Some(1));
    }

    #[test]
    fn mixed_modes_are_rejected() {
        use crate::policy::{MergeKey, RoutePolicy, RouteSchema};
        let schema = RouteSchema::new(
            "Hop",
            [("len".to_owned(), Type::Int)],
            [MergeKey::Lower("len".into())],
        );
        let err = NetworkBuilder::from_schema(gen::path(2), schema)
            .default_policy(RoutePolicy::new().increment("len"))
            .merge(|a, _| a.clone())
            .build()
            .unwrap_err();
        assert_eq!(err, NetworkError::MixedPolicyModes);
        let err = NetworkBuilder::new(gen::path(2), Type::Bool)
            .merge(|a, b| a.clone().or(b.clone()))
            .default_transfer(|r| r.clone())
            .default_policy(RoutePolicy::new())
            .build()
            .unwrap_err();
        assert_eq!(err, NetworkError::MixedPolicyModes);
    }

    #[test]
    fn failure_model_adds_symbolics_and_budget_constraint() {
        use crate::policy::{FailureModel, MergeKey, RoutePolicy, RouteSchema};
        let schema = RouteSchema::new(
            "Hop",
            [("len".to_owned(), Type::Int)],
            [MergeKey::Lower("len".into())],
        );
        let g = gen::undirected_path(3);
        let dest = g.node_by_name("v0").unwrap();
        let v1 = g.node_by_name("v1").unwrap();
        let origin = Expr::record(schema.record_def(), vec![Expr::int(0)]).some();
        let net = NetworkBuilder::from_schema(g, schema.clone())
            .default_policy(RoutePolicy::new().increment("len"))
            .failures(FailureModel::at_most(1, [(dest, v1)]))
            .init(dest, origin)
            .build()
            .unwrap();
        assert_eq!(net.symbolics().len(), 1);
        assert_eq!(net.symbolic_constraints().len(), 1, "budget constraint attached");
        // the tracked edge's transfer yields ∞ when its failure bit is up
        let fail_name = FailureModel::var_name(net.topology(), (dest, v1));
        let transferred =
            net.transfer((dest, v1), &Expr::record(schema.record_def(), vec![Expr::int(0)]).some());
        let mut env = Env::new();
        env.bind(fail_name.clone(), Value::Bool(true));
        assert_eq!(transferred.eval(&env).unwrap().is_some_option(), Some(false));
        env.bind(fail_name, Value::Bool(false));
        assert_eq!(transferred.eval(&env).unwrap().is_some_option(), Some(true));
    }

    #[test]
    fn set_edge_policy_recompiles_one_edge_and_restores() {
        use crate::policy::{MergeKey, RouteGuard, RoutePolicy, RouteSchema};
        let schema = RouteSchema::new(
            "Hop",
            [("len".to_owned(), Type::Int)],
            [MergeKey::Lower("len".into())],
        );
        let g = gen::path(3);
        let dest = g.node_by_name("v0").unwrap();
        let v1 = g.node_by_name("v1").unwrap();
        let v2 = g.node_by_name("v2").unwrap();
        let origin = Expr::record(schema.record_def(), vec![Expr::int(0)]).some();
        let net = NetworkBuilder::from_schema(g, schema.clone())
            .default_policy(RoutePolicy::new().increment("len"))
            .init(dest, origin)
            .build()
            .unwrap();
        let sig = net.encoder_signature();
        let sample = Expr::record(schema.record_def(), vec![Expr::int(0)]).some();
        let down = net
            .set_edge_policy((dest, v1), Some(RoutePolicy::new().drop_if(RouteGuard::True)))
            .unwrap();
        // the edited edge now drops every route; the other edge still works
        assert_eq!(
            down.transfer((dest, v1), &sample).eval(&Env::new()).unwrap().is_some_option(),
            Some(false)
        );
        assert_eq!(
            down.transfer((v1, v2), &sample).eval(&Env::new()).unwrap().is_some_option(),
            Some(true)
        );
        assert_eq!(down.encoder_signature(), sig, "a policy edit declares nothing new");
        // removing the override restores the default policy
        let restored = down.set_edge_policy((dest, v1), None).unwrap();
        assert_eq!(restored.encoder_signature(), sig);
        assert_eq!(
            restored.transfer((dest, v1), &sample).eval(&Env::new()).unwrap().is_some_option(),
            Some(true)
        );
    }

    #[test]
    fn set_edge_policy_rejects_bad_inputs() {
        use crate::policy::{MergeKey, RoutePolicy, RouteSchema};
        let closure_net = hoplimit_net();
        let v0 = closure_net.topology().node_by_name("v0").unwrap();
        let v1 = closure_net.topology().node_by_name("v1").unwrap();
        assert_eq!(
            closure_net.set_edge_policy((v0, v1), None).unwrap_err(),
            NetworkError::NotPolicyMode
        );
        let schema = RouteSchema::new(
            "Hop",
            [("len".to_owned(), Type::Int)],
            [MergeKey::Lower("len".into())],
        );
        let g = gen::path(2);
        let v0 = g.node_by_name("v0").unwrap();
        let v1 = g.node_by_name("v1").unwrap();
        let net = NetworkBuilder::from_schema(g, schema)
            .policy((v0, v1), RoutePolicy::new().increment("len"))
            .build()
            .unwrap();
        // no edge v1 -> v0 on a directed path
        assert!(matches!(
            net.set_edge_policy((v1, v0), None).unwrap_err(),
            NetworkError::UnknownEdge { .. }
        ));
        // removing the only policy of an edge with no default
        assert!(matches!(
            net.set_edge_policy((v0, v1), None).unwrap_err(),
            NetworkError::MissingTransfer { .. }
        ));
    }

    #[test]
    fn with_failure_budget_rebuilds_constraints() {
        use crate::policy::{FailureModel, MergeKey, RoutePolicy, RouteSchema};
        let schema = RouteSchema::new(
            "Hop",
            [("len".to_owned(), Type::Int)],
            [MergeKey::Lower("len".into())],
        );
        let g = gen::undirected_path(3);
        let dest = g.node_by_name("v0").unwrap();
        let v1 = g.node_by_name("v1").unwrap();
        let v2 = g.node_by_name("v2").unwrap();
        let origin = Expr::record(schema.record_def(), vec![Expr::int(0)]).some();
        let net = NetworkBuilder::from_schema(g, schema)
            .default_policy(RoutePolicy::new().increment("len"))
            .failures(FailureModel::at_most(0, [(dest, v1), (v1, v2)]))
            .init(dest, origin)
            .build()
            .unwrap();
        let sig = net.encoder_signature();
        let rebudgeted = net.with_failure_budget(1).unwrap();
        assert_eq!(rebudgeted.encoder_signature(), sig, "same failure variables, same key");
        assert_eq!(
            rebudgeted.policies().unwrap().failures.as_ref().unwrap().budget(),
            1,
            "new model installed"
        );
        // under budget 1 a single failure satisfies every constraint;
        // under the original budget 0 it violated them
        let mut env = Env::new();
        let model = rebudgeted.policies().unwrap().failures.as_ref().unwrap().clone();
        model.bind_failures(rebudgeted.topology(), &mut env, &[(dest, v1)]);
        for c in rebudgeted.symbolic_constraints() {
            assert_eq!(c.eval(&env).unwrap(), Value::Bool(true));
        }
        assert!(net
            .symbolic_constraints()
            .iter()
            .all(|c| c.eval(&env).unwrap() == Value::Bool(false)));
        // closure-built networks cannot be re-budgeted
        assert_eq!(hoplimit_net().with_failure_budget(1).unwrap_err(), NetworkError::NotPolicyMode);
    }

    #[test]
    fn step_length_mismatch_panics() {
        let net = hoplimit_net();
        let v1 = net.topology().node_by_name("v1").unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.step(v1, &[])));
        assert!(result.is_err());
    }
}
