//! Compiling a parsed scenario document down to the verification machinery.
//!
//! The pipeline is parse ([`crate::toml`]) → validate (every name, type and
//! merge key checked with positions) → lower (build the
//! [`Network`], per-node interface and property through the same
//! [`NetworkBuilder`] path the Rust-literal benchmarks use). The output,
//! [`CompiledScenario`], produces [`Instance`]s on demand, so compiled
//! scenarios run unmodified through sweeps, the daemon and inference.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use timepiece_algebra::{
    is_checker_bound, FailureModel, MergeKey, Network, NetworkBuilder, PolicyClause, RewriteOp,
    RouteGuard, RoutePolicy, RouteSchema, Symbolic,
};
use timepiece_core::{Instance, NodeAnnotations, Temporal};
use timepiece_expr::{Env, Expr, Type, Value};
use timepiece_infer::{InferOptions, InferenceEngine, RoleMap};
use timepiece_topology::{FatTree, NodeId, Topology};

use crate::term::{self, TypeEnv};
use crate::toml::{self, Span, Spanned, Table, TomlValue};

/// A scenario compilation error, with the source position when known.
#[derive(Debug, Clone)]
pub struct ScenarioError {
    /// What is wrong.
    pub message: String,
    /// Where (absent for whole-document problems).
    pub span: Option<Span>,
}

impl ScenarioError {
    fn at(span: Span, message: impl Into<String>) -> ScenarioError {
        ScenarioError { message: message.into(), span: Some(span) }
    }

    fn whole(message: impl Into<String>) -> ScenarioError {
        ScenarioError { message: message.into(), span: None }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(span) => write!(f, "{span}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<toml::TomlError> for ScenarioError {
    fn from(e: toml::TomlError) -> ScenarioError {
        ScenarioError { message: e.message, span: Some(e.span) }
    }
}

/// A scenario lowered to the existing verification machinery.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// Display name (used as the registry name when registered).
    pub name: String,
    /// Figure tag (free-form; `file` when the document does not set one).
    pub figure: String,
    /// Nominal size: the declared `k`, the fattree parameter, or the node
    /// count. Compiled scenarios have a fixed topology, so sweeps run them
    /// at exactly this size.
    pub k: usize,
    /// The compiled network.
    pub network: Network,
    /// Per-node temporal interfaces (inferred when `[interface] infer`).
    pub interface: NodeAnnotations,
    /// Per-node properties.
    pub property: NodeAnnotations,
}

impl CompiledScenario {
    /// A fresh annotated instance (clones the compiled parts).
    pub fn instance(&self) -> Instance {
        Instance {
            network: self.network.clone(),
            interface: self.interface.clone(),
            property: self.property.clone(),
        }
    }

    /// An environment closing the network for concrete simulation: every
    /// symbolic bound to its type's default, every failure variable to
    /// "link up".
    pub fn closing_env(&self) -> Env {
        closing_env(&self.network)
    }
}

/// An environment closing `network` for concrete simulation (symbolics at
/// their type defaults, all tracked links up).
pub fn closing_env(network: &Network) -> Env {
    let mut env = Env::new();
    for s in network.symbolics() {
        env.bind(s.name().to_owned(), Value::default_of(s.ty()));
    }
    if let Some(model) = network.policies().and_then(|p| p.failures.as_ref()) {
        model.bind_failures(network.topology(), &mut env, &[]);
    }
    env
}

// ---------------------------------------------------------------------------
// Table access helpers
// ---------------------------------------------------------------------------

fn section<'t>(doc: &'t Table, name: &str) -> Result<Option<&'t Table>, ScenarioError> {
    match doc.get(name) {
        None => Ok(None),
        Some(Spanned { value: TomlValue::Table(t), .. }) => Ok(Some(t)),
        Some(v) => Err(ScenarioError::at(v.span, format!("[{name}] must be a table"))),
    }
}

fn require_section<'t>(doc: &'t Table, name: &str) -> Result<&'t Table, ScenarioError> {
    section(doc, name)?
        .ok_or_else(|| ScenarioError::at(doc.span, format!("missing required section [{name}]")))
}

fn str_key<'t>(t: &'t Table, key: &str) -> Result<Option<(&'t str, Span)>, ScenarioError> {
    match t.get(key) {
        None => Ok(None),
        Some(Spanned { value: TomlValue::Str(s), span }) => Ok(Some((s, *span))),
        Some(v) => Err(ScenarioError::at(
            v.span,
            format!("{key:?} must be a string, found {}", v.value.kind()),
        )),
    }
}

fn require_str<'t>(t: &'t Table, key: &str) -> Result<(&'t str, Span), ScenarioError> {
    str_key(t, key)?
        .ok_or_else(|| ScenarioError::at(t.span, format!("missing required key {key:?}")))
}

fn int_key(t: &Table, key: &str) -> Result<Option<(i64, Span)>, ScenarioError> {
    match t.get(key) {
        None => Ok(None),
        Some(Spanned { value: TomlValue::Int(n), span }) => Ok(Some((*n, *span))),
        Some(v) => Err(ScenarioError::at(
            v.span,
            format!("{key:?} must be an integer, found {}", v.value.kind()),
        )),
    }
}

fn bool_key(t: &Table, key: &str) -> Result<Option<(bool, Span)>, ScenarioError> {
    match t.get(key) {
        None => Ok(None),
        Some(Spanned { value: TomlValue::Bool(b), span }) => Ok(Some((*b, *span))),
        Some(v) => Err(ScenarioError::at(
            v.span,
            format!("{key:?} must be a boolean, found {}", v.value.kind()),
        )),
    }
}

fn array_key<'t>(
    t: &'t Table,
    key: &str,
) -> Result<Option<&'t [Spanned<TomlValue>]>, ScenarioError> {
    match t.get(key) {
        None => Ok(None),
        Some(Spanned { value: TomlValue::Array(items), .. }) => Ok(Some(items)),
        Some(v) => Err(ScenarioError::at(
            v.span,
            format!("{key:?} must be an array, found {}", v.value.kind()),
        )),
    }
}

fn as_str(v: &Spanned<TomlValue>, what: &str) -> Result<(String, Span), ScenarioError> {
    match &v.value {
        TomlValue::Str(s) => Ok((s.clone(), v.span)),
        other => Err(ScenarioError::at(
            v.span,
            format!("{what} must be a string, found {}", other.kind()),
        )),
    }
}

fn as_pair(v: &Spanned<TomlValue>, what: &str) -> Result<(String, String, Span), ScenarioError> {
    match &v.value {
        TomlValue::Array(pair) if pair.len() == 2 => {
            let (a, _) = as_str(&pair[0], what)?;
            let (b, _) = as_str(&pair[1], what)?;
            Ok((a, b, v.span))
        }
        _ => Err(ScenarioError::at(v.span, format!("{what} must be a two-element array"))),
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

struct Ctx {
    topology: Topology,
    fattree_k: Option<usize>,
    schema: RouteSchema,
    env: TypeEnv,
    edges: HashSet<(NodeId, NodeId)>,
}

impl Ctx {
    fn node(&self, name: &str, span: Span) -> Result<NodeId, ScenarioError> {
        self.topology.node_by_name(name).ok_or_else(|| {
            ScenarioError::at(span, format!("unknown node {name:?} (not in the topology)"))
        })
    }

    fn field_type(&self, field: &str) -> Option<&Type> {
        let def = self.schema.record_def();
        def.field_index(field).map(|i| &def.fields()[i].1)
    }
}

/// Compiles a scenario document.
///
/// # Errors
///
/// Returns a [`ScenarioError`] carrying the source position of the first
/// problem: syntax errors, unknown nodes or fields, ill-typed rewrites or
/// terms, non-total merge keys, missing sections.
pub fn compile_str(src: &str) -> Result<CompiledScenario, ScenarioError> {
    let doc = toml::parse(src)?;

    // --- [scenario] ---
    let meta = require_section(&doc, "scenario")?;
    let (name, _) = require_str(meta, "name")?;
    let figure =
        str_key(meta, "figure")?.map(|(s, _)| s.to_owned()).unwrap_or_else(|| "file".to_owned());
    let declared_k = int_key(meta, "k")?;

    // --- [topology] ---
    let topo_section = require_section(&doc, "topology")?;
    let (topology, fattree_k) = compile_topology(topo_section)?;

    // --- [schema] ---
    let schema_section = require_section(&doc, "schema")?;
    let (schema, mut env) = compile_schema(schema_section)?;

    let mut ctx = Ctx {
        edges: topology.edges().collect(),
        topology,
        fattree_k,
        schema,
        env: TypeEnv::default(),
    };

    // --- [[symbolic.var]] --- (before terms: their types may add names)
    let mut symbolics: Vec<(String, Type, Option<String>, Span)> = Vec::new();
    if let Some(sym_section) = section(&doc, "symbolic")? {
        if let Some(vars) = array_key(sym_section, "var")? {
            for v in vars {
                let TomlValue::Table(t) = &v.value else {
                    return Err(ScenarioError::at(v.span, "[[symbolic.var]] entries are tables"));
                };
                let (sname, nspan) = require_str(t, "name")?;
                if is_checker_bound(sname) {
                    return Err(ScenarioError::at(nspan, term::reserved_name(sname)));
                }
                let (stype, tspan) = require_str(t, "type")?;
                let ty = term::parse_type(stype, &env)
                    .map_err(|e| ScenarioError::at(tspan, format!("bad symbolic type: {e}")))?;
                env.register(&ty);
                let constraint = str_key(t, "constraint")?.map(|(s, _)| s.to_owned());
                symbolics.push((sname.to_owned(), ty, constraint, v.span));
            }
        }
    }
    ctx.env = env;

    // --- [policy] ---
    let mut default_policy: Option<RoutePolicy> = None;
    let mut edge_policies: Vec<((NodeId, NodeId), RoutePolicy)> = Vec::new();
    if let Some(policy_section) = section(&doc, "policy")? {
        if let Some(clauses) = array_key(policy_section, "default")? {
            default_policy = Some(compile_policy(&ctx, clauses)?);
        }
        if let Some(edges) = edge_policy_entries(policy_section)? {
            for entry in edges {
                let TomlValue::Table(t) = &entry.value else {
                    return Err(ScenarioError::at(
                        entry.span,
                        "[[policy.edge]] entries are tables",
                    ));
                };
                let (from, fspan) = require_str(t, "from")?;
                let (to, tspan) = require_str(t, "to")?;
                let u = ctx.node(from, fspan)?;
                let v = ctx.node(to, tspan)?;
                if !ctx.edges.contains(&(u, v)) {
                    return Err(ScenarioError::at(
                        fspan,
                        format!("the topology has no edge {from:?} -> {to:?}"),
                    ));
                }
                let clauses = array_key(t, "clauses")?.ok_or_else(|| {
                    ScenarioError::at(entry.span, "missing required key \"clauses\"")
                })?;
                edge_policies.push(((u, v), compile_policy(&ctx, clauses)?));
            }
        }
    }

    // --- [failures] ---
    let mut failures: Option<FailureModel> = None;
    if let Some(fail_section) = section(&doc, "failures")? {
        let (budget, bspan) = int_key(fail_section, "budget")?.ok_or_else(|| {
            ScenarioError::at(fail_section.span, "missing required key \"budget\"")
        })?;
        if budget < 0 {
            return Err(ScenarioError::at(bspan, "the failure budget cannot be negative"));
        }
        let edges = array_key(fail_section, "edges")?.ok_or_else(|| {
            ScenarioError::at(fail_section.span, "missing required key \"edges\"")
        })?;
        let mut tracked = Vec::new();
        for e in edges {
            let (from, to, espan) = as_pair(e, "a failure edge")?;
            let u = ctx.node(&from, espan)?;
            let v = ctx.node(&to, espan)?;
            if !ctx.edges.contains(&(u, v)) {
                return Err(ScenarioError::at(
                    espan,
                    format!("the topology has no edge {from:?} -> {to:?}"),
                ));
            }
            tracked.push((u, v));
        }
        failures = Some(FailureModel::at_most(budget as u64, tracked));
    }

    // --- [init] ---
    let init_section = require_section(&doc, "init")?;
    let inits = per_node_exprs(&ctx, init_section, "initial route")?;
    let route_ty = ctx.schema.route_type();
    for (v, (expr, span)) in &inits {
        let ty = expr
            .type_of()
            .map_err(|e| ScenarioError::at(*span, format!("ill-typed initial route: {e}")))?;
        if ty != route_ty {
            return Err(ScenarioError::at(
                *span,
                format!(
                    "initial route of {:?} has type {ty}, expected the route type {route_ty}",
                    ctx.topology.name(*v)
                ),
            ));
        }
    }

    // --- [property] ---
    let property_section = require_section(&doc, "property")?;
    let property = per_node_temporal(&ctx, property_section, "property")?;

    // --- lower the network ---
    let mut builder = NetworkBuilder::from_schema(ctx.topology.clone(), ctx.schema.clone());
    if let Some(p) = default_policy {
        builder = builder.default_policy(p);
    }
    for (edge, p) in edge_policies {
        builder = builder.policy(edge, p);
    }
    if let Some(model) = failures {
        builder = builder.failures(model);
    }
    for (sname, ty, constraint, span) in symbolics {
        let constraint = constraint
            .map(|c| {
                term::parse_expr(&c, &ctx.env)
                    .map_err(|e| ScenarioError::at(span, format!("bad constraint: {e}")))
            })
            .transpose()?;
        builder = builder.symbolic(Symbolic::new(sname, ty, constraint));
    }
    for (v, (expr, _)) in &inits {
        builder = builder.init(*v, expr.clone());
    }
    let network = builder
        .build()
        .map_err(|e| ScenarioError::whole(format!("the scenario does not assemble: {e}")))?;

    // --- [interface] ---
    let interface_section = require_section(&doc, "interface")?;
    let interface = if let Some((true, _)) = bool_key(interface_section, "infer")? {
        let inferred = InferenceEngine::new(InferOptions::default())
            .infer(
                &network,
                &property,
                RoleMap::singleton(network.topology()),
                &[closing_env(&network)],
            )
            .map_err(|e| {
                ScenarioError::at(
                    interface_section.span,
                    format!("interface inference failed: {e}"),
                )
            })?;
        if !inferred.report.verified {
            return Err(ScenarioError::at(
                interface_section.span,
                "interface inference did not converge to a verified interface \
                 (write the interface explicitly)",
            ));
        }
        inferred.interface
    } else {
        per_node_temporal(&ctx, interface_section, "interface")?
    };

    let k = match declared_k {
        Some((k, span)) => {
            if k <= 0 {
                return Err(ScenarioError::at(span, "k must be positive"));
            }
            k as usize
        }
        None => ctx.fattree_k.unwrap_or_else(|| ctx.topology.node_count()),
    };

    Ok(CompiledScenario { name: name.to_owned(), figure, k, network, interface, property })
}

/// Reads a scenario from a file and compiles it.
///
/// # Errors
///
/// I/O problems are reported as a spanless [`ScenarioError`]; everything
/// else as [`compile_str`].
pub fn compile_file(path: &str) -> Result<CompiledScenario, ScenarioError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::whole(format!("cannot read {path:?}: {e}")))?;
    compile_str(&src)
}

fn edge_policy_entries(
    policy_section: &Table,
) -> Result<Option<&[Spanned<TomlValue>]>, ScenarioError> {
    array_key(policy_section, "edge")
}

fn compile_topology(t: &Table) -> Result<(Topology, Option<usize>), ScenarioError> {
    if let Some((k, span)) = int_key(t, "fattree")? {
        if !(2..=64).contains(&k) || k % 2 != 0 {
            return Err(ScenarioError::at(span, "fattree takes an even k between 2 and 64"));
        }
        return Ok((FatTree::new(k as usize).topology().clone(), Some(k as usize)));
    }
    let nodes = array_key(t, "nodes")?.ok_or_else(|| {
        ScenarioError::at(t.span, "the topology needs either fattree = K or nodes/edges")
    })?;
    let edges = array_key(t, "edges")?
        .ok_or_else(|| ScenarioError::at(t.span, "missing required key \"edges\""))?;
    let undirected = bool_key(t, "undirected")?.map(|(b, _)| b).unwrap_or(true);
    let mut topology = Topology::new();
    let mut seen: BTreeMap<String, NodeId> = BTreeMap::new();
    for n in nodes {
        let (name, span) = as_str(n, "a node name")?;
        if seen.contains_key(&name) {
            return Err(ScenarioError::at(span, format!("duplicate node {name:?}")));
        }
        let v = topology.add_node(&name);
        seen.insert(name, v);
    }
    for e in edges {
        let (from, to, span) = as_pair(e, "an edge")?;
        let u = *seen.get(&from).ok_or_else(|| {
            ScenarioError::at(span, format!("unknown node {from:?} (not in the topology)"))
        })?;
        let v = *seen.get(&to).ok_or_else(|| {
            ScenarioError::at(span, format!("unknown node {to:?} (not in the topology)"))
        })?;
        if undirected {
            topology.add_undirected(u, v);
        } else {
            topology.add_edge(u, v);
        }
    }
    Ok((topology, None))
}

fn compile_schema(t: &Table) -> Result<(RouteSchema, TypeEnv), ScenarioError> {
    let name = str_key(t, "name")?.map(|(s, _)| s.to_owned()).unwrap_or_else(|| "route".to_owned());
    let field_entries = array_key(t, "fields")?
        .ok_or_else(|| ScenarioError::at(t.span, "missing required key \"fields\""))?;
    let mut env = TypeEnv::default();
    let mut fields: Vec<(String, Type)> = Vec::new();
    for f in field_entries {
        let (fname, ftype, span) = as_pair(f, "a schema field")?;
        if fields.iter().any(|(n, _)| *n == fname) {
            return Err(ScenarioError::at(span, format!("duplicate field {fname:?}")));
        }
        let ty = term::parse_type(&ftype, &env)
            .map_err(|e| ScenarioError::at(span, format!("bad type of field {fname:?}: {e}")))?;
        env.register(&ty);
        fields.push((fname, ty));
    }
    if fields.is_empty() {
        return Err(ScenarioError::at(t.span, "the schema needs at least one field"));
    }
    let merge_entries = array_key(t, "merge")?
        .ok_or_else(|| ScenarioError::at(t.span, "missing required key \"merge\""))?;
    if merge_entries.is_empty() {
        return Err(ScenarioError::at(t.span, "the schema needs at least one merge key"));
    }
    let mut keys = Vec::new();
    for m in merge_entries {
        let (text, span) = as_str(m, "a merge key")?;
        let key: MergeKey =
            text.parse().map_err(|e| ScenarioError::at(span, format!("bad merge key: {e}")))?;
        validate_merge_key(&key, &fields, span)?;
        keys.push(key);
    }
    let schema = RouteSchema::new(name, fields, keys);
    env.register(schema.payload_type());
    env.route = Some(schema.route_type());
    Ok((schema, env))
}

fn validate_merge_key(
    key: &MergeKey,
    fields: &[(String, Type)],
    span: Span,
) -> Result<(), ScenarioError> {
    let field_ty = |f: &str| fields.iter().find(|(n, _)| n == f).map(|(_, t)| t);
    match key {
        MergeKey::Lower(f) | MergeKey::Higher(f) => match field_ty(f) {
            None => Err(ScenarioError::at(span, format!("merge key names unknown field {f:?}"))),
            Some(ty) if ty.is_numeric() => Ok(()),
            Some(ty) => Err(ScenarioError::at(
                span,
                format!("merge key on field {f:?} needs a numeric type, found {ty}"),
            )),
        },
        MergeKey::RankEnum(f, order) => {
            let Some(ty) = field_ty(f) else {
                return Err(ScenarioError::at(
                    span,
                    format!("merge key names unknown field {f:?}"),
                ));
            };
            let Some(def) = ty.enum_def() else {
                return Err(ScenarioError::at(
                    span,
                    format!("rank merge key on field {f:?} needs an enum type, found {ty}"),
                ));
            };
            for v in order {
                if def.variant_index(v).is_none() {
                    return Err(ScenarioError::at(
                        span,
                        format!("rank order names unknown variant {v:?} of {:?}", def.name()),
                    ));
                }
            }
            // totality: a rank must order *every* variant, or routes with
            // unranked variants are incomparable
            for v in def.variants() {
                if !order.contains(v) {
                    return Err(ScenarioError::at(
                        span,
                        format!(
                            "non-total merge key: rank order omits variant {v:?} of {:?}",
                            def.name()
                        ),
                    ));
                }
            }
            Ok(())
        }
        MergeKey::GuardFirst(guard) => validate_guard_fields(guard, fields, span),
    }
}

fn validate_guard_fields(
    guard: &RouteGuard,
    fields: &[(String, Type)],
    span: Span,
) -> Result<(), ScenarioError> {
    let field_ty = |f: &str| fields.iter().find(|(n, _)| n == f).map(|(_, t)| t);
    let check_field = |f: &str, want: &str, pred: &dyn Fn(&Type) -> bool| match field_ty(f) {
        None => Err(ScenarioError::at(span, format!("guard names unknown field {f:?}"))),
        Some(ty) if pred(ty) => Ok(()),
        Some(ty) => {
            Err(ScenarioError::at(span, format!("guard on field {f:?} needs {want}, found {ty}")))
        }
    };
    match guard {
        RouteGuard::True | RouteGuard::SymBool(_) => Ok(()),
        RouteGuard::HasTag { field, tag } => {
            check_field(field, "a set type", &|ty: &Type| ty.set_def().is_some())?;
            let def = field_ty(field).and_then(Type::set_def).expect("checked");
            if def.tag_index(tag).is_none() {
                return Err(ScenarioError::at(
                    span,
                    format!("set {:?} has no tag {tag:?}", def.name()),
                ));
            }
            Ok(())
        }
        RouteGuard::IntEq { field, .. } => {
            check_field(field, "an int type", &|ty: &Type| matches!(ty, Type::Int))
        }
        RouteGuard::BvEq { field, .. } => {
            check_field(field, "a bitvector type", &|ty: &Type| matches!(ty, Type::BitVec(_)))
        }
        RouteGuard::FieldEqVar { field, .. } => check_field(field, "any type", &|_| true),
        RouteGuard::Not(g) => validate_guard_fields(g, fields, span),
        RouteGuard::And(a, b) | RouteGuard::Or(a, b) => {
            validate_guard_fields(a, fields, span)?;
            validate_guard_fields(b, fields, span)
        }
    }
}

fn validate_op(op: &RewriteOp, ctx: &Ctx, span: Span) -> Result<(), ScenarioError> {
    let check = |f: &str, want: &str, pred: &dyn Fn(&Type) -> bool| match ctx.field_type(f) {
        None => Err(ScenarioError::at(span, format!("rewrite names unknown field {f:?}"))),
        Some(ty) if pred(ty) => Ok(()),
        Some(ty) => Err(ScenarioError::at(
            span,
            format!("ill-typed rewrite: field {f:?} needs {want}, found {ty}"),
        )),
    };
    match op {
        RewriteOp::IncInt { field, .. } => {
            check(field, "an int type", &|ty| matches!(ty, Type::Int))
        }
        RewriteOp::SetBv { field, .. } => {
            check(field, "a bitvector type", &|ty| matches!(ty, Type::BitVec(_)))
        }
        RewriteOp::SetBool { field, .. } => {
            check(field, "a boolean type", &|ty| matches!(ty, Type::Bool))
        }
        RewriteOp::SetEnum { field, variant } => {
            check(field, "an enum type", &|ty| ty.enum_def().is_some())?;
            let def = ctx.field_type(field).and_then(Type::enum_def).expect("checked");
            if def.variant_index(variant).is_none() {
                return Err(ScenarioError::at(
                    span,
                    format!("enum {:?} has no variant {variant:?}", def.name()),
                ));
            }
            Ok(())
        }
        RewriteOp::AddTag { field, tag } | RewriteOp::RemoveTag { field, tag } => {
            check(field, "a set type", &|ty| ty.set_def().is_some())?;
            let def = ctx.field_type(field).and_then(Type::set_def).expect("checked");
            if def.tag_index(tag).is_none() {
                return Err(ScenarioError::at(
                    span,
                    format!("set {:?} has no tag {tag:?}", def.name()),
                ));
            }
            Ok(())
        }
    }
}

fn compile_policy(ctx: &Ctx, clauses: &[Spanned<TomlValue>]) -> Result<RoutePolicy, ScenarioError> {
    let mut policy = RoutePolicy::new();
    let fields: Vec<(String, Type)> = ctx.schema.record_def().fields().to_vec();
    for c in clauses {
        let (text, span) = as_str(c, "a policy clause")?;
        let clause: PolicyClause =
            text.parse().map_err(|e| ScenarioError::at(span, format!("bad policy clause: {e}")))?;
        validate_guard_fields(&clause.guard, &fields, span)?;
        if let timepiece_algebra::ClauseAction::Rewrite(ops) = &clause.action {
            for op in ops {
                validate_op(op, ctx, span)?;
            }
        }
        policy = policy.when(clause.guard, clause.action);
    }
    Ok(policy)
}

/// Reads a `default = TERM` plus `[SECTION.node]` overrides into one
/// expression per node.
fn per_node_exprs(
    ctx: &Ctx,
    t: &Table,
    what: &str,
) -> Result<BTreeMap<NodeId, (Expr, Span)>, ScenarioError> {
    let default = str_key(t, "default")?
        .map(|(s, span)| {
            term::parse_expr(s, &ctx.env)
                .map(|e| (e, span))
                .map_err(|e| ScenarioError::at(span, format!("bad {what}: {e}")))
        })
        .transpose()?;
    let mut out: BTreeMap<NodeId, (Expr, Span)> = BTreeMap::new();
    if let Some((def, span)) = &default {
        for v in ctx.topology.nodes() {
            out.insert(v, (def.clone(), *span));
        }
    }
    if let Some(node_table) = section(t, "node")? {
        for (key, value) in &node_table.entries {
            let v = ctx.node(&key.value, key.span)?;
            let (text, span) = as_str(value, what)?;
            let expr = term::parse_expr(&text, &ctx.env)
                .map_err(|e| ScenarioError::at(span, format!("bad {what}: {e}")))?;
            out.insert(v, (expr, span));
        }
    }
    for v in ctx.topology.nodes() {
        if !out.contains_key(&v) {
            return Err(ScenarioError::at(
                t.span,
                format!(
                    "node {:?} has no {what} (add a default or a per-node entry)",
                    ctx.topology.name(v)
                ),
            ));
        }
    }
    Ok(out)
}

/// As [`per_node_exprs`], but for temporal terms, assembled into
/// [`NodeAnnotations`].
fn per_node_temporal(ctx: &Ctx, t: &Table, what: &str) -> Result<NodeAnnotations, ScenarioError> {
    let default = str_key(t, "default")?
        .map(|(s, span)| {
            term::parse_temporal(s, &ctx.env)
                .map_err(|e| ScenarioError::at(span, format!("bad {what}: {e}")))
        })
        .transpose()?;
    let mut overrides: Vec<(NodeId, Temporal)> = Vec::new();
    if let Some(node_table) = section(t, "node")? {
        for (key, value) in &node_table.entries {
            let v = ctx.node(&key.value, key.span)?;
            let (text, span) = as_str(value, what)?;
            let q = term::parse_temporal(&text, &ctx.env)
                .map_err(|e| ScenarioError::at(span, format!("bad {what}: {e}")))?;
            overrides.push((v, q));
        }
    }
    let Some(default) = default else {
        let covered: HashSet<NodeId> = overrides.iter().map(|(v, _)| *v).collect();
        for v in ctx.topology.nodes() {
            if !covered.contains(&v) {
                return Err(ScenarioError::at(
                    t.span,
                    format!(
                        "node {:?} has no {what} (add a default or a per-node entry)",
                        ctx.topology.name(v)
                    ),
                ));
            }
        }
        // every node has an override; seed with the first and overwrite all
        let mut ann = NodeAnnotations::new(
            &ctx.topology,
            overrides.first().expect("nonempty topology").1.clone(),
        );
        for (v, q) in overrides {
            ann.set(v, q);
        }
        return Ok(ann);
    };
    let mut ann = NodeAnnotations::new(&ctx.topology, default);
    for (v, q) in overrides {
        ann.set(v, q);
    }
    Ok(ann)
}
