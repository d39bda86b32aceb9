//! Exporting compiled instances back to scenario text.
//!
//! The inverse of [`crate::compile`]: given a [`Instance`] whose network
//! was built in policy mode, produce a TOML document that recompiles to an
//! equivalent scenario. Round-tripping is semantic, not textual — the route
//! terms are printed from the interned expression graph, so constant folding
//! performed when the instance was first built is preserved.

use std::collections::BTreeMap;

use timepiece_core::Instance;
use timepiece_expr::Type;
use timepiece_topology::{NodeId, Topology};

use crate::term;

/// Serializes `instance` as a scenario document.
///
/// # Errors
///
/// Fails (with a plain-text reason) when the network was not built through
/// the policy layer — hand-written transfer/merge closures have no textual
/// form.
pub fn export_instance(
    name: &str,
    figure: &str,
    instance: &Instance,
    k: usize,
) -> Result<String, String> {
    let network = &instance.network;
    let policies = network.policies().ok_or_else(|| {
        format!(
            "scenario {name:?} cannot be exported: its network uses hand-written \
             transfer/merge closures, not the policy layer"
        )
    })?;
    let topology = network.topology();
    let schema = &policies.schema;
    let route_ty = network.route_type().clone();

    let mut out = String::new();
    let w = &mut out;

    push_line(w, "# Generated by `repro export`; edit freely and recompile with");
    push_line(w, "# `repro fig14 --scenario-file <this file>`.");
    push_line(w, "");
    push_line(w, "[scenario]");
    push_line(w, &format!("name = {}", quote(name)));
    push_line(w, &format!("figure = {}", quote(figure)));
    push_line(w, &format!("k = {k}"));
    push_line(w, "");

    // Topology: always explicit and directed, so every registry shape
    // (including the hijack fattree with its extra adversary node) exports
    // without special cases.
    push_line(w, "[topology]");
    push_line(w, "undirected = false");
    let names: Vec<String> = topology.nodes().map(|v| quote(topology.name(v))).collect();
    push_line(w, &format!("nodes = [{}]", names.join(", ")));
    push_line(w, "edges = [");
    for (u, v) in topology.edges() {
        push_line(w, &format!("  [{}, {}],", quote(topology.name(u)), quote(topology.name(v))));
    }
    push_line(w, "]");
    push_line(w, "");

    push_line(w, "[schema]");
    push_line(w, &format!("name = {}", quote(schema.record_def().name())));
    push_line(w, "fields = [");
    for (fname, fty) in schema.record_def().fields() {
        push_line(w, &format!("  [{}, {}],", quote(fname), quote(&term::type_decl(fty))));
    }
    push_line(w, "]");
    let keys: Vec<String> = schema.merge_keys().iter().map(|key| quote(&key.to_string())).collect();
    push_line(w, &format!("merge = [{}]", keys.join(", ")));
    push_line(w, "");

    if policies.default_policy.is_some() || !policies.edge_policies.is_empty() {
        push_line(w, "[policy]");
        if let Some(default) = &policies.default_policy {
            push_clauses(w, "default", default.clauses());
        }
        let mut edges: Vec<(&(NodeId, NodeId), &timepiece_algebra::RoutePolicy)> =
            policies.edge_policies.iter().collect();
        edges.sort_by_key(|((u, v), _)| {
            (topology.name(*u).to_owned(), topology.name(*v).to_owned())
        });
        for ((u, v), policy) in edges {
            push_line(w, "");
            push_line(w, "[[policy.edge]]");
            push_line(w, &format!("from = {}", quote(topology.name(*u))));
            push_line(w, &format!("to = {}", quote(topology.name(*v))));
            push_clauses(w, "clauses", policy.clauses());
        }
        push_line(w, "");
    }

    // the failure model's link booleans are symbolics too, but recompiling
    // [failures] recreates them — exporting both would declare them twice
    let failure_vars: std::collections::HashSet<String> = policies
        .failures
        .iter()
        .flat_map(|m| {
            m.edges().iter().map(|&edge| timepiece_algebra::FailureModel::var_name(topology, edge))
        })
        .collect();
    if !network.symbolics().is_empty() {
        for s in network.symbolics() {
            if failure_vars.contains(s.name()) {
                continue;
            }
            push_line(w, "[[symbolic.var]]");
            push_line(w, &format!("name = {}", quote(s.name())));
            push_line(w, &format!("type = {}", quote(&term::type_decl(s.ty()))));
            if let Some(c) = s.constraint() {
                push_line(w, &format!("constraint = {}", quote(&term::expr_term(c))));
            }
            push_line(w, "");
        }
    }

    if let Some(model) = &policies.failures {
        push_line(w, "[failures]");
        push_line(w, &format!("budget = {}", model.budget()));
        push_line(w, "edges = [");
        for (u, v) in model.edges() {
            push_line(
                w,
                &format!("  [{}, {}],", quote(topology.name(*u)), quote(topology.name(*v))),
            );
        }
        push_line(w, "]");
        push_line(w, "");
    }

    let inits: BTreeMap<String, String> = topology
        .nodes()
        .map(|v| (topology.name(v).to_owned(), term::expr_term(network.init(v))))
        .collect();
    push_section_with_default(w, "init", &inits);

    let props = annotation_terms(topology, &instance.property, &route_ty);
    push_section_with_default(w, "property", &props);

    let iface = annotation_terms(topology, &instance.interface, &route_ty);
    push_section_with_default(w, "interface", &iface);

    Ok(out)
}

fn annotation_terms(
    topology: &Topology,
    ann: &timepiece_core::NodeAnnotations,
    route_ty: &Type,
) -> BTreeMap<String, String> {
    topology
        .nodes()
        .map(|v| (topology.name(v).to_owned(), term::temporal_term(ann.get(v), route_ty)))
        .collect()
}

/// Emits `[section]` with the most common term as `default` and the rest as
/// `[section.node]` overrides, keeping generated files readable.
fn push_section_with_default(out: &mut String, section: &str, by_node: &BTreeMap<String, String>) {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for term in by_node.values() {
        *counts.entry(term).or_default() += 1;
    }
    let default = counts
        .iter()
        .max_by_key(|(_, n)| **n)
        .map(|(t, _)| (*t).to_owned())
        .expect("nonempty topology");
    push_line(out, &format!("[{section}]"));
    push_line(out, &format!("default = {}", quote(&default)));
    let overrides: Vec<(&String, &String)> =
        by_node.iter().filter(|(_, t)| **t != default).collect();
    if !overrides.is_empty() {
        push_line(out, "");
        push_line(out, &format!("[{section}.node]"));
        for (node, term) in overrides {
            push_line(out, &format!("{} = {}", quote(node), quote(term)));
        }
    }
    push_line(out, "");
}

fn push_clauses(out: &mut String, key: &str, clauses: &[timepiece_algebra::PolicyClause]) {
    if clauses.is_empty() {
        push_line(out, &format!("{key} = []"));
        return;
    }
    push_line(out, &format!("{key} = ["));
    for c in clauses {
        push_line(out, &format!("  {},", quote(&c.to_string())));
    }
    push_line(out, "]");
}

fn push_line(out: &mut String, line: &str) {
    out.push_str(line);
    out.push('\n');
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}
