//! The verification conditions of Fig. 12, as SMT queries.
//!
//! A node's conditions are built over route variables they are passed:
//! [`node_conditions`] passes the node's own ([`Network::route_var`]), and
//! [`crate::incremental`] the positional names of the node's key.

use timepiece_algebra::{Network, TIME_VAR};
use timepiece_expr::{Expr, Type};
use timepiece_smt::Vc;
use timepiece_topology::NodeId;

use crate::interface::NodeAnnotations;

/// Which of the three conditions a check instance belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VcKind {
    /// Equation (5): `I(v) ∈ A(v)(0)`.
    Initial,
    /// Equation (6): neighbor routes drawn from interfaces at `t` must step
    /// into `A(v)(t+1)`.
    Inductive,
    /// Equation (7): `A(v)(t) ⊆ P(v)(t)`.
    Safety,
}

impl VcKind {
    /// The three kinds, in the order a node's conditions are discharged.
    pub const ALL: [VcKind; 3] = [VcKind::Initial, VcKind::Inductive, VcKind::Safety];
}

impl std::fmt::Display for VcKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VcKind::Initial => write!(f, "initial"),
            VcKind::Inductive => write!(f, "inductive"),
            VcKind::Safety => write!(f, "safety"),
        }
    }
}

/// The symbolic time variable shared by the inductive and safety conditions.
pub fn time_var() -> Expr {
    Expr::var(TIME_VAR, Type::Int)
}

/// Node `v`'s three conditions over its own route variables, in
/// [`VcKind::ALL`] order.
pub fn node_conditions(
    net: &Network,
    interface: &NodeAnnotations,
    property: &NodeAnnotations,
    delay: u64,
    v: NodeId,
) -> [Vc; 3] {
    conditions_over(net, interface, property, delay, v, &net.route_var(v), &own_neighbours(net, v))
}

/// The route variables of `v`'s predecessors in their own names, in
/// `preds(v)` order.
fn own_neighbours(net: &Network, v: NodeId) -> Vec<Expr> {
    net.topology().preds(v).iter().map(|&u| net.route_var(u)).collect()
}

/// Node `v`'s three conditions, in [`VcKind::ALL`] order, over the route
/// variables `route` (`v`'s own, in the safety condition) and `neighbours`
/// (one per predecessor in `preds(v)` order, in the inductive condition).
pub(crate) fn conditions_over(
    net: &Network,
    interface: &NodeAnnotations,
    property: &NodeAnnotations,
    delay: u64,
    v: NodeId,
    route: &Expr,
    neighbours: &[Expr],
) -> [Vc; 3] {
    [
        initial_vc(net, interface, v),
        inductive_over(net, interface, v, delay, neighbours),
        safety_over(net, interface, property, v, route),
    ]
}

/// Builds the initial condition (5) for node `v`:
/// the initial route lies in the interface at time 0.
pub fn initial_vc(net: &Network, interface: &NodeAnnotations, v: NodeId) -> Vc {
    let name = format!("initial@{}", net.topology().name(v));
    let goal = interface.get(v).at(&Expr::int(0), net.init(v));
    Vc::new(name, net.symbolic_constraints(), goal)
}

/// Builds the inductive condition (6) for node `v`, generalized to `delay`
/// units of staleness (§4, "Incorporating delay"):
///
/// for all `t ≥ −delay` and neighbor routes
/// `s_u ∈ ⋃_{δ ≤ delay} A(u)(max(0, t+δ))`, the merged result lies in
/// `A(v)(t + delay + 1)`.
///
/// The step at time `T = t + delay + 1` reads neighbor states from times
/// `T − 1 − δ'` for `δ' ≤ delay`, with history before time 0 clamped to time
/// 0 (as `timepiece_sim::simulate_delayed` does), so the windows cover every
/// step `T ≥ 1` — the initial condition covers `T = 0`. With `delay = 0`
/// this is exactly equation (6).
pub fn inductive_vc(net: &Network, interface: &NodeAnnotations, v: NodeId, delay: u64) -> Vc {
    inductive_over(net, interface, v, delay, &own_neighbours(net, v))
}

/// [`inductive_vc`] over the route variables `neighbours`, the `i`-th
/// standing for the route of `preds(v)[i]`.
fn inductive_over(
    net: &Network,
    interface: &NodeAnnotations,
    v: NodeId,
    delay: u64,
    neighbours: &[Expr],
) -> Vc {
    let t = time_var();
    let name = format!("inductive@{}", net.topology().name(v));
    let mut assumptions = net.symbolic_constraints();
    assumptions.push(t.clone().ge(Expr::int(-(delay as i64))));

    for (&u, r) in net.topology().preds(v).iter().zip(neighbours) {
        let in_some_window = Expr::or_all((0..=delay).map(|d| {
            let shifted = t.clone().add(Expr::int(d as i64));
            // t + delay ≥ 0 already; earlier windows may reach before time 0
            let at = if d < delay { shifted.max(Expr::int(0)) } else { shifted };
            interface.get(u).at(&at, r)
        }));
        assumptions.push(in_some_window);
    }

    let stepped = net.step(v, neighbours);
    let goal_time = t.add(Expr::int((delay + 1) as i64));
    let goal = interface.get(v).at(&goal_time, &stepped);
    Vc::new(name, assumptions, goal)
}

/// Builds the safety condition (7) for node `v`: every route admitted by the
/// interface at any time satisfies the property at that time.
pub fn safety_vc(
    net: &Network,
    interface: &NodeAnnotations,
    property: &NodeAnnotations,
    v: NodeId,
) -> Vc {
    safety_over(net, interface, property, v, &net.route_var(v))
}

/// [`safety_vc`] over the route variable `route`, standing for `v`'s route.
fn safety_over(
    net: &Network,
    interface: &NodeAnnotations,
    property: &NodeAnnotations,
    v: NodeId,
    route: &Expr,
) -> Vc {
    let t = time_var();
    let name = format!("safety@{}", net.topology().name(v));
    let mut assumptions = net.symbolic_constraints();
    assumptions.push(t.clone().ge(Expr::int(0)));
    assumptions.push(interface.get(v).at(&t, route));
    let goal = property.get(v).at(&t, route);
    Vc::new(name, assumptions, goal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::Temporal;
    use timepiece_algebra::NetworkBuilder;
    use timepiece_smt::{check_validity, Validity};
    use timepiece_topology::gen;

    /// Boolean-reachability network on a directed 2-path.
    fn bool_net() -> Network {
        let g = gen::path(2);
        let v0 = g.node_by_name("v0").unwrap();
        NetworkBuilder::new(g, Type::Bool)
            .merge(|a, b| a.clone().or(b.clone()))
            .default_transfer(|r| r.clone())
            .init(v0, Expr::bool(true))
            .build()
            .unwrap()
    }

    fn reach_interface(net: &Network) -> NodeAnnotations {
        let g = net.topology();
        let v1 = g.node_by_name("v1").unwrap();
        let mut interface = NodeAnnotations::new(g, Temporal::globally(|r| r.clone()));
        interface.set(v1, Temporal::finally_at(1, Temporal::globally(|r| r.clone())));
        interface
    }

    #[test]
    fn initial_condition_checks() {
        let net = bool_net();
        let interface = reach_interface(&net);
        for v in net.topology().nodes() {
            let vc = initial_vc(&net, &interface, v);
            assert!(
                check_validity(&vc, None).unwrap().is_valid(),
                "initial at {}",
                net.topology().name(v)
            );
        }
    }

    #[test]
    fn inductive_condition_checks() {
        let net = bool_net();
        let interface = reach_interface(&net);
        for v in net.topology().nodes() {
            let vc = inductive_vc(&net, &interface, v, 0);
            assert!(
                check_validity(&vc, None).unwrap().is_valid(),
                "inductive at {}",
                net.topology().name(v)
            );
        }
    }

    #[test]
    fn safety_condition_checks() {
        let net = bool_net();
        let interface = reach_interface(&net);
        for v in net.topology().nodes() {
            let vc = safety_vc(&net, &interface, &interface, v);
            assert!(check_validity(&vc, None).unwrap().is_valid());
        }
    }

    #[test]
    fn wrong_witness_time_fails_inductive() {
        let net = bool_net();
        let g = net.topology();
        let v1 = g.node_by_name("v1").unwrap();
        // claim v1 has the route from time 0 — but only time 1 is true;
        // the INITIAL condition catches t=0, and a too-late-by-far claim
        // that v1 never gets a route fails the INDUCTIVE condition:
        let mut interface = NodeAnnotations::new(g, Temporal::globally(|r| r.clone()));
        interface.set(v1, Temporal::globally(|r| r.clone().not()));
        let vc = inductive_vc(&net, &interface, v1, 0);
        match check_validity(&vc, None).unwrap() {
            Validity::Invalid(cex) => {
                // counterexample binds the neighbor route and the time
                assert!(cex.assignment.get("t").is_some());
                assert!(cex.assignment.get("route-v0").is_some());
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn missing_initial_route_fails_initial() {
        let net = bool_net();
        let g = net.topology();
        let v0 = g.node_by_name("v0").unwrap();
        // v0's interface claims no route ever — but I(v0) = true
        let mut interface = NodeAnnotations::new(g, Temporal::globally(|r| r.clone()));
        interface.set(v0, Temporal::globally(|r| r.clone().not()));
        let vc = initial_vc(&net, &interface, v0);
        assert!(!check_validity(&vc, None).unwrap().is_valid());
    }

    #[test]
    fn weak_interface_fails_safety() {
        let net = bool_net();
        let g = net.topology();
        let v1 = g.node_by_name("v1").unwrap();
        let interface = NodeAnnotations::new(g, Temporal::any());
        let mut property = NodeAnnotations::new(g, Temporal::any());
        property.set(v1, Temporal::globally(|r| r.clone()));
        let vc = safety_vc(&net, &interface, &property, v1);
        assert!(!check_validity(&vc, None).unwrap().is_valid());
    }

    #[test]
    fn delay_weakens_the_inductive_condition() {
        // interface that is exact for the synchronous semantics:
        // v1 has no route before t=1, route from t=1 on.
        let net = bool_net();
        let g = net.topology();
        let v1 = g.node_by_name("v1").unwrap();
        let mut interface = NodeAnnotations::new(g, Temporal::globally(|r| r.clone()));
        interface
            .set(v1, Temporal::until_at(1, |r| r.clone().not(), Temporal::globally(|r| r.clone())));
        // synchronous: fine
        assert!(check_validity(&inductive_vc(&net, &interface, v1, 0), None).unwrap().is_valid());
        // v0's interface admits any route at any time, so under delay the
        // exact-time interface for v1 still holds (v0 is constant) — but a
        // *tightened* v0 interface shows the delay window matters:
        let mut tight = NodeAnnotations::new(g, Temporal::globally(|r| r.clone()));
        let v0 = g.node_by_name("v0").unwrap();
        tight
            .set(v0, Temporal::until_at(1, |r| r.clone().not(), Temporal::globally(|r| r.clone())));
        tight
            .set(v1, Temporal::until_at(2, |r| r.clone().not(), Temporal::globally(|r| r.clone())));
        // synchronous induction holds at v1
        assert!(check_validity(&inductive_vc(&net, &tight, v1, 0), None).unwrap().is_valid());
        // with 1 unit of delay the stale route from v0 at t+1 can arrive
        // "early", violating v1's exact witness time
        assert!(!check_validity(&inductive_vc(&net, &tight, v1, 1), None).unwrap().is_valid());
    }

    #[test]
    fn a_symbolic_named_like_the_time_variable_is_refused() {
        use crate::check::{CheckOptions, ModularChecker};
        use timepiece_algebra::{network::NetworkError, Symbolic};
        // v1 hears v0's route at time 1: an interface claiming it only from
        // time 3 fails v1's inductive condition
        let net = bool_net();
        let v1 = net.topology().node_by_name("v1").unwrap();
        let mut late = reach_interface(&net);
        late.set(v1, Temporal::until_at(3, |r| r.clone().not(), Temporal::globally(|r| r.clone())));
        let report =
            ModularChecker::new(CheckOptions::default()).check(&net, &late, &late).unwrap();
        assert_eq!(report.failures().len(), 1);
        assert_eq!(report.failures()[0].vc, VcKind::Inductive);
        // a symbolic `t` with `t == 5` would be the time variable of every
        // condition, and the interface would verify
        let pinned = Symbolic::new("t", Type::Int, Some(time_var().eq(Expr::int(5))));
        let err = NetworkBuilder::new(gen::path(2), Type::Bool)
            .merge(|a, b| a.clone().or(b.clone()))
            .default_transfer(|r| r.clone())
            .init(net.topology().node_by_name("v0").unwrap(), Expr::bool(true))
            .symbolic(pinned)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            NetworkError::ReservedName { what: "symbolic value".into(), name: "t".into() }
        );
    }

    #[test]
    fn a_transfer_writing_a_positional_name_is_refused() {
        use timepiece_algebra::network::NetworkError;
        // a transfer into v1 that writes `route@in0` itself: in v1's key
        // names the build passes that very name to the inductive condition,
        // so the checker's variable would capture the closure's — and a
        // pooled check would verify the interface below, which claims no
        // route at v1 from time 1, while v1's own conditions refute it
        let g = gen::path(2);
        let (v0, v1) = (g.node_by_name("v0").unwrap(), g.node_by_name("v1").unwrap());
        let err = NetworkBuilder::new(g, Type::Bool)
            .merge(|a, b| a.clone().or(b.clone()))
            .default_transfer(|r| r.clone())
            .transfer((v0, v1), |r| {
                r.clone().and(Expr::var(crate::incremental::neighbour_route(0), Type::Bool).not())
            })
            .init(v0, Expr::bool(true))
            .build()
            .unwrap_err();
        let name = crate::incremental::neighbour_route(0);
        assert_eq!(
            err,
            NetworkError::ReservedName { what: "transfer result of v0 -> v1".into(), name }
        );
    }

    #[test]
    fn kinds_display() {
        assert_eq!(VcKind::Initial.to_string(), "initial");
        assert_eq!(VcKind::Inductive.to_string(), "inductive");
        assert_eq!(VcKind::Safety.to_string(), "safety");
    }
}
