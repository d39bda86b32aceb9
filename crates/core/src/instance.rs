//! The verification instance `(N, A, P)` of Algorithm 1: one value from the
//! builder that makes it to the solver, where a
//! [`crate::sweep::CheckerPool`]'s workers share it behind one `Arc`.

use timepiece_algebra::Network;

use crate::interface::NodeAnnotations;

/// A network with its interfaces and properties, ready for the modular or
/// monolithic checker.
#[derive(Debug)]
pub struct Instance {
    /// The network `N = (G, S, I, F, ⊕)`.
    pub network: Network,
    /// The per-node interfaces `A`.
    pub interface: NodeAnnotations,
    /// The per-node properties `P`.
    pub property: NodeAnnotations,
}

impl Instance {
    /// The property-only form: surrenders the hand-written interface so an
    /// inference engine can synthesize its own.
    pub fn into_spec(self) -> PropertySpec {
        PropertySpec { network: self.network, property: self.property }
    }
}

/// An instance without its interfaces, the input shape of interface
/// inference. It and [`Instance::into_spec`] remain only because the
/// benchmark harness names them; inference itself borrows an instance's
/// network and property.
#[derive(Debug, Clone)]
pub struct PropertySpec {
    /// The network `N = (G, S, I, F, ⊕)`.
    pub network: Network,
    /// The per-node properties `P`.
    pub property: NodeAnnotations,
}
