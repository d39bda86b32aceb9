//! The `timepieced` wire protocol: newline-delimited JSON requests and
//! responses.
//!
//! Every frame is one JSON object on one `\n`-terminated line (the codec is
//! [`timepiece_trace::json::read_line_value`] /
//! [`timepiece_trace::json::write_line_value`]). A request carries a
//! `"verb"`; a response always carries `"ok"` (and `"error"` when `ok` is
//! false). The verbs:
//!
//! | verb | request fields | effect |
//! |---|---|---|
//! | `load` | `version`, then `scenario` (text) or `bench` + `k`; optional `sabotage`, `threads`, `timeout_millis` | install the current instance — no check, no keys, no records; replies `label`, `generation` |
//! | `check` | — | re-verify every node |
//! | `check` | `nodes`; optional `generation` | re-verify exactly those nodes |
//! | `delta` | `kind` + kind-specific fields | apply one edit, re-verify the dirty cone |
//! | `status` | — | instance, verdict and counter summary |
//! | `profile` | — | the metrics-registry snapshot |
//! | `shutdown` | — | drain in-flight checks and stop serving |
//!
//! The server alone sends `{"verb":"progress"}`: the liveness signal of a
//! connection whose reply is still being computed. A client skips them
//! ([`crate::Client::request`]); one that stops seeing frames for longer
//! than its read timeout has a dead peer.
//!
//! A daemon holds **one** current instance. Every `load` and every committed
//! `delta` starts a new *generation*; a node-list `check` that names the
//! generation it was planned against is refused once the daemon has moved
//! on, so a node list is never answered from another network.
//!
//! Delta kinds: `link_down`/`link_up` (`u`, `v`: node names),
//! `edge_policy` (`u`, `v`, `policy`: `"drop"`, `"default"`, or
//! `{"increment": <field>}`), `witness_time` (`node`, `tau`),
//! `failure_budget` (`budget`).

use timepiece_trace::Json;

/// The version of this protocol, negotiated once per instance: a `load`
/// naming another version is refused before anything is built. Bumped on any
/// incompatible change to the frames.
pub const PROTOCOL_VERSION: usize = 4;

/// How an edge's policy is respecified by an `edge_policy` delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicySpec {
    /// Drop every route (`drop_if true`).
    Drop,
    /// Remove the edge's override; it falls back to the default policy.
    Default,
    /// Increment the named route field (e.g. a path length).
    Increment(String),
}

/// One network edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delta {
    /// Both directions of the link get an always-drop policy.
    LinkDown {
        /// One endpoint's node name.
        u: String,
        /// The other endpoint's node name.
        v: String,
    },
    /// Both directions get their pre-`link_down` policies back.
    LinkUp {
        /// One endpoint's node name.
        u: String,
        /// The other endpoint's node name.
        v: String,
    },
    /// One directed edge's policy is replaced.
    EdgePolicy {
        /// The edge's tail node name.
        u: String,
        /// The edge's head node name.
        v: String,
        /// The new policy.
        policy: PolicySpec,
    },
    /// One node's interface gets a new outermost witness time.
    WitnessTime {
        /// The node name.
        node: String,
        /// The new witness time.
        tau: i64,
    },
    /// The link-failure budget `f` is replaced.
    FailureBudget {
        /// The new at-most budget.
        budget: u64,
    },
}

/// Where a `load`'s instance comes from. The daemon hands this to the
/// loader it was started with and learns nothing about either form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadSource {
    /// The text of a scenario file, compiled by the daemon's side — the
    /// client's file system is not the daemon's.
    Scenario(String),
    /// A benchmark the daemon's side knows by name, at fattree size `k`.
    Bench {
        /// The benchmark's registered name.
        name: String,
        /// The fattree parameter.
        k: usize,
    },
}

/// A `load` request: the instance to install and how to check it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Load {
    /// The protocol version the client speaks ([`PROTOCOL_VERSION`]).
    pub version: usize,
    /// What to load.
    pub source: LoadSource,
    /// Documented fault injection: nodes whose interface is replaced by a
    /// never-holds-a-route annotation, so tests can compare failing-node
    /// sets across the wire.
    pub sabotage: Vec<String>,
    /// Checker threads (`None`: what the daemon was started with).
    pub threads: Option<usize>,
    /// Per-condition solver budget (`None`: what the daemon was started
    /// with).
    pub timeout_millis: Option<u64>,
}

/// A node-list `check`: any subset of the nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeCheck {
    /// The names of the nodes to re-verify.
    pub nodes: Vec<String>,
    /// The generation the list was planned against; a daemon that has moved
    /// on refuses the check (`None`: whatever is current).
    pub generation: Option<u64>,
}

/// One protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Install the current instance.
    Load(Load),
    /// Re-verify every node.
    Check,
    /// Re-verify exactly the named nodes.
    CheckNodes(NodeCheck),
    /// Apply one edit and re-verify its dirty cone.
    Delta(Delta),
    /// Summarize the instance, verdicts and counters.
    Status,
    /// Snapshot the metrics registry.
    Profile,
    /// Drain in-flight checks and stop serving.
    Shutdown,
}

/// A malformed request or response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn bad(message: impl Into<String>) -> ProtocolError {
    ProtocolError(message.into())
}

fn field<'j>(value: &'j Json, key: &str) -> Result<&'j Json, ProtocolError> {
    value.get(key).ok_or_else(|| bad(format!("missing field {key:?}")))
}

fn str_field(value: &Json, key: &str) -> Result<String, ProtocolError> {
    field(value, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| bad(format!("field {key:?} must be a string")))
}

/// An integer field, converted to `T` only when it fits: a fraction, a
/// negative count or an out-of-range value is refused by name, never
/// rounded, clamped or wrapped.
fn int_field<T: TryFrom<i64>>(value: &Json, key: &str) -> Result<T, ProtocolError> {
    let n = field(value, key)?
        .as_f64()
        .ok_or_else(|| bad(format!("field {key:?} must be a number")))?;
    // beyond 2^53 an f64 no longer tells neighbouring integers apart
    if n.fract() != 0.0 || n.abs() > 9_007_199_254_740_992.0 {
        return Err(bad(format!("field {key:?} must be an integer, got {n}")));
    }
    T::try_from(n as i64).map_err(|_| bad(format!("field {key:?} is out of range: {n}")))
}

/// [`int_field`] for a field that may be absent (or `null`).
fn opt_int_field<T: TryFrom<i64>>(value: &Json, key: &str) -> Result<Option<T>, ProtocolError> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(_) => int_field(value, key).map(Some),
    }
}

/// An array-of-strings field; absent means empty when `required` is false.
fn names_field(value: &Json, key: &str, required: bool) -> Result<Vec<String>, ProtocolError> {
    let items = match value.get(key) {
        None if !required => return Ok(Vec::new()),
        None => return Err(bad(format!("missing field {key:?}"))),
        Some(items) => items.as_arr(),
    };
    items
        .and_then(|items| items.iter().map(|n| n.as_str().map(str::to_owned)).collect())
        .ok_or_else(|| bad(format!("field {key:?} must be an array of strings")))
}

fn opt(pairs: &mut Vec<(String, Json)>, key: &str, value: Option<Json>) {
    pairs.extend(value.map(|v| (key.to_owned(), v)));
}

impl PolicySpec {
    fn to_json(&self) -> Json {
        match self {
            PolicySpec::Drop => Json::str("drop"),
            PolicySpec::Default => Json::str("default"),
            PolicySpec::Increment(fieldname) => {
                Json::obj([("increment", Json::str(fieldname.clone()))])
            }
        }
    }

    fn from_json(value: &Json) -> Result<PolicySpec, ProtocolError> {
        match value {
            Json::Str(s) if s == "drop" => Ok(PolicySpec::Drop),
            Json::Str(s) if s == "default" => Ok(PolicySpec::Default),
            Json::Obj(_) => Ok(PolicySpec::Increment(str_field(value, "increment")?)),
            other => Err(bad(format!("bad policy spec {other}"))),
        }
    }
}

impl Request {
    /// The request as a wire frame.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Load(load) => {
                let mut pairs = vec![
                    ("verb".to_owned(), Json::str("load")),
                    ("version".to_owned(), Json::from(load.version)),
                ];
                match &load.source {
                    LoadSource::Scenario(text) => {
                        pairs.push(("scenario".to_owned(), Json::str(text.clone())));
                    }
                    LoadSource::Bench { name, k } => {
                        pairs.push(("bench".to_owned(), Json::str(name.clone())));
                        pairs.push(("k".to_owned(), Json::from(*k)));
                    }
                }
                pairs.push(("sabotage".to_owned(), Json::arr(load.sabotage.iter().map(Json::str))));
                opt(&mut pairs, "threads", load.threads.map(Json::from));
                opt(
                    &mut pairs,
                    "timeout_millis",
                    load.timeout_millis.map(|ms| Json::Num(ms as f64)),
                );
                Json::Obj(pairs)
            }
            Request::CheckNodes(check) => {
                let mut pairs = vec![
                    ("verb".to_owned(), Json::str("check")),
                    ("nodes".to_owned(), Json::arr(check.nodes.iter().map(Json::str))),
                ];
                opt(&mut pairs, "generation", check.generation.map(|g| Json::Num(g as f64)));
                Json::Obj(pairs)
            }
            Request::Check => Json::obj([("verb", Json::str("check"))]),
            Request::Status => Json::obj([("verb", Json::str("status"))]),
            Request::Profile => Json::obj([("verb", Json::str("profile"))]),
            Request::Shutdown => Json::obj([("verb", Json::str("shutdown"))]),
            Request::Delta(delta) => {
                let mut pairs: Vec<(String, Json)> = vec![("verb".to_owned(), Json::str("delta"))];
                match delta {
                    Delta::LinkDown { u, v } => {
                        pairs.push(("kind".to_owned(), Json::str("link_down")));
                        pairs.push(("u".to_owned(), Json::str(u.clone())));
                        pairs.push(("v".to_owned(), Json::str(v.clone())));
                    }
                    Delta::LinkUp { u, v } => {
                        pairs.push(("kind".to_owned(), Json::str("link_up")));
                        pairs.push(("u".to_owned(), Json::str(u.clone())));
                        pairs.push(("v".to_owned(), Json::str(v.clone())));
                    }
                    Delta::EdgePolicy { u, v, policy } => {
                        pairs.push(("kind".to_owned(), Json::str("edge_policy")));
                        pairs.push(("u".to_owned(), Json::str(u.clone())));
                        pairs.push(("v".to_owned(), Json::str(v.clone())));
                        pairs.push(("policy".to_owned(), policy.to_json()));
                    }
                    Delta::WitnessTime { node, tau } => {
                        pairs.push(("kind".to_owned(), Json::str("witness_time")));
                        pairs.push(("node".to_owned(), Json::str(node.clone())));
                        pairs.push(("tau".to_owned(), Json::Num(*tau as f64)));
                    }
                    Delta::FailureBudget { budget } => {
                        pairs.push(("kind".to_owned(), Json::str("failure_budget")));
                        pairs.push(("budget".to_owned(), Json::from(*budget as usize)));
                    }
                }
                Json::Obj(pairs)
            }
        }
    }

    /// Parses a wire frame into a request.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on unknown verbs/kinds, missing fields, and
    /// numbers that are not the integers their fields hold.
    pub fn from_json(value: &Json) -> Result<Request, ProtocolError> {
        let verb = str_field(value, "verb")?;
        match verb.as_str() {
            "load" => Ok(Request::Load(Load {
                version: int_field(value, "version")?,
                source: match value.get("scenario") {
                    Some(_) => LoadSource::Scenario(str_field(value, "scenario")?),
                    None => LoadSource::Bench {
                        name: str_field(value, "bench")?,
                        k: int_field(value, "k")?,
                    },
                },
                sabotage: names_field(value, "sabotage", false)?,
                threads: opt_int_field(value, "threads")?,
                timeout_millis: opt_int_field(value, "timeout_millis")?,
            })),
            "check" if value.get("nodes").is_some() => Ok(Request::CheckNodes(NodeCheck {
                nodes: names_field(value, "nodes", true)?,
                generation: opt_int_field(value, "generation")?,
            })),
            "check" => Ok(Request::Check),
            "status" => Ok(Request::Status),
            "profile" => Ok(Request::Profile),
            "shutdown" => Ok(Request::Shutdown),
            "delta" => {
                let kind = str_field(value, "kind")?;
                let delta = match kind.as_str() {
                    "link_down" => {
                        Delta::LinkDown { u: str_field(value, "u")?, v: str_field(value, "v")? }
                    }
                    "link_up" => {
                        Delta::LinkUp { u: str_field(value, "u")?, v: str_field(value, "v")? }
                    }
                    "edge_policy" => Delta::EdgePolicy {
                        u: str_field(value, "u")?,
                        v: str_field(value, "v")?,
                        policy: PolicySpec::from_json(field(value, "policy")?)?,
                    },
                    "witness_time" => Delta::WitnessTime {
                        node: str_field(value, "node")?,
                        tau: int_field(value, "tau")?,
                    },
                    "failure_budget" => {
                        Delta::FailureBudget { budget: int_field(value, "budget")? }
                    }
                    other => return Err(bad(format!("unknown delta kind {other:?}"))),
                };
                Ok(Request::Delta(delta))
            }
            other => Err(bad(format!("unknown verb {other:?}"))),
        }
    }
}

/// Builds an error response frame.
pub fn error_response(message: impl Into<String>) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::str(message.into()))])
}

/// The liveness frame a connection emits while its reply is pending.
pub fn progress() -> Json {
    Json::obj([("verb", Json::str("progress"))])
}

/// Is `frame` a [`progress`] frame (and so not the reply)?
pub fn is_progress(frame: &Json) -> bool {
    frame.get("verb").and_then(Json::as_str) == Some("progress")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let requests = [
            Request::Load(Load {
                version: PROTOCOL_VERSION,
                source: LoadSource::Bench { name: "SpReach".into(), k: 8 },
                sabotage: vec!["core-0".into()],
                threads: Some(2),
                timeout_millis: Some(60_000),
            }),
            Request::Load(Load {
                version: PROTOCOL_VERSION,
                source: LoadSource::Scenario("[scenario]\nname = \"x\"\n".into()),
                sabotage: vec![],
                threads: None,
                timeout_millis: None,
            }),
            Request::Check,
            Request::CheckNodes(NodeCheck {
                nodes: vec!["core-0".into(), "edge-1-0".into()],
                generation: Some(3),
            }),
            Request::CheckNodes(NodeCheck { nodes: vec![], generation: None }),
            Request::Status,
            Request::Profile,
            Request::Shutdown,
            Request::Delta(Delta::LinkDown { u: "a0".into(), v: "t1".into() }),
            Request::Delta(Delta::LinkUp { u: "a0".into(), v: "t1".into() }),
            Request::Delta(Delta::EdgePolicy {
                u: "c0".into(),
                v: "a2".into(),
                policy: PolicySpec::Drop,
            }),
            Request::Delta(Delta::EdgePolicy {
                u: "c0".into(),
                v: "a2".into(),
                policy: PolicySpec::Increment("len".into()),
            }),
            Request::Delta(Delta::EdgePolicy {
                u: "c0".into(),
                v: "a2".into(),
                policy: PolicySpec::Default,
            }),
            Request::Delta(Delta::WitnessTime { node: "e3".into(), tau: 7 }),
            Request::Delta(Delta::FailureBudget { budget: 2 }),
        ];
        for request in requests {
            let wire = request.to_json();
            // through the text form too, as the socket would carry it
            let parsed = Json::parse(&wire.to_string()).unwrap();
            assert_eq!(Request::from_json(&parsed).unwrap(), request);
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad_frame in [
            r#"{"no_verb": 1}"#,
            r#"{"verb": "dance"}"#,
            r#"{"verb": "delta"}"#,
            r#"{"verb": "delta", "kind": "link_down", "u": "a0"}"#,
            r#"{"verb": "delta", "kind": "warp", "u": "a0", "v": "t0"}"#,
            r#"{"verb": "delta", "kind": "witness_time", "node": "e0", "tau": "soon"}"#,
            r#"{"verb": "delta", "kind": "edge_policy", "u": "a", "v": "b", "policy": "explode"}"#,
            r#"{"verb": "load", "bench": "SpReach", "k": 4}"#,
            r#"{"verb": "load", "version": 4, "bench": "SpReach"}"#,
            r#"{"verb": "load", "version": 4, "scenario": 7}"#,
            r#"{"verb": "load", "version": 4, "bench": "SpReach", "k": 4, "sabotage": "core-0"}"#,
            r#"{"verb": "check", "nodes": "core-0"}"#,
            r#"{"verb": "check", "nodes": ["core-0", 7]}"#,
        ] {
            let frame = Json::parse(bad_frame).unwrap();
            assert!(Request::from_json(&frame).is_err(), "{bad_frame} must not parse");
        }
    }

    #[test]
    fn numbers_that_are_not_the_integers_their_fields_hold_are_refused_by_name() {
        let load = |field: &str| {
            format!(r#"{{"verb": "load", "version": 4, "bench": "SpReach", "k": 4, {field}}}"#)
        };
        for (bad_frame, field) in [
            (
                r#"{"verb": "delta", "kind": "witness_time", "node": "e0", "tau": 2.7}"#.to_owned(),
                "tau",
            ),
            (
                r#"{"verb": "delta", "kind": "witness_time", "node": "e0", "tau": 1e300}"#
                    .to_owned(),
                "tau",
            ),
            (r#"{"verb": "delta", "kind": "failure_budget", "budget": -1}"#.to_owned(), "budget"),
            (r#"{"verb": "delta", "kind": "failure_budget", "budget": 0.5}"#.to_owned(), "budget"),
            (r#"{"verb": "check", "nodes": [], "generation": 1.5}"#.to_owned(), "generation"),
            (r#"{"verb": "load", "version": 4, "bench": "SpReach", "k": -4}"#.to_owned(), "k"),
            (load(r#""threads": 1.5"#), "threads"),
            (load(r#""timeout_millis": -60000"#), "timeout_millis"),
        ] {
            let frame = Json::parse(&bad_frame).unwrap();
            let err = Request::from_json(&frame).expect_err(&bad_frame);
            assert!(err.0.contains(&format!("{field:?}")), "{bad_frame}: {err}");
        }
        // the integers themselves, negative where the field is signed, pass
        let tau = r#"{"verb": "delta", "kind": "witness_time", "node": "e0", "tau": -3}"#;
        assert_eq!(
            Request::from_json(&Json::parse(tau).unwrap()).unwrap(),
            Request::Delta(Delta::WitnessTime { node: "e0".into(), tau: -3 })
        );
    }

    #[test]
    fn progress_frames_are_told_from_replies() {
        assert!(is_progress(&progress()));
        assert!(!is_progress(&error_response("no")));
        assert!(!is_progress(&Request::Check.to_json()));
    }

    #[test]
    fn error_responses_carry_the_message() {
        let response = error_response("no such node");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(response.get("error").and_then(Json::as_str), Some("no such node"));
    }
}
