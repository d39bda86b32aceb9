//! Golden tests for compiler diagnostics: bad scenario text must produce
//! stable, span-carrying error messages. These strings are part of the user
//! interface — update them deliberately, not incidentally.

use timepiece_scenario::compile_str;

/// A minimal scenario that compiles cleanly; each bad case below is a small
/// mutation of this document.
const BASE: &str = r#"
[scenario]
name = "hopcount"
k = 3

[topology]
nodes = ["a", "b", "c"]
edges = [["a", "b"], ["b", "c"]]

[schema]
name = "Hop"
fields = [["len", "int"]]
merge = ["lower(len)"]

[policy]
default = ["when true => inc(len, 1)"]

[init]
default = "(none Hop)"

[init.node]
"a" = "(some (record Hop 0))"

[property]
default = "(finally 3 (globally (is-some route)))"

[interface]
default = "(finally 3 (globally (is-some route)))"
"#;

fn error_of(src: &str) -> String {
    match compile_str(src) {
        Ok(_) => panic!("expected a compile error, but the scenario compiled"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn the_base_document_compiles() {
    let compiled = compile_str(BASE).expect("base document must compile");
    assert_eq!(compiled.name, "hopcount");
    assert_eq!(compiled.k, 3);
    assert_eq!(compiled.network.topology().node_count(), 3);
}

#[test]
fn toml_syntax_errors_carry_spans() {
    let src = "[scenario]\nname = \"unterminated\n";
    assert_eq!(error_of(src), "line 3, col 1: unterminated string");
}

#[test]
fn missing_scenario_section_is_reported() {
    let src = "[topology]\nnodes = [\"a\"]\nedges = []\n";
    assert_eq!(error_of(src), "line 1, col 1: missing required section [scenario]");
}

#[test]
fn unknown_policy_node_is_reported_with_its_span() {
    let src = BASE.replace(
        "[policy]\ndefault = [\"when true => inc(len, 1)\"]",
        "[policy]\ndefault = [\"when true => inc(len, 1)\"]\n\n[[policy.edge]]\nfrom = \"a\"\nto = \"zz\"\nclauses = [\"when true => drop\"]",
    );
    assert_eq!(error_of(&src), "line 20, col 6: unknown node \"zz\" (not in the topology)");
}

#[test]
fn ill_typed_rewrite_is_reported() {
    let src = BASE.replace("when true => inc(len, 1)", "when true => set-bool(len, true)");
    assert_eq!(
        error_of(&src),
        "line 16, col 12: ill-typed rewrite: field \"len\" needs a boolean type, found int"
    );
}

#[test]
fn non_total_rank_merge_key_is_rejected() {
    let src = BASE
        .replace(
            "fields = [[\"len\", \"int\"]]",
            "fields = [[\"len\", \"int\"], [\"o\", \"(enum Ori a b c)\"]]",
        )
        .replace("merge = [\"lower(len)\"]", "merge = [\"lower(len)\", \"rank(o; a, b)\"]")
        .replace("(record Hop 0)", "(record Hop 0 (enum Ori a))");
    assert_eq!(
        error_of(&src),
        "line 13, col 24: non-total merge key: rank order omits variant \"c\" of \"Ori\""
    );
}

#[test]
fn init_term_of_the_wrong_type_is_rejected() {
    let src = BASE.replace("\"a\" = \"(some (record Hop 0))\"", "\"a\" = \"42\"");
    assert_eq!(
        error_of(&src),
        "line 22, col 7: initial route of \"a\" has type int, expected the route type option<record Hop>"
    );
}

#[test]
fn a_symbolic_named_like_a_checker_variable_is_rejected() {
    // a symbolic `t` would be the time variable of every condition the
    // checker builds, and silently rewrite them all
    let src = format!("{BASE}\n[[symbolic.var]]\nname = \"t\"\ntype = \"int\"\nconstraint = \"(= (var t int) 5)\"\n");
    assert_eq!(
        error_of(&src),
        "line 31, col 8: \"t\" is a variable the checker binds (t, route-<node>, route@...); rename it"
    );
}

#[test]
fn a_term_naming_a_checker_variable_is_rejected() {
    let src = BASE.replace(
        "[interface]\ndefault = \"(finally 3 (globally (is-some route)))\"",
        "[interface]\ndefault = \"(finally 3 (globally (is-some (var route-a (option Hop)))))\"",
    );
    assert_eq!(
        error_of(&src),
        "line 28, col 11: bad interface: \"route-a\" is a variable the checker binds (t, route-<node>, route@...); rename it"
    );
}
