//! Smoke test for the non-test build surface.
//!
//! `cargo test` never compiles examples or binaries on its own, so they can
//! silently rot. This test drives a real `cargo build --examples --bins`
//! over the workspace (sharing the target directory, so it is cheap when
//! nothing changed) and fails if any of them stop compiling.

use std::path::Path;
use std::process::Command;

#[test]
fn examples_and_bins_build() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let output = Command::new(cargo)
        .current_dir(manifest_dir)
        .args(["build", "--workspace", "--examples", "--bins", "--offline", "--quiet"])
        .output()
        .expect("cargo is runnable from a test");
    assert!(
        output.status.success(),
        "cargo build --examples --bins failed:\n{}",
        String::from_utf8_lossy(&output.stderr),
    );
}
