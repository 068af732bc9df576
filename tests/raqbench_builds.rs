//! The benchmark lives in `raqbench/`, a package with its own workspace and
//! lock file, so neither `cargo build` nor `cargo test` at the repository
//! root compiles it. This test type-checks it against the current workspace
//! crates: a signature change that breaks the benchmark fails here instead
//! of at the next benchmark run.

use std::path::Path;
use std::process::Command;

#[test]
fn raqbench_type_checks_against_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO"))
        .current_dir(&root)
        .args([
            "check",
            "--locked",
            "--offline",
            "--manifest-path",
            "raqbench/Cargo.toml",
            "--target-dir",
            "target/raqbench-check",
        ])
        .output()
        .expect("cargo starts");
    assert!(
        out.status.success(),
        "raqbench no longer builds against the workspace:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
