//! `gbc run` on a term nested far past the parser's limit exits with the
//! structured GBC007 diagnostic instead of overflowing its stack.

use std::process::Command;

#[test]
fn run_rejects_deep_nesting_with_gbc007() {
    let depth = 200_000;
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("deep_nesting.dl");
    std::fs::write(&path, format!("p({}0{}).\n", "f(".repeat(depth), ")".repeat(depth)))
        .expect("write fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_gbc")).arg("run").arg(&path).output().expect("gbc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // An exit code (not a signal) of 1, with the diagnostic rendered.
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error[GBC007]"), "{stderr}");
    assert!(out.stdout.is_empty());
}
