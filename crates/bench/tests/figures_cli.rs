//! The `figures` binary's argument handling.

use std::process::Command;

/// A topic that matches nothing used to print the banner and exit 0,
/// which reads as "regenerated nothing, successfully".
#[test]
fn unknown_topic_is_rejected_with_the_valid_ones_listed() {
    let cwd = std::env::temp_dir();
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig5", "fig55"])
        .current_dir(&cwd)
        .output()
        .expect("spawn figures");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs before the check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown topic `fig55`"), "{stderr}");
    for topic in ["all", "fig5", "fig6", "fig7", "dch", "conflict"] {
        assert!(stderr.contains(topic), "{topic} missing from: {stderr}");
    }
}
