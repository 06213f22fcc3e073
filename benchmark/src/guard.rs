//! Start-up profile guard. The path dependencies are compiled under
//! `benchmark/Cargo.toml`'s profile, not the root's, so a root
//! `[profile.release]` change would go unmeasured; refuse to run until
//! the two agree. Both manifests are read at compile time — what is
//! compared is what was built.

const ROOT_MANIFEST: &str = include_str!("../../Cargo.toml");
const BENCH_MANIFEST: &str = include_str!("../Cargo.toml");

/// The settings under `[profile.release]` and its sub-tables
/// (`[profile.release.package.*]`, `.build-override`), comments and
/// blank lines dropped, whitespace squeezed, sorted.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut table = String::new();
    let mut lines = Vec::new();
    for raw in manifest.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            table = line.to_string();
            continue;
        }
        if table == "[profile.release]" || table.starts_with("[profile.release.") {
            let squeezed: String = line.split_whitespace().collect();
            lines.push(format!("{table} {squeezed}"));
        }
    }
    lines.sort();
    lines
}

/// `Err` with both profiles when the root's release profile differs
/// from the benchmark's.
pub fn check() -> Result<(), String> {
    let (root, bench) = (
        release_profile(ROOT_MANIFEST),
        release_profile(BENCH_MANIFEST),
    );
    if root == bench {
        Ok(())
    } else {
        Err(format!(
            "release profile mismatch: /Cargo.toml has {root:?} but benchmark/Cargo.toml has {bench:?}; \
             mirror the root profile in benchmark/Cargo.toml (its own PR: it re-anchors the baseline)"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifests_agree() {
        assert_eq!(check(), Ok(()));
    }

    #[test]
    fn a_root_profile_change_is_noticed() {
        let root = "[package]\nname = \"x\"\n\n[profile.release]\nlto = \"fat\" # slow build\ncodegen-units=1\n\n[profile.release.package.cbfd-net]\nopt-level = 3\n[dependencies]\n";
        assert_eq!(
            release_profile(root),
            vec![
                "[profile.release.package.cbfd-net] opt-level=3",
                "[profile.release] codegen-units=1",
                "[profile.release] lto=\"fat\"",
            ]
        );
        assert_ne!(release_profile(root), release_profile(BENCH_MANIFEST));
        let same = "[profile.release]\ncodegen-units = 1\nlto=\"fat\"\n[profile.release.package.cbfd-net]\nopt-level=3\n";
        assert_eq!(release_profile(root), release_profile(same));
    }
}
