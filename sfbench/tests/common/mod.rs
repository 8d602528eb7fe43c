//! Shared by the integration tests: where the compiler under test is.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// The repository root (the benchmark's package lives one level below).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("sfbench lives inside the repository")
        .to_path_buf()
}

/// The release `minicc` of the root workspace, built on first use (a no-op
/// after `cargo build --release` at the root). `SFBENCH_MINICC` overrides.
pub fn minicc() -> &'static Path {
    static MINICC: OnceLock<PathBuf> = OnceLock::new();
    MINICC.get_or_init(|| {
        if let Ok(path) = std::env::var("SFBENCH_MINICC") {
            return PathBuf::from(path);
        }
        let root = repo_root();
        let target = root.join("target");
        let status = Command::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "sfcc-buildsys", "--bin", "minicc"])
            .arg("--manifest-path")
            .arg(root.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building minicc failed");
        target.join("release").join("minicc")
    })
}

/// A fresh directory for one test's outputs, under the cargo target
/// directory of this package.
pub fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the test's output directory");
    dir
}
