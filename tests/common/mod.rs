//! Scratch directories and in-memory projects, shared by the integration
//! suites: each includes this file as `mod common;` and uses what it needs.
#![allow(dead_code)]

use sfcc_buildsys::Project;
use std::fs;
use std::path::{Path, PathBuf};

/// An empty scratch directory `<prefix>-<tag>-<pid>-<thread>` under the
/// system temp dir: a suite names its own `prefix`, a test its `tag`.
pub fn tmpdir(prefix: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "{prefix}-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Removes a scratch directory and everything in it.
pub fn cleanup(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
}

/// An in-memory project of `(module name, source)` files.
pub fn project(files: &[(&str, &str)]) -> Project {
    let mut p = Project::new();
    for (name, src) in files {
        p.set_file((*name).to_string(), (*src).to_string());
    }
    p
}
