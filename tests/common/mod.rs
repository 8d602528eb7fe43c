//! Scratch directories, in-memory projects and the lineage harness
//! ([`lineage`]), shared by the integration suites: each includes this file
//! as `mod common;` and uses what it needs.
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

/// Writes `p` as the complete tree at `dir`: `.mc` files `p` lacks go.
pub fn write_tree(dir: &Path, p: &Project) {
    fs::create_dir_all(dir).unwrap();
    for dirent in fs::read_dir(dir).unwrap() {
        let path = dirent.unwrap().path();
        if path.extension().is_some_and(|e| e == "mc") {
            fs::remove_file(&path).unwrap();
        }
    }
    p.write_to_dir(dir).unwrap();
}

/// Copies the tree at `src` to `dst`.
pub fn copy_tree(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for dirent in fs::read_dir(src).unwrap() {
        let dirent = dirent.unwrap();
        let to = dst.join(dirent.file_name());
        if dirent.path().is_dir() {
            copy_tree(&dirent.path(), &to);
        } else {
            fs::copy(dirent.path(), &to).unwrap();
        }
    }
}

/// An in-memory project of `(module name, source)` files.
pub fn project(files: &[(&str, &str)]) -> Project {
    let mut p = Project::new();
    for (name, src) in files {
        p.set_file((*name).to_string(), (*src).to_string());
    }
    p
}

pub mod lineage;
