//! `sfcc-buildsys` — the file-level incremental build system around the
//! stateful compiler.
//!
//! Build systems are stateful at *file* granularity: they hash inputs,
//! track dependencies, and recompile only what changed. This crate supplies
//! that half of the paper's mechanism for MiniC projects, so the compiler's
//! *pass*-level statefulness (crate `sfcc`) operates in its natural
//! habitat — an incremental build loop:
//!
//! - [`Project`]: a named set of module sources, loadable from a directory
//!   of `*.mc` files;
//! - [`DepGraph`]: import-graph extraction with missing-import and cycle
//!   diagnostics, plus a topological *wave* schedule;
//! - [`tasks`]: the build's task taxonomy over the demand-driven query
//!   engine (`sfcc-query`) — imports, interface, graph, frontend, lower,
//!   optimize, codegen, link — with per-task early-cutoff fingerprints;
//! - [`Builder`]: a thin orchestrator that opens an engine session per
//!   build, pre-compiles a wave's invalidated modules in parallel, then
//!   demands each module's `codegen` task and the final `link`;
//! - [`BuildReport`]: per-module rebuild flags, traces, timings,
//!   pass-outcome totals, and query hit/miss counts ([`QueryStats`]), as
//!   consumed by the evaluation harness;
//! - [`depcheck`]: dependency-soundness checking — task-attributed
//!   resource accesses diffed against the engine's declared dependencies
//!   (missing/redundant deps, stale serves, untracked I/O), plus the
//!   adversarial [`DepMutations`] hooks the depcheck fuzzer drives;
//! - [`serve`]: the one implementation of a build-class request — a
//!   [`serve::BuildService`] session with a typed method per request kind,
//!   kept resident by the `minicc serve` daemon and opened for a single
//!   request by the cold CLI;
//! - the `minicc` binary: the command line over all of the above
//!   (`build` / `run` / `exec` / `ir` / `bc` / `state` / `depcheck` /
//!   `serve` / `client`), which parses, routes and prints but builds
//!   nothing itself.
//!
//! ```
//! use sfcc::{Compiler, Config};
//! use sfcc_buildsys::{Builder, Project};
//!
//! let mut project = Project::new();
//! project.set_file("main".into(), "fn main(n: int) -> int { return n + 1; }".into());
//! let mut builder = Builder::new(Compiler::new(Config::stateful()));
//! let report = builder.build(&project).unwrap();
//! assert_eq!(report.rebuilt_count(), 1);
//! // An unchanged rebuild recompiles nothing and still yields a program.
//! let report = builder.build(&project).unwrap();
//! assert_eq!(report.rebuilt_count(), 0);
//! let out = sfcc_backend::run(
//!     &report.program, "main.main", &[41], sfcc_backend::VmOptions::default(),
//! ).unwrap();
//! assert_eq!(out.return_value, Some(42));
//! ```

pub mod builder;
pub mod depcheck;
mod depgraph;
pub mod graph;
pub mod project;
pub mod report;
pub mod serve;
pub mod tasks;

pub use builder::{BuildError, Builder};
pub use depcheck::{DepFinding, DepFindingKind, DepMutations, DepcheckReport};
pub use graph::{DepGraph, GraphError};
pub use project::Project;
pub use report::{
    validate_report_json, BuildReport, ModuleOutput, ModuleReport, PassAggregate, QueryStats,
    SlotAggregate,
};
pub use tasks::{BuildTask, BuildValue};
