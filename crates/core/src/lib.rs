//! # sfcc — a stateful compiler for fine-grained incremental builds
//!
//! Reproduction of *"Enabling Fine-Grained Incremental Builds by Making
//! Compiler Stateful"* (Han, Zhao, Kim — CGO 2024).
//!
//! Conventional build systems are stateful (they track file dependencies
//! across builds) while compilers are stateless (every invocation starts
//! from scratch). `sfcc` closes that asymmetry for the MiniC language:
//! the compiler records, per function and per optimization pass, whether the
//! pass was **dormant** (ran but changed nothing) and, on the next build,
//! **skips** passes its history says are dormant — compressing the
//! recompilation of *modified* files, the part file-level incrementality
//! cannot help with.
//!
//! The crate exposes one central type, [`Compiler`]: a session that compiles
//! MiniC modules to relocatable bytecode objects, in either
//! [`Mode::Stateless`] (the baseline) or [`Mode::Stateful`] with a
//! configurable [`SkipPolicy`].
//!
//! # Examples
//!
//! ```
//! use sfcc::{Compiler, Config};
//! use sfcc_frontend::ModuleEnv;
//!
//! let mut compiler = Compiler::new(Config::stateful());
//! let src_v1 = "fn main(n: int) -> int { return n * 2; }";
//! let src_v2 = "fn main(n: int) -> int { return n * 2 + 1; }";
//!
//! // First build: everything runs, dormancy is recorded.
//! let first = compiler.compile("main", src_v1, &ModuleEnv::new())?;
//! assert_eq!(first.outcome_totals().2, 0); // nothing skipped cold
//!
//! // Incremental rebuild of the edited file: dormant passes are skipped.
//! let second = compiler.compile("main", src_v2, &ModuleEnv::new())?;
//! assert!(second.outcome_totals().2 > 0);
//! # Ok::<(), sfcc::CompileError>(())
//! ```

pub mod compiler;
pub mod config;
pub mod depgraph;
pub mod fncache;
pub mod persist;
pub mod phases;

pub use compiler::{CompileError, CompileOutput, Compiler, OptimizeOutcome, PhaseTimings};
pub use config::{Config, Mode, OptLevel};
pub use depgraph::{
    GraphDep, GraphFile, GraphNode, GraphWriter, InputSection, SegmentWriter, ValueBytes,
};
pub use fncache::{CacheStats, FunctionCache};
pub use persist::{LoadedState, RecoveryEvent};

pub use sfcc_faultfs::Durability;
pub use sfcc_state::SkipPolicy;
