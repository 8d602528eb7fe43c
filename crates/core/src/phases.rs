//! The compilation pipeline's stateless phases, one at a time.
//!
//! [`Compiler::compile`](crate::Compiler::compile) runs a module through
//! frontend → lowering → optimization → codegen as one unit. Incremental
//! engines want the same phases *individually* — a body-only edit should
//! re-run optimize+codegen without re-running the frontend of anything
//! else — so the three phases that need no session state live here as free
//! functions, and the one that does is
//! [`Compiler::optimize`](crate::Compiler::optimize). `compile` is a
//! composition of these four; there is exactly one implementation of every
//! phase.

use sfcc_backend::{compile_functions, CodeObject};
use sfcc_frontend::{CheckedModule, Diagnostics, ModuleEnv, SourceFile};
use sfcc_ir::Function;
use std::time::Instant;

use crate::compiler::CompileError;

/// Lexes, parses, and type-checks one module against its import
/// environment. Returns the checked module and the phase's wall time (ns).
///
/// # Errors
///
/// [`CompileError::Frontend`] with rendered diagnostics for malformed
/// source.
pub fn frontend(
    name: &str,
    source: &str,
    env: &ModuleEnv,
) -> Result<(CheckedModule, u64), CompileError> {
    let t = Instant::now();
    let mut diags = Diagnostics::new();
    let checked = sfcc_frontend::parse_and_check(name, source, env, &mut diags);
    let elapsed = t.elapsed().as_nanos() as u64;
    match checked {
        Some(checked) => Ok((checked, elapsed)),
        None => {
            let file = SourceFile::new(format!("{name}.mc"), source);
            Err(CompileError::Frontend {
                rendered: diags.render_all(&file),
                errors: diags.error_count(),
            })
        }
    }
}

/// Lowers a checked module to IR. Returns the IR and the phase's wall time
/// (ns).
pub fn lower(checked: &CheckedModule, env: &ModuleEnv) -> (sfcc_ir::Module, u64) {
    let t = Instant::now();
    let ir = sfcc_ir::lower_module(checked, env);
    (ir, t.elapsed().as_nanos() as u64)
}

/// Compiles the optimized functions of module `module`, in order, to an
/// object file, borrowing them. Returns the object and the phase's wall
/// time (ns).
///
/// # Errors
///
/// [`CompileError::Backend`] when codegen fails (an internal bug, not bad
/// input).
pub fn codegen<'f>(
    module: &str,
    functions: impl IntoIterator<Item = &'f Function>,
) -> Result<(CodeObject, u64), CompileError> {
    let t = Instant::now();
    let object =
        compile_functions(module, functions).map_err(|e| CompileError::Backend(e.to_string()))?;
    Ok((object, t.elapsed().as_nanos() as u64))
}
