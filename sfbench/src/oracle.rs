//! The output check: a built image must behave like the independent AST
//! interpreter (`sfcc-refinterp`) run on the same sources — never like
//! another build by the compiler under test.

use sfcc_backend::{Program, RunOutput, VmError, VmOptions};
use sfcc_buildsys::{DepGraph, Project};
use sfcc_frontend::{parse_and_check, CheckedModule, Diagnostics, ModuleEnv, ModuleInterface};
use sfcc_refinterp::{Machine, RefError, RefOptions, RefOutput};
use std::path::Path;

/// The arguments `main.main(n)` is run on in every check and in the `run`
/// phase.
pub const RUN_INPUTS: [i64; 4] = [0, 1, 5, 13];

/// Type-checks the modules of `project` in `order` (imports first);
/// returns them with the environment of their interfaces.
///
/// # Errors
///
/// A module is missing or does not check — neither happens for generated
/// workloads.
pub fn check_in_order(
    project: &Project,
    order: &[String],
) -> Result<(Vec<CheckedModule>, ModuleEnv), String> {
    let mut env = ModuleEnv::new();
    let mut checked = Vec::with_capacity(order.len());
    for name in order {
        let source = project
            .file(name)
            .ok_or_else(|| format!("module `{name}` has no source"))?;
        let mut diags = Diagnostics::new();
        let module = parse_and_check(name, source, &env, &mut diags)
            .ok_or_else(|| format!("module `{name}` does not type-check"))?;
        env.insert(name.clone(), ModuleInterface::of(&module.ast));
        checked.push(module);
    }
    Ok((checked, env))
}

/// Type-checks `project` into a reference machine.
///
/// # Errors
///
/// The project has a broken import graph or a module that does not check.
pub fn reference_machine(project: &Project) -> Result<Machine, String> {
    let graph = DepGraph::build(project).map_err(|e| format!("import graph: {e}"))?;
    let (checked, _) = check_in_order(project, graph.topo_order())?;
    Ok(Machine::new(checked))
}

/// Whether a VM result and a reference result are the same observable
/// behaviour: equal prints and return value, or corresponding trap kinds.
fn agree(want: &Result<RefOutput, RefError>, got: &Result<RunOutput, VmError>) -> bool {
    match (want, got) {
        (Ok(want), Ok(got)) => want.prints == got.prints && want.return_value == got.return_value,
        (Err(re), Err(ve)) => matches!(
            (re, ve),
            (RefError::ArithmeticTrap, VmError::ArithmeticTrap)
                | (RefError::OutOfBounds { .. }, VmError::OutOfBounds { .. })
                | (RefError::StackOverflow, VmError::StackOverflow)
                | (RefError::OutOfFuel, VmError::OutOfFuel)
        ),
        _ => false,
    }
}

/// The result of checking one image against the reference on
/// [`RUN_INPUTS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Inputs compared (one operation each).
    pub checks: u64,
    /// Inputs on which the image and the reference disagreed.
    pub mismatches: u64,
    /// VM instructions executed over all inputs that ran to completion.
    pub vm_steps: u64,
}

/// Runs `program` and the reference `machine` on every input and compares.
pub fn check_program(machine: &Machine, program: &Program) -> Verdict {
    let mut verdict = Verdict::default();
    for &n in &RUN_INPUTS {
        let want = machine.run("main", "main", &[n], RefOptions::default());
        let got = sfcc_backend::run(program, "main.main", &[n], VmOptions::default());
        verdict.checks += 1;
        if !agree(&want, &got) {
            verdict.mismatches += 1;
        }
        if let Ok(out) = &got {
            verdict.vm_steps += out.executed;
        }
    }
    verdict
}

/// Loads the image at `image` and checks it against `sources`. An image
/// that cannot be loaded fails every input.
pub fn check_image(sources: &Project, image: &Path) -> Verdict {
    let all_failed = Verdict {
        checks: RUN_INPUTS.len() as u64,
        mismatches: RUN_INPUTS.len() as u64,
        vm_steps: 0,
    };
    let Ok(machine) = reference_machine(sources) else {
        return all_failed;
    };
    match sfcc_backend::load_image(image) {
        Ok(program) => check_program(&machine, &program),
        Err(_) => all_failed,
    }
}
