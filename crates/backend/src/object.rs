//! Object files: per-module compilation artifacts with symbolic relocations.
//!
//! A [`CodeObject`] is the analogue of a `.o` file: its `Call` instructions
//! reference an object-local *symbol table* instead of final function ids.
//! The build system caches objects per source file; [`link_objects`] then
//! only patches call targets (relocation), so an incremental build reuses
//! unchanged objects at zero recompilation cost — exactly the file-level
//! incrementality the paper's build systems already provide.

use crate::bytecode::{Bc, CodeBlob, FuncId, Program};
use crate::codegen::{compile_function, CallResolver, CodegenError};
use crate::image::{armored, bounded, decode_blobs, encode_blobs, unarmored};
use crate::link::LinkError;
use sfcc_codec::DecodeError;
use sfcc_ir::Module;
use std::cell::RefCell;
use std::collections::HashMap;

const MAGIC: &[u8; 7] = b"SFCCOB\0";
/// Current object format version.
pub const OBJECT_VERSION: u32 = 1;

/// A compiled module with unresolved (symbolic) call targets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CodeObject {
    /// Source module name.
    pub module: String,
    /// Compiled functions; their `Call.func` fields index [`CodeObject::symbols`].
    pub blobs: Vec<CodeBlob>,
    /// Qualified names of referenced call targets.
    pub symbols: Vec<String>,
}

impl CodeObject {
    /// Total static instruction count.
    pub fn code_size(&self) -> usize {
        self.blobs.iter().map(CodeBlob::len).sum()
    }
}

/// Serializes an object in the image's armor and bytecode codec: module
/// name, code blobs, symbol table.
pub fn to_bytes(object: &CodeObject) -> Vec<u8> {
    armored(MAGIC, OBJECT_VERSION, |w| {
        w.str(&object.module);
        encode_blobs(w, &object.blobs);
        w.usize(object.symbols.len());
        for symbol in &object.symbols {
            w.str(symbol);
        }
    })
}

/// Deserializes an object. Bounded like an image: every count is checked
/// against the remaining input before allocation, and every call must name
/// a symbol of the table.
///
/// # Errors
///
/// Returns a [`DecodeError`] for any malformed input.
pub fn from_bytes(bytes: &[u8]) -> Result<CodeObject, DecodeError> {
    let object = unarmored(bytes, MAGIC, OBJECT_VERSION, |r| {
        let module = r.str()?;
        let blobs = decode_blobs(r)?;
        let count = bounded(r.usize()?, r)?;
        let mut symbols = Vec::with_capacity(count);
        for _ in 0..count {
            symbols.push(r.str()?);
        }
        Ok(CodeObject {
            module,
            blobs,
            symbols,
        })
    })?;
    let calls_resolve = object
        .blobs
        .iter()
        .flat_map(|b| &b.code)
        .all(|bc| match bc {
            Bc::Call { func, .. } => (func.0 as usize) < object.symbols.len(),
            _ => true,
        });
    if !calls_resolve {
        return Err(DecodeError::Corrupt);
    }
    Ok(object)
}

/// Interns call targets as object-local symbol ids during codegen.
#[derive(Default)]
struct SymbolInterner {
    inner: RefCell<(Vec<String>, HashMap<String, FuncId>)>,
}

impl CallResolver for SymbolInterner {
    fn resolve(&self, qualified: &str) -> Option<FuncId> {
        let mut inner = self.inner.borrow_mut();
        if let Some(&id) = inner.1.get(qualified) {
            return Some(id);
        }
        let id = FuncId(inner.0.len() as u32);
        inner.0.push(qualified.to_string());
        inner.1.insert(qualified.to_string(), id);
        Some(id)
    }
}

/// Compiles an IR module into an object file.
///
/// # Errors
///
/// Propagates [`CodegenError`]s (malformed calls).
pub fn compile_object(module: &Module) -> Result<CodeObject, CodegenError> {
    let interner = SymbolInterner::default();
    let mut blobs = Vec::with_capacity(module.functions.len());
    for f in &module.functions {
        let qualified = module.qualified_name(f);
        blobs.push(compile_function(f, &qualified, &interner)?);
    }
    let symbols = interner.inner.into_inner().0;
    Ok(CodeObject {
        module: module.name.clone(),
        blobs,
        symbols,
    })
}

/// Links object files into an executable program by patching call targets.
///
/// # Errors
///
/// Fails on duplicate definitions or unresolved symbols.
pub fn link_objects(objects: &[CodeObject]) -> Result<Program, LinkError> {
    // Global symbol table from definitions.
    let mut table: HashMap<&str, FuncId> = HashMap::new();
    let mut next = 0u32;
    for obj in objects {
        for blob in &obj.blobs {
            if table.insert(&blob.name, FuncId(next)).is_some() {
                return Err(LinkError::DuplicateSymbol(blob.name.clone()));
            }
            next += 1;
        }
    }

    let mut funcs = Vec::with_capacity(next as usize);
    for obj in objects {
        // Relocation map: local symbol id → global function id.
        let mut reloc = Vec::with_capacity(obj.symbols.len());
        for sym in &obj.symbols {
            let id = table
                .get(sym.as_str())
                .copied()
                .ok_or_else(|| LinkError::Unresolved(sym.clone()))?;
            reloc.push(id);
        }
        for blob in &obj.blobs {
            let mut patched = blob.clone();
            for bc in &mut patched.code {
                if let Bc::Call { func, .. } = bc {
                    *func = reloc[func.0 as usize];
                }
            }
            funcs.push(patched);
        }
    }

    let entry = table.get("main.main").copied();
    Ok(Program { funcs, entry })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{run, VmOptions};
    use sfcc_frontend::{parse_and_check, Diagnostics, ModuleEnv, ModuleInterface};

    fn lower(name: &str, src: &str, env: &ModuleEnv) -> Module {
        let mut d = Diagnostics::new();
        let checked = parse_and_check(name, src, env, &mut d)
            .unwrap_or_else(|| panic!("frontend errors: {d:?}"));
        sfcc_ir::lower_module(&checked, env)
    }

    #[test]
    fn objects_link_and_run() {
        let mut env = ModuleEnv::new();
        let util_src = "fn add3(x: int) -> int { return x + 3; }";
        let mut d = Diagnostics::new();
        let util_ast = sfcc_frontend::parser::parse("util", util_src, &mut d);
        env.insert("util", ModuleInterface::of(&util_ast));

        let util = compile_object(&lower("util", util_src, &ModuleEnv::new())).unwrap();
        let main = compile_object(&lower(
            "main",
            "import util;\nfn main(n: int) -> int { return util::add3(n) * 2; }",
            &env,
        ))
        .unwrap();

        // Link order must not matter for correctness.
        for order in [[&util, &main], [&main, &util]] {
            let program = link_objects(&[order[0].clone(), order[1].clone()]).unwrap();
            let out = run(&program, "main.main", &[10], VmOptions::default()).unwrap();
            assert_eq!(out.return_value, Some(26));
        }
    }

    #[test]
    fn relinking_reused_object_after_edit() {
        // Simulates an incremental build: util.o is reused verbatim while
        // main is recompiled.
        let mut env = ModuleEnv::new();
        let util_src = "fn add3(x: int) -> int { return x + 3; }";
        let mut d = Diagnostics::new();
        let util_ast = sfcc_frontend::parser::parse("util", util_src, &mut d);
        env.insert("util", ModuleInterface::of(&util_ast));
        let util = compile_object(&lower("util", util_src, &ModuleEnv::new())).unwrap();

        let main_v1 = compile_object(&lower(
            "main",
            "import util;\nfn main(n: int) -> int { return util::add3(n); }",
            &env,
        ))
        .unwrap();
        let main_v2 = compile_object(&lower(
            "main",
            "import util;\nfn main(n: int) -> int { return util::add3(n) + 100; }",
            &env,
        ))
        .unwrap();

        let p1 = link_objects(&[util.clone(), main_v1]).unwrap();
        let p2 = link_objects(&[util, main_v2]).unwrap();
        assert_eq!(
            run(&p1, "main.main", &[1], VmOptions::default())
                .unwrap()
                .return_value,
            Some(4)
        );
        assert_eq!(
            run(&p2, "main.main", &[1], VmOptions::default())
                .unwrap()
                .return_value,
            Some(104)
        );
    }

    #[test]
    fn duplicate_definition_across_objects() {
        let a = compile_object(&lower("m", "fn f() {}", &ModuleEnv::new())).unwrap();
        let b = a.clone();
        assert!(matches!(
            link_objects(&[a, b]),
            Err(LinkError::DuplicateSymbol(_))
        ));
    }

    #[test]
    fn unresolved_symbol_across_objects() {
        let f = sfcc_ir::parse_function(
            "fn @f() -> i64 {\nbb0:\n  v0 = call i64 @missing.g()\n  ret v0\n}",
        )
        .unwrap();
        let mut m = Module::new("m");
        m.add_function(f);
        let obj = compile_object(&m).unwrap();
        assert_eq!(
            link_objects(&[obj]).unwrap_err(),
            LinkError::Unresolved("missing.g".into())
        );
    }

    #[test]
    fn print_is_not_a_symbol() {
        let m = lower("m", "fn f(x: int) { print(x); }", &ModuleEnv::new());
        let obj = compile_object(&m).unwrap();
        assert!(obj.symbols.is_empty());
    }

    fn sample_object() -> CodeObject {
        let src = "import util;\nfn f(n: int) -> int { if (n < 1) { return util::g(n); } print(n); return f(n - 1); }";
        let mut env = ModuleEnv::new();
        let mut d = Diagnostics::new();
        let util =
            sfcc_frontend::parser::parse("util", "fn g(x: int) -> int { return x; }", &mut d);
        env.insert("util", ModuleInterface::of(&util));
        compile_object(&lower("m", src, &env)).unwrap()
    }

    #[test]
    fn object_bytes_roundtrip() {
        let object = sample_object();
        assert_eq!(object.symbols.len(), 2);
        let bytes = to_bytes(&object);
        assert_eq!(from_bytes(&bytes).unwrap(), object);
        assert_eq!(to_bytes(&from_bytes(&bytes).unwrap()), bytes);
        let empty = CodeObject::default();
        assert_eq!(from_bytes(&to_bytes(&empty)).unwrap(), empty);
    }

    #[test]
    fn truncated_flipped_or_hostile_objects_never_decode() {
        let bytes = to_bytes(&sample_object());
        for cut in 0..bytes.len() {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 1 << (i % 8);
            assert!(from_bytes(&b).is_err(), "flip at byte {i}");
        }
        // Well-armored lies: a blob count far past the input, and a call
        // naming a symbol the table does not have.
        let lie = armored(MAGIC, OBJECT_VERSION, |w| {
            w.str("m");
            w.u64(u64::MAX >> 1);
        });
        assert_eq!(from_bytes(&lie), Err(DecodeError::BadLength));
        let mut object = sample_object();
        object.symbols.pop();
        assert_eq!(from_bytes(&to_bytes(&object)), Err(DecodeError::Corrupt));
    }

    #[test]
    fn recursive_call_is_self_symbol() {
        let m = lower(
            "m",
            "fn f(n: int) -> int { if (n < 1) { return 0; } return f(n - 1); }",
            &ModuleEnv::new(),
        );
        let obj = compile_object(&m).unwrap();
        assert_eq!(obj.symbols, vec!["m.f".to_string()]);
        let p = link_objects(&[obj]).unwrap();
        let out = run(&p, "m.f", &[5], VmOptions::default()).unwrap();
        assert_eq!(out.return_value, Some(0));
    }
}
