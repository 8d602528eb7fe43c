//! The bytecode virtual machine.
//!
//! Executes a linked [`Program`] with typed registers (integers and
//! region-based pointers), bounds-checked memory, a call-depth limit, and a
//! fuel budget. The VM also reports the number of executed instructions —
//! the deterministic code-quality metric used by the evaluation (a compiled
//! program that optimizes worse executes more bytecode ops).

use crate::bytecode::{Bc, FuncId, Program, Src};
use std::fmt;

/// Default fuel budget (executed instructions) per run.
pub const DEFAULT_FUEL: u64 = 50_000_000;
/// Default maximum call depth.
pub const DEFAULT_MAX_DEPTH: usize = 256;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    /// Integer (booleans are 0/1).
    Int(i64),
    /// Pointer into `regions[region]` at `offset` (may be out of bounds
    /// until dereferenced).
    Ptr {
        /// Region index.
        region: u32,
        /// Cell offset; checked at load/store.
        offset: i64,
    },
}

impl Default for Value {
    fn default() -> Self {
        Value::Int(0)
    }
}

/// Why execution stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Division by zero or `i64::MIN / -1`.
    ArithmeticTrap,
    /// Memory access outside its region.
    OutOfBounds {
        /// Offending offset.
        offset: i64,
        /// Region length.
        len: usize,
    },
    /// Explicit `trap` instruction (unreachable code reached).
    Unreachable,
    /// Fuel budget exhausted.
    OutOfFuel,
    /// Call depth exceeded.
    StackOverflow,
    /// A pointer was used as an integer or vice versa (compiler bug).
    TypeConfusion,
    /// The requested entry function does not exist.
    NoSuchFunction(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::ArithmeticTrap => write!(f, "arithmetic trap"),
            VmError::OutOfBounds { offset, len } => {
                write!(
                    f,
                    "out-of-bounds access at offset {offset} of region length {len}"
                )
            }
            VmError::Unreachable => write!(f, "reached unreachable code"),
            VmError::OutOfFuel => write!(f, "fuel exhausted"),
            VmError::StackOverflow => write!(f, "call depth exceeded"),
            VmError::TypeConfusion => write!(f, "pointer/integer confusion"),
            VmError::NoSuchFunction(n) => write!(f, "no such function '{n}'"),
        }
    }
}

impl std::error::Error for VmError {}

/// The observable result of a program run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunOutput {
    /// Values written by `print`, in order.
    pub prints: Vec<i64>,
    /// The entry function's return value, when it produces one.
    pub return_value: Option<i64>,
    /// Executed bytecode instructions (dynamic cost).
    pub executed: u64,
    /// Executed instructions per function, aligned with the program's
    /// function table (a flat profile).
    pub per_function: Vec<u64>,
}

/// Execution limits.
#[derive(Debug, Clone, Copy)]
pub struct VmOptions {
    /// Instruction budget.
    pub fuel: u64,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            fuel: DEFAULT_FUEL,
            max_depth: DEFAULT_MAX_DEPTH,
        }
    }
}

/// Runs `program.entry` (or the named function) with integer arguments.
///
/// # Errors
///
/// Returns a [`VmError`] on traps, fuel exhaustion, or stack overflow.
pub fn run(
    program: &Program,
    entry: &str,
    args: &[i64],
    options: VmOptions,
) -> Result<RunOutput, VmError> {
    let id = program
        .func_id(entry)
        .ok_or_else(|| VmError::NoSuchFunction(entry.to_string()))?;
    let mut vm = Vm {
        program,
        regions: Vec::new(),
        prints: Vec::new(),
        fuel: options.fuel,
        executed: 0,
        per_function: vec![0; program.funcs.len()],
        max_depth: options.max_depth,
    };
    let argv: Vec<Value> = args.iter().map(|&a| Value::Int(a)).collect();
    let ret = vm.call(id, &argv, 0)?;
    Ok(RunOutput {
        prints: vm.prints,
        return_value: match ret {
            Some(Value::Int(v)) => Some(v),
            Some(Value::Ptr { .. }) => return Err(VmError::TypeConfusion),
            None => None,
        },
        executed: vm.executed,
        per_function: vm.per_function,
    })
}

struct Vm<'p> {
    program: &'p Program,
    regions: Vec<Vec<i64>>,
    prints: Vec<i64>,
    fuel: u64,
    executed: u64,
    per_function: Vec<u64>,
    max_depth: usize,
}

impl<'p> Vm<'p> {
    fn call(&mut self, id: FuncId, args: &[Value], depth: usize) -> Result<Option<Value>, VmError> {
        if depth >= self.max_depth {
            return Err(VmError::StackOverflow);
        }
        let blob = self.program.func(id);
        let region_watermark = self.regions.len();
        let mut regs: Vec<Value> = vec![Value::default(); blob.num_regs as usize];
        regs[..args.len()].copy_from_slice(args);

        let read = |regs: &[Value], src: Src| -> Value {
            match src {
                Src::Reg(r) => regs[r as usize],
                Src::Imm(v) => Value::Int(v),
            }
        };
        let int = |v: Value| -> Result<i64, VmError> {
            match v {
                Value::Int(i) => Ok(i),
                Value::Ptr { .. } => Err(VmError::TypeConfusion),
            }
        };

        let mut pc = 0usize;
        let result = loop {
            if self.executed >= self.fuel {
                return Err(VmError::OutOfFuel);
            }
            self.executed += 1;
            self.per_function[id.0 as usize] += 1;
            let bc = &blob.code[pc];
            pc += 1;
            match bc {
                Bc::Mov { dst, src } => {
                    regs[*dst as usize] = read(&regs, *src);
                }
                Bc::Bin { kind, dst, a, b } => {
                    let x = int(read(&regs, *a))?;
                    let y = int(read(&regs, *b))?;
                    let v = kind.eval(x, y).ok_or(VmError::ArithmeticTrap)?;
                    regs[*dst as usize] = Value::Int(v);
                }
                Bc::Icmp { pred, dst, a, b } => {
                    let x = int(read(&regs, *a))?;
                    let y = int(read(&regs, *b))?;
                    regs[*dst as usize] = Value::Int(pred.eval(x, y) as i64);
                }
                Bc::Select { dst, cond, a, b } => {
                    let c = int(read(&regs, *cond))?;
                    regs[*dst as usize] = if c != 0 {
                        read(&regs, *a)
                    } else {
                        read(&regs, *b)
                    };
                }
                Bc::Alloca { dst, size } => {
                    let region = self.regions.len() as u32;
                    self.regions.push(vec![0; *size as usize]);
                    regs[*dst as usize] = Value::Ptr { region, offset: 0 };
                }
                Bc::Load { dst, addr } => {
                    let v = self.deref(regs[*addr as usize])?;
                    regs[*dst as usize] = Value::Int(v);
                }
                Bc::Store { addr, src } => {
                    let v = int(read(&regs, *src))?;
                    self.deref_store(regs[*addr as usize], v)?;
                }
                Bc::Gep { dst, base, index } => {
                    let Value::Ptr { region, offset } = regs[*base as usize] else {
                        return Err(VmError::TypeConfusion);
                    };
                    let idx = int(read(&regs, *index))?;
                    regs[*dst as usize] = Value::Ptr {
                        region,
                        offset: offset.wrapping_add(idx),
                    };
                }
                Bc::Call { func, args, dst } => {
                    let argv: Vec<Value> = args.iter().map(|&a| read(&regs, a)).collect();
                    let ret = self.call(*func, &argv, depth + 1)?;
                    if let Some(dst) = dst {
                        regs[*dst as usize] = ret.ok_or(VmError::TypeConfusion)?;
                    }
                }
                Bc::Print { src } => {
                    let v = int(read(&regs, *src))?;
                    self.prints.push(v);
                }
                Bc::Jump { target } => pc = *target as usize,
                Bc::Branch {
                    cond,
                    then_pc,
                    else_pc,
                } => {
                    let c = int(read(&regs, *cond))?;
                    pc = if c != 0 { *then_pc } else { *else_pc } as usize;
                }
                Bc::Ret { src } => {
                    break src.map(|s| read(&regs, s));
                }
                Bc::Trap => return Err(VmError::Unreachable),
            }
        };
        self.regions.truncate(region_watermark);
        Ok(result)
    }

    fn deref(&self, v: Value) -> Result<i64, VmError> {
        let Value::Ptr { region, offset } = v else {
            return Err(VmError::TypeConfusion);
        };
        let data = &self.regions[region as usize];
        if offset < 0 || offset as usize >= data.len() {
            return Err(VmError::OutOfBounds {
                offset,
                len: data.len(),
            });
        }
        Ok(data[offset as usize])
    }

    fn deref_store(&mut self, v: Value, value: i64) -> Result<(), VmError> {
        let Value::Ptr { region, offset } = v else {
            return Err(VmError::TypeConfusion);
        };
        let data = &mut self.regions[region as usize];
        if offset < 0 || offset as usize >= data.len() {
            return Err(VmError::OutOfBounds {
                offset,
                len: data.len(),
            });
        }
        data[offset as usize] = value;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::CodeBlob;
    use sfcc_ir::{BinKind, IcmpPred};

    fn single(blob: CodeBlob) -> Program {
        Program {
            funcs: vec![blob],
            entry: Some(FuncId(0)),
        }
    }

    #[test]
    fn runs_arithmetic() {
        let p = single(CodeBlob {
            name: "m.f".into(),
            arity: 2,
            returns_value: true,
            num_regs: 4,
            code: vec![
                Bc::Bin {
                    kind: BinKind::Add,
                    dst: 2,
                    a: Src::Reg(0),
                    b: Src::Reg(1),
                },
                Bc::Bin {
                    kind: BinKind::Mul,
                    dst: 3,
                    a: Src::Reg(2),
                    b: Src::Imm(10),
                },
                Bc::Ret {
                    src: Some(Src::Reg(3)),
                },
            ],
        });
        let out = run(&p, "m.f", &[3, 4], VmOptions::default()).unwrap();
        assert_eq!(out.return_value, Some(70));
        assert_eq!(out.executed, 3);
    }

    #[test]
    fn division_by_zero_traps() {
        let p = single(CodeBlob {
            name: "m.f".into(),
            arity: 1,
            returns_value: true,
            num_regs: 2,
            code: vec![
                Bc::Bin {
                    kind: BinKind::Sdiv,
                    dst: 1,
                    a: Src::Imm(1),
                    b: Src::Reg(0),
                },
                Bc::Ret {
                    src: Some(Src::Reg(1)),
                },
            ],
        });
        assert_eq!(
            run(&p, "m.f", &[0], VmOptions::default()),
            Err(VmError::ArithmeticTrap)
        );
        assert_eq!(
            run(&p, "m.f", &[2], VmOptions::default())
                .unwrap()
                .return_value,
            Some(0)
        );
    }

    #[test]
    fn memory_roundtrip_and_bounds() {
        let p = single(CodeBlob {
            name: "m.f".into(),
            arity: 1,
            returns_value: true,
            num_regs: 4,
            code: vec![
                Bc::Alloca { dst: 1, size: 4 },
                Bc::Gep {
                    dst: 2,
                    base: 1,
                    index: Src::Reg(0),
                },
                Bc::Store {
                    addr: 2,
                    src: Src::Imm(99),
                },
                Bc::Load { dst: 3, addr: 2 },
                Bc::Ret {
                    src: Some(Src::Reg(3)),
                },
            ],
        });
        assert_eq!(
            run(&p, "m.f", &[2], VmOptions::default())
                .unwrap()
                .return_value,
            Some(99)
        );
        // Index 9 is out of bounds for size 4.
        assert!(matches!(
            run(&p, "m.f", &[9], VmOptions::default()),
            Err(VmError::OutOfBounds { .. })
        ));
        assert!(matches!(
            run(&p, "m.f", &[-1], VmOptions::default()),
            Err(VmError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn loops_consume_fuel() {
        let p = single(CodeBlob {
            name: "m.f".into(),
            arity: 0,
            returns_value: false,
            num_regs: 1,
            code: vec![Bc::Jump { target: 0 }],
        });
        assert_eq!(
            run(
                &p,
                "m.f",
                &[],
                VmOptions {
                    fuel: 1000,
                    max_depth: 8
                }
            ),
            Err(VmError::OutOfFuel)
        );
    }

    #[test]
    fn calls_and_prints() {
        // f(x) calls g(x) = x + 1 twice and prints both results.
        let g = CodeBlob {
            name: "m.g".into(),
            arity: 1,
            returns_value: true,
            num_regs: 2,
            code: vec![
                Bc::Bin {
                    kind: BinKind::Add,
                    dst: 1,
                    a: Src::Reg(0),
                    b: Src::Imm(1),
                },
                Bc::Ret {
                    src: Some(Src::Reg(1)),
                },
            ],
        };
        let f = CodeBlob {
            name: "m.f".into(),
            arity: 1,
            returns_value: false,
            num_regs: 3,
            code: vec![
                Bc::Call {
                    func: FuncId(1),
                    args: vec![Src::Reg(0)],
                    dst: Some(1),
                },
                Bc::Print { src: Src::Reg(1) },
                Bc::Call {
                    func: FuncId(1),
                    args: vec![Src::Reg(1)],
                    dst: Some(2),
                },
                Bc::Print { src: Src::Reg(2) },
                Bc::Ret { src: None },
            ],
        };
        let p = Program {
            funcs: vec![f, g],
            entry: Some(FuncId(0)),
        };
        let out = run(&p, "m.f", &[10], VmOptions::default()).unwrap();
        assert_eq!(out.prints, vec![11, 12]);
    }

    #[test]
    fn deep_recursion_overflows() {
        let f = CodeBlob {
            name: "m.f".into(),
            arity: 1,
            returns_value: true,
            num_regs: 2,
            code: vec![
                Bc::Call {
                    func: FuncId(0),
                    args: vec![Src::Reg(0)],
                    dst: Some(1),
                },
                Bc::Ret {
                    src: Some(Src::Reg(1)),
                },
            ],
        };
        let p = Program {
            funcs: vec![f],
            entry: Some(FuncId(0)),
        };
        assert_eq!(
            run(
                &p,
                "m.f",
                &[1],
                VmOptions {
                    fuel: 1_000_000,
                    max_depth: 64
                }
            ),
            Err(VmError::StackOverflow)
        );
    }

    #[test]
    fn branch_and_icmp() {
        // return x < 10 ? 1 : 2
        let p = single(CodeBlob {
            name: "m.f".into(),
            arity: 1,
            returns_value: true,
            num_regs: 2,
            code: vec![
                Bc::Icmp {
                    pred: IcmpPred::Slt,
                    dst: 1,
                    a: Src::Reg(0),
                    b: Src::Imm(10),
                },
                Bc::Branch {
                    cond: Src::Reg(1),
                    then_pc: 2,
                    else_pc: 3,
                },
                Bc::Ret {
                    src: Some(Src::Imm(1)),
                },
                Bc::Ret {
                    src: Some(Src::Imm(2)),
                },
            ],
        });
        assert_eq!(
            run(&p, "m.f", &[5], VmOptions::default())
                .unwrap()
                .return_value,
            Some(1)
        );
        assert_eq!(
            run(&p, "m.f", &[50], VmOptions::default())
                .unwrap()
                .return_value,
            Some(2)
        );
    }

    #[test]
    fn trap_reports_unreachable() {
        let p = single(CodeBlob {
            name: "m.f".into(),
            arity: 0,
            returns_value: false,
            num_regs: 1,
            code: vec![Bc::Trap],
        });
        assert_eq!(
            run(&p, "m.f", &[], VmOptions::default()),
            Err(VmError::Unreachable)
        );
    }

    #[test]
    fn regions_freed_on_return() {
        // Callee allocates; caller loops calls; regions must not leak.
        let g = CodeBlob {
            name: "m.g".into(),
            arity: 0,
            returns_value: true,
            num_regs: 2,
            code: vec![
                Bc::Alloca { dst: 0, size: 8 },
                Bc::Load { dst: 1, addr: 0 },
                Bc::Ret {
                    src: Some(Src::Reg(1)),
                },
            ],
        };
        let f = CodeBlob {
            name: "m.f".into(),
            arity: 0,
            returns_value: true,
            num_regs: 2,
            code: vec![
                Bc::Call {
                    func: FuncId(1),
                    args: vec![],
                    dst: Some(0),
                },
                Bc::Call {
                    func: FuncId(1),
                    args: vec![],
                    dst: Some(1),
                },
                Bc::Ret {
                    src: Some(Src::Reg(1)),
                },
            ],
        };
        let p = Program {
            funcs: vec![f, g],
            entry: Some(FuncId(0)),
        };
        let out = run(&p, "m.f", &[], VmOptions::default()).unwrap();
        assert_eq!(out.return_value, Some(0));
    }

    #[test]
    fn missing_entry_reports_error() {
        let p = Program::default();
        assert_eq!(
            run(&p, "nope", &[], VmOptions::default()),
            Err(VmError::NoSuchFunction("nope".into()))
        );
    }
}
