//! Program images: serializing linked [`Program`]s to disk.
//!
//! The executable artifact a build produces (`*.sbx`), analogous to the
//! linked binary in the paper's toolchain: magic, version, function table,
//! and bytecode, with an FNV-64 trailer checksum and cold rejection of
//! anything malformed.

use crate::bytecode::{Bc, CodeBlob, FuncId, Program, Src};
use sfcc_codec::{DecodeError, Reader, Writer};
use sfcc_faultfs::Durability;
use sfcc_ir::{BinKind, IcmpPred};
use std::cell::Cell;
use std::io;
use std::path::Path;

const MAGIC: &[u8; 7] = b"SFCCBX\0";
/// Current image format version.
pub const IMAGE_VERSION: u32 = 1;

thread_local! {
    /// Programs this thread has decoded ([`programs_decoded`]).
    static DECODED: Cell<u64> = const { Cell::new(0) };
}

/// How many programs this thread has decoded from an image so far: a build
/// driver reads it before and after a build to count the build's decodes.
pub fn programs_decoded() -> u64 {
    DECODED.with(Cell::get)
}

/// Serializes a program image.
pub fn to_bytes(program: &Program) -> Vec<u8> {
    encode_image(program.entry, |w| encode_blobs(w, &program.funcs))
}

/// An image whose blob table `blobs` writes, with entry `entry`: what
/// [`to_bytes`] writes for a program with that table and entry.
pub(crate) fn encode_image(entry: Option<FuncId>, blobs: impl FnOnce(&mut Writer)) -> Vec<u8> {
    sfcc_codec::armor(MAGIC, IMAGE_VERSION, |payload| {
        blobs(payload);
        match entry {
            Some(FuncId(id)) => {
                payload.u8(1);
                payload.u32(id);
            }
            None => payload.u8(0),
        }
    })
}

/// A count, then each code blob: name, arity, return flag, register count,
/// bytecode.
pub(crate) fn encode_blobs(w: &mut Writer, blobs: &[CodeBlob]) {
    w.usize(blobs.len());
    for blob in blobs {
        encode_blob(w, blob, |func| func);
    }
}

/// One code blob of [`encode_blobs`], each call target written as
/// `target` maps it: the linker relocates while it writes.
pub(crate) fn encode_blob(w: &mut Writer, blob: &CodeBlob, target: impl Fn(FuncId) -> FuncId) {
    w.str(&blob.name);
    w.u32(blob.arity);
    w.u8(blob.returns_value as u8);
    w.u32(blob.num_regs);
    w.usize(blob.code.len());
    for bc in &blob.code {
        encode_bc(w, bc, &target);
    }
}

/// The inverse of [`encode_blobs`]. Every count is checked against the
/// remaining input before anything is allocated for it.
pub(crate) fn decode_blobs(r: &mut Reader<'_>) -> Result<Vec<CodeBlob>, DecodeError> {
    let count = r.count()?;
    let mut blobs = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.str()?;
        let arity = r.u32()?;
        let returns_value = r.u8()? != 0;
        let num_regs = r.u32()?;
        let code_len = r.count()?;
        let mut code = Vec::with_capacity(code_len);
        for _ in 0..code_len {
            code.push(decode_bc(r)?);
        }
        blobs.push(CodeBlob {
            name,
            arity,
            returns_value,
            num_regs,
            code,
        });
    }
    Ok(blobs)
}

/// Deserializes a program image.
///
/// # Errors
///
/// Returns a [`DecodeError`] for any malformed input.
pub fn from_bytes(bytes: &[u8]) -> Result<Program, DecodeError> {
    let (funcs, entry) = sfcc_codec::unarmor(bytes, MAGIC, IMAGE_VERSION, |r| {
        let funcs = decode_blobs(r)?;
        let entry = if r.u8()? != 0 {
            Some(FuncId(r.u32()?))
        } else {
            None
        };
        Ok((funcs, entry))
    })?;

    // Structural sanity: every call target and the entry must be in range.
    let in_range = |id: FuncId| (id.0 as usize) < funcs.len();
    if let Some(e) = entry {
        if !in_range(e) {
            return Err(DecodeError::Corrupt);
        }
    }
    for blob in &funcs {
        for bc in &blob.code {
            if let Bc::Call { func, .. } = bc {
                if !in_range(*func) {
                    return Err(DecodeError::Corrupt);
                }
            }
        }
    }
    DECODED.with(|decoded| decoded.set(decoded.get() + 1));
    Ok(Program { funcs, entry })
}

/// Writes a program image to `path` atomically (unique temp + rename via
/// the fault-injectable I/O layer), synced as `durability` asks.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save_with(program: &Program, path: &Path, durability: Durability) -> io::Result<()> {
    sfcc_faultfs::atomic_write(path, &to_bytes(program), durability)
}

/// Loads a program image from `path`.
///
/// # Errors
///
/// Returns an error string describing the I/O or decode failure.
pub fn load(path: &Path) -> Result<Program, String> {
    let bytes = sfcc_faultfs::read(path).map_err(|e| format!("cannot read image: {e}"))?;
    from_bytes(&bytes).map_err(|e| format!("bad program image: {e}"))
}

fn encode_src(w: &mut Writer, src: Src) {
    match src {
        Src::Reg(r) => {
            w.u8(0);
            w.u32(r);
        }
        Src::Imm(v) => {
            w.u8(1);
            w.i64(v);
        }
    }
}

fn decode_src(r: &mut Reader<'_>) -> Result<Src, DecodeError> {
    Ok(match r.u8()? {
        0 => Src::Reg(r.u32()?),
        1 => Src::Imm(r.i64()?),
        _ => return Err(DecodeError::Corrupt),
    })
}

fn bin_code(kind: BinKind) -> u8 {
    match kind {
        BinKind::Add => 0,
        BinKind::Sub => 1,
        BinKind::Mul => 2,
        BinKind::Sdiv => 3,
        BinKind::Srem => 4,
        BinKind::And => 5,
        BinKind::Or => 6,
        BinKind::Xor => 7,
        BinKind::Shl => 8,
        BinKind::Ashr => 9,
    }
}

fn bin_from(code: u8) -> Result<BinKind, DecodeError> {
    Ok(match code {
        0 => BinKind::Add,
        1 => BinKind::Sub,
        2 => BinKind::Mul,
        3 => BinKind::Sdiv,
        4 => BinKind::Srem,
        5 => BinKind::And,
        6 => BinKind::Or,
        7 => BinKind::Xor,
        8 => BinKind::Shl,
        9 => BinKind::Ashr,
        _ => return Err(DecodeError::Corrupt),
    })
}

fn pred_code(pred: IcmpPred) -> u8 {
    match pred {
        IcmpPred::Eq => 0,
        IcmpPred::Ne => 1,
        IcmpPred::Slt => 2,
        IcmpPred::Sle => 3,
        IcmpPred::Sgt => 4,
        IcmpPred::Sge => 5,
    }
}

fn pred_from(code: u8) -> Result<IcmpPred, DecodeError> {
    Ok(match code {
        0 => IcmpPred::Eq,
        1 => IcmpPred::Ne,
        2 => IcmpPred::Slt,
        3 => IcmpPred::Sle,
        4 => IcmpPred::Sgt,
        5 => IcmpPred::Sge,
        _ => return Err(DecodeError::Corrupt),
    })
}

fn encode_bc(w: &mut Writer, bc: &Bc, target: impl Fn(FuncId) -> FuncId) {
    match bc {
        Bc::Mov { dst, src } => {
            w.u8(0);
            w.u32(*dst);
            encode_src(w, *src);
        }
        Bc::Bin { kind, dst, a, b } => {
            w.u8(1);
            w.u8(bin_code(*kind));
            w.u32(*dst);
            encode_src(w, *a);
            encode_src(w, *b);
        }
        Bc::Icmp { pred, dst, a, b } => {
            w.u8(2);
            w.u8(pred_code(*pred));
            w.u32(*dst);
            encode_src(w, *a);
            encode_src(w, *b);
        }
        Bc::Select { dst, cond, a, b } => {
            w.u8(3);
            w.u32(*dst);
            encode_src(w, *cond);
            encode_src(w, *a);
            encode_src(w, *b);
        }
        Bc::Alloca { dst, size } => {
            w.u8(4);
            w.u32(*dst);
            w.u32(*size);
        }
        Bc::Load { dst, addr } => {
            w.u8(5);
            w.u32(*dst);
            w.u32(*addr);
        }
        Bc::Store { addr, src } => {
            w.u8(6);
            w.u32(*addr);
            encode_src(w, *src);
        }
        Bc::Gep { dst, base, index } => {
            w.u8(7);
            w.u32(*dst);
            w.u32(*base);
            encode_src(w, *index);
        }
        Bc::Call { func, args, dst } => {
            w.u8(8);
            w.u32(target(*func).0);
            w.usize(args.len());
            for a in args {
                encode_src(w, *a);
            }
            match dst {
                Some(d) => {
                    w.u8(1);
                    w.u32(*d);
                }
                None => w.u8(0),
            }
        }
        Bc::Print { src } => {
            w.u8(9);
            encode_src(w, *src);
        }
        Bc::Jump { target } => {
            w.u8(10);
            w.u32(*target);
        }
        Bc::Branch {
            cond,
            then_pc,
            else_pc,
        } => {
            w.u8(11);
            encode_src(w, *cond);
            w.u32(*then_pc);
            w.u32(*else_pc);
        }
        Bc::Ret { src } => {
            w.u8(12);
            match src {
                Some(s) => {
                    w.u8(1);
                    encode_src(w, *s);
                }
                None => w.u8(0),
            }
        }
        Bc::Trap => w.u8(13),
    }
}

fn decode_bc(r: &mut Reader<'_>) -> Result<Bc, DecodeError> {
    Ok(match r.u8()? {
        0 => Bc::Mov {
            dst: r.u32()?,
            src: decode_src(r)?,
        },
        1 => Bc::Bin {
            kind: bin_from(r.u8()?)?,
            dst: r.u32()?,
            a: decode_src(r)?,
            b: decode_src(r)?,
        },
        2 => Bc::Icmp {
            pred: pred_from(r.u8()?)?,
            dst: r.u32()?,
            a: decode_src(r)?,
            b: decode_src(r)?,
        },
        3 => Bc::Select {
            dst: r.u32()?,
            cond: decode_src(r)?,
            a: decode_src(r)?,
            b: decode_src(r)?,
        },
        4 => Bc::Alloca {
            dst: r.u32()?,
            size: r.u32()?,
        },
        5 => Bc::Load {
            dst: r.u32()?,
            addr: r.u32()?,
        },
        6 => Bc::Store {
            addr: r.u32()?,
            src: decode_src(r)?,
        },
        7 => Bc::Gep {
            dst: r.u32()?,
            base: r.u32()?,
            index: decode_src(r)?,
        },
        8 => {
            let func = FuncId(r.u32()?);
            let argc = r.count()?;
            let mut args = Vec::with_capacity(argc);
            for _ in 0..argc {
                args.push(decode_src(r)?);
            }
            let dst = if r.u8()? != 0 { Some(r.u32()?) } else { None };
            Bc::Call { func, args, dst }
        }
        9 => Bc::Print {
            src: decode_src(r)?,
        },
        10 => Bc::Jump { target: r.u32()? },
        11 => Bc::Branch {
            cond: decode_src(r)?,
            then_pc: r.u32()?,
            else_pc: r.u32()?,
        },
        12 => Bc::Ret {
            src: if r.u8()? != 0 {
                Some(decode_src(r)?)
            } else {
                None
            },
        },
        13 => Bc::Trap,
        _ => return Err(DecodeError::Corrupt),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::link;
    use crate::vm::{run, VmOptions};
    use sfcc_ir::Module;

    fn sample_program() -> Program {
        let f = sfcc_ir::parse_function(
            r"
fn @main(i64) -> i64 {
bb0:
  v0 = alloca 4
  v1 = gep v0, p0
  store v1, 11
  v2 = load i64 v1
  v3 = icmp slt v2, 100
  v4 = select i64 v3, v2, 0
  call @print(v4)
  v5 = call i64 @main.twice(v4)
  ret v5
}",
        )
        .unwrap();
        let g = sfcc_ir::parse_function(
            "fn @twice(i64) -> i64 {\nbb0:\n  v0 = mul i64 p0, 2\n  ret v0\n}",
        )
        .unwrap();
        let mut m = Module::new("main");
        m.add_function(f);
        m.add_function(g);
        link(&[m]).unwrap()
    }

    #[test]
    fn roundtrip_preserves_program() {
        let p = sample_program();
        let back = from_bytes(&to_bytes(&p)).unwrap();
        assert_eq!(p.funcs, back.funcs);
        assert_eq!(p.entry, back.entry);
    }

    #[test]
    fn roundtripped_program_runs_identically() {
        let p = sample_program();
        let back = from_bytes(&to_bytes(&p)).unwrap();
        let a = run(&p, "main.main", &[2], VmOptions::default()).unwrap();
        let b = run(&back, "main.main", &[2], VmOptions::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.return_value, Some(22));
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = to_bytes(&sample_program());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        assert!(from_bytes(&bytes).is_err());
        assert_eq!(from_bytes(b"junk").unwrap_err(), DecodeError::BadMagic);
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = to_bytes(&sample_program());
        for cut in [8, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn out_of_range_call_rejected() {
        let mut p = sample_program();
        // Point the call at a nonexistent function, re-encode.
        for blob in &mut p.funcs {
            for bc in &mut blob.code {
                if let Bc::Call { func, .. } = bc {
                    *func = FuncId(99);
                }
            }
        }
        let bytes = to_bytes(&p);
        assert_eq!(from_bytes(&bytes).unwrap_err(), DecodeError::Corrupt);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sfcc-image-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prog.sbx");
        let p = sample_program();
        save_with(&p, &path, Durability::Fast).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(p.funcs.len(), back.funcs.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
