//! Parser for the textual IR format produced by [`crate::printer`].
//!
//! The grammar is line-oriented: one directive, label, or instruction per
//! line; `;` starts a comment. The parser reconstructs value ids exactly as
//! printed (`%N`), so `parse(print(m))` is the identity on well-formed
//! modules — a property the test suite checks with proptest-generated
//! programs.

use std::collections::HashMap;
use std::sync::Arc;

use crate::function::{BlockId, Function, ValueId};
use crate::inst::{AbortCode, BinOp, Callee, CastKind, CmpOp, InstMeta, Op, Operand, RmwOp, UnOp};
use crate::module::{FuncId, GlobalId, GlobalInit, Module};
use crate::types::Ty;

/// A parse failure with a line number (1-based).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a module from its textual form.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    Parser::new(text).parse()
}

struct Parser<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.split(';').next().unwrap_or("").trim()))
            .filter(|(_, l)| !l.is_empty())
            .collect();
        Parser { lines, pos: 0 }
    }

    fn err<T>(&self, line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { line, msg: msg.into() })
    }

    fn peek(&self) -> Option<(usize, &'a str)> {
        self.lines.get(self.pos).copied()
    }

    fn next_line(&mut self) -> Option<(usize, &'a str)> {
        let l = self.peek();
        if l.is_some() {
            self.pos += 1;
        }
        l
    }

    fn parse(&mut self) -> Result<Module, ParseError> {
        let mut m = Module::new("");
        while let Some((ln, line)) = self.next_line() {
            if let Some(rest) = line.strip_prefix("module ") {
                m.name = parse_quoted(rest)
                    .ok_or(ParseError { line: ln, msg: "expected module \"name\"".into() })?;
            } else if let Some(rest) = line.strip_prefix("global ") {
                let (name, rest) = split_quoted(rest)
                    .ok_or(ParseError { line: ln, msg: "expected global \"name\"".into() })?;
                let mut it = rest.split_whitespace();
                let size: u64 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or(ParseError { line: ln, msg: "expected global size".into() })?;
                match it.next() {
                    Some("zero") => {
                        m.globals.push(crate::module::Global {
                            name,
                            size,
                            init: GlobalInit::Zero,
                        });
                    }
                    Some("bytes") => {
                        let hex = it.next().unwrap_or("");
                        let bytes = parse_hex(hex)
                            .ok_or(ParseError { line: ln, msg: "bad hex bytes".into() })?;
                        if bytes.len() as u64 > size {
                            return self.err(
                                ln,
                                format!("{} initial bytes exceed global size {size}", bytes.len()),
                            );
                        }
                        m.globals.push(crate::module::Global {
                            name,
                            size,
                            init: GlobalInit::Bytes(Arc::new(bytes)),
                        });
                    }
                    _ => return self.err(ln, "expected 'zero' or 'bytes'"),
                }
            } else if line.starts_with("func ") {
                self.pos -= 1;
                let f = self.parse_func()?;
                m.push_func(f);
            } else {
                return self.err(ln, format!("unexpected line: {line}"));
            }
        }
        Ok(m)
    }

    fn parse_func(&mut self) -> Result<Function, ParseError> {
        let (ln, header) = self.next_line().expect("caller checked");
        let rest = header.strip_prefix("func ").expect("caller checked");
        let (name, rest) = split_quoted(rest)
            .ok_or(ParseError { line: ln, msg: "expected func \"name\"".into() })?;
        let rest = rest.trim();
        let open =
            rest.find('(').ok_or(ParseError { line: ln, msg: "expected parameter list".into() })?;
        let close =
            rest.find(')').ok_or(ParseError { line: ln, msg: "unclosed parameter list".into() })?;
        let params: Vec<Ty> = rest[open + 1..close]
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| parse_ty(s).ok_or(ParseError { line: ln, msg: format!("bad type {s}") }))
            .collect::<Result<_, _>>()?;
        let tail = rest[close + 1..].trim().trim_end_matches('{').trim();
        let mut ret_ty = None;
        let mut external = false;
        let mut local = true;
        let mut toks = tail.split_whitespace().peekable();
        if toks.peek() == Some(&"->") {
            toks.next();
            let t =
                toks.next().ok_or(ParseError { line: ln, msg: "expected return type".into() })?;
            ret_ty =
                Some(parse_ty(t).ok_or(ParseError { line: ln, msg: format!("bad type {t}") })?);
        }
        for t in toks {
            match t {
                "external" => external = true,
                "nonlocal" => local = false,
                other => return self.err(ln, format!("unknown attribute {other}")),
            }
        }

        let mut f = Function::new(name, &params, ret_ty);
        f.attrs.external = external;
        f.attrs.local = local;
        f.blocks.clear();

        // First pass within the function: gather lines and block labels.
        let mut body: Vec<(usize, &str)> = Vec::new();
        loop {
            let Some((ln2, line)) = self.next_line() else {
                return self.err(ln, "unterminated function (missing })");
            };
            if line == "}" {
                break;
            }
            body.push((ln2, line));
        }

        // Map value names: parameters are %0..%k-1; instruction results are
        // assigned in order of appearance, which matches the printer.
        let mut cur_block: Option<BlockId> = None;
        let mut value_map: HashMap<u32, ValueId> = HashMap::new();
        for i in 0..params.len() as u32 {
            value_map.insert(i, ValueId(i));
        }

        // Pre-scan for the number of blocks so branch targets resolve.
        let nblocks = body.iter().filter(|(_, l)| l.ends_with(':')).count();
        for _ in 0..nblocks.max(1) {
            f.add_block();
        }

        // Pre-scan result names in order so that forward value references
        // (phis over back edges) resolve.
        {
            let mut next = params.len() as u32;
            for (_, line) in &body {
                if line.ends_with(':') {
                    continue;
                }
                if let Some(eq) = line.find('=') {
                    let lhs = line[..eq].trim();
                    if let Some(n) = lhs.strip_prefix('%').and_then(|s| s.parse::<u32>().ok()) {
                        value_map.insert(n, ValueId(next));
                        next += 1;
                    }
                }
            }
        }

        let mut bidx = 0u32;
        for (ln2, line) in body {
            if let Some(label) = line.strip_suffix(':') {
                if !label.starts_with('b') {
                    return self.err(ln2, format!("bad block label {label}"));
                }
                cur_block = Some(BlockId(bidx));
                bidx += 1;
                continue;
            }
            let Some(cb) = cur_block else {
                return self.err(ln2, "instruction before first block label");
            };
            let (op, meta) = self.parse_inst(ln2, line, &value_map)?;
            let (iid, _res) = f.create_inst_meta(op, meta);
            f.push_to_block(cb, iid);
        }
        Ok(f)
    }

    fn parse_inst(
        &self,
        ln: usize,
        line: &str,
        vals: &HashMap<u32, ValueId>,
    ) -> Result<(Op, InstMeta), ParseError> {
        // Strip meta suffixes.
        let mut meta = InstMeta::default();
        let mut text = line.trim();
        loop {
            if let Some(rest) = text.strip_suffix("!shadow") {
                meta.shadow = true;
                text = rest.trim_end();
            } else if let Some(rest) = text.strip_suffix("!fprop") {
                meta.fprop_check = true;
                text = rest.trim_end();
            } else if let Some(rest) = text.strip_suffix("!check") {
                meta.ilr_check = true;
                text = rest.trim_end();
            } else {
                break;
            }
        }

        // Strip result assignment (result ids are re-derived in order).
        let text = match text.find('=') {
            Some(eq) if text.trim_start().starts_with('%') => text[eq + 1..].trim(),
            _ => text,
        };

        let opnd = |s: &str| -> Result<Operand, ParseError> {
            parse_operand(s, vals).ok_or(ParseError { line: ln, msg: format!("bad operand {s}") })
        };
        let blk = |s: &str| -> Result<BlockId, ParseError> {
            s.trim()
                .strip_prefix('b')
                .and_then(|x| x.parse().ok())
                .map(BlockId)
                .ok_or(ParseError { line: ln, msg: format!("bad block {s}") })
        };

        let (mnemonic, rest) = match text.find(' ') {
            Some(i) => (&text[..i], text[i + 1..].trim()),
            None => (text, ""),
        };

        let op = match mnemonic {
            "add" | "sub" | "mul" | "sdiv" | "udiv" | "srem" | "urem" | "and" | "or" | "xor"
            | "shl" | "lshr" | "ashr" | "fadd" | "fsub" | "fmul" | "fdiv" => {
                let op = parse_binop(mnemonic).unwrap();
                let (ty, args) = split_ty(rest, ln)?;
                let (a, b) = two(args, ln)?;
                Op::Bin { op, ty, a: opnd(a)?, b: opnd(b)? }
            }
            "neg" | "not" | "fneg" | "fsqrt" | "fexp" | "fln" | "fabs" => {
                let op = parse_unop(mnemonic).unwrap();
                let (ty, args) = split_ty(rest, ln)?;
                Op::Un { op, ty, a: opnd(args)? }
            }
            "cmp" => {
                let (pred, rest2) = head(rest, ln)?;
                let op = parse_cmpop(pred)
                    .ok_or(ParseError { line: ln, msg: format!("bad predicate {pred}") })?;
                let (ty, args) = split_ty(rest2, ln)?;
                let (a, b) = two(args, ln)?;
                Op::Cmp { op, ty, a: opnd(a)?, b: opnd(b)? }
            }
            "move" => {
                let (ty, args) = split_ty(rest, ln)?;
                Op::Move { ty, a: opnd(args)? }
            }
            "cast" => {
                let (kind, rest2) = head(rest, ln)?;
                let kind = parse_cast(kind)
                    .ok_or(ParseError { line: ln, msg: format!("bad cast {kind}") })?;
                let (to, args) = split_ty(rest2, ln)?;
                Op::Cast { kind, to, a: opnd(args)? }
            }
            "select" => {
                let (ty, args) = split_ty(rest, ln)?;
                let parts = commas(args);
                if parts.len() != 3 {
                    return self.err(ln, "select needs 3 operands");
                }
                Op::Select { ty, c: opnd(parts[0])?, t: opnd(parts[1])?, f: opnd(parts[2])? }
            }
            "gep" => {
                let parts = commas(rest);
                if parts.len() != 4 {
                    return self.err(ln, "gep needs base, index, scale, offset");
                }
                let scale: u32 = parts[2]
                    .trim()
                    .parse()
                    .map_err(|_| ParseError { line: ln, msg: "bad gep scale".into() })?;
                let offset: i64 = parts[3]
                    .trim()
                    .parse()
                    .map_err(|_| ParseError { line: ln, msg: "bad gep offset".into() })?;
                Op::Gep { base: opnd(parts[0])?, index: opnd(parts[1])?, scale, offset }
            }
            "phi" => {
                let (ty, args) = split_ty(rest, ln)?;
                let mut incomings = Vec::new();
                let mut cursor = args;
                while let Some(open) = cursor.find('[') {
                    let close = cursor[open..]
                        .find(']')
                        .map(|i| i + open)
                        .ok_or(ParseError { line: ln, msg: "unclosed phi incoming".into() })?;
                    let inner = &cursor[open + 1..close];
                    let (v, b) = two(inner, ln)?;
                    incomings.push((opnd(v)?, blk(b)?));
                    cursor = &cursor[close + 1..];
                }
                Op::Phi { ty, incomings }
            }
            "load" | "load_atomic" => {
                let (ty, args) = split_ty(rest, ln)?;
                Op::Load { ty, addr: opnd(args)?, atomic: mnemonic == "load_atomic" }
            }
            "store" | "store_atomic" => {
                let (ty, args) = split_ty(rest, ln)?;
                let (v, a) = two(args, ln)?;
                Op::Store { ty, val: opnd(v)?, addr: opnd(a)?, atomic: mnemonic == "store_atomic" }
            }
            "rmw" => {
                let (which, rest2) = head(rest, ln)?;
                let op = match which {
                    "add" => RmwOp::Add,
                    "xchg" => RmwOp::Xchg,
                    other => return self.err(ln, format!("bad rmw op {other}")),
                };
                let (ty, args) = split_ty(rest2, ln)?;
                let (a, v) = two(args, ln)?;
                Op::Rmw { op, ty, addr: opnd(a)?, val: opnd(v)? }
            }
            "cmpxchg" => {
                let (ty, args) = split_ty(rest, ln)?;
                let parts = commas(args);
                if parts.len() != 3 {
                    return self.err(ln, "cmpxchg needs 3 operands");
                }
                Op::CmpXchg {
                    ty,
                    addr: opnd(parts[0])?,
                    expected: opnd(parts[1])?,
                    new: opnd(parts[2])?,
                }
            }
            "alloc" => Op::Alloc { size: opnd(rest)? },
            "br" => Op::Br { dest: blk(rest)? },
            "condbr" => {
                let parts = commas(rest);
                if parts.len() != 3 {
                    return self.err(ln, "condbr needs cond, t, f");
                }
                Op::CondBr { cond: opnd(parts[0])?, t: blk(parts[1])?, f: blk(parts[2])? }
            }
            "call" | "call_indirect" => {
                let open = rest
                    .find('(')
                    .ok_or(ParseError { line: ln, msg: "call needs arg list".into() })?;
                let close = rest
                    .rfind(')')
                    .ok_or(ParseError { line: ln, msg: "unclosed arg list".into() })?;
                let target = rest[..open].trim();
                let args: Vec<Operand> = commas(&rest[open + 1..close])
                    .into_iter()
                    .filter(|s| !s.trim().is_empty())
                    .map(&opnd)
                    .collect::<Result<_, _>>()?;
                let tail = rest[close + 1..].trim();
                let ret_ty = if let Some(t) = tail.strip_prefix("->") {
                    Some(
                        parse_ty(t.trim())
                            .ok_or(ParseError { line: ln, msg: format!("bad return type {t}") })?,
                    )
                } else {
                    None
                };
                let callee = if mnemonic == "call" {
                    let fid = target
                        .strip_prefix("@f")
                        .and_then(|s| s.parse::<u32>().ok())
                        .ok_or(ParseError { line: ln, msg: format!("bad callee {target}") })?;
                    Callee::Direct(FuncId(fid))
                } else {
                    Callee::Indirect(opnd(target)?)
                };
                Op::Call { callee, args, ret_ty }
            }
            "ret" => {
                if rest.is_empty() {
                    Op::Ret { val: None }
                } else {
                    Op::Ret { val: Some(opnd(rest)?) }
                }
            }
            "tx_begin" => Op::TxBegin,
            "tx_end" => Op::TxEnd,
            "tx_cond_split" => Op::TxCondSplit,
            "tx_counter_inc" => {
                let amount: u32 = rest
                    .parse()
                    .map_err(|_| ParseError { line: ln, msg: "bad counter amount".into() })?;
                Op::TxCounterInc { amount }
            }
            "tx_abort" => {
                let code = match rest {
                    "ilr" => AbortCode::IlrDetected,
                    "explicit" => AbortCode::Explicit,
                    other => return self.err(ln, format!("bad abort code {other}")),
                };
                Op::TxAbort { code }
            }
            "vote" => {
                let (ty, args) = split_ty(rest, ln)?;
                let parts = commas(args);
                if parts.len() != 3 {
                    return self.err(ln, "vote needs 3 operands");
                }
                Op::Vote { ty, a: opnd(parts[0])?, b: opnd(parts[1])?, c: opnd(parts[2])? }
            }
            "chk_correct" => {
                let (ty, args) = split_ty(rest, ln)?;
                let parts = commas(args);
                if parts.len() != 3 {
                    return self.err(ln, "chk_correct needs 3 operands");
                }
                Op::ChkCorrect { ty, a: opnd(parts[0])?, b: opnd(parts[1])?, c: opnd(parts[2])? }
            }
            "lock" => Op::Lock { addr: opnd(rest)? },
            "unlock" => Op::Unlock { addr: opnd(rest)? },
            "emit" => {
                let (ty, args) = split_ty(rest, ln)?;
                Op::Emit { ty, val: opnd(args)? }
            }
            "thread_id" => Op::ThreadId,
            "num_threads" => Op::NumThreads,
            "nop" => Op::Nop,
            other => return self.err(ln, format!("unknown mnemonic {other}")),
        };
        Ok((op, meta))
    }
}

fn parse_quoted(s: &str) -> Option<String> {
    let s = s.trim();
    let s = s.strip_prefix('"')?;
    let end = s.find('"')?;
    Some(s[..end].to_string())
}

/// Splits `"name" rest` into the name and the remainder.
fn split_quoted(s: &str) -> Option<(String, &str)> {
    let s = s.trim();
    let inner = s.strip_prefix('"')?;
    let end = inner.find('"')?;
    Some((inner[..end].to_string(), &inner[end + 1..]))
}

fn parse_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2).map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok()).collect()
}

fn parse_ty(s: &str) -> Option<Ty> {
    match s {
        "i1" => Some(Ty::I1),
        "i8" => Some(Ty::I8),
        "i16" => Some(Ty::I16),
        "i32" => Some(Ty::I32),
        "i64" => Some(Ty::I64),
        "f64" => Some(Ty::F64),
        "ptr" => Some(Ty::Ptr),
        _ => None,
    }
}

fn parse_binop(s: &str) -> Option<BinOp> {
    use BinOp::*;
    Some(match s {
        "add" => Add,
        "sub" => Sub,
        "mul" => Mul,
        "sdiv" => SDiv,
        "udiv" => UDiv,
        "srem" => SRem,
        "urem" => URem,
        "and" => And,
        "or" => Or,
        "xor" => Xor,
        "shl" => Shl,
        "lshr" => LShr,
        "ashr" => AShr,
        "fadd" => FAdd,
        "fsub" => FSub,
        "fmul" => FMul,
        "fdiv" => FDiv,
        _ => return None,
    })
}

fn parse_unop(s: &str) -> Option<UnOp> {
    use UnOp::*;
    Some(match s {
        "neg" => Neg,
        "not" => Not,
        "fneg" => FNeg,
        "fsqrt" => FSqrt,
        "fexp" => FExp,
        "fln" => FLn,
        "fabs" => FAbs,
        _ => return None,
    })
}

fn parse_cmpop(s: &str) -> Option<CmpOp> {
    use CmpOp::*;
    Some(match s {
        "eq" => Eq,
        "ne" => Ne,
        "slt" => SLt,
        "sle" => SLe,
        "sgt" => SGt,
        "sge" => SGe,
        "ult" => ULt,
        "ule" => ULe,
        "ugt" => UGt,
        "uge" => UGe,
        "flt" => FLt,
        "fle" => FLe,
        "fgt" => FGt,
        "fge" => FGe,
        "feq" => FEq,
        "fne" => FNe,
        _ => return None,
    })
}

fn parse_cast(s: &str) -> Option<CastKind> {
    use CastKind::*;
    Some(match s {
        "zext" => ZExt,
        "sext" => SExt,
        "trunc" => Trunc,
        "sitofp" => SiToFp,
        "fptosi" => FpToSi,
        "bitcast" => Bitcast,
        _ => return None,
    })
}

fn parse_operand(s: &str, vals: &HashMap<u32, ValueId>) -> Option<Operand> {
    let s = s.trim();
    if let Some(n) = s.strip_prefix('%') {
        let n: u32 = n.parse().ok()?;
        return Some(Operand::Value(*vals.get(&n)?));
    }
    if let Some(bits) = s.strip_prefix("f64#") {
        return Some(Operand::F64Bits(u64::from_str_radix(bits, 16).ok()?));
    }
    if let Some(g) = s.strip_prefix("@g") {
        return Some(Operand::GlobalAddr(GlobalId(g.parse().ok()?)));
    }
    if let Some(f) = s.strip_prefix("@f") {
        return Some(Operand::FuncAddr(FuncId(f.parse().ok()?)));
    }
    // Immediate: value:type.
    let (v, t) = s.rsplit_once(':')?;
    Some(Operand::Imm(v.parse().ok()?, parse_ty(t)?))
}

/// Splits a leading type token from the rest.
fn split_ty(s: &str, ln: usize) -> Result<(Ty, &str), ParseError> {
    let s = s.trim();
    let (t, rest) = match s.find(' ') {
        Some(i) => (&s[..i], s[i + 1..].trim()),
        None => (s, ""),
    };
    match parse_ty(t) {
        Some(ty) => Ok((ty, rest)),
        None => Err(ParseError { line: ln, msg: format!("expected type, got {t}") }),
    }
}

fn head(s: &str, ln: usize) -> Result<(&str, &str), ParseError> {
    let s = s.trim();
    match s.find(' ') {
        Some(i) => Ok((&s[..i], s[i + 1..].trim())),
        None if !s.is_empty() => Ok((s, "")),
        None => Err(ParseError { line: ln, msg: "unexpected end of line".into() }),
    }
}

fn two(s: &str, ln: usize) -> Result<(&str, &str), ParseError> {
    let parts = commas(s);
    if parts.len() != 2 {
        return Err(ParseError { line: ln, msg: format!("expected 2 items in '{s}'") });
    }
    Ok((parts[0], parts[1]))
}

fn commas(s: &str) -> Vec<&str> {
    s.split(',').map(str::trim).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::printer::print_module;
    use crate::verify::verify_module;

    fn roundtrip(m: &Module) {
        let text = print_module(m);
        let parsed = parse_module(&text).unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        assert_eq!(print_module(&parsed), text, "round-trip mismatch");
        verify_module(&parsed).expect("parsed module verifies");
    }

    #[test]
    fn roundtrip_simple_function() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("f", &[Ty::I64, Ty::I64], Some(Ty::I64));
        let a = fb.param(0);
        let b = fb.param(1);
        let s = fb.add(Ty::I64, a, b);
        let p = fb.mul(Ty::I64, s, fb.iconst(Ty::I64, 3));
        fb.ret(Some(p.into()));
        m.push_func(fb.finish());
        roundtrip(&m);
    }

    #[test]
    fn roundtrip_loop_with_phi() {
        let mut m = Module::new("t");
        m.add_global("acc", 8);
        let mut fb = FunctionBuilder::new("l", &[Ty::I64], None);
        let n = fb.param(0);
        let g = Operand::GlobalAddr(GlobalId(0));
        fb.counted_loop(fb.iconst(Ty::I64, 0), n, |b, i| {
            let cur = b.load(Ty::I64, g);
            let nxt = b.add(Ty::I64, cur, i);
            b.store(Ty::I64, nxt, g);
        });
        fb.ret(None);
        m.push_func(fb.finish());
        roundtrip(&m);
    }

    #[test]
    fn roundtrip_calls_and_intrinsics() {
        let mut m = Module::new("t");
        let mut callee = FunctionBuilder::new("callee", &[Ty::I64], Some(Ty::I64));
        let x = callee.param(0);
        callee.ret(Some(x.into()));
        let cid = m.push_func(callee.finish());

        let mut fb = FunctionBuilder::new("main", &[], None);
        fb.set_non_local();
        let t = fb.thread_id();
        let r = fb.call(cid, &[t.into()], Some(Ty::I64)).unwrap();
        fb.emit_out(Ty::I64, r);
        fb.emit_op(Op::TxBegin);
        fb.emit_op(Op::TxCounterInc { amount: 9 });
        fb.emit_op(Op::TxCondSplit);
        fb.emit_op(Op::TxEnd);
        fb.ret(None);
        m.push_func(fb.finish());
        roundtrip(&m);
    }

    #[test]
    fn roundtrip_floats_and_casts() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("f", &[Ty::I64], Some(Ty::F64));
        let x = fb.param(0);
        let xf = fb.cast(CastKind::SiToFp, Ty::F64, x);
        let y = fb.bin(BinOp::FMul, Ty::F64, xf, fb.fconst(2.5));
        let z = fb.un(UnOp::FSqrt, Ty::F64, y);
        fb.ret(Some(z.into()));
        m.push_func(fb.finish());
        roundtrip(&m);
    }

    #[test]
    fn roundtrip_globals_with_bytes() {
        let mut m = Module::new("t");
        m.add_global_init("tab", vec![1, 2, 0xff]);
        roundtrip(&m);
    }

    #[test]
    fn roundtrip_atomic_ops() {
        let mut m = Module::new("t");
        m.add_global("w", 8);
        let g = Operand::GlobalAddr(GlobalId(0));
        let mut fb = FunctionBuilder::new("a", &[], None);
        let old = fb.rmw(RmwOp::Add, Ty::I64, g, fb.iconst(Ty::I64, 1));
        let _seen = fb.cmpxchg(Ty::I64, g, old, fb.iconst(Ty::I64, 0));
        let v = fb.load_atomic(Ty::I64, g);
        fb.store_atomic(Ty::I64, v, g);
        fb.lock(g);
        fb.unlock(g);
        fb.ret(None);
        m.push_func(fb.finish());
        roundtrip(&m);
    }

    #[test]
    fn parse_error_reports_line() {
        let text = "module \"m\"\nfunc \"f\" () {\nb0:\n  frobnicate\n}\n";
        let err = parse_module(text).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.msg.contains("frobnicate"));
    }

    #[test]
    fn initialiser_longer_than_its_global_is_rejected() {
        let text = format!(
            "module \"m\"\nglobal \"a\" 8 bytes {}\nglobal \"b\" 64 zero\n",
            "ff".repeat(100)
        );
        let err = parse_module(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("100 initial bytes exceed global size 8"), "{}", err.msg);
        // A short initialiser is padded, not rejected.
        let m = parse_module("module \"m\"\nglobal \"a\" 8 bytes ff\n").unwrap();
        assert_eq!(m.globals[0].init, GlobalInit::Bytes(Arc::new(vec![0xff])));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "; a comment\nmodule \"m\"\n\n; another\n";
        let m = parse_module(text).unwrap();
        assert_eq!(m.name, "m");
    }

    #[test]
    fn meta_flags_roundtrip() {
        let text =
            "module \"m\"\nfunc \"f\" () {\nb0:\n  %0 = cmp ne i64 1:i64, 2:i64 !check\n  ret\n}\n";
        let m = parse_module(text).unwrap();
        assert!(m.funcs[0].inst(crate::function::InstId(0)).meta.ilr_check);
        let printed = print_module(&m);
        assert!(printed.contains("!check"));
    }
}
