//! TX pass tests: boundary placement, counters, peepholes, and run-time
//! behaviour of transactified programs.

use haft_ir::builder::FunctionBuilder;
use haft_ir::inst::{Op, Operand};
use haft_ir::module::{GlobalId, Module};
use haft_ir::types::Ty;
use haft_ir::verify::verify_module;
use haft_vm::{Prepared, RunOutcome, RunSpec, Vm, VmConfig};

use super::*;
use crate::ilr::{run_ilr_module, IlrConfig};

fn ops_of(f: &Function) -> Vec<Op> {
    f.blocks.iter().flat_map(|b| &b.insts).map(|i| f.inst(*i).op.clone()).collect()
}

fn count(f: &Function, pred: impl Fn(&Op) -> bool) -> usize {
    ops_of(f).iter().filter(|o| pred(o)).count()
}

#[test]
fn non_local_function_gets_begin_end() {
    let mut m = Module::new("t");
    let mut fb = FunctionBuilder::new("main", &[], None);
    fb.set_non_local();
    fb.add(Ty::I64, fb.iconst(Ty::I64, 1), fb.iconst(Ty::I64, 2));
    fb.ret(None);
    m.push_func(fb.finish());
    run_tx_module(&mut m, &TxConfig::default());
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));
    let ops = ops_of(&m.funcs[0]);
    assert!(matches!(ops[0], Op::TxBegin), "{ops:?}");
    assert!(matches!(ops[ops.len() - 2], Op::TxEnd), "{ops:?}");
    assert!(matches!(ops[ops.len() - 1], Op::Ret { .. }));
}

#[test]
fn local_function_uses_conditional_split() {
    let mut m = Module::new("t");
    let mut fb = FunctionBuilder::new("helper", &[Ty::I64], Some(Ty::I64));
    let x = fb.param(0);
    let y = fb.add(Ty::I64, x, fb.iconst(Ty::I64, 1));
    fb.ret(Some(y.into()));
    m.push_func(fb.finish());
    run_tx_module(&mut m, &TxConfig::default());
    let ops = ops_of(&m.funcs[0]);
    assert!(matches!(ops[0], Op::TxCondSplit), "{ops:?}");
    assert!(
        ops.iter().any(|o| matches!(o, Op::TxCounterInc { .. })),
        "return charges the counter: {ops:?}"
    );
    assert_eq!(count(&m.funcs[0], |o| matches!(o, Op::TxBegin)), 0);
}

#[test]
fn non_local_callee_calls_are_bracketed() {
    // A function entered from outside the program (a handler or thread
    // entry) is marked non-local: it opens its own transaction, and even
    // with the local-call optimization its callers close theirs around
    // the call.
    let mut m = Module::new("t");
    let mut handler = FunctionBuilder::new("handler", &[], None);
    handler.add(Ty::I64, handler.iconst(Ty::I64, 1), handler.iconst(Ty::I64, 2));
    handler.ret(None);
    let mut handler = handler.finish();
    handler.attrs.local = false;
    let hid = m.push_func(handler);
    let mut fb = FunctionBuilder::new("main", &[], None);
    fb.set_non_local();
    fb.add(Ty::I64, fb.iconst(Ty::I64, 5), fb.iconst(Ty::I64, 6));
    fb.call(hid, &[], None);
    fb.add(Ty::I64, fb.iconst(Ty::I64, 7), fb.iconst(Ty::I64, 8));
    fb.ret(None);
    m.push_func(fb.finish());
    run_tx_module(&mut m, &TxConfig::default());
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));
    assert!(matches!(ops_of(&m.funcs[0])[0], Op::TxBegin));
    let ops = ops_of(&m.funcs[1]);
    let call_at = ops.iter().position(|o| matches!(o, Op::Call { .. })).unwrap();
    assert!(matches!(ops[call_at - 1], Op::TxEnd), "{ops:?}");
    assert!(matches!(ops[call_at + 1], Op::TxBegin), "{ops:?}");
}

#[test]
fn loops_get_split_and_counter() {
    let mut m = Module::new("t");
    m.add_global("acc", 8);
    let g = Operand::GlobalAddr(GlobalId(0));
    let mut fb = FunctionBuilder::new("main", &[], None);
    fb.set_non_local();
    fb.counted_loop(fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, 10), |b, i| {
        let c = b.load(Ty::I64, g);
        let n = b.add(Ty::I64, c, i);
        b.store(Ty::I64, n, g);
    });
    fb.ret(None);
    m.push_func(fb.finish());
    run_tx_module(&mut m, &TxConfig::default());
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));
    let f = &m.funcs[0];
    assert_eq!(count(f, |o| matches!(o, Op::TxCondSplit)), 1);
    let incs: Vec<u32> = ops_of(f)
        .iter()
        .filter_map(|o| match o {
            Op::TxCounterInc { amount } => Some(*amount),
            _ => None,
        })
        .collect();
    assert_eq!(incs.len(), 1);
    // Header (phi+cmp+condbr = 3) + body (load+add+store+i+1+br = 5) = 8.
    assert_eq!(incs[0], 8, "worst-case iteration weight");
    // The split sits in the header after the phi.
    let header = &f.blocks[1];
    assert!(f.inst(header.insts[0]).op.is_phi());
    assert!(matches!(f.inst(header.insts[1]).op, Op::TxCondSplit));
    // The increment sits at the latch, right before the back edge.
    let latch = &f.blocks[2];
    let n = latch.insts.len();
    assert!(matches!(f.inst(latch.insts[n - 2]).op, Op::TxCounterInc { .. }));
    assert!(matches!(f.inst(latch.insts[n - 1]).op, Op::Br { .. }));
}

#[test]
fn external_calls_are_bracketed() {
    let mut m = Module::new("t");
    let mut ext = FunctionBuilder::new("libc_read", &[], Some(Ty::I64));
    ext.set_external();
    ext.ret(Some(ext.iconst(Ty::I64, 9)));
    let ext_id = m.push_func(ext.finish());
    let mut fb = FunctionBuilder::new("main", &[], None);
    fb.set_non_local();
    fb.add(Ty::I64, fb.iconst(Ty::I64, 5), fb.iconst(Ty::I64, 6));
    fb.call(ext_id, &[], Some(Ty::I64));
    fb.add(Ty::I64, fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, 0));
    fb.ret(None);
    m.push_func(fb.finish());
    run_tx_module(&mut m, &TxConfig::default());
    let ops = ops_of(&m.funcs[1]);
    let call_at = ops.iter().position(|o| matches!(o, Op::Call { .. })).unwrap();
    assert!(matches!(ops[call_at - 1], Op::TxEnd), "{ops:?}");
    assert!(matches!(ops[call_at + 1], Op::TxBegin), "{ops:?}");
}

#[test]
fn local_calls_use_counter_with_opt_and_bracket_without() {
    let mut m = Module::new("t");
    let mut helper = FunctionBuilder::new("helper", &[], None);
    helper.ret(None);
    let hid = m.push_func(helper.finish());
    let mut fb = FunctionBuilder::new("main", &[], None);
    fb.set_non_local();
    fb.add(Ty::I64, fb.iconst(Ty::I64, 5), fb.iconst(Ty::I64, 6));
    fb.call(hid, &[], None);
    fb.add(Ty::I64, fb.iconst(Ty::I64, 7), fb.iconst(Ty::I64, 8));
    fb.ret(None);
    m.push_func(fb.finish());

    let mut with = m.clone();
    run_tx_module(&mut with, &TxConfig::default());
    let ops = ops_of(&with.funcs[1]);
    let call_at = ops.iter().position(|o| matches!(o, Op::Call { .. })).unwrap();
    assert!(matches!(ops[call_at - 1], Op::TxCounterInc { .. }), "{ops:?}");
    assert!(matches!(ops[call_at + 1], Op::TxCondSplit), "{ops:?}");

    let mut without = m;
    run_tx_module(&mut without, &TxConfig { local_calls_opt: false, ..Default::default() });
    let ops = ops_of(&without.funcs[1]);
    let call_at = ops.iter().position(|o| matches!(o, Op::Call { .. })).unwrap();
    assert!(matches!(ops[call_at - 1], Op::TxEnd), "{ops:?}");
    assert!(matches!(ops[call_at + 1], Op::TxBegin), "{ops:?}");
}

#[test]
fn emit_and_locks_are_bracketed_without_elision() {
    let mut m = Module::new("t");
    m.add_global("lock", 8);
    let lock = Operand::GlobalAddr(GlobalId(0));
    let mut fb = FunctionBuilder::new("main", &[], None);
    fb.set_non_local();
    fb.add(Ty::I64, fb.iconst(Ty::I64, 1), fb.iconst(Ty::I64, 2));
    fb.lock(lock);
    let x = fb.add(Ty::I64, fb.iconst(Ty::I64, 3), fb.iconst(Ty::I64, 4));
    fb.emit_out(Ty::I64, x);
    let _ = fb.add(Ty::I64, fb.iconst(Ty::I64, 5), fb.iconst(Ty::I64, 6));
    fb.unlock(lock);
    fb.add(Ty::I64, fb.iconst(Ty::I64, 7), fb.iconst(Ty::I64, 8));
    fb.ret(None);
    m.push_func(fb.finish());

    let mut plain = m.clone();
    run_tx_module(&mut plain, &TxConfig::default());
    let f = &plain.funcs[0];
    // end/begin around lock, emit, and unlock each.
    assert!(count(f, |o| matches!(o, Op::TxEnd)) >= 3, "{:?}", ops_of(f));

    let mut elided = m;
    run_tx_module(&mut elided, &TxConfig { lock_elision: true, ..Default::default() });
    let f = &elided.funcs[0];
    // Lock/unlock stay inside the transaction; only emit is bracketed.
    let ops = ops_of(f);
    let lock_at = ops.iter().position(|o| matches!(o, Op::Lock { .. })).unwrap();
    assert!(!matches!(ops[lock_at - 1], Op::TxEnd), "{ops:?}");
}

#[test]
fn peephole_removes_empty_transactions() {
    let mut m = Module::new("t");
    let mut ext = FunctionBuilder::new("ext", &[], None);
    ext.set_external();
    ext.ret(None);
    let eid = m.push_func(ext.finish());
    // Two adjacent external calls produce begin;end between them.
    let mut fb = FunctionBuilder::new("main", &[], None);
    fb.set_non_local();
    fb.call(eid, &[], None);
    fb.call(eid, &[], None);
    fb.ret(None);
    m.push_func(fb.finish());

    let mut with = m.clone();
    run_tx_module(&mut with, &TxConfig::default());
    let mut without = m;
    run_tx_module(&mut without, &TxConfig { peephole: false, ..Default::default() });
    assert!(
        count(&with.funcs[1], |o| matches!(o, Op::TxBegin))
            < count(&without.funcs[1], |o| matches!(o, Op::TxBegin)),
        "peephole must remove an empty transaction"
    );
    verify_module(&with).unwrap_or_else(|e| panic!("{e:?}"));
}

#[test]
fn split_point_skips_fprop_checks() {
    // Build ILR+fprop first, then TX; the conditional split must land
    // after the fprop check chain (its continuation block), so the check
    // executes before the previous transaction commits.
    let mut m = Module::new("t");
    m.add_global("c", 8);
    let g = Operand::GlobalAddr(GlobalId(0));
    let mut fb = FunctionBuilder::new("main", &[], None);
    fb.set_non_local();
    let pre = fb.current_block();
    let header = fb.new_block();
    let exit = fb.new_block();
    fb.br(header);
    fb.switch_to(header);
    let c = fb.phi(Ty::I64);
    fb.phi_incoming(c, fb.iconst(Ty::I64, 0), pre);
    let cn = fb.add(Ty::I64, c, fb.iconst(Ty::I64, 1));
    fb.phi_incoming(c, cn, header);
    let done = fb.cmp(haft_ir::inst::CmpOp::SGe, Ty::I64, cn, fb.iconst(Ty::I64, 100));
    fb.condbr(done, exit, header);
    fb.switch_to(exit);
    fb.store(Ty::I64, cn, g);
    fb.ret(None);
    m.push_func(fb.finish());

    run_ilr_module(&mut m, &IlrConfig::default());
    run_tx_module(&mut m, &TxConfig::default());
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));
    let f = &m.funcs[0];
    // Find the block containing the TxCondSplit that follows the fprop
    // chain: its block must not contain the fprop check itself.
    let mut found = false;
    for b in &f.blocks {
        for (i, iid) in b.insts.iter().enumerate() {
            if matches!(f.inst(*iid).op, Op::TxCondSplit) && i == 0 {
                found = true;
            }
        }
    }
    assert!(found, "a split starts a continuation block after fprop checks");
}

#[test]
fn transactified_program_runs_correctly_with_commits() {
    let mut m = Module::new("t");
    m.add_global("acc", 8);
    let g = Operand::GlobalAddr(GlobalId(0));
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    fb.counted_loop(fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, 500), |b, i| {
        let c = b.load(Ty::I64, g);
        let n = b.add(Ty::I64, c, i);
        b.store(Ty::I64, n, g);
    });
    let v = fb.load(Ty::I64, g);
    fb.emit_out(Ty::I64, v);
    fb.ret(None);
    m.push_func(fb.finish());

    let native = m.clone();
    run_tx_module(&mut m, &TxConfig::default());
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));

    let spec = RunSpec { fini: Some("fini"), ..Default::default() };
    let base = Vm::run(&native, VmConfig::default(), spec);
    let cfg = VmConfig { tx_threshold: 100, ..Default::default() };
    let r = Vm::run(&m, cfg, spec);
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.output, base.output);
    assert!(r.htm.commits > 5, "loop split into transactions: {}", r.htm.commits);
    assert!(r.htm.coverage_pct() > 50.0, "coverage {}", r.htm.coverage_pct());
}

#[test]
fn full_haft_pipeline_preserves_semantics_and_recovers() {
    use crate::manager::PassManager;
    use crate::pipeline::HardenConfig;
    use haft_vm::FaultPlan;

    let mut m = Module::new("t");
    m.add_global("data", 32 * 8);
    m.add_global("acc", 8);
    let data = Operand::GlobalAddr(GlobalId(0));
    let acc = Operand::GlobalAddr(GlobalId(1));
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    fb.counted_loop(fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, 32), |b, i| {
        let cell = b.gep(data, i, 8, 0);
        let v = b.mul(Ty::I64, i, b.iconst(Ty::I64, 3));
        b.store(Ty::I64, v, cell);
        let cur = b.load(Ty::I64, acc);
        let nxt = b.add(Ty::I64, cur, v);
        b.store(Ty::I64, nxt, acc);
    });
    let total = fb.load(Ty::I64, acc);
    fb.emit_out(Ty::I64, total);
    fb.ret(None);
    m.push_func(fb.finish());

    let (hardened, _) = PassManager::from_config(&HardenConfig::haft()).run_on(&m);
    verify_module(&hardened).unwrap_or_else(|e| panic!("{e:?}"));
    let spec = RunSpec { fini: Some("fini"), ..Default::default() };
    let base = Vm::run(&m, VmConfig::default(), spec);
    let clean = Vm::run(&hardened, VmConfig::default(), spec);
    assert_eq!(clean.outcome, RunOutcome::Completed);
    assert_eq!(clean.output, base.output);

    // Sweep faults: with HTM recovery most detections are corrected
    // (outcome stays Completed with correct output and recoveries > 0).
    let total_occ = clean.register_writes;
    let mut corrected = 0u32;
    let mut sdc = 0u32;
    let mut occ = 1u64;
    let prepared = Prepared::new(&hardened);
    while occ < total_occ {
        let cfg =
            VmConfig { tx_threshold: 200, max_instructions: 10_000_000, ..Default::default() };
        let plan = FaultPlan { occurrence: occ, xor_mask: 0xf0 };
        let r = Vm::start(&hardened, &prepared, cfg, spec).fork(plan, false).run_to_end();
        if r.recoveries > 0 && r.outcome == RunOutcome::Completed && r.output == base.output {
            corrected += 1;
        }
        if r.outcome == RunOutcome::Completed && r.output != base.output {
            sdc += 1;
        }
        occ += 11;
    }
    assert!(corrected > 3, "HTM rollback must correct faults: {corrected}");
    assert!(sdc <= 3, "HAFT should leave almost no SDCs: {sdc}");
}
