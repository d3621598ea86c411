//! TMR pass tests: structure of the triplicated IR plus semantic
//! preservation and fault-masking behaviour under the VM.

use haft_ir::builder::FunctionBuilder;
use haft_ir::inst::{CmpOp, Op, Operand};
use haft_ir::module::{GlobalId, Module};
use haft_ir::types::Ty;
use haft_ir::verify::verify_module;
use haft_vm::{FaultPlan, Prepared, RunOutcome, RunSpec, Vm, VmConfig};

use super::*;

fn count_ops(f: &Function, pred: impl Fn(&Op) -> bool) -> usize {
    f.blocks.iter().flat_map(|b| &b.insts).filter(|i| pred(&f.inst(**i).op)).count()
}

fn count_shadow(f: &Function) -> usize {
    f.blocks.iter().flat_map(|b| &b.insts).filter(|i| f.inst(**i).meta.shadow).count()
}

fn simple_module() -> Module {
    let mut m = Module::new("t");
    m.add_global("out", 8);
    let g = Operand::GlobalAddr(GlobalId(0));
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    let a = fb.add(Ty::I64, fb.iconst(Ty::I64, 20), fb.iconst(Ty::I64, 22));
    let b = fb.mul(Ty::I64, a, a);
    fb.store(Ty::I64, b, g);
    let v = fb.load(Ty::I64, g);
    fb.emit_out(Ty::I64, v);
    fb.ret(None);
    m.push_func(fb.finish());
    m
}

/// Re-runs the pass function by function, keeping its lane map, and
/// checks that no copy-flow clone reads a master (or the other flow's)
/// operand.
fn assert_lane_isolation(m: &Module, cfg: &TmrConfig) {
    for f in m.funcs.iter().filter(|f| !f.attrs.external) {
        let mut f = Function::clone(f);
        let mut pass = Tmr::new(cfg);
        pass.run(&mut f);
        pass.lanes.assert_isolated(&f);
    }
}

#[test]
fn triplication_creates_two_copy_flows_and_verifies() {
    let mut m = simple_module();
    assert_lane_isolation(&m, &TmrConfig::default());
    let votes = run_tmr_module(&mut m, &TmrConfig::default());
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));
    let f = &m.funcs[0];
    // Each of the two compute instructions gains two copies; the load is
    // triplicated; votes guard the store and the emit.
    assert!(count_shadow(f) >= 6, "copy insts = {}", count_shadow(f));
    assert!(votes >= 2, "votes = {votes}");
    assert_eq!(count_ops(f, |o| matches!(o, Op::Vote { .. })) as u64, votes);
    // No detect block, no aborts, no transactions: masking needs none.
    assert_eq!(count_ops(f, |o| matches!(o, Op::TxAbort { .. })), 0);
    assert_eq!(count_ops(f, |o| matches!(o, Op::TxBegin)), 0);
}

#[test]
fn tmr_preserves_the_cfg_shape() {
    let mut m = Module::new("t");
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    let c = fb.cmp(CmpOp::SGt, Ty::I64, fb.iconst(Ty::I64, 2), fb.iconst(Ty::I64, 1));
    let t = fb.new_block();
    let e = fb.new_block();
    fb.condbr(c, t, e);
    fb.switch_to(t);
    fb.ret(None);
    fb.switch_to(e);
    fb.ret(None);
    m.push_func(fb.finish());
    let blocks_before = m.funcs[0].blocks.len();
    run_tmr_module(&mut m, &TmrConfig::default());
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));
    // Votes are straight-line: no shadow blocks, no detect block, and the
    // single conditional branch now tests the voted condition.
    assert_eq!(m.funcs[0].blocks.len(), blocks_before);
    assert_eq!(count_ops(&m.funcs[0], |o| matches!(o, Op::CondBr { .. })), 1);
    assert_eq!(count_ops(&m.funcs[0], |o| matches!(o, Op::Vote { ty: Ty::I1, .. })), 1);
}

#[test]
fn triplicate_loads_mode_duplicates_loads() {
    let mut m = simple_module();
    run_tmr_module(&mut m, &TmrConfig::default());
    // Master load plus two copy loads through the copy addresses.
    assert_eq!(count_ops(&m.funcs[0], |o| matches!(o, Op::Load { .. })), 3);

    let mut m2 = simple_module();
    run_tmr_module(&mut m2, &TmrConfig { triplicate_loads: false, ..TmrConfig::default() });
    verify_module(&m2).unwrap_or_else(|e| panic!("{e:?}"));
    // One load through a voted address, replicated by moves.
    assert_eq!(count_ops(&m2.funcs[0], |o| matches!(o, Op::Load { .. })), 1);
    assert!(count_ops(&m2.funcs[0], |o| matches!(o, Op::Move { .. })) >= 2);
}

#[test]
fn atomic_accesses_are_never_triplicated() {
    let mut m = Module::new("t");
    m.add_global("w", 8);
    let g = Operand::GlobalAddr(GlobalId(0));
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    let v = fb.load_atomic(Ty::I64, g);
    fb.store_atomic(Ty::I64, v, g);
    fb.ret(None);
    m.push_func(fb.finish());
    run_tmr_module(&mut m, &TmrConfig::default());
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));
    let f = &m.funcs[0];
    assert_eq!(count_ops(f, |o| matches!(o, Op::Load { atomic: true, .. })), 1);
    assert_eq!(count_ops(f, |o| matches!(o, Op::Load { atomic: false, .. })), 0);
    assert_eq!(count_ops(f, |o| matches!(o, Op::Store { atomic: true, .. })), 1);
}

#[test]
fn params_get_copy_pairs_at_entry() {
    let mut m = Module::new("t");
    let mut fb = FunctionBuilder::new("f", &[Ty::I64, Ty::I64], Some(Ty::I64));
    let a = fb.param(0);
    let b = fb.param(1);
    let s = fb.add(Ty::I64, a, b);
    fb.ret(Some(s.into()));
    m.push_func(fb.finish());
    run_tmr_module(&mut m, &TmrConfig::default());
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));
    let f = &m.funcs[0];
    let entry = &f.blocks[0].insts;
    for (i, iid) in entry.iter().take(4).enumerate() {
        assert!(matches!(f.inst(*iid).op, Op::Move { .. }), "param copy {i}");
        assert!(f.inst(*iid).meta.shadow);
    }
    // The add is triplicated right after the copies.
    assert_eq!(count_ops(f, |o| matches!(o, Op::Bin { .. })), 3);
}

#[test]
fn loops_get_triplicated_phis() {
    let mut m = Module::new("t");
    m.add_global("acc", 8);
    let g = Operand::GlobalAddr(GlobalId(0));
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    fb.counted_loop(fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, 10), |b, i| {
        let cur = b.load(Ty::I64, g);
        let nxt = b.add(Ty::I64, cur, i);
        b.store(Ty::I64, nxt, g);
    });
    fb.ret(None);
    m.push_func(fb.finish());
    let phis_before = count_ops(&m.funcs[0], |o| matches!(o, Op::Phi { .. }));
    run_tmr_module(&mut m, &TmrConfig::default());
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));
    assert_eq!(count_ops(&m.funcs[0], |o| matches!(o, Op::Phi { .. })), 3 * phis_before);
}

#[test]
fn external_functions_are_untouched() {
    let mut m = Module::new("t");
    let mut fb = FunctionBuilder::new("libc_thing", &[Ty::I64], Some(Ty::I64));
    fb.set_external();
    let x = fb.param(0);
    let y = fb.add(Ty::I64, x, fb.iconst(Ty::I64, 1));
    fb.ret(Some(y.into()));
    m.push_func(fb.finish());
    let before = m.funcs[0].clone();
    run_tmr_module(&mut m, &TmrConfig::default());
    assert_eq!(m.funcs[0], before);
}

#[test]
fn vote_elision_drops_tautological_votes() {
    // ret of a call result: the copies are moves created immediately
    // before, so the return-value vote is elided.
    let mut m = Module::new("t");
    let mut id_f = FunctionBuilder::new("id", &[Ty::I64], Some(Ty::I64));
    let x = id_f.param(0);
    id_f.ret(Some(x.into()));
    let id = m.push_func(id_f.finish());
    let mut fb = FunctionBuilder::new("f", &[], Some(Ty::I64));
    let r = fb.call(id, &[Operand::imm(5, Ty::I64)], Some(Ty::I64)).unwrap();
    fb.ret(Some(r.into()));
    m.push_func(fb.finish());

    let mut with = m.clone();
    let votes_with = run_tmr_module(&mut with, &TmrConfig::default());
    let mut without = m;
    let votes_without =
        run_tmr_module(&mut without, &TmrConfig { vote_elision: false, ..TmrConfig::default() });
    verify_module(&with).unwrap_or_else(|e| panic!("{e:?}"));
    verify_module(&without).unwrap_or_else(|e| panic!("{e:?}"));
    assert!(votes_with < votes_without, "elision must drop at least one vote");
}

// --- semantic preservation and masking under the VM -------------------------

fn loopy_module() -> Module {
    let mut m = Module::new("t");
    m.add_global("data", 64 * 8);
    m.add_global("acc", 8);
    let data = Operand::GlobalAddr(GlobalId(0));
    let acc = Operand::GlobalAddr(GlobalId(1));

    let mut init = FunctionBuilder::new("init", &[], None);
    init.set_non_local();
    init.counted_loop(init.iconst(Ty::I64, 0), init.iconst(Ty::I64, 64), |b, i| {
        let cell = b.gep(data, i, 8, 0);
        let v = b.mul(Ty::I64, i, i);
        b.store(Ty::I64, v, cell);
    });
    init.ret(None);
    m.push_func(init.finish());

    let mut fini = FunctionBuilder::new("fini", &[], None);
    fini.set_non_local();
    fini.counted_loop(fini.iconst(Ty::I64, 0), fini.iconst(Ty::I64, 64), |b, i| {
        let cell = b.gep(data, i, 8, 0);
        let v = b.load(Ty::I64, cell);
        let odd = b.bin(haft_ir::inst::BinOp::And, Ty::I64, v, b.iconst(Ty::I64, 1));
        let is_odd = b.cmp(CmpOp::Eq, Ty::I64, odd, b.iconst(Ty::I64, 1));
        b.if_then(is_odd, |b2| {
            let cur = b2.load(Ty::I64, acc);
            let nxt = b2.add(Ty::I64, cur, v);
            b2.store(Ty::I64, nxt, acc);
        });
    });
    let total = fini.load(Ty::I64, acc);
    fini.emit_out(Ty::I64, total);
    fini.ret(None);
    m.push_func(fini.finish());
    m
}

#[test]
fn tmr_preserves_program_semantics() {
    let native = loopy_module();
    let spec = RunSpec { init: Some("init"), fini: Some("fini"), ..Default::default() };
    let base = Vm::run(&native, VmConfig::default(), spec);
    assert_eq!(base.outcome, RunOutcome::Completed);

    for cfg in [TmrConfig::default(), TmrConfig::unoptimized()] {
        assert_lane_isolation(&native, &cfg);
        let mut hardened = native.clone();
        run_tmr_module(&mut hardened, &cfg);
        verify_module(&hardened).unwrap_or_else(|e| panic!("{e:?}"));
        let r = Vm::run(&hardened, VmConfig::default(), spec);
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.output, base.output, "cfg {cfg:?}");
        assert!(r.instructions > 2 * base.instructions, "triplication adds work");
        assert_eq!(r.corrected_by_vote, 0, "fault-free runs never correct");
    }
}

#[test]
fn tmr_masks_most_injected_faults_without_rollback() {
    // Sweep single-bit-flip injections over the dynamic trace: TMR must
    // mask the overwhelming majority in place (corrected_by_vote), with
    // zero transactions and zero HTM rollbacks involved.
    let native = loopy_module();
    let mut hardened = native.clone();
    run_tmr_module(&mut hardened, &TmrConfig::default());
    let spec = RunSpec { init: Some("init"), fini: Some("fini"), ..Default::default() };
    let clean = Vm::run(&hardened, VmConfig::default(), spec);
    assert_eq!(clean.outcome, RunOutcome::Completed);
    let total = clean.register_writes;

    let (mut sdc, mut corrected, mut runs) = (0u32, 0u32, 0u32);
    let mut occ = 0u64;
    let prepared = Prepared::new(&hardened);
    while occ < total {
        let cfg = VmConfig { max_instructions: 10_000_000, ..Default::default() };
        let plan = FaultPlan { occurrence: occ, xor_mask: 0x10 };
        let r = Vm::start(&hardened, &prepared, cfg, spec).fork(plan, false).run_to_end();
        runs += 1;
        assert_eq!(r.htm.commits, 0, "TMR uses no transactions");
        assert_eq!(r.recoveries, 0, "TMR never rolls back");
        if r.outcome == RunOutcome::Completed {
            if r.output != clean.output {
                sdc += 1;
            } else if r.corrected_by_vote > 0 {
                corrected += 1;
            }
        }
        occ += 7; // Sample the trace.
    }
    assert!(runs > 50);
    assert!(corrected > runs / 4, "most faults mask by vote: {corrected}/{runs}");
    let sdc_rate = sdc as f64 / runs as f64;
    assert!(sdc_rate < 0.06, "SDC rate {sdc_rate} too high ({sdc}/{runs})");
}
