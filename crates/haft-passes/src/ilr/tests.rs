//! ILR pass tests: structure of the transformed IR plus semantic
//! preservation and fault-detection behaviour under the VM.

use haft_ir::builder::FunctionBuilder;
use haft_ir::inst::{AbortCode, CmpOp, Op, Operand};
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
/// checks that no shadow clone reads a master operand.
fn assert_lane_isolation(m: &Module, cfg: &IlrConfig) {
    for f in m.funcs.iter().filter(|f| !f.attrs.external) {
        let mut f = Function::clone(f);
        let mut pass = IlrPass::new(cfg);
        pass.run(&mut f);
        pass.lanes.assert_isolated(&f);
    }
}

#[test]
fn replication_creates_shadow_flow_and_verifies() {
    let mut m = simple_module();
    assert_lane_isolation(&m, &IlrConfig::default());
    run_ilr_module(&mut m, &IlrConfig::default());
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));
    let f = &m.funcs[0];
    // The two compute instructions are replicated, the load is duplicated,
    // the store gained a verification re-load, and checks exist.
    assert!(count_shadow(f) >= 4, "shadow insts = {}", count_shadow(f));
    assert!(count_ops(f, |o| matches!(o, Op::TxAbort { code: AbortCode::IlrDetected })) == 1);
    let checks =
        f.blocks.iter().flat_map(|b| &b.insts).filter(|i| f.inst(**i).meta.ilr_check).count();
    assert!(checks >= 2, "checks = {checks}");
}

#[test]
fn shared_mem_opt_duplicates_loads_without_address_checks() {
    let mut m = simple_module();
    run_ilr_module(&mut m, &IlrConfig::default());
    let f = &m.funcs[0];
    // Two regular loads from the original one (master + shadow) plus the
    // store verification re-load.
    assert_eq!(count_ops(f, |o| matches!(o, Op::Load { .. })), 3);
    assert_eq!(count_ops(f, |o| matches!(o, Op::Move { .. })), 0, "no moves needed");
}

#[test]
fn unoptimized_loads_use_move_and_address_check() {
    let mut m = simple_module();
    run_ilr_module(&mut m, &IlrConfig::unoptimized());
    let f = &m.funcs[0];
    // One master load plus no duplicate (shadow via move).
    assert_eq!(count_ops(f, |o| matches!(o, Op::Load { .. })), 1);
    assert!(count_ops(f, |o| matches!(o, Op::Move { .. })) >= 1);
}

#[test]
fn store_checks_flow_in_both_modes() {
    // Optimized: check after the store; unoptimized: checks before.
    for (cfg, loads) in [(IlrConfig::default(), 3), (IlrConfig::unoptimized(), 1)] {
        let mut m = simple_module();
        assert_lane_isolation(&m, &cfg);
        run_ilr_module(&mut m, &cfg);
        verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));
        let f = &m.funcs[0];
        assert_eq!(count_ops(f, |o| matches!(o, Op::Load { .. })), loads);
        assert_eq!(count_ops(f, |o| matches!(o, Op::Store { .. })), 1);
    }
}

#[test]
fn atomic_accesses_are_never_duplicated() {
    let mut m = Module::new("t");
    m.add_global("w", 8);
    let g = Operand::GlobalAddr(GlobalId(0));
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    let v = fb.load_atomic(Ty::I64, g);
    fb.store_atomic(Ty::I64, v, g);
    fb.ret(None);
    m.push_func(fb.finish());
    run_ilr_module(&mut m, &IlrConfig::default());
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));
    let f = &m.funcs[0];
    // Exactly one load (atomic), shadowed by a move; the atomic store is
    // checked before executing.
    assert_eq!(count_ops(f, |o| matches!(o, Op::Load { atomic: true, .. })), 1);
    assert_eq!(count_ops(f, |o| matches!(o, Op::Load { atomic: false, .. })), 0);
    assert!(count_ops(f, |o| matches!(o, Op::Move { .. })) >= 1);
}

#[test]
fn safe_control_flow_adds_shadow_blocks() {
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

    let mut safe = m.clone();
    run_ilr_module(&mut safe, &IlrConfig::default());
    verify_module(&safe).unwrap_or_else(|e| panic!("{e:?}"));
    // Shadow true/false blocks plus detect block.
    assert!(safe.funcs[0].blocks.len() >= blocks_before + 3);
    let cond_brs = count_ops(&safe.funcs[0], |o| matches!(o, Op::CondBr { .. }));
    assert_eq!(cond_brs, 3, "master + two shadow-block branches");

    let mut naive = m;
    run_ilr_module(
        &mut naive,
        &IlrConfig { control_flow_protection: false, ..IlrConfig::default() },
    );
    verify_module(&naive).unwrap_or_else(|e| panic!("{e:?}"));
    // Naive: original branch + one check branch.
    let cond_brs = count_ops(&naive.funcs[0], |o| matches!(o, Op::CondBr { .. }));
    assert_eq!(cond_brs, 2);
}

#[test]
fn params_get_shadow_copies_at_entry() {
    let mut m = Module::new("t");
    let mut fb = FunctionBuilder::new("f", &[Ty::I64, Ty::I64], Some(Ty::I64));
    let a = fb.param(0);
    let b = fb.param(1);
    let s = fb.add(Ty::I64, a, b);
    fb.ret(Some(s.into()));
    m.push_func(fb.finish());
    run_ilr_module(&mut m, &IlrConfig::default());
    let f = &m.funcs[0];
    let entry = &f.blocks[0].insts;
    assert!(matches!(f.inst(entry[0]).op, Op::Move { .. }));
    assert!(matches!(f.inst(entry[1]).op, Op::Move { .. }));
    assert!(f.inst(entry[0]).meta.shadow);
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
    run_ilr_module(&mut m, &IlrConfig::default());
    assert_eq!(m.funcs[0], before);
}

#[test]
fn check_elision_removes_check_after_fresh_copy() {
    // ret of a call result: the shadow is a move created immediately
    // before, so the return-value check is elided.
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
    run_ilr_module(&mut with, &IlrConfig::default());
    let mut without = m;
    run_ilr_module(&mut without, &IlrConfig { check_elision: false, ..IlrConfig::default() });
    let c = |m: &Module| {
        m.funcs[1]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| m.funcs[1].inst(**i).meta.ilr_check)
            .count()
    };
    assert!(c(&with) < c(&without), "elision must drop at least one check");
}

#[test]
fn fprop_check_inserted_for_hoisted_loop_variable() {
    // The paper's Figure 2 pattern: a loop counting in registers with the
    // store hoisted past the loop.
    let mut m = Module::new("t");
    m.add_global("c", 8);
    let g = Operand::GlobalAddr(GlobalId(0));
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    let pre = fb.current_block();
    let header = fb.new_block();
    let exit = fb.new_block();
    fb.br(header);
    fb.switch_to(header);
    let c = fb.phi(Ty::I64);
    fb.phi_incoming(c, fb.iconst(Ty::I64, 123), pre);
    let cn = fb.add(Ty::I64, c, fb.iconst(Ty::I64, 1));
    fb.phi_incoming(c, cn, header);
    let done = fb.cmp(CmpOp::SGe, Ty::I64, cn, fb.iconst(Ty::I64, 1000));
    fb.condbr(done, exit, header);
    fb.switch_to(exit);
    fb.store(Ty::I64, cn, g);
    fb.ret(None);
    m.push_func(fb.finish());

    run_ilr_module(&mut m, &IlrConfig::default());
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));
    let f = &m.funcs[0];
    let fprop =
        f.blocks.iter().flat_map(|b| &b.insts).filter(|i| f.inst(**i).meta.fprop_check).count();
    assert!(fprop >= 2, "cmp + condbr marked fprop, got {fprop}");
}

// --- semantic preservation under the VM -------------------------------------

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
fn ilr_preserves_program_semantics() {
    let native = loopy_module();
    let spec = RunSpec { init: Some("init"), fini: Some("fini"), ..Default::default() };
    let base = Vm::run(&native, VmConfig::default(), spec);
    assert_eq!(base.outcome, RunOutcome::Completed);

    for cfg in [IlrConfig::default(), IlrConfig::unoptimized()] {
        assert_lane_isolation(&native, &cfg);
        let mut hardened = native.clone();
        run_ilr_module(&mut hardened, &cfg);
        verify_module(&hardened).unwrap_or_else(|e| panic!("{e:?}"));
        let r = Vm::run(&hardened, VmConfig::default(), spec);
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.output, base.output, "cfg {cfg:?}");
        assert!(r.instructions > base.instructions, "replication adds work");
    }
}

#[test]
fn ilr_detects_most_injected_faults_that_would_corrupt_output() {
    // Sweep single-bit-flip injections over the whole dynamic trace of the
    // hardened program; ILR (without TX) must convert would-be SDCs into
    // detections. Windows of vulnerability make a few SDCs possible; the
    // paper reports 0.8% for ILR vs. 26.2% native. With this small
    // program we accept anything under 6%.
    let native = loopy_module();
    let mut hardened = native.clone();
    run_ilr_module(&mut hardened, &IlrConfig::default());
    let spec = RunSpec { init: Some("init"), fini: Some("fini"), ..Default::default() };
    let clean = Vm::run(&hardened, VmConfig::default(), spec);
    assert_eq!(clean.outcome, RunOutcome::Completed);
    let total = clean.register_writes;

    let mut sdc = 0u32;
    let mut detected = 0u32;
    let mut runs = 0u32;
    let mut occ = 0u64;
    let prepared = Prepared::new(&hardened);
    while occ < total {
        let cfg = VmConfig { max_instructions: 10_000_000, ..Default::default() };
        let plan = FaultPlan { occurrence: occ, xor_mask: 0x10 };
        let r = Vm::start(&hardened, &prepared, cfg, spec).fork(plan, false).run_to_end();
        runs += 1;
        match r.outcome {
            RunOutcome::Detected => detected += 1,
            RunOutcome::Completed if r.output != clean.output => sdc += 1,
            _ => {}
        }
        occ += 7; // Sample the trace.
    }
    assert!(runs > 50);
    assert!(detected > 0, "some faults must be detected");
    let sdc_rate = sdc as f64 / runs as f64;
    assert!(sdc_rate < 0.06, "SDC rate {sdc_rate} too high ({sdc}/{runs})");
}

#[test]
fn native_program_has_substantial_sdc_rate() {
    // The same sweep on the unhardened program shows why ILR matters.
    let native = loopy_module();
    let spec = RunSpec { init: Some("init"), fini: Some("fini"), ..Default::default() };
    let clean = Vm::run(&native, VmConfig::default(), spec);
    let total = clean.register_writes;
    let mut sdc = 0u32;
    let mut runs = 0u32;
    let mut occ = 0u64;
    let prepared = Prepared::new(&native);
    while occ < total {
        let cfg = VmConfig { max_instructions: 10_000_000, ..Default::default() };
        let plan = FaultPlan { occurrence: occ, xor_mask: 0x10 };
        let r = Vm::start(&native, &prepared, cfg, spec).fork(plan, false).run_to_end();
        runs += 1;
        if r.outcome == RunOutcome::Completed && r.output != clean.output {
            sdc += 1;
        }
        occ += 3;
    }
    assert!(sdc as f64 / runs as f64 > 0.10, "native SDC rate suspiciously low: {sdc}/{runs}");
}
