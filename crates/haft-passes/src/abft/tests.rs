//! ABFT pass tests: chain recognition, instrumented-IR structure,
//! per-function fallback, and semantic preservation plus checksum
//! correction under the VM.

use haft_ir::builder::FunctionBuilder;
use haft_ir::inst::{CmpOp, Op, Operand};
use haft_ir::module::{GlobalId, Module};
use haft_ir::verify::verify_module;
use haft_vm::{FaultPlan, Prepared, RunOutcome, RunSpec, Vm, VmConfig};

use super::*;

fn count_ops(f: &Function, pred: impl Fn(&Op) -> bool) -> usize {
    f.blocks.iter().flat_map(|b| &b.insts).filter(|i| pred(&f.inst(**i).op)).count()
}

/// `fini` reduces `data[]` into a phi-carried register accumulator:
/// the `sx += data[i]` family.
fn reduction_module() -> Module {
    let mut m = Module::new("t");
    m.add_global("data", 64 * 8);
    let data = Operand::GlobalAddr(GlobalId(0));

    let mut init = FunctionBuilder::new("init", &[], None);
    init.set_non_local();
    init.counted_loop(init.iconst(Ty::I64, 0), init.iconst(Ty::I64, 64), |b, i| {
        let cell = b.gep(data, i, 8, 0);
        let v = b.mul(Ty::I64, i, b.iconst(Ty::I64, 3));
        b.store(Ty::I64, v, cell);
    });
    init.ret(None);
    m.push_func(init.finish());

    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    let pre = fb.current_block();
    let header = fb.new_block();
    let body = fb.new_block();
    let exit = fb.new_block();
    fb.br(header);
    fb.switch_to(header);
    let i = fb.phi(Ty::I64);
    fb.phi_incoming(i, fb.iconst(Ty::I64, 0), pre);
    let acc = fb.phi(Ty::I64);
    fb.phi_incoming(acc, fb.iconst(Ty::I64, 0), pre);
    let cond = fb.cmp(CmpOp::SLt, Ty::I64, i, fb.iconst(Ty::I64, 64));
    fb.condbr(cond, body, exit);
    fb.switch_to(body);
    let cell = fb.gep(data, i, 8, 0);
    let v = fb.load(Ty::I64, cell);
    let acc2 = fb.add(Ty::I64, acc, v);
    fb.phi_incoming(acc, acc2, body);
    let next = fb.add(Ty::I64, i, fb.iconst(Ty::I64, 1));
    fb.phi_incoming(i, next, body);
    fb.br(header);
    fb.switch_to(exit);
    fb.emit_out(Ty::I64, acc);
    fb.ret(None);
    m.push_func(fb.finish());
    m
}

/// `fini` updates a memory cell in place: the `acc += f(data[i])` family.
fn memcell_module() -> Module {
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
        let cur = b.load(Ty::I64, acc);
        let nxt = b.add(Ty::I64, cur, v);
        b.store(Ty::I64, nxt, acc);
    });
    let total = fini.load(Ty::I64, acc);
    fini.emit_out(Ty::I64, total);
    fini.ret(None);
    m.push_func(fini.finish());
    m
}

/// Instruments `m`'s covered `fini` again, keeping the lane map: no lane
/// clone of a carrier phi, carrier load or chain slice may read a master
/// (or the other lane's) operand.
fn assert_lane_isolation(m: &Module) {
    let mut f = Function::clone(&m.funcs[1]);
    let plan = find_chains(&f);
    let mut st = Abft::default();
    st.run(&mut f, &plan);
    st.lanes.assert_isolated(&f);
}

#[test]
fn register_accumulation_chain_is_recognized_and_instrumented() {
    let mut m = reduction_module();
    assert_lane_isolation(&m);
    let phis_before = count_ops(&m.funcs[1], |o| matches!(o, Op::Phi { .. }));
    let stats = run_abft_module(&mut m, &AbftConfig::default());
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));
    assert_eq!(stats.functions_covered, 1, "{stats:?}");
    assert_eq!(stats.functions_fallback, 1, "init has no data chain");
    assert_eq!(stats.chains, 1);
    let f = &m.funcs[1];
    // The accumulator phi gains two lane phis; the induction phi carries
    // only a constant stride and is left alone.
    assert_eq!(count_ops(f, |o| matches!(o, Op::Phi { .. })), phis_before + 2);
    // The externalizing emit is guarded by a verify-and-correct.
    assert!(count_ops(f, |o| matches!(o, Op::ChkCorrect { .. })) >= 1);
    // A covered function carries no HAFT machinery of its own.
    assert_eq!(count_ops(f, |o| matches!(o, Op::TxBegin)), 0);
    assert_eq!(count_ops(f, |o| matches!(o, Op::TxAbort { .. })), 0);
}

#[test]
fn memory_cell_chain_triplicates_the_carrier_load() {
    let mut m = memcell_module();
    assert_lane_isolation(&m);
    let stats = run_abft_module(&mut m, &AbftConfig::default());
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));
    assert_eq!(stats.functions_covered, 1, "{stats:?}");
    assert!(stats.chains >= 1);
    let f = &m.funcs[1];
    // The carrier load of the cell chain is re-read once per lane; the
    // chain-closing store is fed by a chk_correct.
    assert!(count_ops(f, |o| matches!(o, Op::Load { .. })) >= 5, "lane re-loads");
    assert!(count_ops(f, |o| matches!(o, Op::ChkCorrect { .. })) >= 1);
    assert_eq!(count_ops(f, |o| matches!(o, Op::TxBegin)), 0);
}

#[test]
fn constant_counters_fall_back_to_full_haft() {
    // A histogram-style counter folds in no external data: nothing for a
    // checksum to protect, so the function takes the HAFT path.
    let mut m = Module::new("t");
    m.add_global("count", 8);
    let g = Operand::GlobalAddr(GlobalId(0));
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    fb.counted_loop(fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, 16), |b, _i| {
        let cur = b.load(Ty::I64, g);
        let nxt = b.add(Ty::I64, cur, b.iconst(Ty::I64, 1));
        b.store(Ty::I64, nxt, g);
    });
    fb.ret(None);
    m.push_func(fb.finish());
    let stats = run_abft_module(&mut m, &AbftConfig::default());
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));
    assert_eq!(stats.functions_covered, 0, "{stats:?}");
    assert_eq!(stats.functions_fallback, 1);
    let f = &m.funcs[0];
    assert!(count_ops(f, |o| matches!(o, Op::TxBegin)) >= 1, "fallback is transactified");
    assert_eq!(count_ops(f, |o| matches!(o, Op::ChkCorrect { .. })), 0);
}

#[test]
fn fallback_heavy_config_demotes_single_chain_functions() {
    let mut m = reduction_module();
    let stats = run_abft_module(&mut m, &AbftConfig::fallback_heavy());
    verify_module(&m).unwrap_or_else(|e| panic!("{e:?}"));
    assert_eq!(stats.functions_covered, 0, "{stats:?}");
    assert_eq!(stats.functions_fallback, 2);
    assert_eq!(count_ops(&m.funcs[1], |o| matches!(o, Op::ChkCorrect { .. })), 0);
    assert!(count_ops(&m.funcs[1], |o| matches!(o, Op::TxBegin)) >= 1);
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
    let stats = run_abft_module(&mut m, &AbftConfig::default());
    assert_eq!(m.funcs[0], before);
    assert_eq!(stats.functions_covered + stats.functions_fallback, 0);
}

// --- semantic preservation and correction under the VM ----------------------

#[test]
fn abft_preserves_program_semantics() {
    for native in [reduction_module(), memcell_module()] {
        let spec = RunSpec { init: Some("init"), fini: Some("fini"), ..Default::default() };
        let base = Vm::run(&native, VmConfig::default(), spec);
        assert_eq!(base.outcome, RunOutcome::Completed);

        for cfg in [AbftConfig::default(), AbftConfig::fallback_heavy()] {
            let mut hardened = native.clone();
            run_abft_module(&mut hardened, &cfg);
            verify_module(&hardened).unwrap_or_else(|e| panic!("{e:?}"));
            let r = Vm::run(&hardened, VmConfig::default(), spec);
            assert_eq!(r.outcome, RunOutcome::Completed);
            assert_eq!(r.output, base.output, "cfg {cfg:?}");
            assert_eq!(r.corrected_by_checksum, 0, "fault-free runs never correct");
            assert_eq!(r.corrected_by_vote, 0);
        }
    }
}

#[test]
fn abft_is_cheaper_than_whole_program_hardening() {
    // The whole point of the backend: protecting only the carried state
    // costs fewer dynamic instructions than duplicating everything.
    let native = memcell_module();
    let spec = RunSpec { init: Some("init"), fini: Some("fini"), ..Default::default() };

    let mut abft = native.clone();
    run_abft_module(&mut abft, &AbftConfig::default());
    let mut haft = native.clone();
    run_ilr_module_for_test(&mut haft);

    let ra = Vm::run(&abft, VmConfig::default(), spec);
    let rh = Vm::run(&haft, VmConfig::default(), spec);
    assert_eq!(ra.outcome, RunOutcome::Completed);
    assert_eq!(rh.outcome, RunOutcome::Completed);
    // `init` falls back to full HAFT under ABFT too, so restrict the
    // comparison to total dynamic work: the covered `fini` dominates.
    assert!(
        ra.instructions < rh.instructions,
        "abft {} >= haft {}",
        ra.instructions,
        rh.instructions
    );
}

fn run_ilr_module_for_test(m: &mut Module) {
    crate::ilr::run_ilr_module(m, &IlrConfig::default());
    crate::tx::run_tx_module(m, &TxConfig::default());
}

#[test]
fn single_lane_divergence_is_corrected_with_clean_output() {
    // Sweep single-bit-flip injections over the dynamic trace of the
    // hardened module. Every run the checksum classifies as corrected
    // must produce bit-clean output — the acceptance bar for the
    // `ChecksumCorrected` outcome.
    let native = memcell_module();
    let mut hardened = native.clone();
    run_abft_module(&mut hardened, &AbftConfig::default());
    let spec = RunSpec { init: Some("init"), fini: Some("fini"), ..Default::default() };
    let clean = Vm::run(&hardened, VmConfig::default(), spec);
    assert_eq!(clean.outcome, RunOutcome::Completed);
    let total = clean.register_writes;

    let (mut corrected, mut runs) = (0u32, 0u32);
    let mut occ = 0u64;
    let prepared = Prepared::new(&hardened);
    while occ < total {
        let cfg = VmConfig { max_instructions: 10_000_000, ..Default::default() };
        let plan = FaultPlan { occurrence: occ, xor_mask: 0x10 };
        let r = Vm::start(&hardened, &prepared, cfg, spec).fork(plan, false).run_to_end();
        runs += 1;
        if r.corrected_by_checksum > 0 && r.outcome == RunOutcome::Completed {
            corrected += 1;
            assert_eq!(
                r.output, clean.output,
                "checksum-corrected run diverged at occurrence {occ}"
            );
        }
        occ += 7; // Sample the trace.
    }
    assert!(runs > 50, "sweep too small: {runs}");
    assert!(corrected > 0, "no fault was ever checksum-corrected");
}
