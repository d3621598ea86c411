//! VM unit tests: interpreter semantics, HAFT runtime, cost model.

use haft_ir::builder::FunctionBuilder;
use haft_ir::inst::{BinOp, CmpOp, Op, Operand, RmwOp};
use haft_ir::module::{GlobalId, Module};
use haft_ir::types::Ty;
use haft_ir::verify::verify_module;

use super::*;

fn run(m: &Module, cfg: VmConfig, spec: RunSpec<'_>) -> RunResult {
    verify_module(m).expect("test module verifies");
    Vm::run(m, cfg, spec)
}

/// [`run`] with `fault` armed from op 0 — the fork of a fresh VM — and
/// its taint recorded when `forensics` is set.
fn run_with(
    m: &Module,
    cfg: VmConfig,
    spec: RunSpec<'_>,
    fault: Option<FaultPlan>,
    forensics: bool,
) -> RunResult {
    verify_module(m).expect("test module verifies");
    let prepared = Prepared::new(m);
    let vm = Vm::start(m, &prepared, cfg, spec);
    match fault {
        Some(plan) => vm.fork(plan, forensics).run_to_end(),
        None => vm.run_to_end(),
    }
}

fn run_fini(m: &Module) -> RunResult {
    run(m, VmConfig::default(), RunSpec { fini: Some("fini"), ..Default::default() })
}

/// Builds a module with a single no-arg `fini` function.
fn fini_module(build: impl FnOnce(&mut FunctionBuilder)) -> Module {
    let mut m = Module::new("t");
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    build(&mut fb);
    m.push_func(fb.finish());
    m
}

#[test]
fn arithmetic_and_emit() {
    let m = fini_module(|fb| {
        let a = fb.add(Ty::I64, fb.iconst(Ty::I64, 40), fb.iconst(Ty::I64, 2));
        let b = fb.mul(Ty::I64, a, fb.iconst(Ty::I64, 10));
        let c = fb.bin(BinOp::Sub, Ty::I64, b, fb.iconst(Ty::I64, 20));
        fb.emit_out(Ty::I64, c);
        fb.ret(None);
    });
    let r = run_fini(&m);
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.output, vec![400]);
    assert!(r.instructions > 0 && r.wall_cycles > 0);
}

#[test]
fn signed_ops_on_narrow_types() {
    let m = fini_module(|fb| {
        // -1 as i8 is 0xff; ashr keeps the sign.
        let neg = fb.bin(BinOp::Sub, Ty::I8, fb.iconst(Ty::I8, 0), fb.iconst(Ty::I8, 1));
        let shifted = fb.bin(BinOp::AShr, Ty::I8, neg, fb.iconst(Ty::I8, 3));
        let wide = fb.cast(CastKind::SExt, Ty::I64, shifted);
        fb.emit_out(Ty::I64, wide);
        // sdiv rounds toward zero: -7 / 2 = -3.
        let a = fb.iconst(Ty::I64, -7);
        let q = fb.bin(BinOp::SDiv, Ty::I64, a, fb.iconst(Ty::I64, 2));
        fb.emit_out(Ty::I64, q);
        fb.ret(None);
    });
    let r = run_fini(&m);
    assert_eq!(r.output, vec![(-1i64) as u64, (-3i64) as u64]);
}

#[test]
fn float_math() {
    let m = fini_module(|fb| {
        let x = fb.bin(BinOp::FMul, Ty::F64, fb.fconst(1.5), fb.fconst(4.0));
        let y = fb.un(haft_ir::inst::UnOp::FSqrt, Ty::F64, fb.fconst(81.0));
        let z = fb.bin(BinOp::FAdd, Ty::F64, x, y);
        let out = fb.cast(CastKind::FpToSi, Ty::I64, z);
        fb.emit_out(Ty::I64, out);
        fb.ret(None);
    });
    let r = run_fini(&m);
    assert_eq!(r.output, vec![15]); // 6 + 9.
}

/// `fini` sums `0..iterations` into a global, read back and stored each
/// iteration, and emits the total: a run whose state lives in memory.
fn global_sum(iterations: i64) -> Module {
    let mut m = Module::new("t");
    m.add_global("acc", 8);
    let g = Operand::GlobalAddr(GlobalId(0));
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    fb.counted_loop(fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, iterations), |b, i| {
        let cur = b.load(Ty::I64, g);
        let nxt = b.add(Ty::I64, cur, i);
        b.store(Ty::I64, nxt, g);
    });
    let total = fb.load(Ty::I64, g);
    fb.emit_out(Ty::I64, total);
    fb.ret(None);
    m.push_func(fb.finish());
    m
}

#[test]
fn loop_sum_via_global() {
    let r = run_fini(&global_sum(100));
    assert_eq!(r.output, vec![4950]);
}

#[test]
fn calls_and_recursion() {
    let mut m = Module::new("t");
    // fact(n) = n <= 1 ? 1 : n * fact(n - 1).
    let mut fb = FunctionBuilder::new("fact", &[Ty::I64], Some(Ty::I64));
    let n = fb.param(0);
    let is_base = fb.cmp(CmpOp::SLe, Ty::I64, n, fb.iconst(Ty::I64, 1));
    let rec_blk = fb.new_block();
    let base_blk = fb.new_block();
    fb.condbr(is_base, base_blk, rec_blk);
    fb.switch_to(base_blk);
    fb.ret(Some(fb.iconst(Ty::I64, 1)));
    fb.switch_to(rec_blk);
    let nm1 = fb.sub(Ty::I64, n, fb.iconst(Ty::I64, 1));
    let sub = fb.call(haft_ir::module::FuncId(0), &[nm1.into()], Some(Ty::I64)).unwrap();
    let prod = fb.mul(Ty::I64, n, sub);
    fb.ret(Some(prod.into()));
    m.push_func(fb.finish());

    let mut main = FunctionBuilder::new("fini", &[], None);
    main.set_non_local();
    let v = main.call(haft_ir::module::FuncId(0), &[Operand::imm(10, Ty::I64)], Some(Ty::I64));
    main.emit_out(Ty::I64, v.unwrap());
    main.ret(None);
    m.push_func(main.finish());
    let r = run_fini(&m);
    assert_eq!(r.output, vec![3628800]);
}

#[test]
fn indirect_calls_resolve_function_addresses() {
    let mut m = Module::new("t");
    let mut sq = FunctionBuilder::new("sq", &[Ty::I64], Some(Ty::I64));
    let x = sq.param(0);
    let v = sq.mul(Ty::I64, x, x);
    sq.ret(Some(v.into()));
    let sq_id = m.push_func(sq.finish());

    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    let fp = fb.mov(Ty::Ptr, Operand::FuncAddr(sq_id));
    let r = fb.call_indirect(fp, &[Operand::imm(9, Ty::I64)], Some(Ty::I64)).unwrap();
    fb.emit_out(Ty::I64, r);
    fb.ret(None);
    m.push_func(fb.finish());
    let r = run_fini(&m);
    assert_eq!(r.output, vec![81]);
}

#[test]
fn bad_indirect_call_traps() {
    let m = fini_module(|fb| {
        let junk = fb.mov(Ty::Ptr, fb.iconst(Ty::Ptr, 12345));
        fb.call_indirect(junk, &[], None);
        fb.ret(None);
    });
    let r = run_fini(&m);
    assert!(matches!(r.outcome, RunOutcome::Trapped(Trap::BadIndirectCall { .. })));
}

#[test]
fn out_of_bounds_traps() {
    let m = fini_module(|fb| {
        fb.load(Ty::I64, fb.iconst(Ty::Ptr, 0));
        fb.ret(None);
    });
    let r = run_fini(&m);
    assert!(matches!(r.outcome, RunOutcome::Trapped(Trap::OutOfBounds { .. })));
}

#[test]
fn div_by_zero_traps() {
    let m = fini_module(|fb| {
        let z = fb.mov(Ty::I64, fb.iconst(Ty::I64, 0));
        fb.bin(BinOp::SDiv, Ty::I64, fb.iconst(Ty::I64, 7), z);
        fb.ret(None);
    });
    let r = run_fini(&m);
    assert_eq!(r.outcome, RunOutcome::Trapped(Trap::DivByZero));
}

#[test]
fn infinite_loop_hangs() {
    let m = fini_module(|fb| {
        let l = fb.new_block();
        fb.br(l);
        fb.switch_to(l);
        fb.br(l);
    });
    let cfg = VmConfig { max_instructions: 10_000, ..Default::default() };
    let r = run(&m, cfg, RunSpec { fini: Some("fini"), ..Default::default() });
    assert_eq!(r.outcome, RunOutcome::Hang);
}

#[test]
fn parallel_workers_partition_work() {
    let mut m = Module::new("t");
    m.add_global("cells", 16 * 8);
    let g = Operand::GlobalAddr(GlobalId(0));
    // worker(tid, n): cells[tid] = tid * 100.
    let mut w = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
    w.set_non_local();
    let tid = w.param(0);
    let cell = w.gep(g, tid, 8, 0);
    let val = w.mul(Ty::I64, tid, w.iconst(Ty::I64, 100));
    w.store(Ty::I64, val, cell);
    w.ret(None);
    m.push_func(w.finish());
    // fini: emit sum of cells.
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    let n = fb.num_threads();
    let acc = fb.alloc(fb.iconst(Ty::I64, 8));
    fb.store(Ty::I64, fb.iconst(Ty::I64, 0), acc);
    fb.counted_loop(fb.iconst(Ty::I64, 0), n, |b, i| {
        let cell = b.gep(g, i, 8, 0);
        let v = b.load(Ty::I64, cell);
        let cur = b.load(Ty::I64, acc);
        let nxt = b.add(Ty::I64, cur, v);
        b.store(Ty::I64, nxt, acc);
    });
    let total = fb.load(Ty::I64, acc);
    fb.emit_out(Ty::I64, total);
    fb.ret(None);
    m.push_func(fb.finish());

    let cfg = VmConfig { n_threads: 4, ..Default::default() };
    let r =
        run(&m, cfg, RunSpec { worker: Some("worker"), fini: Some("fini"), ..Default::default() });
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.output, vec![600]); // 0+100+200+300.
}

#[test]
fn locks_serialize_shared_counter() {
    let mut m = Module::new("t");
    m.add_global("lock", 8);
    m.add_global("counter", 8);
    let lock = Operand::GlobalAddr(GlobalId(0));
    let ctr = Operand::GlobalAddr(GlobalId(1));
    let mut w = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
    w.set_non_local();
    w.counted_loop(w.iconst(Ty::I64, 0), w.iconst(Ty::I64, 50), |b, _| {
        b.lock(lock);
        let v = b.load(Ty::I64, ctr);
        let nv = b.add(Ty::I64, v, b.iconst(Ty::I64, 1));
        b.store(Ty::I64, nv, ctr);
        b.unlock(lock);
    });
    w.ret(None);
    m.push_func(w.finish());
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    let v = fb.load(Ty::I64, ctr);
    fb.emit_out(Ty::I64, v);
    fb.ret(None);
    m.push_func(fb.finish());

    let cfg = VmConfig { n_threads: 4, quantum: 7, ..Default::default() };
    let r =
        run(&m, cfg, RunSpec { worker: Some("worker"), fini: Some("fini"), ..Default::default() });
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.output, vec![200]);
}

#[test]
fn atomic_rmw_is_scheduler_safe() {
    let mut m = Module::new("t");
    m.add_global("counter", 8);
    let ctr = Operand::GlobalAddr(GlobalId(0));
    let mut w = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
    w.set_non_local();
    w.counted_loop(w.iconst(Ty::I64, 0), w.iconst(Ty::I64, 100), |b, _| {
        b.rmw(RmwOp::Add, Ty::I64, ctr, b.iconst(Ty::I64, 1));
    });
    w.ret(None);
    m.push_func(w.finish());
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    let v = fb.load(Ty::I64, ctr);
    fb.emit_out(Ty::I64, v);
    fb.ret(None);
    m.push_func(fb.finish());
    let cfg = VmConfig { n_threads: 3, quantum: 5, ..Default::default() };
    let r =
        run(&m, cfg, RunSpec { worker: Some("worker"), fini: Some("fini"), ..Default::default() });
    assert_eq!(r.output, vec![300]);
}

#[test]
fn transactions_commit_buffered_writes() {
    let mut m = Module::new("t");
    m.add_global("x", 8);
    let g = Operand::GlobalAddr(GlobalId(0));
    let m2 = {
        let mut fb = FunctionBuilder::new("fini", &[], None);
        fb.set_non_local();
        fb.emit_op(Op::TxBegin);
        fb.store(Ty::I64, fb.iconst(Ty::I64, 7), g);
        // Read-your-writes inside the transaction.
        let v = fb.load(Ty::I64, g);
        fb.emit_op(Op::TxEnd);
        fb.emit_out(Ty::I64, v);
        let after = fb.load(Ty::I64, g);
        fb.emit_out(Ty::I64, after);
        fb.ret(None);
        m.push_func(fb.finish());
        m
    };
    let r = run_fini(&m2);
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.output, vec![7, 7]);
    assert_eq!(r.htm.commits, 1);
    assert_eq!(r.htm.started, 1);
}

#[test]
fn explicit_abort_retries_then_falls_back_to_failstop() {
    // tx_begin; tx_abort  -- deterministic abort storm: 1 try + 3 retries,
    // then fallback executes the abort non-transactionally -> Detected.
    let m = fini_module(|fb| {
        fb.emit_op(Op::TxBegin);
        fb.emit_op(Op::TxAbort { code: haft_ir::inst::AbortCode::Explicit });
    });
    let r = run_fini(&m);
    assert_eq!(r.outcome, RunOutcome::Detected);
    assert_eq!(r.htm.started, 4, "1 attempt + 3 retries");
    assert_eq!(r.htm.aborts[&haft_htm::AbortCause::Explicit], 4);
    assert_eq!(r.htm.fallbacks, 1);
}

#[test]
fn ilr_abort_in_tx_counts_as_recovery_attempt() {
    let m = fini_module(|fb| {
        fb.emit_op(Op::TxBegin);
        fb.emit_op(Op::TxAbort { code: haft_ir::inst::AbortCode::IlrDetected });
    });
    let r = run_fini(&m);
    // Deterministic divergence is re-detected each retry; final fallback
    // execution hits the check outside a transaction: fail-stop.
    assert_eq!(r.outcome, RunOutcome::Detected);
    assert_eq!(r.detections, 5, "4 transactional + 1 fallback");
    assert_eq!(r.recoveries, 4);
}

#[test]
fn emit_inside_tx_aborts_then_executes_in_fallback() {
    let m = fini_module(|fb| {
        fb.emit_op(Op::TxBegin);
        fb.emit_out(Ty::I64, fb.iconst(Ty::I64, 42));
        fb.emit_op(Op::TxEnd);
        fb.ret(None);
    });
    let r = run_fini(&m);
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.output, vec![42]);
    assert_eq!(r.htm.fallbacks, 1);
    assert!(r.htm.aborts[&haft_htm::AbortCause::Unfriendly] >= 1);
}

#[test]
fn cond_split_splits_long_transactions() {
    let mut m = Module::new("t");
    m.add_global("acc", 8);
    let g = Operand::GlobalAddr(GlobalId(0));
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    fb.emit_op(Op::TxBegin);
    fb.counted_loop(fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, 200), |b, i| {
        b.emit_op(Op::TxCondSplit);
        let cur = b.load(Ty::I64, g);
        let nxt = b.add(Ty::I64, cur, i);
        b.store(Ty::I64, nxt, g);
        b.emit_op(Op::TxCounterInc { amount: 10 });
    });
    fb.emit_op(Op::TxEnd);
    let v = fb.load(Ty::I64, g);
    fb.emit_out(Ty::I64, v);
    fb.ret(None);
    m.push_func(fb.finish());

    let cfg = VmConfig { tx_threshold: 100, ..Default::default() };
    let r = run(&m, cfg, RunSpec { fini: Some("fini"), ..Default::default() });
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.output, vec![19900]);
    // 200 iterations * 10 per iteration / threshold 100 => ~20 splits.
    assert!(r.htm.commits >= 15, "commits = {}", r.htm.commits);
}

#[test]
fn lock_elision_keeps_critical_section_transactional() {
    let mut m = Module::new("t");
    m.add_global("lock", 8);
    m.add_global("x", 8);
    let lock = Operand::GlobalAddr(GlobalId(0));
    let g = Operand::GlobalAddr(GlobalId(1));
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    fb.emit_op(Op::TxBegin);
    fb.lock(lock);
    let v = fb.load(Ty::I64, g);
    let nv = fb.add(Ty::I64, v, fb.iconst(Ty::I64, 5));
    fb.store(Ty::I64, nv, g);
    fb.unlock(lock);
    fb.emit_op(Op::TxEnd);
    let out = fb.load(Ty::I64, g);
    fb.emit_out(Ty::I64, out);
    fb.ret(None);
    m.push_func(fb.finish());

    let cfg = VmConfig { lock_elision: true, ..Default::default() };
    let r = run(&m, cfg, RunSpec { fini: Some("fini"), ..Default::default() });
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.output, vec![5]);
    assert_eq!(r.htm.commits, 1, "elided section commits with enclosing tx");
    assert_eq!(r.htm.total_aborts(), 0);
}

/// A split that comes due while a lock is elided waits for the unlock:
/// committing inside the critical section would drop the elision record
/// and make the unlock an unfriendly instruction. Both engines.
#[test]
fn cond_split_waits_while_a_lock_is_elided() {
    let mut m = Module::new("t");
    m.add_global("lock", 8);
    m.add_global("x", 8);
    let lock = Operand::GlobalAddr(GlobalId(0));
    let g = Operand::GlobalAddr(GlobalId(1));
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    fb.emit_op(Op::TxBegin);
    fb.lock(lock);
    fb.emit_op(Op::TxCounterInc { amount: 500 });
    fb.emit_op(Op::TxCondSplit);
    fb.store(Ty::I64, fb.iconst(Ty::I64, 5), g);
    fb.unlock(lock);
    fb.emit_op(Op::TxCondSplit);
    fb.emit_op(Op::TxEnd);
    fb.ret(None);
    m.push_func(fb.finish());

    for engine in [Engine::Interp, Engine::Fused] {
        let cfg = VmConfig { lock_elision: true, tx_threshold: 100, engine, ..Default::default() };
        let r = run(&m, cfg, RunSpec { fini: Some("fini"), ..Default::default() });
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.htm.total_aborts(), 0, "{engine:?}: the unlock found its elision record");
        assert_eq!(r.htm.commits, 2, "{engine:?}: one split, after the unlock, and the end");
    }
}

#[test]
fn fault_injection_corrupts_exactly_one_register() {
    let build = |fault: Option<FaultPlan>| {
        let m = fini_module(|fb| {
            let a = fb.add(Ty::I64, fb.iconst(Ty::I64, 1), fb.iconst(Ty::I64, 2));
            let b = fb.mul(Ty::I64, a, fb.iconst(Ty::I64, 10));
            fb.emit_out(Ty::I64, b);
            fb.ret(None);
        });
        let spec = RunSpec { fini: Some("fini"), ..Default::default() };
        run_with(&m, VmConfig::default(), spec, fault, false)
    };
    let clean = build(None);
    assert_eq!(clean.output, vec![30]);
    assert_eq!(clean.register_writes, 2);

    // Corrupt the first register write (a = 3 -> 3 ^ 1 = 2): b = 20.
    let faulty = build(Some(FaultPlan { occurrence: 0, xor_mask: 1 }));
    assert_eq!(faulty.output, vec![20]);

    // Corrupt the second (b = 30 -> 30 ^ 4 = 26).
    let faulty2 = build(Some(FaultPlan { occurrence: 1, xor_mask: 4 }));
    assert_eq!(faulty2.output, vec![26]);
}

/// A fork taken after its occurrence would run fault-free and read as
/// "masked": refused, for both engines. So is a fork of a fork, whose
/// plan would silently replace the one already armed.
#[test]
fn fork_past_its_occurrence_is_refused() {
    let m = fini_module(|fb| {
        fb.counted_loop(fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, 50), |b, i| {
            b.add(Ty::I64, i, i);
        });
        fb.ret(None);
    });
    let spec = RunSpec { fini: Some("fini"), ..Default::default() };
    for engine in [Engine::Interp, Engine::Fused] {
        let cfg = VmConfig { engine, ..Default::default() };
        let prepared = Prepared::new(&m);
        let mut pilot = Vm::start(&m, &prepared, cfg, spec);
        pilot.advance_to(40);
        let at = pilot.register_writes();
        assert!((30..=40).contains(&at), "{engine:?}: paused at {at}");
        let late = FaultPlan { occurrence: at - 1, xor_mask: 1 };
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pilot.fork(late, false);
        }))
        .expect_err("forked past the occurrence");
        let msg = refused.downcast_ref::<String>().map_or("", |s| s.as_str());
        assert!(msg.contains("past the planned occurrence"), "{engine:?}: {msg}");
        let plan = FaultPlan { occurrence: at, xor_mask: 1 };
        let fork = pilot.fork(plan, false);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fork.fork(plan, false);
        }));
        assert!(refused.is_err(), "{engine:?}: forked a fork");
        // At the occurrence itself the flip is still ahead.
        let r = pilot.fork(plan, true).run_to_end();
        assert_eq!(r.forensics.expect("the flip fired").site.occurrence, at);
    }
}

/// The check the ILR pass places on `a`, the transaction's end and the
/// output: `a` must be 3, and where it is not, `code` aborts (inside a
/// transaction a rollback; in fallback mode an ILR code fail-stops).
fn check_and_commit(fb: &mut FunctionBuilder, a: ValueId, code: haft_ir::inst::AbortCode) {
    let (bad, good) = (fb.new_block(), fb.new_block());
    let diverged = fb.cmp(CmpOp::Ne, Ty::I64, a, fb.iconst(Ty::I64, 3));
    fb.condbr(diverged, bad, good);
    fb.switch_to(bad);
    fb.emit_op(Op::TxAbort { code });
    fb.switch_to(good);
    fb.emit_op(Op::TxEnd);
    fb.emit_out(Ty::I64, a);
    fb.ret(None);
}

/// Forks `m`'s `fini` just short of register write `occurrence` and runs
/// the fork with a one-bit flip there both ways: to its end, and to
/// settlement with the campaign driver's reserve (the clean run's
/// instruction count), with forensics as `forensics` says. Both engines
/// must agree on both.
fn fork_both_ways(
    m: &Module,
    cfg: VmConfig,
    occurrence: u64,
    forensics: bool,
) -> (RunResult, ForkEnd) {
    verify_module(m).expect("test module verifies");
    let spec = RunSpec { fini: Some("fini"), ..Default::default() };
    let plan = FaultPlan { occurrence, xor_mask: 1 };
    let both = [Engine::Interp, Engine::Fused].map(|engine| {
        let cfg = VmConfig { engine, ..cfg.clone() };
        let clean = Vm::run(m, cfg.clone(), spec);
        let prepared = Prepared::new(m);
        let mut pilot = Vm::start(m, &prepared, cfg, spec);
        pilot.advance_to(occurrence);
        let ended = pilot.fork(plan, forensics).run_to_end();
        (ended, pilot.fork(plan, forensics).run_to_settlement(clean.instructions))
    });
    let [interp, fused] = both;
    assert_eq!(interp, fused, "engines disagree");
    fused
}

/// The settling case the refusals below depart from: a flip inside a
/// transaction that the check then rolls back. The fork settles with the
/// counters its end has, and no record (forensics off).
#[test]
fn a_rollback_that_erases_the_flip_settles_the_fork() {
    let m = fini_module(|fb| {
        fb.emit_op(Op::TxBegin);
        let a = fb.add(Ty::I64, fb.iconst(Ty::I64, 1), fb.iconst(Ty::I64, 2));
        fb.add(Ty::I64, a, fb.iconst(Ty::I64, 1));
        check_and_commit(fb, a, haft_ir::inst::AbortCode::IlrDetected);
    });
    let (ended, fork) = fork_both_ways(&m, VmConfig::default(), 0, false);
    assert_eq!(
        (ended.outcome, &ended.output[..], ended.recoveries),
        (RunOutcome::Completed, &[3][..], 1)
    );
    let settled = Settlement {
        recoveries: 1,
        corrected_by_vote: 0,
        corrected_by_checksum: 0,
        drained: false,
        forensics: None,
    };
    assert_eq!(fork, ForkEnd::Settled(settled.clone()));
    // A flip of the dead `add` aborts nothing; nothing reads it, so its
    // taint drains where it lands.
    let (ended, fork) = fork_both_ways(&m, VmConfig::default(), 1, false);
    assert_eq!((ended.outcome, ended.recoveries), (RunOutcome::Completed, 0));
    assert_eq!(fork, ForkEnd::Settled(Settlement { recoveries: 0, drained: true, ..settled }));
}

/// Refused: a flip outside any transaction, and one in fallback mode
/// (retries exhausted, running non-transactionally). Every later abort
/// belongs to an attempt that began after the flip, and cannot undo it.
#[test]
fn a_flip_outside_a_transaction_or_in_fallback_does_not_settle() {
    use haft_ir::inst::AbortCode;
    let outside = fini_module(|fb| {
        let x = fb.add(Ty::I64, fb.iconst(Ty::I64, 1), fb.iconst(Ty::I64, 2));
        fb.emit_op(Op::TxBegin);
        let a = fb.add(Ty::I64, x, fb.iconst(Ty::I64, 0));
        check_and_commit(fb, a, AbortCode::IlrDetected);
    });
    // An `emit` aborts every attempt of the first transaction, so its
    // `add` runs in fallback mode; the second transaction checks it.
    let fallback = fini_module(|fb| {
        fb.emit_op(Op::TxBegin);
        fb.emit_out(Ty::I64, fb.iconst(Ty::I64, 7));
        let a = fb.add(Ty::I64, fb.iconst(Ty::I64, 1), fb.iconst(Ty::I64, 2));
        fb.emit_op(Op::TxEnd);
        fb.emit_op(Op::TxBegin);
        check_and_commit(fb, a, AbortCode::IlrDetected);
    });
    for m in [&outside, &fallback] {
        let (ended, fork) = fork_both_ways(m, VmConfig::default(), 0, false);
        assert_eq!((ended.outcome, ended.recoveries), (RunOutcome::Detected, 4));
        assert_eq!(fork, ForkEnd::Ended(Box::new(ended)));
    }
    // The same flip one write later, inside the first program's
    // transaction, settles.
    let (_, fork) = fork_both_ways(&outside, VmConfig::default(), 1, false);
    assert!(matches!(fork, ForkEnd::Settled(_)));
}

/// Refused: a flip in a transaction that committed before a later one
/// aborted. The commit made the corruption architectural.
#[test]
fn a_flip_in_a_committed_transaction_does_not_settle() {
    let m = fini_module(|fb| {
        fb.emit_op(Op::TxBegin);
        let a = fb.add(Ty::I64, fb.iconst(Ty::I64, 1), fb.iconst(Ty::I64, 2));
        fb.emit_op(Op::TxEnd);
        fb.emit_op(Op::TxBegin);
        check_and_commit(fb, a, haft_ir::inst::AbortCode::IlrDetected);
    });
    let (ended, fork) = fork_both_ways(&m, VmConfig::default(), 0, false);
    assert_eq!((ended.outcome, ended.recoveries), (RunOutcome::Detected, 4));
    assert_eq!(fork, ForkEnd::Ended(Box::new(ended)));
}

/// Refused: an allocation in the aborted attempt, after the flip or
/// before it. A rollback does not move the heap pointer back, so the
/// retry allocates elsewhere than the reference run did.
#[test]
fn an_allocation_in_the_aborted_attempt_does_not_settle() {
    for alloc_first in [false, true] {
        let m = fini_module(|fb| {
            fb.emit_op(Op::TxBegin);
            if alloc_first {
                fb.alloc(fb.iconst(Ty::I64, 64));
            }
            let a = fb.add(Ty::I64, fb.iconst(Ty::I64, 1), fb.iconst(Ty::I64, 2));
            if !alloc_first {
                fb.alloc(fb.iconst(Ty::I64, 64));
            }
            check_and_commit(fb, a, haft_ir::inst::AbortCode::IlrDetected);
        });
        let flip = alloc_first as u64;
        let (ended, fork) = fork_both_ways(&m, VmConfig::default(), flip, false);
        assert_eq!((ended.outcome, ended.recoveries), (RunOutcome::Completed, 1));
        assert_eq!(fork, ForkEnd::Ended(Box::new(ended)), "alloc first: {alloc_first}");
    }
}

/// Refused: a forensics taint window still open after the rollback. A
/// flip that decides a branch sets the sticky tainted-control flag, which
/// the rollback does not clear; an explicit abort detects nothing, so the
/// window stays open and the record is only known at the end. Without
/// forensics the same fork settles, with the same outcome.
#[test]
fn an_open_forensics_window_does_not_settle() {
    let m = fini_module(|fb| {
        fb.emit_op(Op::TxBegin);
        let a = fb.add(Ty::I64, fb.iconst(Ty::I64, 1), fb.iconst(Ty::I64, 2));
        check_and_commit(fb, a, haft_ir::inst::AbortCode::Explicit);
    });
    let (ended, fork) = fork_both_ways(&m, VmConfig::default(), 0, true);
    assert_eq!(
        (ended.outcome, &ended.output[..], ended.recoveries),
        (RunOutcome::Completed, &[3][..], 0)
    );
    let record = ended.forensics.as_ref().expect("the flip fired");
    assert_eq!(record.detector, FaultDetector::Escaped, "tainted control outlived the rollback");
    assert_eq!(fork, ForkEnd::Ended(Box::new(ended)));
    let (_, fork) = fork_both_ways(&m, VmConfig::default(), 0, false);
    let ForkEnd::Settled(settled) = fork else { panic!("without forensics it settles") };
    assert_eq!((settled.recoveries, settled.forensics), (0, None));
}

/// Refused: a budget too small to rule out a hang. The rule: an abort
/// settles only with at least the reserve — the reference run's
/// instruction count, as campaigns pass it — left of the budget, so a
/// hang would need the rest of the fork to take more instructions than
/// the whole reference run. Here the budget is the reference run's plus
/// two: the fork's retry needs more, and it does hang.
#[test]
fn a_budget_short_of_the_reserve_does_not_settle() {
    let m = fini_module(|fb| {
        fb.emit_op(Op::TxBegin);
        let a = fb.add(Ty::I64, fb.iconst(Ty::I64, 1), fb.iconst(Ty::I64, 2));
        check_and_commit(fb, a, haft_ir::inst::AbortCode::IlrDetected);
    });
    let spec = RunSpec { fini: Some("fini"), ..Default::default() };
    let clean = run(&m, VmConfig::default(), spec);
    let tight = VmConfig { max_instructions: clean.instructions + 2, ..Default::default() };
    assert_eq!(run(&m, tight.clone(), spec), clean, "the budget suffices without the flip");
    let (ended, fork) = fork_both_ways(&m, tight, 0, false);
    assert_eq!(ended.outcome, RunOutcome::Hang);
    assert_eq!(fork, ForkEnd::Ended(Box::new(ended)));
}

/// A TMR-style loop: each of three iterations computes `i + 1` in three
/// copies, votes, and emits the vote. Register write 1 is the first copy
/// in the first iteration (write 0 is the entry edge's phi move): a flip
/// there is outvoted, and the copy is rewritten, clean, one iteration on.
fn tmr_loop() -> Module {
    fini_module(|fb| {
        let (pre, body, exit) = (fb.current_block(), fb.new_block(), fb.new_block());
        fb.br(body);
        fb.switch_to(body);
        let i = fb.phi(Ty::I64);
        fb.phi_incoming(i, fb.iconst(Ty::I64, 0), pre);
        let [a, b, c] = [(); 3].map(|_| fb.add(Ty::I64, i, fb.iconst(Ty::I64, 1)));
        let v =
            fb.emit_op(Op::Vote { ty: Ty::I64, a: a.into(), b: b.into(), c: c.into() }).unwrap();
        fb.emit_out(Ty::I64, v);
        let next = fb.add(Ty::I64, i, fb.iconst(Ty::I64, 1));
        let more = fb.cmp(CmpOp::SLt, Ty::I64, next, fb.iconst(Ty::I64, 3));
        fb.phi_incoming(i, next, body);
        fb.condbr(more, body, exit);
        fb.switch_to(exit);
        fb.ret(None);
    })
}

/// A module with a 16-byte global `buf`, a no-argument `leaf` whose body
/// `leaf` builds (given `buf`), and a `fini` that calls it and then runs
/// `after`. Register write 0 is the first one `leaf` makes. Its `Ret`
/// drops the taint of every register it wrote, so a flip that went no
/// further drains there, before `after` runs.
fn leaf_module(
    leaf: impl FnOnce(&mut FunctionBuilder, Operand),
    after: impl FnOnce(&mut FunctionBuilder, Operand),
) -> Module {
    let mut m = Module::new("t");
    let buf = Operand::GlobalAddr(m.add_global("buf", 16));
    let mut lb = FunctionBuilder::new("leaf", &[], None);
    leaf(&mut lb, buf);
    lb.ret(None);
    let leaf = m.push_func(lb.finish());
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    fb.call(leaf, &[], None);
    after(&mut fb, buf);
    fb.ret(None);
    m.push_func(fb.finish());
    m
}

/// The drain: a TMR copy flipped, outvoted, then rewritten clean leaves
/// nothing tainted, and the fork settles there, with the vote counted —
/// what its end says.
#[test]
fn a_tmr_flip_settles_once_its_copy_is_overwritten() {
    let (ended, fork) = fork_both_ways(&tmr_loop(), VmConfig::default(), 1, false);
    assert_eq!(
        (ended.outcome, &ended.output[..], ended.corrected_by_vote),
        (RunOutcome::Completed, &[1, 2, 3][..], 1)
    );
    let settled = Settlement {
        recoveries: 0,
        corrected_by_vote: 1,
        corrected_by_checksum: 0,
        drained: true,
        forensics: None,
    };
    assert_eq!(fork, ForkEnd::Settled(settled));
}

/// With forensics on, the record freezes at the vote, and tracking goes
/// on past it only to see the drain: the fork that settles there returns
/// the very record the same fork run to its end does.
#[test]
fn a_record_frozen_at_a_vote_is_the_same_settled_or_not() {
    let (ended, fork) = fork_both_ways(&tmr_loop(), VmConfig::default(), 1, true);
    let record = ended.forensics.expect("the flip fired");
    assert_eq!(record.detector, FaultDetector::Vote);
    let ForkEnd::Settled(settled) = fork else { panic!("the drain settles it") };
    assert!(settled.drained);
    assert_eq!(settled.forensics, Some(record));
}

/// Refused: a budget short of the reserve (the rule of
/// [`a_budget_short_of_the_reserve_does_not_settle`], at a drain). The
/// TMR fork that settles above runs to its end instead.
#[test]
fn a_drain_with_a_budget_short_of_the_reserve_does_not_settle() {
    let m = tmr_loop();
    let spec = RunSpec { fini: Some("fini"), ..Default::default() };
    let clean = run(&m, VmConfig::default(), spec);
    let tight = VmConfig { max_instructions: clean.instructions + 2, ..Default::default() };
    let (ended, fork) = fork_both_ways(&m, tight, 1, false);
    assert_eq!((ended.outcome, ended.corrected_by_vote), (RunOutcome::Completed, 1));
    assert_eq!(fork, ForkEnd::Ended(Box::new(ended)));
}

/// Refused: tainted control. The flipped compare sends `leaf` down the
/// other arm, which stores 2 where the fault-free run stores 1. The set
/// drains at `leaf`'s `Ret` — the wrong store's value is a constant — but
/// the run ends in silent data corruption.
#[test]
fn a_drain_after_a_tainted_branch_does_not_settle() {
    let m = leaf_module(
        |fb, buf| {
            let x = fb.add(Ty::I64, fb.iconst(Ty::I64, 1), fb.iconst(Ty::I64, 2));
            let c = fb.cmp(CmpOp::Eq, Ty::I64, x, fb.iconst(Ty::I64, 3));
            let (then, other, join) = (fb.new_block(), fb.new_block(), fb.new_block());
            fb.condbr(c, then, other);
            for (block, v) in [(then, 1), (other, 2)] {
                fb.switch_to(block);
                fb.store(Ty::I64, fb.iconst(Ty::I64, v), buf);
                fb.br(join);
            }
            fb.switch_to(join);
        },
        |fb, buf| {
            let v = fb.load(Ty::I64, buf);
            fb.emit_out(Ty::I64, v);
        },
    );
    let (ended, fork) = fork_both_ways(&m, VmConfig::default(), 0, false);
    assert_eq!((ended.outcome, &ended.output[..]), (RunOutcome::Completed, &[2][..]));
    assert_eq!(fork, ForkEnd::Ended(Box::new(ended)));
}

/// Refused: a store through a tainted address. The flipped pointer sends
/// `leaf`'s byte to `buf + 1`; `fini` then clears that byte, which drains
/// the set, but `buf[0]` never got its 7 — untainted, and wrong: the run
/// ends in silent data corruption.
#[test]
fn a_store_through_a_tainted_address_does_not_settle() {
    let m = leaf_module(
        |fb, buf| {
            let p = fb.add(Ty::Ptr, buf, fb.iconst(Ty::I64, 0));
            fb.store(Ty::I8, fb.iconst(Ty::I8, 7), p);
        },
        |fb, buf| {
            let q = fb.add(Ty::Ptr, buf, fb.iconst(Ty::I64, 1));
            fb.store(Ty::I8, fb.iconst(Ty::I8, 0), q);
            let v = fb.load(Ty::I8, buf);
            fb.emit_out(Ty::I8, v);
        },
    );
    let (ended, fork) = fork_both_ways(&m, VmConfig::default(), 0, false);
    assert_eq!((ended.outcome, &ended.output[..]), (RunOutcome::Completed, &[0][..]));
    assert_eq!(fork, ForkEnd::Ended(Box::new(ended)));
}

/// Refused: an allocation of a tainted size. `leaf`'s 64 bytes become 65,
/// which moves the heap pointer a whole line further; its registers drain
/// at its `Ret`, but `fini`'s allocation — untainted — lands elsewhere, and
/// the emitted address is wrong.
#[test]
fn an_allocation_of_a_tainted_size_does_not_settle() {
    let m = leaf_module(
        |fb, _| {
            let n = fb.add(Ty::I64, fb.iconst(Ty::I64, 64), fb.iconst(Ty::I64, 0));
            fb.alloc(n);
        },
        |fb, _| {
            let p = fb.alloc(fb.iconst(Ty::I64, 64));
            fb.emit_out(Ty::Ptr, p);
        },
    );
    let spec = RunSpec { fini: Some("fini"), ..Default::default() };
    let clean = run(&m, VmConfig::default(), spec);
    let (ended, fork) = fork_both_ways(&m, VmConfig::default(), 0, false);
    assert_eq!(ended.outcome, RunOutcome::Completed);
    assert_eq!(ended.output, vec![clean.output[0] + 64]);
    assert_eq!(fork, ForkEnd::Ended(Box::new(ended)));
}

/// Refused: a tainted value emitted. The set drains at `leaf`'s `Ret`,
/// after the wrong value reached the output.
#[test]
fn an_emitted_tainted_value_does_not_settle() {
    let m = leaf_module(
        |fb, _| {
            let x = fb.add(Ty::I64, fb.iconst(Ty::I64, 1), fb.iconst(Ty::I64, 2));
            fb.emit_out(Ty::I64, x);
        },
        |fb, _| fb.emit_out(Ty::I64, fb.iconst(Ty::I64, 9)),
    );
    let (ended, fork) = fork_both_ways(&m, VmConfig::default(), 0, false);
    assert_eq!((ended.outcome, &ended.output[..]), (RunOutcome::Completed, &[2, 9][..]));
    assert_eq!(fork, ForkEnd::Ended(Box::new(ended)));
}

/// Refused: an aborted attempt that allocated. A flip turns a load's
/// address wild inside a transaction; the trap aborts it, and the
/// rollback drains the set — but the attempt's allocation stays, and the
/// retry allocates a line further on. Without the allocation the same
/// fork settles (at the rollback, which takes precedence).
#[test]
fn an_abort_of_an_attempt_that_allocated_does_not_settle() {
    for allocates in [true, false] {
        let m = leaf_module(
            |_, _| {},
            |fb, buf| {
                fb.emit_op(Op::TxBegin);
                if allocates {
                    fb.alloc(fb.iconst(Ty::I64, 64));
                }
                let x = fb.add(Ty::I64, fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, 0));
                let off = fb.mul(Ty::I64, x, fb.iconst(Ty::I64, 1 << 40));
                let at = fb.add(Ty::Ptr, buf, off);
                let v = fb.load(Ty::I64, at);
                fb.emit_op(Op::TxEnd);
                fb.emit_out(Ty::I64, v);
            },
        );
        let (ended, fork) = fork_both_ways(&m, VmConfig::default(), allocates as u64, false);
        assert_eq!((ended.outcome, &ended.output[..]), (RunOutcome::Completed, &[0][..]));
        assert_eq!(ended.htm.total_aborts(), 1, "allocates: {allocates}");
        if allocates {
            assert_eq!(fork, ForkEnd::Ended(Box::new(ended)));
        } else {
            assert!(matches!(fork, ForkEnd::Settled(Settlement { drained: false, .. })));
        }
    }
}

/// The cost guard: a settle-only window longer than the cap. `leaf`'s
/// flipped value outlives a loop and drains only at its `Ret`: after a
/// few iterations the fork settles there; after more than
/// [`forensics::SETTLE_WINDOW`] ops it has dropped the taint state, and
/// runs to the same end as [`Vm::run_to_end`].
#[test]
fn a_window_past_the_cap_runs_to_the_end() {
    for (iterations, settles) in [(4, true), (forensics::SETTLE_WINDOW as i64, false)] {
        let m = leaf_module(
            |fb, _| {
                let x = fb.add(Ty::I64, fb.iconst(Ty::I64, 1), fb.iconst(Ty::I64, 2));
                fb.add(Ty::I64, x, fb.iconst(Ty::I64, 1));
                fb.counted_loop(fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, iterations), |b, i| {
                    b.add(Ty::I64, i, i);
                });
            },
            |fb, _| fb.emit_out(Ty::I64, fb.iconst(Ty::I64, 9)),
        );
        let (ended, fork) = fork_both_ways(&m, VmConfig::default(), 0, false);
        assert_eq!((ended.outcome, &ended.output[..]), (RunOutcome::Completed, &[9][..]));
        if settles {
            assert!(matches!(fork, ForkEnd::Settled(Settlement { drained: true, .. })));
        } else {
            assert_eq!(fork, ForkEnd::Ended(Box::new(ended)));
        }
    }
}

#[test]
fn vote_resolves_two_of_three_majority() {
    // vote(a, b, c) with agreeing copies is the identity and counts
    // nothing; a single divergent copy is masked and counted.
    let build = |a: i64, b: i64, c: i64| {
        let m = fini_module(|fb| {
            let av = fb.mov(Ty::I64, fb.iconst(Ty::I64, a));
            let bv = fb.mov(Ty::I64, fb.iconst(Ty::I64, b));
            let cv = fb.mov(Ty::I64, fb.iconst(Ty::I64, c));
            let v = fb
                .emit_op(Op::Vote { ty: Ty::I64, a: av.into(), b: bv.into(), c: cv.into() })
                .unwrap();
            fb.emit_out(Ty::I64, v);
            fb.ret(None);
        });
        run_fini(&m)
    };
    let clean = build(7, 7, 7);
    assert_eq!(clean.output, vec![7]);
    assert_eq!(clean.corrected_by_vote, 0);
    // Any single divergent position is outvoted.
    for (a, b, c) in [(9, 7, 7), (7, 9, 7), (7, 7, 9)] {
        let r = build(a, b, c);
        assert_eq!(r.output, vec![7], "vote({a},{b},{c})");
        assert_eq!(r.corrected_by_vote, 1);
        assert_eq!(r.outcome, RunOutcome::Completed);
    }
}

#[test]
fn vote_with_three_way_divergence_fail_stops() {
    let m = fini_module(|fb| {
        let a = fb.mov(Ty::I64, fb.iconst(Ty::I64, 1));
        let b = fb.mov(Ty::I64, fb.iconst(Ty::I64, 2));
        let c = fb.mov(Ty::I64, fb.iconst(Ty::I64, 3));
        let v =
            fb.emit_op(Op::Vote { ty: Ty::I64, a: a.into(), b: b.into(), c: c.into() }).unwrap();
        fb.emit_out(Ty::I64, v);
        fb.ret(None);
    });
    let r = run_fini(&m);
    // Unrecoverable divergence outside a transaction: detected fail-stop,
    // like a failed ILR check — nothing reaches the output.
    assert_eq!(r.outcome, RunOutcome::Detected);
    assert_eq!(r.detections, 1);
    assert_eq!(r.corrected_by_vote, 0);
    assert!(r.output.is_empty());
}

#[test]
fn vote_result_is_not_a_fault_injection_target() {
    // The vote output models a fused compare+select forwarded into its
    // consumer: it must not appear in the register-write stream, so the
    // fault population of a voted program counts only the real writes.
    let m = fini_module(|fb| {
        let a = fb.mov(Ty::I64, fb.iconst(Ty::I64, 5));
        let b = fb.mov(Ty::I64, fb.iconst(Ty::I64, 5));
        let c = fb.mov(Ty::I64, fb.iconst(Ty::I64, 5));
        let v =
            fb.emit_op(Op::Vote { ty: Ty::I64, a: a.into(), b: b.into(), c: c.into() }).unwrap();
        fb.emit_out(Ty::I64, v);
        fb.ret(None);
    });
    let r = run_fini(&m);
    assert_eq!(r.register_writes, 3, "three moves, no vote write");
    // A fault on any of the three inputs is outvoted by the other two.
    for occ in 0..3 {
        let plan = FaultPlan { occurrence: occ, xor_mask: 0xff };
        let spec = RunSpec { fini: Some("fini"), ..Default::default() };
        let f = run_with(&m, VmConfig::default(), spec, Some(plan), false);
        assert_eq!(f.output, vec![5], "occurrence {occ}");
        assert_eq!(f.corrected_by_vote, 1);
    }
}

#[test]
fn chk_correct_masks_a_single_divergent_lane() {
    // chk_correct(a, b, c) mirrors vote's two-of-three majority but
    // counts toward the ABFT correction counter, not the vote counter.
    let build = |a: i64, b: i64, c: i64| {
        let m = fini_module(|fb| {
            let av = fb.mov(Ty::I64, fb.iconst(Ty::I64, a));
            let bv = fb.mov(Ty::I64, fb.iconst(Ty::I64, b));
            let cv = fb.mov(Ty::I64, fb.iconst(Ty::I64, c));
            let v = fb
                .emit_op(Op::ChkCorrect { ty: Ty::I64, a: av.into(), b: bv.into(), c: cv.into() })
                .unwrap();
            fb.emit_out(Ty::I64, v);
            fb.ret(None);
        });
        run_fini(&m)
    };
    let clean = build(7, 7, 7);
    assert_eq!(clean.output, vec![7]);
    assert_eq!(clean.corrected_by_checksum, 0);
    assert_eq!(clean.corrected_by_vote, 0);
    for (a, b, c) in [(9, 7, 7), (7, 9, 7), (7, 7, 9)] {
        let r = build(a, b, c);
        assert_eq!(r.output, vec![7], "chk_correct({a},{b},{c})");
        assert_eq!(r.corrected_by_checksum, 1);
        assert_eq!(r.corrected_by_vote, 0);
        assert_eq!(r.outcome, RunOutcome::Completed);
    }
}

#[test]
fn chk_correct_with_three_way_divergence_fail_stops() {
    let m = fini_module(|fb| {
        let a = fb.mov(Ty::I64, fb.iconst(Ty::I64, 1));
        let b = fb.mov(Ty::I64, fb.iconst(Ty::I64, 2));
        let c = fb.mov(Ty::I64, fb.iconst(Ty::I64, 3));
        let v = fb
            .emit_op(Op::ChkCorrect { ty: Ty::I64, a: a.into(), b: b.into(), c: c.into() })
            .unwrap();
        fb.emit_out(Ty::I64, v);
        fb.ret(None);
    });
    let r = run_fini(&m);
    // Uncorrectable divergence fail-stops through the ILR detect path.
    assert_eq!(r.outcome, RunOutcome::Detected);
    assert_eq!(r.detections, 1);
    assert_eq!(r.corrected_by_checksum, 0);
    assert!(r.output.is_empty());
}

#[test]
fn chk_correct_result_is_not_a_fault_injection_target() {
    // Like the vote, the correction epilogue sits outside the
    // fault-injection target set: its write is forwarded, so the fault
    // population counts only the real (unprotected) writes.
    let m = fini_module(|fb| {
        let a = fb.mov(Ty::I64, fb.iconst(Ty::I64, 5));
        let b = fb.mov(Ty::I64, fb.iconst(Ty::I64, 5));
        let c = fb.mov(Ty::I64, fb.iconst(Ty::I64, 5));
        let v = fb
            .emit_op(Op::ChkCorrect { ty: Ty::I64, a: a.into(), b: b.into(), c: c.into() })
            .unwrap();
        fb.emit_out(Ty::I64, v);
        fb.ret(None);
    });
    let r = run_fini(&m);
    assert_eq!(r.register_writes, 3, "three moves, no chk_correct write");
    for occ in 0..3 {
        let plan = FaultPlan { occurrence: occ, xor_mask: 0xff };
        let spec = RunSpec { fini: Some("fini"), ..Default::default() };
        let f = run_with(&m, VmConfig::default(), spec, Some(plan), false);
        assert_eq!(f.output, vec![5], "occurrence {occ}");
        assert_eq!(f.corrected_by_checksum, 1);
    }
}

#[test]
fn conflicting_transactions_abort_and_recover() {
    // Two threads transactionally increment the same cell in a loop; the
    // HTM must serialize them via conflict aborts yet deliver a correct
    // total because retried transactions re-read the current value.
    let mut m = Module::new("t");
    m.add_global("x", 8);
    let g = Operand::GlobalAddr(GlobalId(0));
    let mut w = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
    w.set_non_local();
    w.counted_loop(w.iconst(Ty::I64, 0), w.iconst(Ty::I64, 60), |b, _| {
        b.emit_op(Op::TxBegin);
        let v = b.load(Ty::I64, g);
        let nv = b.add(Ty::I64, v, b.iconst(Ty::I64, 1));
        b.store(Ty::I64, nv, g);
        b.emit_op(Op::TxEnd);
    });
    w.ret(None);
    m.push_func(w.finish());
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    let v = fb.load(Ty::I64, g);
    fb.emit_out(Ty::I64, v);
    fb.ret(None);
    m.push_func(fb.finish());

    let cfg = VmConfig { n_threads: 2, quantum: 9, ..Default::default() };
    let r =
        run(&m, cfg, RunSpec { worker: Some("worker"), fini: Some("fini"), ..Default::default() });
    assert_eq!(r.outcome, RunOutcome::Completed);
    // Transactional increments are atomic: no lost updates even though
    // some transactions abort. (Fallback-mode races are possible only
    // after 3 consecutive aborts of the same attempt, which the quantum
    // interleaving here does not produce.)
    assert_eq!(r.output, vec![120]);
}

#[test]
fn coverage_accounts_tx_cycles() {
    let m = fini_module(|fb| {
        fb.emit_op(Op::TxBegin);
        let mut v = fb.mov(Ty::I64, fb.iconst(Ty::I64, 1));
        for _ in 0..50 {
            v = fb.add(Ty::I64, v, fb.iconst(Ty::I64, 1));
        }
        fb.emit_op(Op::TxEnd);
        fb.ret(None);
    });
    let r = run_fini(&m);
    assert!(r.htm.coverage_pct() > 30.0, "coverage = {}", r.htm.coverage_pct());
    assert!(r.htm.coverage_pct() <= 100.0);
}

#[test]
fn scoreboard_shows_ilp_sensitivity() {
    // Serial dependent chain vs. independent ops: same instruction count,
    // very different cycle counts.
    let serial = fini_module(|fb| {
        let mut v = fb.mov(Ty::I64, fb.iconst(Ty::I64, 1));
        for _ in 0..200 {
            v = fb.mul(Ty::I64, v, fb.iconst(Ty::I64, 3));
        }
        fb.ret(None);
        let _ = v;
    });
    let parallel = fini_module(|fb| {
        let mut acc = Vec::new();
        for i in 0..200 {
            acc.push(fb.mul(Ty::I64, fb.iconst(Ty::I64, i), fb.iconst(Ty::I64, 3)));
        }
        fb.ret(None);
        let _ = acc;
    });
    let rs = run_fini(&serial);
    let rp = run_fini(&parallel);
    assert!(
        rs.wall_cycles > rp.wall_cycles * 3,
        "serial {} vs parallel {}",
        rs.wall_cycles,
        rp.wall_cycles
    );
}

#[test]
fn deterministic_given_seed() {
    let mk = || {
        let mut m = Module::new("t");
        m.add_global("x", 8);
        let g = Operand::GlobalAddr(GlobalId(0));
        let mut w = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
        w.set_non_local();
        w.counted_loop(w.iconst(Ty::I64, 0), w.iconst(Ty::I64, 30), |b, _| {
            b.rmw(RmwOp::Add, Ty::I64, g, b.iconst(Ty::I64, 1));
        });
        w.ret(None);
        m.push_func(w.finish());
        m
    };
    let m = mk();
    let cfg = VmConfig { n_threads: 3, seed: 777, ..Default::default() };
    let r1 = run(&m, cfg.clone(), RunSpec { worker: Some("worker"), ..Default::default() });
    let r2 = run(&m, cfg, RunSpec { worker: Some("worker"), ..Default::default() });
    assert_eq!(r1.wall_cycles, r2.wall_cycles);
    assert_eq!(r1.instructions, r2.instructions);
    assert_eq!(r1.register_writes, r2.register_writes);
}

use haft_ir::inst::CastKind;

#[test]
fn adaptive_threshold_keeps_protection_under_conflicts() {
    // Two threads transactionally hammer one cell. With a fixed oversized
    // threshold the retries exhaust and execution degrades to the
    // unprotected fallback; adaptive sizing shrinks the transactions
    // instead, keeping most of the execution recoverable.
    let mk = || {
        let mut m = Module::new("t");
        m.add_global("x", 8);
        let g = Operand::GlobalAddr(GlobalId(0));
        let mut w = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
        w.set_non_local();
        w.emit_op(Op::TxBegin);
        w.counted_loop(w.iconst(Ty::I64, 0), w.iconst(Ty::I64, 400), |b, _| {
            b.emit_op(Op::TxCondSplit);
            let v = b.load(Ty::I64, g);
            let nv = b.add(Ty::I64, v, b.iconst(Ty::I64, 1));
            b.store(Ty::I64, nv, g);
            b.emit_op(Op::TxCounterInc { amount: 8 });
        });
        w.emit_op(Op::TxEnd);
        w.ret(None);
        m.push_func(w.finish());
        m
    };
    let m = mk();
    let base = VmConfig { n_threads: 2, tx_threshold: 4000, ..Default::default() };
    let fixed = Vm::run(&m, base.clone(), RunSpec { worker: Some("worker"), ..Default::default() });
    let mut acfg = base;
    acfg.adaptive_threshold = true;
    let adaptive = Vm::run(&m, acfg, RunSpec { worker: Some("worker"), ..Default::default() });
    assert_eq!(adaptive.outcome, RunOutcome::Completed);
    // Protection: adaptive stays transactional where fixed gave up.
    assert!(
        adaptive.htm.coverage_pct() > fixed.htm.coverage_pct() + 10.0,
        "adaptive {:.1}% vs fixed {:.1}%",
        adaptive.htm.coverage_pct(),
        fixed.htm.coverage_pct()
    );
    assert!(adaptive.htm.commits > fixed.htm.commits);
    // And the cost of that protection is bounded.
    assert!(
        adaptive.wall_cycles < fixed.wall_cycles * 8,
        "adaptive {} vs fixed {}",
        adaptive.wall_cycles,
        fixed.wall_cycles
    );
}

#[test]
fn phase_cycles_partition_wall_cycles() {
    // A three-phase program: init seeds a global, workers add to it,
    // fini emits. Every phase must be charged, and the per-phase split
    // must sum exactly to the end-to-end wall-cycle count.
    let mut m = Module::new("t");
    let g = m.add_global("acc", 8 * 4);
    let mut ib = FunctionBuilder::new("init", &[], None);
    ib.set_non_local();
    ib.store(Ty::I64, ib.iconst(Ty::I64, 5), Operand::GlobalAddr(g));
    ib.ret(None);
    m.push_func(ib.finish());
    let mut wb = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
    wb.set_non_local();
    let tid = wb.param(0);
    let off = wb.mul(Ty::I64, tid, wb.iconst(Ty::I64, 8));
    let slot = wb.add(Ty::I64, Operand::GlobalAddr(g), off);
    wb.counted_loop(wb.iconst(Ty::I64, 0), wb.iconst(Ty::I64, 50), |b, i| {
        let cur = b.load(Ty::I64, slot);
        let nxt = b.add(Ty::I64, cur, i);
        b.store(Ty::I64, nxt, slot);
    });
    wb.ret(None);
    m.push_func(wb.finish());
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    let v = fb.load(Ty::I64, Operand::GlobalAddr(g));
    fb.emit_out(Ty::I64, v);
    fb.ret(None);
    m.push_func(fb.finish());

    let spec = RunSpec { init: Some("init"), worker: Some("worker"), fini: Some("fini") };
    let cfg = VmConfig { n_threads: 2, ..Default::default() };
    let r = run(&m, cfg, spec);
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert!(r.phases.init > 0 && r.phases.worker > 0 && r.phases.fini > 0);
    assert_eq!(r.phases.init + r.phases.worker + r.phases.fini, r.wall_cycles);
    assert_eq!(r.phases.service_cycles(), r.wall_cycles - r.phases.init);
    // The parallel phase dominates this program.
    assert!(r.phases.worker > r.phases.init + r.phases.fini);

    // A run with no init phase charges nothing to it.
    let no_init =
        run(&m, VmConfig::default(), RunSpec { fini: Some("fini"), ..Default::default() });
    assert_eq!(no_init.phases.init, 0);
    assert_eq!(no_init.phases.fini, no_init.wall_cycles);
}

/// Every decode-resolved opcode computes what `eval_bin`/`eval_cmp`
/// compute for the `(op, type)` pair it stands for — on the edge values
/// (shift counts at, around and far past the width included), on random
/// ones, with the second operand in a register and as a constant — and
/// decode really does resolve the pair, for `I64` and for `Ptr`: all
/// nine `Bin` operators that neither trap nor are float.
#[test]
fn decode_resolved_opcodes_equal_the_generic_evaluators() {
    use decode::DOp;
    let mut vals = vec![0, 1, 2, 63, 64, 65, u64::MAX, i64::MIN as u64, i64::MAX as u64];
    let mut rng = Prng::new(0xD0);
    vals.extend((0..8).map(|_| rng.next_u64()));
    let pairs: Vec<(u64, u64)> =
        vals.iter().flat_map(|&a| vals.iter().map(move |&b| (a, b))).collect();

    type Resolved = fn(&DOp) -> bool;
    let bins: [(BinOp, Resolved); 9] = [
        (BinOp::Add, |op| matches!(op, DOp::Add64(_))),
        (BinOp::Sub, |op| matches!(op, DOp::Sub64(_))),
        (BinOp::Mul, |op| matches!(op, DOp::Mul64(_))),
        (BinOp::And, |op| matches!(op, DOp::And64(_))),
        (BinOp::Or, |op| matches!(op, DOp::Or64(_))),
        (BinOp::Xor, |op| matches!(op, DOp::Xor64(_))),
        (BinOp::Shl, |op| matches!(op, DOp::Shl64(_))),
        (BinOp::LShr, |op| matches!(op, DOp::LShr64(_))),
        (BinOp::AShr, |op| matches!(op, DOp::AShr64(_))),
    ];
    assert!(bins.iter().all(|(op, _)| !op.is_float() && !op.can_trap()));
    let cmps: [(CmpOp, Resolved); 3] = [
        (CmpOp::Eq, |op| matches!(op, DOp::CmpEq64(_))),
        (CmpOp::Ne, |op| matches!(op, DOp::CmpNe64(_))),
        (CmpOp::SLt, |op| matches!(op, DOp::CmpSlt64(_))),
    ];
    // One program per opcode: both operand forms of every pair, emitted.
    let check = |ty: Ty,
                 out_ty: Ty,
                 resolved: Resolved,
                 want: &dyn Fn(u64, u64) -> u64,
                 emit: &dyn Fn(&mut FunctionBuilder, ValueId, Operand) -> ValueId| {
        let m = fini_module(|fb| {
            for &(a, b) in &pairs {
                let x = fb.mov(ty, Operand::imm(a as i64, ty));
                let y = fb.mov(ty, Operand::imm(b as i64, ty));
                for second in [Operand::from(y), Operand::imm(b as i64, ty)] {
                    let r = emit(fb, x, second);
                    fb.emit_out(out_ty, r);
                }
            }
            fb.ret(None);
        });
        let code = &Prepared::new(&m).decoded.funcs[0].code;
        assert_eq!(code.iter().filter(|op| resolved(op)).count(), 2 * pairs.len(), "{ty:?}");
        let expected: Vec<u64> = pairs.iter().flat_map(|&(a, b)| [want(a, b); 2]).collect();
        assert_eq!(run_fini(&m).output, expected, "{ty:?}");
    };
    for ty in [Ty::I64, Ty::Ptr] {
        for (op, resolved) in bins {
            let want = |a, b| eval_bin(op, ty, a, b).expect("no division");
            check(ty, ty, resolved, &want, &|fb, x, y| fb.bin(op, ty, x, y));
        }
        for (op, resolved) in cmps {
            let want = |a, b| eval_cmp(op, ty, a, b) as u64;
            check(ty, Ty::I1, resolved, &want, &|fb, x, y| fb.cmp(op, ty, x, y));
        }
    }
}

/// The rule's other side: a narrow type or a trapping operator keeps
/// the generic `Bin`.
#[test]
fn narrow_and_trapping_bins_stay_generic() {
    let m = fini_module(|fb| {
        for (op, ty) in [(BinOp::Xor, Ty::I32), (BinOp::Shl, Ty::I8), (BinOp::UDiv, Ty::I64)] {
            let r = fb.bin(op, ty, fb.iconst(ty, 7), fb.iconst(ty, 3));
            fb.emit_out(ty, r);
        }
        fb.ret(None);
    });
    let code = &Prepared::new(&m).decoded.funcs[0].code;
    let kept: Vec<_> = code
        .iter()
        .filter_map(|op| match op {
            decode::DOp::Bin { op, ty, .. } => Some((*op, *ty)),
            _ => None,
        })
        .collect();
    assert_eq!(kept, [(BinOp::Xor, Ty::I32), (BinOp::Shl, Ty::I8), (BinOp::UDiv, Ty::I64)]);
    assert_eq!(run_fini(&m).output, [7 ^ 3, 7 << 3, 7 / 3]);
}

/// Decode census of the serving hot path: `kv_shard`'s `serve` under
/// native, HAFT and TMR hardening keeps no generic `Bin` on a 64-bit
/// integer except division and remainder — its protocol-frame chain
/// (`lshr`/`xor` rounds) runs on resolved opcodes.
#[test]
fn kv_shard_serve_decodes_every_64_bit_alu_op() {
    use haft_apps::{kv_shard, KvSync};
    use haft_passes::{HardenConfig, PassManager};
    let w = kv_shard(KvSync::Atomics);
    for hc in [HardenConfig::native(), HardenConfig::haft(), HardenConfig::tmr()] {
        let (m, _) = PassManager::from_config(&hc).run_on(&w.module);
        let prepared = Prepared::new(&m);
        let serve = m.func_by_name("serve").expect("kv_shard has serve");
        let code = &prepared.decoded.funcs[serve.0 as usize].code;
        let generic = code.iter().filter(
            |op| matches!(op, decode::DOp::Bin { op, ty: Ty::I64 | Ty::Ptr, .. } if !op.can_trap()),
        );
        assert_eq!(generic.count(), 0, "{}", hc.label());
        let xor = code.iter().filter(|op| matches!(op, decode::DOp::Xor64(_))).count();
        let lshr = code.iter().filter(|op| matches!(op, decode::DOp::LShr64(_))).count();
        assert!(xor > 0 && lshr > 0, "{}: {xor} xor, {lshr} lshr", hc.label());
    }
}

/// The fault hook is one compare of the write counter against the plan:
/// a fault planned at occurrence `k` flips exactly the `k`-th register
/// write — first, second and last of the run — on both engines.
#[test]
fn fault_lands_on_exactly_the_planned_register_write() {
    const WRITES: u64 = 6;
    let m = fini_module(|fb| {
        for i in 0..WRITES as i64 {
            let v = fb.add(Ty::I64, fb.iconst(Ty::I64, i), fb.iconst(Ty::I64, 100));
            fb.emit_out(Ty::I64, v);
        }
        fb.ret(None);
    });
    let spec = RunSpec { fini: Some("fini"), ..Default::default() };
    for engine in [Engine::Interp, Engine::Fused] {
        let clean = run(&m, VmConfig { engine, ..Default::default() }, spec);
        assert_eq!(clean.register_writes, WRITES);
        for k in [0, 1, WRITES - 1] {
            let fault = Some(FaultPlan { occurrence: k, xor_mask: 0x8000_0000_0000_0400 });
            let r = run_with(&m, VmConfig { engine, ..Default::default() }, spec, fault, false);
            let mut want = clean.output.clone();
            want[k as usize] ^= 0x8000_0000_0000_0400;
            assert_eq!(r.output, want, "{engine:?}, occurrence {k}");
            assert_eq!(r.register_writes, WRITES);
        }
        // One past the last write: armed, never reached, nothing flips —
        // the fork at op 0 returns exactly what the unforked run returns.
        let fault = Some(FaultPlan { occurrence: WRITES, xor_mask: 1 });
        let r = run_with(&m, VmConfig { engine, ..Default::default() }, spec, fault, false);
        assert_eq!(r, clean, "{engine:?}");
    }
}

/// `Vm::start_in` takes a caller's arena only if it is laid out for the
/// module it runs.
#[test]
#[should_panic(expected = "prepared or arena for another function list or global layout")]
fn an_arena_laid_out_for_another_module_is_refused() {
    let m = fini_module(|fb| fb.ret(None));
    let mut other = m.clone();
    other.add_global("g", 8);
    let cfg = VmConfig::default();
    let (prepared, mem) = (Prepared::new(&m), Memory::new(&other, cfg.mem_bytes));
    Vm::start_in(&m, &prepared, cfg, RunSpec { fini: Some("fini"), ..Default::default() }, mem);
}

// --- observation at run speed ---------------------------------------------------

/// A hand-hardened loop that has every place a flip can land: `leaf`'s
/// value arrives through a `Ret`'s caller-side write, the do-while
/// back-edge is a `condbr` with two phi moves, the sum is computed twice
/// and checked inside a transaction (a flip between the copies is an ILR
/// rollback), and the store goes through a pointer computed inside it (a
/// flip there is a wild store: a trap, which aborts and re-executes).
fn observed_program(iterations: i64) -> Module {
    use haft_ir::inst::AbortCode;
    let mut m = Module::new("observed");
    let acc = Operand::GlobalAddr(m.add_global("acc", 8));
    let mut leaf = FunctionBuilder::new("leaf", &[Ty::I64], Some(Ty::I64));
    let y = leaf.mul(Ty::I64, leaf.param(0), leaf.iconst(Ty::I64, 3));
    let z = leaf.add(Ty::I64, y, leaf.iconst(Ty::I64, 1));
    leaf.ret(Some(z.into()));
    let leaf = m.push_func(leaf.finish());

    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    let pre = fb.current_block();
    let (body, detect, ok, exit) = (fb.new_block(), fb.new_block(), fb.new_block(), fb.new_block());
    fb.br(body);
    fb.switch_to(body);
    let (i, sum) = (fb.phi(Ty::I64), fb.phi(Ty::I64));
    fb.phi_incoming(i, fb.iconst(Ty::I64, 0), pre);
    fb.phi_incoming(sum, fb.iconst(Ty::I64, 0), pre);
    fb.emit_op(Op::TxBegin);
    let r = fb.call(leaf, &[i.into()], Some(Ty::I64)).unwrap();
    let (master, shadow) = (fb.add(Ty::I64, sum, r), fb.add(Ty::I64, sum, r));
    let diverged = fb.cmp(CmpOp::Ne, Ty::I64, master, shadow);
    fb.condbr(diverged, detect, ok);
    fb.switch_to(detect);
    fb.emit_op(Op::TxAbort { code: AbortCode::IlrDetected });
    fb.switch_to(ok);
    let p = fb.add(Ty::Ptr, acc, fb.iconst(Ty::I64, 0));
    fb.store(Ty::I64, master, p);
    fb.emit_op(Op::TxEnd);
    let next = fb.add(Ty::I64, i, fb.iconst(Ty::I64, 1));
    let more = fb.cmp(CmpOp::SLt, Ty::I64, next, fb.iconst(Ty::I64, iterations));
    fb.phi_incoming(i, next, ok);
    fb.phi_incoming(sum, master, ok);
    fb.condbr(more, body, exit);
    fb.switch_to(exit);
    let v = fb.load(Ty::I64, acc);
    fb.emit_out(Ty::I64, v);
    fb.ret(None);
    m.push_func(fb.finish());
    verify_module(&m).expect("the observed program verifies");
    m
}

const FINI: RunSpec<'static> = RunSpec { init: None, worker: None, fini: Some("fini") };

/// Ops `run` sends through `step_fused`'s one-op arm on this thread.
fn arm_ops<R>(run: impl FnOnce() -> R) -> (R, u64) {
    engine::ARM_OPS.with(|n| n.set(0));
    let r = run();
    (r, engine::ARM_OPS.with(|n| n.get()))
}

/// Every place a flip can land, exhaustively: at each register write of
/// the run — the first, both moves of the two-phi `condbr` edge, the
/// caller-side write of `leaf`'s `Ret`, the last — and one past the last,
/// the fused engine returns the reference interpreter's whole result,
/// forensics record included, from scratch (forked at op 0) and forked
/// off a pilot advanced to the flip.
#[test]
fn a_flip_anywhere_gives_the_same_record_on_both_engines() {
    let m = observed_program(5);
    let cfg = |engine| VmConfig { engine, ..Default::default() };
    let writes = run(&m, cfg(Engine::Interp), FINI).register_writes;
    let prepared = Prepared::new(&m);
    let mut pilot = Vm::start(&m, &prepared, cfg(Engine::Fused), FINI);
    let mut classes = Vec::new();
    for k in 0..=writes {
        let plan = FaultPlan { occurrence: k, xor_mask: 1 << 40 };
        let want = run_with(&m, cfg(Engine::Interp), FINI, Some(plan), true);
        let fused = run_with(&m, cfg(Engine::Fused), FINI, Some(plan), true);
        assert_eq!(fused, want, "from scratch, write {k}");
        pilot.advance_to(k);
        assert_eq!(pilot.fork(plan, true).run_to_end(), want, "forked, write {k}");
        assert_eq!(want.forensics.is_some(), k < writes, "write {k} of {writes}");
        classes.extend(want.forensics.map(|fx| (fx.site.op_class, fx.detector)));
    }
    let sites: Vec<&str> = classes.iter().map(|c| c.0).collect();
    assert!(sites.windows(2).any(|w| w == ["branch", "branch"]), "both phi moves: {sites:?}");
    assert!(sites.contains(&"call"), "the `Ret`'s caller-side write: {sites:?}");
    for det in [FaultDetector::Ilr, FaultDetector::HtmAbort, FaultDetector::Escaped] {
        assert!(classes.iter().any(|c| c.1 == det), "no flip ended as {det:?}");
    }
}

/// The one-op arm is for open taint windows only. A forensics run steps
/// from where the flip may be next (`pause_slack` register writes short
/// of it; every op but four of this loop's body writes one) to the op
/// that closes the window, `detect_latency_insts` later; everything else
/// rides runs, so beyond that the arm sees only what it sees unobserved,
/// the ops a run refuses. A profiled run has no window: exactly the
/// refused ops.
#[test]
fn the_one_op_arm_runs_only_while_a_taint_window_is_open() {
    const BODY_OPS: usize = 16;
    let m = observed_program(300);
    let prepared = Prepared::new(&m);
    let slack = prepared.pause_slack;
    assert_eq!(slack, 2, "the two phis of the loop body");
    let (clean, refused) = arm_ops(|| run(&m, VmConfig::default(), FINI));
    assert!(refused * 2 < clean.instructions, "{refused} of {} ops", clean.instructions);
    let mut profile = CycleProfile::default();
    let (profiled, arm) = arm_ops(|| {
        let mut vm = Vm::start(&m, &prepared, VmConfig::default(), FINI);
        vm.profile_into(&mut profile);
        vm.run_to_end()
    });
    assert_eq!((profiled, arm), (clean.clone(), refused), "profiled");

    let mut closed_by = Vec::new();
    for k in (clean.register_writes / 2..).take(2 * BODY_OPS) {
        let fault = Some(FaultPlan { occurrence: k, xor_mask: 1 << 40 });
        let (plain, refused) = arm_ops(|| run_with(&m, VmConfig::default(), FINI, fault, false));
        let (observed, arm) = arm_ops(|| run_with(&m, VmConfig::default(), FINI, fault, true));
        let fx = observed.forensics.clone().expect("the flip fired");
        assert_eq!(RunResult { forensics: None, ..observed }, plain, "write {k}");
        if matches!(fx.detector, FaultDetector::Ilr | FaultDetector::HtmAbort) {
            let bound = fx.detect_latency_insts + slack + refused;
            assert!(arm <= bound, "write {k}: {arm} ops through the arm, bound {bound}, {fx:?}");
            assert!(arm >= refused, "write {k}: {arm} < {refused}");
            closed_by.push(fx.detector);
        }
    }
    assert!(
        closed_by.contains(&FaultDetector::Ilr) && closed_by.contains(&FaultDetector::HtmAbort)
    );
}

/// A profiled run suspended and re-entered at arbitrary op boundaries
/// (`advance_to`, every seven register writes) telescopes to the same
/// cells: a run's exit leaves the thread's lane exactly as a fetch would.
#[test]
fn profile_survives_pauses() {
    let m = observed_program(40);
    for engine in [Engine::Interp, Engine::Fused] {
        let cfg = VmConfig { engine, ..Default::default() };
        let prepared = Prepared::new(&m);
        let (mut want_profile, mut profile) = (CycleProfile::default(), CycleProfile::default());
        let mut vm = Vm::start(&m, &prepared, cfg.clone(), FINI);
        vm.profile_into(&mut want_profile);
        let want = vm.run_to_end();
        let mut vm = Vm::start(&m, &prepared, cfg, FINI);
        vm.profile_into(&mut profile);
        let mut pauses = 0;
        while vm.cursor.ended.is_none() {
            pauses += 1;
            vm.advance_to(7 * pauses);
        }
        assert!(pauses > 40, "{engine:?}: paused {pauses} times");
        assert_eq!(vm.run_to_end(), want, "{engine:?}");
        assert_eq!(profile, want_profile, "{engine:?}");
        assert_eq!(profile.total(), want.cpu_cycles, "{engine:?}");
    }
}

/// A pilot with an observer attached does not fork: its forks would run
/// unobserved, and the observer would miss their runs.
#[test]
#[should_panic(expected = "fork needs a fault-free, uninstrumented pilot")]
fn a_traced_pilot_does_not_fork() {
    let m = observed_program(5);
    let (prepared, mut buf) = (Prepared::new(&m), TraceBuf::new());
    let mut pilot = Vm::start(&m, &prepared, VmConfig::default(), FINI);
    pilot.trace_into(&mut buf);
    pilot.advance_to(3);
    pilot.fork(FaultPlan { occurrence: 3, xor_mask: 1 }, false);
}

/// A profile attached mid-run would miss the cycles before it.
#[test]
#[should_panic(expected = "a profile attaches before the run's first op")]
fn a_profile_attaches_only_before_the_first_op() {
    let m = observed_program(5);
    let (prepared, mut profile) = (Prepared::new(&m), CycleProfile::default());
    let mut vm = Vm::start(&m, &prepared, VmConfig::default(), FINI);
    vm.advance_to(3);
    vm.profile_into(&mut profile);
}

/// `a_traced_pilot_does_not_fork` with a profile attached.
#[test]
#[should_panic(expected = "fork needs a fault-free, uninstrumented pilot")]
fn a_profiled_pilot_does_not_fork() {
    let m = observed_program(5);
    let (prepared, mut profile) = (Prepared::new(&m), CycleProfile::default());
    let mut pilot = Vm::start(&m, &prepared, VmConfig::default(), FINI);
    pilot.profile_into(&mut profile);
    pilot.advance_to(3);
    pilot.fork(FaultPlan { occurrence: 3, xor_mask: 1 }, false);
}

// --- checkpoints ----------------------------------------------------------------

/// `m`'s `fini` started over a copy of `image` (`Vm::start_in`), as a
/// run that takes checkpoints against `image` starts.
fn start_over<'m>(m: &'m Module, prepared: &'m Prepared, cfg: VmConfig, image: &Memory) -> Vm<'m> {
    Vm::start_in(m, prepared, cfg, FINI, image.clone())
}

/// A three-phase program on two threads, its state in memory and in
/// transactions: `init` fills `data` (1 024 cells, three pages); each
/// `worker(tid, n)` adds `ro[i]` into `rounds` cells `i = tid, tid + n,
/// ...` of `data`, one transaction per cell that also bumps the shared
/// `hits` (where the two threads conflict), and records its round in
/// `done[tid]` outside the transaction; `fini` emits the sum of `data`
/// and `hits`. `ro`, two initialised pages before `data`, is only read.
fn phased_program(rounds: i64) -> Module {
    let mut m = Module::new("phased");
    let ro = Operand::GlobalAddr(m.add_global_init("ro", (0..8192).map(|i| i as u8 | 1).collect()));
    let data = Operand::GlobalAddr(m.add_global("data", 8192));
    let hits = Operand::GlobalAddr(m.add_global("hits", 8));
    let done = Operand::GlobalAddr(m.add_global("done", 16));
    let total = Operand::GlobalAddr(m.add_global("total", 8));
    let cell = |b: &mut FunctionBuilder, base: Operand, i: ValueId| {
        let off = b.mul(Ty::I64, i, b.iconst(Ty::I64, 8));
        b.add(Ty::Ptr, base, off)
    };
    let mut init = FunctionBuilder::new("init", &[], None);
    init.set_non_local();
    init.counted_loop(init.iconst(Ty::I64, 0), init.iconst(Ty::I64, 1024), |b, i| {
        let v = b.add(Ty::I64, i, b.iconst(Ty::I64, 7));
        let p = cell(b, data, i);
        b.store(Ty::I64, v, p);
    });
    init.ret(None);
    m.push_func(init.finish());
    let mut w = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
    w.set_non_local();
    let (tid, n) = (w.param(0), w.param(1));
    let mine = cell(&mut w, done, tid);
    w.counted_loop(w.iconst(Ty::I64, 0), w.iconst(Ty::I64, rounds), |b, r| {
        let past = b.mul(Ty::I64, r, n);
        let i = b.add(Ty::I64, past, tid);
        b.emit_op(Op::TxBegin);
        let q = cell(b, ro, i);
        let x = b.load(Ty::I64, q);
        let p = cell(b, data, i);
        let d = b.load(Ty::I64, p);
        let d = b.add(Ty::I64, d, x);
        b.store(Ty::I64, d, p);
        let h = b.load(Ty::I64, hits);
        let h = b.add(Ty::I64, h, b.iconst(Ty::I64, 1));
        b.store(Ty::I64, h, hits);
        b.emit_op(Op::TxEnd);
        b.store(Ty::I64, r, mine);
    });
    w.ret(None);
    m.push_func(w.finish());
    let mut fini = FunctionBuilder::new("fini", &[], None);
    fini.set_non_local();
    fini.counted_loop(fini.iconst(Ty::I64, 0), fini.iconst(Ty::I64, 1024), |b, i| {
        let p = cell(b, data, i);
        let v = b.load(Ty::I64, p);
        let t = b.load(Ty::I64, total);
        let t = b.add(Ty::I64, t, v);
        b.store(Ty::I64, t, total);
    });
    for g in [total, hits] {
        let v = fini.load(Ty::I64, g);
        fini.emit_out(Ty::I64, v);
    }
    fini.ret(None);
    m.push_func(fini.finish());
    m
}

/// [`phased_program`]'s three phases.
const PHASES: RunSpec<'static> =
    RunSpec { init: Some("init"), worker: Some("worker"), fini: Some("fini") };

/// Checkpoints of a run, one every twelfth of it, each resumed (three
/// times) and run to its end, return the whole result of the plain run,
/// and each forked just past where it was taken returns that fork of a
/// run from op 0, on both engines: for a run whose state is in registers
/// and transactions, one whose state is in memory, and a two-thread,
/// three-phase run with checkpoints in every phase, inside transactions
/// and outside. The budget a checkpoint resumes under is the one that
/// counts: the plain run's instruction count still completes, one less
/// hangs, as a run under that budget from op 0 does. A run that has
/// ended leaves no checkpoint.
#[test]
fn a_resumed_checkpoint_returns_the_plain_run() {
    let programs = [(observed_program(300), FINI, 1), (global_sum(300), FINI, 1)]
        .into_iter()
        .chain([(phased_program(150), PHASES, 2)]);
    for ((m, spec, n_threads), engine) in
        programs.flat_map(|p| [Engine::Interp, Engine::Fused].map(|e| (p.clone(), e)))
    {
        let case = format!("{} {engine:?}", m.name);
        let prepared = Prepared::new(&m);
        let cfg = VmConfig { engine, n_threads, ..Default::default() };
        let clean = run(&m, cfg.clone(), spec);
        let short = VmConfig { max_instructions: clean.instructions - 1, ..cfg.clone() };
        let hang = run(&m, short, spec);
        assert_eq!(hang.outcome, RunOutcome::Hang, "{case}");
        let image = Memory::new(&m, cfg.mem_bytes);
        let mut vm = Vm::start_in(&m, &prepared, cfg.clone(), spec, image.clone());
        let (writes, mut phases, mut in_tx) = (clean.register_writes, [false; 3], [false; 2]);
        for k in [0, 1].into_iter().chain((1..12).map(|i| i * writes / 12)).chain([writes - 1]) {
            vm.advance_to(k);
            let c = vm.checkpoint(&image).expect("the run is paused, not ended");
            phases[vm.cursor.phase] = true;
            in_tx[vm.threads.iter().any(Thread::in_tx) as usize] = true;
            let at = format!("{case}, write {}", vm.register_writes());
            assert_eq!(c.resume(cfg.max_instructions).run_to_end(), clean, "{at}");
            assert_eq!(c.resume(clean.instructions).run_to_end(), clean, "{at}");
            assert_eq!(c.resume(clean.instructions - 1).run_to_end(), hang, "{at}");
            let plan = FaultPlan { occurrence: vm.register_writes() + 3, xor_mask: 1 << 2 };
            let from_scratch = Vm::start(&m, &prepared, cfg.clone(), spec).fork(plan, false);
            let want = from_scratch.run_to_end();
            assert_eq!(c.resume(cfg.max_instructions).fork(plan, false).run_to_end(), want, "{at}");
        }
        assert_eq!(vm.run_to_end(), clean, "{case}: taking checkpoints changed the run");
        if n_threads == 2 {
            assert_eq!((phases, in_tx), ([true; 3], [true; 2]), "{case}: phases, outside/inside");
        }
        let mut ended = Vm::start_in(&m, &prepared, cfg, spec, image.clone());
        ended.advance_to(u64::MAX);
        assert!(ended.checkpoint(&image).is_none(), "{case}");
    }
}

/// A checkpoint holds what its run still needs, not what the run once
/// held: each thread's store-forwarding map without the cells no later
/// op can wait on, and it and the HTM's line table in at most twice
/// their live entries (rounded up to a power of two); and the arena as
/// exactly the pages the run has written, not those it only read.
#[test]
fn a_checkpoint_holds_its_live_entries_and_its_written_pages() {
    let m = phased_program(150);
    let prepared = Prepared::new(&m);
    let cfg = VmConfig { n_threads: 2, ..Default::default() };
    let image = Memory::new(&m, cfg.mem_bytes);
    let mut vm = Vm::start_in(&m, &prepared, cfg.clone(), PHASES, image.clone());
    // Half way through the run, in the worker phase, inside a
    // transaction that has touched a line.
    vm.advance_to(run(&m, cfg.clone(), PHASES).register_writes / 2);
    for _ in 0..100 {
        if vm.threads.iter().any(Thread::in_tx) && vm.htm.line_table().0 > 0 {
            break;
        }
        vm.advance_to(vm.register_writes() + vm.pause_slack + 1);
    }
    assert!(vm.threads.iter().any(Thread::in_tx) && vm.htm.line_table().0 > 0);
    assert_eq!(vm.cursor.phase, 1);
    let c = vm.checkpoint(&image).expect("paused");
    let fits = |(live, slots): (usize, usize)| slots <= (2 * live).next_power_of_two();
    for (t, kept) in vm.threads.iter().zip(&c.vm.threads) {
        let (run, held) = (t.store_done_fast.table(), kept.store_done_fast.table());
        assert!(fits(held) && held.0 < run.0, "{held:?} of {run:?}");
        assert!(fits(kept.fovl.table()) && kept.fovl.table().0 == t.fovl.table().0);
    }
    assert!(fits(c.vm.htm.line_table()) && c.vm.htm.line_table().0 == vm.htm.line_table().0);
    let page = |g: &str| {
        let (id, global) = m.globals.iter().enumerate().find(|(_, x)| x.name == g).expect(g);
        let base = image.global_bases[id] as usize;
        base / 4096..=(base + global.size as usize - 1) / 4096
    };
    // `data`, and `hits` and `done` in its last page; `ro`'s own pages not.
    let written: Vec<usize> = page("data").collect();
    assert_eq!(c.arena.pages(), written);
    assert!(page("hits").chain(page("done")).all(|p| written.contains(&p)));
    assert!(page("ro").any(|p| !written.contains(&p)));
}

/// A fork of a resumed checkpoint returns the whole result of the same
/// fork of a pilot advanced without checkpoints, forensics off and on,
/// on both engines: the pilot may swap itself for a checkpoint at any
/// op boundary at or before the occurrence.
#[test]
fn a_fork_of_a_resumed_checkpoint_is_the_fork_of_the_pilot() {
    let m = observed_program(40);
    let prepared = Prepared::new(&m);
    for engine in [Engine::Interp, Engine::Fused] {
        let cfg = VmConfig { engine, ..Default::default() };
        let writes = run(&m, cfg.clone(), FINI).register_writes;
        let image = Memory::new(&m, cfg.mem_bytes);
        let mut reference = start_over(&m, &prepared, cfg.clone(), &image);
        reference.advance_to(writes / 4);
        let at = reference.register_writes();
        let c = reference.checkpoint(&image).expect("paused");
        let mut pilot = start_over(&m, &prepared, cfg.clone(), &image);
        let mut resumed = c.resume(cfg.max_instructions);
        for (k, forensics) in [(at, false), (at + 7, true), (writes / 2, false), (writes - 1, true)]
        {
            let plan = FaultPlan { occurrence: k, xor_mask: 1 << 40 };
            pilot.advance_to(k);
            resumed.advance_to(k);
            let want = pilot.fork(plan, forensics).run_to_end();
            assert_eq!(want.forensics.is_some(), forensics, "{engine:?}, write {k}");
            assert_eq!(resumed.fork(plan, forensics).run_to_end(), want, "{engine:?}, write {k}");
            let fresh = c.resume(cfg.max_instructions);
            assert_eq!(fresh.fork(plan, forensics).run_to_end(), want, "{engine:?}, write {k}");
        }
    }
}

/// Checkpoints are refused where forks are: of a fork (its resumed
/// copies would carry the fault as if fault-free), and of a traced or a
/// profiled run (the observer would miss the resumed runs).
#[test]
fn a_checkpoint_of_a_fork_or_an_observed_run_is_refused() {
    let m = observed_program(5);
    let prepared = Prepared::new(&m);
    let image = Memory::new(&m, VmConfig::default().mem_bytes);
    let refused = |vm: &Vm<'_>, what: &str| {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            vm.checkpoint(&image);
        }))
        .expect_err(what);
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("checkpoint needs a fault-free, uninstrumented run"), "{what}: {msg}");
    };
    for engine in [Engine::Interp, Engine::Fused] {
        let cfg = VmConfig { engine, ..Default::default() };
        let mut pilot = start_over(&m, &prepared, cfg.clone(), &image);
        pilot.advance_to(3);
        let mut fork = pilot.fork(FaultPlan { occurrence: 5, xor_mask: 1 }, false);
        refused(&fork, "a fork");
        fork.advance_to(4);
        refused(&fork, "a fork paused short of its flip");
        let mut buf = TraceBuf::new();
        let mut traced = start_over(&m, &prepared, cfg.clone(), &image);
        traced.trace_into(&mut buf);
        traced.advance_to(3);
        refused(&traced, "a traced run");
        let mut profile = CycleProfile::default();
        let mut profiled = start_over(&m, &prepared, cfg, &image);
        profiled.profile_into(&mut profile);
        profiled.advance_to(3);
        refused(&profiled, "a profiled run");
    }
}
