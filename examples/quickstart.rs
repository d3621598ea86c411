//! Quickstart: harden a small program with HAFT via the `Experiment`
//! pipeline and demonstrate fault detection and recovery.
//!
//! Run with: `cargo run --release -p haft --example quickstart`

use haft::prelude::*;

fn main() {
    // 1. Build a program against the IR: a parallel dot-product.
    let mut m = Module::new("quickstart");
    let xs = m.add_global_init("xs", (0..512u64).flat_map(|i| (i % 97).to_le_bytes()).collect());
    let ys = m.add_global_init("ys", (0..512u64).flat_map(|i| (i % 89).to_le_bytes()).collect());
    let partial = m.add_global("partial", 16 * 64);

    let mut w = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
    w.set_non_local();
    let tid = w.param(0);
    let nt = w.param(1);
    // Each thread handles the slice [tid*512/n, (tid+1)*512/n).
    let total = w.iconst(Ty::I64, 512);
    let t0 = w.mul(Ty::I64, tid, total);
    let lo = w.bin(BinOp::SDiv, Ty::I64, t0, nt);
    let tid1 = w.add(Ty::I64, tid, w.iconst(Ty::I64, 1));
    let t1 = w.mul(Ty::I64, tid1, total);
    let hi = w.bin(BinOp::SDiv, Ty::I64, t1, nt);
    let off = w.mul(Ty::I64, tid, w.iconst(Ty::I64, 64));
    let cell = w.add(Ty::I64, Operand::GlobalAddr(partial), off);
    w.counted_loop(lo, hi, |b, i| {
        let xp = b.gep(Operand::GlobalAddr(xs), i, 8, 0);
        let x = b.load(Ty::I64, xp);
        let yp = b.gep(Operand::GlobalAddr(ys), i, 8, 0);
        let y = b.load(Ty::I64, yp);
        let p = b.mul(Ty::I64, x, y);
        let cur = b.load(Ty::I64, cell);
        let nxt = b.add(Ty::I64, cur, p);
        b.store(Ty::I64, nxt, cell);
    });
    w.ret(None);
    m.push_func(w.finish());

    let mut f = FunctionBuilder::new("fini", &[], None);
    f.set_non_local();
    let acc = f.alloc(f.iconst(Ty::I64, 8));
    f.store(Ty::I64, f.iconst(Ty::I64, 0), acc);
    f.counted_loop(f.iconst(Ty::I64, 0), f.iconst(Ty::I64, 16), |b, t| {
        let cp = b.gep(Operand::GlobalAddr(partial), t, 64, 0);
        let v = b.load(Ty::I64, cp);
        let cur = b.load(Ty::I64, acc);
        let nxt = b.add(Ty::I64, cur, v);
        b.store(Ty::I64, nxt, acc);
    });
    let out = f.load(Ty::I64, acc);
    f.emit_out(Ty::I64, out);
    f.ret(None);
    m.push_func(f.finish());
    verify_module(&m).expect("valid IR");

    // 2. One experiment describes the whole pipeline: module, hardening,
    //    VM shape, and entry points.
    let exp = Experiment::new(&m).harden(HardenConfig::haft()).threads(4).spec(RunSpec {
        worker: Some("worker"),
        fini: Some("fini"),
        ..Default::default()
    });

    // 3. Side-by-side variant comparison: native vs full HAFT.
    let report = exp.compare(&[HardenConfig::haft()]);
    assert!(report.outputs_agree(), "hardening must preserve semantics");
    let native = report.baseline();
    let haft = report.variant("HAFT").unwrap();
    println!(
        "native instructions: {:>6}   hardened: +{} (ILR {:+}, TX {:+})",
        m.total_inst_count(),
        haft.pass_stats.total_added(),
        haft.pass_stats.added_by("ilr").unwrap(),
        haft.pass_stats.added_by("tx").unwrap(),
    );
    println!("dot product = {}", native.run.output[0]);
    println!(
        "overhead: {:.2}x   transactions committed: {}   coverage: {:.1}%",
        report.overhead("HAFT").unwrap(),
        haft.run.htm.commits,
        haft.run.htm.coverage_pct()
    );

    // 4. Inject a single-event upset into every 50th instruction of the
    //    trace and tally what HAFT does with it.
    let clean = haft.run.clone();
    let (mut corrected, mut masked, mut detected, mut sdc) = (0, 0, 0, 0);
    let mut occ = 0;
    while occ < clean.register_writes {
        let r = exp.run_with_fault(FaultPlan { occurrence: occ, xor_mask: 0x80 }, false).run;
        match r.outcome {
            RunOutcome::Detected => detected += 1,
            RunOutcome::Completed if r.output != clean.output => sdc += 1,
            RunOutcome::Completed if r.recoveries > 0 => corrected += 1,
            RunOutcome::Completed => masked += 1,
            _ => detected += 1,
        }
        occ += 50;
    }
    println!(
        "fault sweep: corrected {corrected}, masked {masked}, fail-stopped {detected}, SDC {sdc}"
    );
}
