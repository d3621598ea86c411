//! Shared IR-building helpers for the workload kernels.

use haft_ir::builder::FunctionBuilder;
use haft_ir::function::ValueId;
use haft_ir::inst::{BinOp, Operand};
use haft_ir::types::Ty;

/// Computes the half-open slice `[tid*total/n, (tid+1)*total/n)` assigned
/// to one worker thread.
pub fn thread_slice(
    fb: &mut FunctionBuilder,
    tid: ValueId,
    n: ValueId,
    total: i64,
) -> (ValueId, ValueId) {
    let t = fb.iconst(Ty::I64, total);
    let lo_num = fb.mul(Ty::I64, tid, t);
    let lo = fb.bin(BinOp::SDiv, Ty::I64, lo_num, n);
    let tid1 = fb.add(Ty::I64, tid, fb.iconst(Ty::I64, 1));
    let hi_num = fb.mul(Ty::I64, tid1, t);
    let hi = fb.bin(BinOp::SDiv, Ty::I64, hi_num, n);
    (lo, hi)
}

/// Emits a multiplicative fold over `count` consecutive `i64` cells at
/// `base`: `acc = acc * 31 + cell`, then externalizes the result.
///
/// Used by `fini` phases so that any corruption of the result arrays shows
/// up in the program output (the SDC detector's comparand).
pub fn emit_checksum_i64(fb: &mut FunctionBuilder, base: Operand, count: i64) {
    let acc = fb.alloc(fb.iconst(Ty::I64, 8));
    fb.store(Ty::I64, fb.iconst(Ty::I64, 0), acc);
    fb.counted_loop(fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, count), |b, i| {
        let cell = b.gep(base, i, 8, 0);
        let v = b.load(Ty::I64, cell);
        let cur = b.load(Ty::I64, acc);
        let m = b.mul(Ty::I64, cur, b.iconst(Ty::I64, 31));
        let nxt = b.add(Ty::I64, m, v);
        b.store(Ty::I64, nxt, acc);
    });
    let v = fb.load(Ty::I64, acc);
    fb.emit_out(Ty::I64, v);
}

/// In-IR xorshift step for kernels that need per-thread pseudo-randomness
/// (canneal, swaptions): `s ^= s << 13; s ^= s >> 7; s ^= s << 17`.
pub fn xorshift(fb: &mut FunctionBuilder, s: ValueId) -> ValueId {
    let a = fb.bin(BinOp::Shl, Ty::I64, s, fb.iconst(Ty::I64, 13));
    let s1 = fb.bin(BinOp::Xor, Ty::I64, s, a);
    let b = fb.bin(BinOp::LShr, Ty::I64, s1, fb.iconst(Ty::I64, 7));
    let s2 = fb.bin(BinOp::Xor, Ty::I64, s1, b);
    let c = fb.bin(BinOp::Shl, Ty::I64, s2, fb.iconst(Ty::I64, 17));
    fb.bin(BinOp::Xor, Ty::I64, s2, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft::Experiment;
    use haft_ir::module::Module;
    use haft_ir::verify::verify_module;
    use haft_vm::{RunSpec, VmConfig};

    fn fini_spec() -> RunSpec<'static> {
        RunSpec { fini: Some("fini"), ..Default::default() }
    }

    #[test]
    fn thread_slice_partitions_exactly() {
        // fini-style harness: emit slices for tid 0..3 of 10 elements.
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
        fb.set_non_local();
        let tid = fb.param(0);
        let n = fb.param(1);
        let (lo, hi) = thread_slice(&mut fb, tid, n, 10);
        fb.emit_out(Ty::I64, lo);
        fb.emit_out(Ty::I64, hi);
        fb.ret(None);
        m.push_func(fb.finish());
        verify_module(&m).unwrap();
        let r = Experiment::new(&m)
            .vm(VmConfig { n_threads: 3, ..Default::default() })
            .spec(RunSpec { worker: Some("worker"), ..Default::default() })
            .run()
            .expect_completed("thread_slice");
        assert_eq!(r.output, vec![0, 3, 3, 6, 6, 10]);
    }

    #[test]
    fn checksum_differs_when_data_differs() {
        let run_with = |val: i64| {
            let mut m = Module::new("t");
            m.add_global("a", 4 * 8);
            let g = Operand::GlobalAddr(haft_ir::module::GlobalId(0));
            let mut fb = FunctionBuilder::new("fini", &[], None);
            fb.set_non_local();
            fb.store(Ty::I64, fb.iconst(Ty::I64, val), g);
            emit_checksum_i64(&mut fb, g, 4);
            fb.ret(None);
            m.push_func(fb.finish());
            Experiment::new(&m).spec(fini_spec()).run().run.output
        };
        assert_ne!(run_with(1), run_with(2));
        assert_eq!(run_with(5), run_with(5));
    }

    #[test]
    fn xorshift_matches_host_implementation() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("fini", &[], None);
        fb.set_non_local();
        let s = fb.mov(Ty::I64, fb.iconst(Ty::I64, 0x1234_5678));
        let s1 = xorshift(&mut fb, s);
        fb.emit_out(Ty::I64, s1);
        fb.ret(None);
        m.push_func(fb.finish());
        let r = Experiment::new(&m).spec(fini_spec()).run().run;
        let mut x = 0x1234_5678u64;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        assert_eq!(r.output, vec![x]);
    }
}
