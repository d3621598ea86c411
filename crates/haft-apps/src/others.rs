//! The remaining case studies: LogCabin, Apache, LevelDB, SQLite
//! (paper §6.2, Figure 12).

use haft_ir::builder::FunctionBuilder;
use haft_ir::inst::{BinOp, CmpOp, Operand};
use haft_ir::module::Module;
use haft_ir::types::Ty;
use haft_workloads::helpers::{emit_checksum_i64, thread_slice};
use haft_workloads::spec::MAX_THREADS;
use haft_workloads::{Scale, Workload};

use crate::ycsb::{WorkloadMix, YcsbGen};

/// Log appends one [`logcabin`] run performs at `scale` — the unit of its
/// throughput.
pub fn logcabin_ops(scale: Scale) -> i64 {
    scale.pick(800, 6_000)
}

/// `logcabin`: RAFT-style replicated-log appends.
///
/// Client threads append values to a shared log under a lock, chaining a
/// checksum (the entry hash RAFT stores) and "fsyncing" (externalizing)
/// every 64 entries. Paper profile: well-behaved, 25–35 % overhead.
pub fn logcabin(scale: Scale) -> Workload {
    let n = logcabin_ops(scale);
    let mut m = Module::new("logcabin");
    let values =
        m.add_global_init("values", haft_workloads::data::random_i64s(90, n as usize, 1 << 30));
    let log = m.add_global("log", (n * 16 + 64) as u64);
    let meta = m.add_global("meta", 64); // [count, chain-hash].
    let lock = m.add_global("lock", 64);

    let mut w = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
    w.set_non_local();
    let tid = w.param(0);
    let nt = w.param(1);
    let (lo, hi) = thread_slice(&mut w, tid, nt, n);
    let count_cell = w.mov(Ty::Ptr, Operand::GlobalAddr(meta));
    let hash_cell = w.gep(Operand::GlobalAddr(meta), w.iconst(Ty::I64, 1), 8, 0);
    w.counted_loop(lo, hi, |b, i| {
        let vptr = b.gep(Operand::GlobalAddr(values), i, 8, 0);
        let v = b.load(Ty::I64, vptr);
        b.lock(Operand::GlobalAddr(lock));
        let idx = b.load(Ty::I64, count_cell);
        // Append the entry (value, chained hash).
        let eptr = b.gep(Operand::GlobalAddr(log), idx, 16, 0);
        b.store(Ty::I64, v, eptr);
        let h = b.load(Ty::I64, hash_cell);
        let hm = b.mul(Ty::I64, h, b.iconst(Ty::I64, 1099511628211));
        let hx = b.bin(BinOp::Xor, Ty::I64, hm, v);
        let hptr = b.gep(Operand::GlobalAddr(log), idx, 16, 8);
        b.store(Ty::I64, hx, hptr);
        b.store(Ty::I64, hx, hash_cell);
        let nidx = b.add(Ty::I64, idx, b.iconst(Ty::I64, 1));
        b.store(Ty::I64, nidx, count_cell);
        b.unlock(Operand::GlobalAddr(lock));
        // Durable write every 64 entries of this client's batch
        // (externalization; per-thread cadence keeps output
        // deterministic).
        let i1 = b.add(Ty::I64, i, b.iconst(Ty::I64, 1));
        let batch = b.bin(BinOp::And, Ty::I64, i1, b.iconst(Ty::I64, 63));
        let sync = b.cmp(CmpOp::Eq, Ty::I64, batch, b.iconst(Ty::I64, 0));
        b.if_then(sync, |b2| {
            b2.emit_out(Ty::I64, i1);
        });
    });
    w.ret(None);
    m.push_func(w.finish());

    // The final count is deterministic; the chain hash depends on append
    // order, so only the count is part of the checked output.
    let mut f = FunctionBuilder::new("fini", &[], None);
    f.set_non_local();
    let c = f.load(Ty::I64, Operand::GlobalAddr(meta));
    f.emit_out(Ty::I64, c);
    f.ret(None);
    m.push_func(f.finish());
    Workload::new("logcabin", m, None, Some("worker"), Some("fini"))
}

/// Requests one [`apache`] run performs at `scale` — the unit of its
/// throughput.
pub fn apache_ops(scale: Scale) -> i64 {
    scale.pick(200, 1_500)
}

/// `apache`: static-page serving dominated by unprotected library code.
///
/// Each request parses a small header, then copies the 1 KB page through
/// an external (never-instrumented) routine — the paper's explanation for
/// Apache's mere ~10 % overhead and low coverage.
pub fn apache(scale: Scale) -> Workload {
    let requests = apache_ops(scale);
    const PAGE: i64 = 1024;
    let mut m = Module::new("apache");
    let page = m.add_global_init("page", haft_workloads::data::random_bytes(91, PAGE as usize));
    let reqs = m
        .add_global_init("reqs", haft_workloads::data::random_i64s(92, requests as usize, 1 << 16));
    let outbuf = m.add_global("outbuf", (MAX_THREADS as u64) * PAGE as u64);
    let acc = m.add_global("acc", (MAX_THREADS * 64) as u64);

    // The unprotected "libc" page copy + checksum.
    let mut ext = FunctionBuilder::new("copy_page_ext", &[Ty::Ptr, Ty::Ptr], Some(Ty::I64));
    ext.set_external();
    let src = ext.param(0);
    let dst = ext.param(1);
    let sum = ext.alloc(ext.iconst(Ty::I64, 8));
    ext.store(Ty::I64, ext.iconst(Ty::I64, 0), sum);
    ext.counted_loop(ext.iconst(Ty::I64, 0), ext.iconst(Ty::I64, PAGE / 8), |b, i| {
        let sp = b.gep(src, i, 8, 0);
        let v = b.load(Ty::I64, sp);
        let dp = b.gep(dst, i, 8, 0);
        b.store(Ty::I64, v, dp);
        let cur = b.load(Ty::I64, sum);
        let nxt = b.add(Ty::I64, cur, v);
        b.store(Ty::I64, nxt, sum);
    });
    let total = ext.load(Ty::I64, sum);
    ext.ret(Some(total.into()));
    let ext_id = m.push_func(ext.finish());

    let mut w = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
    w.set_non_local();
    let tid = w.param(0);
    let nt = w.param(1);
    let (lo, hi) = thread_slice(&mut w, tid, nt, requests);
    let buf_off = w.mul(Ty::I64, tid, w.iconst(Ty::I64, PAGE));
    let my_buf = w.add(Ty::I64, Operand::GlobalAddr(outbuf), buf_off);
    let acc_off = w.mul(Ty::I64, tid, w.iconst(Ty::I64, 64));
    let my_acc = w.add(Ty::I64, Operand::GlobalAddr(acc), acc_off);
    w.counted_loop(lo, hi, |b, i| {
        // "Parse" the request: a few header-field checks.
        let rptr = b.gep(Operand::GlobalAddr(reqs), i, 8, 0);
        let req = b.load(Ty::I64, rptr);
        let method = b.bin(BinOp::And, Ty::I64, req, b.iconst(Ty::I64, 3));
        let is_get = b.cmp(CmpOp::Ne, Ty::I64, method, b.iconst(Ty::I64, 3));
        b.if_then(is_get, |b2| {
            let sum = b2
                .call(ext_id, &[Operand::GlobalAddr(page), my_buf.into()], Some(Ty::I64))
                .unwrap();
            let cur = b2.load(Ty::I64, my_acc);
            let nxt = b2.add(Ty::I64, cur, sum);
            b2.store(Ty::I64, nxt, my_acc);
        });
    });
    w.ret(None);
    m.push_func(w.finish());

    let mut f = FunctionBuilder::new("fini", &[], None);
    f.set_non_local();
    emit_checksum_i64(&mut f, Operand::GlobalAddr(acc), MAX_THREADS * 8);
    f.ret(None);
    m.push_func(f.finish());
    Workload::new("apache", m, None, Some("worker"), Some("fini"))
}

/// Operations one [`leveldb`] run performs at `scale` — the unit of its
/// throughput.
pub fn leveldb_ops(scale: Scale) -> i64 {
    scale.pick(1_500, 12_000)
}

/// `leveldb`: reads binary-search a sorted table; writes append to
/// per-thread memtables. Paper profile: well-behaved (25–35 %).
pub fn leveldb(mix: WorkloadMix, scale: Scale) -> Workload {
    let n_ops = leveldb_ops(scale);
    const TABLE: i64 = 4096;
    let name = match mix {
        WorkloadMix::A => "leveldb-A",
        WorkloadMix::B => "leveldb-B",
        WorkloadMix::D => "leveldb-D",
        WorkloadMix::Uniform => "leveldb-U",
    };
    let mut m = Module::new(name);
    // Sorted table: key i stored at slot i with value f(i).
    let mut table = Vec::with_capacity(TABLE as usize * 16);
    for i in 0..TABLE as u64 {
        table.extend_from_slice(&(i * 2).to_le_bytes());
        table.extend_from_slice(&(i.wrapping_mul(2654435761)).to_le_bytes());
    }
    let table = m.add_global_init("table", table);
    let mut gen = YcsbGen::new(0x1DB, (TABLE as u64) * 2);
    let ops = m.add_global_init("ops", gen.generate_encoded(mix, n_ops as usize));
    let memtable = m.add_global("memtable", (MAX_THREADS as u64) * 4096);
    let mt_count = m.add_global("mt_count", (MAX_THREADS * 64) as u64);
    let acc = m.add_global("acc", (MAX_THREADS * 64) as u64);

    let mut w = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
    w.set_non_local();
    let tid = w.param(0);
    let nt = w.param(1);
    let (lo, hi) = thread_slice(&mut w, tid, nt, n_ops);
    let acc_off = w.mul(Ty::I64, tid, w.iconst(Ty::I64, 64));
    let my_acc = w.add(Ty::I64, Operand::GlobalAddr(acc), acc_off);
    let cnt_cell = w.add(Ty::I64, Operand::GlobalAddr(mt_count), acc_off);
    let mt_off = w.mul(Ty::I64, tid, w.iconst(Ty::I64, 4096));
    let my_mt = w.add(Ty::I64, Operand::GlobalAddr(memtable), mt_off);
    let lo_cell = w.alloc(w.iconst(Ty::I64, 16));
    let hi_cell = w.gep(lo_cell, w.iconst(Ty::I64, 1), 8, 0);
    w.counted_loop(lo, hi, |b, i| {
        let optr = b.gep(Operand::GlobalAddr(ops), i, 8, 0);
        let op = b.load(Ty::I64, optr);
        let kind = b.bin(BinOp::LShr, Ty::I64, op, b.iconst(Ty::I64, 56));
        let key = b.bin(BinOp::And, Ty::I64, op, b.iconst(Ty::I64, 0xFFFF_FFFF));
        let is_read = b.cmp(CmpOp::Eq, Ty::I64, kind, b.iconst(Ty::I64, 0));
        b.if_then(is_read, |b2| {
            // Binary search (12 iterations over 4096 slots) — the branchy
            // pointer-dependent read path.
            b2.store(Ty::I64, b2.iconst(Ty::I64, 0), lo_cell);
            b2.store(Ty::I64, b2.iconst(Ty::I64, TABLE), hi_cell);
            b2.counted_loop(b2.iconst(Ty::I64, 0), b2.iconst(Ty::I64, 12), |b3, _| {
                let l = b3.load(Ty::I64, lo_cell);
                let h = b3.load(Ty::I64, hi_cell);
                let sum = b3.add(Ty::I64, l, h);
                let mid = b3.bin(BinOp::LShr, Ty::I64, sum, b3.iconst(Ty::I64, 1));
                let kptr = b3.gep(Operand::GlobalAddr(table), mid, 16, 0);
                let kv = b3.load(Ty::I64, kptr);
                let below = b3.cmp(CmpOp::ULe, Ty::I64, kv, key);
                let nl = b3.select(Ty::I64, below, mid, l);
                let nh = b3.select(Ty::I64, below, h, mid);
                b3.store(Ty::I64, nl, lo_cell);
                b3.store(Ty::I64, nh, hi_cell);
            });
            let slot = b2.load(Ty::I64, lo_cell);
            let vptr = b2.gep(Operand::GlobalAddr(table), slot, 16, 8);
            let v = b2.load(Ty::I64, vptr);
            let cur = b2.load(Ty::I64, my_acc);
            let nxt = b2.add(Ty::I64, cur, v);
            b2.store(Ty::I64, nxt, my_acc);
        });
        let is_write = b.cmp(CmpOp::Ne, Ty::I64, kind, b.iconst(Ty::I64, 0));
        b.if_then(is_write, |b2| {
            // Append to the private memtable ring.
            let c = b2.load(Ty::I64, cnt_cell);
            let slot = b2.bin(BinOp::And, Ty::I64, c, b2.iconst(Ty::I64, 511));
            let sp = b2.gep(my_mt, slot, 8, 0);
            b2.store(Ty::I64, key, sp);
            let nc = b2.add(Ty::I64, c, b2.iconst(Ty::I64, 1));
            b2.store(Ty::I64, nc, cnt_cell);
        });
    });
    w.ret(None);
    m.push_func(w.finish());

    let mut f = FunctionBuilder::new("fini", &[], None);
    f.set_non_local();
    emit_checksum_i64(&mut f, Operand::GlobalAddr(acc), MAX_THREADS * 8);
    emit_checksum_i64(&mut f, Operand::GlobalAddr(mt_count), MAX_THREADS * 8);
    f.ret(None);
    m.push_func(f.finish());
    Workload::new(name, m, None, Some("worker"), Some("fini"))
}

/// Operations one [`sqlite`] run performs at `scale` — the unit of its
/// throughput.
pub fn sqlite_ops(scale: Scale) -> i64 {
    scale.pick(1_200, 9_000)
}

/// `sqlite`: every operation dispatched through a function pointer.
///
/// HAFT cannot see through indirect calls, so TX pessimistically ends the
/// transaction before and begins after each one — the paper's explanation
/// for SQLite's 3–4× worst-case overhead.
pub fn sqlite(mix: WorkloadMix, scale: Scale) -> Workload {
    let n_ops = sqlite_ops(scale);
    const ROWS: i64 = 2048;
    let name = match mix {
        WorkloadMix::A => "sqlite-A",
        WorkloadMix::B => "sqlite-B",
        WorkloadMix::D => "sqlite-D",
        WorkloadMix::Uniform => "sqlite-U",
    };
    let mut m = Module::new(name);
    let mut rows = Vec::with_capacity(ROWS as usize * 16);
    for i in 0..ROWS as u64 {
        rows.extend_from_slice(&(i * 3).to_le_bytes());
        rows.extend_from_slice(&(i.wrapping_mul(40503)).to_le_bytes());
    }
    let rows = m.add_global_init("rows", rows);
    let mut gen = YcsbGen::new(0x5E1, (ROWS as u64) * 3);
    let ops = m.add_global_init("ops", gen.generate_encoded(mix, n_ops as usize));
    let acc = m.add_global("acc", (MAX_THREADS * 64) as u64);

    // "Virtual machine opcodes": select and update handlers, dispatched
    // indirectly per operation.
    let mut sel = FunctionBuilder::new("op_select", &[Ty::I64, Ty::Ptr], Some(Ty::I64));
    {
        let key = sel.param(0);
        let slot = sel.bin(BinOp::URem, Ty::I64, key, sel.iconst(Ty::I64, ROWS));
        let vptr = sel.gep(Operand::GlobalAddr(rows), slot, 16, 8);
        // Atomic: rows are concurrently updated, and HAFT's shared-memory
        // optimization requires race-free regular accesses (§3.1).
        let v = sel.load_atomic(Ty::I64, vptr);
        let mixv = sel.mul(Ty::I64, v, sel.iconst(Ty::I64, 31));
        sel.ret(Some(mixv.into()));
    }
    let sel_id = m.push_func(sel.finish());

    let mut upd = FunctionBuilder::new("op_update", &[Ty::I64, Ty::Ptr], Some(Ty::I64));
    {
        let key = upd.param(0);
        let slot = upd.bin(BinOp::URem, Ty::I64, key, upd.iconst(Ty::I64, ROWS));
        let vptr = upd.gep(Operand::GlobalAddr(rows), slot, 16, 8);
        // Idempotent per row (a function of the slot, not the aliased
        // key), so concurrent updates commute and output is
        // schedule-independent.
        let nv = upd.mul(Ty::I64, slot, upd.iconst(Ty::I64, 40503));
        upd.store_atomic(Ty::I64, nv, vptr);
        upd.ret(Some(nv.into()));
    }
    let upd_id = m.push_func(upd.finish());

    let mut w = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
    w.set_non_local();
    let tid = w.param(0);
    let nt = w.param(1);
    let (lo, hi) = thread_slice(&mut w, tid, nt, n_ops);
    let acc_off = w.mul(Ty::I64, tid, w.iconst(Ty::I64, 64));
    let my_acc = w.add(Ty::I64, Operand::GlobalAddr(acc), acc_off);
    w.counted_loop(lo, hi, |b, i| {
        let optr = b.gep(Operand::GlobalAddr(ops), i, 8, 0);
        let op = b.load(Ty::I64, optr);
        let kind = b.bin(BinOp::LShr, Ty::I64, op, b.iconst(Ty::I64, 56));
        let key = b.bin(BinOp::And, Ty::I64, op, b.iconst(Ty::I64, 0xFFFF_FFFF));
        // Dispatch via function pointer: reads use op_select, writes
        // op_update. HAFT must treat the callee as unknown.
        let is_read = b.cmp(CmpOp::Eq, Ty::I64, kind, b.iconst(Ty::I64, 0));
        let fp = b.select(Ty::Ptr, is_read, Operand::FuncAddr(sel_id), Operand::FuncAddr(upd_id));
        let r =
            b.call_indirect(fp, &[key.into(), Operand::GlobalAddr(rows)], Some(Ty::I64)).unwrap();
        let cur = b.load(Ty::I64, my_acc);
        let nxt = b.add(Ty::I64, cur, r);
        b.store(Ty::I64, nxt, my_acc);
    });
    w.ret(None);
    m.push_func(w.finish());

    let mut f = FunctionBuilder::new("fini", &[], None);
    f.set_non_local();
    emit_checksum_i64(&mut f, Operand::GlobalAddr(acc), MAX_THREADS * 8);
    f.ret(None);
    m.push_func(f.finish());
    Workload::new(name, m, None, Some("worker"), Some("fini"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft::Experiment;
    use haft_passes::HardenConfig;
    use haft_vm::{RunOutcome, VmConfig};

    fn exp(w: &Workload, threads: usize, seed: u64) -> Experiment<'_> {
        let cfg = VmConfig { n_threads: threads, seed, ..Default::default() };
        Experiment::workload(w).vm(cfg)
    }

    fn run(w: &Workload, threads: usize, seed: u64) -> haft_vm::RunResult {
        exp(w, threads, seed).run().run
    }

    fn all() -> Vec<Workload> {
        vec![
            logcabin(Scale::Small),
            apache(Scale::Small),
            leveldb(WorkloadMix::A, Scale::Small),
            leveldb(WorkloadMix::D, Scale::Small),
            sqlite(WorkloadMix::A, Scale::Small),
            sqlite(WorkloadMix::D, Scale::Small),
        ]
    }

    #[test]
    fn all_case_studies_verify_and_run() {
        for w in all() {
            haft_ir::verify::verify_module(&w.module)
                .unwrap_or_else(|e| panic!("{}: {e:?}", w.name));
            let r = run(&w, 2, 1);
            assert_eq!(r.outcome, RunOutcome::Completed, "{}", w.name);
        }
    }

    #[test]
    fn hardened_case_studies_match_native_output() {
        for w in all() {
            let report = exp(&w, 2, 5).compare(&[HardenConfig::haft()]);
            assert!(report.outputs_agree(), "{}:\n{}", w.name, report.summary());
        }
    }

    #[test]
    fn apache_has_low_coverage_and_low_overhead() {
        let w = apache(Scale::Small);
        let report = exp(&w, 2, 3).compare(&[HardenConfig::haft()]);
        let haft = report.variant("HAFT").unwrap();
        let overhead = haft.overhead_vs_native.unwrap();
        assert!(overhead < 1.6, "apache overhead {overhead}");
        assert!(haft.run.htm.coverage_pct() < 70.0, "coverage {}", haft.run.htm.coverage_pct());
    }

    #[test]
    fn sqlite_pays_for_indirect_calls() {
        let sq = sqlite(WorkloadMix::A, Scale::Small);
        let ldb = leveldb(WorkloadMix::A, Scale::Small);
        let oh =
            |w: &Workload| exp(w, 2, 3).compare(&[HardenConfig::haft()]).overhead("HAFT").unwrap();
        let sq_oh = oh(&sq);
        let ldb_oh = oh(&ldb);
        assert!(sq_oh > ldb_oh * 1.5, "sqlite {sq_oh} should far exceed leveldb {ldb_oh}");
    }

    #[test]
    fn logcabin_output_is_deterministic() {
        let w = logcabin(Scale::Small);
        let a = run(&w, 3, 1);
        let b = run(&w, 3, 77);
        assert_eq!(a.output, b.output);
    }
}
