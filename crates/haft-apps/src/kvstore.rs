//! Memcached-like key-value store (paper §6.1).
//!
//! A bucketed hash table driven by a pre-generated YCSB operation stream.
//! Three synchronization variants mirror the paper's Figure 11 lines:
//! pthread-style per-bucket locks (elidable by HAFT), lock-free
//! atomics, and an SEI-style execute-twice + CRC hardened variant used as
//! the state-of-the-art baseline.
//!
//! Updates are idempotent (`value = f(key)`), and the table is
//! pre-populated, so program output is schedule-independent — required
//! for fault-injection classification.

use std::sync::Arc;

use haft_ir::builder::FunctionBuilder;
use haft_ir::inst::{AbortCode, BinOp, CmpOp, Op as IrOp, Operand};
use haft_ir::module::{GlobalInit, Module};
use haft_ir::types::Ty;
use haft_workloads::helpers::thread_slice;
use haft_workloads::{Scale, Workload};

use crate::ycsb::{WorkloadMix, YcsbGen};

/// Synchronization variant of the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvSync {
    /// Per-bucket locks (the paper's `*-lock` lines; HAFT elides them).
    Lock,
    /// Lock-free reads + atomic writes (the `*-atomics` lines).
    Atomics,
    /// SEI baseline: per-bucket locks plus execute-twice with CRC
    /// comparison inside the handler (fail-stop, no HTM).
    Sei,
}

const BUCKETS: i64 = 256;
const SLOTS: i64 = 8;
/// Keys resident in the store (the table image is fully populated over
/// exactly this range; request generators must stay inside it).
pub const KV_KEYSPACE: u64 = 1000;

/// Deterministic value function: updates are idempotent, so the reply to
/// any operation on `key` is always `value_of(key)` — which is what lets
/// service harnesses compute golden replies host-side without a second
/// reference execution per batch.
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(2654435761).wrapping_add(12345)
}

/// Builds the host-side initial table image (fully populated).
fn table_image() -> Vec<u8> {
    let mut bytes = vec![0u8; (BUCKETS * SLOTS * 16) as usize];
    for key in 0..KV_KEYSPACE {
        let bucket = mix_host(key) % BUCKETS as u64;
        // Linear probe within the bucket, then spill to the next bucket —
        // mirrors the IR lookup logic.
        let mut b = bucket;
        'outer: for _ in 0..BUCKETS {
            for s in 0..SLOTS as u64 {
                let off = ((b * SLOTS as u64 + s) * 16) as usize;
                let cur = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
                if cur == 0 {
                    bytes[off..off + 8].copy_from_slice(&(key + 1).to_le_bytes());
                    bytes[off + 8..off + 16].copy_from_slice(&value_of(key).to_le_bytes());
                    break 'outer;
                }
            }
            b = (b + 1) % BUCKETS as u64;
        }
    }
    bytes
}

fn mix_host(key: u64) -> u64 {
    let mut h = key ^ (key >> 33);
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^ (h >> 29)
}

/// Emits the mix64 hash of `key` and returns its bucket index (the IR
/// mirror of [`mix_host`]).
fn emit_bucket(
    b: &mut FunctionBuilder,
    key: haft_ir::function::ValueId,
) -> haft_ir::function::ValueId {
    let sh = b.bin(BinOp::LShr, Ty::I64, key, b.iconst(Ty::I64, 33));
    let x = b.bin(BinOp::Xor, Ty::I64, key, sh);
    let h = b.mul(Ty::I64, x, b.iconst(Ty::I64, 0xff51afd7ed558ccdu64 as i64));
    let sh2 = b.bin(BinOp::LShr, Ty::I64, h, b.iconst(Ty::I64, 29));
    let hm = b.bin(BinOp::Xor, Ty::I64, h, sh2);
    b.bin(BinOp::URem, Ty::I64, hm, b.iconst(Ty::I64, BUCKETS))
}

/// Emits the per-bucket lock address for `key`.
fn emit_lock_addr(
    b: &mut FunctionBuilder,
    locks: haft_ir::module::GlobalId,
    key: haft_ir::function::ValueId,
) -> haft_ir::function::ValueId {
    let bucket = emit_bucket(b, key);
    let off = b.mul(Ty::I64, bucket, b.iconst(Ty::I64, 64));
    b.add(Ty::I64, Operand::GlobalAddr(locks), off)
}

/// Protocol-block shape: independent lanes × serial rounds per lane.
/// Eight lanes of three-instruction rounds give the serve path the
/// wide, issue-bound profile of real request handling — memcached-class
/// servers spend the bulk of their per-request cycles outside the table
/// probe (protocol parsing, validation, reply serialization, integrity
/// checksums), and wide code is exactly where redundancy stops being
/// free on a width-limited core (paper §6: vips/x264 vs. matrixmul).
/// The depth is calibrated so the serve phase dominates the
/// backend-neutral costs (reply send, dispatch) the way compute
/// dominates a real server's op path.
const PROTO_LANES: u64 = 8;
const PROTO_ROUNDS: u64 = 36;

/// Host-side mirror of the serve path's protocol block: the request
/// parse/validate + reply-frame checksum folded into every reply.
/// Pure in the encoded op word, so golden replies stay host-computable.
pub fn protocol_frame(op_word: u64) -> u64 {
    let mut acc = 0u64;
    for lane in 1..=PROTO_LANES {
        let mut x = op_word ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane);
        for r in 0..PROTO_ROUNDS {
            x = x.wrapping_add(0x5A5A_A5A5_0F0F_F0F0 ^ (r << 7));
            x ^= x >> 13;
        }
        acc = acc.wrapping_add(x);
    }
    acc
}

/// Emits the IR mirror of [`protocol_frame`] over the loaded op word.
fn emit_protocol_frame(
    b: &mut FunctionBuilder,
    op: haft_ir::function::ValueId,
) -> haft_ir::function::ValueId {
    let mut acc: Option<haft_ir::function::ValueId> = None;
    for lane in 1..=PROTO_LANES {
        let k = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane);
        let mut x = b.bin(BinOp::Xor, Ty::I64, op, b.iconst(Ty::I64, k as i64));
        for r in 0..PROTO_ROUNDS {
            let c = 0x5A5A_A5A5_0F0F_F0F0u64 ^ (r << 7);
            x = b.add(Ty::I64, x, b.iconst(Ty::I64, c as i64));
            let sh = b.bin(BinOp::LShr, Ty::I64, x, b.iconst(Ty::I64, 13));
            x = b.bin(BinOp::Xor, Ty::I64, x, sh);
        }
        acc = Some(match acc {
            None => x,
            Some(a) => b.add(Ty::I64, a, x),
        });
    }
    acc.expect("at least one lane")
}

/// Emits one hash-table operation: hash → bucket → fixed-length slot
/// probe, reading or writing the value cell, leaving the reply in
/// `found_cell` and returning it. Shared by the batch [`memcached`]
/// workload and the request-serving [`kv_shard`] entry point.
fn emit_kv_handler(
    b: &mut FunctionBuilder,
    table: haft_ir::module::GlobalId,
    key: haft_ir::function::ValueId,
    found_cell: haft_ir::function::ValueId,
    atomic: bool,
    writes: bool,
) -> haft_ir::function::ValueId {
    let bucket = emit_bucket(b, key);
    let kp1 = b.add(Ty::I64, key, b.iconst(Ty::I64, 1));
    b.store(Ty::I64, b.iconst(Ty::I64, 0), found_cell);
    // Probe SLOTS slots of the bucket (keys are pre-populated so a
    // fixed-length scan always finds the key or established empties;
    // values stay deterministic).
    let base = b.mul(Ty::I64, bucket, b.iconst(Ty::I64, SLOTS * 16));
    let bucket_base = b.add(Ty::I64, Operand::GlobalAddr(table), base);
    b.counted_loop(b.iconst(Ty::I64, 0), b.iconst(Ty::I64, SLOTS), |b2, s| {
        let kcell = b2.gep(bucket_base, s, 16, 0);
        let kv = b2.load(Ty::I64, kcell);
        let is_key = b2.cmp(CmpOp::Eq, Ty::I64, kv, kp1);
        b2.if_then(is_key, |b3| {
            let vcell = b3.gep(bucket_base, s, 16, 8);
            // The lock-free variant accesses value cells atomically:
            // HAFT's shared-memory optimization requires data-race
            // freedom (§3.1), and these cells are hot under YCSB's
            // Zipfian keys.
            if writes {
                let val = b3.mul(Ty::I64, key, b3.iconst(Ty::I64, 2654435761));
                let v2 = b3.add(Ty::I64, val, b3.iconst(Ty::I64, 12345));
                if atomic {
                    b3.store_atomic(Ty::I64, v2, vcell);
                } else {
                    b3.store(Ty::I64, v2, vcell);
                }
                b3.store(Ty::I64, v2, found_cell);
            } else {
                let v =
                    if atomic { b3.load_atomic(Ty::I64, vcell) } else { b3.load(Ty::I64, vcell) };
                b3.store(Ty::I64, v, found_cell);
            }
        });
    });
    b.load(Ty::I64, found_cell)
}

/// Queries one [`memcached`] run serves at `scale` — the unit of its
/// throughput (the paper uses 1 M; the simulator uses proportionally
/// smaller streams).
pub fn memcached_ops(scale: Scale) -> i64 {
    scale.pick(2_000, 24_000)
}

/// Builds the memcached-like workload over [`memcached_ops`] queries.
pub fn memcached(mix: WorkloadMix, sync: KvSync, scale: Scale) -> Workload {
    let n_ops = memcached_ops(scale);
    let name = match (sync, mix) {
        (KvSync::Lock, WorkloadMix::A) => "memcached-lock-A",
        (KvSync::Lock, WorkloadMix::B) => "memcached-lock-B",
        (KvSync::Lock, WorkloadMix::D) => "memcached-lock-D",
        (KvSync::Lock, WorkloadMix::Uniform) => "memcached-lock-U",
        (KvSync::Atomics, WorkloadMix::A) => "memcached-atomics-A",
        (KvSync::Atomics, WorkloadMix::B) => "memcached-atomics-B",
        (KvSync::Atomics, WorkloadMix::D) => "memcached-atomics-D",
        (KvSync::Atomics, WorkloadMix::Uniform) => "memcached-atomics-U",
        (KvSync::Sei, WorkloadMix::A) => "memcached-sei-A",
        (KvSync::Sei, WorkloadMix::B) => "memcached-sei-B",
        (KvSync::Sei, WorkloadMix::D) => "memcached-sei-D",
        (KvSync::Sei, WorkloadMix::Uniform) => "memcached-sei-U",
    };
    let mut m = Module::new(name);
    let table = m.add_global_init("table", table_image());
    let mut gen = YcsbGen::new(0x6D63, KV_KEYSPACE);
    let ops = m.add_global_init("ops", gen.generate_encoded(mix, n_ops as usize));
    // Per-bucket locks, one cache line each.
    let locks = m.add_global("locks", (BUCKETS * 64) as u64);
    let acc = m.add_global("acc", (haft_workloads::spec::MAX_THREADS * 64) as u64);

    let mut w = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
    w.set_non_local();
    let tid = w.param(0);
    let nt = w.param(1);
    let (lo, hi) = thread_slice(&mut w, tid, nt, n_ops);
    let acc_off = w.mul(Ty::I64, tid, w.iconst(Ty::I64, 64));
    let my_acc = w.add(Ty::I64, Operand::GlobalAddr(acc), acc_off);
    let found_cell = w.alloc(w.iconst(Ty::I64, 8));

    w.counted_loop(lo, hi, |b, i| {
        let op_ptr = b.gep(Operand::GlobalAddr(ops), i, 8, 0);
        let op = b.load(Ty::I64, op_ptr);
        let kind = b.bin(BinOp::LShr, Ty::I64, op, b.iconst(Ty::I64, 56));
        let key = b.bin(BinOp::And, Ty::I64, op, b.iconst(Ty::I64, 0x00FF_FFFF_FFFF_FFFF));

        // Handler: hash -> bucket -> probe -> read or write.
        let atomic = matches!(sync, KvSync::Atomics);
        let emit_handler = |b: &mut FunctionBuilder, writes: bool| -> haft_ir::function::ValueId {
            emit_kv_handler(b, table, key, found_cell, atomic, writes)
        };

        let is_read = b.cmp(CmpOp::Eq, Ty::I64, kind, b.iconst(Ty::I64, 0));
        // Lock the bucket for Lock/Sei variants (computed before the
        // branch so both arms share it).
        let lock_addr = emit_lock_addr(b, locks, key);

        match sync {
            KvSync::Lock => {
                b.lock(lock_addr);
                let read_path =
                    |b: &mut FunctionBuilder| -> Operand { emit_handler(b, false).into() };
                let write_path =
                    |b: &mut FunctionBuilder| -> Operand { emit_handler(b, true).into() };
                let got = b.if_then_else(Ty::I64, is_read, read_path, write_path);
                b.unlock(lock_addr);
                let cur = b.load(Ty::I64, my_acc);
                let nxt = b.add(Ty::I64, cur, got);
                b.store(Ty::I64, nxt, my_acc);
            }
            KvSync::Atomics => {
                // Lock-free: reads probe without locks; writes use atomic
                // stores on the value cell (handled by the same handler —
                // the store is made atomic below via a fence-free model:
                // idempotent values make plain stores linearizable here,
                // but we still pay the atomic cost on the hot cell).
                let got = b.if_then_else(
                    Ty::I64,
                    is_read,
                    |b| emit_handler(b, false).into(),
                    |b| emit_handler(b, true).into(),
                );
                let cur = b.load(Ty::I64, my_acc);
                let nxt = b.add(Ty::I64, cur, got);
                b.store(Ty::I64, nxt, my_acc);
            }
            KvSync::Sei => {
                // SEI: the handler runs twice under the lock; the two
                // results are compared, and a CRC of the reply is chained
                // into the accumulator. Divergence is a fail-stop.
                b.lock(lock_addr);
                let first = b.if_then_else(
                    Ty::I64,
                    is_read,
                    |b| emit_handler(b, false).into(),
                    |b| emit_handler(b, true).into(),
                );
                let second = b.if_then_else(
                    Ty::I64,
                    is_read,
                    |b| emit_handler(b, false).into(),
                    |b| emit_handler(b, true).into(),
                );
                let same = b.cmp(CmpOp::Eq, Ty::I64, first, second);
                let fail = b.new_block();
                let okb = b.new_block();
                b.condbr(same, okb, fail);
                b.switch_to(fail);
                b.emit_op(IrOp::TxAbort { code: AbortCode::Explicit });
                b.switch_to(okb);
                // CRC-ish fold of the reply.
                let cur = b.load(Ty::I64, my_acc);
                let folded = b.mul(Ty::I64, cur, b.iconst(Ty::I64, 31));
                let nxt = b.add(Ty::I64, folded, first);
                b.store(Ty::I64, nxt, my_acc);
                b.unlock(lock_addr);
            }
        }
    });
    w.ret(None);
    m.push_func(w.finish());

    let mut f = FunctionBuilder::new("fini", &[], None);
    f.set_non_local();
    haft_workloads::helpers::emit_checksum_i64(
        &mut f,
        Operand::GlobalAddr(acc),
        haft_workloads::spec::MAX_THREADS * 8,
    );
    f.ret(None);
    m.push_func(f.finish());
    Workload::new(name, m, None, Some("worker"), Some("fini"))
}

/// Maximum requests one shard batch can carry: the size of the patched
/// request buffer in a [`kv_shard`] module.
pub const SHARD_CAPACITY: usize = 256;

/// Builds the request-serving shard entry point: the same bucketed hash
/// table as [`memcached`], but driven by a *patchable* request buffer
/// instead of a baked-in operation stream.
///
/// The module exposes three well-known globals a service harness (the
/// `haft-serve` crate) rewrites between runs via [`patch_requests`]:
/// `reqs` (up to [`SHARD_CAPACITY`] encoded operations), `n_reqs` (the
/// live count), and `replies` (one reply word per request). The `serve`
/// worker processes `reqs[0..n_reqs]` and records each reply at its
/// request index; `fini` then emits the replies in request order, so
/// `RunResult::output[i]` is exactly request *i*'s reply — the shape
/// per-request outcome classification needs.
///
/// Passes transform functions, never global data, so the harness patches
/// the *hardened* module copy directly and hardens once per
/// configuration, not once per batch.
pub fn kv_shard(sync: KvSync) -> Workload {
    let name = match sync {
        KvSync::Lock => "kv-shard-lock",
        KvSync::Atomics => "kv-shard-atomics",
        KvSync::Sei => "kv-shard-sei",
    };
    let mut m = Module::new(name);
    let table = m.add_global_init("table", table_image());
    let reqs = m.add_global("reqs", (SHARD_CAPACITY * 8) as u64);
    let n_reqs = m.add_global("n_reqs", 8);
    let replies = m.add_global("replies", (SHARD_CAPACITY * 8) as u64);
    let locks = m.add_global("locks", (BUCKETS * 64) as u64);

    // serve(tid, n_threads): one shard is one core, so the harness runs
    // this with a single simulated thread and the whole batch is ours.
    let mut w = FunctionBuilder::new("serve", &[Ty::I64, Ty::I64], None);
    w.set_non_local();
    let found_cell = w.alloc(w.iconst(Ty::I64, 8));
    let n = w.load(Ty::I64, Operand::GlobalAddr(n_reqs));
    let atomic = matches!(sync, KvSync::Atomics);
    w.counted_loop(w.iconst(Ty::I64, 0), n, |b, i| {
        let op_ptr = b.gep(Operand::GlobalAddr(reqs), i, 8, 0);
        let op = b.load(Ty::I64, op_ptr);
        let kind = b.bin(BinOp::LShr, Ty::I64, op, b.iconst(Ty::I64, 56));
        let key = b.bin(BinOp::And, Ty::I64, op, b.iconst(Ty::I64, 0x00FF_FFFF_FFFF_FFFF));
        // Reads take the read path; updates *and* inserts take the write
        // path (the table is fully populated, so an insert is an
        // idempotent overwrite — replies stay history-independent).
        let is_read = b.cmp(CmpOp::Eq, Ty::I64, kind, b.iconst(Ty::I64, 0));
        let reply_ptr = b.gep(Operand::GlobalAddr(replies), i, 8, 0);
        // Protocol handling: parse/validate the request and fold the
        // reply-frame checksum that serialization XORs into the reply.
        let frame = emit_protocol_frame(b, op);
        let emit_handler = |b: &mut FunctionBuilder, writes: bool| -> haft_ir::function::ValueId {
            emit_kv_handler(b, table, key, found_cell, atomic, writes)
        };
        match sync {
            KvSync::Lock => {
                let lock_addr = emit_lock_addr(b, locks, key);
                b.lock(lock_addr);
                let got = b.if_then_else(
                    Ty::I64,
                    is_read,
                    |b| emit_handler(b, false).into(),
                    |b| emit_handler(b, true).into(),
                );
                b.unlock(lock_addr);
                let framed = b.bin(BinOp::Xor, Ty::I64, got, frame);
                b.store(Ty::I64, framed, reply_ptr);
            }
            KvSync::Atomics => {
                let got = b.if_then_else(
                    Ty::I64,
                    is_read,
                    |b| emit_handler(b, false).into(),
                    |b| emit_handler(b, true).into(),
                );
                let framed = b.bin(BinOp::Xor, Ty::I64, got, frame);
                b.store(Ty::I64, framed, reply_ptr);
            }
            KvSync::Sei => {
                // SEI baseline: the handler runs twice under the lock and
                // a divergence is a fail-stop.
                let lock_addr = emit_lock_addr(b, locks, key);
                b.lock(lock_addr);
                let first = b.if_then_else(
                    Ty::I64,
                    is_read,
                    |b| emit_handler(b, false).into(),
                    |b| emit_handler(b, true).into(),
                );
                let second = b.if_then_else(
                    Ty::I64,
                    is_read,
                    |b| emit_handler(b, false).into(),
                    |b| emit_handler(b, true).into(),
                );
                let same = b.cmp(CmpOp::Eq, Ty::I64, first, second);
                let fail = b.new_block();
                let okb = b.new_block();
                b.condbr(same, okb, fail);
                b.switch_to(fail);
                b.emit_op(IrOp::TxAbort { code: AbortCode::Explicit });
                b.switch_to(okb);
                let framed = b.bin(BinOp::Xor, Ty::I64, first, frame);
                b.store(Ty::I64, framed, reply_ptr);
                b.unlock(lock_addr);
            }
        }
    });
    w.ret(None);
    m.push_func(w.finish());

    // fini: externalize the replies in request order — the "network
    // send". Marked *external*: the send path is a syscall boundary,
    // outside the hardening domain for HAFT and Elzar alike (the same
    // coverage gap the paper's unprotected-libc analysis measures), so
    // no backend pays hardening cost here and the serve phase is where
    // the backends differ.
    let mut f = FunctionBuilder::new("fini", &[], None);
    f.set_external();
    let n = f.load(Ty::I64, Operand::GlobalAddr(n_reqs));
    f.counted_loop(f.iconst(Ty::I64, 0), n, |b, i| {
        let p = b.gep(Operand::GlobalAddr(replies), i, 8, 0);
        let v = b.load(Ty::I64, p);
        b.emit_out(Ty::I64, v);
    });
    f.ret(None);
    m.push_func(f.finish());
    Workload::new(name, m, None, Some("serve"), Some("fini"))
}

/// Patches a [`kv_shard`] module so its next run serves exactly `ops`:
/// the `reqs` and `n_reqs` initialisers are replaced with new buffers,
/// and every other global (the `table` image) stays shared with the
/// module's clones. Works on hardened copies too — hardening never
/// touches global data.
///
/// # Panics
///
/// Panics if `ops` exceeds [`SHARD_CAPACITY`] or the module lacks the
/// shard globals (i.e. was not built by [`kv_shard`]).
pub fn patch_requests(m: &mut Module, ops: &[crate::ycsb::Op]) {
    assert!(ops.len() <= SHARD_CAPACITY, "batch of {} exceeds SHARD_CAPACITY", ops.len());
    let reqs = m
        .global_by_name("reqs")
        .unwrap_or_else(|| panic!("{}: not a kv_shard module (no `reqs` global)", m.name));
    let n_reqs = m.global_by_name("n_reqs").expect("kv_shard module has `n_reqs`");
    let mut bytes = Vec::with_capacity(ops.len() * 8);
    for op in ops {
        bytes.extend_from_slice(&op.encode().to_le_bytes());
    }
    let n = (ops.len() as u64).to_le_bytes().to_vec();
    m.globals[reqs.0 as usize].init = GlobalInit::Bytes(Arc::new(bytes));
    m.globals[n_reqs.0 as usize].init = GlobalInit::Bytes(Arc::new(n));
}

/// Host-side golden reply for one operation: values are deterministic
/// and updates idempotent, so the correct reply is [`value_of`] the key
/// XOR the request's [`protocol_frame`], for every op kind and
/// independent of history.
pub fn golden_reply(op: crate::ycsb::Op) -> u64 {
    value_of(op.key()) ^ protocol_frame(op.encode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft::Experiment;
    use haft_vm::{RunOutcome, VmConfig};

    fn run(w: &Workload, threads: usize, seed: u64) -> haft_vm::RunResult {
        let cfg = VmConfig { n_threads: threads, seed, ..Default::default() };
        Experiment::workload(w).vm(cfg).run().run
    }

    #[test]
    fn all_variants_complete() {
        for sync in [KvSync::Lock, KvSync::Atomics, KvSync::Sei] {
            for mix in [WorkloadMix::A, WorkloadMix::D, WorkloadMix::Uniform] {
                let w = memcached(mix, sync, Scale::Small);
                haft_ir::verify::verify_module(&w.module)
                    .unwrap_or_else(|e| panic!("{}: {e:?}", w.name));
                let r = run(&w, 2, 1);
                assert_eq!(r.outcome, RunOutcome::Completed, "{}", w.name);
                assert!(!r.output.is_empty());
            }
        }
    }

    #[test]
    fn output_schedule_independent() {
        for sync in [KvSync::Lock, KvSync::Atomics] {
            let w = memcached(WorkloadMix::A, sync, Scale::Small);
            let a = run(&w, 4, 11);
            let b = run(&w, 4, 99);
            assert_eq!(a.output, b.output, "{} schedule-dependent", w.name);
        }
    }

    #[test]
    fn sei_doubles_handler_work() {
        let plain = memcached(WorkloadMix::A, KvSync::Lock, Scale::Small);
        let sei = memcached(WorkloadMix::A, KvSync::Sei, Scale::Small);
        let rp = run(&plain, 1, 1);
        let rs = run(&sei, 1, 1);
        assert!(
            rs.instructions as f64 > rp.instructions as f64 * 1.6,
            "sei {} vs lock {}",
            rs.instructions,
            rp.instructions
        );
    }

    /// The serving entry point: for every sync variant, a patched batch
    /// produces exactly the host-side golden replies, in request order.
    #[test]
    fn kv_shard_replies_match_golden() {
        let mut gen = YcsbGen::new(0x5EED, KV_KEYSPACE);
        let ops = gen.generate(WorkloadMix::B, 48);
        let golden: Vec<u64> = ops.iter().map(|&o| golden_reply(o)).collect();
        for sync in [KvSync::Lock, KvSync::Atomics, KvSync::Sei] {
            let mut w = kv_shard(sync);
            patch_requests(&mut w.module, &ops);
            haft_ir::verify::verify_module(&w.module)
                .unwrap_or_else(|e| panic!("{}: {e:?}", w.name));
            let r = run(&w, 1, 7);
            assert_eq!(r.outcome, RunOutcome::Completed, "{}", w.name);
            assert_eq!(r.output, golden, "{}: replies diverge from value function", w.name);
        }
    }

    /// Re-patching replaces the previous batch entirely — including a
    /// shorter batch, whose stale tail must not leak into the replies.
    #[test]
    fn kv_shard_repatching_replaces_batch() {
        let mut w = kv_shard(KvSync::Atomics);
        let mut gen = YcsbGen::new(3, KV_KEYSPACE);
        let first = gen.generate(WorkloadMix::A, 32);
        patch_requests(&mut w.module, &first);
        let a = run(&w, 1, 1);
        assert_eq!(a.output.len(), 32);
        let second = gen.generate(WorkloadMix::A, 5);
        patch_requests(&mut w.module, &second);
        let b = run(&w, 1, 1);
        assert_eq!(b.output, second.iter().map(|&o| golden_reply(o)).collect::<Vec<_>>());
    }

    /// Hardening must preserve replies bit-for-bit (the property the
    /// serving harness leans on to classify per-request outcomes).
    #[test]
    fn kv_shard_hardened_replies_are_native_replies() {
        use haft_passes::HardenConfig;
        let mut w = kv_shard(KvSync::Atomics);
        let mut gen = YcsbGen::new(9, KV_KEYSPACE);
        patch_requests(&mut w.module, &gen.generate(WorkloadMix::B, 24));
        let cfg = VmConfig { n_threads: 1, seed: 5, ..Default::default() };
        let native = Experiment::workload(&w).vm(cfg.clone()).run().run;
        for hc in [HardenConfig::haft(), HardenConfig::tmr()] {
            let label = hc.label();
            let r = Experiment::workload(&w).vm(cfg.clone()).harden(hc).run().run;
            assert_eq!(r.outcome, RunOutcome::Completed, "{label}");
            assert_eq!(r.output, native.output, "{label}: hardened replies diverged");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds SHARD_CAPACITY")]
    fn oversized_batch_is_rejected() {
        let mut w = kv_shard(KvSync::Atomics);
        let ops = vec![crate::ycsb::Op::Read(1); SHARD_CAPACITY + 1];
        patch_requests(&mut w.module, &ops);
    }

    #[test]
    fn table_image_is_fully_populated() {
        let img = table_image();
        let mut found = 0;
        for off in (0..img.len()).step_by(16) {
            let k = u64::from_le_bytes(img[off..off + 8].try_into().unwrap());
            if k != 0 {
                found += 1;
                let v = u64::from_le_bytes(img[off + 8..off + 16].try_into().unwrap());
                assert_eq!(v, value_of(k - 1));
            }
        }
        assert_eq!(found, KV_KEYSPACE as usize, "every key present exactly once");
    }
}
