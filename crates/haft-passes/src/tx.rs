//! Transactification (TX) — fault recovery.
//!
//! Covers the whole program in hardware transactions (paper §3.2). The
//! granularity is functions and loops: unconditional `tx_begin`/`tx_end`
//! at the boundaries of externally-callable functions, conditional splits
//! (`tx_cond_split`) at loop headers and local-function boundaries, and
//! per-thread instruction-counter increments (`tx_counter_inc`) at loop
//! latches and local-call sites so the run-time threshold bounds the
//! transaction size. External calls and transaction-unfriendly operations
//! (externalization, real lock operations) are bracketed pessimistically
//! with `tx_end`/`tx_begin`.

use haft_ir::cfg::Cfg;
use haft_ir::dom::DomTree;
use haft_ir::function::{BlockId, Function, InstId, Room};
use haft_ir::inst::{Callee, Op};
use haft_ir::loops::{longest_path, longest_paths_to_latches, retreating_edges, LoopForest};
use haft_ir::module::Module;

/// TX configuration.
#[derive(Clone, Debug)]
pub struct TxConfig {
    /// The local-function-call optimization (paper §3.3): replace the
    /// begin/end bracket around calls to local functions with a counter
    /// increment plus conditional split.
    pub local_calls_opt: bool,
    /// Keep lock/unlock inside transactions for the run-time lock-elision
    /// wrapper; when false, lock operations are bracketed like external
    /// calls.
    pub lock_elision: bool,
    /// Remove `tx_begin` immediately followed by `tx_end` (paper peephole).
    pub peephole: bool,
}

impl Default for TxConfig {
    fn default() -> Self {
        TxConfig { local_calls_opt: true, lock_elision: false, peephole: true }
    }
}

/// Applies TX to every non-external function of the module.
pub fn run_tx_module(m: &mut Module, cfg: &TxConfig) {
    // Snapshot which functions are local/external for call-site decisions.
    let kinds: Vec<CalleeKind> = m
        .funcs
        .iter()
        .map(|f| {
            if f.attrs.external {
                CalleeKind::External
            } else if f.attrs.local {
                CalleeKind::Local
            } else {
                CalleeKind::NonLocal
            }
        })
        .collect();
    for f in &mut m.funcs {
        if !f.attrs.external {
            run_tx(Function::make_mut(f, |f| room(f, cfg)), cfg, &kinds);
        }
    }
}

/// What [`run_tx`] can add to `f`, bounded from `f` before it runs: the
/// entry's begin or split, one instruction before each return, a pair
/// around each call and each other bracketed op, and per loop its split
/// and one increment per back edge. It creates no value and no block.
///
/// ILR neither adds nor removes any of these returns, calls, brackets or
/// loops, so the bound taken from ILR's input holds for its output too:
/// the ILR-then-TX pipeline sizes both passes' room from its input.
pub(crate) fn room(f: &Function, cfg: &TxConfig) -> Room {
    let (back_edges, headers) = retreating_edges(f);
    let mut insts = 1 + back_edges + headers.len();
    for &id in f.blocks.iter().flat_map(|b| &b.insts) {
        insts += match f.inst(id).op {
            Op::Ret { .. } => 1,
            Op::Call { .. } | Op::Emit { .. } => 2,
            Op::Lock { .. } | Op::Unlock { .. } if !cfg.lock_elision => 2,
            _ => 0,
        };
    }
    Room { insts, values: 0, blocks: 0 }
}

/// How a call target behaves for transactification purposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CalleeKind {
    /// Hardened, only called from hardened code.
    Local,
    /// Hardened but externally callable (manages its own transactions).
    NonLocal,
    /// Unprotected library code.
    External,
}

/// Applies TX to one function.
pub fn run_tx(f: &mut Function, cfg: &TxConfig, kinds: &[CalleeKind]) {
    // Phase 1: loop instrumentation at precomputed positions. It only
    // inserts into existing blocks, so its CFG stays the function's.
    let graph = Cfg::compute(f);
    instrument_loops(f, &graph);

    // Phase 2: linear rewrite for entries, returns, calls, and unfriendly
    // instructions.
    let use_local_opt = cfg.local_calls_opt && f.attrs.local;
    // The counter increment charged when a local function returns: the
    // longest acyclic instruction path through it (back edges ignored).
    let fn_len = longest_path(f, &graph, f.entry(), &|_| true);
    for b in 0..f.blocks.len() {
        let old = std::mem::take(&mut f.blocks[b].insts);
        let mut new: Vec<InstId> = Vec::with_capacity(old.len() + 4);
        if b == 0 {
            if use_local_opt {
                let (split, _) = f.create_inst(Op::TxCondSplit);
                new.push(split);
            } else {
                let (begin, _) = f.create_inst(Op::TxBegin);
                new.push(begin);
            }
        }
        for iid in old {
            match f.inst(iid).op.clone() {
                Op::Ret { .. } => {
                    if use_local_opt {
                        let (inc, _) = f.create_inst(Op::TxCounterInc { amount: fn_len });
                        new.push(inc);
                    } else {
                        let (end, _) = f.create_inst(Op::TxEnd);
                        new.push(end);
                    }
                    new.push(iid);
                }
                Op::Call { callee, args, .. } => {
                    let kind = match callee {
                        Callee::Direct(fid) => {
                            kinds.get(fid.0 as usize).copied().unwrap_or(CalleeKind::External)
                        }
                        // Indirect targets are unknown: treated as external
                        // (the paper's SQLite function-pointer cost).
                        Callee::Indirect(_) => CalleeKind::External,
                    };
                    if kind == CalleeKind::Local && cfg.local_calls_opt {
                        let (inc, _) =
                            f.create_inst(Op::TxCounterInc { amount: 1 + args.len() as u32 });
                        new.push(inc);
                        new.push(iid);
                        let (split, _) = f.create_inst(Op::TxCondSplit);
                        new.push(split);
                    } else {
                        let (end, _) = f.create_inst(Op::TxEnd);
                        new.push(end);
                        new.push(iid);
                        let (begin, _) = f.create_inst(Op::TxBegin);
                        new.push(begin);
                    }
                }
                Op::Emit { .. } => {
                    let (end, _) = f.create_inst(Op::TxEnd);
                    new.push(end);
                    new.push(iid);
                    let (begin, _) = f.create_inst(Op::TxBegin);
                    new.push(begin);
                }
                Op::Lock { .. } | Op::Unlock { .. } if !cfg.lock_elision => {
                    // Like the pthread library calls they model: executed
                    // outside transactions.
                    let (end, _) = f.create_inst(Op::TxEnd);
                    new.push(end);
                    new.push(iid);
                    let (begin, _) = f.create_inst(Op::TxBegin);
                    new.push(begin);
                }
                _ => new.push(iid),
            }
        }
        f.blocks[b].insts = new;
    }

    if cfg.peephole {
        peephole_begin_end(f);
    }
}

/// Inserts a conditional split at each loop header and a counter increment
/// at each latch (amount = longest acyclic path through the body, i.e. the
/// paper's worst-case iteration size).
fn instrument_loops(f: &mut Function, cfg: &Cfg) {
    let dom = DomTree::compute(f, cfg);
    let forest = LoopForest::compute(f, cfg, &dom);

    // (block, position) -> instruction to insert.
    let mut insertions: Vec<(BlockId, usize, Op)> = Vec::new();
    for l in &forest.loops {
        let (split_block, split_pos) = split_insert_point(f, l.header);
        insertions.push((split_block, split_pos, Op::TxCondSplit));
        for (latch, amount) in longest_paths_to_latches(f, cfg, l) {
            let pos = f.blocks[latch.0 as usize].insts.len().saturating_sub(1);
            insertions.push((latch, pos, Op::TxCounterInc { amount }));
        }
    }
    // Apply bottom-up so earlier positions stay valid.
    insertions.sort_by_key(|&(b, pos, _)| std::cmp::Reverse((b, pos)));
    for (b, pos, op) in insertions {
        let (iid, _) = f.create_inst(op);
        f.blocks[b.0 as usize].insts.insert(pos, iid);
    }
}

/// Finds where the conditional split goes in a loop header: after the phi
/// group, and after any ILR fault-propagation checks — the paper moves
/// those checks "inside the conditional transaction split" so they run
/// right before the previous transaction commits.
fn split_insert_point(f: &Function, header: BlockId) -> (BlockId, usize) {
    let mut b = header;
    loop {
        let insts = &f.blocks[b.0 as usize].insts;
        let phi_end = insts.iter().position(|i| !f.inst(*i).op.is_phi()).unwrap_or(insts.len());
        // A block that is exactly [phis..., fprop cmp, condbr] chains into
        // its continuation.
        if insts.len() == phi_end + 2 {
            let cmp = &f.inst(insts[phi_end]);
            let cbr = &f.inst(insts[phi_end + 1]);
            if cmp.meta.fprop_check {
                if let Op::CondBr { f: cont, .. } = cbr.op {
                    b = cont;
                    continue;
                }
            }
        }
        return (b, phi_end);
    }
}

/// Removes `tx_begin` immediately followed by `tx_end` (dead transactions
/// produced by composing the bracket rules).
fn peephole_begin_end(f: &mut Function) {
    for b in 0..f.blocks.len() {
        loop {
            let insts = &f.blocks[b].insts;
            let mut kill: Option<usize> = None;
            for i in 0..insts.len().saturating_sub(1) {
                let a = &f.inst(insts[i]).op;
                let z = &f.inst(insts[i + 1]).op;
                if matches!(a, Op::TxBegin) && matches!(z, Op::TxEnd) {
                    kill = Some(i);
                    break;
                }
            }
            match kill {
                Some(i) => {
                    f.blocks[b].insts.drain(i..=i + 1);
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests;
