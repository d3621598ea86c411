//! Superscalar scoreboard cost model.
//!
//! Each simulated thread owns a scoreboard: instructions issue in a
//! [`WIDTH`]-wide stream (structural constraint `issued / WIDTH`) but
//! complete out of order at `max(structural, operands_ready) + latency`.
//! Thread time is the maximum completion time seen. This abstracts a
//! Haswell-class out-of-order core just enough for the paper's performance
//! claims to be *mechanistic* rather than curve-fit:
//!
//! * a latency-bound kernel (serial FP accumulation, pointer chasing) has
//!   idle issue slots, so the ILR shadow flow — which depends only on
//!   shadow values — executes "for free" (paper: matrixmul, +5 %);
//! * a throughput-bound kernel saturates the issue width, so doubling the
//!   instruction stream roughly doubles runtime (paper: vips, 4× with the
//!   extra TX bookkeeping);
//! * the thread-local transaction counter forms a serial
//!   load-add-store-compare chain through `counter_ready`, reproducing the
//!   paper's observation that counter updates can cost more than the
//!   transactions they save (vips vs. vips-nc).
//!
//! The core is the paper's one testbed, so its latencies are constants.

use haft_ir::inst::{BinOp, Op, UnOp};

/// Sustainable issue width (instructions per cycle).
pub(crate) const WIDTH: u64 = 3;
/// Reorder-buffer depth: an instruction cannot start before the one
/// issued `ROB` slots earlier has completed. Bounds how far the
/// out-of-order core can overlap independent dependency chains (without
/// it, back-to-back accumulator loops would overlap without limit and
/// everything would look throughput-bound).
pub(crate) const ROB: usize = 192;
/// Simple ALU / compare / move latency.
pub(crate) const LAT_INT: u64 = 1;
/// Integer multiply.
pub(crate) const LAT_MUL: u64 = 3;
/// Integer divide.
pub(crate) const LAT_DIV: u64 = 21;
/// FP add/sub.
pub(crate) const LAT_FADD: u64 = 3;
/// FP multiply.
pub(crate) const LAT_FMUL: u64 = 5;
/// FP divide.
pub(crate) const LAT_FDIV: u64 = 18;
/// FP square root.
pub(crate) const LAT_FSQRT: u64 = 20;
/// Transcendentals (exp/ln).
pub(crate) const LAT_FTRANS: u64 = 30;
/// L1-hit load.
pub(crate) const LAT_LOAD_HIT: u64 = 4;
/// L1-miss load (L2/L3 blend).
pub(crate) const LAT_LOAD_MISS: u64 = 32;
/// Store (retires into the store buffer).
pub(crate) const LAT_STORE: u64 = 1;
/// Locked/atomic memory operation.
pub(crate) const LAT_ATOMIC: u64 = 22;
/// Taken-branch / fall-through cost.
pub(crate) const LAT_BRANCH: u64 = 1;
/// Extra cycles on a mispredicted conditional branch.
pub(crate) const MISPREDICT_PENALTY: u64 = 14;
/// Call / return bookkeeping.
pub(crate) const LAT_CALL: u64 = 2;
/// `XBEGIN` (register checkpoint + tracking on).
pub(crate) const LAT_TX_BEGIN: u64 = 45;
/// `XEND` (commit, write-set flush).
pub(crate) const LAT_TX_END: u64 = 32;
/// Conditional-split check when the threshold is not reached
/// (load + compare + predicted branch on the counter).
pub(crate) const LAT_TX_SPLIT_CHECK: u64 = 3;
/// Counter increment (load-add-store on the thread-local counter).
pub(crate) const LAT_COUNTER_INC: u64 = 4;
/// Cycles wasted by an abort beyond the rolled-back work
/// (pipeline flush + restart).
pub(crate) const ABORT_PENALTY: u64 = 160;
/// Uncontended lock acquire.
pub(crate) const LAT_LOCK: u64 = 40;
/// Lock release.
pub(crate) const LAT_UNLOCK: u64 = 16;
/// Majority vote over three value copies (TMR backend): two compares
/// plus a conditional move, fused.
pub(crate) const LAT_VOTE: u64 = 2;
/// Externalization (`emit`) — a syscall-ish cost.
pub(crate) const LAT_EMIT: u64 = 150;
/// Heap allocation.
pub(crate) const LAT_ALLOC: u64 = 40;

/// Latency of a compute opcode (memory, control, and intrinsics are
/// priced by the VM, which has the required context).
pub(crate) fn compute_latency(op: &Op) -> u64 {
    match op {
        Op::Bin { op, .. } => match op {
            BinOp::Mul => LAT_MUL,
            BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem => LAT_DIV,
            BinOp::FAdd | BinOp::FSub => LAT_FADD,
            BinOp::FMul => LAT_FMUL,
            BinOp::FDiv => LAT_FDIV,
            _ => LAT_INT,
        },
        Op::Un { op, .. } => match op {
            UnOp::FSqrt => LAT_FSQRT,
            UnOp::FExp | UnOp::FLn => LAT_FTRANS,
            _ => LAT_INT,
        },
        // Phis are renames resolved at the branch.
        Op::Phi { .. } => 0,
        _ => LAT_INT,
    }
}

/// The reorder window's ring: the power of two at or above [`ROB`], so
/// instruction `n` lives at `n & (RING - 1)` and the one issued `ROB`
/// earlier at `(n + RING - ROB) & (RING - 1)` — no wrap branch, and an
/// index the compiler can see is in bounds.
const RING: usize = ROB.next_power_of_two();

/// Per-thread issue/completion clock of a [`WIDTH`]-wide core with a
/// [`ROB`]-deep reorder window.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Scoreboard {
    /// Instructions issued so far.
    pub issued: u64,
    /// Completion time of the latest-finishing instruction.
    pub clock: u64,
    /// Earliest time the next instruction may start (set by pipeline
    /// flushes: mispredicts, aborts, blocking).
    pub floor: u64,
    /// `issued / WIDTH` (the structural issue time) and `issued % WIDTH`,
    /// maintained incrementally so the issue path divides nothing.
    q: u64,
    r: u64,
    /// Completion times of the last `ROB` instructions.
    ring: [u64; RING],
}

impl Scoreboard {
    /// A scoreboard at time zero.
    pub fn new() -> Self {
        Scoreboard { issued: 0, clock: 0, floor: 0, q: 0, r: 0, ring: [0; RING] }
    }

    /// Back to the just-constructed state.
    pub fn reset(&mut self) {
        *self = Scoreboard::new();
    }

    /// Takes the next issue slot: its structural issue time, the ring
    /// entry that receives this instruction's completion time, and the
    /// completion time of the instruction `ROB` slots back (zero while the
    /// window has never filled: the ring starts all-zero, so there is no
    /// emptiness branch).
    #[inline(always)]
    fn slot(&mut self) -> (u64, &mut u64, u64) {
        let structural = self.q;
        self.r += 1;
        if self.r == WIDTH {
            self.r = 0;
            self.q += 1;
        }
        let n = self.issued as usize;
        self.issued += 1;
        let rob_ready = self.ring[(n + RING - ROB) & (RING - 1)];
        (structural, &mut self.ring[n & (RING - 1)], rob_ready)
    }

    /// Issues one instruction whose operands are ready at `ready` and that
    /// takes `latency` cycles; returns its completion time.
    #[inline(always)]
    pub fn issue(&mut self, ready: u64, latency: u64) -> u64 {
        let floor = self.floor;
        let (structural, slot, rob_ready) = self.slot();
        // Reorder-window constraint: wait for the instruction issued
        // `ROB` slots ago to complete. The operand-independent terms fold
        // first, so a dependent chain's critical path is one `max` (exact:
        // `max` is associative and commutative).
        let done = ready.max(structural.max(floor).max(rob_ready)) + latency;
        *slot = done;
        self.clock = self.clock.max(done);
        done
    }

    /// The earliest time any instruction can issue from now on: its
    /// structural issue time and the floor only rise, until [`reset`].
    ///
    /// [`reset`]: Scoreboard::reset
    pub fn horizon(&self) -> u64 {
        self.q.max(self.floor)
    }

    /// Raises the floor (pipeline flush) to `t`.
    #[inline]
    pub fn flush_to(&mut self, t: u64) {
        self.floor = self.floor.max(t);
        self.clock = self.clock.max(t);
    }

    /// Issues a fully serializing instruction: it waits for *all* earlier
    /// work to complete (pipeline drain) and nothing later starts before
    /// it finishes. Models `XBEGIN`/`XEND`, syscalls, and lock operations.
    pub fn issue_serial(&mut self, latency: u64) -> u64 {
        let (clock, floor) = (self.clock, self.floor);
        let (structural, slot, _) = self.slot();
        let done = structural.max(clock).max(floor) + latency;
        *slot = done;
        self.clock = done;
        self.floor = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft_ir::inst::Operand;
    use haft_ir::types::Ty;

    #[test]
    fn independent_ops_pipeline_at_width() {
        let mut sb = Scoreboard::new();
        // 30 independent 1-cycle ops on a 3-wide machine: ~10 cycles.
        let mut last = 0;
        for _ in 0..30 {
            last = sb.issue(0, 1);
        }
        assert_eq!(last, 10);
        assert_eq!(sb.clock, 10);
    }

    #[test]
    fn dependent_chain_is_latency_bound() {
        let mut sb = Scoreboard::new();
        // Chain of 10 ops, each 5 cycles, each depending on the previous.
        let mut ready = 0;
        for _ in 0..10 {
            ready = sb.issue(ready, 5);
        }
        assert_eq!(ready, 50);
    }

    #[test]
    fn shadow_flow_hides_in_idle_slots() {
        // Master chain: 10 dependent 5-cycle ops. Shadow chain: same, but
        // independent of the master. Interleaved on a 3-wide machine the
        // total time stays ~50 cycles, not 100 — the ILR free-lunch case.
        let mut sb = Scoreboard::new();
        let (mut m_ready, mut s_ready) = (0, 0);
        for _ in 0..10 {
            m_ready = sb.issue(m_ready, 5);
            s_ready = sb.issue(s_ready, 5);
        }
        assert!(sb.clock <= 56, "clock = {}", sb.clock);
    }

    #[test]
    fn throughput_bound_code_doubles() {
        // 300 independent ops at width 3 = 100 cycles; 600 = 200 cycles.
        let mut a = Scoreboard::new();
        for _ in 0..300 {
            a.issue(0, 1);
        }
        let mut b = Scoreboard::new();
        for _ in 0..600 {
            b.issue(0, 1);
        }
        assert!(b.clock >= 2 * a.clock - 2);
    }

    #[test]
    fn floor_delays_subsequent_issues() {
        let mut sb = Scoreboard::new();
        sb.issue(0, 1);
        sb.flush_to(100);
        let done = sb.issue(0, 1);
        assert_eq!(done, 101);
    }

    /// The scoreboard written the obvious way: a division for the
    /// structural time, a `VecDeque` of the last `ROB` completions.
    #[derive(Default)]
    struct NaiveSb {
        issued: u64,
        clock: u64,
        floor: u64,
        window: std::collections::VecDeque<u64>,
    }

    impl NaiveSb {
        /// `(structural issue time, completion of the op `ROB` back)`.
        fn slot(&mut self) -> (u64, u64) {
            let structural = self.issued / WIDTH;
            self.issued += 1;
            let full = self.window.len() == ROB;
            (structural, if full { self.window.pop_front().unwrap() } else { 0 })
        }

        fn issue(&mut self, ready: u64, latency: u64) -> u64 {
            let (structural, rob_ready) = self.slot();
            let done = structural.max(ready).max(self.floor).max(rob_ready) + latency;
            self.window.push_back(done);
            self.clock = self.clock.max(done);
            done
        }

        fn issue_serial(&mut self, latency: u64) -> u64 {
            let (structural, _) = self.slot();
            let done = structural.max(self.clock).max(self.floor) + latency;
            self.window.push_back(done);
            (self.clock, self.floor) = (done, done);
            done
        }
    }

    /// The core has one geometry ([`WIDTH`], [`ROB`]); the random stream
    /// wraps its ring many times over.
    #[test]
    fn ring_equals_the_naive_window_for_every_geometry() {
        let mut rng = haft_ir::rng::Prng::new(0x5B);
        let mut sb = Scoreboard::new();
        // Two lives of one scoreboard: `reset` must forget the first.
        for life in 0..2 {
            let mut naive = NaiveSb::default();
            for step in 0..20_000 {
                let at = format!("life {life} step {step}");
                match rng.below(16) {
                    0 => assert_eq!(sb.issue_serial(7), naive.issue_serial(7), "{at}"),
                    1 => {
                        let t = naive.clock + rng.below(40);
                        sb.flush_to(t);
                        naive.floor = naive.floor.max(t);
                        naive.clock = naive.clock.max(t);
                    }
                    _ => {
                        // Ready times around the clock, so every term of
                        // the `max` gets to win.
                        let ready = (naive.clock + rng.below(24)).saturating_sub(12);
                        let lat = 1 + rng.below(30);
                        assert_eq!(sb.issue(ready, lat), naive.issue(ready, lat), "{at}");
                    }
                }
                let state = (sb.issued, sb.clock, sb.floor);
                assert_eq!(state, (naive.issued, naive.clock, naive.floor), "{at}");
            }
            sb.reset();
        }
    }

    #[test]
    fn latencies_by_opcode_class() {
        let add = Op::Bin {
            op: BinOp::Add,
            ty: Ty::I64,
            a: Operand::imm(0, Ty::I64),
            b: Operand::imm(0, Ty::I64),
        };
        let div = Op::Bin {
            op: BinOp::SDiv,
            ty: Ty::I64,
            a: Operand::imm(0, Ty::I64),
            b: Operand::imm(1, Ty::I64),
        };
        let sqrt = Op::Un { op: UnOp::FSqrt, ty: Ty::F64, a: Operand::f64(1.0) };
        assert_eq!(compute_latency(&add), LAT_INT);
        assert_eq!(compute_latency(&div), LAT_DIV);
        assert_eq!(compute_latency(&sqrt), LAT_FSQRT);
        assert_eq!(compute_latency(&Op::Phi { ty: Ty::I64, incomings: vec![] }), 0);
    }
}
