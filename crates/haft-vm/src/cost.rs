//! Superscalar scoreboard cost model.
//!
//! Each simulated thread owns a scoreboard: instructions issue in a
//! `width`-wide stream (structural constraint `issued / width`) but
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

use haft_ir::inst::{BinOp, Op, UnOp};

/// Latency and width parameters of the simulated core.
#[derive(Clone, Debug)]
pub struct CostConfig {
    /// Sustainable issue width (instructions per cycle).
    pub width: u64,
    /// Simple ALU / compare / move latency.
    pub lat_int: u64,
    /// Integer multiply.
    pub lat_mul: u64,
    /// Integer divide.
    pub lat_div: u64,
    /// FP add/sub.
    pub lat_fadd: u64,
    /// FP multiply.
    pub lat_fmul: u64,
    /// FP divide.
    pub lat_fdiv: u64,
    /// FP square root.
    pub lat_fsqrt: u64,
    /// Transcendentals (exp/ln).
    pub lat_ftrans: u64,
    /// L1-hit load.
    pub lat_load_hit: u64,
    /// L1-miss load (L2/L3 blend).
    pub lat_load_miss: u64,
    /// Store (retires into the store buffer).
    pub lat_store: u64,
    /// Locked/atomic memory operation.
    pub lat_atomic: u64,
    /// Taken-branch / fall-through cost.
    pub lat_branch: u64,
    /// Extra cycles on a mispredicted conditional branch.
    pub mispredict_penalty: u64,
    /// Call / return bookkeeping.
    pub lat_call: u64,
    /// `XBEGIN` (register checkpoint + tracking on).
    pub lat_tx_begin: u64,
    /// `XEND` (commit, write-set flush).
    pub lat_tx_end: u64,
    /// Conditional-split check when the threshold is not reached
    /// (load + compare + predicted branch on the counter).
    pub lat_tx_split_check: u64,
    /// Counter increment (load-add-store on the thread-local counter).
    pub lat_counter_inc: u64,
    /// Cycles wasted by an abort beyond the rolled-back work
    /// (pipeline flush + restart).
    pub abort_penalty: u64,
    /// Uncontended lock acquire.
    pub lat_lock: u64,
    /// Lock release.
    pub lat_unlock: u64,
    /// Majority vote over three value copies (TMR backend): two compares
    /// plus a conditional move, fused.
    pub lat_vote: u64,
    /// Externalization (`emit`) — a syscall-ish cost.
    pub lat_emit: u64,
    /// Heap allocation.
    pub lat_alloc: u64,
    /// Reorder-buffer depth: an instruction cannot start before the one
    /// issued `rob` slots earlier has completed. Bounds how far the
    /// out-of-order core can overlap independent dependency chains
    /// (without it, back-to-back accumulator loops would overlap without
    /// limit and everything would look throughput-bound).
    pub rob: usize,
}

impl Default for CostConfig {
    fn default() -> Self {
        CostConfig {
            width: 3,
            lat_int: 1,
            lat_mul: 3,
            lat_div: 21,
            lat_fadd: 3,
            lat_fmul: 5,
            lat_fdiv: 18,
            lat_fsqrt: 20,
            lat_ftrans: 30,
            lat_load_hit: 4,
            lat_load_miss: 32,
            lat_store: 1,
            lat_atomic: 22,
            lat_branch: 1,
            mispredict_penalty: 14,
            lat_call: 2,
            lat_tx_begin: 45,
            lat_tx_end: 32,
            lat_tx_split_check: 3,
            lat_counter_inc: 4,
            abort_penalty: 160,
            lat_lock: 40,
            lat_unlock: 16,
            lat_vote: 2,
            lat_emit: 150,
            lat_alloc: 40,
            rob: 192,
        }
    }
}

impl CostConfig {
    /// Checks the two parameters the scoreboard is built from: `width`
    /// and `rob` must be at least 1 (a core that issues nothing, or holds
    /// nothing in flight, has no timeline). The error names the field.
    pub fn validate(&self) -> Result<(), String> {
        if self.width == 0 {
            return Err("width must be at least 1".to_string());
        }
        if self.rob == 0 {
            return Err("rob must be at least 1".to_string());
        }
        Ok(())
    }

    /// Latency of a compute opcode (memory, control, and intrinsics are
    /// priced by the VM, which has the required context).
    pub fn compute_latency(&self, op: &Op) -> u64 {
        match op {
            Op::Bin { op, .. } => match op {
                BinOp::Mul => self.lat_mul,
                BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem => self.lat_div,
                BinOp::FAdd | BinOp::FSub => self.lat_fadd,
                BinOp::FMul => self.lat_fmul,
                BinOp::FDiv => self.lat_fdiv,
                _ => self.lat_int,
            },
            Op::Un { op, .. } => match op {
                UnOp::FSqrt => self.lat_fsqrt,
                UnOp::FExp | UnOp::FLn => self.lat_ftrans,
                UnOp::FNeg | UnOp::FAbs => self.lat_int,
                _ => self.lat_int,
            },
            Op::Cmp { .. }
            | Op::Move { .. }
            | Op::Cast { .. }
            | Op::Select { .. }
            | Op::Gep { .. } => self.lat_int,
            // Phis are renames resolved at the branch.
            Op::Phi { .. } => 0,
            Op::ThreadId | Op::NumThreads => self.lat_int,
            _ => self.lat_int,
        }
    }
}

/// Per-thread issue/completion clock of a `width`-wide core with a
/// `rob`-deep reorder window, both fixed at construction.
#[derive(Clone, Debug)]
pub struct Scoreboard {
    /// Instructions issued so far.
    pub issued: u64,
    /// Completion time of the latest-finishing instruction.
    pub clock: u64,
    /// Earliest time the next instruction may start (set by pipeline
    /// flushes: mispredicts, aborts, blocking).
    pub floor: u64,
    width: u64,
    /// `issued / width` (the structural issue time) and `issued % width`,
    /// maintained incrementally so the issue path divides nothing.
    q: u64,
    r: u64,
    /// Completion times of the last `rob` instructions: a ring of the next
    /// power of two, so instruction `n` lives at `n & (len - 1)` and the
    /// one issued `rob` earlier at `(n + len - rob) & (len - 1)` — no wrap
    /// branch, and an index the compiler can see is in bounds.
    ring: Vec<u64>,
    /// `ring.len() - rob`.
    back: usize,
}

impl Default for Scoreboard {
    fn default() -> Self {
        let c = CostConfig::default();
        Scoreboard::new(c.width, c.rob)
    }
}

impl Scoreboard {
    /// A scoreboard at time zero. The only place a ring is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `rob` is zero ([`CostConfig::validate`]).
    pub fn new(width: u64, rob: usize) -> Self {
        assert!(width >= 1 && rob >= 1, "a core issues and holds at least one instruction");
        let len = rob.next_power_of_two();
        let back = len - rob;
        Scoreboard { issued: 0, clock: 0, floor: 0, width, q: 0, r: 0, ring: vec![0; len], back }
    }

    /// Back to the just-constructed state, keeping the ring allocation.
    pub fn reset(&mut self) {
        self.ring.fill(0);
        (self.issued, self.clock, self.floor, self.q, self.r) = (0, 0, 0, 0, 0);
    }

    /// Takes the next issue slot: its structural issue time, the ring
    /// entry that receives this instruction's completion time, and the
    /// completion time of the instruction `rob` slots back (zero while the
    /// window has never filled: the ring starts all-zero, so there is no
    /// emptiness branch).
    #[inline(always)]
    fn slot(&mut self) -> (u64, &mut u64, u64) {
        let structural = self.q;
        self.r += 1;
        if self.r == self.width {
            self.r = 0;
            self.q += 1;
        }
        let mask = self.ring.len() - 1;
        let n = self.issued as usize;
        self.issued += 1;
        let rob_ready = self.ring[(n + self.back) & mask];
        (structural, &mut self.ring[n & mask], rob_ready)
    }

    /// Issues one instruction whose operands are ready at `ready` and that
    /// takes `latency` cycles; returns its completion time.
    #[inline(always)]
    pub fn issue(&mut self, ready: u64, latency: u64) -> u64 {
        let floor = self.floor;
        let (structural, slot, rob_ready) = self.slot();
        // Reorder-window constraint: wait for the instruction issued
        // `rob` slots ago to complete. The operand-independent terms fold
        // first, so a dependent chain's critical path is one `max` (exact:
        // `max` is associative and commutative).
        let done = ready.max(structural.max(floor).max(rob_ready)) + latency;
        *slot = done;
        self.clock = self.clock.max(done);
        done
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
        let mut sb = Scoreboard::default();
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
        let mut sb = Scoreboard::default();
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
        let mut sb = Scoreboard::default();
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
        let mut a = Scoreboard::default();
        for _ in 0..300 {
            a.issue(0, 1);
        }
        let mut b = Scoreboard::default();
        for _ in 0..600 {
            b.issue(0, 1);
        }
        assert!(b.clock >= 2 * a.clock - 2);
    }

    #[test]
    fn floor_delays_subsequent_issues() {
        let mut sb = Scoreboard::default();
        sb.issue(0, 1);
        sb.flush_to(100);
        let done = sb.issue(0, 1);
        assert_eq!(done, 101);
    }

    /// The scoreboard written the obvious way: a division for the
    /// structural time, a `VecDeque` of the last `rob` completions.
    struct NaiveSb {
        width: u64,
        rob: usize,
        issued: u64,
        clock: u64,
        floor: u64,
        window: std::collections::VecDeque<u64>,
    }

    impl NaiveSb {
        /// `(structural issue time, completion of the op `rob` back)`.
        fn slot(&mut self) -> (u64, u64) {
            let structural = self.issued / self.width;
            self.issued += 1;
            let full = self.window.len() == self.rob;
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

    #[test]
    fn ring_equals_the_naive_window_for_every_geometry() {
        let mut rng = haft_ir::rng::Prng::new(0x5B);
        for rob in [1usize, 2, 3, 192, 256] {
            for width in [1u64, 3, 4] {
                let mut sb = Scoreboard::new(width, rob);
                // Two lives of one scoreboard: `reset` must forget the first.
                for life in 0..2 {
                    let window = std::collections::VecDeque::new();
                    let mut naive = NaiveSb { width, rob, issued: 0, clock: 0, floor: 0, window };
                    for step in 0..2000 {
                        let at = format!("rob {rob} width {width} life {life} step {step}");
                        match rng.below(16) {
                            0 => assert_eq!(sb.issue_serial(7), naive.issue_serial(7), "{at}"),
                            1 => {
                                let t = naive.clock + rng.below(40);
                                sb.flush_to(t);
                                naive.floor = naive.floor.max(t);
                                naive.clock = naive.clock.max(t);
                            }
                            _ => {
                                // Ready times around the clock, so every
                                // term of the `max` gets to win.
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
        }
    }

    #[test]
    fn validate_names_the_zero_parameter() {
        assert_eq!(CostConfig::default().validate(), Ok(()));
        let err = CostConfig { width: 0, ..Default::default() }.validate().unwrap_err();
        assert!(err.contains("width"), "{err}");
        let err = CostConfig { rob: 0, ..Default::default() }.validate().unwrap_err();
        assert!(err.contains("rob"), "{err}");
    }

    #[test]
    fn latencies_by_opcode_class() {
        let c = CostConfig::default();
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
        assert_eq!(c.compute_latency(&add), c.lat_int);
        assert_eq!(c.compute_latency(&div), c.lat_div);
        assert_eq!(c.compute_latency(&sqrt), c.lat_fsqrt);
        assert_eq!(c.compute_latency(&Op::Phi { ty: Ty::I64, incomings: vec![] }), 0);
    }
}
