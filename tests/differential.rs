//! Differential harness pinning the fused engine to the reference
//! interpreter, bit for bit.
//!
//! [`Engine::Fused`] is pure mechanics — pre-decoded dispatch, fused
//! super-instructions, pooled register windows — and must never change a
//! single observable. These tests enforce that at the strongest level
//! available: **full [`RunResult`] equality** (outcome, output, wall and
//! per-phase cycles, CPU cycles, instruction and register-write counts,
//! the complete HTM statistics block, detections, recoveries,
//! `corrected_by_vote`, `corrected_by_checksum`, mispredicts) across a
//! grid of generated programs, hardening backends, transaction
//! thresholds, and fault injections. Any divergence — one cycle, one
//! abort, one vote, one checksum correction — fails.
//!
//! The fused engine executes straight-line stretches as register-only
//! runs and re-joins the scheduler's per-op protocol only where a run
//! ends. Everything that can end one is therefore an axis here: the
//! horizon (`quantum`), the instruction budget, polls that doom a
//! transaction, and — in the generated programs — ops that trap in the
//! middle of a stretch (a division by zero, a load or store out of
//! bounds), inside and outside transactions.
//!
//! The third axis pins *forked* injection runs to from-scratch ones: a
//! fault-free pilot VM advanced to just short of an occurrence, copied,
//! armed and run to its end ([`Vm::advance_to`], [`Vm::fork`] — what the
//! campaign driver does per plan) must return the whole `RunResult`,
//! forensics record included, that `Experiment::run_with_fault` returns.
//! The settle axis rides on it: the same fork under
//! [`Vm::run_to_settlement`], which the driver runs instead, must either
//! run to that end or stop with that end's verdict.

use std::collections::BTreeMap;

use haft::prelude::*;
use haft::vm::ForkEnd;
use proptest::prelude::*;

/// A tiny random program description (the same shape `properties.rs`
/// uses: enough to exercise ALU chains, memory, and branches — the op
/// mix the fuser targets), plus two steps that can trap.
#[derive(Clone, Debug)]
enum Step {
    Add(u8, u8),
    Mul(u8, u8),
    Xor(u8, u8),
    StoreLoad(u8),
    Branchy(u8),
    /// `x / (y & k)`, signed or unsigned: the divisor is zero whenever
    /// `y` has none of `k`'s bits (always, for `k == 0`).
    Div(u8, u8, u8, bool),
    /// A store (or a load) at `scratch + (x & (k << 17 | 24))`: up to
    /// 32 MiB away in a 16 MiB memory, so far lines and other sets when
    /// in bounds, a trap after the HTM access when not.
    Wild(u8, u8, bool),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Add(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Mul(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Xor(a, b)),
        any::<u8>().prop_map(Step::StoreLoad),
        any::<u8>().prop_map(Step::Branchy),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>())
            .prop_map(|(a, b, k, signed)| Step::Div(a, b, k, signed)),
        (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(a, k, store)| Step::Wild(a, k, store)),
    ]
}

/// Builds a runnable module from the step list; a rolling value window
/// keeps every generated operand defined.
fn build_program(steps: &[Step]) -> Module {
    let mut m = Module::new("diff");
    let scratch = m.add_global("scratch", 256);
    let g = Operand::GlobalAddr(scratch);
    let mut f = FunctionBuilder::new("fini", &[], None);
    f.set_non_local();
    let mut vals = vec![f.mov(Ty::I64, f.iconst(Ty::I64, 0x1234_5678))];
    let pick = |vals: &Vec<haft::ir::function::ValueId>, i: u8| vals[i as usize % vals.len()];
    for s in steps {
        let v = match s {
            Step::Add(a, b) => {
                let (x, y) = (pick(&vals, *a), pick(&vals, *b));
                f.add(Ty::I64, x, y)
            }
            Step::Mul(a, b) => {
                let (x, y) = (pick(&vals, *a), pick(&vals, *b));
                f.mul(Ty::I64, x, y)
            }
            Step::Xor(a, b) => {
                let (x, y) = (pick(&vals, *a), pick(&vals, *b));
                f.bin(BinOp::Xor, Ty::I64, x, y)
            }
            Step::StoreLoad(a) => {
                let x = pick(&vals, *a);
                let slot = f.bin(BinOp::And, Ty::I64, x, f.iconst(Ty::I64, 24));
                let addr = f.add(Ty::I64, g, slot);
                f.store(Ty::I64, x, addr);
                f.load(Ty::I64, addr)
            }
            Step::Div(a, b, k, signed) => {
                let (x, y) = (pick(&vals, *a), pick(&vals, *b));
                let divisor = f.bin(BinOp::And, Ty::I64, y, f.iconst(Ty::I64, *k as i64));
                let op = if *signed { BinOp::SDiv } else { BinOp::UDiv };
                f.bin(op, Ty::I64, x, divisor)
            }
            Step::Wild(a, k, store) => {
                let x = pick(&vals, *a);
                let reach = f.iconst(Ty::I64, (*k as i64) << 17 | 24);
                let off = f.bin(BinOp::And, Ty::I64, x, reach);
                let addr = f.add(Ty::I64, g, off);
                if *store {
                    f.store(Ty::I64, x, addr);
                }
                f.load(Ty::I64, addr)
            }
            Step::Branchy(a) => {
                let x = pick(&vals, *a);
                let c = f.cmp(CmpOp::SGt, Ty::I64, x, f.iconst(Ty::I64, 0));
                f.if_then_else(
                    Ty::I64,
                    c,
                    |b| {
                        let t = b.add(Ty::I64, x, b.iconst(Ty::I64, 1));
                        t.into()
                    },
                    |b| {
                        let t = b.bin(BinOp::Xor, Ty::I64, x, b.iconst(Ty::I64, -1));
                        t.into()
                    },
                )
            }
        };
        vals.push(v);
        if vals.len() > 8 {
            vals.remove(0);
        }
    }
    let last = *vals.last().unwrap();
    f.emit_out(Ty::I64, last);
    f.ret(None);
    m.push_func(f.finish());
    m
}

fn fini_spec() -> RunSpec<'static> {
    RunSpec { fini: Some("fini"), ..Default::default() }
}

/// Faulted runs under this carry their forensics record, which makes the
/// taint transfer part of `RunResult` equality across engines.
fn forensics_vm() -> VmConfig {
    VmConfig { forensics: true, ..Default::default() }
}

/// Engine × forensics, ordered so that the first two cells alone still
/// cover both engines and both forensics settings.
const FORK_CELLS: [(Engine, bool); 4] = [
    (Engine::Interp, false),
    (Engine::Fused, true),
    (Engine::Interp, true),
    (Engine::Fused, false),
];

/// The settle axis, for one fork whose run to its end returned `ended`:
/// the same fork under [`Vm::run_to_settlement`] (with the campaign
/// driver's reserve, the clean run's instruction count) either runs to
/// that same end, or settles with that end's verdict — outcome class,
/// recovery and correction counters, forensics record. True if it
/// settled. Like a campaign, it needs a clean run that completes: a
/// settled fork's verdict is that its rest is the clean run's rest.
fn assert_settles_like_its_end(
    fork: Vm<'_>,
    ended: &RunResult,
    clean: &RunResult,
    what: &str,
) -> bool {
    use haft::faults::{classify, classify_settled};
    if clean.outcome != RunOutcome::Completed {
        return false;
    }
    match fork.run_to_settlement(clean.instructions) {
        ForkEnd::Ended(r) => {
            assert_eq!(&*r, ended, "{what}: a fork that did not settle must run to the same end");
            false
        }
        ForkEnd::Settled(s) => {
            let end = classify(ended, &clean.output);
            assert_eq!(classify_settled(&s), end, "{what}: settled verdict differs from the end");
            assert_eq!(
                (s.recoveries, s.corrected_by_vote, s.corrected_by_checksum),
                (ended.recoveries, ended.corrected_by_vote, ended.corrected_by_checksum),
                "{what}: the rest of a settled fork must not recover or correct anything"
            );
            assert_eq!(s.forensics, ended.forensics, "{what}: forensics record");
            true
        }
    }
}

/// The fork axis, for one already-hardened module: per cell, one pilot
/// visits ascending occurrences — the first and last register writes and
/// a repeated one included — and every fork must equal the from-scratch
/// faulted run, and settle like it ([`assert_settles_like_its_end`]).
/// The pilot, run on to its end once nothing more is forked, must equal
/// the fault-free run.
fn assert_forks_match_scratch_runs(
    hardened: &Module,
    spec: RunSpec<'_>,
    threads: usize,
    mask: u64,
    cells: &[(Engine, bool)],
    what: &str,
) {
    for &(engine, forensics) in cells {
        let what = format!("{what} engine={engine:?} forensics={forensics}");
        let vm = VmConfig { n_threads: threads, engine, forensics, ..Default::default() };
        let exp = Experiment::new(hardened).spec(spec).vm(vm.clone());
        let clean = exp.run().run;
        let last = clean.register_writes.saturating_sub(1);
        let prepared = Prepared::new(hardened, &vm);
        let mut pilot = Vm::start(hardened, &prepared, vm, spec);
        for occurrence in [0, last / 2, last / 2, last] {
            let plan = FaultPlan { occurrence, xor_mask: mask };
            pilot.advance_to(occurrence);
            let at = pilot.register_writes();
            assert!(
                at <= occurrence && occurrence - at <= 256,
                "{what}: asked for {occurrence}, pilot stopped at {at}"
            );
            let forked = pilot.fork(plan, forensics).run_to_end();
            let scratch = exp.run_with_fault(plan).run;
            assert_eq!(forked, scratch, "{what}: fork diverges at occurrence {occurrence}");
            assert_eq!(forked.forensics.is_some(), forensics && clean.register_writes > 0);
            let what = format!("{what} occurrence={occurrence}");
            assert_settles_like_its_end(pilot.fork(plan, forensics), &forked, &clean, &what);
        }
        assert_eq!(pilot.run_to_end(), clean, "{what}: pilot diverges from the clean run");
    }
}

/// Runs the experiment under both engines and returns the two results.
fn run_both(exp: &Experiment<'_>) -> (RunResult, RunResult) {
    let interp = exp.clone().engine(Engine::Interp).run().run;
    let fused = exp.clone().engine(Engine::Fused).run().run;
    (interp, fused)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core differential property: for arbitrary generated programs
    /// under every backend (native, HAFT, TMR) and across transaction
    /// thresholds, the two engines return *equal* `RunResult`s.
    #[test]
    fn engines_agree_on_generated_programs(
        steps in proptest::collection::vec(step_strategy(), 1..32),
        seed in any::<u64>(),
    ) {
        let m = build_program(&steps);
        let configs = [
            HardenConfig::native(),
            HardenConfig::haft(),
            HardenConfig::tmr(),
            HardenConfig::abft(),
        ];
        for hc in &configs {
            for &threshold in &[250u64, 1000, 4000] {
                let exp = Experiment::new(&m)
                    .harden(hc.clone())
                    .spec(fini_spec())
                    .tx_threshold(threshold)
                    .seed(seed);
                let (interp, fused) = run_both(&exp);
                prop_assert_eq!(
                    &interp, &fused,
                    "engines diverge: backend={} threshold={}", hc.label(), threshold
                );
            }
        }
    }

    /// Fault injections land on the same dynamic register write in both
    /// engines, so the whole faulted result — not just the outcome —
    /// must match too. Runs under both HAFT and ABFT so the checksum
    /// verify-and-correct path is differentially pinned too, and with
    /// forensics on, so the taint trajectory (`RunResult::forensics`) is
    /// part of the equality.
    #[test]
    fn engines_agree_under_fault_injection(
        steps in proptest::collection::vec(step_strategy(), 1..24),
        occ_seed in any::<u64>(),
        mask in 1u64..,
    ) {
        let m = build_program(&steps);
        for hc in [HardenConfig::haft(), HardenConfig::abft()] {
            let label = hc.label();
            let exp = Experiment::new(&m).harden(hc).spec(fini_spec()).vm(forensics_vm());
            let (clean_i, clean_f) = run_both(&exp);
            prop_assert_eq!(&clean_i, &clean_f, "{}: clean runs diverge", label);
            let occurrence = occ_seed % clean_i.register_writes.max(1);
            let plan = FaultPlan { occurrence, xor_mask: mask };
            let fi = exp.clone().engine(Engine::Interp).run_with_fault(plan).run;
            let ff = exp.clone().engine(Engine::Fused).run_with_fault(plan).run;
            prop_assert_eq!(&fi, &ff, "{}: faulted runs diverge at occurrence {}", label, occurrence);
            // Every program writes a register, so the flip always lands.
            prop_assert!(fi.forensics.is_some(), "{}: no forensics record", label);
        }
    }

    /// Forked runs equal from-scratch runs on generated programs under
    /// every backend, engine and forensics setting.
    #[test]
    fn forks_agree_with_scratch_runs_on_generated_programs(
        steps in proptest::collection::vec(step_strategy(), 1..24),
        mask in 1u64..,
    ) {
        let m = build_program(&steps);
        let configs = [
            HardenConfig::native(),
            HardenConfig::haft(),
            HardenConfig::tmr(),
            HardenConfig::abft(),
        ];
        for hc in configs {
            let (hardened, _) = Experiment::new(&m).harden(hc.clone()).build();
            let label = hc.label();
            assert_forks_match_scratch_runs(&hardened, fini_spec(), 1, mask, &FORK_CELLS, &label);
        }
    }
}

/// The named-workload grid: real benchmark programs (parallel worker
/// phases, transactions, lock traffic) under both engines, across
/// backends and thresholds. Full `RunResult` equality, per cell.
#[test]
fn engines_agree_on_workloads() {
    for name in ["linearreg", "histogram"] {
        let w = workload_by_name(name, Scale::Small).unwrap();
        let configs = [
            HardenConfig::native(),
            HardenConfig::haft(),
            HardenConfig::tmr(),
            HardenConfig::abft(),
        ];
        for hc in &configs {
            for &threshold in &[250u64, 1000] {
                let exp =
                    Experiment::workload(&w).harden(hc.clone()).threads(2).tx_threshold(threshold);
                let (interp, fused) = run_both(&exp);
                assert_eq!(
                    interp,
                    fused,
                    "engines diverge: workload={name} backend={} threshold={threshold}",
                    hc.label()
                );
            }
        }
    }
}

/// What ends a register-only run, as a grid of its own: the horizon
/// (`quantum` from one cycle to longer than any phase), the instruction
/// budget (a `Hang` must land on the same instruction: a third of the way
/// in, one short of the end, exactly the end, never), polls that doom
/// transactions mid-stretch (a spontaneous-abort rate and a timer budget
/// that fire within a few hundred cycles), and a thread's own accesses
/// dooming its transaction (an L1 of eight lines). Two threads, every
/// backend; whole `RunResult`s, per cell. One test per program (320 cells
/// each) so that the harness can run them side by side; `wordcount` adds
/// lock traffic.
fn assert_engines_agree_on_every_run_exit_condition(name: &str) {
    use haft::htm::HtmConfig;
    let htms = [
        HtmConfig::default(),
        HtmConfig { spontaneous_per_kcycle: 0.5, ..Default::default() },
        HtmConfig { cycle_budget: 300, ..Default::default() },
        HtmConfig { l1_sets: 4, l1_ways: 2, ..Default::default() },
    ];
    let unlimited = VmConfig::default().max_instructions;
    let w = workload_by_name(name, Scale::Small).unwrap();
    let configs =
        [HardenConfig::native(), HardenConfig::haft(), HardenConfig::tmr(), HardenConfig::abft()];
    for hc in configs {
        let (hardened, _) = Experiment::workload(&w).harden(hc.clone()).build();
        for quantum in [1, 2, 7, 64, 5000] {
            for htm in &htms {
                let run = |max_instructions: u64| {
                    let vm = VmConfig {
                        n_threads: 2,
                        quantum,
                        max_instructions,
                        htm: htm.clone(),
                        ..Default::default()
                    };
                    let exp = Experiment::new(&hardened).spec(w.run_spec()).vm(vm);
                    let (interp, fused) = run_both(&exp);
                    assert_eq!(
                        interp,
                        fused,
                        "engines diverge: workload={name} backend={} quantum={quantum} \
                         max_instructions={max_instructions} htm={htm:?}",
                        hc.label()
                    );
                    fused
                };
                let clean = run(unlimited);
                assert_eq!(clean.outcome, RunOutcome::Completed);
                for budget in [clean.instructions / 3, clean.instructions - 1] {
                    let cut = run(budget);
                    assert_eq!(
                        (cut.outcome, cut.instructions),
                        (RunOutcome::Hang, budget),
                        "{name}: a budget of {budget} must stop the run exactly there"
                    );
                }
                assert_eq!(run(clean.instructions), clean, "{name}: the exact budget suffices");
            }
        }
    }
}

#[test]
fn engines_agree_on_every_run_exit_condition_linearreg() {
    assert_engines_agree_on_every_run_exit_condition("linearreg");
}

#[test]
fn engines_agree_on_every_run_exit_condition_histogram() {
    assert_engines_agree_on_every_run_exit_condition("histogram");
}

#[test]
fn engines_agree_on_every_run_exit_condition_wordcount() {
    assert_engines_agree_on_every_run_exit_condition("wordcount");
}

/// A load the memory refuses still reaches the HTM model before it traps
/// (`Vm::step`'s order), although a register-only run refuses the op
/// before touching anything. Observable inside a transaction, where the
/// trap is an abort and the retry re-executes: with a one-line L1 the
/// wild access has evicted `a`, so every retry's reload misses.
#[test]
fn refused_access_reaches_the_htm_before_it_traps() {
    let mut m = Module::new("oob");
    let a = Operand::GlobalAddr(m.add_global("a", 8));
    let mut f = FunctionBuilder::new("fini", &[], None);
    f.set_non_local();
    f.emit_op(Op::TxBegin);
    f.load(Ty::I64, a);
    let wild = f.add(Ty::I64, a, f.iconst(Ty::I64, 1 << 24));
    f.load(Ty::I64, wild);
    f.emit_op(Op::TxEnd);
    f.ret(None);
    m.push_func(f.finish());

    let run = |l1_ways: usize| {
        let htm = haft::htm::HtmConfig { l1_sets: 1, l1_ways, ..Default::default() };
        let exp = Experiment::new(&m).spec(fini_spec()).vm(VmConfig { htm, ..Default::default() });
        let (interp, fused) = run_both(&exp);
        assert_eq!(interp, fused, "engines diverge with a {l1_ways}-line L1");
        assert!(matches!(fused.outcome, RunOutcome::Trapped(_)), "{:?}", fused.outcome);
        fused
    };
    let (one_line, two_lines) = (run(1), run(2));
    assert_eq!(one_line.htm.aborts, two_lines.htm.aborts, "same retries either way");
    assert!(
        one_line.wall_cycles > two_lines.wall_cycles,
        "the wild access must evict `a`: {} vs {} cycles",
        one_line.wall_cycles,
        two_lines.wall_cycles
    );
}

/// The fork axis on the named grid, two simulated threads: the pilot
/// pauses inside `init`, inside multi-thread scheduler windows of the
/// parallel phase and inside `fini`, crossing both phase boundaries in
/// between; `wordcount` adds lock traffic (blocked threads, release
/// clocks) to the state a fork has to carry. The smallest program takes
/// the full engine × forensics cross, the other two its diagonal (the
/// cross itself is the generated-program property above).
#[test]
fn forks_agree_with_scratch_runs_on_workloads() {
    for name in ["linearreg", "histogram", "wordcount"] {
        let cells = if name == "linearreg" { &FORK_CELLS[..] } else { &FORK_CELLS[..2] };
        let w = workload_by_name(name, Scale::Small).unwrap();
        let configs = [
            HardenConfig::native(),
            HardenConfig::haft(),
            HardenConfig::tmr(),
            HardenConfig::abft(),
        ];
        for hc in configs {
            let (hardened, _) = Experiment::workload(&w).harden(hc.clone()).build();
            let what = format!("workload={name} backend={}", hc.label());
            assert_forks_match_scratch_runs(&hardened, w.run_spec(), 2, 0x40, cells, &what);
        }
    }
}

/// A loop with a dead flow beside the live one: `u` is never read, so a
/// flip there is masked at the site, and `t` is read only by `u`, so a
/// flip there is masked when the next iteration overwrites both.
fn dead_flow_program() -> Module {
    let mut m = Module::new("dead-flow");
    let acc = Operand::GlobalAddr(m.add_global("acc", 8));
    let mut f = FunctionBuilder::new("fini", &[], None);
    f.set_non_local();
    f.counted_loop(f.iconst(Ty::I64, 0), f.iconst(Ty::I64, 12), |b, i| {
        let cur = b.load(Ty::I64, acc);
        let next = b.add(Ty::I64, cur, i);
        b.store(Ty::I64, next, acc);
        let t = b.mul(Ty::I64, i, b.iconst(Ty::I64, 2));
        let _u = b.add(Ty::I64, t, b.iconst(Ty::I64, 1));
    });
    let v = f.load(Ty::I64, acc);
    f.emit_out(Ty::I64, v);
    f.ret(None);
    m.push_func(f.finish());
    m
}

/// One fault sweep over the register writes `points` (ascending) of an
/// already-hardened module, forensics on. The reference interpreter's
/// from-scratch run is the oracle; the fused from-scratch run and both
/// engines' forks — one pilot per engine, advanced from point to point as
/// the campaign driver does — must return its whole `RunResult`, record
/// included, and settle like it ([`assert_settles_like_its_end`]).
/// Returns the oracle's results and how many forks settled.
fn sweep_faults(
    hardened: &Module,
    spec: RunSpec<'_>,
    threads: usize,
    mask: u64,
    points: &[u64],
    what: &str,
) -> (Vec<RunResult>, usize) {
    let vm = |engine| VmConfig { n_threads: threads, engine, ..forensics_vm() };
    let clean = Experiment::new(hardened).spec(spec).vm(vm(Engine::Fused)).run().run;
    let prepared = Prepared::new(hardened, &vm(Engine::Fused));
    let mut pilots =
        [Engine::Interp, Engine::Fused].map(|e| Vm::start(hardened, &prepared, vm(e), spec));
    let mut settled = 0;
    let sweep = points.iter().map(|&occurrence| {
        let plan = FaultPlan { occurrence, xor_mask: mask };
        let scratch =
            |engine| Experiment::new(hardened).spec(spec).vm(vm(engine)).run_with_fault(plan).run;
        let want = scratch(Engine::Interp);
        assert_eq!(scratch(Engine::Fused), want, "{what}: fused run diverges at {occurrence}");
        for pilot in &mut pilots {
            pilot.advance_to(occurrence);
            let forked = pilot.fork(plan, true).run_to_end();
            assert_eq!(forked, want, "{what}: a fork diverges at {occurrence}");
            let what = format!("{what} at {occurrence}");
            settled +=
                assert_settles_like_its_end(pilot.fork(plan, true), &want, &clean, &what) as usize;
        }
        want
    });
    (sweep.collect(), settled)
}

/// The 23-point fault sweep from `quickstart_smoke.rs` under both
/// recovery backends (HAFT rollback, ABFT checksum), forensics on: at
/// every injection point both engines, from scratch and forked, must
/// produce the *same* result — forensics record included — and therefore
/// the same Table 1 outcome histogram ([`sweep_faults`]). Thinner sweeps
/// and a program with a dead flow then reach the detectors those two do
/// not, so that every way a taint window can close (but `hang`) is
/// crossed between the engines at least once, on both axes.
#[test]
fn fault_sweep_outcome_histograms_match() {
    let w = workload_by_name("linearreg", Scale::Small).unwrap();
    let mut detectors: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut note = |results: &[RunResult]| {
        for fx in results.iter().filter_map(|r| r.forensics.as_ref()) {
            *detectors.entry(fx.detector.label()).or_default() += 1;
        }
    };
    // (backend, mask, every n-th of the 23 points). A flipped high
    // pointer bit is a wild access: a trap natively, an abort that erases
    // the corruption inside a HAFT transaction.
    let sweeps = [
        (HardenConfig::haft(), 0x40, 1),
        (HardenConfig::abft(), 0x40, 1),
        (HardenConfig::native(), 1 << 40, 4),
        (HardenConfig::tmr(), 0x40, 4),
        (HardenConfig::haft(), 1 << 40, 4),
    ];
    for (hc, mask, nth) in sweeps {
        let label = format!("{} mask {mask:#x}", hc.label());
        let (hardened, _) = Experiment::workload(&w).harden(hc.clone()).build();
        let exp = Experiment::new(&hardened).spec(w.run_spec()).vm(forensics_vm()).threads(2);
        let (clean_i, clean_f) = run_both(&exp);
        assert_eq!(clean_i, clean_f, "{label}: clean runs diverge");
        let step = (clean_i.register_writes / 23).max(1) as usize;
        let grid = (0..clean_i.register_writes).step_by(step);
        let points: Vec<u64> = grid.skip(nth / 2).step_by(nth).collect();
        let (results, settled) = sweep_faults(&hardened, w.run_spec(), 2, mask, &points, &label);
        note(&results);
        // A rollback settles HAFT's forks, a drain TMR's: the vote
        // outvotes the flipped copy, which is rewritten soon after.
        // Natively nothing outvotes or rolls back a flip, and none of
        // this sweep's forks drains either. (ABFT's checksums correct this
        // kernel's flips in place; some drain.)
        match hc.label().as_str() {
            "HAFT" | "TMR" => assert!(settled > 0, "{label}: no fork settled"),
            "native" => assert_eq!(settled, 0, "{label}: a fork settled"),
            _ => {}
        }
        if nth == 1 {
            // Equal results are equal Table 1 outcome histograms.
            assert!(results.len() >= 23, "{label}: sweep must cover 23 points");
            let records = results.iter().filter(|r| r.forensics.is_some()).count();
            assert!(records >= 23, "{label}: only {records} runs carried a forensics record");
            let corrected: u64 = results.iter().map(|r| r.corrected_by_checksum).sum();
            assert_eq!(corrected > 0, hc.label() == "ABFT", "{label}: checksum corrections");
        }
    }
    let dead_flow = dead_flow_program();
    let writes = run_both(&Experiment::new(&dead_flow).spec(fini_spec())).0.register_writes;
    let points: Vec<u64> = (0..writes).collect();
    note(&sweep_faults(&dead_flow, fini_spec(), 1, 0x40, &points, "dead-flow").0);
    let closed_by: Vec<&str> = detectors.keys().copied().collect();
    assert_eq!(
        closed_by,
        ["abft-correct", "escaped", "htm-abort", "ilr", "masked", "masked-at-site", "trap", "vote"],
        "detectors the sweeps reached: {detectors:?}"
    );
}
