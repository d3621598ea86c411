//! Campaign driver: plan, inject, classify — sharing every run's
//! fault-free prefix, and skipping every suffix the fault no longer
//! touches.
//!
//! An injection run is, by construction, the reference run up to the
//! flipped register write. So the driver executes that prefix once: a
//! fault-free *pilot* VM visits the planned occurrences in ascending
//! order, is [forked](Vm::fork) just short of each, and only the fork —
//! from the flip on — runs per injection. The pilot need not walk the
//! whole prefix either: the reference run, which the campaign makes
//! anyway to size the plan, leaves up to `CHECKPOINTS` evenly spread
//! [checkpoints](Vm::checkpoint) of itself behind, and the pilot jumps
//! to the latest one at or before each occurrence. A checkpoint costs
//! what it holds — the pages the run has written, its tables' live
//! entries — so the reference run can afford twenty of them. A fork then
//! stops where it settles ([`Vm::run_to_settlement`]): once the
//! transaction attempt its flip landed in has aborted, or once the taint
//! its flip seeded has drained (a TMR copy outvoted and then rewritten),
//! the rest is the fault-free run, and the verdict is known
//! ([`classify_settled`]). A campaign of `n` injections costs the
//! reference run, checkpoints included; the pilot, at most the gap
//! between two checkpoints per injection (under a fourteenth of a run once
//! the run is `CHECKPOINTS × FIRST_STRIDE` writes long) and never more
//! than the walk from op 0 to the last occurrence, `n/(n+1)` of a run on
//! average (`hotspots`' six-injection campaigns: 4–22 % of a run, where
//! the walk took 62–98 %); and per injection its window — flip to
//! rollback or drain — when it settles and its suffix when it does not (a
//! flip outside a transaction that never drains, say because it decided
//! a branch; the drain is watched op by op for at most a fixed window, so
//! a fork that does not settle pays little more than its suffix).

use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::Mutex;
use std::time::Instant;

use haft_ir::module::Module;
use haft_ir::rng::Prng;
use haft_vm::{
    Checkpoint, FaultPlan, Forensics, ForkEnd, Memory, Prepared, RunOutcome, RunResult, RunSpec,
    Vm, VmConfig,
};

use crate::classify::{classify, classify_settled, Outcome};
use crate::report::CampaignReport;

/// What one campaign cost: how its forks ended, what its pilot did and
/// the checkpoints its reference run took. Every field but
/// `checkpoint_ns` is the same at every [`CampaignConfig::parallelism`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CampaignCost {
    /// Forks stopped at the rollback that erased their fault.
    pub settled: u64,
    /// Forks stopped where their taint drained.
    pub drained: u64,
    /// Forks run to their end.
    pub ended: u64,
    /// Times the pilot jumped ahead to a checkpoint of the reference run.
    pub resumes: u64,
    /// Instructions the pilot executed.
    pub instructions: u64,
    /// Checkpoints the reference run took.
    pub taken: u64,
    /// Of those, the ones left for the pilot, at most `CHECKPOINTS` (20).
    pub kept: u64,
    /// Heap bytes the kept checkpoints held ([`Checkpoint::held_bytes`]).
    pub kept_bytes: u64,
    /// Host nanoseconds spent taking checkpoints.
    pub checkpoint_ns: u64,
}

/// Campaign parameters: how many plans, drawn how, run on how many
/// threads, observed how. The machine every run uses is the
/// [`VmConfig`] passed beside it to [`run_campaign`].
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Number of injection runs (the paper uses 2,500 per program; the
    /// report's campaigns are smaller — 100–150 in full mode, see the
    /// `haft-report` sections).
    pub injections: u64,
    /// Seed for fault planning.
    pub seed: u64,
    /// OS threads the campaign may keep busy: the calling thread, which
    /// advances the pilot and runs a fork itself whenever no worker is
    /// free, plus `parallelism − 1` workers that run forks. `0` is
    /// clamped to `1` (no workers, everything on the calling thread)
    /// rather than treated as an error. Results are folded in plan order
    /// whichever thread produced them, so the report is identical at
    /// every value. The default is `haft_vm::cores::spare() + 1`: the
    /// host's core count as the process read it once for its helper
    /// budget, so building a configuration never probes the host again.
    pub parallelism: usize,
    /// Enable per-run fault forensics (taint tracking on fault runs) and
    /// aggregate the records into [`CampaignReport::forensics`]. Off by
    /// default: tracking makes injection runs slower, and outcome counts
    /// are identical either way.
    pub forensics: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            injections: 200,
            seed: 0xFA_17,
            parallelism: haft_vm::cores::spare() + 1,
            forensics: false,
        }
    }
}

/// What one injection run contributes to the report, and how its fork
/// ended.
type Verdict = (Outcome, Option<Forensics>, End);

/// How a fork ended, as [`CampaignCost`] counts it.
#[derive(Clone, Copy)]
enum End {
    Settled,
    Drained,
    Ended,
}

/// How many reference runs' worth of instructions an injection run may
/// execute before it counts as a hang, as `MAX_TX_RETRIES` bounds a
/// transaction's retries. Without it a flipped loop bound or induction
/// variable keeps a fork busy up to `VmConfig::max_instructions` (400 M by
/// default, against 23 k–3.7 M for a `Scale::Small` reference run). Chosen
/// on data: over the 17 `Scale::Small` workloads × {native, HAFT, TMR,
/// ABFT} × 300 injections, five seeds, every run that does not hang ends
/// within 1.06 reference runs, except `matrixmul`'s few (native and ABFT)
/// that walk a flipped bound towards the end of the arena and trap after
/// 12.2–12.7. Below 13 those read as hangs; 20 leaves every verdict as it
/// is at 400 M. A fork settles only with a whole reference run left, so
/// the multiple must exceed 2 for settling to stay on.
const HANG_RUNS: u64 = 20;

/// The instruction budget of every run of a campaign whose reference run
/// is `golden`: `vm.max_instructions`, or [`HANG_RUNS`] reference runs if
/// that is less.
fn run_budget(vm: &VmConfig, golden: &RunResult) -> u64 {
    vm.max_instructions.min(HANG_RUNS.saturating_mul(golden.instructions))
}

/// Most checkpoints the reference run keeps ([`reference_run`]); it
/// holds one more for a moment, while it picks the one to drop. Chosen on
/// data: see ROADMAP item 9.
const CHECKPOINTS: usize = 20;

/// Register writes before the reference run's first checkpoint, and the
/// least it ever leaves between two. Chosen on data with [`CHECKPOINTS`].
const FIRST_STRIDE: u64 = 2048;

/// The fault-free reference run of a campaign, run to its end from
/// `image`, and the checkpoints it left behind, each with the register
/// write it was taken at, in ascending order; `cost` gets what they
/// cost. Each checkpoint comes [`FIRST_STRIDE`] writes after the one
/// before, or half again the mean gap of [`CHECKPOINTS`] even ones over
/// the run so far, whichever is more. Once [`CHECKPOINTS`] are kept, each
/// new one pushes out the older one whose neighbours are closest (the
/// earliest of equals), so the kept ones stay spread evenly over the run
/// however long it is. A run shorter than [`FIRST_STRIDE`] writes leaves
/// none.
fn reference_run<'m>(
    start: Vm<'m>,
    image: &'m Memory,
    cost: &mut CampaignCost,
) -> (RunResult, Vec<(u64, Checkpoint<'m>)>) {
    let (mut run, mut kept) = (start, Vec::<(u64, Checkpoint<'m>)>::new());
    loop {
        let last = kept.last().map_or(0, |&(at, _)| at);
        run.advance_to(last + FIRST_STRIDE.max(last * 3 / (2 * CHECKPOINTS as u64)));
        let taken = Instant::now();
        let Some(checkpoint) = run.checkpoint(image) else { break };
        cost.checkpoint_ns += taken.elapsed().as_nanos() as u64;
        cost.taken += 1;
        kept.push((run.register_writes(), checkpoint));
        if kept.len() > CHECKPOINTS {
            let gap = |j: usize| kept[j + 1].0 - j.checked_sub(1).map_or(0, |i| kept[i].0);
            let j = (0..CHECKPOINTS).min_by_key(|&j| gap(j)).expect("CHECKPOINTS > 0");
            kept.remove(j);
        }
    }
    cost.kept = kept.len() as u64;
    cost.kept_bytes = kept.iter().map(|(_, c)| c.held_bytes() as u64).sum();
    (run.run_to_end(), kept)
}

/// Runs a full campaign against `module` under `vm` and returns the
/// fault-free reference run, the aggregated report and what the campaign
/// cost. Every run executes against one decode of `module`; an injection
/// run's instruction budget is `vm.max_instructions` or a fixed multiple
/// of the reference run's instructions (`HANG_RUNS`), whichever is less.
///
/// # Panics
///
/// Panics if the fault-free reference run does not complete — the program
/// under test must be correct before injecting faults into it.
pub fn run_campaign(
    module: &Module,
    spec: RunSpec<'_>,
    vm: &VmConfig,
    cfg: &CampaignConfig,
) -> (RunResult, CampaignReport, CampaignCost) {
    // Step 1: reference run — trace size and golden output — against the
    // decoded code and the initial arena every run of the campaign
    // shares, leaving checkpoints behind for the pilot.
    let prepared = Prepared::new(module);
    let image = Memory::new(module, vm.mem_bytes);
    let start = Vm::start_in(module, &prepared, vm.clone(), spec, image.clone());
    let mut cost = CampaignCost::default();
    let (golden, checkpoints) = reference_run(start, &image, &mut cost);
    assert_eq!(golden.outcome, RunOutcome::Completed, "reference run must complete cleanly");
    let population = golden.register_writes.max(1);

    // Step 2: plan the injections (uniform over the dynamic trace, random
    // XOR masks — the paper's weighted-random selection).
    let plans = plan_injections(cfg.seed, cfg.injections, population);

    // Step 3: execute and classify. The pilot visits the plans in
    // occurrence order (ties in plan order) and hands each fork to a free
    // worker, or runs it itself when there is none.
    let mut visit: Vec<usize> = (0..plans.len()).collect();
    visit.sort_by_key(|&i| plans[i].occurrence);
    // Forks inherit the pilot's configuration, and with it the budget;
    // a pilot resumed from a checkpoint takes the budget then.
    let budget = run_budget(vm, &golden);
    // Built at op 0 only for a plan short of the first checkpoint.
    let mut pilot: Option<Vm<'_>> = None;
    let mut checkpoints = checkpoints.into_iter().peekable();
    // A fork settles only with a whole reference run's worth of budget
    // left, so that settling never hides a hang.
    let conclude = |fork: Vm<'_>| -> Verdict {
        match fork.run_to_settlement(golden.instructions) {
            ForkEnd::Ended(r) => (classify(&r, &golden.output), r.forensics, End::Ended),
            ForkEnd::Settled(s) => {
                let end = if s.drained { End::Drained } else { End::Settled };
                (classify_settled(&s), s.forensics, end)
            }
        }
    };

    let workers = cfg.parallelism.max(1) - 1;
    // One fork queued per worker keeps them fed while the pilot is busy
    // with a fork of its own; with no workers the channel has no room and
    // no receiver ever waits, so every `try_send` hands the fork back.
    let (forks, queue) = sync_channel::<(usize, Vm<'_>)>(workers);
    let queue = Mutex::new(queue);
    let mut verdicts: Vec<(usize, Verdict)> = std::thread::scope(|scope| {
        // Owned by this closure so that a panic on the pilot's side
        // closes the channel and lets the workers (and the scope) finish.
        let forks = forks;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let job = queue.lock().expect("a campaign worker panicked").recv();
                        let Ok((i, fork)) = job else { return done };
                        done.push((i, conclude(fork)));
                    }
                })
            })
            .collect();
        let mut done = Vec::new();
        for i in visit {
            // Jump to the latest checkpoint at or before the occurrence
            // if it is ahead, dropping those passed on the way.
            let occurrence = plans[i].occurrence;
            let mut ahead = None;
            while let Some((at, c)) = checkpoints.next_if(|&(at, _)| at <= occurrence) {
                ahead = (at > pilot.as_ref().map_or(0, Vm::register_writes)).then_some(c);
            }
            let pilot = match ahead {
                Some(c) => {
                    cost.resumes += 1;
                    // The pilot left behind goes first: its arena is freed
                    // before the resumed one is built.
                    pilot.take();
                    pilot.insert(c.resume(budget))
                }
                None => pilot.get_or_insert_with(|| {
                    let cfg = VmConfig { max_instructions: budget, ..vm.clone() };
                    Vm::start_in(module, &prepared, cfg, spec, image.clone())
                }),
            };
            cost.instructions += pilot.advance_to(occurrence);
            match forks.try_send((i, pilot.fork(plans[i], cfg.forensics))) {
                Ok(()) => {}
                Err(TrySendError::Full((i, fork)) | TrySendError::Disconnected((i, fork))) => {
                    done.push((i, conclude(fork)))
                }
            }
        }
        drop(forks);
        for h in handles {
            done.extend(h.join().expect("campaign worker panicked"));
        }
        done
    });

    // Fold in plan order, whichever thread ran what.
    verdicts.sort_by_key(|&(i, _)| i);
    assert_eq!(verdicts.len(), plans.len(), "every plan is run exactly once");
    let mut report = CampaignReport::default();
    for (_, (o, fx, end)) in &verdicts {
        report.record(*o);
        if let Some(fx) = fx {
            report.record_forensics(*o, fx);
        }
        *match end {
            End::Settled => &mut cost.settled,
            End::Drained => &mut cost.drained,
            End::Ended => &mut cost.ended,
        } += 1;
    }
    (golden, report, cost)
}

/// Draws the injection plans: occurrences uniform over the dynamic
/// register-write trace, XOR masks rejection-sampled until the low byte is
/// nonzero. Truncation to any destination width (i8 and up) then still
/// leaves at least one flipped bit, which keeps the forced-bit-0 fallback
/// in [`FaultPlan::effective_mask`] a defensive path instead of skewing
/// narrow-type flip distributions toward bit 0. Expected rejections: 1 in
/// 256 draws, so planning stays effectively O(n) and deterministic in
/// `seed`.
fn plan_injections(seed: u64, n: u64, population: u64) -> Vec<FaultPlan> {
    let mut rng = Prng::new(seed);
    (0..n)
        .map(|_| {
            let occurrence = rng.below(population);
            let mut xor_mask = rng.next_u64();
            while xor_mask & 0xff == 0 {
                xor_mask = rng.next_u64();
            }
            FaultPlan { occurrence, xor_mask }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Outcome;
    use haft_ir::builder::FunctionBuilder;
    use haft_ir::inst::Operand;
    use haft_ir::module::GlobalId;
    use haft_ir::types::Ty;
    use haft_passes::{HardenConfig, PassManager};

    fn harden(m: &Module, cfg: &HardenConfig) -> Module {
        PassManager::from_config(cfg).run_on(m).0
    }

    /// A small single-threaded reduction program with some dead state
    /// (the scratch global never reaches the output, so faults landing in
    /// that flow are masked — the Table 1 "Masked" class).
    fn program() -> Module {
        program_of(120)
    }

    /// [`program`] with `iterations` in place of its 120.
    fn program_of(iterations: i64) -> Module {
        let mut m = Module::new("t");
        m.add_global("acc", 8);
        m.add_global("scratch", 8);
        let g = Operand::GlobalAddr(GlobalId(0));
        let dead = Operand::GlobalAddr(GlobalId(1));
        let mut fb = FunctionBuilder::new("fini", &[], None);
        fb.set_non_local();
        fb.counted_loop(fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, iterations), |b, i| {
            let cur = b.load(Ty::I64, g);
            let x = b.mul(Ty::I64, i, b.iconst(Ty::I64, 7));
            let nxt = b.add(Ty::I64, cur, x);
            b.store(Ty::I64, nxt, g);
            // Dead flow: computed, stored, never read back into output.
            let d = b.load(Ty::I64, dead);
            let d2 = b.bin(haft_ir::inst::BinOp::Xor, Ty::I64, d, x);
            let d3 = b.mul(Ty::I64, d2, b.iconst(Ty::I64, 13));
            b.store(Ty::I64, d3, dead);
        });
        let v = fb.load(Ty::I64, g);
        fb.emit_out(Ty::I64, v);
        fb.ret(None);
        m.push_func(fb.finish());
        m
    }

    fn spec() -> RunSpec<'static> {
        RunSpec { fini: Some("fini"), ..Default::default() }
    }

    fn campaign(n: u64) -> CampaignConfig {
        CampaignConfig { injections: n, seed: 42, parallelism: 2, forensics: false }
    }

    fn vm() -> VmConfig {
        VmConfig { n_threads: 1, max_instructions: 5_000_000, ..Default::default() }
    }

    /// The report of [`run_campaign`] on `m` under [`vm`].
    fn report(m: &Module, cfg: &CampaignConfig) -> CampaignReport {
        run_campaign(m, spec(), &vm(), cfg).1
    }

    /// `plan` run from scratch: armed in a VM fresh from `Vm::start` (a
    /// fork at op 0) and run to its end.
    fn faulted_run(
        m: &Module,
        spec: RunSpec<'_>,
        vm: VmConfig,
        plan: FaultPlan,
        forensics: bool,
    ) -> RunResult {
        let prepared = Prepared::new(m);
        Vm::start(m, &prepared, vm, spec).fork(plan, forensics).run_to_end()
    }

    /// The campaign as the methodology states it, and as the driver ran
    /// it before prefix sharing: every plan is its own from-scratch run
    /// under the campaign's run budget, serially, in plan order. The
    /// driver must report exactly this.
    fn reference_campaign(
        m: &Module,
        spec: RunSpec<'_>,
        vm: &VmConfig,
        cfg: &CampaignConfig,
    ) -> CampaignReport {
        let golden = Vm::run(m, vm.clone(), spec);
        let vm = VmConfig { max_instructions: run_budget(vm, &golden), ..vm.clone() };
        let mut report = CampaignReport::default();
        for plan in plan_injections(cfg.seed, cfg.injections, golden.register_writes.max(1)) {
            let r = faulted_run(m, spec, vm.clone(), plan, cfg.forensics);
            let o = classify(&r, &golden.output);
            report.record(o);
            if let Some(fx) = &r.forensics {
                report.record_forensics(o, fx);
            }
        }
        report
    }

    /// What every campaign's cost holds, over `costs` from one campaign
    /// run at several parallelisms: each fork is counted exactly once, and
    /// every field but the host time is the same at every parallelism.
    fn assert_costs_agree(costs: &[CampaignCost], injections: u64) {
        let counts = |c: &CampaignCost| CampaignCost { checkpoint_ns: 0, ..*c };
        for c in costs {
            assert_eq!(c.settled + c.drained + c.ended, injections, "{c:?}");
            assert_eq!(counts(c), counts(&costs[0]));
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let m = program();
        let a = report(&m, &campaign(60));
        let b = report(&m, &campaign(60));
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.runs, 60);
        // The whole report — counts, runs, forensics aggregate — is the
        // per-plan reference loop's, on real worker threads and without.
        assert_eq!(a, reference_campaign(&m, spec(), &vm(), &campaign(60)));
        let hardened = harden(&m, &HardenConfig::haft());
        let mut costs = Vec::new();
        for parallelism in [1, 2, 3] {
            let cfg = CampaignConfig { parallelism, forensics: true, ..campaign(60) };
            let want = reference_campaign(&hardened, spec(), &vm(), &cfg);
            assert!(want.forensics.as_ref().is_some_and(|s| s.fired > 0));
            let (_, r, cost) = run_campaign(&hardened, spec(), &vm(), &cfg);
            assert_eq!(r, want, "parallelism {parallelism}");
            costs.push(cost);
        }
        assert_costs_agree(&costs, 60);
    }

    #[test]
    fn zero_parallelism_is_clamped_to_serial() {
        // Regression: `parallelism: 0` must behave exactly like serial
        // execution — same run count, same outcome histogram — instead of
        // dividing by zero or dropping the plans.
        let m = program();
        let mut zero = campaign(40);
        zero.parallelism = 0;
        let a = report(&m, &zero);
        let b = report(&m, &campaign(40));
        assert_eq!(a.runs, 40);
        assert_eq!(a.counts, b.counts);
        zero.forensics = true;
        let hardened = harden(&m, &HardenConfig::haft());
        assert_eq!(report(&hardened, &zero), reference_campaign(&hardened, spec(), &vm(), &zero));
    }

    #[test]
    fn runs_past_the_budget_read_as_hangs() {
        // An `i16` countdown from 120: a flip that leaves the counter a
        // large positive value runs up to 32 767 more iterations. That
        // run ends well within 400 M instructions but after hundreds of
        // reference runs, so the campaign reads it as a hang, and so
        // does the from-scratch loop: the budget is part of the
        // campaign's definition. From 1 000 the run is long enough to
        // leave a checkpoint, and the late runs forked past it must read
        // as hangs too: a resumed pilot takes the campaign's budget.
        budget_case(120, 40, 0);
        budget_case(1_000, 100, FIRST_STRIDE);
    }

    /// [`runs_past_the_budget_read_as_hangs`] for a countdown from
    /// `start`, `injections` plans, at least one of them at or past
    /// register write `late_from` ending past the budget.
    fn budget_case(start: i64, injections: u64, late_from: u64) {
        let mut fb = FunctionBuilder::new("fini", &[], None);
        fb.set_non_local();
        let (pre, head, exit) = (fb.current_block(), fb.new_block(), fb.new_block());
        fb.br(head);
        fb.switch_to(head);
        let i = fb.phi(Ty::I16);
        fb.phi_incoming(i, fb.iconst(Ty::I16, start), pre);
        let next = fb.sub(Ty::I16, i, fb.iconst(Ty::I16, 1));
        fb.phi_incoming(i, next, head);
        let more = fb.cmp(haft_ir::inst::CmpOp::SGt, Ty::I16, next, fb.iconst(Ty::I16, 0));
        fb.condbr(more, head, exit);
        fb.switch_to(exit);
        fb.emit_out(Ty::I16, next);
        fb.ret(None);
        let mut m = Module::new("t");
        m.push_func(fb.finish());

        let (vm, cfg) = (VmConfig { n_threads: 1, ..Default::default() }, campaign(injections));
        let golden = Vm::run(&m, vm.clone(), spec());
        let budget = run_budget(&vm, &golden);
        assert_eq!(budget, HANG_RUNS * golden.instructions);
        let tight = VmConfig { max_instructions: 3 * golden.instructions, ..vm.clone() };
        assert_eq!(run_budget(&tight, &golden), tight.max_instructions);
        let late = plan_injections(cfg.seed, cfg.injections, golden.register_writes)
            .into_iter()
            .any(|p| {
                let r = faulted_run(&m, spec(), vm.clone(), p, false);
                p.occurrence >= late_from
                    && r.outcome != RunOutcome::Hang
                    && r.instructions > budget
            });
        assert!(late, "no planned run at or past write {late_from} ends past the budget");
        let (reference, r, _) = run_campaign(&m, spec(), &vm, &cfg);
        assert_eq!(reference, golden);
        assert!(r.counts.get(&Outcome::Hang).is_some_and(|&n| n > 0), "{}", r.summary());
        assert_eq!(r, reference_campaign(&m, spec(), &vm, &cfg));
    }

    #[test]
    fn native_program_shows_sdc_and_masking() {
        let m = program();
        let r = report(&m, &campaign(150));
        assert!(r.pct(Outcome::Sdc) > 5.0, "native must corrupt: {}", r.summary());
        assert!(r.pct(Outcome::Masked) > 2.0, "some faults mask: {}", r.summary());
        assert_eq!(r.pct(Outcome::HaftCorrected), 0.0, "no recovery without HAFT");
        assert_eq!(r.pct(Outcome::IlrDetected), 0.0, "no detection without ILR");
    }

    #[test]
    fn ilr_converts_sdc_to_detection() {
        let m = program();
        let native = report(&m, &campaign(150));
        let hardened = harden(&m, &HardenConfig::ilr_only());
        let r = report(&hardened, &campaign(150));
        assert!(
            r.pct(Outcome::Sdc) < native.pct(Outcome::Sdc) / 2.0,
            "ILR {} vs native {}",
            r.summary(),
            native.summary()
        );
        assert!(r.pct(Outcome::IlrDetected) > 10.0, "{}", r.summary());
    }

    #[test]
    fn haft_recovers_detected_faults() {
        let m = program();
        let hardened = harden(&m, &HardenConfig::haft());
        let r = report(&hardened, &campaign(150));
        assert!(r.pct(Outcome::HaftCorrected) > 10.0, "{}", r.summary());
        assert!(
            r.pct(Outcome::IlrDetected) < 20.0,
            "most detections should recover: {}",
            r.summary()
        );
        assert!(r.pct(Outcome::Sdc) < 5.0, "{}", r.summary());
    }

    #[test]
    fn tmr_masks_faults_without_rollback() {
        // The masking backend: a campaign against a TMR-hardened program
        // reports corrected-by-masking outcomes, with zero transactions
        // and therefore zero rollback recoveries.
        let m = program();
        let hardened = harden(&m, &HardenConfig::tmr());
        let r = report(&hardened, &campaign(150));
        assert!(r.pct(Outcome::VoteCorrected) > 10.0, "{}", r.summary());
        assert_eq!(r.pct(Outcome::HaftCorrected), 0.0, "no rollback machinery in TMR");
        assert!(r.pct(Outcome::Sdc) < 5.0, "{}", r.summary());
    }

    #[test]
    fn sampled_masks_survive_narrow_truncation() {
        // Regression for the bit-0 skew: every planned mask must keep at
        // least one bit after truncation to any destination width, so the
        // forced-single-bit fallback in `effective_mask` never fires for
        // campaign-planned faults.
        let plans = plan_injections(42, 500, 1000);
        assert_eq!(plans.len(), 500);
        for p in &plans {
            assert_ne!(p.xor_mask & 0xff, 0);
            for ty in [Ty::I8, Ty::I16, Ty::I32, Ty::I64] {
                assert_eq!(
                    p.effective_mask(ty),
                    p.xor_mask & ty.mask(),
                    "fallback fired for {ty:?} on mask {:#x}",
                    p.xor_mask
                );
            }
        }
    }

    #[test]
    fn forensics_records_the_actual_applied_mask() {
        // A program whose first register write is an i8 add. With a mask
        // whose low byte is empty, the i8 truncation is zero and the
        // forced-bit-0 fallback fires — forensics must record the bit
        // actually flipped, not the drawn mask.
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("fini", &[], None);
        fb.set_non_local();
        let a = fb.iconst(Ty::I8, 5);
        let b = fb.iconst(Ty::I8, 2);
        let x = fb.add(Ty::I8, a, b);
        fb.emit_out(Ty::I8, x);
        fb.ret(None);
        m.push_func(fb.finish());

        let run = |mask: u64| {
            let cfg = VmConfig { n_threads: 1, ..Default::default() };
            let plan = FaultPlan { occurrence: 0, xor_mask: mask };
            let r = faulted_run(&m, spec(), cfg, plan, true);
            r.forensics.expect("fault must fire").site.applied_mask
        };
        assert_eq!(run(0xFF00), 1, "fallback path must be recorded as bit 0");
        assert_eq!(run(0x0F), 0x0F, "truncated mask applied verbatim");
    }

    #[test]
    fn forensics_campaign_aggregates_without_changing_outcomes() {
        let m = program();
        let hardened = harden(&m, &HardenConfig::haft());
        let plain = report(&hardened, &campaign(80));
        let mut cfg = campaign(80);
        cfg.forensics = true;
        let traced = report(&hardened, &cfg);
        assert_eq!(plain.counts, traced.counts, "forensics must not change outcomes");
        assert!(plain.forensics.is_none());
        let s = traced.forensics.as_ref().expect("forensics aggregate");
        assert!(s.fired > 0);
        assert_eq!(s.fired, s.sites.values().map(|v| v.injections).sum::<u64>());
        let metrics = traced.metrics();
        assert_eq!(
            metrics.get("faults.detect_latency.ilr.count").map(|v| v as u64),
            s.latency_insts.get(&haft_vm::FaultDetector::Ilr).map(|h| h.count).or(Some(0))
        );
    }

    /// The settling driver against the per-plan from-scratch loop, whole
    /// reports, over every `Scale::Small` workload × {native, HAFT, TMR,
    /// ABFT} × forensics off/on (136 cells), the seed and simulated thread
    /// count rotating through 7/2, 11/4 and 5/1 from one workload to the
    /// next. The budget is four reference runs, so a hang costs little
    /// and the reserve rule is in play. Some forks must settle at a
    /// rollback, some where their taint drained, and some run to their
    /// end. Release only, where it takes about 17 s on a two-core x86-64
    /// host; a debug build skips it.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release only: cargo test -p haft-faults --release")]
    fn settling_campaigns_equal_the_reference_on_every_small_workload() {
        use haft_workloads::{all_workloads, Scale};
        let configs = [
            HardenConfig::native(),
            HardenConfig::haft(),
            HardenConfig::tmr(),
            HardenConfig::abft(),
        ];
        let mut costs = Vec::new();
        for (i, w) in all_workloads(Scale::Small).iter().enumerate() {
            let (seed, n_threads) = [(7, 2), (11, 4), (5, 1)][i % 3];
            for hc in &configs {
                let hardened = harden(&w.module, hc);
                let vm = VmConfig { n_threads, ..Default::default() };
                let golden = Vm::run(&hardened, vm.clone(), w.run_spec());
                let vm = VmConfig { max_instructions: 4 * golden.instructions, ..vm };
                for forensics in [false, true] {
                    let cfg = CampaignConfig { injections: 8, seed, parallelism: 2, forensics };
                    let (_, r, cost) = run_campaign(&hardened, w.run_spec(), &vm, &cfg);
                    assert_eq!(
                        r,
                        reference_campaign(&hardened, w.run_spec(), &vm, &cfg),
                        "{} {} forensics={forensics}",
                        w.name,
                        hc.label()
                    );
                    costs.push(cost);
                }
            }
        }
        let sum = |f: fn(&CampaignCost) -> u64| costs.iter().map(f).sum::<u64>();
        let (settled, drained, ended) = (sum(|c| c.settled), sum(|c| c.drained), sum(|c| c.ended));
        assert!(settled > 0 && drained > 0 && ended > 0, "{settled} / {drained} / {ended}");
        assert!(sum(|c| c.resumes) > 0, "no pilot resumed from a checkpoint");
    }

    /// A reference run long enough to leave checkpoints behind: pilots
    /// resume from them, the whole report is still the per-plan
    /// reference loop's at parallelism 1–3 with forensics on, and the
    /// reference run the campaign returns is a plain run's. Native and
    /// HAFT: native forks run to their end and read the state the
    /// checkpoint kept in memory; HAFT forks roll back and settle.
    #[test]
    fn pilots_resumed_from_checkpoints_give_the_reference_report() {
        let mut resumes = 0;
        for hc in [HardenConfig::native(), HardenConfig::haft()] {
            let m = harden(&program_of(1_000), &hc);
            let golden = Vm::run(&m, vm(), spec());
            assert!(golden.register_writes > 4 * FIRST_STRIDE, "{}", golden.register_writes);
            let mut costs = Vec::new();
            for parallelism in [1, 2, 3] {
                let cfg = CampaignConfig { parallelism, forensics: true, ..campaign(60) };
                let (reference, r, cost) = run_campaign(&m, spec(), &vm(), &cfg);
                let case = format!("{} parallelism {parallelism}", hc.label());
                assert_eq!(reference, golden, "{case}");
                assert_eq!(r, reference_campaign(&m, spec(), &vm(), &cfg), "{case}");
                costs.push(cost);
            }
            assert_costs_agree(&costs, 60);
            resumes += costs.iter().map(|c| c.resumes).sum::<u64>();
        }
        assert!(resumes > 0, "no pilot resumed from a checkpoint");
    }

    /// Six-injection campaigns' pilots execute at most a fifth of their
    /// reference runs' instructions, over ten seeds of one program long
    /// enough to keep every checkpoint: six plans over 21 gaps walk about
    /// half a gap each, some 15 % of a run (16 % here). The checkpoints
    /// thinned away are counted too, and the report is still the per-plan
    /// reference loop's.
    #[test]
    fn a_campaigns_pilots_walk_a_small_share_of_its_reference_run() {
        let m = harden(&program_of(6_000), &HardenConfig::haft());
        let (mut pilots, mut references) = (0, 0);
        for seed in 1..=10 {
            let cfg = CampaignConfig { seed, ..campaign(6) };
            let (golden, report, cost) = run_campaign(&m, spec(), &vm(), &cfg);
            if seed == 1 {
                assert_eq!(report, reference_campaign(&m, spec(), &vm(), &cfg));
            }
            assert_eq!(cost.kept, CHECKPOINTS as u64, "{cost:?}");
            assert!(cost.taken > cost.kept && cost.resumes > 0, "{cost:?}");
            (pilots, references) = (pilots + cost.instructions, references + golden.instructions);
        }
        let share = pilots as f64 / references as f64;
        assert!(share <= 0.2, "pilots ran {:.1} % of the reference runs", share * 100.0);
    }

    #[test]
    #[should_panic(expected = "reference run must complete")]
    fn broken_reference_panics() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("fini", &[], None);
        fb.set_non_local();
        let l = fb.new_block();
        fb.br(l);
        fb.switch_to(l);
        fb.br(l);
        m.push_func(fb.finish());
        let vm = VmConfig { max_instructions: 1000, ..vm() };
        run_campaign(&m, spec(), &vm, &campaign(1));
    }
}
