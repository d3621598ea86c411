//! Campaign driver: plan, inject, classify — sharing every run's
//! fault-free prefix, and skipping every suffix the fault no longer
//! touches.
//!
//! An injection run is, by construction, the reference run up to the
//! flipped register write. So the driver executes that prefix once: a
//! fault-free *pilot* VM visits the planned occurrences in ascending
//! order, is [forked](Vm::fork) just short of each, and only the fork —
//! from the flip on — runs per injection. A fork then stops where it
//! settles ([`Vm::run_to_settlement`]): once the transaction attempt its
//! flip landed in has aborted, or once the taint its flip seeded has
//! drained (a TMR copy outvoted and then rewritten), the rest is the
//! fault-free run, and the verdict is known ([`classify_settled`]). A
//! campaign of `n` injections costs about `n/(n+1)` of a run for the
//! pilot, plus per injection its window — flip to rollback or drain —
//! when it settles and its suffix when it does not (a flip outside a
//! transaction that never drains, say because it decided a branch; the
//! drain is watched op by op for at most a fixed window, so a fork that
//! does not settle pays little more than its suffix).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::Mutex;

use haft_ir::module::Module;
use haft_ir::rng::Prng;
use haft_vm::{FaultPlan, Forensics, ForkEnd, Prepared, RunOutcome, RunSpec, Vm, VmConfig};

use crate::classify::{classify, classify_settled, Outcome};
use crate::report::CampaignReport;

/// What became of the forks of every campaign run in this process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SettleCounts {
    /// Forks stopped at the rollback that erased their fault.
    pub settled: u64,
    /// Forks stopped where their taint drained.
    pub drained: u64,
    /// Forks run to their end.
    pub ended: u64,
}

static SETTLED: AtomicU64 = AtomicU64::new(0);
static DRAINED: AtomicU64 = AtomicU64::new(0);
static ENDED: AtomicU64 = AtomicU64::new(0);

/// The process-wide [`SettleCounts`] so far.
pub fn settle_counts() -> SettleCounts {
    SettleCounts {
        settled: SETTLED.load(Relaxed),
        drained: DRAINED.load(Relaxed),
        ended: ENDED.load(Relaxed),
    }
}

/// Campaign parameters.
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
    /// VM configuration for every run (simulated thread count, HTM
    /// parameters, ...). The fault plan and forensics fields are
    /// overwritten per run, and an injection run's instruction budget is
    /// `max_instructions` or a fixed multiple of the reference run's
    /// instructions (`HANG_RUNS`), whichever is less.
    pub vm: VmConfig,
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
            vm: VmConfig { n_threads: 2, ..Default::default() },
            forensics: false,
        }
    }
}

/// Runs a full campaign against `module` and returns the aggregated
/// report plus the golden (fault-free) output.
///
/// # Panics
///
/// Panics if the fault-free reference run does not complete — the program
/// under test must be correct before injecting faults into it.
pub fn run_campaign(module: &Module, spec: RunSpec<'_>, cfg: &CampaignConfig) -> CampaignReport {
    // Step 1: reference run — trace size and golden output — against the
    // decoded code every run of the campaign shares.
    let ref_cfg = VmConfig { fault: None, ..cfg.vm.clone() };
    let prepared = Prepared::new(module);
    let golden = Vm::start(module, &prepared, ref_cfg, spec).run_to_end();
    run_campaign_from(module, spec, cfg, &prepared, &golden)
}

/// What one injection run contributes to the report.
type Verdict = (Outcome, Option<Forensics>);

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
fn run_budget(vm: &VmConfig, golden: &haft_vm::RunResult) -> u64 {
    vm.max_instructions.min(HANG_RUNS.saturating_mul(golden.instructions))
}

/// Like [`run_campaign`], but reuses a `golden` reference run the caller
/// has already performed (with `cfg.vm` and no fault) instead of
/// re-executing it, and the `prepared` handle that run decoded: the pilot
/// and its forks run against it too, so a campaign decodes once. Used by
/// the `haft` facade's `Experiment`, which needs the reference
/// [`haft_vm::RunResult`] for its own report anyway.
///
/// # Panics
///
/// Panics if `golden` is not a completed run, or `prepared` does not fit
/// `module` and `cfg.vm` (see [`Vm::start`]).
pub fn run_campaign_from(
    module: &Module,
    spec: RunSpec<'_>,
    cfg: &CampaignConfig,
    prepared: &Prepared,
    golden: &haft_vm::RunResult,
) -> CampaignReport {
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
    // Forks inherit the pilot's configuration, and with it the budget.
    let pilot_cfg =
        VmConfig { fault: None, max_instructions: run_budget(&cfg.vm, golden), ..cfg.vm.clone() };
    let mut pilot = Vm::start(module, prepared, pilot_cfg, spec);
    // A fork settles only with a whole reference run's worth of budget
    // left, so that settling never hides a hang.
    let conclude = |fork: Vm<'_>| -> Verdict {
        match fork.run_to_settlement(golden.instructions) {
            ForkEnd::Ended(r) => {
                ENDED.fetch_add(1, Relaxed);
                (classify(&r, &golden.output), r.forensics)
            }
            ForkEnd::Settled(s) => {
                (if s.drained { &DRAINED } else { &SETTLED }).fetch_add(1, Relaxed);
                (classify_settled(&s), s.forensics)
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
            pilot.advance_to(plans[i].occurrence);
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
    for (_, (o, fx)) in &verdicts {
        report.record(*o);
        if let Some(fx) = fx {
            report.record_forensics(*o, fx);
        }
    }
    report
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
        let mut m = Module::new("t");
        m.add_global("acc", 8);
        m.add_global("scratch", 8);
        let g = Operand::GlobalAddr(GlobalId(0));
        let dead = Operand::GlobalAddr(GlobalId(1));
        let mut fb = FunctionBuilder::new("fini", &[], None);
        fb.set_non_local();
        fb.counted_loop(fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, 120), |b, i| {
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
        CampaignConfig {
            injections: n,
            seed: 42,
            parallelism: 2,
            vm: VmConfig { n_threads: 1, max_instructions: 5_000_000, ..Default::default() },
            forensics: false,
        }
    }

    /// The campaign as the methodology states it, and as the driver ran
    /// it before prefix sharing: every plan is its own from-scratch
    /// `Vm::run` under the campaign's run budget, serially, in plan
    /// order. The driver must report exactly this.
    fn reference_campaign(m: &Module, spec: RunSpec<'_>, cfg: &CampaignConfig) -> CampaignReport {
        let golden = Vm::run(m, VmConfig { fault: None, ..cfg.vm.clone() }, spec);
        let max_instructions = run_budget(&cfg.vm, &golden);
        let mut report = CampaignReport::default();
        for plan in plan_injections(cfg.seed, cfg.injections, golden.register_writes.max(1)) {
            let vm = VmConfig {
                fault: Some(plan),
                forensics: cfg.forensics,
                max_instructions,
                ..cfg.vm.clone()
            };
            let r = Vm::run(m, vm, spec);
            let o = classify(&r, &golden.output);
            report.record(o);
            if let Some(fx) = &r.forensics {
                report.record_forensics(o, fx);
            }
        }
        report
    }

    #[test]
    fn campaign_is_deterministic() {
        let m = program();
        let a = run_campaign(&m, spec(), &campaign(60));
        let b = run_campaign(&m, spec(), &campaign(60));
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.runs, 60);
        // The whole report — counts, runs, forensics aggregate — is the
        // per-plan reference loop's, on real worker threads and without.
        assert_eq!(a, reference_campaign(&m, spec(), &campaign(60)));
        let hardened = harden(&m, &HardenConfig::haft());
        for parallelism in [1, 2, 3] {
            let cfg = CampaignConfig { parallelism, forensics: true, ..campaign(60) };
            let want = reference_campaign(&hardened, spec(), &cfg);
            assert!(want.forensics.as_ref().is_some_and(|s| s.fired > 0));
            assert_eq!(run_campaign(&hardened, spec(), &cfg), want, "parallelism {parallelism}");
        }
    }

    #[test]
    fn zero_parallelism_is_clamped_to_serial() {
        // Regression: `parallelism: 0` must behave exactly like serial
        // execution — same run count, same outcome histogram — instead of
        // dividing by zero or dropping the plans.
        let m = program();
        let mut zero = campaign(40);
        zero.parallelism = 0;
        let a = run_campaign(&m, spec(), &zero);
        let b = run_campaign(&m, spec(), &campaign(40));
        assert_eq!(a.runs, 40);
        assert_eq!(a.counts, b.counts);
        zero.forensics = true;
        let hardened = harden(&m, &HardenConfig::haft());
        assert_eq!(
            run_campaign(&hardened, spec(), &zero),
            reference_campaign(&hardened, spec(), &zero)
        );
    }

    #[test]
    fn runs_past_the_budget_read_as_hangs() {
        // An `i16` countdown from 120: a flip that leaves the counter a
        // large positive value runs up to 32 767 more iterations. That
        // run ends well within 400 M instructions but after hundreds of
        // reference runs, so the campaign reads it as a hang, and so
        // does the from-scratch loop: the budget is part of the
        // campaign's definition.
        let mut fb = FunctionBuilder::new("fini", &[], None);
        fb.set_non_local();
        let (pre, head, exit) = (fb.current_block(), fb.new_block(), fb.new_block());
        fb.br(head);
        fb.switch_to(head);
        let i = fb.phi(Ty::I16);
        fb.phi_incoming(i, fb.iconst(Ty::I16, 120), pre);
        let next = fb.sub(Ty::I16, i, fb.iconst(Ty::I16, 1));
        fb.phi_incoming(i, next, head);
        let more = fb.cmp(haft_ir::inst::CmpOp::SGt, Ty::I16, next, fb.iconst(Ty::I16, 0));
        fb.condbr(more, head, exit);
        fb.switch_to(exit);
        fb.emit_out(Ty::I16, next);
        fb.ret(None);
        let mut m = Module::new("t");
        m.push_func(fb.finish());

        let cfg =
            CampaignConfig { vm: VmConfig { n_threads: 1, ..Default::default() }, ..campaign(40) };
        let golden = Vm::run(&m, cfg.vm.clone(), spec());
        let budget = run_budget(&cfg.vm, &golden);
        assert_eq!(budget, HANG_RUNS * golden.instructions);
        let tight = VmConfig { max_instructions: 3 * golden.instructions, ..cfg.vm.clone() };
        assert_eq!(run_budget(&tight, &golden), tight.max_instructions);
        let late = plan_injections(cfg.seed, cfg.injections, golden.register_writes)
            .into_iter()
            .any(|p| {
                let r = Vm::run(&m, VmConfig { fault: Some(p), ..cfg.vm.clone() }, spec());
                r.outcome != RunOutcome::Hang && r.instructions > budget
            });
        assert!(late, "no planned run ends past the budget");
        let r = run_campaign(&m, spec(), &cfg);
        assert!(r.counts.get(&Outcome::Hang).is_some_and(|&n| n > 0), "{}", r.summary());
        assert_eq!(r, reference_campaign(&m, spec(), &cfg));
    }

    #[test]
    fn native_program_shows_sdc_and_masking() {
        let m = program();
        let r = run_campaign(&m, spec(), &campaign(150));
        assert!(r.pct(Outcome::Sdc) > 5.0, "native must corrupt: {}", r.summary());
        assert!(r.pct(Outcome::Masked) > 2.0, "some faults mask: {}", r.summary());
        assert_eq!(r.pct(Outcome::HaftCorrected), 0.0, "no recovery without HAFT");
        assert_eq!(r.pct(Outcome::IlrDetected), 0.0, "no detection without ILR");
    }

    #[test]
    fn ilr_converts_sdc_to_detection() {
        let m = program();
        let native = run_campaign(&m, spec(), &campaign(150));
        let hardened = harden(&m, &HardenConfig::ilr_only());
        let r = run_campaign(&hardened, spec(), &campaign(150));
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
        let r = run_campaign(&hardened, spec(), &campaign(150));
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
        let r = run_campaign(&hardened, spec(), &campaign(150));
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
            let cfg = VmConfig {
                n_threads: 1,
                fault: Some(FaultPlan { occurrence: 0, xor_mask: mask }),
                forensics: true,
                ..Default::default()
            };
            Vm::run(&m, cfg, spec()).forensics.expect("fault must fire").site.applied_mask
        };
        assert_eq!(run(0xFF00), 1, "fallback path must be recorded as bit 0");
        assert_eq!(run(0x0F), 0x0F, "truncated mask applied verbatim");
    }

    #[test]
    fn forensics_campaign_aggregates_without_changing_outcomes() {
        let m = program();
        let hardened = harden(&m, &HardenConfig::haft());
        let plain = run_campaign(&hardened, spec(), &campaign(80));
        let mut cfg = campaign(80);
        cfg.forensics = true;
        let traced = run_campaign(&hardened, spec(), &cfg);
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
        let before = settle_counts();
        for (i, w) in all_workloads(Scale::Small).iter().enumerate() {
            let (seed, n_threads) = [(7, 2), (11, 4), (5, 1)][i % 3];
            for hc in &configs {
                let hardened = harden(&w.module, hc);
                let vm = VmConfig { n_threads, ..Default::default() };
                let golden = Vm::run(&hardened, vm.clone(), w.run_spec());
                let vm = VmConfig { max_instructions: 4 * golden.instructions, ..vm };
                for forensics in [false, true] {
                    let cfg = CampaignConfig {
                        injections: 8,
                        seed,
                        parallelism: 2,
                        vm: vm.clone(),
                        forensics,
                    };
                    assert_eq!(
                        run_campaign(&hardened, w.run_spec(), &cfg),
                        reference_campaign(&hardened, w.run_spec(), &cfg),
                        "{} {} forensics={forensics}",
                        w.name,
                        hc.label()
                    );
                }
            }
        }
        let after = settle_counts();
        assert!(
            after.settled > before.settled
                && after.drained > before.drained
                && after.ended > before.ended,
            "{after:?}"
        );
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
        let mut c = campaign(1);
        c.vm.max_instructions = 1000;
        run_campaign(&m, spec(), &c);
    }
}
