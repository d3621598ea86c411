//! Fault-correction battery for the ABFT backend.
//!
//! Three properties, swept with proptest-planned single-event upsets:
//!
//! 1. A flip landing in checksummed state is corrected in place — every
//!    run the campaign would classify `ChecksumCorrected` produces
//!    bit-clean output (zero SDC among corrected runs).
//! 2. A flip in a function that fell back to full HAFT produces only the
//!    existing HAFT outcomes — the checksum counter never fires where no
//!    checksum was installed.
//! 3. Campaign outcome counts always sum to the planned injection total.

use proptest::prelude::*;

use haft_faults::{run_campaign, CampaignConfig, Outcome};
use haft_ir::builder::FunctionBuilder;
use haft_ir::inst::Operand;
use haft_ir::module::{GlobalId, Module};
use haft_ir::types::Ty;
use haft_passes::{HardenConfig, PassManager};
use haft_vm::{FaultPlan, Prepared, RunOutcome, RunResult, RunSpec, Vm, VmConfig};

/// An update-loop kernel the ABFT pass covers: `acc += i * 7` through a
/// memory cell, the carried state checksummed in three lanes.
fn covered_module() -> Module {
    let mut m = Module::new("abft-covered");
    m.add_global("acc", 8);
    let g = Operand::GlobalAddr(GlobalId(0));
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    fb.counted_loop(fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, 100), |b, i| {
        let cur = b.load(Ty::I64, g);
        let x = b.mul(Ty::I64, i, b.iconst(Ty::I64, 7));
        let nxt = b.add(Ty::I64, cur, x);
        b.store(Ty::I64, nxt, g);
    });
    let v = fb.load(Ty::I64, g);
    fb.emit_out(Ty::I64, v);
    fb.ret(None);
    m.push_func(fb.finish());
    m
}

/// A counter kernel with no data chain (constant stride): the whole
/// function falls back to full HAFT under the ABFT backend.
fn fallback_module() -> Module {
    let mut m = Module::new("abft-fallback");
    m.add_global("count", 8);
    let g = Operand::GlobalAddr(GlobalId(0));
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    fb.counted_loop(fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, 100), |b, _i| {
        let cur = b.load(Ty::I64, g);
        let nxt = b.add(Ty::I64, cur, b.iconst(Ty::I64, 1));
        b.store(Ty::I64, nxt, g);
    });
    let v = fb.load(Ty::I64, g);
    fb.emit_out(Ty::I64, v);
    fb.ret(None);
    m.push_func(fb.finish());
    m
}

/// Hardens each fixture once for the whole battery (a proptest case runs
/// dozens of times; the module is immutable across them).
fn harden_abft(m: &Module) -> &'static Module {
    use std::sync::OnceLock;
    static COVERED: OnceLock<Module> = OnceLock::new();
    static FALLBACK: OnceLock<Module> = OnceLock::new();
    let cell = if m.name == "abft-covered" { &COVERED } else { &FALLBACK };
    cell.get_or_init(|| PassManager::from_config(&HardenConfig::abft()).run_on(m).0)
}

fn spec() -> RunSpec<'static> {
    RunSpec { fini: Some("fini"), ..Default::default() }
}

fn vm() -> VmConfig {
    VmConfig { n_threads: 1, max_instructions: 10_000_000, ..Default::default() }
}

fn inject(m: &Module, occurrence: u64, xor_mask: u64) -> RunResult {
    let prepared = Prepared::new(m);
    let vm = Vm::start(m, &prepared, vm(), spec());
    vm.fork(FaultPlan { occurrence, xor_mask }, false).run_to_end()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn checksum_corrected_runs_are_bit_clean(occ in any::<u64>(), mask in 1u64..u64::MAX) {
        let hardened = harden_abft(&covered_module());
        let clean = Vm::run(hardened, vm(), spec());
        prop_assert_eq!(clean.outcome, RunOutcome::Completed);
        let r = inject(hardened, occ % clean.register_writes, mask);
        // The covered function carries no transactions, so rollback
        // recovery cannot shadow a checksum event.
        prop_assert_eq!(r.recoveries, 0);
        prop_assert_eq!(r.corrected_by_vote, 0);
        if r.corrected_by_checksum > 0 && r.outcome == RunOutcome::Completed {
            prop_assert_eq!(&r.output, &clean.output);
            prop_assert_eq!(
                haft_faults::classify(&r, &clean.output),
                Outcome::ChecksumCorrected
            );
        }
    }

    #[test]
    fn fallback_functions_keep_the_haft_outcome_set(occ in any::<u64>(), mask in 1u64..u64::MAX) {
        let hardened = harden_abft(&fallback_module());
        let clean = Vm::run(hardened, vm(), spec());
        prop_assert_eq!(clean.outcome, RunOutcome::Completed);
        let r = inject(hardened, occ % clean.register_writes, mask);
        // No checksum was installed, so the counter must never move and
        // classification stays inside HAFT's Table 1 rows.
        prop_assert_eq!(r.corrected_by_checksum, 0);
        let o = haft_faults::classify(&r, &clean.output);
        prop_assert_ne!(o, Outcome::ChecksumCorrected);
        prop_assert_ne!(o, Outcome::VoteCorrected);
    }
}

#[test]
fn campaign_counts_sum_to_plan_total_and_include_corrections() {
    let hardened = harden_abft(&covered_module());
    let cfg = CampaignConfig { injections: 150, seed: 7, parallelism: 2, forensics: false };
    let (_, r) = run_campaign(hardened, spec(), &vm(), &cfg);
    assert_eq!(r.runs, 150);
    assert_eq!(r.counts.values().sum::<u64>(), 150, "counts must sum to the plan total");
    assert!(
        r.pct(Outcome::ChecksumCorrected) > 0.0,
        "a campaign over checksummed state corrects something: {}",
        r.summary()
    );
    assert_eq!(r.pct(Outcome::VoteCorrected), 0.0, "no votes in the ABFT backend");
    assert_eq!(r.pct(Outcome::HaftCorrected), 0.0, "covered code has no rollback machinery");
}

#[test]
fn fallback_campaign_recovers_like_haft() {
    let hardened = harden_abft(&fallback_module());
    let cfg = CampaignConfig { injections: 150, seed: 7, parallelism: 2, forensics: false };
    let (_, r) = run_campaign(hardened, spec(), &vm(), &cfg);
    assert_eq!(r.counts.values().sum::<u64>(), 150);
    assert_eq!(r.pct(Outcome::ChecksumCorrected), 0.0, "{}", r.summary());
    assert!(
        r.pct(Outcome::HaftCorrected) > 10.0,
        "fallback code rolls back like HAFT: {}",
        r.summary()
    );
}
