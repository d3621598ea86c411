//! Unit tests for the `Experiment` pipeline API itself: variant
//! ordering, report bookkeeping, backend selection, and the recorded
//! performance baseline.

use haft::prelude::*;

/// `compare` must order variants deterministically: the native baseline
/// first, then the caller's configurations in the given order — twice in
/// a row, with identical labels and measurements.
#[test]
fn compare_orders_variants_consistently() {
    let w = workload_by_name("histogram", Scale::Small).unwrap();
    let configs = [
        HardenConfig::haft(),
        HardenConfig::ilr_only(),
        HardenConfig::tx_only(),
        HardenConfig::haft().without_local_calls(),
    ];
    let a = Experiment::workload(&w).threads(2).compare(&configs);
    let labels: Vec<&str> = a.variants.iter().map(|v| v.label.as_str()).collect();
    assert_eq!(labels, vec!["native", "HAFT", "ILR", "TX", "HAFT-nc"]);
    assert_eq!(a.baseline().label, "native");
    assert_eq!(a.baseline().overhead_vs_native, Some(1.0));

    // Deterministic across invocations: same order, same cycles.
    let b = Experiment::workload(&w).threads(2).compare(&configs);
    for (va, vb) in a.variants.iter().zip(&b.variants) {
        assert_eq!(va.label, vb.label);
        assert_eq!(va.run.wall_cycles, vb.run.wall_cycles);
        assert_eq!(va.overhead_vs_native, vb.overhead_vs_native);
    }

    // Lookup by label agrees with positional order.
    assert_eq!(a.variant("ILR").unwrap().run.wall_cycles, a.variants[2].run.wall_cycles);
    assert!(a.variant("nonexistent").is_none());
}

/// Every hardened variant reports pass stats consistent with the static
/// instruction counts, and overheads above 1.
#[test]
fn compare_reports_costs() {
    let w = workload_by_name("histogram", Scale::Small).unwrap();
    let report = Experiment::workload(&w).threads(2).compare(&[HardenConfig::haft()]);
    assert!(report.outputs_agree(), "{}", report.summary());
    let haft = report.variant("HAFT").unwrap();
    assert_eq!(haft.pass_stats.pass_names(), vec!["ilr", "tx"]);
    assert!(haft.pass_stats.added_by("ilr").unwrap() > 0);
    assert!(haft.pass_stats.added_by("tx").unwrap() > 0);
    assert!(report.overhead("HAFT").unwrap() > 1.0);
}

/// `Experiment::compare` must keep reproducing the native-vs-HAFT
/// overhead recorded in CHANGES.md for linearreg/Small at 2 threads
/// (micro-bench baseline: 2.70 ms native vs 6.58 ms HAFT ≈ 2.4×). The
/// simulator is deterministic, so drift beyond noise means a cost-model
/// or pass regression, not measurement error.
#[test]
fn compare_reproduces_recorded_linearreg_overhead() {
    let w = workload_by_name("linearreg", Scale::Small).unwrap();
    let report = Experiment::workload(&w).threads(2).compare(&[HardenConfig::haft()]);
    assert!(report.outputs_agree(), "{}", report.summary());
    let oh = report.overhead("HAFT").unwrap();
    assert!((1.8..=3.2).contains(&oh), "linearreg HAFT overhead drifted: {oh:.2}x");
}

/// A campaign through the experiment equals a manual `run_campaign` with
/// the same parameters — the unified report is a repackaging, not a
/// different methodology: the same reference run and the same whole
/// report (counts, run total, forensics aggregate).
#[test]
fn experiment_campaign_matches_run_campaign() {
    let w = workload_by_name("histogram", Scale::Small).unwrap();
    let vm = VmConfig { n_threads: 2, max_instructions: 100_000_000, ..Default::default() };
    let cfg = CampaignConfig { injections: 40, seed: 7, forensics: true, ..Default::default() };

    let v =
        Experiment::workload(&w).harden(HardenConfig::haft()).vm(vm.clone()).campaign(cfg.clone());

    let hardened = PassManager::from_config(&HardenConfig::haft()).run_on(&w.module).0;
    let (reference, manual) = run_campaign(&hardened, w.run_spec(), &vm, &cfg);

    assert_eq!(v.run, reference);
    assert_eq!(v.campaign, Some(manual));
}

/// The acceptance grid for the pluggable-backend design: one `compare`
/// call races the default backend (full HAFT) against TMR over the same
/// native baseline, and a campaign against the TMR variant corrects by
/// masking — nonzero vote-corrected outcomes, zero HTM transactions,
/// zero rollback recoveries.
#[test]
fn compare_races_haft_against_tmr() {
    let w = workload_by_name("histogram", Scale::Small).unwrap();
    let report = Experiment::workload(&w)
        .threads(2)
        .compare(&[HardenConfig::default(), HardenConfig::tmr()]);
    assert!(report.outputs_agree(), "{}", report.summary());
    let labels: Vec<&str> = report.variants.iter().map(|v| v.label.as_str()).collect();
    assert_eq!(labels, vec!["native", "HAFT", "TMR"]);
    assert!(report.overhead("HAFT").unwrap() > 1.0);
    assert!(report.overhead("TMR").unwrap() > 1.0);
    // TMR runs the single `tmr` pass and publishes its vote count.
    let tmr = report.variant("TMR").unwrap();
    assert_eq!(tmr.pass_stats.pass_names(), vec!["tmr"]);
    assert!(tmr.pass_stats.metrics().get("pass.tmr.votes").unwrap() > 0.0);
    assert_eq!(tmr.run.htm.commits, 0, "TMR must not transactify");

    let v = Experiment::workload(&w)
        .backend(Backend::Tmr)
        .vm(VmConfig { n_threads: 2, max_instructions: 100_000_000, ..Default::default() })
        .campaign(CampaignConfig { injections: 60, seed: 11, ..Default::default() });
    let campaign = v.campaign.unwrap();
    assert!(
        campaign.counts.get(&Outcome::VoteCorrected).copied().unwrap_or(0) > 0,
        "TMR must mask some faults: {}",
        campaign.summary()
    );
    assert_eq!(
        campaign.counts.get(&Outcome::HaftCorrected).copied().unwrap_or(0),
        0,
        "no rollback machinery in the TMR backend"
    );
    assert_eq!(
        campaign.counts.get(&Outcome::ChecksumCorrected).copied().unwrap_or(0),
        0,
        "checksum fired without a checksum backend"
    );
    assert_eq!(v.run.htm.commits, 0);
    assert_eq!(v.run.recoveries, 0);
}

/// `Experiment::backend` selects each backend's full-strength preset.
#[test]
fn backend_builder_selects_presets() {
    let w = workload_by_name("histogram", Scale::Small).unwrap();
    let tmr = Experiment::workload(&w).backend(Backend::Tmr).run();
    assert_eq!(tmr.label, "TMR");
    let haft = Experiment::workload(&w).backend(Backend::IlrTx).run();
    assert_eq!(haft.label, "HAFT");
    assert_eq!(haft.run.output, tmr.run.output, "backends agree on fault-free output");
}

/// Every terminal op carries the selected `Backend` on its report as the
/// enum, so callers dispatch on it instead of string-matching labels
/// like `TMR-tl` (native carries the default `IlrTx` with both passes
/// off, exactly as its `HardenConfig` does).
#[test]
fn variant_reports_expose_the_selected_backend() {
    let w = workload_by_name("histogram", Scale::Small).unwrap();
    let report = Experiment::workload(&w).threads(2).compare(&[
        HardenConfig::haft(),
        HardenConfig::tmr(),
        HardenConfig::tmr_unoptimized(),
    ]);
    let backends: Vec<Backend> = report.variants.iter().map(|v| v.backend).collect();
    assert_eq!(backends, vec![Backend::IlrTx, Backend::IlrTx, Backend::Tmr, Backend::Tmr]);
    // No string matching needed to find the masking variant.
    let tmr_count = report.variants.iter().filter(|v| v.backend == Backend::Tmr).count();
    assert_eq!(tmr_count, 2);

    // run() and campaign() carry it too.
    let v = Experiment::workload(&w).backend(Backend::Tmr).run();
    assert_eq!(v.backend, Backend::Tmr);
    assert_eq!(v.label, "TMR");
    let c = Experiment::workload(&w).threads(1).backend(Backend::Tmr).campaign(CampaignConfig {
        injections: 4,
        parallelism: 2,
        ..Default::default()
    });
    assert_eq!(c.backend, Backend::Tmr);
    assert!(c.campaign.is_some());
}

/// `Experiment::serve` reuses the lazily-cached hardened module: a load
/// sweep over one experiment hardens once and the reports stay
/// deterministic.
#[test]
fn serve_reuses_the_cached_hardened_module() {
    use haft::apps::{kv_shard, KvSync};
    let w = kv_shard(KvSync::Atomics);
    let exp = Experiment::workload(&w).harden(HardenConfig::haft());
    // Build once, serve twice: identical reports, and the pass stats the
    // cache produced are the ones `build()` reports.
    let (hardened, stats) = exp.build();
    assert!(hardened.total_inst_count() > w.module.total_inst_count());
    assert_eq!(stats.pass_names(), vec!["ilr", "tx"]);
    let cfg = ServeConfig { requests: 60, ..Default::default() };
    let a = exp.serve(&cfg);
    let b = exp.serve(&cfg);
    assert_eq!(a.label, "HAFT");
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.duration_ns, b.duration_ns);
    assert_eq!(a.requests_served, 60);
}

/// Clones of one experiment share its hardened module: a threshold sweep
/// over four clones, run from two threads, hardens once, and `.harden()`
/// on a clone starts a cache of its own.
#[test]
fn clones_share_one_hardening_across_threads() {
    // The counter is process-global and keyed by module name; a unique
    // name keeps parallel tests out of this count.
    let mut w = workload_by_name("histogram", Scale::Small).unwrap();
    w.module.name = "histogram_clone_cache_probe".into();
    let probe = || haft::passes::harden_runs_for("histogram_clone_cache_probe");
    let before = probe();

    let exp = Experiment::workload(&w).harden(HardenConfig::haft());
    let sweep: Vec<Experiment> =
        [250, 1000, 2000, 5000].iter().map(|&t| exp.clone().tx_threshold(t)).collect();
    std::thread::scope(|s| {
        for pair in sweep.chunks(2) {
            s.spawn(move || {
                for e in pair {
                    assert!(e.run().completed());
                }
            });
        }
    });
    assert_eq!(probe() - before, 1, "four clones on two threads harden once");

    let rehardened = sweep[0].clone().harden(HardenConfig::haft());
    assert!(rehardened.run().completed());
    assert_eq!(probe() - before, 2, ".harden() on a clone hardens again");
}

/// `build()` hands out the cached hardened module without copying a
/// body: two builds share every body, and a native build shares every
/// body with the experiment's own module, as a native `run_on` does.
#[test]
fn build_shares_every_body_with_the_cache() {
    use haft::apps::{kv_shard, KvSync};
    use std::sync::Arc;
    let w = kv_shard(KvSync::Atomics);
    let shared = |a: &Module, b: &Module| {
        a.funcs.len() == b.funcs.len()
            && a.funcs.iter().zip(&b.funcs).all(|(x, y)| Arc::ptr_eq(x, y))
    };
    for cfg in [HardenConfig::haft(), HardenConfig::tmr(), HardenConfig::abft()] {
        let exp = Experiment::workload(&w).harden(cfg);
        let (a, _) = exp.build();
        let (b, _) = exp.build();
        assert!(shared(&a, &b), "{}: build() copied a body", a.name);
        assert!(!shared(&a, &w.module), "hardening rewrote the shard's bodies");
    }
    let (native, _) = Experiment::workload(&w).build();
    assert!(shared(&native, &w.module), "a native build copied a body");
    let (run_on, _) = PassManager::from_config(&HardenConfig::native()).run_on(&w.module);
    assert!(shared(&run_on, &w.module), "a native run_on copied a body");
}
