//! Cross-crate integration tests: the full pipeline from IR through
//! hardening, execution, fault injection, and the availability model,
//! driven through the facade's `Experiment` API.

use haft::prelude::*;

/// Hardening must preserve semantics for every benchmark and every pass
/// configuration the evaluation uses — one `compare` per benchmark.
#[test]
fn every_config_preserves_semantics_on_sample_benchmarks() {
    for w in all_workloads(Scale::Small) {
        let name = w.name;
        let report = Experiment::workload(&w).threads(2).compare(&[
            HardenConfig::ilr_only(),
            HardenConfig::tx_only(),
            HardenConfig::haft(),
            HardenConfig::at_opt_level(OptLevel::None),
            HardenConfig::at_opt_level(OptLevel::SharedMem),
            HardenConfig::at_opt_level(OptLevel::ControlFlow),
            HardenConfig::at_opt_level(OptLevel::LocalCalls),
            HardenConfig::at_opt_level(OptLevel::FaultProp),
            HardenConfig::tmr(),
            HardenConfig::abft(),
            HardenConfig::abft_fallback_heavy(),
        ]);
        assert_eq!(report.variants.len(), 12, "{name}: baseline + 11 variants");
        assert!(report.outputs_agree(), "{name}:\n{}", report.summary());
        // Every hardened variant pays a nonzero instruction cost.
        for v in &report.variants[1..] {
            assert!(v.pass_stats.total_added() > 0, "{name}/{}", v.label);
        }
    }
}

/// The headline reliability result: HAFT turns most would-be corruptions
/// into corrected executions.
#[test]
fn haft_reliability_pipeline() {
    let w = workload_by_name("linearreg", Scale::Small).unwrap();
    let exp = Experiment::workload(&w).vm(VmConfig {
        n_threads: 2,
        max_instructions: 100_000_000,
        ..Default::default()
    });
    let cfg = CampaignConfig { injections: 120, seed: 99, ..Default::default() };
    let native = exp.campaign(cfg.clone()).campaign.unwrap();
    let haft = exp.clone().harden(HardenConfig::haft()).campaign(cfg).campaign.unwrap();

    assert!(
        haft.pct(Outcome::Sdc) < native.pct(Outcome::Sdc),
        "HAFT {} vs native {}",
        haft.summary(),
        native.summary()
    );
    assert!(haft.pct(Outcome::HaftCorrected) > 20.0, "{}", haft.summary());
    // Correct group (masked + corrected) dominates, as in the paper's 91.2%.
    let correct = haft.pct(Outcome::HaftCorrected) + haft.pct(Outcome::Masked);
    assert!(correct > 50.0, "{}", haft.summary());
}

/// Coverage (fraction of cycles in transactions) is high for hardened
/// benchmarks, as in Table 2 (mean 90.2%).
#[test]
fn coverage_is_high_for_protected_benchmarks() {
    for name in ["histogram", "kmeans-ns", "x264"] {
        let w = workload_by_name(name, Scale::Small).unwrap();
        let r = Experiment::workload(&w)
            .harden(HardenConfig::haft())
            .threads(2)
            .tx_threshold(3000)
            .run()
            .expect_completed(name);
        assert!(r.htm.coverage_pct() > 60.0, "{name} coverage {:.1}%", r.htm.coverage_pct());
    }
}

/// Hyper-threading increases abort rates (Table 2, column 4).
#[test]
fn hyperthreading_increases_aborts_for_cache_hungry_kernels() {
    let w = workload_by_name("matrixmul", Scale::Small).unwrap();
    let exp = Experiment::workload(&w).harden(HardenConfig::haft()).vm(VmConfig {
        n_threads: 4,
        tx_threshold: 5000,
        ..Default::default()
    });
    let r_base = exp.run().expect_completed("base");
    let mut smt = VmConfig { n_threads: 4, tx_threshold: 5000, ..Default::default() };
    smt.htm = haft::htm::HtmConfig { smt: true, ..Default::default() };
    let r_smt = exp.clone().vm(smt).run().expect_completed("smt");
    assert!(
        r_smt.htm.environment_aborts() >= r_base.htm.environment_aborts(),
        "smt {} vs base {}",
        r_smt.htm.environment_aborts(),
        r_base.htm.environment_aborts()
    );
}

/// The model and the measured fault probabilities connect: plugging a
/// measured campaign into the chain yields a valid availability point.
#[test]
fn measured_probabilities_feed_the_model() {
    let w = workload_by_name("histogram", Scale::Small).unwrap();
    let rep = Experiment::workload(&w)
        .harden(HardenConfig::haft())
        .vm(VmConfig { n_threads: 2, max_instructions: 100_000_000, ..Default::default() })
        .campaign(CampaignConfig { injections: 60, seed: 4, ..Default::default() })
        .campaign
        .unwrap();
    let probs = haft::model::FaultProbabilities {
        masked: rep.pct(Outcome::Masked) / 100.0,
        sdc: rep.pct(Outcome::Sdc) / 100.0,
        crashed: (rep.pct(Outcome::Hang)
            + rep.pct(Outcome::OsDetected)
            + rep.pct(Outcome::IlrDetected))
            / 100.0,
        haft_correctable: rep.pct(Outcome::HaftCorrected) / 100.0,
    };
    let chain = haft::model::HaftChain { probs, rates: haft::model::RecoveryRates::default() };
    let pt = chain.evaluate(0.01, 3600.0);
    assert!(pt.availability > 0.0 && pt.availability <= 1.0);
    assert!(pt.corruption >= 0.0 && pt.corruption < 1.0);
}

/// The textual IR round-trips through the parser for real benchmark
/// modules, including hardened ones. Pass-inserted instructions make the
/// printed value ids non-sequential, so one parse α-renames them into
/// canonical order; after that the round-trip is the identity, and the
/// reparsed module runs identically.
#[test]
fn printer_parser_roundtrip_on_hardened_module() {
    let w = workload_by_name("histogram", Scale::Small).unwrap();
    let exp = Experiment::workload(&w).harden(HardenConfig::haft()).threads(2);
    let (hardened, _) = exp.build();
    let text = haft::ir::printer::print_module(&hardened);
    let parsed = haft::ir::parser::parse_module(&text).expect("parses");
    verify_module(&parsed).expect("verifies");
    // Canonical fixed point: print(parse(print(parse(x)))) == print(parse(x)).
    let canon = haft::ir::printer::print_module(&parsed);
    let reparsed = haft::ir::parser::parse_module(&canon).expect("reparses");
    assert_eq!(haft::ir::printer::print_module(&reparsed), canon);
    // And it still runs identically: the hardened module through the
    // experiment, the reparsed one through the same VM shape.
    let a = exp.run().expect_completed("hardened");
    let b = Experiment::new(&parsed).spec(w.run_spec()).threads(2).run().expect_completed("parsed");
    assert_eq!(a.output, b.output);
}

/// Lock elision end to end: hardened lock-based code commits transactions
/// instead of serializing on locks.
#[test]
fn lock_elision_reduces_lock_serialization() {
    use haft::apps::{memcached, KvSync, WorkloadMix};
    // Uniform keys (the paper's mcblaster setup): critical sections on
    // distinct buckets almost never conflict, so eliding their locks is a
    // pure win. (Zipf-hot traffic on our deliberately small table makes
    // large elided transactions abort-prone; REPRODUCTION.md's
    // `case-studies/memcached-ycsb-a` table measures elision under it.)
    let w = memcached(WorkloadMix::Uniform, KvSync::Lock, Scale::Small);
    let exp = Experiment::workload(&w).threads(4).tx_threshold(500);
    let native = exp.run().expect_completed("native");
    let elided = exp
        .clone()
        .harden(HardenConfig::haft_with_elision())
        .lock_elision(true)
        .run()
        .expect_completed("elided");
    assert_eq!(elided.output, native.output);
    assert!(elided.htm.commits > 0);
    // Elision must beat the non-elided hardened build.
    let noelision = exp.clone().harden(HardenConfig::haft()).run().expect_completed("noelision");
    assert!(
        elided.wall_cycles < noelision.wall_cycles,
        "elision {} vs noelision {}",
        elided.wall_cycles,
        noelision.wall_cycles
    );
}
