//! Differential and schema tests for the observability layer
//! (`haft-trace`): tracing and profiling must be strictly observational
//! (bit-identical results with instrumentation on or off), cycle
//! attribution must sum exactly to the run's cycle accounting, a native
//! serving trace must cover every subsystem, and the unified metrics
//! registry's names must stay stable.

use haft::apps::{kv_shard, KvSync};
use haft::prelude::*;

/// Unique scratch path for trace files (no tempfile dependency; the OS
/// temp dir plus the test name and process id is collision-free enough
/// for a test binary that runs each test at most once per process).
fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("haft-{}-{}.json", name, std::process::id()))
}

/// A `Vm` with a trace buffer attached (`Vm::trace_into`) must return a
/// `RunResult` bit-identical to `Vm::run` — on both engines, for native,
/// HAFT, and TMR hardening, fault-free and with one flip. This is the
/// core zero-cost contract: attaching a trace buffer observes the run,
/// it never perturbs it. So must one with a profile attached as well
/// (`Vm::profile_into`), and neither observer perturbs the other: its
/// events are the trace-only run's, its profile the profile-only run's.
#[test]
fn traced_vm_run_is_bit_identical() {
    let w = workload_by_name("histogram", Scale::Small).unwrap();
    for engine in [Engine::Interp, Engine::Fused] {
        let mut rolled_back = false;
        for cfg in [HardenConfig::native(), HardenConfig::haft(), HardenConfig::tmr()] {
            let label = cfg.label();
            let exp = Experiment::workload(&w).harden(cfg).engine(engine).threads(2);
            let (module, _) = exp.build();
            let prepared = Prepared::new(&module);
            let clean = VmConfig { n_threads: 2, engine, ..Default::default() };
            let writes = Vm::run(&module, clean.clone(), w.run_spec()).register_writes;
            // Fault-free, and with a flip mid-run, which HAFT rolls back:
            // the abort hooks then run with both observers attached.
            for fault in [None, Some(FaultPlan { occurrence: writes / 2, xor_mask: 1 })] {
                let at = format!("{engine:?}/{label}/{fault:?}");
                // A faulted run is the fork of a fresh VM; observers
                // attach to the fork.
                let start = || {
                    let vm = Vm::start(&module, &prepared, clean.clone(), w.run_spec());
                    match fault {
                        Some(plan) => vm.fork(plan, false),
                        None => vm,
                    }
                };
                let plain = start().run_to_end();
                rolled_back |= plain.htm.total_aborts() > 0;
                let observed = |trace: bool, profile: bool| {
                    let (mut buf, mut cycles) = (TraceBuf::new(), CycleProfile::default());
                    let mut run = start();
                    if trace {
                        run.trace_into(&mut buf);
                    }
                    if profile {
                        run.profile_into(&mut cycles);
                    }
                    (run.run_to_end(), buf, cycles)
                };
                let (traced, buf, _) = observed(true, false);
                assert_eq!(plain, traced, "{at}: tracing changed the result");
                assert!(!buf.events.is_empty(), "{at}: no events collected");
                let (profiled, _, profile) = observed(false, true);
                assert_eq!(plain, profiled, "{at}: profiling changed the result");
                let (both, both_buf, both_profile) = observed(true, true);
                assert_eq!(plain, both, "{at}: both observers changed the result");
                assert_eq!(buf, both_buf, "{at}: profiling changed the trace");
                assert_eq!(profile, both_profile, "{at}: tracing changed the profile");
                assert_eq!(both_profile.total(), plain.cpu_cycles, "{at}: attribution");
            }
        }
        assert!(rolled_back, "{engine:?}: no run aborted, so no abort hook ran observed");
    }
}

/// `Experiment::run_profiled` must also be bit-identical, and the profile's
/// cell total must equal the run's `cpu_cycles` *exactly* — the
/// telescoping attribution leaves no cycle unaccounted and counts none
/// twice. Pinned on both engines, whose histograms must also be equal
/// cell for cell: the fused fetch path prices identically to the
/// interpreter.
#[test]
fn profile_attribution_sums_exactly_to_cpu_cycles() {
    let w = workload_by_name("histogram", Scale::Small).unwrap();
    for cfg in [HardenConfig::haft(), HardenConfig::tmr()] {
        let label = cfg.label();
        let mut profiles = Vec::new();
        for engine in [Engine::Interp, Engine::Fused] {
            let exp = Experiment::workload(&w).harden(cfg.clone()).engine(engine).threads(2);
            let plain = exp.run();
            let (profiled, profile) = exp.run_profiled();
            assert_eq!(plain.run, profiled.run, "{engine:?}/{label}: profiling changed the run");
            assert_eq!(
                profile.total(),
                profiled.run.cpu_cycles,
                "{engine:?}/{label}: attribution must sum exactly"
            );
            assert!(!profile.by_function().is_empty());
            profiles.push(profile);
        }
        assert_eq!(profiles[0], profiles[1], "{label}: the engines' profiles differ");
    }
}

/// A phi slot reached by straight-line execution — the entry block
/// opens with one, or one sits after a non-phi — is malformed IR that
/// `verify` rejects and the VM must trap on. Both engines classify the
/// slot through the one `OpClass::of`, so their profiles are equal too;
/// inside a transaction the trap is an abort, whose penalty lands in
/// the `tx-abort` class on every retry before the fallback traps.
#[test]
fn phi_slot_traps_as_malformed_ir_with_equal_profiles() {
    let entry_phi = r#"module "phi-entry"
func "fini" () nonlocal {
b0:
  %0 = phi i64 [1:i64, b0]
  ret
}
"#;
    let phi_in_tx = r#"module "phi-in-tx"
func "fini" () nonlocal {
b0:
  tx_begin
  %0 = phi i64 [1:i64, b0]
  ret
}
"#;
    for (text, aborts) in [(entry_phi, 0), (phi_in_tx, 4)] {
        let m = haft::ir::parser::parse_module(text).unwrap();
        assert!(verify_module(&m).is_err(), "{}: the verifier must reject it", m.name);
        let spec = RunSpec { fini: Some("fini"), ..Default::default() };
        let prepared = Prepared::new(&m);
        let run = |engine| {
            let mut profile = CycleProfile::default();
            let mut vm = Vm::start(&m, &prepared, VmConfig { engine, ..Default::default() }, spec);
            vm.profile_into(&mut profile);
            (vm.run_to_end(), profile)
        };
        let (interp, interp_profile) = run(Engine::Interp);
        let (fused, fused_profile) = run(Engine::Fused);
        assert_eq!(interp, fused, "{}: engines diverge", m.name);
        assert_eq!(interp_profile, fused_profile, "{}: the engines' profiles differ", m.name);
        assert_eq!(fused.outcome, RunOutcome::Trapped(haft::vm::Trap::MalformedIr));
        assert_eq!(fused.htm.total_aborts(), aborts, "{}: retries before the fallback", m.name);
        assert_eq!(fused_profile.total(), fused.cpu_cycles);
    }
}

/// What a fused profiled run carries across its run boundaries, against
/// the reference interpreter's fetch per op: every loop iteration calls
/// and returns (the function changes between runs, so the cell a run
/// opens with is another function's), and with four threads on one cell
/// the transactions conflict (a run opens on the `tx-abort` relabel, in
/// the function the rollback resumes in). One thread and four.
#[test]
fn profiles_match_across_calls_and_conflict_aborts() {
    let mut m = Module::new("contended");
    let x = Operand::GlobalAddr(m.add_global("x", 8));
    let mut bump = FunctionBuilder::new("bump", &[Ty::I64], Some(Ty::I64));
    // Long enough to be issued over several cycles of its own.
    let mut v = bump.param(0);
    for k in 1..=8 {
        v = bump.add(Ty::I64, v, bump.iconst(Ty::I64, k % 2));
    }
    bump.ret(Some(v.into()));
    let bump = m.push_func(bump.finish());
    let mut w = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
    w.set_non_local();
    w.counted_loop(w.iconst(Ty::I64, 0), w.iconst(Ty::I64, 60), |b, _| {
        b.emit_op(Op::TxBegin);
        let v = b.load(Ty::I64, x);
        let nv = b.call(bump, &[v.into()], Some(Ty::I64)).unwrap();
        b.store(Ty::I64, nv, x);
        b.emit_op(Op::TxEnd);
    });
    w.ret(None);
    m.push_func(w.finish());
    let mut f = FunctionBuilder::new("fini", &[], None);
    f.set_non_local();
    let v = f.load(Ty::I64, x);
    f.emit_out(Ty::I64, v);
    f.ret(None);
    m.push_func(f.finish());
    verify_module(&m).unwrap();

    let spec = RunSpec { worker: Some("worker"), fini: Some("fini"), ..Default::default() };
    let prepared = Prepared::new(&m);
    for n_threads in [1, 4] {
        let vm = |engine| VmConfig { n_threads, quantum: 9, engine, ..Default::default() };
        let profiled = |engine| {
            let mut profile = CycleProfile::default();
            let mut run = Vm::start(&m, &prepared, vm(engine), spec);
            run.profile_into(&mut profile);
            (run.run_to_end(), profile)
        };
        let (interp, interp_profile) = profiled(Engine::Interp);
        let (fused, fused_profile) = profiled(Engine::Fused);
        assert_eq!(interp, fused, "{n_threads} threads: engines diverge");
        assert_eq!(fused, Vm::run(&m, vm(Engine::Fused), spec), "{n_threads} threads: profiling");
        assert_eq!(interp_profile, fused_profile, "{n_threads} threads: profiles differ");
        assert_eq!(fused_profile.total(), fused.cpu_cycles, "{n_threads} threads");
        let funcs: Vec<String> = fused_profile.by_function().into_iter().map(|f| f.0).collect();
        assert!(["bump", "worker"].iter().all(|f| funcs.iter().any(|g| g == f)), "{funcs:?}");
        let penalty = fused_profile.by_class().iter().any(|c| c.0 == "tx-abort");
        assert_eq!(penalty, n_threads == 4, "{n_threads} threads: {:?}", fused.htm);
        assert_eq!(fused.htm.total_aborts() > 0, n_threads == 4);
    }
}

/// A traced DES serve run must return a `ServiceReport` equal to the
/// untraced one — full structural equality, including latency
/// percentiles, per-shard stats, and fault accounting.
#[test]
fn traced_sim_serve_is_bit_identical() {
    let w = kv_shard(KvSync::Atomics);
    let cfg = ServeConfig {
        requests: 120,
        shards: 2,
        faults: Some(FaultLoad::default()),
        sagas: Some(SagaLoad::default()),
        ..Default::default()
    };
    let exp = Experiment::workload(&w).harden(HardenConfig::haft());
    let plain = exp.serve(&cfg);

    let path = scratch("sim-serve");
    let traced = exp.clone().trace(&path).serve(&cfg);
    assert_eq!(plain, traced, "tracing changed the DES report");

    let text = std::fs::read_to_string(&path).unwrap();
    let counts = validate_chrome_trace(&text).unwrap();
    let cats: Vec<&str> = counts.iter().map(|(c, _)| c.as_str()).collect();
    assert!(cats.contains(&"serve"), "missing serve events: {cats:?}");
    assert!(cats.contains(&"vm"), "missing spliced VM events: {cats:?}");
    let _ = std::fs::remove_file(&path);
}

/// A traced native run must produce a Perfetto-loadable file whose
/// events span every subsystem: VM phases, HTM transactions, batch
/// service, pool scheduling, and saga lifecycle.
#[test]
fn native_trace_covers_every_subsystem() {
    let w = kv_shard(KvSync::Atomics);
    let cfg = ServeConfig {
        requests: 160,
        shards: 2,
        sagas: Some(SagaLoad { every: 2, span: 3 }),
        ..Default::default()
    };
    let path = scratch("native-serve");
    let report = Experiment::workload(&w)
        .harden(HardenConfig::haft())
        .trace(&path)
        .serve_in(ServeMode::Native { workers: 2 }, &cfg);
    assert_eq!(report.requests_served, 160);
    assert!(report.wall.is_some(), "native run must fill the wall report");

    let text = std::fs::read_to_string(&path).unwrap();
    let counts = validate_chrome_trace(&text).unwrap();
    let cats: Vec<&str> = counts.iter().map(|(c, _)| c.as_str()).collect();
    for required in ["vm", "htm", "serve", "pool", "saga"] {
        assert!(cats.contains(&required), "missing `{required}` events: {cats:?}");
    }
    let _ = std::fs::remove_file(&path);
}

/// The unified registry's metric names are a public schema: dashboards
/// and the report harness key on them, so renames are breaking changes.
/// This pins every name each exporter emits.
#[test]
fn metrics_registry_names_are_stable() {
    let w = workload_by_name("histogram", Scale::Small).unwrap();
    let v = Experiment::workload(&w).harden(HardenConfig::haft()).threads(2).run();

    let vm_metrics = v.run.metrics();
    let vm_names: Vec<&str> = vm_metrics.names();
    assert_eq!(
        vm_names,
        vec![
            "htm.aborts.capacity",
            "htm.aborts.conflict",
            "htm.aborts.explicit",
            "htm.aborts.ilr-detected",
            "htm.aborts.spontaneous",
            "htm.aborts.timer",
            "htm.aborts.unfriendly",
            "htm.commits",
            "htm.fallbacks",
            "htm.started",
            "htm.total_cycles",
            "htm.tx_cycles",
            "vm.corrected_by_checksum",
            "vm.corrected_by_vote",
            "vm.cycles.cpu",
            "vm.cycles.fini",
            "vm.cycles.init",
            "vm.cycles.wall",
            "vm.cycles.worker",
            "vm.detections",
            "vm.instructions",
            "vm.mispredicts",
            "vm.recoveries",
            "vm.register_writes",
        ]
    );
    assert_eq!(v.run.metrics().get("htm.commits"), Some(v.run.htm.commits as f64));

    let pass_metrics = v.pass_stats.metrics();
    let pass_names: Vec<&str> = pass_metrics.names();
    assert_eq!(pass_names, vec!["pass.added.total", "pass.ilr.functions", "pass.tx.functions"]);

    let fuse = Vm::fusion_metrics(&w.module, &VmConfig::default());
    assert_eq!(
        fuse.names(),
        vec![
            "vm.fuse.alu_pairs",
            "vm.fuse.cmp_br",
            "vm.fuse.total",
            "vm.fuse.tx_brackets",
            "vm.fuse.vote_mem",
        ]
    );

    let kv = kv_shard(KvSync::Atomics);
    let cfg =
        ServeConfig { requests: 60, faults: Some(FaultLoad::default()), ..Default::default() };
    let report = Experiment::workload(&kv).harden(HardenConfig::haft()).serve(&cfg);
    let m = report.metrics();
    for name in [
        "serve.requests.offered",
        "serve.requests.served",
        "serve.duration_ns",
        "serve.achieved_rps",
        "serve.batches",
        "serve.latency_us.p50",
        "serve.latency_us.p95",
        "serve.latency_us.p99",
        "serve.latency_us.p999",
        "serve.saga.suppressed_joins",
        "serve.faults.availability_pct",
        "serve.faults.sdc_per_million",
        "serve.faults.crashed_batches",
        "serve.faults.corrected_batches",
        "serve.telemetry.intervals",
        "serve.telemetry.fault_rate_ewma",
        "serve.telemetry.peak_faulty",
    ] {
        assert!(m.get(name).is_some(), "missing serve metric `{name}`: {:?}", m.names());
    }
    assert_eq!(m.get("serve.requests.served"), Some(report.requests_served as f64));

    // Campaign metrics: the `faults.*` block. Outcome and group names
    // come from `metric_name()` and are pinned exactly; the forensics
    // sub-block is schema-complete (every detector present, fired or not).
    let campaign = Experiment::workload(&w)
        .harden(HardenConfig::haft())
        .campaign(CampaignConfig {
            injections: 12,
            parallelism: 2,
            forensics: true,
            ..Default::default()
        })
        .campaign
        .expect("campaign variant carries the report");
    let fm = campaign.metrics();
    let outcome_names: Vec<&str> =
        fm.names().into_iter().filter(|n| n.starts_with("faults.outcome.")).collect();
    assert_eq!(
        outcome_names,
        vec![
            "faults.outcome.checksum-corrected",
            "faults.outcome.haft-corrected",
            "faults.outcome.hang",
            "faults.outcome.ilr-detected",
            "faults.outcome.masked",
            "faults.outcome.os-detected",
            "faults.outcome.sdc",
            "faults.outcome.vote-corrected",
        ]
    );
    let group_names: Vec<&str> =
        fm.names().into_iter().filter(|n| n.starts_with("faults.group.")).collect();
    assert_eq!(
        group_names,
        vec!["faults.group.correct", "faults.group.corrupted", "faults.group.crashed"]
    );
    for name in [
        "faults.runs",
        "faults.forensics.fired",
        "faults.forensics.escaped_to_memory",
        "faults.detect_latency.masked-at-site.count",
        "faults.detect_latency.masked.count",
        "faults.detect_latency.ilr.count",
        "faults.detect_latency.ilr.mean_insts",
        "faults.detect_latency.ilr.max_insts",
        "faults.detect_latency.vote.count",
        "faults.detect_latency.abft-correct.count",
        "faults.detect_latency.htm-abort.count",
        "faults.detect_latency.trap.count",
        "faults.detect_latency.hang.count",
        "faults.detect_latency.escaped.count",
        "faults.detect_latency.mean_cycles",
        "faults.detect_latency.max_cycles",
        "faults.propagation.mean",
        "faults.propagation.max",
    ] {
        assert!(fm.get(name).is_some(), "missing faults metric `{name}`: {:?}", fm.names());
    }
    assert_eq!(fm.get("faults.runs"), Some(campaign.runs as f64));
}
