//! The per-layer probes of the traced run: one small fixed measurement
//! per layer metric, each through a public entry point of that layer.
//!
//! The probes are the same whatever the workload, because they describe
//! layers, not workloads: a later change reads here which layer it moved
//! and in README.md which end-to-end metric that layer should move. Host
//! times are minima over a few repetitions; counts are simulated and
//! repeat exactly for a seed.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use haft::eval::{perf_vm, recommended_threshold};
use haft::Experiment;
use haft_apps::kvstore::{kv_shard, patch_requests, KvSync, KV_KEYSPACE};
use haft_apps::{WorkloadMix, YcsbGen};
use haft_faults::{classify, CampaignConfig, Outcome as FaultOutcome};
use haft_htm::{AccessKind, Htm, HtmConfig};
use haft_ir::parser::parse_module;
use haft_ir::printer::print_module;
use haft_ir::verify::verify_module;
use haft_model::{HaftChain, SystemKind};
use haft_passes::{harden_runs_for, HardenConfig, PassManager};
use haft_serve::{ArrivalMode, FaultLoad, SagaLoad, ServeConfig, ServeMode};
use haft_vm::{Engine, RunSpec, Vm, VmConfig};
use haft_workloads::{all_workloads, workload_by_name, Scale};

use crate::estimator::Tally;
use crate::workloads::{
    self, native_workers, Inputs, Outcome, Variant, CAMPAIGN_PROGRAMS, SERVE_BATCH, SERVE_CLIENTS,
    SERVE_SHARDS, SIM_THREADS,
};
use crate::Metric;

/// Programs of the engine probes: one low-IPC and one mid-IPC kernel.
const ENGINE_PROGRAMS: [&str; 2] = ["linearreg", "histogram"];
/// Requests per serving probe cell.
const PROBE_REQUESTS: usize = 1_000;
/// Injections per campaign probe cell.
const PROBE_INJECTIONS: u64 = 8;

/// Minimum host seconds of `f` over `reps` calls, and its last result.
fn best_s<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(r);
    }
    (best, last.expect("at least one repetition"))
}

/// Counts one probe check and names it on stderr when it fails.
fn expect(tally: &mut Tally, ok: bool, what: &str) {
    tally.check(ok);
    if !ok {
        eprintln!("FAILED probe: {what}");
    }
}

struct Out(Vec<Metric>);

impl Out {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric::new(name, value, unit));
    }
}

/// Runs every probe. `report_pass` holds the per-section minima and
/// outcomes when the traced workload was `report-fast` itself (its
/// sections need not run again). Correctness checks of the probes go
/// into `tally`.
pub fn run(
    root: &Path,
    seed: u64,
    report_pass: Option<(&[f64], &[Outcome])>,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let mut out = Out(Vec::new());
    ir_workloads_passes(&mut out, tally);
    vm_htm(&mut out, seed, root, tally)?;
    faults(&mut out, seed, tally);
    model(&mut out);
    apps(&mut out, seed);
    serve_runtime(&mut out, seed, root, tally)?;
    report(&mut out, root, report_pass, tally)?;
    Ok(out.0)
}

/// haft-workloads, haft-ir, haft-passes over the 17 Large modules.
fn ir_workloads_passes(out: &mut Out, tally: &mut Tally) {
    let (build_s, modules) = best_s(3, || all_workloads(Scale::Large));
    out.add("workloads.build_ms", build_s * 1e3, "ms");
    let insts: usize = modules.iter().map(|w| w.module.total_inst_count()).sum();

    let (print_s, texts) =
        best_s(3, || modules.iter().map(|w| print_module(&w.module)).collect::<Vec<_>>());
    let bytes: usize = texts.iter().map(String::len).sum();
    out.add("ir.print.mb_per_s", bytes as f64 / 1e6 / print_s, "MB/s");
    let (parse_s, parsed) = best_s(3, || texts.iter().map(|t| parse_module(t)).collect::<Vec<_>>());
    out.add("ir.parse.mb_per_s", bytes as f64 / 1e6 / parse_s, "MB/s");
    for (w, p) in modules.iter().zip(&parsed) {
        // The parser renumbers values, so the text may differ; the
        // module it builds must verify and keep every instruction.
        let round_trips = p.as_ref().is_ok_and(|m| {
            verify_module(m).is_ok() && m.total_inst_count() == w.module.total_inst_count()
        });
        expect(tally, round_trips, &format!("{}: printed module does not parse back", w.name));
    }
    let (verify_s, verdicts) =
        best_s(3, || modules.iter().map(|w| verify_module(&w.module).is_ok()).collect::<Vec<_>>());
    out.add("ir.verify.kinst_per_s", insts as f64 / 1e3 / verify_s, "kinst/s");
    for (w, ok) in modules.iter().zip(verdicts) {
        expect(tally, ok, &format!("{}: module fails verification", w.name));
    }

    for (label, cfg) in [
        ("ilr_only", HardenConfig::ilr_only()),
        ("tx_only", HardenConfig::tx_only()),
        ("haft", HardenConfig::haft()),
        ("tmr", HardenConfig::tmr()),
        ("abft", HardenConfig::abft()),
    ] {
        let pm = PassManager::from_config(&cfg);
        let (s, hardened) =
            best_s(3, || modules.iter().map(|w| pm.run_on(&w.module).0).collect::<Vec<_>>());
        out.add(
            &format!("passes.harden.{label}.us_per_kinst"),
            s * 1e6 / (insts as f64 / 1e3),
            "us",
        );
        if ["haft", "tmr", "abft"].contains(&label) {
            let after: usize = hardened.iter().map(|m| m.total_inst_count()).sum();
            out.add(&format!("passes.expand.{label}_x"), after as f64 / insts as f64, "x");
        }
    }
}

/// haft-vm and haft-htm.
fn vm_htm(out: &mut Out, seed: u64, root: &Path, tally: &mut Tally) -> Result<(), String> {
    // ns per simulated instruction, engine × backend, Large inputs.
    let programs: Vec<_> = ENGINE_PROGRAMS
        .iter()
        .map(|p| (*p, workload_by_name(p, Scale::Large).expect("registered workload")))
        .collect();
    let (mut fused_s, mut interp_s) = (0.0, 0.0);
    let (mut commits, mut aborts, mut started) = (0u64, 0u64, 0u64);
    for v in Variant::ALL {
        let (mut f_s, mut i_s, mut insts) = (0.0, 0.0, 0u64);
        for (name, w) in &programs {
            let exp = Experiment::workload(w)
                .vm(perf_vm(SIM_THREADS, recommended_threshold(name)))
                .seed(seed)
                .harden(v.config());
            let (fs, fused) = best_s(2, || exp.run().run);
            let interp_exp = exp.clone().engine(Engine::Interp);
            let (is, interp) = best_s(2, || interp_exp.run().run);
            // The two engines are one simulator: identical results.
            expect(tally, fused == interp, &format!("{name}/{}: engines disagree", v.label()));
            f_s += fs;
            i_s += is;
            insts += fused.instructions;
            if v == Variant::Haft {
                commits += fused.htm.commits;
                aborts += fused.htm.total_aborts();
                started += fused.htm.started;
            }
        }
        out.add(&format!("vm.fused.{}.ns_per_inst", v.label()), f_s * 1e9 / insts as f64, "ns");
        out.add(&format!("vm.interp.{}.ns_per_inst", v.label()), i_s * 1e9 / insts as f64, "ns");
        fused_s += f_s;
        interp_s += i_s;
    }
    out.add("vm.fused_speedup_x", interp_s / fused_s, "x");
    out.add("htm.commits", commits as f64, "count");
    out.add("htm.aborts", aborts as f64, "count");
    out.add("htm.abort_share", 100.0 * aborts as f64 / started.max(1) as f64, "%");

    // Per-run fixed costs on a short hardened run.
    let small = workload_by_name("linearreg", Scale::Small).expect("registered workload");
    let exp = Experiment::workload(&small)
        .vm(perf_vm(SIM_THREADS, recommended_threshold("linearreg")))
        .seed(seed)
        .harden(HardenConfig::haft());
    let (module, _) = exp.build();
    let cfg = VmConfig::default();
    let (new_s, _) = best_s(20, || Vm::new(&module, cfg.clone()));
    out.add("vm.new.us", new_s * 1e6, "us");
    // `fusion_metrics` builds the arena too, then decodes and fuses.
    let (decode_s, fuse) = best_s(20, || Vm::fusion_metrics(&module, &cfg));
    let kinst = module.total_inst_count() as f64 / 1e3;
    out.add("vm.decode_fuse.us_per_kinst", (decode_s - new_s).max(0.0) * 1e6 / kinst, "us");
    out.add("vm.fuse.total", fuse.get("vm.fuse.total").unwrap_or(0.0), "count");
    let (short_s, plain) = best_s(10, || exp.run().run);
    out.add("vm.short_run.us", short_s * 1e6, "us");
    let (profiled_s, profiled) = best_s(10, || exp.run_profiled());
    out.add("vm.profiled.overhead_x", profiled_s / short_s, "x");
    let profile_exact = profiled.0.run == plain && profiled.1.total() == plain.cpu_cycles;
    expect(tally, profile_exact, "profiled run differs or its profile does not sum to cpu_cycles");
    let trace_path = crate::run::out_dir(root)?.join("trace-vm-probe.json");
    let traced_exp = exp.clone().trace(&trace_path);
    let (traced_s, traced) = best_s(5, || traced_exp.run().run);
    out.add("vm.traced.overhead_x", traced_s / short_s, "x");
    expect(tally, traced == plain, "traced VM run differs from the untraced one");

    // HTM bookkeeping alone: begin + 16 accesses + commit, against the
    // same transaction without accesses.
    const TXS: u64 = 20_000;
    let tx_loop = |accesses: u64| {
        let mut htm = Htm::new(HtmConfig::default(), 1);
        let start = Instant::now();
        for i in 0..TXS {
            htm.begin(0, i);
            for a in 0..accesses {
                let kind = if a % 4 == 0 { AccessKind::Write } else { AccessKind::Read };
                black_box(htm.access(0, 0x1000 + (i % 64) * 4096 + a * 64, 8, kind));
            }
            black_box(htm.commit(0));
        }
        start.elapsed().as_secs_f64() / TXS as f64
    };
    let with_s = (0..3).map(|_| tx_loop(16)).fold(f64::INFINITY, f64::min);
    let without_s = (0..3).map(|_| tx_loop(0)).fold(f64::INFINITY, f64::min);
    out.add("htm.tx_cycle.ns", with_s * 1e9, "ns");
    out.add("htm.access.ns", (with_s - without_s).max(0.0) * 1e9 / 16.0, "ns");
    Ok(())
}

/// haft-faults: the campaign driver per backend, forensics, parallelism.
fn faults(out: &mut Out, seed: u64, tally: &mut Tally) {
    let programs: Vec<_> = CAMPAIGN_PROGRAMS
        .iter()
        .map(|p| (*p, workload_by_name(p, Scale::Small).expect("registered workload")))
        .collect();
    let campaign = |parallelism: usize, forensics: bool| CampaignConfig {
        injections: PROBE_INJECTIONS,
        seed,
        parallelism,
        forensics,
        ..CampaignConfig::default()
    };
    let runs = (PROBE_INJECTIONS + 1) as f64 * programs.len() as f64;
    let (mut haft_s, mut haft_fx_s, mut haft_par2_s) = (0.0, 0.0, 0.0);
    let mut classify_sample = None;
    for v in Variant::HARDENED {
        let (mut total_s, mut sdc, mut corrected) = (0.0, 0u64, 0u64);
        for (name, w) in &programs {
            let exp = Experiment::workload(w)
                .vm(perf_vm(SIM_THREADS, recommended_threshold(name)))
                .seed(seed)
                .harden(v.config());
            let (s, report) = best_s(2, || exp.campaign(campaign(1, false)));
            total_s += s;
            let counts = &report.campaign.as_ref().expect("campaign histogram").counts;
            let sums = counts.values().sum::<u64>() == PROBE_INJECTIONS;
            expect(tally, sums, &format!("{name}/{}: counts do not sum to the plan", v.label()));
            sdc += counts.get(&FaultOutcome::Sdc).copied().unwrap_or(0);
            for o in [
                FaultOutcome::HaftCorrected,
                FaultOutcome::VoteCorrected,
                FaultOutcome::ChecksumCorrected,
            ] {
                corrected += counts.get(&o).copied().unwrap_or(0);
            }
            if v == Variant::Haft {
                haft_fx_s += best_s(2, || exp.campaign(campaign(1, true))).0;
                haft_par2_s += best_s(2, || exp.campaign(campaign(2, false))).0;
                classify_sample.get_or_insert(report.run);
            }
        }
        out.add(&format!("faults.run.{}.us", v.label()), total_s * 1e6 / runs, "us");
        out.add(&format!("faults.sdc.{}", v.label()), sdc as f64, "count");
        out.add(&format!("faults.corrected.{}", v.label()), corrected as f64, "count");
        if v == Variant::Haft {
            haft_s = total_s;
        }
    }
    out.add("faults.forensics.overhead_x", haft_fx_s / haft_s, "x");
    out.add("faults.par2.speedup_x", haft_s / haft_par2_s, "x");
    let golden = classify_sample.expect("HAFT is a hardened variant");
    const CLASSIFIES: u32 = 10_000;
    let (s, _) = best_s(3, || {
        for _ in 0..CLASSIFIES {
            black_box(classify(black_box(&golden), black_box(&golden.output)));
        }
    });
    out.add("faults.classify.ns", s * 1e9 / CLASSIFIES as f64, "ns");
}

/// haft-model: the Figure 10 sweep.
fn model(out: &mut Out) {
    let (s, _) = best_s(2, || HaftChain::paper(SystemKind::Haft).sweep(0.00028, 1.0, 6, 3600.0));
    out.add("model.sweep.us", s * 1e6, "us");
}

/// haft-apps: request generation and batch patching.
fn apps(out: &mut Out, seed: u64) {
    const OPS: usize = 100_000;
    let (s, ops) = best_s(3, || YcsbGen::new(seed, KV_KEYSPACE).generate(WorkloadMix::B, OPS));
    out.add("apps.ycsb.mops_per_s", OPS as f64 / 1e6 / s, "Mops/s");
    let mut module = kv_shard(KvSync::Atomics).module;
    const PATCHES: usize = 2_000;
    let (s, _) = best_s(3, || {
        for i in 0..PATCHES {
            let at = (i * SERVE_BATCH) % (OPS - SERVE_BATCH);
            patch_requests(&mut module, &ops[at..at + SERVE_BATCH]);
        }
    });
    out.add("apps.patch.ns_per_req", s * 1e9 / (PATCHES * SERVE_BATCH) as f64, "ns");
}

/// haft-serve, haft-runtime, haft-trace and the `Experiment` harden cache.
fn serve_runtime(out: &mut Out, seed: u64, root: &Path, tally: &mut Tally) -> Result<(), String> {
    let kv = kv_shard(KvSync::Atomics);
    let cfg = |faults: bool, sagas: bool| ServeConfig {
        requests: PROBE_REQUESTS,
        arrival: ArrivalMode::ClosedLoop { clients: SERVE_CLIENTS, think_ns: 0 },
        shards: SERVE_SHARDS,
        batch: SERVE_BATCH,
        seed,
        faults: faults.then(FaultLoad::default),
        sagas: sagas.then(SagaLoad::default),
        ..ServeConfig::default()
    };
    let kreq = |s: f64| PROBE_REQUESTS as f64 / 1e3 / s;
    let workers = native_workers();
    let hardened_before = harden_runs_for(&kv.module.name);
    let mut hardened_experiments = 0u64;
    for (cell, v, faults) in [
        ("native", Variant::Native, false),
        ("haft", Variant::Haft, false),
        ("tmr", Variant::Tmr, false),
        ("haft-faults", Variant::Haft, true),
    ] {
        let exp = Experiment::workload(&kv).seed(seed).harden(v.config());
        hardened_experiments += u64::from(v != Variant::Native);
        let (sim_s, sim) = best_s(2, || exp.serve_in(ServeMode::Sim, &cfg(faults, false)));
        out.add(&format!("serve.sim.{cell}.kreq_per_s"), kreq(sim_s), "kreq/s");
        let (nat_s, nat) =
            best_s(2, || exp.serve_in(ServeMode::Native { workers }, &cfg(faults, false)));
        out.add(&format!("runtime.native.{cell}.kreq_per_s"), kreq(nat_s), "kreq/s");
        if !faults {
            for r in [&sim, &nat] {
                let all_served = r.requests_offered == r.requests_served;
                expect(tally, all_served, &format!("serve probe {cell}: requests not served"));
            }
        }
        if cell != "haft" {
            continue;
        }
        // The clean HAFT cell carries the harness/VM split and scaling.
        out.add("serve.sim.batches", sim.batches as f64, "count");
        out.add("serve.sim.us_per_batch", sim_s * 1e6 / sim.batches as f64, "us");
        // One batch as the shard runs it: the hardened module patched
        // with a batch of the cell's mean size (a closed loop of 32
        // clients over 4 shards rarely fills 8), one thread, the
        // shard-sized arena. Timed at the two whole sizes around the
        // mean and interpolated.
        let (mut module, _) = exp.build();
        let ops = YcsbGen::new(seed, KV_KEYSPACE).generate(WorkloadMix::B, SERVE_BATCH);
        let vm = VmConfig { n_threads: 1, mem_bytes: 1 << 17, seed, ..VmConfig::default() };
        let spec: RunSpec<'_> = kv.run_spec();
        let mut batch_of = |n: usize| {
            patch_requests(&mut module, &ops[..n]);
            let (s, run) = best_s(30, || Vm::run(&module, vm.clone(), spec));
            expect(tally, run.output.len() == n, "stand-alone batch lost replies");
            s
        };
        let mean = (sim.mean_batch_size()).clamp(1.0, SERVE_BATCH as f64);
        let (lo, hi) = (mean.floor() as usize, mean.ceil() as usize);
        let (lo_s, hi_s) = (batch_of(lo), batch_of(hi));
        let batch_s = lo_s + (mean - lo as f64) * (hi_s - lo_s);
        out.add("serve.batch_vm.us", batch_s * 1e6, "us");
        let vm_s = batch_s * sim.batches as f64;
        out.add("serve.sim.vm_share", 100.0 * vm_s / sim_s, "%");
        let harness_us = (sim_s - vm_s).max(0.0) * 1e6 / PROBE_REQUESTS as f64;
        out.add("serve.sim.harness_us_per_req", harness_us, "us");

        let wall = nat.wall.expect("native mode fills the wall report");
        out.add("runtime.pool.kreq_per_s", wall.achieved_rps / 1e3, "kreq/s");
        out.add("runtime.steals", wall.steals as f64, "count");
        let (w1_s, _) =
            best_s(2, || exp.serve_in(ServeMode::Native { workers: 1 }, &cfg(false, false)));
        out.add("runtime.w1.kreq_per_s", kreq(w1_s), "kreq/s");
        out.add("runtime.scale_w2_x", w1_s / nat_s, "x");
        let (saga_s, _) =
            best_s(2, || exp.serve_in(ServeMode::Native { workers }, &cfg(false, true)));
        out.add("runtime.saga.kreq_per_s", kreq(saga_s), "kreq/s");

        let trace_path = crate::run::out_dir(root)?.join("trace-serve-probe.json");
        let traced_exp = exp.clone().trace(&trace_path);
        let (traced_s, traced) =
            best_s(2, || traced_exp.serve_in(ServeMode::Sim, &cfg(false, false)));
        out.add("trace.serve.overhead_x", traced_s / sim_s, "x");
        // Tracing is observational: the same report, bit for bit.
        expect(tally, traced == sim, "traced serve report differs from the untraced one");
        let text = std::fs::read_to_string(&trace_path)
            .map_err(|e| format!("reading back {}: {e}", trace_path.display()))?;
        let valid = haft_trace::validate_chrome_trace(&text).is_ok();
        expect(tally, valid, "serve trace is not a valid Chrome trace");
    }
    // One harden run per hardened experiment, however many serve calls
    // (a clone made after the first call carries the hardened module).
    let harden_runs = harden_runs_for(&kv.module.name) - hardened_before;
    expect(tally, harden_runs == hardened_experiments, "an experiment hardened more than once");
    out.add("haft.harden_runs", harden_runs as f64 / hardened_experiments as f64, "count");
    Ok(())
}

/// haft-report: the pinned sections, rendering and the check.
fn report(
    out: &mut Out,
    root: &Path,
    known: Option<(&[f64], &[Outcome])>,
    tally: &mut Tally,
) -> Result<(), String> {
    let def = workloads::by_name("report-fast").expect("report-fast is a workload");
    let inputs = Inputs::build(&def, root)?;
    let mut fresh = Vec::new();
    for (i, cell) in def.cells.iter().enumerate() {
        let (s, outcome) = match known {
            Some((cells_s, outcomes)) => (cells_s[i], outcomes[i].clone()),
            None => best_s(1, || workloads::prepare(cell, &inputs, 0).run()),
        };
        out.add(&format!("report.{}.s", cell.id()), s, "s");
        let Outcome::Section(snapshot) = outcome else { unreachable!("section cell") };
        fresh.push(snapshot);
    }
    let (render_s, texts) = best_s(3, || fresh.iter().map(|s| s.render()).collect::<Vec<_>>());
    out.add("report.render.ms", render_s * 1e3, "ms");
    let (check_s, violations) = best_s(3, || {
        let mut violations = 0usize;
        for (snapshot, text) in fresh.iter().zip(&texts) {
            let reparsed = haft_report::Snapshot::parse(text).expect("own rendering parses");
            violations +=
                haft_report::snapshot::diff(inputs.pinned(&snapshot.section), &reparsed).len();
        }
        violations
    });
    out.add("report.check.ms", check_s * 1e3, "ms");
    let values: u64 = fresh.iter().map(workloads::snapshot_values).sum();
    tally.add(values, (violations as u64).min(values));
    out.add("report.values_checked", values as f64, "count");
    Ok(())
}
