//! Property-based tests over randomly generated programs: the HAFT
//! passes must preserve semantics and validity for *arbitrary* IR, and
//! detection must hold for single faults in straight-line hardened code.

use haft::prelude::*;
use proptest::prelude::*;

/// A tiny random straight-line program description.
#[derive(Clone, Debug)]
enum Step {
    Add(u8, u8),
    Mul(u8, u8),
    Xor(u8, u8),
    StoreLoad(u8),
    Branchy(u8),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Add(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Mul(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Xor(a, b)),
        any::<u8>().prop_map(Step::StoreLoad),
        any::<u8>().prop_map(Step::Branchy),
    ]
}

/// Builds a runnable module from the step list. Values are tracked in a
/// rolling window so every generated operand is defined.
fn build_program(steps: &[Step]) -> Module {
    let mut m = Module::new("prop");
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

/// The four matrix-shaped Phoenix workloads the ABFT backend targets.
const MATRIX_NAMES: [&str; 4] = ["pca", "linearreg", "matrixmul", "kmeans"];

/// Fault-free ABFT run per matrix workload, computed once for the whole
/// proptest sweep (the clean reference never changes across cases).
fn abft_clean_run(idx: usize) -> &'static RunResult {
    use std::sync::OnceLock;
    static CLEAN: [OnceLock<RunResult>; 4] = [const { OnceLock::new() }; 4];
    CLEAN[idx].get_or_init(|| {
        let w = workload_by_name(MATRIX_NAMES[idx], Scale::Small).unwrap();
        Experiment::workload(&w).harden(HardenConfig::abft()).threads(2).run().run
    })
}

/// Every matrix workload, both engines: an ABFT fault-free run is
/// output-identical to native, never fires a correction, and the two
/// engines return byte-identical `RunResult`s.
#[test]
fn abft_matrix_workloads_are_clean_and_engine_identical() {
    for name in MATRIX_NAMES {
        let w = workload_by_name(name, Scale::Small).unwrap();
        let native = Experiment::workload(&w).threads(2).run().run;
        assert_eq!(native.outcome, RunOutcome::Completed, "{name}: native must complete");
        let mut runs = Vec::new();
        for engine in [Engine::Interp, Engine::Fused] {
            let r = Experiment::workload(&w)
                .harden(HardenConfig::abft())
                .threads(2)
                .engine(engine)
                .run()
                .run;
            assert_eq!(r.outcome, RunOutcome::Completed, "{name}/{engine:?}");
            assert_eq!(r.output, native.output, "{name}/{engine:?}: ABFT changed the output");
            assert_eq!(r.corrected_by_checksum, 0, "{name}/{engine:?}: fault-free correction");
            assert_eq!(r.corrected_by_vote, 0, "{name}/{engine:?}: no votes in ABFT");
            runs.push(r);
        }
        assert_eq!(runs[0], runs[1], "{name}: engines diverge on the full RunResult");
    }
}

/// Fallback-coverage regression pins: which functions of each workload
/// the ABFT pass claims, per config. A recognizer change that silently
/// demotes a kernel to full HAFT (or silently claims a function it
/// should not) moves these counters and must be a reviewed diff.
#[test]
fn abft_coverage_split_is_pinned_per_workload() {
    // (workload, default: covered/fallback/chains, fallback-heavy: covered/fallback)
    let pins = [
        ("pca", (2.0, 0.0, 28.0), (1.0, 1.0)),
        ("linearreg", (2.0, 0.0, 8.0), (2.0, 0.0)),
        ("matrixmul", (2.0, 0.0, 2.0), (0.0, 2.0)),
        ("kmeans", (2.0, 0.0, 5.0), (1.0, 1.0)),
        // Not a matrix workload: the histogram counters carry no data a
        // checksum could protect, so only the reduce phase stays covered.
        ("histogram", (1.0, 1.0, 1.0), (0.0, 2.0)),
    ];
    for (name, (covered, fallback, chains), (fb_covered, fb_fallback)) in pins {
        let w = workload_by_name(name, Scale::Small).unwrap();
        let (_, stats) = Experiment::workload(&w).harden(HardenConfig::abft()).build();
        let m = stats.metrics();
        assert_eq!(m.get("pass.abft.functions_covered"), Some(covered), "{name}: covered");
        assert_eq!(m.get("pass.abft.functions_fallback"), Some(fallback), "{name}: fallback");
        assert_eq!(m.get("pass.abft.chains"), Some(chains), "{name}: chains");
        let (_, fstats) =
            Experiment::workload(&w).harden(HardenConfig::abft_fallback_heavy()).build();
        let fm = fstats.metrics();
        assert_eq!(
            fm.get("pass.abft.functions_covered"),
            Some(fb_covered),
            "{name}: fb-heavy covered"
        );
        assert_eq!(
            fm.get("pass.abft.functions_fallback"),
            Some(fb_fallback),
            "{name}: fb-heavy fallback"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hardening by *any* backend — ILR+TX at any optimization level, or
    /// TMR in either mode — yields a module that passes `verify_module`
    /// and produces output identical to native on fault-free runs, for
    /// arbitrary generated programs.
    #[test]
    fn hardening_preserves_semantics(steps in proptest::collection::vec(step_strategy(), 1..40)) {
        let m = build_program(&steps);
        verify_module(&m).unwrap();
        let configs = [
            HardenConfig::at_opt_level(OptLevel::None),
            HardenConfig::at_opt_level(OptLevel::FaultProp),
            HardenConfig::tmr(),
            HardenConfig::tmr_unoptimized(),
            HardenConfig::abft(),
            HardenConfig::abft_fallback_heavy(),
        ];
        for hc in &configs {
            let (hardened, _) = Experiment::new(&m).harden(hc.clone()).build();
            prop_assert!(
                verify_module(&hardened).is_ok(),
                "{} produced invalid IR", hc.label()
            );
        }
        let report = Experiment::new(&m).spec(fini_spec()).compare(&configs);
        prop_assert!(report.outputs_agree(), "{}", report.summary());
    }

    /// Single-fault guarantee on ILR-hardened straight-line programs:
    /// a fault is detected, masked, or recovered — silent corruption of
    /// the emitted value requires hitting one of the narrow
    /// windows of vulnerability, which the emit-side check closes for
    /// the final externalization.
    #[test]
    fn single_faults_are_never_catastrophic(
        steps in proptest::collection::vec(step_strategy(), 1..24),
        occ_seed in any::<u64>(),
        mask in 1u64..,
    ) {
        let m = build_program(&steps);
        let exp = Experiment::new(&m)
            .harden(HardenConfig::haft())
            .spec(fini_spec())
            .vm(VmConfig { max_instructions: 50_000_000, ..Default::default() });
        let clean = exp.run().run;
        prop_assert_eq!(clean.outcome, RunOutcome::Completed);
        let occurrence = occ_seed % clean.register_writes.max(1);
        let r = exp.run_with_fault(FaultPlan { occurrence, xor_mask: mask }, false).run;
        // Completed runs must have produced the right answer (corrected
        // or masked); everything else is a detected fail-stop — never a
        // hang (straight-line code cannot loop) and never an SDC.
        match r.outcome {
            RunOutcome::Completed => prop_assert_eq!(&r.output, &clean.output),
            RunOutcome::Detected | RunOutcome::Trapped(_) => {}
            RunOutcome::Hang => prop_assert!(false, "straight-line code cannot hang"),
        }
    }

    /// Fault forensics is strictly observational: a fault run with taint
    /// tracking enabled returns a `RunResult` whose core — outcome,
    /// output, every cycle counter, HTM stats — is byte-identical to the
    /// same run with forensics off, on both engines. And the record's
    /// latency invariant holds: zero detection latency exactly when the
    /// flip landed in a dead register (`MaskedAtSite`).
    #[test]
    fn forensics_is_observational_and_latency_zero_iff_masked_at_site(
        steps in proptest::collection::vec(step_strategy(), 1..20),
        occ_seed in any::<u64>(),
        mask in 1u64..,
    ) {
        let m = build_program(&steps);
        for engine in [Engine::Interp, Engine::Fused] {
            let base = VmConfig { max_instructions: 50_000_000, engine, ..Default::default() };
            let exp = Experiment::new(&m).harden(HardenConfig::haft()).spec(fini_spec()).vm(base);
            let clean = exp.run().run;
            prop_assert_eq!(clean.outcome, RunOutcome::Completed);
            let plan = FaultPlan {
                occurrence: occ_seed % clean.register_writes.max(1),
                xor_mask: mask,
            };
            let off = exp.run_with_fault(plan, false).run;
            let on = exp.run_with_fault(plan, true).run;
            prop_assert!(off.forensics.is_none(), "forensics off must not record");
            let mut on_core = on;
            let record = on_core.forensics.take();
            prop_assert_eq!(&on_core, &off, "{:?}: forensics perturbed the run", engine);
            if let Some(fx) = record {
                prop_assert_eq!(
                    fx.detect_latency_insts == 0,
                    fx.detector == FaultDetector::MaskedAtSite,
                    "latency {} vs detector {:?}",
                    fx.detect_latency_insts,
                    fx.detector
                );
            }
        }
    }

    /// The printer/parser round-trip reaches a fixed point after one
    /// α-renaming parse, for arbitrary generated modules, hardened or not.
    #[test]
    fn roundtrip_holds_for_generated_programs(steps in proptest::collection::vec(step_strategy(), 1..24)) {
        let m = build_program(&steps);
        for hc in [HardenConfig::native(), HardenConfig::haft()] {
            let (module, _) = Experiment::new(&m).harden(hc).build();
            let text = haft::ir::printer::print_module(&module);
            let parsed = haft::ir::parser::parse_module(&text).unwrap();
            let canon = haft::ir::printer::print_module(&parsed);
            let reparsed = haft::ir::parser::parse_module(&canon).unwrap();
            prop_assert_eq!(haft::ir::printer::print_module(&reparsed), canon);
        }
    }

    /// Single-fault sweep over ABFT-covered kernels: a run the checksum
    /// corrected must be bit-clean. (Faults in the *unprotected* slice of
    /// a covered function can still corrupt — that is ABFT's
    /// coverage-for-overhead trade — but a fired correction that still
    /// let corruption through would mean the majority logic is wrong.)
    #[test]
    fn abft_corrections_are_always_clean(
        workload_idx in 0usize..4,
        occ_seed in any::<u64>(),
        mask in 1u64..,
    ) {
        let name = MATRIX_NAMES[workload_idx];
        let clean = abft_clean_run(workload_idx);
        prop_assert_eq!(clean.outcome, RunOutcome::Completed);
        let w = workload_by_name(name, Scale::Small).unwrap();
        let exp = Experiment::workload(&w).harden(HardenConfig::abft()).threads(2);
        let occurrence = occ_seed % clean.register_writes.max(1);
        let r = exp.run_with_fault(FaultPlan { occurrence, xor_mask: mask }, false).run;
        if r.corrected_by_checksum > 0 && r.outcome == RunOutcome::Completed {
            prop_assert_eq!(&r.output, &clean.output, "{}: corrected run diverged", name);
        }
    }

    /// `Experiment::run` is exactly the manual `harden` + `Vm::run`
    /// wiring it replaced: same output, same cycle counts, same HTM
    /// stats, and pass stats that account for every added instruction —
    /// for arbitrary generated programs and the paper's main variants.
    #[test]
    fn experiment_matches_manual_wiring(
        steps in proptest::collection::vec(step_strategy(), 1..32),
        variant in 0usize..3,
    ) {
        let m = build_program(&steps);
        let hc = [HardenConfig::native(), HardenConfig::ilr_only(), HardenConfig::haft()]
            [variant]
            .clone();
        let v = Experiment::new(&m).harden(hc.clone()).spec(fini_spec()).run();
        let hardened = PassManager::from_config(&hc).run_on(&m).0;
        let manual = Vm::run(&hardened, VmConfig::default(), fini_spec());
        prop_assert_eq!(&v.run, &manual);
        prop_assert_eq!(
            v.pass_stats.total_added(),
            hardened.total_inst_count() as i64 - m.total_inst_count() as i64
        );
    }
}
