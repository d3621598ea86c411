//! Smoke test guarding the README quickstart and the `haft` facade
//! doctest: the documented `Experiment` round-trip must keep producing
//! identical output when a fault is injected mid-trace. If this breaks,
//! the README's copy-paste example is lying.

use haft::prelude::*;

/// Builds the same toy program the facade doctest uses: sum 0..100 into a
/// global, then emit the result.
fn doctest_module() -> Module {
    let mut m = Module::new("demo");
    let acc = m.add_global("acc", 8);
    let mut f = FunctionBuilder::new("fini", &[], None);
    f.set_non_local();
    let g = Operand::GlobalAddr(acc);
    f.counted_loop(f.iconst(Ty::I64, 0), f.iconst(Ty::I64, 100), |b, i| {
        let cur = b.load(Ty::I64, g);
        let nxt = b.add(Ty::I64, cur, i);
        b.store(Ty::I64, nxt, g);
    });
    let v = f.load(Ty::I64, g);
    f.emit_out(Ty::I64, v);
    f.ret(None);
    m.push_func(f.finish());
    m
}

#[test]
fn facade_doctest_roundtrip_survives_an_injected_fault() {
    let m = doctest_module();
    verify_module(&m).unwrap();

    let exp = Experiment::new(&m)
        .harden(HardenConfig::haft())
        .spec(RunSpec { fini: Some("fini"), ..Default::default() });

    let clean = exp.run().expect_completed("clean");
    assert!(clean.register_writes > 0, "trace must expose injectable register writes");

    // The doctest's exact injection point (midpoint of the trace)…
    let faulty = exp
        .run_with_fault(FaultPlan { occurrence: clean.register_writes / 2, xor_mask: 0x40 }, false)
        .expect_completed("doctest fault must be recovered");
    assert_eq!(faulty.output, clean.output, "HAFT recovered the fault");

    // …and a sweep across the trace: a single bit flip anywhere must never
    // become a silent corruption of the emitted output.
    let step = (clean.register_writes / 23).max(1);
    for occurrence in (0..clean.register_writes).step_by(step as usize) {
        let r = exp.run_with_fault(FaultPlan { occurrence, xor_mask: 0x40 }, false).run;
        match r.outcome {
            RunOutcome::Completed => {
                assert_eq!(r.output, clean.output, "SDC at occurrence {occurrence}")
            }
            // Detected fail-stops are acceptable; silent corruption is not.
            RunOutcome::Detected | RunOutcome::Trapped(_) => {}
            RunOutcome::Hang => panic!("hang at occurrence {occurrence}"),
        }
    }
}
