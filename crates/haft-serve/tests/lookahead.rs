//! The simulation's lookahead moves batch runs to a helper thread and
//! changes nothing the simulation reports: every `ServiceReport`, and
//! every trace, equals the one of the serial loop.
//!
//! The helper is leased from the process-wide core budget
//! (`haft_vm::cores`), and the serial side takes the whole budget first.
//! So this is the binary's only test: no other test may hold a lease
//! while it runs.

use haft::Experiment;
use haft_apps::{kv_shard, KvSync};
use haft_passes::HardenConfig;
use haft_serve::{
    lookahead_counts, run_service, ArrivalMode, FaultLoad, RouterPolicy, SagaLoad, ServeConfig,
};
use haft_trace::TraceBuf;
use haft_vm::{cores, Engine, VmConfig};

/// Open and closed loop × both routers × shards {1, 2, 4} × batch {1, 8}
/// × {no faults, faults, faults with sagas} × both engines, traced under
/// the fused one: the report with the lookahead equals the report with
/// every spare core leased away, field for field, and so do the traces.
#[test]
fn lookahead_reports_equal_the_serial_loop() {
    let w = kv_shard(KvSync::Atomics);
    let (module, _) = Experiment::workload(&w).harden(HardenConfig::haft()).build();
    let faults = Some(FaultLoad { rate_per_request: 0.05, seed: 0xA4EAD });
    let loads = [(None, None), (faults, None), (faults, Some(SagaLoad::default()))];
    let before = lookahead_counts();
    let mut seed = 0x100;
    for engine in [Engine::Fused, Engine::Interp] {
        let vm = VmConfig { engine, ..VmConfig::default() };
        let serve = |cfg: &ServeConfig, serial: bool| {
            let _all = serial.then(|| cores::lease(usize::MAX));
            let mut trace = (engine == Engine::Fused).then(TraceBuf::new);
            let report =
                run_service(&module, w.run_spec(), vm.clone(), "haft", cfg, trace.as_mut());
            (report, trace)
        };
        for arrival in [
            ArrivalMode::ClosedLoop { clients: 6, think_ns: 500 },
            ArrivalMode::OpenLoop { rate_rps: 2.0e6 },
        ] {
            for router in [RouterPolicy::KeyHash, RouterPolicy::RoundRobin] {
                for shards in [1, 2, 4] {
                    for batch in [1, 8] {
                        for (faults, sagas) in loads {
                            seed += 1;
                            let cfg = ServeConfig {
                                requests: 60,
                                arrival,
                                shards,
                                batch,
                                router,
                                seed,
                                faults,
                                sagas,
                                ..ServeConfig::default()
                            };
                            let (serial, serial_trace) = serve(&cfg, true);
                            let (ahead, ahead_trace) = serve(&cfg, false);
                            assert_eq!(ahead, serial, "{cfg:?} under {engine:?}");
                            assert!(ahead_trace == serial_trace, "{cfg:?}: the traces differ");
                        }
                    }
                }
            }
        }
    }
    let after = lookahead_counts();
    if cores::spare() > 0 {
        let served = after.ready + after.waited - before.ready - before.waited;
        assert!(served > 0, "the helper served no batch: {after:?}");
    }
}
