//! Prints the hardened IR of the repo's programs, one module after
//! another, so two commits can be compared with `diff`: the oracle for a
//! pass refactor (every module must print byte-identically) and for
//! reading what a pass change did to a program. Each module is preceded
//! by its `PassStats` (per-pass instruction delta and pass counters).
//!
//! Run with:
//! `cargo run --release -p haft --example dump_hardened -- <program|all> <preset|all>`
//!
//! Programs: the 17 workloads by name, `kv_shard`, `memcached-{lock,
//! atomics,sei}`, `logcabin`, `apache`, `leveldb-{a,d}`, `sqlite-{a,d}`;
//! a name also selects its `-suffix` variants (`memcached`, `sqlite`).
//! Presets: every `HardenConfig` preset and modifier the repo uses, see
//! `presets` below.

use haft::apps::others::{apache, leveldb, logcabin, sqlite};
use haft::apps::{kv_shard, memcached, KvSync, WorkloadMix};
use haft::ir::printer::print_module;
use haft::passes::OptLevel;
use haft::prelude::*;

fn programs() -> Vec<(String, Module)> {
    let s = Scale::Small;
    let mut out: Vec<(String, Module)> =
        all_workloads(s).into_iter().map(|w| (w.name.to_string(), w.module)).collect();
    let apps = [
        ("kv_shard", kv_shard(KvSync::Atomics)),
        ("memcached-lock", memcached(WorkloadMix::A, KvSync::Lock, s)),
        ("memcached-atomics", memcached(WorkloadMix::A, KvSync::Atomics, s)),
        ("memcached-sei", memcached(WorkloadMix::A, KvSync::Sei, s)),
        ("logcabin", logcabin(s)),
        ("apache", apache(s)),
        ("leveldb-a", leveldb(WorkloadMix::A, s)),
        ("leveldb-d", leveldb(WorkloadMix::D, s)),
        ("sqlite-a", sqlite(WorkloadMix::A, s)),
        ("sqlite-d", sqlite(WorkloadMix::D, s)),
    ];
    out.extend(apps.into_iter().map(|(n, w)| (n.to_string(), w.module)));
    out
}

fn presets() -> Vec<(String, HardenConfig)> {
    let mut out = vec![
        ("native".to_string(), HardenConfig::native()),
        ("ilr_only".to_string(), HardenConfig::ilr_only()),
        ("tx_only".to_string(), HardenConfig::tx_only()),
        ("haft".to_string(), HardenConfig::haft()),
    ];
    for level in OptLevel::ALL {
        out.push((format!("opt-{}", level.label()), HardenConfig::at_opt_level(level)));
    }
    out.extend([
        ("without_local_calls".to_string(), HardenConfig::haft().without_local_calls()),
        ("haft_with_elision".to_string(), HardenConfig::haft_with_elision()),
        ("tmr".to_string(), HardenConfig::tmr()),
        ("tmr_unoptimized".to_string(), HardenConfig::tmr_unoptimized()),
        ("abft".to_string(), HardenConfig::abft()),
        ("abft_fallback_heavy".to_string(), HardenConfig::abft_fallback_heavy()),
    ]);
    out
}

fn selects(arg: &str, name: &str) -> bool {
    arg == "all" || arg == name || name.strip_prefix(arg).is_some_and(|r| r.starts_with('-'))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [program, preset] = args.as_slice() else {
        eprintln!("usage: dump_hardened <program|all> <preset|all>");
        eprintln!("presets: {}", presets().iter().map(|p| &*p.0).collect::<Vec<_>>().join(" "));
        std::process::exit(2);
    };
    let presets = presets();
    let mut printed = 0;
    for (pname, module) in programs().iter().filter(|(n, _)| selects(program, n)) {
        for (cname, cfg) in presets.iter().filter(|(n, _)| preset == "all" || preset == n) {
            let (hardened, stats) = PassManager::from_config(cfg).run_on(module);
            println!("; === {pname} {cname} ===");
            for r in &stats.records {
                println!("; pass {} added {}", r.name, r.added());
            }
            for (name, n) in &stats.counters {
                println!("; pass.{name} {n}");
            }
            print!("{}", print_module(&hardened));
            printed += 1;
        }
    }
    if printed == 0 {
        eprintln!("nothing matches program `{program}` and preset `{preset}`");
        std::process::exit(2);
    }
}
