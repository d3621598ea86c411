//! The hardened-IR corpus: every program the repo hardens under every
//! `HardenConfig` preset and modifier it uses, and a one-line digest per
//! cell.
//!
//! `tests/hardened.digest` pins the digest of all cells, so a pass change
//! shows up in `cargo test` as a list of named cells;
//! `cargo run --release -p haft --example dump_hardened -- <program> <preset>`
//! prints what moved, and `dump_hardened --digest` regenerates the file.

use haft_apps::others::{apache, leveldb, logcabin, sqlite};
use haft_apps::{kv_shard, memcached, KvSync, WorkloadMix};
use haft_ir::module::Module;
use haft_ir::printer::print_module;
use haft_passes::{HardenConfig, OptLevel, PassManager, PassStats};
use haft_workloads::{all_workloads, Scale};

/// The 17 workloads, `kv_shard`, memcached (three sync variants) and the
/// six case-study apps, all at `Scale::Small`: 27 named modules.
pub fn programs() -> Vec<(String, Module)> {
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

/// Every `HardenConfig` preset and modifier the repo uses: 15 named
/// configurations.
pub fn presets() -> Vec<(String, HardenConfig)> {
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

/// One cell's digest line, and the printed hardened module it hashes.
/// The line is `<program> <preset>`, the 64-bit FNV-1a of that text, the
/// module's instruction count, each pass's instruction delta and each
/// pass-published counter.
pub fn digest_cell(
    program: &str,
    preset: &str,
    hardened: &Module,
    stats: &PassStats,
) -> (String, String) {
    let text = print_module(hardened);
    let hash = text
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
    let mut line = format!("{program} {preset} {hash:016x} insts={}", hardened.total_inst_count());
    for r in &stats.records {
        line.push_str(&format!(" {}{:+}", r.name, r.added()));
    }
    for (name, n) in &stats.counters {
        line.push_str(&format!(" {name}={n}"));
    }
    (line, text)
}

/// The digest of the whole corpus, one line per program × preset in
/// corpus order: the contents of `tests/hardened.digest`.
pub fn digest() -> Vec<String> {
    let presets = presets();
    let mut lines = Vec::new();
    for (pname, module) in programs() {
        for (cname, cfg) in &presets {
            let (hardened, stats) = PassManager::from_config(cfg).run_on(&module);
            lines.push(digest_cell(&pname, cname, &hardened, &stats).0);
        }
    }
    lines
}
