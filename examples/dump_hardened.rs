//! Prints the hardened IR of the repo's programs, one module after
//! another, so two commits can be compared with `diff`: the oracle for a
//! pass refactor (every module must print byte-identically) and for
//! reading what a pass change did to a program. Each module is preceded
//! by its `PassStats` (per-pass instruction delta and pass counters).
//!
//! Run with:
//! `cargo run --release -p haft --example dump_hardened -- <program|all> <preset|all>`
//!
//! Programs and presets are `haft::corpus`'s: the 17 workloads by name,
//! `kv_shard`, `memcached-{lock,atomics,sei}`, `logcabin`, `apache`,
//! `leveldb-{a,d}`, `sqlite-{a,d}`, where a name also selects its
//! `-suffix` variants (`memcached`, `sqlite`); and every `HardenConfig`
//! preset and modifier the repo uses.
//!
//! `dump_hardened --digest > tests/hardened.digest` regenerates the
//! one-line-per-cell digest that `tests/hardened.rs` checks.

use haft::corpus::{digest, presets, programs};
use haft::ir::printer::print_module;
use haft::prelude::*;

fn selects(arg: &str, name: &str) -> bool {
    arg == "all" || arg == name || name.strip_prefix(arg).is_some_and(|r| r.starts_with('-'))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--digest"] {
        digest().iter().for_each(|line| println!("{line}"));
        return;
    }
    let [program, preset] = args.as_slice() else {
        eprintln!("usage: dump_hardened <program|all> <preset|all> | --digest");
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
