//! Pins the hardened IR of the whole corpus (`haft::corpus`): every
//! program under every preset must hash, count and report exactly as
//! `tests/hardened.digest` records. A pass refactor leaves the file
//! unchanged; a pass change updates exactly the cells it means to move,
//! regenerated with
//! `cargo run --release -p haft --example dump_hardened -- --digest > tests/hardened.digest`.
//! It also pins that hardening and `patch_requests` share a module's
//! global initialisers instead of copying them, that hardening copies
//! only the function bodies it rewrites, each allocated once, and that
//! it never changes its input or a clone sharing the input's bodies.

use std::collections::BTreeMap;
use std::sync::Arc;

use haft::apps::kvstore::{kv_shard, patch_requests, KvSync, KV_KEYSPACE};
use haft::apps::{WorkloadMix, YcsbGen};
use haft::ir::module::GlobalInit;
use haft::ir::printer::print_module;
use haft::passes::{HardenConfig, PassManager};

/// Keys a digest line by its cell, `<program> <preset>`.
fn by_cell(lines: &[&str]) -> BTreeMap<String, String> {
    lines
        .iter()
        .map(|l| {
            let cell: Vec<&str> = l.splitn(3, ' ').take(2).collect();
            (cell.join(" "), l.to_string())
        })
        .collect()
}

#[test]
fn every_hardened_module_matches_its_digest() {
    let actual = haft::corpus::digest();
    let expected: Vec<&str> = include_str!("hardened.digest").lines().collect();
    let actual_refs: Vec<&str> = actual.iter().map(String::as_str).collect();
    if actual_refs == expected {
        return;
    }
    let (want, got) = (by_cell(&expected), by_cell(&actual_refs));
    let mut report = String::new();
    for cell in want.keys().chain(got.keys().filter(|c| !want.contains_key(*c))) {
        match (want.get(cell), got.get(cell)) {
            (Some(w), Some(g)) if w == g => continue,
            (w, g) => report.push_str(&format!(
                "{cell}: moved\n  want {}\n  got  {}\n  see: cargo run --release -p haft \
                 --example dump_hardened -- {cell}\n",
                w.map_or("(no such cell)", String::as_str),
                g.map_or("(no such cell)", String::as_str),
            )),
        }
    }
    if report.is_empty() {
        report.push_str("every cell matches, but the line order differs\n");
    }
    panic!(
        "hardened IR differs from tests/hardened.digest:\n{report}regenerate with \
         `cargo run --release -p haft --example dump_hardened -- --digest > tests/hardened.digest` \
         if the change is meant"
    );
}

/// Whether two initialisers are one and the same buffer (not merely equal
/// bytes), or both zero.
fn same_init(a: &GlobalInit, b: &GlobalInit) -> bool {
    match (a, b) {
        (GlobalInit::Zero, GlobalInit::Zero) => true,
        (GlobalInit::Bytes(p), GlobalInit::Bytes(q)) => Arc::ptr_eq(p, q),
        _ => false,
    }
}

#[test]
fn hardening_shares_every_initialiser_with_its_source() {
    let presets = haft::corpus::presets();
    for (pname, module) in haft::corpus::programs() {
        for (cname, cfg) in &presets {
            let (hardened, _) = PassManager::from_config(cfg).run_on(&module);
            assert_eq!(hardened.globals.len(), module.globals.len(), "{pname} {cname}");
            for (src, g) in module.globals.iter().zip(&hardened.globals) {
                assert!(same_init(&src.init, &g.init), "{pname} {cname}: `{}` copied", g.name);
            }
        }
    }
}

#[test]
fn patching_requests_replaces_only_the_request_buffers() {
    let source = kv_shard(KvSync::Atomics).module;
    let (mut m, _) = PassManager::from_config(&HardenConfig::haft()).run_on(&source);
    let ops = YcsbGen::new(7, KV_KEYSPACE).generate(WorkloadMix::B, 5);
    patch_requests(&mut m, &ops);
    for (src, g) in source.globals.iter().zip(&m.globals) {
        let replaced = g.name == "reqs" || g.name == "n_reqs";
        assert_eq!(same_init(&src.init, &g.init), !replaced, "global `{}`", g.name);
    }
    let table = source.global(source.global_by_name("table").unwrap());
    assert!(matches!(table.init, GlobalInit::Bytes(_)), "the table is initialised data");
    let n_reqs = m.global(m.global_by_name("n_reqs").unwrap());
    assert_eq!(n_reqs.init, GlobalInit::Bytes(Arc::new(5u64.to_le_bytes().to_vec())));
}

#[test]
fn hardening_copies_only_the_bodies_it_rewrites() {
    let presets = haft::corpus::presets();
    for (pname, module) in haft::corpus::programs() {
        let before = print_module(&module);
        for (cname, cfg) in &presets {
            let pm = PassManager::from_config(cfg);
            let (hardened, stats) = pm.run_on(&module);
            for (src, out) in module.funcs.iter().zip(&hardened.funcs) {
                let at = format!("{pname} {cname} `{}`", src.name);
                if stats.records.is_empty() || (src.attrs.external && out.attrs == src.attrs) {
                    assert!(Arc::ptr_eq(src, out), "{at}: an untouched body was copied");
                    continue;
                }
                assert!(!Arc::ptr_eq(src, out), "{at}: a rewritten body is still shared");
                // Copied once, at the input's length plus the pipeline's
                // room, and never grown: a table that outgrew its room
                // would have reallocated past it.
                let room = pm.room(src);
                assert!(out.insts.len() <= src.insts.len() + room.insts, "{at}: insts");
                assert!(out.insts.capacity() <= src.insts.len() + room.insts, "{at}: insts grew");
                assert!(out.results.capacity() <= src.results.len() + room.insts, "{at}: results");
                assert!(out.values.capacity() <= src.values.len() + room.values, "{at}: values");
                assert!(out.blocks.capacity() <= src.blocks.len() + room.blocks, "{at}: blocks");
            }
        }
        assert_eq!(print_module(&module), before, "{pname}: hardening changed its input");
    }
}

#[test]
fn hardening_in_place_leaves_every_clone_of_its_input_alone() {
    let presets = haft::corpus::presets();
    for (pname, module) in haft::corpus::programs() {
        let before = print_module(&module);
        for (cname, cfg) in &presets {
            // `twin` shares every body with `module` until a pass takes
            // one to rewrite it.
            let mut twin = module.clone();
            assert!(module.funcs.iter().zip(&twin.funcs).all(|(a, b)| Arc::ptr_eq(a, b)));
            let (copied, _) = PassManager::from_config(cfg).run_on(&module);
            PassManager::from_config(cfg).run(&mut twin);
            assert_eq!(print_module(&module), before, "{pname} {cname}: the input moved");
            assert_eq!(print_module(&twin), print_module(&copied), "{pname} {cname}");
        }
    }
}
