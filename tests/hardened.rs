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
//! On every hardened function it holds the CFG and dominator analyses to
//! their brute-force definitions, and it pins the verifier's diagnostics
//! on mutants of a few hardened cells. The corpus is hardened and printed
//! once, on first use, and every test reads that one hardening and text.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use haft::apps::kvstore::{kv_shard, patch_requests, KvSync, KV_KEYSPACE};
use haft::apps::{WorkloadMix, YcsbGen};
use haft::ir::cfg::Cfg;
use haft::ir::dom::DomTree;
use haft::ir::module::{GlobalId, GlobalInit, Module};
use haft::ir::printer::print_module;
use haft::ir::verify::{verify_func, FnSig};
use haft::ir::{BlockId, Callee, Function, Op, Operand};
use haft::passes::{HardenConfig, PassManager, PassStats};

/// One corpus program and its hardening under every preset.
struct Program {
    name: String,
    source: Module,
    /// `source` printed before any preset hardened it.
    before: String,
    /// One per preset, in corpus order.
    cells: Vec<Cell>,
}

/// A program hardened by one preset.
struct Cell {
    preset: String,
    cfg: HardenConfig,
    hardened: Module,
    stats: PassStats,
    /// `hardened`'s digest line, and `hardened` printed: the text it hashes.
    digest: String,
    text: String,
}

/// The whole corpus, hardened on first use.
fn corpus() -> &'static [Program] {
    static CORPUS: OnceLock<Vec<Program>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let presets = haft::corpus::presets();
        let harden = |name: &str, source: &Module| {
            let cells = presets.iter().map(|(preset, cfg)| {
                let (hardened, stats) = PassManager::from_config(cfg).run_on(source);
                let (digest, text) = haft::corpus::digest_cell(name, preset, &hardened, &stats);
                Cell { preset: preset.clone(), cfg: cfg.clone(), hardened, stats, digest, text }
            });
            cells.collect()
        };
        let programs = haft::corpus::programs().into_iter();
        programs
            .map(|(name, source)| {
                let before = print_module(&source);
                Program { cells: harden(&name, &source), name, source, before }
            })
            .collect()
    })
}

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
    let cells = corpus().iter().flat_map(|p| &p.cells);
    let actual_refs: Vec<&str> = cells.map(|c| c.digest.as_str()).collect();
    let expected: Vec<&str> = include_str!("hardened.digest").lines().collect();
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
    for Program { name: pname, source: module, cells, .. } in corpus() {
        for Cell { preset: cname, hardened, .. } in cells {
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
    for Program { name: pname, source: module, before, cells } in corpus() {
        for Cell { preset: cname, cfg, hardened, stats, .. } in cells {
            let pm = PassManager::from_config(cfg);
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
        assert_eq!(&print_module(module), before, "{pname}: hardening changed its input");
    }
}

#[test]
fn hardening_in_place_leaves_every_clone_of_its_input_alone() {
    for Program { name: pname, source: module, before, cells } in corpus() {
        for Cell { preset: cname, cfg, text: copied, .. } in cells {
            // `twin` shares every body with `module` until a pass takes
            // one to rewrite it.
            let mut twin = module.clone();
            assert!(module.funcs.iter().zip(&twin.funcs).all(|(a, b)| Arc::ptr_eq(a, b)));
            PassManager::from_config(cfg).run(&mut twin);
            assert_eq!(&print_module(module), before, "{pname} {cname}: the input moved");
            assert_eq!(&print_module(&twin), copied, "{pname} {cname}");
        }
    }
}

/// The blocks reachable from `f`'s entry without passing through `cut`,
/// walked from the terminators alone.
fn reached(f: &Function, cut: Option<BlockId>) -> Vec<bool> {
    let mut seen = vec![false; f.blocks.len()];
    let mut stack = vec![f.entry()];
    while let Some(b) = stack.pop() {
        if Some(b) != cut && !std::mem::replace(&mut seen[b.0 as usize], true) {
            stack.extend(f.successors(b).into_iter().flatten());
        }
    }
    seen
}

#[test]
fn analyses_match_their_definitions_on_every_hardened_function() {
    for Program { name: pname, cells, .. } in corpus() {
        for Cell { preset: cname, hardened, .. } in cells {
            for f in hardened.funcs.iter().filter(|f| !f.attrs.external) {
                let at = format!("{pname} {cname} `{}`", f.name);
                let (cfg, blocks) = (Cfg::compute(f), (0..f.blocks.len() as u32).map(BlockId));
                for b in blocks.clone() {
                    let slots: Vec<BlockId> = f.successors(b).into_iter().flatten().collect();
                    assert_eq!(cfg.succs(b), slots, "{at}: succs of {b:?}");
                    assert!(cfg.preds(b).windows(2).all(|w| w[0] < w[1]), "{at}: preds of {b:?}");
                    assert!(cfg.preds(b).iter().all(|p| cfg.succs(*p).contains(&b)), "{at}");
                    assert!(cfg.succs(b).iter().all(|s| cfg.preds(*s).contains(&b)), "{at}");
                }
                let reachable = reached(f, None);
                let mut rpo = cfg.rpo.clone();
                rpo.sort();
                let want: Vec<BlockId> =
                    blocks.clone().filter(|b| reachable[b.0 as usize]).collect();
                assert_eq!(rpo, want, "{at}: rpo is not the reachable set");
                assert_eq!(cfg.rpo[0], f.entry(), "{at}");
                for b in blocks {
                    assert_eq!(cfg.is_reachable(b), reachable[b.0 as usize], "{at}: {b:?}");
                }
                // `a` dominates `b` iff `b` is unreachable once `a` is cut.
                let dom = DomTree::compute(f, &cfg);
                for &a in &cfg.rpo {
                    let without = reached(f, Some(a));
                    for &b in &cfg.rpo {
                        let want = a == b || !without[b.0 as usize];
                        assert_eq!(dom.dominates(a, b), want, "{at}: {a:?} dominates {b:?}");
                    }
                }
            }
        }
    }
}

/// One verifier mutant: a function of a hardened cell, changed where
/// `mutate` finds a site, and the diagnostics it must get.
type Mutant = (Function, Vec<String>);

/// Makes a [`Mutant`] of one function, or `None` where it has no site.
type Mutator<'a> = &'a dyn Fn(&Function) -> Option<Mutant>;

/// Every placed instruction: (block, position, op).
fn placed(f: &Function) -> impl Iterator<Item = (BlockId, usize, &Op)> {
    f.blocks.iter().enumerate().flat_map(move |(b, blk)| {
        blk.insts.iter().enumerate().map(move |(i, id)| (BlockId(b as u32), i, &f.inst(*id).op))
    })
}

#[test]
fn verifier_diagnostics_are_pinned_on_hardened_mutants() {
    let cells = [("kv_shard", "haft"), ("sqlite-a", "tmr"), ("vips", "abft")];
    let mutants: [(&str, Mutator); 7] = [
        ("a use moved above its def", &|f| {
            // A non-phi def whose next instruction uses it, swapped.
            placed(f).find_map(|(b, i, op)| {
                let next = f.blocks[b.0 as usize].insts.get(i + 1).map(|id| &f.inst(*id).op)?;
                let v = f.inst_result(f.blocks[b.0 as usize].insts[i])?;
                let uses = |o: &Operand| *o == Operand::Value(v);
                let mut n = 0;
                next.for_each_operand(|o| n += uses(o) as usize);
                (n > 0 && !op.is_phi() && !next.is_terminator() && !next.is_phi()).then(|| {
                    let mut g = f.clone();
                    g.blocks[b.0 as usize].insts.swap(i, i + 1);
                    let e = format!("{}: {v:?} used in {b:?}#{i} does not dominate use", f.name);
                    (g, vec![e; n])
                })
            })
        }),
        ("a dropped def", &|f| {
            // A def used exactly once, by a non-phi, taken out of its block.
            placed(f).find_map(|(b, i, _)| {
                let v = f.inst_result(f.blocks[b.0 as usize].insts[i])?;
                let mut users = placed(f).filter(|(_, _, op)| {
                    let mut hit = false;
                    op.for_each_operand(|o| hit |= *o == Operand::Value(v));
                    hit
                });
                let (_, _, user) = users.next()?;
                if users.next().is_some() || user.is_phi() {
                    return None;
                }
                let mut g = f.clone();
                g.blocks[b.0 as usize].insts.remove(i);
                let mut n = 0;
                user.for_each_operand(|o| n += (*o == Operand::Value(v)) as usize);
                Some((g, vec![format!("{}: use of unplaced def {v:?}", f.name); n]))
            })
        }),
        ("a phi incoming retargeted to a non-pred", &|f| {
            // An immediate incoming (no def to dominate the new edge)
            // moved to the phi's own block.
            let cfg = Cfg::compute(f);
            placed(f).find_map(|(b, i, op)| {
                let Op::Phi { incomings, .. } = op else { return None };
                let k = incomings.iter().position(|(o, _)| o.is_const())?;
                if cfg.preds(b).contains(&b) {
                    return None;
                }
                let mut g = f.clone();
                let id = g.blocks[b.0 as usize].insts[i];
                let Op::Phi { incomings, .. } = &mut g.inst_mut(id).op else { return None };
                incomings[k].1 = b;
                let mut inc: Vec<BlockId> = incomings.iter().map(|(_, p)| *p).collect();
                inc.sort();
                let preds = cfg.preds(b);
                let e = format!("{}: phi in {b:?} incomings {inc:?} != preds {preds:?}", f.name);
                Some((g, vec![e]))
            })
        }),
        ("a duplicated phi incoming", &|f| {
            // The second incoming replaced by a copy of the first.
            let cfg = Cfg::compute(f);
            placed(f).find_map(|(b, i, op)| {
                let Op::Phi { incomings, .. } = op else { return None };
                if incomings.len() < 2 {
                    return None;
                }
                let mut g = f.clone();
                let id = g.blocks[b.0 as usize].insts[i];
                let Op::Phi { incomings, .. } = &mut g.inst_mut(id).op else { return None };
                incomings[1] = incomings[0];
                let mut inc: Vec<BlockId> = incomings.iter().map(|(_, p)| *p).collect();
                inc.sort();
                let preds = cfg.preds(b);
                let e = format!("{}: phi in {b:?} incomings {inc:?} != preds {preds:?}", f.name);
                Some((g, vec![e]))
            })
        }),
        ("a bogus global", &|f| {
            // A load's address pointed past the module's globals.
            placed(f).find_map(|(b, i, op)| {
                let Op::Load { .. } = op else { return None };
                let mut g = f.clone();
                let id = g.blocks[b.0 as usize].insts[i];
                let Op::Load { addr, .. } = &mut g.inst_mut(id).op else { return None };
                *addr = Operand::GlobalAddr(GlobalId(9_999));
                Some((g, vec![format!("{}: reference to bogus global GlobalId(9999)", f.name)]))
            })
        }),
        ("a call's arity", &|f| {
            // A direct call with its last argument dropped.
            placed(f).find_map(|(b, i, op)| {
                let Op::Call { callee: Callee::Direct(fid), args, .. } = op else { return None };
                let n = args.len().checked_sub(1)?;
                let mut g = f.clone();
                let id = g.blocks[b.0 as usize].insts[i];
                let Op::Call { args, .. } = &mut g.inst_mut(id).op else { return None };
                args.pop();
                let e = format!("{}: call to #{} with {n} args, expected {}", f.name, fid.0, n + 1);
                Some((g, vec![e]))
            })
        }),
        ("a ret's arity", &|f| {
            // A value-returning `ret` made void.
            placed(f).find_map(|(b, i, op)| {
                let Op::Ret { val: Some(_) } = op else { return None };
                let mut g = f.clone();
                let id = g.blocks[b.0 as usize].insts[i];
                g.inst_mut(id).op = Op::Ret { val: None };
                Some((g, vec![format!("{}: ret arity mismatch", f.name)]))
            })
        }),
    ];
    let mut found = [0; 7];
    for (pname, cname) in cells {
        let program = corpus().iter().find(|p| p.name == pname).expect("a corpus program");
        let cell = program.cells.iter().find(|c| c.preset == cname).expect("a corpus preset");
        let m = &cell.hardened;
        let sigs: Vec<FnSig> =
            m.funcs.iter().map(|f| FnSig { params: f.params.clone(), ret_ty: f.ret_ty }).collect();
        for ((kind, mutate), found) in mutants.iter().zip(&mut found) {
            let mut funcs = m.funcs.iter().filter(|f| !f.attrs.external);
            let Some((g, want)) = funcs.find_map(|f| mutate(f)) else { continue };
            *found += 1;
            let got = verify_func(&g, &sigs, &m.globals).expect_err(kind);
            assert_eq!(got, want, "{pname} {cname}: {kind}");
        }
    }
    for ((kind, _), found) in mutants.iter().zip(found) {
        assert!(found > 0, "no cell has a site for {kind}");
    }
}
