//! Sampling profiler for the VM's steady state and the serving path, for
//! hosts without `perf`.
//!
//! Loops the 16 cells of the benchmark's `batch-exec` workload — four
//! programs at `Scale::Large` × {native, HAFT, TMR, ABFT}, the runs in
//! which the fused engine, the scoreboard and the HTM model do nearly all
//! the work — for N seconds under `setitimer(ITIMER_PROF)`, with a
//! `SIGPROF` handler that stores the interrupted instruction pointer, and
//! prints:
//!
//! * the sum of per-cell minima and ns per simulated instruction per
//!   cell (the quiet-host estimate of one benchmark pass), and the ns per
//!   instruction of a dependent 64-bit ALU chain (best of 5, unsampled:
//!   the scoreboard's and the resolved opcodes' critical path);
//! * where the samples fell, through `addr2line -f -i`: by *outer frame*
//!   (the real function whose code was executing) and by *innermost
//!   inline* (the source function that code was inlined from); a sample
//!   outside the executable counts for its mapping (`libc.so.6`, …);
//! * set-up, unsampled, best of 5 each: synthesising the four
//!   `Scale::Large` programs' inputs, hardening them per backend, and
//!   verifying the 16 modules — the work every benchmark round redoes
//!   before its first run, so a set-up regression shows beside run time —
//!   then `serve-mixed`'s set-up: building `kv_shard` and its eight
//!   prepares, as two lines (the eight `Experiment::build()`s, then
//!   `verify_module` on the eight modules they hand out);
//!   each stage with its minor page faults per run (`/proc/self/stat`),
//!   where allocator churn shows;
//! * the same for the four Sim cells of the benchmark's `serve-mixed`
//!   (`kv_shard` under YCSB B: native, HAFT, TMR, HAFT with faults),
//!   sampled for a quarter of the time, each cell twice — serial, with
//!   every spare core leased away first, and with the lookahead helper on
//!   a spare core — with µs per batch per cell, the lookahead/serial
//!   ratio, and where the lookahead's batch runs came from;
//! * the same timings, unsampled, for the report's other Sim callers in
//!   their fast grids: `service-load`'s closed loop and its open loop at
//!   batch 1, and `haft-vs-elzar`'s serving cells;
//! * the same for the four `haft-report` sections of the benchmark's
//!   `report-fast` (`overheads`, `tx-sweep`, `serving`, `profile`, fast
//!   mode, their runs fanned out over the host's cores), sampled for a
//!   quarter of the time, with the sum of the per-section minima;
//! * the observed paths, unsampled, each beside its plain figure and
//!   timed alternately with it, best of 5 each: two of the cells under
//!   `run_profiled`, and a six-injection fork-driven
//!   campaign over two `Scale::Small` programs under each backend with
//!   forensics on and off (the same simulated work either way, so the
//!   ratio of the times is the ratio of ns per instruction), how many
//!   of their forks settled at a rollback, settled where their taint
//!   drained, or ran to their end, and the instructions their pilots
//!   executed as a share of the reference run's, with how often a pilot
//!   resumed from one of the reference run's checkpoints, and per
//!   reference run the checkpoints it took and kept, KiB per kept
//!   checkpoint and µs per checkpoint taken, all summed from the
//!   `CampaignCost` each `haft::faults::run_campaign` returns;
//! * the process's peak resident set (`VmHWM`) after the `batch-exec`
//!   cells and at exit, so a footprint regression shows beside a slowdown.
//!
//! Run with: `cargo run --release --example hotspots -- [seconds]`
//! (default 10; release builds carry the line tables, `debug = true`).
//! Linux/x86-64 only: elsewhere it says so and exits 0.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::ffi::c_void;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// Byte offset of `uc_mcontext.gregs[REG_RIP]` in glibc's x86-64
    /// `ucontext_t`: `uc_flags` 8 + `uc_link` 8 + `uc_stack` 24 + 16 × 8.
    const RIP_OFFSET: usize = 168;
    /// The kernel delivers a profiling tick every 1–4 ms whatever is
    /// asked, so this holds a minute or two of samples — and fits
    /// `addr2line`'s command line. Later samples are dropped.
    const CAPACITY: usize = 1 << 15;

    static SAMPLES: [AtomicU64; CAPACITY] = [const { AtomicU64::new(0) }; CAPACITY];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        interval: Timeval,
        value: Timeval,
    }

    /// glibc's x86-64 `struct sigaction`.
    #[repr(C)]
    struct Sigaction {
        handler: extern "C" fn(i32, *mut c_void, *mut c_void),
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    extern "C" {
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
        fn sigaction(sig: i32, act: *const Sigaction, old: *mut Sigaction) -> i32;
    }

    /// Async-signal-safe: two relaxed atomics and one read of the context.
    extern "C" fn on_sigprof(_sig: i32, _info: *mut c_void, ctx: *mut c_void) {
        // SAFETY: the kernel passes an `SA_SIGINFO` handler a valid
        // `ucontext_t` for the interrupted thread, live for the handler's
        // duration, and `RIP_OFFSET` is an aligned `i64` inside it
        // (`gregs[16]`) on this `cfg`'s only target.
        let rip = unsafe { ctx.cast::<u8>().add(RIP_OFFSET).cast::<u64>().read() };
        let at = TAKEN.fetch_add(1, Relaxed);
        if let Some(slot) = SAMPLES.get(at) {
            slot.store(rip, Relaxed);
        }
    }

    fn timer(usec: i64) {
        let tick = || Timeval { sec: 0, usec };
        let every = Itimerval { interval: tick(), value: tick() };
        // SAFETY: `every` is a live, fully initialised `itimerval` of the
        // C layout; a null `old` is allowed.
        let rc = unsafe { setitimer(ITIMER_PROF, &every, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer(ITIMER_PROF)");
    }

    /// Starts sampling the process's CPU time, from an empty buffer.
    pub fn start() {
        TAKEN.store(0, Relaxed);
        let act = Sigaction {
            handler: on_sigprof,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: `act` is a live `struct sigaction` of glibc's x86-64
        // layout (glibc fills in the restorer itself); the handler is
        // async-signal-safe, see `on_sigprof`; a null `old` is allowed.
        let rc = unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction(SIGPROF)");
        timer(997);
    }

    /// Stops the timer and returns the sampled instruction pointers.
    pub fn stop() -> Vec<u64> {
        timer(0);
        let n = TAKEN.load(Relaxed).min(CAPACITY);
        SAMPLES[..n].iter().map(|s| s.load(Relaxed)).collect()
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod report {
    use std::collections::HashMap;
    use std::process::Command;

    /// `path::to::function::h0123…` → `to::function` (last two segments).
    fn short(name: &str) -> String {
        let mut parts: Vec<&str> = name.split("::").collect();
        if parts.last().is_some_and(|p| p.len() == 17 && p.starts_with('h')) {
            parts.pop();
        }
        parts[parts.len().saturating_sub(2)..].join("::")
    }

    fn table(title: &str, counts: HashMap<String, usize>, total: usize) {
        let mut rows: Vec<(String, usize)> = counts.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        println!("\n{title}");
        for (name, n) in rows.iter().take(14) {
            println!("  {:5.1} %  {name}", 100.0 * *n as f64 / total as f64);
        }
    }

    /// Resolves the samples and prints both share tables. A sample in
    /// this executable is named by `addr2line`; one anywhere else counts
    /// for its mapping (`libc.so.6`, `[vdso]`, …) in both tables.
    pub fn print(samples: &[u64]) {
        let exe = std::fs::read_link("/proc/self/exe").expect("/proc/self/exe");
        let exe = exe.to_string_lossy().into_owned();
        let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
        // `start-end perms offset dev inode [path]` → (start, end, path).
        let ranges: Vec<(u64, u64, &str)> = maps
            .lines()
            .filter_map(|line| {
                let mut fields = line.split_whitespace();
                let (start, end) = fields.next()?.split_once('-')?;
                let hex = |h| u64::from_str_radix(h, 16).ok();
                Some((hex(start)?, hex(end)?, fields.nth(4).unwrap_or("[anon]")))
            })
            .collect();
        // The first mapping of a PIE is its load base: file addresses
        // are offsets from it.
        let base = ranges.iter().find(|r| r.2 == exe).expect("the executable is mapped").0;
        let (mut outer, mut inner) = (HashMap::new(), HashMap::new());
        let mut addrs = Vec::new();
        for &rip in samples {
            match ranges.iter().find(|r| (r.0..r.1).contains(&rip)).map(|r| r.2) {
                Some(path) if path == exe => addrs.push(format!("{:#x}", rip - base)),
                path => {
                    let name = path.map_or("unmapped", |p| p.rsplit('/').next().unwrap_or(p));
                    *outer.entry(name.to_string()).or_insert(0) += 1;
                    *inner.entry(name.to_string()).or_insert(0) += 1;
                }
            }
        }
        println!("\n{} samples", samples.len());
        let out = match Command::new("addr2line")
            .args(["-a", "-f", "-i", "-C", "-e", &exe])
            .args(&addrs)
            .output()
        {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).into_owned(),
            _ => return println!("addr2line not available: no share tables"),
        };
        // Per address: its `0x…` line, then (function, file:line) pairs
        // from the innermost inlined frame out to the real function.
        for record in out.split("\n0x") {
            let funcs: Vec<&str> = record.lines().skip(1).step_by(2).collect();
            if let (Some(first), Some(last)) = (funcs.first(), funcs.last()) {
                *inner.entry(short(first)).or_insert(0) += 1;
                *outer.entry(short(last)).or_insert(0) += 1;
            }
        }
        table("outer frame (the function whose code ran)", outer, samples.len());
        table("innermost inline (the source function it came from)", inner, samples.len());
    }
}

/// A dependent 64-bit ALU chain in a do-while loop: per iteration four
/// rounds of the serving frame's shape (`lshr`, `xor`, `add`) and a
/// multiply, each op reading the one before it.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn alu_chain(iterations: i64) -> haft::ir::module::Module {
    use haft::prelude::*;
    let mut fb = FunctionBuilder::new("fini", &[], None);
    fb.set_non_local();
    let (entry, body, exit) = (fb.entry(), fb.new_block(), fb.new_block());
    fb.br(body);
    fb.switch_to(body);
    let (i, x) = (fb.phi(Ty::I64), fb.phi(Ty::I64));
    let mut v = x;
    for k in 0..4 {
        let shifted = fb.bin(BinOp::LShr, Ty::I64, v, fb.iconst(Ty::I64, 7 + k));
        v = fb.bin(BinOp::Xor, Ty::I64, v, shifted);
        v = fb.add(Ty::I64, v, fb.iconst(Ty::I64, 0x9E37_79B9));
        v = fb.mul(Ty::I64, v, fb.iconst(Ty::I64, 0x2545_F491));
    }
    let next = fb.add(Ty::I64, i, fb.iconst(Ty::I64, 1));
    let more = fb.cmp(CmpOp::SLt, Ty::I64, next, fb.iconst(Ty::I64, iterations));
    fb.condbr(more, body, exit);
    fb.phi_incoming(i, fb.iconst(Ty::I64, 0), entry);
    fb.phi_incoming(i, next, body);
    fb.phi_incoming(x, fb.iconst(Ty::I64, 1), entry);
    fb.phi_incoming(x, v, body);
    fb.switch_to(exit);
    fb.emit_out(Ty::I64, v);
    fb.ret(None);
    let mut m = Module::new("alu-chain");
    m.push_func(fb.finish());
    verify_module(&m).expect("the chain verifies");
    m
}

/// The process's minor page faults so far (field 10 of
/// `/proc/self/stat`, counted after the parenthesised command name).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    stat.rsplit_once(')')?.1.split_whitespace().nth(7)?.parse().ok()
}

/// Prints the process's peak resident set so far (`VmHWM` in
/// `/proc/self/status`), in MiB.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn print_peak_rss(when: &str) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status.lines().find_map(|l| {
        l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
    });
    match kb {
        Some(kb) => println!("peak RSS {when}: {:.2} MiB", kb / 1024.0),
        None => println!("peak RSS {when}: no VmHWM in /proc/self/status"),
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    use haft::apps::{kv_shard, KvSync, WorkloadMix};
    use haft::eval::{perf_vm, recommended_threshold};
    use haft::faults::CampaignCost;
    use haft::prelude::*;
    use std::time::{Duration, Instant};

    /// A sampled cell: name, one run (returning its work count), the
    /// best time so far and the last work count.
    type Cell<'a> = (String, Box<dyn FnMut() -> u64 + 'a>, f64, u64);
    /// Loops `cells` under the sampler until `seconds` have passed, one
    /// round at least.
    fn sampled(cells: &mut [Cell<'_>], seconds: f64) -> Vec<u64> {
        sampler::start();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut rounds = 0;
        while rounds == 0 || Instant::now() < deadline {
            for (_, run, best, work) in cells.iter_mut() {
                let t = Instant::now();
                *work = run();
                *best = best.min(t.elapsed().as_secs_f64());
            }
            rounds += 1;
        }
        let samples = sampler::stop();
        println!("{rounds} rounds of {} cells", cells.len());
        samples
    }
    /// A serving cell: name and one run, returning its batch count.
    type SimCell<'a> = (String, Box<dyn Fn() -> u64 + 'a>);
    /// Loops each of `cells` twice under the sampler — serial, with every
    /// spare core leased away first, and with the lookahead helper on a
    /// spare core — and prints ms and µs per batch of each, their ratio,
    /// where the lookahead's batch runs came from, and the sums of the
    /// per-cell minima.
    fn serial_and_lookahead(cells: &[SimCell<'_>], seconds: f64) -> Vec<u64> {
        use haft::serve::lookahead_counts;
        // Per cell: batches ready, waited for, run inline, and all runs.
        let sources: Vec<std::cell::Cell<[u64; 4]>> =
            cells.iter().map(|_| Default::default()).collect();
        let mut timed: Vec<Cell> = cells
            .iter()
            .zip(&sources)
            .flat_map(|((name, run), sources)| {
                let serial = Box::new(|| {
                    let _all = haft::vm::cores::lease(usize::MAX);
                    run()
                }) as Box<dyn FnMut() -> u64>;
                let ahead = Box::new(|| {
                    let (before, batches) = (lookahead_counts(), run());
                    let after = lookahead_counts();
                    let [r, w, i, n] = sources.get();
                    sources.set([
                        r + after.ready - before.ready,
                        w + after.waited - before.waited,
                        i + after.inline - before.inline,
                        n + after.runs - before.runs,
                    ]);
                    batches
                }) as Box<dyn FnMut() -> u64>;
                [
                    (format!("{name} serial"), serial, f64::INFINITY, 0),
                    (name.clone(), ahead, f64::INFINITY, 0),
                ]
            })
            .collect();
        let samples = sampled(&mut timed, seconds);
        for (pair, sources) in timed.chunks(2).zip(&sources) {
            for (name, _, best, batches) in pair {
                let per_batch = best * 1e6 / *batches as f64;
                println!(
                    "  {name:<29} {:8.2} ms  {batches} batches  {per_batch:6.2} us/batch",
                    best * 1e3
                );
            }
            let [ready, waited, inline, runs] = sources.get();
            let pct = |n: u64| 100.0 * n as f64 / runs.max(1) as f64;
            println!(
                "  {:<29} x{:.2}  runs: {:.0} % ready, {:.0} % waited for, {:.0} % inline, \
                 {:.0} % wasted",
                "lookahead/serial",
                pair[1].2 / pair[0].2,
                pct(ready),
                pct(waited),
                pct(inline),
                pct(runs - ready - waited - inline)
            );
        }
        let sum = |parity: usize| timed.iter().skip(parity).step_by(2).map(|c| c.2).sum::<f64>();
        println!(
            "sum of per-cell minima: serial {:.1} ms, lookahead {:.1} ms",
            sum(0) * 1e3,
            sum(1) * 1e3
        );
        samples
    }
    fn time_ms<R>(run: &mut impl FnMut() -> R) -> f64 {
        let t = Instant::now();
        run();
        t.elapsed().as_secs_f64() * 1e3
    }
    fn best_ms<R>(mut run: impl FnMut() -> R) -> f64 {
        (0..5).map(|_| time_ms(&mut run)).fold(f64::INFINITY, f64::min)
    }
    /// Best of five of `a` and of `b`, timed alternately, so that a
    /// change in host load weighs on both alike.
    fn best_pair_ms<R, S>(mut a: impl FnMut() -> R, mut b: impl FnMut() -> S) -> (f64, f64) {
        let mut best = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            best.0 = best.0.min(time_ms(&mut a));
            best.1 = best.1.min(time_ms(&mut b));
        }
        best
    }

    let seconds: f64 = std::env::args().nth(1).map_or(10.0, |s| s.parse().expect("seconds"));
    let configs = [
        ("native", HardenConfig::native()),
        ("haft", HardenConfig::haft()),
        ("tmr", HardenConfig::tmr()),
        ("abft", HardenConfig::abft()),
    ];
    let names = ["linearreg", "histogram", "wordcount", "dedup"];
    let large = |name| workload_by_name(name, Scale::Large).expect("a Phoenix/PARSEC workload");
    let programs: Vec<Workload> = names.map(large).into();
    let mut batch = Vec::new();
    for w in &programs {
        for (label, cfg) in &configs {
            let exp = Experiment::workload(w)
                .vm(perf_vm(2, recommended_threshold(w.name)))
                .seed(1)
                .harden(cfg.clone());
            exp.build(); // Harden outside the sampled loop.
            batch.push((format!("{}.{label}", w.name), exp));
        }
    }
    let mut batch_cells: Vec<Cell> = batch
        .iter()
        .map(|(name, exp)| {
            let run = Box::new(|| exp.run().run.instructions) as Box<dyn FnMut() -> u64>;
            (name.clone(), run, f64::INFINITY, 0)
        })
        .collect();
    let samples = sampled(&mut batch_cells, seconds);
    for (name, _, best, insts) in &batch_cells {
        println!("  {name:<18} {:8.2} ms  {:6.2} ns/inst", best * 1e3, best * 1e9 / *insts as f64);
    }
    let total_s: f64 = batch_cells.iter().map(|c| c.2).sum();
    let total_insts: u64 = batch_cells.iter().map(|c| c.3).sum();
    println!(
        "sum of per-cell minima {:.4} s, {:.2} ns/inst over {:.1} Minst",
        total_s,
        total_s * 1e9 / total_insts as f64,
        total_insts as f64 / 1e6
    );
    print_peak_rss("after batch-exec");
    let chain = alu_chain(20_000);
    let spec = RunSpec { fini: Some("fini"), ..Default::default() };
    let insts = Vm::run(&chain, VmConfig::default(), spec).instructions;
    let ms = best_ms(|| Vm::run(&chain, VmConfig::default(), spec));
    println!("dependent ALU chain {:.2} ns/inst (best of 5)", ms * 1e6 / insts as f64);
    report::print(&samples);

    /// Prints one set-up stage: best of five, and minor page faults per
    /// run over the five.
    fn setup_stage<R>(label: &str, run: impl FnMut() -> R) {
        let before = minor_faults();
        let ms = best_ms(run);
        match before.zip(minor_faults()) {
            Some((a, b)) => {
                println!("  {label:<28} {ms:8.2} ms  {:7.1} minor faults", (b - a) as f64 / 5.0)
            }
            None => println!("  {label:<28} {ms:8.2} ms  (no /proc/self/stat)"),
        }
    }

    // Set-up, unsampled: what every `batch-exec` round redoes before its
    // first run.
    println!("\nset-up (best of 5, minor page faults per run)");
    setup_stage("inputs, the 4 Large programs", || names.map(large));
    let mut hardened = Vec::new();
    for (label, cfg) in &configs {
        let pm = PassManager::from_config(cfg);
        let harden = || programs.iter().map(|w| pm.run_on(&w.module).0).collect::<Vec<_>>();
        setup_stage(&format!("harden {label}"), harden);
        hardened.extend(harden());
    }
    let label = format!("verify, the {} modules", hardened.len());
    setup_stage(&label, || hardened.iter().all(|m| verify_module(m).is_ok()));
    // `serve-mixed`'s set-up: the shard module, then its eight prepares
    // (native, HAFT, TMR and faulted HAFT, once per driver), each a fresh
    // experiment whose hardened module `build()` hands out for
    // verification. Timed as two lines, as above: the eight builds, kept
    // until all are built, as in a benchmark round, and dropped with them;
    // then verifying the eight modules they hand out.
    setup_stage("inputs, kv_shard", || kv_shard(KvSync::Atomics));
    let kv = kv_shard(KvSync::Atomics);
    let prepare = |c: usize| {
        let exp = Experiment::workload(&kv).seed(1).harden(configs[c].1.clone());
        let module = exp.build().0;
        (exp, module)
    };
    let order = [0, 1, 2, 1, 0, 1, 2, 1];
    setup_stage("serve-mixed, 8 hardens", || order.map(|c| prepare(c).0));
    let modules = order.map(|c| prepare(c).1);
    setup_stage("serve-mixed, 8 verifies", || modules.iter().all(|m| verify_module(m).is_ok()));

    // The serving Sim cells of the benchmark's `serve-mixed`: `kv_shard`
    // under YCSB B, sampled for a quarter of the time.
    let serving: Vec<_> = [(0, false), (1, false), (2, false), (1, true)]
        .into_iter()
        .map(|(c, faults)| {
            let (label, hc) = &configs[c];
            let exp = Experiment::workload(&kv).seed(1).harden(hc.clone());
            exp.build();
            let cfg = ServeConfig {
                requests: 1_500,
                arrival: ArrivalMode::ClosedLoop { clients: 32, think_ns: 0 },
                shards: 4,
                batch: 8,
                seed: 1,
                faults: faults.then(FaultLoad::default),
                ..ServeConfig::default()
            };
            (format!("serve.sim.{label}{}", if faults { "-faults" } else { "" }), exp, cfg)
        })
        .collect();
    let serve_cells: Vec<SimCell> = serving
        .iter()
        .map(|(name, exp, cfg)| {
            (name.clone(), Box::new(|| exp.serve(cfg).batches) as Box<dyn Fn() -> u64>)
        })
        .collect();
    println!();
    report::print(&serial_and_lookahead(&serve_cells, seconds / 4.0));

    // The report's other Sim callers, which run outside its fan-out and so
    // get the lookahead too, in their fast grids, for an eighth of the
    // time, without share tables: `service-load`'s closed loop (mix A and
    // B × 1 and 2 shards × native/HAFT/TMR, batch 8) and open loop (HAFT
    // and TMR at 50 % and 120 % of HAFT's 2-shard capacity, batch 1), and
    // `haft-vs-elzar`'s two serving cells (2 shards, batch 8, 1 % SEU).
    let backends: Vec<_> = configs[..3]
        .iter()
        .map(|(_, hc)| {
            let exp = Experiment::workload(&kv).harden(hc.clone());
            exp.build();
            exp
        })
        .collect();
    let mut closed = Vec::new();
    for mix in [WorkloadMix::A, WorkloadMix::B] {
        for shards in [1, 2] {
            let arrival = ArrivalMode::ClosedLoop { clients: 8 * shards, think_ns: 0 };
            let cfg = ServeConfig { requests: 200, mix, shards, arrival, ..ServeConfig::default() };
            closed.extend(backends.iter().map(|exp| (exp, cfg.clone())));
        }
    }
    let arrival = ArrivalMode::ClosedLoop { clients: 16, think_ns: 0 };
    let capacity_cfg = ServeConfig { requests: 200, shards: 2, arrival, ..ServeConfig::default() };
    let capacity = backends[1].serve(&capacity_cfg).achieved_rps;
    let mut open = Vec::new();
    for frac in [0.5, 1.2] {
        let arrival = ArrivalMode::OpenLoop { rate_rps: capacity * frac };
        let cfg =
            ServeConfig { requests: 100, shards: 2, batch: 1, arrival, ..ServeConfig::default() };
        open.extend(backends[1..].iter().map(|exp| (exp, cfg.clone())));
    }
    let faults = Some(FaultLoad { rate_per_request: 0.01, seed: 0xFA_17 });
    let elzar_cfg = ServeConfig { requests: 800, shards: 2, faults, ..ServeConfig::default() };
    let elzar: Vec<_> = backends[1..].iter().map(|exp| (exp, elzar_cfg.clone())).collect();
    fn group<'a>(cells: &'a [(&Experiment, ServeConfig)]) -> Box<dyn Fn() -> u64 + 'a> {
        Box::new(|| cells.iter().map(|(exp, cfg)| exp.serve(cfg).batches).sum())
    }
    let report_cells = [
        ("service-load.closed".to_string(), group(&closed)),
        ("service-load.open".to_string(), group(&open)),
        ("haft-vs-elzar.serving".to_string(), group(&elzar)),
    ];
    println!();
    serial_and_lookahead(&report_cells, seconds / 8.0);

    // The report sections of the benchmark's `report-fast`, sampled for a
    // quarter of the time.
    let sections: Vec<_> = ["overheads", "tx-sweep", "serving", "profile"]
        .iter()
        .map(|name| {
            let found = haft_report::all_sections().into_iter().find(|s| s.name() == *name);
            found.expect("a registered report section")
        })
        .collect();
    let mut section_cells: Vec<Cell> = sections
        .iter()
        .map(|section| {
            let run = Box::new(|| {
                let result = section.run(&haft_report::ReportConfig { fast: true });
                result.tables.len() as u64
            }) as Box<dyn FnMut() -> u64>;
            (section.name().to_string(), run, f64::INFINITY, 0)
        })
        .collect();
    println!();
    let samples = sampled(&mut section_cells, seconds / 4.0);
    for (name, _, best, _) in &section_cells {
        println!("  section {name:<14} {:8.2} ms", best * 1e3);
    }
    let total_s: f64 = section_cells.iter().map(|c| c.2).sum();
    println!("sum of per-section minima {:.1} ms", total_s * 1e3);
    report::print(&samples);

    // The observed paths, unsampled: each beside its plain figure, the
    // two timed alternately, best of five each.
    println!("\nobserved paths (best of 5, alternating with the plain figure)");
    for ((name, exp), &(_, _, _, insts)) in batch.iter().zip(&batch_cells) {
        if name == "linearreg.haft" || name == "histogram.native" {
            let (plain, ms) = best_pair_ms(|| exp.run(), || exp.run_profiled());
            let per_inst = |ms: f64| ms * 1e6 / insts as f64;
            println!(
                "  {name:<18} profiled            {ms:8.2} ms  {:6.2} ns/inst, plain {:6.2}  x{:.2}",
                per_inst(ms),
                per_inst(plain),
                ms / plain
            );
        }
    }
    let smalls = ["linearreg", "histogram"]
        .map(|name| workload_by_name(name, Scale::Small).expect("a Phoenix workload"));
    for (small, (label, cfg)) in smalls.iter().flat_map(|w| configs.iter().map(move |c| (w, c))) {
        let module = Experiment::workload(small).harden(cfg.clone()).build().0;
        let vm = VmConfig { seed: 1, ..perf_vm(2, recommended_threshold(small.name)) };
        let (module, vm, runs) = (&module, &vm, &std::cell::RefCell::new(Vec::new()));
        let campaign = |forensics| {
            let cfg = CampaignConfig { injections: 6, seed: 1, parallelism: 1, forensics };
            move || {
                let (golden, _, cost) = run_campaign(module, small.run_spec(), vm, &cfg);
                runs.borrow_mut().push((golden.instructions, cost));
            }
        };
        let (off, on) = best_pair_ms(campaign(false), campaign(true));
        let runs = runs.take();
        let sum = |f: fn(&CampaignCost) -> u64| runs.iter().map(|(_, c)| f(c)).sum::<u64>();
        let (rollback, drain, ended) = (sum(|c| c.settled), sum(|c| c.drained), sum(|c| c.ended));
        let reference = runs.iter().map(|&(insts, _)| insts).sum::<u64>() as f64;
        let pilot = sum(|c| c.instructions) as f64 / reference;
        let resumes = sum(|c| c.resumes);
        let (taken, kept) = (sum(|c| c.taken), sum(|c| c.kept));
        let kib = sum(|c| c.kept_bytes) as f64 / 1024.0 / kept.max(1) as f64;
        let us = sum(|c| c.checkpoint_ns) as f64 / 1e3 / taken.max(1) as f64;
        let (taken, kept) = (taken / runs.len() as u64, kept / runs.len() as u64);
        let name = format!("{}.{label}", small.name);
        println!(
            "  {name:<18} campaign, forensics {on:8.2} ms, without {off:8.2} ms      x{:.2}  \
             forks: rollback {rollback} / drain {drain} / ended {ended}  \
             pilot: {:.0} % of the reference run / resumes {resumes}  \
             checkpoints: taken {taken} / kept {kept}, {kib:.1} KiB kept each, {us:.2} us each",
            on / off,
            pilot * 100.0
        );
    }
    print_peak_rss("at exit");
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    println!("hotspots: unsupported on this target (needs Linux on x86-64)");
}
