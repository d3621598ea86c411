//! Sampling profiler for the VM's steady state, for hosts without `perf`.
//!
//! Loops the 16 cells of the benchmark's `batch-exec` workload — four
//! programs at `Scale::Large` × {native, HAFT, TMR, ABFT}, the runs in
//! which the fused engine, the scoreboard and the HTM model do nearly all
//! the work — for N seconds under `setitimer(ITIMER_PROF)`, with a
//! `SIGPROF` handler that stores the interrupted instruction pointer, and
//! prints:
//!
//! * the sum of per-cell minima and ns per simulated instruction per
//!   cell (the quiet-host estimate of one benchmark pass);
//! * where the samples fell, through `addr2line -f -i`: by *outer frame*
//!   (the real function whose code was executing) and by *innermost
//!   inline* (the source function that code was inlined from);
//! * the observed paths, unsampled, each beside its plain figure: two of
//!   the cells under `run_profiled`, and a six-injection fork-driven
//!   campaign over one HAFT and one native `Scale::Small` program with
//!   forensics on and off (the same simulated work either way, so the
//!   ratio of the times is the ratio of ns per instruction).
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

    /// Starts sampling the process's CPU time.
    pub fn start() {
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

    /// Where this executable's first mapping starts (the load base a PIE's
    /// file addresses are offsets from), and its path.
    fn load_base() -> (u64, String) {
        let exe = std::fs::read_link("/proc/self/exe").expect("/proc/self/exe");
        let exe = exe.to_string_lossy().into_owned();
        let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
        let line = maps.lines().find(|l| l.ends_with(&exe)).expect("the executable is mapped");
        let start = line.split('-').next().expect("maps line starts with a range");
        (u64::from_str_radix(start, 16).expect("hex address"), exe)
    }

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

    /// Resolves the samples and prints both share tables.
    pub fn print(samples: &[u64]) {
        let (base, exe) = load_base();
        let addrs: Vec<String> =
            samples.iter().map(|rip| format!("{:#x}", rip.wrapping_sub(base))).collect();
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
        let (mut outer, mut inner) = (HashMap::new(), HashMap::new());
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

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    use haft::eval::{perf_vm, recommended_threshold};
    use haft::prelude::*;
    use std::time::{Duration, Instant};

    let seconds: f64 = std::env::args().nth(1).map_or(10.0, |s| s.parse().expect("seconds"));
    let configs = [
        ("native", HardenConfig::native()),
        ("haft", HardenConfig::haft()),
        ("tmr", HardenConfig::tmr()),
        ("abft", HardenConfig::abft()),
    ];
    let programs: Vec<Workload> = ["linearreg", "histogram", "wordcount", "dedup"]
        .iter()
        .map(|name| workload_by_name(name, Scale::Large).expect("a Phoenix/PARSEC workload"))
        .collect();
    let mut cells = Vec::new();
    for w in &programs {
        for (label, cfg) in &configs {
            let exp = Experiment::workload(w)
                .vm(perf_vm(2, recommended_threshold(w.name)))
                .seed(1)
                .harden(cfg.clone());
            exp.build(); // Harden outside the sampled loop.
            cells.push((format!("{}.{label}", w.name), exp, f64::INFINITY, 0u64));
        }
    }

    sampler::start();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds = 0;
    while rounds == 0 || Instant::now() < deadline {
        for (_, exp, best, insts) in &mut cells {
            let t = Instant::now();
            let run = exp.run().run;
            *best = best.min(t.elapsed().as_secs_f64());
            *insts = run.instructions;
        }
        rounds += 1;
    }
    let samples = sampler::stop();

    println!("{rounds} rounds of {} cells", cells.len());
    for (name, _, best, insts) in &cells {
        println!("  {name:<18} {:8.2} ms  {:6.2} ns/inst", best * 1e3, best * 1e9 / *insts as f64);
    }
    let total_s: f64 = cells.iter().map(|c| c.2).sum();
    let total_insts: u64 = cells.iter().map(|c| c.3).sum();
    println!(
        "sum of per-cell minima {:.4} s, {:.2} ns/inst over {:.1} Minst",
        total_s,
        total_s * 1e9 / total_insts as f64,
        total_insts as f64 / 1e6
    );
    report::print(&samples);

    // The observed paths, best of five, unsampled.
    fn best_ms<R>(mut run: impl FnMut() -> R) -> f64 {
        let times = (0..5).map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64() * 1e3
        });
        times.fold(f64::INFINITY, f64::min)
    }
    println!("\nobserved paths (best of 5, beside the plain figure)");
    for (name, exp, plain, insts) in &cells {
        if name == "linearreg.haft" || name == "histogram.native" {
            let ms = best_ms(|| exp.run_profiled());
            let per_inst = |ms: f64| ms * 1e6 / *insts as f64;
            println!(
                "  {name:<18} profiled            {ms:8.2} ms  {:6.2} ns/inst, plain {:6.2}  x{:.2}",
                per_inst(ms),
                per_inst(plain * 1e3),
                ms / (plain * 1e3)
            );
        }
    }
    let small = workload_by_name("linearreg", Scale::Small).expect("a Phoenix workload");
    for (label, cfg) in &configs[..2] {
        let exp = Experiment::workload(&small)
            .vm(perf_vm(2, recommended_threshold(small.name)))
            .seed(1)
            .harden(cfg.clone());
        let campaign = |forensics| {
            let cfg = CampaignConfig {
                injections: 6,
                seed: 1,
                parallelism: 1,
                forensics,
                ..Default::default()
            };
            best_ms(|| exp.campaign(cfg.clone()))
        };
        let (off, on) = (campaign(false), campaign(true));
        let name = format!("{}.{label}", small.name);
        println!(
            "  {name:<18} campaign, forensics {on:8.2} ms, without {off:8.2} ms      x{:.2}",
            on / off
        );
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    println!("hotspots: unsupported on this target (needs Linux on x86-64)");
}
