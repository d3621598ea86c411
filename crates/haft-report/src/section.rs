//! The report's sections: one per reproduced paper artifact.
//!
//! A [`Section`] names itself, names the paper artifact it reproduces,
//! and measures a [`SectionResult`] — tables, series, and prose notes —
//! through the `haft::Experiment` facade. Sections are independent (any
//! subset can run via `--section`) and every section honors
//! [`ReportConfig::fast`] with a CI-sized sweep.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use haft::eval::{perf_vm, recommended_threshold};
use haft::{Experiment, VariantReport};
use haft_faults::{CampaignConfig, CampaignReport, Group, Outcome};
use haft_passes::HardenConfig;
use haft_vm::VmConfig;
use haft_workloads::{workload_by_name, Scale, Workload, WORKLOAD_NAMES};

use crate::render::{Series, Table, Tolerance};

mod abft;
mod ablations;
mod casestudies;
mod faults;
mod forensics;
mod htm;
mod model;
mod optlevels;
mod overheads;
mod profile;
mod serviceload;
mod serving;
mod threads;
mod tradeoff;
mod txsweep;

/// How big a sweep the sections run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReportConfig {
    /// CI-sized sweeps: fewer workloads, Small inputs, fewer injections.
    /// Fast and full numbers are *not* comparable — snapshots record the
    /// mode and `--check` refuses to compare across it.
    pub fast: bool,
}

/// What one section measured.
#[derive(Clone, Debug, Default)]
pub struct SectionResult {
    /// Prose lines rendered between the heading and the tables —
    /// methodology (sweep sizes, seeds, scales) and interpretation.
    pub notes: Vec<String>,
    pub tables: Vec<Table>,
    pub series: Vec<Series>,
}

/// One regenerable unit of the report.
pub trait Section {
    /// Stable slug: the snapshot filename (`report/<name>.json`) and the
    /// `--section` argument.
    fn name(&self) -> &'static str;
    /// Human heading in `REPRODUCTION.md`.
    fn title(&self) -> &'static str;
    /// The paper artifact this section reproduces.
    fn paper_ref(&self) -> &'static str;
    /// Runs the experiments and returns the measured result.
    fn run(&self, cfg: &ReportConfig) -> SectionResult;
}

/// A built-in section: its identity is data, its measurement a function.
struct Builtin {
    name: &'static str,
    title: &'static str,
    paper_ref: &'static str,
    run: fn(&ReportConfig) -> SectionResult,
}

impl Section for Builtin {
    fn name(&self) -> &'static str {
        self.name
    }

    fn title(&self) -> &'static str {
        self.title
    }

    fn paper_ref(&self) -> &'static str {
        self.paper_ref
    }

    fn run(&self, cfg: &ReportConfig) -> SectionResult {
        (self.run)(cfg)
    }
}

/// Every registered section, in `REPRODUCTION.md` order: slug, heading,
/// the paper artifact it reproduces, and the function that measures it.
pub fn all_sections() -> Vec<Box<dyn Section>> {
    vec![
        Box::new(Builtin {
            name: "overheads",
            title: "Performance overheads: native / ILR / TX / HAFT / TMR",
            paper_ref: "HAFT Fig. 6 and Table 2 (normalized runtime, Phoenix + PARSEC); \
                        TMR column from the Elzar comparison (DSN'16, arXiv:1604.00500)",
            run: overheads::run,
        }),
        Box::new(Builtin {
            name: "fault-histograms",
            title: "Fault-injection outcome histograms (Table 1 classes)",
            paper_ref: "HAFT Table 1 / Fig. 9 (outcome distribution per hardening variant); \
                        the vote-corrected class extends it to the TMR backend",
            run: faults::run,
        }),
        Box::new(Builtin {
            name: "forensics",
            title: "Fault forensics: detection latency and the vulnerability map",
            paper_ref: "HAFT §4.2 windows of vulnerability, instrumented: how many dynamic \
                        instructions a flip survives before each detector fires, and which \
                        (function × op-class) sites convert flips into user-visible damage",
            run: forensics::run,
        }),
        Box::new(Builtin {
            name: "tx-sweep",
            title: "Transactification sweep: overhead and HTM aborts vs tx_threshold",
            paper_ref: "HAFT Fig. 8 (normalized runtime and abort rate vs transaction size) \
                        and Table 3 (abort causes)",
            run: txsweep::run,
        }),
        Box::new(Builtin {
            name: "serving",
            title: "Serving under live traffic: shard scaling, tail latency, availability",
            paper_ref: "the service-level view behind HAFT §6.1 / Fig. 11-12 (memcached + YCSB): \
                        throughput, p50/p99/p999, and availability under a 1% per-request SEU load",
            run: serving::run,
        }),
        Box::new(Builtin {
            name: "haft-vs-elzar",
            title: "The trade-off: HAFT (rollback) vs Elzar-style TMR (masking)",
            paper_ref: "Elzar (Kuvaiskii et al., DSN'16, arXiv:1604.00500) against HAFT: \
                        mean overhead, recovery mechanism split, and the recovery-latency spike",
            run: tradeoff::run,
        }),
        Box::new(Builtin {
            name: "abft-frontier",
            title: "The ABFT frontier: checksum lanes vs duplication vs triplication",
            paper_ref: "Algorithm-based fault tolerance (Huang & Abraham '84) as a third point \
                        against HAFT §6 overheads and Table 1: checksum-maintainable matrix \
                        kernels correct single upsets in place at a fraction of the replication \
                        cost, trading blanket coverage for it",
            run: abft::run,
        }),
        Box::new(Builtin {
            name: "profile",
            title: "Cycle-attribution profile: where hardening cycles go",
            paper_ref: "HAFT §6.2 (sources of overhead: ILR shadow data flow vs TX \
                        begin/commit bookkeeping) and the Elzar voting-cost discussion",
            run: profile::run,
        }),
        Box::new(Builtin {
            name: "thread-scaling",
            title: "Thread scaling: HAFT normalized runtime vs thread count",
            paper_ref:
                "HAFT Fig. 6 (normalized runtime at 1-14 threads, incl. `vips-nc` and the mean)",
            run: threads::run,
        }),
        Box::new(Builtin {
            name: "opt-levels",
            title: "Optimization levels: overhead and fault outcomes from N to F",
            paper_ref: "HAFT Fig. 7 (overhead by cumulative optimization level) and Fig. 9 right \
                        (their impact on reliability, linearreg and canneal)",
            run: optlevels::run,
        }),
        Box::new(Builtin {
            name: "htm-aborts",
            title: "HTM aborts: causes, the hyper-threading factor, coverage",
            paper_ref: "HAFT Table 3 (abort rate and cause split at transaction size 5000) and \
                        Table 2's hyper-threading abort factor and transactional coverage columns",
            run: htm::run,
        }),
        Box::new(Builtin {
            name: "availability-model",
            title: "Availability model: measured fault probabilities and the curves they draw",
            paper_ref:
                "HAFT Table 4 (fault probabilities per variant) and Fig. 10 (availability and \
                 corruption over one hour vs fault rate, from the Fig. 5 Markov chain)",
            run: model::run,
        }),
        Box::new(Builtin {
            name: "case-studies",
            title: "Case studies: memcached, LogCabin, Apache, LevelDB, SQLite throughput",
            paper_ref:
                "HAFT Fig. 11 (memcached under YCSB A and D, lock elision on/off, and the SEI \
                 comparison), Fig. 12 (LogCabin, Apache, LevelDB, SQLite) and the §6.1 memcached \
                 fault-injection campaign",
            run: casestudies::run,
        }),
        Box::new(Builtin {
            name: "ablations",
            title: "Ablations: the two peepholes and adaptive transaction sizing",
            paper_ref:
                "beyond the paper: the ILR check-elision and TX begin/end peepholes switched off, \
                 and the adaptive transaction sizing HAFT §7 leaves as future work",
            run: ablations::run,
        }),
        Box::new(Builtin {
            name: "service-load",
            title: "Service under load: YCSB A capacity and the open-loop latency sweep",
            paper_ref:
                "beyond the paper: HAFT §6.1's memcached + YCSB A as a sharded service, the p99 \
                 of every closed-loop cell, and latency vs offered load past saturation",
            run: serviceload::run,
        }),
    ]
}

/// Workloads that keep the fast sweeps representative: two Phoenix (low-
/// and mid-IPC) and two PARSEC (wide-pipeline and capacity-bound).
const FAST_WORKLOADS: [&str; 4] = ["histogram", "linearreg", "blackscholes", "swaptions"];

/// The performance grid of the per-workload tables: names, input scale
/// and the default simulated thread count.
fn perf_grid(cfg: &ReportConfig) -> (&'static [&'static str], Scale, usize) {
    if cfg.fast {
        (&FAST_WORKLOADS, Scale::Small, 2)
    } else {
        (&WORKLOAD_NAMES, Scale::Large, 8)
    }
}

/// Runs `f` over `items` on the calling thread and up to `items − 1`
/// helper threads leased from [`haft_vm::cores`], and returns the results
/// in item order. Each worker claims the next item off a shared atomic
/// index, so a slow item never holds up the rest, and drops it once `f`
/// is done with it. A panic in `f` is re-raised here with its own payload.
///
/// This is the report's one fan-out point: sections flatten their grid
/// into single runs, map them here, and assemble their rows from the
/// results in the serial order. The lease keeps it from nesting: while
/// it holds the host's spare cores, a serving simulation inside `f` gets
/// no lookahead helper. Campaigns keep their own
/// `CampaignConfig::parallelism`.
fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    par_map_in(haft_vm::cores::lease(items.len().saturating_sub(1)), items, f)
}

/// [`par_map`] with its helpers already leased.
fn par_map_in<T: Send, R: Send>(
    lease: haft_vm::cores::Lease,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            // `Relaxed`: the index only claims a slot; the slot's mutex
            // hands its item over.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { return done };
            let item = slot.lock().expect("no cell runs under a slot lock").take();
            let item = item.expect("each index is claimed once");
            done.push((i, f(item)));
        }
    };
    let mut results = std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..lease.granted()).map(|_| scope.spawn(work)).collect();
        let mut results = work();
        for helper in helpers {
            results.extend(helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        results
    });
    results.sort_unstable_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// A table with one row per workload, closed by their `mean` row.
/// `runs` lists the experiments behind one workload's row; every run of
/// every workload goes out at once on [`par_map`], and `row` turns one
/// workload's reports, in `runs` order, into the value columns named by
/// `columns`.
fn workload_table(
    id: &str,
    title: &str,
    columns: &[impl AsRef<str>],
    names: &[&str],
    scale: Scale,
    runs: impl for<'w> Fn(&'w Workload) -> Vec<Experiment<'w>>,
    row: impl Fn(&str, &[VariantReport]) -> Vec<f64>,
) -> Table {
    let mut headers = vec!["workload"];
    headers.extend(columns.iter().map(AsRef::as_ref));
    let mut table = Table::new(id, title, &headers);
    let workloads: Vec<Workload> =
        names.iter().map(|n| workload_by_name(n, scale).expect("registered workload")).collect();
    let per_workload: Vec<Vec<Experiment>> = workloads.iter().map(runs).collect();
    let counts: Vec<usize> = per_workload.iter().map(Vec::len).collect();
    let all = per_workload.into_iter().flatten().collect();
    let mut reports = par_map(all, |exp| exp.run()).into_iter();
    let mut sums = vec![0.0; columns.len()];
    for (name, n) in names.iter().zip(counts) {
        let values = row(name, &reports.by_ref().take(n).collect::<Vec<_>>());
        for (sum, v) in sums.iter_mut().zip(&values) {
            *sum += v;
        }
        table.push_row(name, values);
    }
    let n = names.len() as f64;
    table.push_row("mean", sums.iter().map(|s| s / n).collect());
    table
}

/// The runs behind one [`overheads_vs_native`] row: the native run, then
/// each config, at the workload's recommended transaction threshold
/// (paper §5.3).
fn overhead_runs<'w>(
    w: &'w Workload,
    threads: usize,
    configs: &[HardenConfig],
) -> Vec<Experiment<'w>> {
    let native = Experiment::workload(w).vm(perf_vm(threads, recommended_threshold(w.name)));
    let variants = configs.iter().map(|hc| native.clone().harden(hc.clone()));
    std::iter::once(native.clone()).chain(variants).collect()
}

/// Normalized runtime of each variant over the native run `reports[0]`,
/// every variant's output verified against native.
fn overheads_vs_native(name: &str, reports: &[VariantReport]) -> Vec<f64> {
    let (native, variants) = reports.split_first().expect("a native run");
    let agree = |v: &VariantReport| v.completed() && v.run.output == native.run.output;
    assert!(agree(native) && variants.iter().all(agree), "{name}: output diverged or run failed");
    let base = native.run.wall_cycles.max(1) as f64;
    variants.iter().map(|v| v.run.wall_cycles as f64 / base).collect()
}

/// One fault-injection campaign in the paper's §4.2 shape: 2 threads,
/// uniform draw over the reference run's register-writing instructions.
fn campaign(w: &Workload, hc: HardenConfig, injections: u64, seed: u64) -> CampaignReport {
    Experiment::workload(w)
        .harden(hc)
        .vm(VmConfig { n_threads: 2, ..VmConfig::default() })
        .campaign(CampaignConfig { injections, seed, ..Default::default() })
        .campaign
        .expect("campaign terminal op attaches a report")
}

/// An empty Table 1 histogram: one column per outcome class plus the
/// correct-group sum; [`outcome_row`] fills its rows.
fn outcome_table(id: &str, title: &str) -> Table {
    let mut columns = vec!["workload · variant"];
    columns.extend(Outcome::ALL.iter().map(|o| o.label()));
    columns.push("correct Σ");
    Table::new(id, title, &columns).precision(1).tolerance(Tolerance::Abs(10.0))
}

fn outcome_row(report: &CampaignReport) -> Vec<f64> {
    let mut row: Vec<f64> = Outcome::ALL.iter().map(|o| report.pct(*o)).collect();
    row.push(report.group_pct(Group::Correct));
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_returns_results_in_item_order() {
        // With a helper granted, the first item waits for the last one to
        // finish, so the results arrive out of order. Without one (a
        // one-core host, or another test holding the spare cores) nothing
        // waits: there would be no one to run the last item.
        let lease = haft_vm::cores::lease(7);
        let second_worker = lease.granted() > 0;
        let (last_done, wait) = std::sync::mpsc::channel();
        let wait = Mutex::new(wait);
        let finished = Mutex::new(Vec::new());
        let out = par_map_in(lease, (0..8).collect(), |i: u64| {
            if i == 0 && second_worker {
                wait.lock().unwrap().recv().expect("the last item signals");
            }
            finished.lock().unwrap().push(i);
            if i == 7 {
                last_done.send(()).expect("the receiver outlives the map");
            }
            i * 10
        });
        assert_eq!(out, [0, 10, 20, 30, 40, 50, 60, 70]);
        if second_worker {
            assert_eq!(finished.into_inner().unwrap().last(), Some(&0), "item 0 finished last");
        }
    }

    #[test]
    fn par_map_takes_empty_single_and_short_inputs() {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let items: Vec<usize> = (0..2 * workers + 1).collect();
        // Empty, one item, fewer items than threads, and more.
        for n in 0..=items.len() {
            let want: Vec<usize> = items[..n].iter().map(|i| i * i).collect();
            assert_eq!(par_map(items[..n].to_vec(), |i| i * i), want, "{n} items");
        }
    }

    #[test]
    fn a_panicking_cell_surfaces_its_own_message() {
        let items: Vec<u32> = (0..6).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(items, |i| {
                if i == 4 {
                    panic!("cell {i} failed");
                }
                i
            })
        });
        let payload = caught.expect_err("the cell's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("cell 4 failed"));
    }

    #[test]
    fn registry_names_are_stable_and_unique() {
        let sections = all_sections();
        let names: Vec<&str> = sections.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "overheads",
                "fault-histograms",
                "forensics",
                "tx-sweep",
                "serving",
                "haft-vs-elzar",
                "abft-frontier",
                "profile",
                "thread-scaling",
                "opt-levels",
                "htm-aborts",
                "availability-model",
                "case-studies",
                "ablations",
                "service-load"
            ]
        );
        for s in &sections {
            assert!(!s.title().is_empty() && !s.paper_ref().is_empty(), "{}", s.name());
            assert!(
                s.name().chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{}: slug is a filename",
                s.name()
            );
        }
    }
}
