//! The four workloads: fixed lists of fixed-work cells, how a cell is
//! prepared and run through the public `Experiment` / `haft_report`
//! entry points, the correctness checks, and the metrics each workload
//! derives from its per-cell minima.

use std::path::Path;

use haft::eval::{perf_vm, recommended_threshold};
use haft::Experiment;
use haft_apps::kvstore::{kv_shard, KvSync};
use haft_faults::{CampaignConfig, CampaignReport};
use haft_ir::verify::verify_module;
use haft_passes::HardenConfig;
use haft_report::snapshot::{diff, Mode, Snapshot};
use haft_report::{all_sections, ReportConfig, Section};
use haft_serve::{ArrivalMode, FaultLoad, ServeConfig, ServeMode, ServiceReport};
use haft_vm::{RunOutcome, RunResult};
use haft_workloads::{workload_by_name, Scale, Workload};

use crate::estimator::{geomean, Tally};
use crate::Metric;

/// Simulated threads of every batch and campaign cell.
pub const SIM_THREADS: usize = 2;
/// Injections per campaign cell (plus one reference run).
pub const CAMPAIGN_INJECTIONS: u64 = 6;
/// Requests offered per serving cell.
pub const SERVE_REQUESTS: usize = 1_500;
pub const SERVE_SHARDS: usize = 4;
pub const SERVE_CLIENTS: usize = 32;
pub const SERVE_BATCH: usize = 8;

/// Worker threads of the native serving cells: `min(2, nproc)`, so the
/// process never keeps more threads busy than the host has processors.
pub fn native_workers() -> usize {
    crate::host::nproc().min(2)
}

/// A hardening backend, or none.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    Native,
    Haft,
    Tmr,
    Abft,
}

impl Variant {
    pub const ALL: [Variant; 4] = [Variant::Native, Variant::Haft, Variant::Tmr, Variant::Abft];
    pub const HARDENED: [Variant; 3] = [Variant::Haft, Variant::Tmr, Variant::Abft];

    pub fn label(self) -> &'static str {
        match self {
            Variant::Native => "native",
            Variant::Haft => "haft",
            Variant::Tmr => "tmr",
            Variant::Abft => "abft",
        }
    }

    pub fn config(self) -> HardenConfig {
        match self {
            Variant::Native => HardenConfig::native(),
            Variant::Haft => HardenConfig::haft(),
            Variant::Tmr => HardenConfig::tmr(),
            Variant::Abft => HardenConfig::abft(),
        }
    }
}

/// One cell: a fixed amount of work behind one public entry point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellSpec {
    /// `Experiment::run` of one program.
    Batch { program: &'static str, scale: Scale, variant: Variant },
    /// `Experiment::campaign` at `Scale::Small`, `parallelism: 1`.
    Campaign { program: &'static str, variant: Variant, forensics: bool },
    /// `Experiment::serve_in` over `kv_shard(Atomics)`, YCSB B.
    Serve { variant: Variant, faults: bool, native: bool },
    /// One `haft_report` section in fast mode, pinned by name.
    Section { name: &'static str },
}

impl CellSpec {
    /// Stable identifier, also the key of the per-cell ledger entry.
    pub fn id(&self) -> String {
        match self {
            CellSpec::Batch { program, scale, variant } => {
                let s = if *scale == Scale::Large { "large" } else { "small" };
                format!("run.{program}.{s}.{}", variant.label())
            }
            CellSpec::Campaign { program, variant, forensics } => {
                let fx = if *forensics { ".forensics" } else { "" };
                format!("campaign.{program}.{}{fx}", variant.label())
            }
            CellSpec::Serve { variant, faults, native } => {
                let mode = if *native { "native" } else { "sim" };
                let fl = if *faults { "-faults" } else { "" };
                format!("serve.{mode}.{}{fl}", variant.label())
            }
            CellSpec::Section { name } => format!("section.{name}"),
        }
    }

    /// The native cell this cell's simulated time is compared with: the
    /// same program (or service) without hardening. Native cells, the
    /// fault-load and forensics repeats, and sections have none.
    pub fn native_twin(&self) -> Option<CellSpec> {
        let native = Variant::Native;
        match *self {
            CellSpec::Batch { program, scale, variant } if variant != native => {
                Some(CellSpec::Batch { program, scale, variant: native })
            }
            CellSpec::Campaign { program, forensics: false, .. } => {
                Some(CellSpec::Batch { program, scale: Scale::Small, variant: native })
            }
            CellSpec::Serve { variant, faults: false, native: false } if variant != native => {
                Some(CellSpec::Serve { variant: native, faults: false, native: false })
            }
            _ => None,
        }
    }

    /// The layer (crate) whose entry point the cell calls.
    pub fn layer(&self) -> &'static str {
        match self {
            CellSpec::Batch { .. } => "haft-vm",
            CellSpec::Campaign { .. } => "haft-faults",
            CellSpec::Serve { native: false, .. } => "haft-serve",
            CellSpec::Serve { native: true, .. } => "haft-runtime",
            CellSpec::Section { .. } => "haft-report",
        }
    }
}

/// A named workload: why it exists and its cells, in run order.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub cells: Vec<CellSpec>,
}

/// Report sections of `report-fast`, pinned by name so that a later
/// section does not read as a slowdown. The four campaign sections
/// (`fault-histograms`, `forensics`, `haft-vs-elzar`, `abft-frontier`,
/// 0.8–5.6 s each on two threads) are left out: a cell that long never
/// meets a quiet moment on a noisy host, and ten runs of the workload
/// spread by 15 % with `fault-histograms` in. `fault-campaign` covers
/// the campaign driver in cells a tenth that size.
pub const REPORT_SECTIONS: [&str; 4] = ["overheads", "tx-sweep", "serving", "profile"];

/// Programs of `batch-exec`: three Phoenix kernels from low to high IPC
/// (ABFT protects `linearreg`'s accumulation chains and falls back to
/// HAFT on the other two) and one PARSEC pipeline. (`vips` is not among
/// them because `Backend::Abft` changes its fault-free output, at either
/// scale and any seed; a workload may hold no operation that fails.)
pub const BATCH_PROGRAMS: [&str; 4] = ["linearreg", "histogram", "wordcount", "dedup"];

pub const CAMPAIGN_PROGRAMS: [&str; 3] = ["linearreg", "histogram", "matrixmul"];

/// The four workloads, in `BENCHMARK.json` order.
pub fn all() -> Vec<WorkloadDef> {
    let mut batch = Vec::new();
    for program in BATCH_PROGRAMS {
        for variant in Variant::ALL {
            batch.push(CellSpec::Batch { program, scale: Scale::Large, variant });
        }
    }
    let mut campaign = Vec::new();
    for program in CAMPAIGN_PROGRAMS {
        // The native run is the base of the simulated overhead and a
        // short run in its own right.
        campaign.push(CellSpec::Batch { program, scale: Scale::Small, variant: Variant::Native });
        for variant in Variant::HARDENED {
            campaign.push(CellSpec::Campaign { program, variant, forensics: false });
        }
        campaign.push(CellSpec::Campaign { program, variant: Variant::Haft, forensics: true });
    }
    let mut serve = Vec::new();
    for native in [false, true] {
        for (variant, faults) in [
            (Variant::Native, false),
            (Variant::Haft, false),
            (Variant::Tmr, false),
            (Variant::Haft, true),
        ] {
            serve.push(CellSpec::Serve { variant, faults, native });
        }
    }
    vec![
        WorkloadDef {
            name: "report-fast",
            why: "the product's own end-to-end path: haft-report fast-mode sections through the \
                  library, every value checked against the committed report/*.json",
            cells: REPORT_SECTIONS.iter().map(|&name| CellSpec::Section { name }).collect(),
        },
        WorkloadDef {
            name: "batch-exec",
            why: "long Scale::Large runs: steady-state VM dispatch, scoreboard and HTM do \
                  nearly all the work; set-up, Vm::new and decode are noise",
            cells: batch,
        },
        WorkloadDef {
            name: "fault-campaign",
            why: "many short faulty runs: per-run fixed cost (Vm::new, decode and \
                  fuse), the fault hook, rollback and classify dominate, not steady state",
            cells: campaign,
        },
        WorkloadDef {
            name: "serve-mixed",
            why: "kv_shard under YCSB B in the DES and on real threads side by side: the \
                  two drivers around ~600 tiny VM runs per cell share one shard service logic",
            cells: serve,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<WorkloadDef> {
    all().into_iter().find(|w| w.name == name)
}

/// Everything a workload's cells are built over: the native modules, the
/// shard module, and the report's sections with their pinned snapshots.
pub struct Inputs {
    programs: Vec<(&'static str, Scale, Workload)>,
    kv: Option<Workload>,
    sections: Vec<(Box<dyn Section>, Snapshot)>,
}

impl Inputs {
    /// Builds the inputs `def` needs. `root` is the repository root, where
    /// the committed `report/<section>.json` snapshots live.
    pub fn build(def: &WorkloadDef, root: &Path) -> Result<Inputs, String> {
        let mut inputs = Inputs { programs: Vec::new(), kv: None, sections: Vec::new() };
        for cell in &def.cells {
            match cell {
                CellSpec::Batch { program, scale, .. } => inputs.add_program(program, *scale)?,
                CellSpec::Campaign { program, .. } => inputs.add_program(program, Scale::Small)?,
                CellSpec::Serve { .. } => {
                    inputs.kv.get_or_insert_with(|| kv_shard(KvSync::Atomics));
                }
                CellSpec::Section { name } => {
                    let section = all_sections()
                        .into_iter()
                        .find(|s| s.name() == *name)
                        .ok_or(format!("no report section named `{name}`"))?;
                    let path = root.join("report").join(format!("{name}.json"));
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("reading {}: {e}", path.display()))?;
                    let pinned =
                        Snapshot::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
                    inputs.sections.push((section, pinned));
                }
            }
        }
        Ok(inputs)
    }

    fn add_program(&mut self, name: &'static str, scale: Scale) -> Result<(), String> {
        if !self.programs.iter().any(|(n, s, _)| *n == name && *s == scale) {
            let w = workload_by_name(name, scale).ok_or(format!("no workload named `{name}`"))?;
            self.programs.push((name, scale, w));
        }
        Ok(())
    }

    fn program(&self, name: &str, scale: Scale) -> &Workload {
        let found = self.programs.iter().find(|(n, s, _)| *n == name && *s == scale);
        &found.expect("Inputs::build added every program of the workload").2
    }

    fn section(&self, name: &str) -> &(Box<dyn Section>, Snapshot) {
        let found = self.sections.iter().find(|(s, _)| s.name() == name);
        found.expect("Inputs::build loaded every section of the workload")
    }

    /// The pinned snapshot of a section cell.
    pub fn pinned(&self, name: &str) -> &Snapshot {
        &self.section(name).1
    }
}

/// A cell with its experiment built and hardened, ready to run.
// A round holds a few dozen of these at most; boxing the experiments
// would only add an indirection to the timed call.
#[allow(clippy::large_enum_variant)]
pub enum Prepared<'a> {
    Batch(Experiment<'a>),
    Campaign(Experiment<'a>, CampaignConfig),
    Serve(Experiment<'a>, ServeMode, ServeConfig),
    Section(&'a dyn Section),
}

/// What a cell returned.
#[derive(Clone, Debug)]
pub enum Outcome {
    Run(RunResult),
    Campaign(RunResult, CampaignReport),
    Serve(ServiceReport),
    Section(Snapshot),
}

/// Builds, hardens and verifies one cell. The seed reaches the program
/// only through `Experiment::seed`, `CampaignConfig::seed` and
/// `ServeConfig::seed`; report sections carry their own pinned seeds.
pub fn prepare<'a>(cell: &CellSpec, inputs: &'a Inputs, seed: u64) -> Prepared<'a> {
    let batch_exp = |program: &str, scale: Scale, variant: Variant| {
        Experiment::workload(inputs.program(program, scale))
            .vm(perf_vm(SIM_THREADS, recommended_threshold(program)))
            .seed(seed)
            .harden(variant.config())
    };
    let hardened = |exp: Experiment<'a>| {
        let (module, _stats) = exp.build();
        if let Err(errors) = verify_module(&module) {
            panic!("{}: hardened module fails verification: {errors:?}", cell.id());
        }
        exp
    };
    match *cell {
        CellSpec::Batch { program, scale, variant } => {
            Prepared::Batch(hardened(batch_exp(program, scale, variant)))
        }
        CellSpec::Campaign { program, variant, forensics } => Prepared::Campaign(
            hardened(batch_exp(program, Scale::Small, variant)),
            CampaignConfig {
                injections: CAMPAIGN_INJECTIONS,
                seed,
                parallelism: 1,
                forensics,
                ..CampaignConfig::default()
            },
        ),
        CellSpec::Serve { variant, faults, native } => {
            let kv = inputs.kv.as_ref().expect("Inputs::build made the shard module");
            let mode = if native {
                ServeMode::Native { workers: native_workers() }
            } else {
                ServeMode::Sim
            };
            let cfg = ServeConfig {
                requests: SERVE_REQUESTS,
                arrival: ArrivalMode::ClosedLoop { clients: SERVE_CLIENTS, think_ns: 0 },
                shards: SERVE_SHARDS,
                batch: SERVE_BATCH,
                seed,
                faults: faults.then(FaultLoad::default),
                ..ServeConfig::default()
            };
            let exp = Experiment::workload(kv).seed(seed).harden(variant.config());
            Prepared::Serve(hardened(exp), mode, cfg)
        }
        CellSpec::Section { name } => Prepared::Section(inputs.section(name).0.as_ref()),
    }
}

impl Prepared<'_> {
    /// Runs the cell once.
    pub fn run(&self) -> Outcome {
        match self {
            Prepared::Batch(exp) => Outcome::Run(exp.run().run),
            Prepared::Campaign(exp, cfg) => {
                let v = exp.campaign(cfg.clone());
                let report = v.campaign.expect("Experiment::campaign fills the histogram");
                Outcome::Campaign(v.run, report)
            }
            Prepared::Serve(exp, mode, cfg) => Outcome::Serve(exp.serve_in(*mode, cfg)),
            Prepared::Section(section) => {
                let result = section.run(&ReportConfig { fast: true });
                Outcome::Section(Snapshot {
                    section: section.name().to_string(),
                    mode: Mode::Fast,
                    tables: result.tables,
                    series: result.series,
                })
            }
        }
    }
}

/// Batch cell: completed, same output as the program's native cell, and
/// the identical `RunResult` as in the first round.
pub fn batch_ok(run: &RunResult, native_output: &[u64], first: &RunResult) -> bool {
    run.outcome == RunOutcome::Completed && run.output == native_output && run == first
}

/// Campaign cell: the reference run completed, the outcome counts sum to
/// the plan, and reference and histogram repeat the first round.
pub fn campaign_ok(
    golden: &RunResult,
    report: &CampaignReport,
    first: (&RunResult, &CampaignReport),
) -> bool {
    golden.outcome == RunOutcome::Completed
        && report.runs == CAMPAIGN_INJECTIONS
        && report.counts.values().sum::<u64>() == CAMPAIGN_INJECTIONS
        && golden == first.0
        && report.counts == first.1.counts
}

/// Values a snapshot carries (table cells plus series points).
pub fn snapshot_values(s: &Snapshot) -> u64 {
    let cells: usize = s.tables.iter().map(|t| t.rows.len() * (t.columns.len() - 1)).sum();
    let points: usize = s.series.iter().map(|sr| sr.points.len()).sum();
    (cells + points) as u64
}

/// True when two snapshots agree exactly on every pinned (non-`Info`)
/// table and series; `Info` ones hold host wall-clock numbers.
pub fn same_pinned_values(a: &Snapshot, b: &Snapshot) -> bool {
    let tables =
        |s: &Snapshot| s.tables.iter().filter(|t| !t.tolerance.is_info()).cloned().collect();
    let series =
        |s: &Snapshot| s.series.iter().filter(|t| !t.tolerance.is_info()).cloned().collect();
    let strip = |s: &Snapshot| Snapshot { tables: tables(s), series: series(s), ..s.clone() };
    strip(a) == strip(b)
}

/// Checks one round's outcomes against the workload's oracles and the
/// first round, counting failures against attempts. Returns one line per
/// failed check, naming the cell.
pub fn check_round(
    def: &WorkloadDef,
    inputs: &Inputs,
    outcomes: &[Outcome],
    first: &[Outcome],
    tally: &mut Tally,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, cell) in def.cells.iter().enumerate() {
        let mut check = |tally: &mut Tally, ok: bool, what: &str| {
            tally.check(ok);
            if !ok {
                failures.push(format!("{}: {what}", cell.id()));
            }
        };
        match (cell, &outcomes[i], &first[i]) {
            (CellSpec::Batch { .. }, Outcome::Run(run), Outcome::Run(first)) => {
                // A native cell is its own reference.
                let twin = cell.native_twin().and_then(|t| def.cells.iter().position(|c| *c == t));
                let native_output = match twin.map(|n| &outcomes[n]) {
                    Some(Outcome::Run(n)) => &n.output,
                    _ => &run.output,
                };
                check(
                    tally,
                    batch_ok(run, native_output, first),
                    "run did not complete, output differs from native, or result differs from \
                     the first round",
                );
            }
            (CellSpec::Campaign { .. }, Outcome::Campaign(g, r), Outcome::Campaign(fg, fr)) => {
                check(
                    tally,
                    campaign_ok(g, r, (fg, fr)),
                    "reference run failed, counts do not sum to the plan, or histogram differs \
                     from the first round",
                );
            }
            (CellSpec::Serve { faults, native, .. }, Outcome::Serve(r), Outcome::Serve(first)) => {
                // Drops in the fault cell are modelled behaviour.
                if !faults {
                    // One attempt per request; the closure reports once.
                    let unserved = r.requests_offered - r.requests_served;
                    tally.add(r.requests_offered - 1, unserved.saturating_sub(1));
                    check(tally, unserved == 0, "requests offered but not served");
                }
                // Only the simulation is bit-reproducible.
                if !native {
                    check(tally, r == first, "report differs from the first round");
                }
            }
            (CellSpec::Section { name }, Outcome::Section(fresh), Outcome::Section(first)) => {
                let values = snapshot_values(fresh);
                let violations = diff(inputs.pinned(name), fresh);
                tally.add(values, (violations.len() as u64).min(values));
                check(
                    tally,
                    same_pinned_values(fresh, first),
                    "values differ from the first round",
                );
                failures.extend(violations);
            }
            _ => unreachable!("cell {} returned another kind's outcome", cell.id()),
        }
    }
    failures
}

fn run_of(outcome: &Outcome) -> &RunResult {
    match outcome {
        Outcome::Run(r) | Outcome::Campaign(r, _) => r,
        _ => unreachable!("not a VM-run outcome"),
    }
}

fn serve_of(outcome: &Outcome) -> &ServiceReport {
    match outcome {
        Outcome::Serve(r) => r,
        _ => unreachable!("not a serving outcome"),
    }
}

/// Simulated cost of hardening as the workload's cells show it: the
/// geometric mean, over every hardened cell that has a native twin, of
/// hardened over native simulated time. Also returns the per-backend
/// means where the workload separates backends.
fn sim_overheads(def: &WorkloadDef, outcomes: &[Outcome]) -> (f64, Vec<(Variant, f64)>) {
    let mut all = Vec::new();
    let mut per: Vec<(Variant, Vec<f64>)> = Vec::new();
    let mut push = |v: Variant, ratio: f64| {
        all.push(ratio);
        match per.iter_mut().find(|(pv, _)| *pv == v) {
            Some((_, xs)) => xs.push(ratio),
            None => per.push((v, vec![ratio])),
        }
    };
    for (cell, outcome) in def.cells.iter().zip(outcomes) {
        let twin = cell.native_twin().and_then(|t| def.cells.iter().position(|c| *c == t));
        match (cell, twin.map(|i| &outcomes[i])) {
            (
                CellSpec::Batch { variant, .. } | CellSpec::Campaign { variant, .. },
                Some(native),
            ) => {
                push(*variant, ratio(run_of(outcome).wall_cycles, run_of(native).wall_cycles));
            }
            (CellSpec::Serve { variant, .. }, Some(native)) => {
                // Virtual-time throughput: native over hardened.
                push(*variant, serve_of(native).achieved_rps / serve_of(outcome).achieved_rps);
            }
            (CellSpec::Section { name: "overheads" }, _) => {
                let Outcome::Section(snap) = outcome else { unreachable!() };
                let table = snap.tables.iter().find(|t| t.id == "normalized-runtime");
                let table = table.expect("overheads section has its normalized-runtime table");
                let mean = table.rows.iter().find(|r| r.label == "mean").expect("mean row");
                for (v, col) in [(Variant::Haft, "HAFT"), (Variant::Tmr, "TMR")] {
                    let at = table.columns.iter().position(|c| c == col).expect("backend column");
                    push(v, mean.values[at - 1]);
                }
            }
            _ => {}
        }
    }
    (geomean(&all), per.into_iter().map(|(v, xs)| (v, geomean(&xs))).collect())
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// The workload's own metrics from one round's outcomes (identical every
/// round, which `check_round` enforces) and the per-cell minimum host
/// times. Always includes `sim_overhead_x`.
pub fn derived(def: &WorkloadDef, outcomes: &[Outcome], min_s: &[f64]) -> Vec<Metric> {
    let mut out = Vec::new();
    let (overall, per_backend) = sim_overheads(def, outcomes);
    out.push(Metric::new("sim_overhead_x", overall, "x"));
    for (v, x) in per_backend {
        out.push(Metric::new(&format!("sim_overhead_{}_x", v.label()), x, "x"));
    }
    let time_where = |want: &dyn Fn(&CellSpec) -> bool| -> f64 {
        def.cells.iter().zip(min_s).filter(|(c, _)| want(c)).map(|(_, s)| s).sum()
    };
    match def.name {
        "report-fast" => {
            out.push(Metric::new("report_wall_s", min_s.iter().sum(), "s"));
        }
        "batch-exec" => {
            let insts: u64 = outcomes.iter().map(|o| run_of(o).instructions).sum();
            out.push(Metric::new("sim_minst", insts as f64 / 1e6, "Minst"));
            let per_s = insts as f64 / 1e6 / min_s.iter().sum::<f64>();
            out.push(Metric::new("sim_minst_per_s", per_s, "Minst/s"));
        }
        "fault-campaign" => {
            let is_campaign = |c: &CellSpec| matches!(c, CellSpec::Campaign { .. });
            let cells = def.cells.iter().filter(|c| is_campaign(c)).count() as f64;
            let runs = (CAMPAIGN_INJECTIONS + 1) as f64 * cells;
            out.push(Metric::new("campaign_runs_per_s", runs / time_where(&is_campaign), "1/s"));
        }
        "serve-mixed" => {
            for (native, name) in
                [(false, "serve_sim_kreq_per_s"), (true, "serve_native_kreq_per_s")]
            {
                let of_mode =
                    |c: &CellSpec| matches!(c, CellSpec::Serve { native: n, .. } if *n == native);
                let reqs = def.cells.iter().filter(|c| of_mode(c)).count() * SERVE_REQUESTS;
                out.push(Metric::new(name, reqs as f64 / 1e3 / time_where(&of_mode), "kreq/s"));
            }
            let haft_sim = CellSpec::Serve { variant: Variant::Haft, faults: false, native: false };
            let at = def.cells.iter().position(|c| *c == haft_sim).expect("clean HAFT Sim cell");
            let r = serve_of(&outcomes[at]);
            out.push(Metric::new("sim_serve_haft_krps", r.achieved_rps / 1e3, "kreq/s"));
            out.push(Metric::new("sim_serve_haft_p99_us", r.latency.p99_ns as f64 / 1e3, "us"));
        }
        other => unreachable!("no derived metrics for workload `{other}`"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft_faults::Outcome as FaultOutcome;

    fn root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    /// A miniature workload of real cells, a few milliseconds each.
    fn mini() -> WorkloadDef {
        let program = "histogram";
        WorkloadDef {
            name: "fault-campaign",
            why: "test",
            cells: vec![
                CellSpec::Batch { program, scale: Scale::Small, variant: Variant::Native },
                CellSpec::Campaign { program, variant: Variant::Haft, forensics: false },
                CellSpec::Campaign { program, variant: Variant::Tmr, forensics: false },
            ],
        }
    }

    fn run_all(def: &WorkloadDef, seed: u64) -> (Inputs, Vec<Outcome>) {
        let inputs = Inputs::build(def, &root()).unwrap();
        let outcomes = def.cells.iter().map(|c| prepare(c, &inputs, seed).run()).collect();
        (inputs, outcomes)
    }

    #[test]
    fn workloads_match_their_description() {
        let all = all();
        let names: Vec<&str> = all.iter().map(|w| w.name).collect();
        assert_eq!(names, ["report-fast", "batch-exec", "fault-campaign", "serve-mixed"]);
        assert_eq!(all[1].cells.len(), 16);
        assert_eq!(all[2].cells.len(), 15);
        assert_eq!(all[3].cells.len(), 8);
        for w in &all {
            let mut ids: Vec<String> = w.cells.iter().map(CellSpec::id).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), w.cells.len(), "{}: cell ids are unique", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn unchanged_rounds_pass_and_repeat_bit_for_bit() {
        let def = mini();
        let (inputs, first) = run_all(&def, 7);
        let (_, again) = run_all(&def, 7);
        let mut tally = Tally::default();
        check_round(&def, &inputs, &again, &first, &mut tally);
        assert_eq!(tally, Tally { attempted: 3, failed: 0 });
        let m = derived(&def, &first, &[0.001, 0.01, 0.01]);
        let oh = m.iter().find(|m| m.name == "sim_overhead_x").unwrap().value;
        assert!(oh > 1.0 && oh < 10.0, "hardening costs simulated time: {oh}");
        let runs = m.iter().find(|m| m.name == "campaign_runs_per_s").unwrap().value;
        assert!((runs - 2.0 * (CAMPAIGN_INJECTIONS + 1) as f64 / 0.02).abs() < 1e-6);
    }

    #[test]
    fn batch_check_trips_on_a_perturbed_run_result() {
        let def = mini();
        let (_, first) = run_all(&def, 7);
        let Outcome::Run(run) = &first[0] else { unreachable!() };
        assert!(batch_ok(run, &run.output, run));
        // A different output word, a different cycle count, a crash.
        let mut wrong_output = run.clone();
        wrong_output.output[0] ^= 1;
        assert!(!batch_ok(&wrong_output, &run.output, run));
        let mut drifted = run.clone();
        drifted.wall_cycles += 1;
        assert!(!batch_ok(&drifted, &run.output, run), "simulated numbers must repeat exactly");
        let mut crashed = run.clone();
        crashed.outcome = RunOutcome::Hang;
        assert!(!batch_ok(&crashed, &run.output, &crashed));
    }

    #[test]
    fn campaign_check_trips_on_perturbed_counts() {
        let def = mini();
        let (inputs, first) = run_all(&def, 7);
        let Outcome::Campaign(golden, report) = &first[1] else { unreachable!() };
        assert!(campaign_ok(golden, report, (golden, report)));
        // One run lost: the counts no longer sum to the plan.
        let mut short = report.clone();
        let (&k, _) = short.counts.iter().next().unwrap();
        *short.counts.get_mut(&k).unwrap() -= 1;
        assert!(!campaign_ok(golden, &short, (golden, report)));
        // Same total, different histogram than the first round.
        let mut moved = report.clone();
        *moved.counts.get_mut(&k).unwrap() -= 1;
        *moved.counts.entry(FaultOutcome::Sdc).or_insert(0) += 1;
        assert!(!campaign_ok(golden, &moved, (golden, report)));
        // And through the round check: exactly that cell fails.
        let mut perturbed = first.clone();
        perturbed[1] = Outcome::Campaign(golden.clone(), moved);
        let mut tally = Tally::default();
        check_round(&def, &inputs, &perturbed, &first, &mut tally);
        assert_eq!(tally, Tally { attempted: 3, failed: 1 });
    }

    #[test]
    fn another_seed_changes_the_plan_not_the_verdict() {
        let def = mini();
        let (inputs, a) = run_all(&def, 1);
        let (_, b) = run_all(&def, 2);
        let mut tally = Tally::default();
        check_round(&def, &inputs, &b, &b, &mut tally);
        assert_eq!(tally.failed, 0);
        // Against the other seed's first round the determinism check trips.
        let mut cross = Tally::default();
        check_round(&def, &inputs, &b, &a, &mut cross);
        assert!(cross.failed > 0, "seeds must reach the program");
    }

    #[test]
    fn section_check_trips_on_a_perturbed_snapshot() {
        let def = WorkloadDef {
            name: "report-fast",
            why: "test",
            cells: vec![CellSpec::Section { name: "overheads" }],
        };
        let (inputs, first) = run_all(&def, 0);
        let mut tally = Tally::default();
        check_round(&def, &inputs, &first, &first, &mut tally);
        let Outcome::Section(snap) = &first[0] else { unreachable!() };
        assert_eq!(tally, Tally { attempted: snapshot_values(snap) + 1, failed: 0 });
        // Push one pinned value far outside its band.
        let mut bad = snap.clone();
        let table = bad.tables.iter_mut().find(|t| !t.tolerance.is_info()).unwrap();
        table.rows[0].values[0] = table.rows[0].values[0] * 3.0 + 100.0;
        let mut tally = Tally::default();
        check_round(&def, &inputs, &[Outcome::Section(bad)], &first, &mut tally);
        assert_eq!(tally.failed, 2, "one value out of band, one round differing from the first");
    }

    #[test]
    fn serve_check_counts_unserved_requests() {
        let def = WorkloadDef {
            name: "serve-mixed",
            why: "test",
            cells: vec![CellSpec::Serve { variant: Variant::Native, faults: false, native: false }],
        };
        let (inputs, first) = run_all(&def, 3);
        let mut tally = Tally::default();
        check_round(&def, &inputs, &first, &first, &mut tally);
        assert_eq!(tally, Tally { attempted: SERVE_REQUESTS as u64 + 1, failed: 0 });
        let Outcome::Serve(report) = &first[0] else { unreachable!() };
        let mut lossy = report.clone();
        lossy.requests_served -= 5;
        let mut tally = Tally::default();
        check_round(&def, &inputs, &[Outcome::Serve(lossy)], &first, &mut tally);
        assert_eq!(tally.failed, 6, "five unserved requests and a report unlike round one");
    }
}
