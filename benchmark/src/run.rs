//! Running a workload: rounds, set-up, the traced pass, and printing.

use std::path::{Path, PathBuf};
use std::time::Instant;

use haft_trace::json::Json;

use crate::estimator::{self, Tally};
use crate::spans::{self, Spans};
use crate::spec::{self, Contract};
use crate::workloads::{self, Inputs, Outcome, WorkloadDef};
use crate::{host, ledger, probes, Metric};

/// Arguments of one run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// `None`: `run_seconds` of `BENCHMARK.json`.
    pub seconds: Option<f64>,
    pub trace: bool,
    pub out: Option<PathBuf>,
}

/// The repository root: the working directory when it holds
/// `BENCHMARK.json` (how the driver runs the benchmark), else the parent
/// of this package.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("BENCHMARK.json").is_file() {
        cwd
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }
}

/// Where the run writes its trace files: inside the build directory,
/// which `.gitignore` names.
pub fn out_dir(root: &Path) -> Result<PathBuf, String> {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
    };
    let dir = target.join("haft-benchmark-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Host-side measurements of one round.
pub struct Round {
    pub calib_mops: f64,
    pub prepare_s: f64,
    pub cell_s: Vec<f64>,
}

/// One round: calibrate, set up every cell from scratch, run every cell
/// once in list order, check the outcomes. Returns the outcomes so the
/// first round can serve as the reference of the later ones.
fn run_round(
    def: &WorkloadDef,
    root: &Path,
    seed: u64,
    first: Option<&[Outcome]>,
    tally: &mut Tally,
    spans: &mut Spans,
) -> Result<(Round, Vec<Outcome>), String> {
    spans.scope("bench", "round", None, |spans| -> Result<_, String> {
        let calib_mops = spans.scope("bench", "calibrate", None, |_| estimator::calibrate());
        let start = Instant::now();
        let inputs = spans.scope("bench", "inputs", None, |_| Inputs::build(def, root))?;
        let prepared: Vec<_> = def
            .cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                spans.scope("haft-passes", "prepare", Some(i), |_| {
                    workloads::prepare(cell, &inputs, seed)
                })
            })
            .collect();
        let prepare_s = start.elapsed().as_secs_f64();
        let mut cell_s = Vec::with_capacity(prepared.len());
        let mut outcomes = Vec::with_capacity(prepared.len());
        for (i, (cell, p)) in def.cells.iter().zip(&prepared).enumerate() {
            let start = Instant::now();
            let outcome = spans.scope(cell.layer(), "cell", Some(i), |_| p.run());
            cell_s.push(start.elapsed().as_secs_f64());
            outcomes.push(outcome);
        }
        let failures = spans.scope("bench", "check", None, |_| {
            workloads::check_round(def, &inputs, &outcomes, first.unwrap_or(&outcomes), tally)
        });
        for f in failures {
            eprintln!("FAILED {f}");
        }
        Ok((Round { calib_mops, prepare_s, cell_s }, outcomes))
    })
}

/// Rounds of one workload with their reference outcomes and checks.
pub struct Measured {
    pub rounds: Vec<Round>,
    pub first: Vec<Outcome>,
    pub tally: Tally,
}

impl Measured {
    fn new() -> Self {
        Measured { rounds: Vec::new(), first: Vec::new(), tally: Tally::default() }
    }

    fn round(
        &mut self,
        def: &WorkloadDef,
        root: &Path,
        seed: u64,
        spans: &mut Spans,
    ) -> Result<(), String> {
        let first = (!self.first.is_empty()).then_some(self.first.as_slice());
        let (round, outcomes) = run_round(def, root, seed, first, &mut self.tally, spans)?;
        if self.first.is_empty() {
            self.first = outcomes;
        }
        self.rounds.push(round);
        Ok(())
    }

    fn calib(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.calib_mops).collect()
    }

    /// `[cell][round]` host seconds.
    fn samples(&self, rounds: impl Fn(usize) -> bool) -> Vec<Vec<f64>> {
        let cells = self.rounds.first().map_or(0, |r| r.cell_s.len());
        (0..cells)
            .map(|c| {
                let picked = self.rounds.iter().enumerate().filter(|(i, _)| rounds(*i));
                picked.map(|(_, r)| r.cell_s[c]).collect()
            })
            .collect()
    }

    /// Per-cell minimum over all rounds.
    pub fn min_s(&self) -> Vec<f64> {
        self.samples(|_| true).iter().map(|cell| estimator::min_of(cell)).collect()
    }

    fn into_report(
        self,
        def: &WorkloadDef,
        seed: u64,
        seconds: f64,
        traced: bool,
        metrics: Vec<Metric>,
        derived: Vec<Metric>,
    ) -> Report {
        Report {
            workload: def.name,
            seed,
            seconds,
            traced,
            rounds: self.rounds.len(),
            quiet_rounds: estimator::quiet_count(&self.calib()),
            cells: def.cells.iter().map(|c| c.id()).zip(self.min_s()).collect(),
            tally: self.tally,
            metrics,
            derived,
        }
    }
}

/// Everything one run reports.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub rounds: usize,
    pub quiet_rounds: usize,
    pub tally: Tally,
    /// The metrics of the contract for this mode (`end_to_end` untraced,
    /// `per_layer` traced).
    pub metrics: Vec<Metric>,
    /// The workload's own metrics (README.md, "Workload metrics").
    pub derived: Vec<Metric>,
    /// `(cell id, minimum host seconds)`.
    pub cells: Vec<(String, f64)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The contract's result object, on one line.
    pub fn result_line(&self) -> String {
        let metrics =
            self.metrics.iter().map(|m| (m.name.clone(), ledger::metric_json(m))).collect();
        let doc = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.tally.attempted as f64)),
            ("failed".into(), Json::Num(self.tally.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        ledger::one_line(&doc)
    }
}

/// The untraced run: rounds until the time budget is spent, then the
/// end-to-end metrics from the per-cell minima.
fn measure(def: &WorkloadDef, root: &Path, seed: u64, seconds: f64) -> Result<Report, String> {
    let start = Instant::now();
    let mut m = Measured::new();
    let mut spans = Spans::off();
    loop {
        let quiet = estimator::quiet_count(&m.calib());
        if !estimator::keep_going(m.rounds.len(), quiet, start.elapsed().as_secs_f64(), seconds) {
            break;
        }
        m.round(def, root, seed, &mut spans)?;
    }
    let quiet = estimator::quiet_flags(&m.calib());
    let min_s = m.min_s();
    let pass_s: f64 = min_s.iter().sum();
    let prepare: Vec<f64> = m.rounds.iter().map(|r| r.prepare_s).collect();
    let setup_s = estimator::quiet_median(&prepare, &quiet);
    let mut derived = workloads::derived(def, &m.first, &min_s);
    let overhead = derived.iter().find(|d| d.name == "sim_overhead_x").expect("always derived");
    let metrics = vec![
        Metric::new("pass_s", pass_s, "s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", host::peak_rss_mb()?, "MiB"),
        overhead.clone(),
    ];
    // What the workload looks like to someone not taking minima.
    let medians: f64 = m.samples(|_| true).iter().map(|cell| estimator::median(cell)).sum();
    derived.push(Metric::new("pass_median_s", medians, "s"));
    derived.push(Metric::new("cold_pass_s", m.rounds[0].cell_s.iter().sum(), "s"));
    derived.push(Metric::new("failed_share", m.tally.share(), "1"));
    Ok(m.into_report(def, seed, seconds, false, metrics, derived))
}

/// The per-layer run: untraced and traced passes over the workload's
/// cells in turn (their ratio is the tracing overhead), the Chrome trace
/// of the traced passes written and re-validated, then the layer probes.
fn measure_traced(
    def: &WorkloadDef,
    root: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let start = Instant::now();
    let mut m = Measured::new();
    let mut spans = Spans::on();
    let mut off = Spans::off();
    // Even rounds untraced, odd rounds traced; at least one pair, more
    // while a fifth of the budget lasts (the probes need the rest).
    loop {
        m.round(def, root, seed, &mut off)?;
        m.round(def, root, seed, &mut spans)?;
        if start.elapsed().as_secs_f64() >= seconds * 0.2 {
            break;
        }
    }
    let untraced: f64 = estimator::sum_of_min(&m.samples(|i| i % 2 == 0));
    let traced: f64 = estimator::sum_of_min(&m.samples(|i| i % 2 == 1));

    let trace_path = out_dir(root)?.join(format!("trace-{}.json", def.name));
    let buf = spans.to_trace();
    let export_start = Instant::now();
    haft_trace::write_chrome(&trace_path, &buf.events)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    let export_s = export_start.elapsed().as_secs_f64();
    let text = std::fs::read_to_string(&trace_path)
        .map_err(|e| format!("reading back {}: {e}", trace_path.display()))?;
    let events: usize = haft_trace::validate_chrome_trace(&text)
        .map_err(|e| format!("{}: not a valid Chrome trace: {e}", trace_path.display()))?
        .iter()
        .map(|(_, n)| n)
        .sum();
    m.tally.check(events == buf.len());
    eprintln!("wrote {} ({events} events)", trace_path.display());

    let layers = spans::by_layer(spans.records());
    let total_ns: u64 = layers.iter().map(|l| l.1).sum();
    let bench_ns: u64 = layers.iter().filter(|l| l.0 == "bench").map(|l| l.1).sum();
    let calib = m.calib();
    let mut metrics = vec![
        Metric::new("host.nproc", host::nproc() as f64, "count"),
        Metric::new("host.calib.best_mops", calib.iter().copied().fold(0.0, f64::max), "Mops/s"),
        Metric::new("host.calib.median_mops", estimator::median(&calib), "Mops/s"),
        Metric::new("host.rounds", m.rounds.len() as f64, "count"),
        Metric::new("host.quiet_rounds", estimator::quiet_count(&calib) as f64, "count"),
        Metric::new("bench.pass_s", untraced, "s"),
        Metric::new("bench.harness_share", 100.0 * bench_ns as f64 / total_ns as f64, "%"),
        Metric::new("bench.trace.overhead_x", traced / untraced, "x"),
        Metric::new("trace.events", events as f64, "count"),
        Metric::new("trace.export.mb_per_s", text.len() as f64 / 1e6 / export_s, "MB/s"),
    ];
    let min_s = m.min_s();
    let report_pass = (def.name == "report-fast").then_some((min_s.as_slice(), m.first.as_slice()));
    metrics.extend(probes::run(root, seed, report_pass, &mut m.tally)?);

    let mut derived = workloads::derived(def, &m.first, &min_s);
    for (layer, self_ns, calls) in &layers {
        derived.push(Metric::new(&format!("span.{layer}.self_ms"), *self_ns as f64 / 1e6, "ms"));
        derived.push(Metric::new(&format!("span.{layer}.calls"), *calls as f64, "count"));
    }
    Ok(m.into_report(def, seed, seconds, true, metrics, derived))
}

/// Runs one workload in one mode.
pub fn run_workload(
    name: &str,
    root: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let def = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    if trace {
        measure_traced(&def, root, seed, seconds)
    } else {
        measure(&def, root, seed, seconds)
    }
}

fn print_report(report: &Report, header: &ledger::Header) {
    println!(
        "# haft-benchmark {} seed {} seconds {} trace {}",
        report.workload,
        report.seed,
        report.seconds,
        u8::from(report.traced)
    );
    println!(
        "# host: {} | nproc {} | {} | commit {}",
        header.cpu, header.nproc, header.rustc, header.commit
    );
    println!(
        "# rounds {} (quiet {}) | attempted {} failed {}",
        report.rounds, report.quiet_rounds, report.tally.attempted, report.tally.failed
    );
    for (title, list) in [("metrics", &report.metrics), ("workload metrics", &report.derived)] {
        println!("# {title}");
        for m in list {
            println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    println!("# cells (minimum host seconds over rounds)");
    for (id, s) in &report.cells {
        println!("{id:<44} {s:>16.6} s");
    }
    println!("{}", report.result_line());
}

/// `--workload …`: run, print, optionally merge into a ledger.
pub fn run_command(args: &RunArgs) -> Result<bool, String> {
    let root = repo_root();
    let seconds = match args.seconds {
        Some(s) => s,
        None => Contract::read(&root)?.run_seconds,
    };
    let report = run_workload(&args.workload, &root, args.seed, seconds, args.trace)?;
    let header = ledger::Header::probe();
    if let Some(path) = &args.out {
        ledger::merge_into(path, &header, &report)?;
    }
    print_report(&report, &header);
    Ok(report.correct())
}

/// What one result line must contain, checked against the contract.
fn check_line(line: &str, expected: &[(String, String)], problems: &mut Vec<String>, at: &str) {
    let doc = match Json::parse(line) {
        Ok(doc) => doc,
        Err(e) => return problems.push(format!("{at}: result line is not JSON: {e}")),
    };
    let Json::Obj(members) = &doc else {
        return problems.push(format!("{at}: result is not an object"));
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        problems.push(format!("{at}: result keys are {keys:?}"));
    }
    if doc.get("correct") != Some(&Json::Bool(true)) {
        problems.push(format!("{at}: run is not correct"));
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return problems.push(format!("{at}: no metrics object"));
    };
    for (name, unit) in expected {
        let hits: Vec<_> = metrics.iter().filter(|(k, _)| k == name).collect();
        match hits.as_slice() {
            [(_, m)] => {
                if m.get("unit").and_then(Json::as_str) != Some(unit.as_str()) {
                    problems.push(format!("{at}: `{name}` is not printed in `{unit}`"));
                }
                if !m.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite) {
                    problems.push(format!("{at}: `{name}` has no finite value"));
                }
            }
            [] => problems.push(format!("{at}: `{name}` is not printed")),
            _ => problems.push(format!("{at}: `{name}` is printed {} times", hits.len())),
        }
    }
    for (name, _) in metrics {
        if !spec::valid_name(name) {
            problems.push(format!("{at}: `{name}` is not a valid metric name"));
        }
        if !expected.iter().any(|(n, _)| n == name) {
            problems.push(format!("{at}: `{name}` is printed but BENCHMARK.json does not name it"));
        }
    }
}

/// `--self-check`: the contract file against the program's tables, then
/// every workload run briefly in both modes and its result line checked
/// metric by metric. The traced run validates its own Chrome trace.
pub fn self_check() -> Result<bool, String> {
    let root = repo_root();
    let contract = Contract::read(&root)?;
    let mut problems = contract.drift();
    let e2e: Vec<_> = contract.end_to_end.iter().map(|m| (m.0.clone(), m.1.clone())).collect();
    let layers: Vec<_> = contract.per_layer.iter().map(|m| (m.0.clone(), m.1.clone())).collect();
    for (name, _) in &contract.workloads {
        if !spec::valid_name(name) {
            problems.push(format!("workload `{name}` is not a valid name"));
        }
        for (trace, expected) in [(false, &e2e), (true, &layers)] {
            let at = format!("{name} --trace {}", u8::from(trace));
            eprintln!("self-check: {at}");
            match run_workload(name, &root, 1, 2.0, trace) {
                Ok(report) => check_line(&report.result_line(), expected, &mut problems, &at),
                Err(e) => problems.push(format!("{at}: {e}")),
            }
        }
    }
    for p in &problems {
        println!("FAIL {p}");
    }
    if problems.is_empty() {
        println!(
            "self-check passed: {} workloads x ({} end-to-end + {} per-layer) metrics",
            contract.workloads.len(),
            e2e.len(),
            layers.len()
        );
    }
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected() -> Vec<(String, String)> {
        vec![("pass_s".into(), "s".into()), ("setup_s".into(), "s".into())]
    }

    fn line(metrics: &str) -> String {
        format!(r#"{{"correct": true, "attempted": 3, "failed": 0, "metrics": {{{metrics}}}}}"#)
    }

    #[test]
    fn a_complete_result_line_passes() {
        let mut problems = Vec::new();
        let l = line(
            r#""pass_s": {"value": 1.5, "unit": "s"}, "setup_s": {"value": 0.1, "unit": "s"}"#,
        );
        check_line(&l, &expected(), &mut problems, "t");
        assert_eq!(problems, Vec::<String>::new());
    }

    #[test]
    fn missing_doubled_unnamed_and_misunited_metrics_are_flagged() {
        let mut problems = Vec::new();
        let l = line(
            r#""pass_s": {"value": 1.5, "unit": "ms"}, "pass_s": {"value": 1.5, "unit": "s"},
               "extra": {"value": 1, "unit": "s"}"#,
        );
        check_line(&l, &expected(), &mut problems, "t");
        let text = problems.join("\n");
        assert!(text.contains("`pass_s` is printed 2 times"), "{text}");
        assert!(text.contains("`setup_s` is not printed"), "{text}");
        assert!(text.contains("`extra` is printed but"), "{text}");
        let mut problems = Vec::new();
        let l = line(
            r#""pass_s": {"value": 1.5, "unit": "ms"}, "setup_s": {"value": 0.1, "unit": "s"}"#,
        );
        check_line(&l, &expected(), &mut problems, "t");
        assert_eq!(problems, ["t: `pass_s` is not printed in `s`"]);
    }

    #[test]
    fn result_line_is_one_line_with_the_contracts_keys() {
        let report = Report {
            workload: "batch-exec",
            seed: 1,
            seconds: 1.0,
            traced: false,
            rounds: 5,
            quiet_rounds: 3,
            tally: Tally { attempted: 120, failed: 0 },
            metrics: vec![Metric::new("pass_s", 1.234_567_891_2, "s")],
            derived: Vec::new(),
            cells: Vec::new(),
        };
        let l = report.result_line();
        assert!(!l.contains('\n'));
        let doc = Json::parse(&l).unwrap();
        assert_eq!(doc.get("attempted"), Some(&Json::Num(120.0)));
        let v = doc.get("metrics").and_then(|m| m.get("pass_s")).and_then(|m| m.get("value"));
        assert_eq!(v, Some(&Json::Num(1.234_567_891_2)), "all digits survive");
    }
}
