//! Result ledgers (`results/BENCH_*.json`) and their comparison.
//!
//! A ledger holds, per workload, the latest end-to-end run and the latest
//! per-layer run, under one host descriptor, so that two files can be
//! compared at a glance and by `--compare`.

use std::path::Path;

use haft_trace::json::Json;

use crate::run::Report;
use crate::spec::{self, Contract};
use crate::{host, Metric};

const SCHEMA: &str = "haft-benchmark-ledger-1";

/// The host descriptor recorded with every result.
pub struct Header {
    pub cpu: String,
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

impl Header {
    pub fn probe() -> Self {
        Header {
            cpu: host::cpu_model(),
            nproc: host::nproc(),
            rustc: host::rustc_version(),
            commit: host::git_commit(),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cpu".into(), Json::Str(self.cpu.clone())),
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("commit".into(), Json::Str(self.commit.clone())),
        ])
    }
}

pub fn metric_json(m: &Metric) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Num(m.value)),
        ("unit".into(), Json::Str(m.unit.to_string())),
    ])
}

/// Renders a document on a single line. The writer in `haft-trace`
/// pretty-prints with one member per line and escapes newlines inside
/// strings, so joining the trimmed lines loses nothing.
pub fn one_line(doc: &Json) -> String {
    doc.render().lines().map(str::trim).collect::<Vec<_>>().join(" ")
}

fn metrics_json(list: &[Metric]) -> Json {
    Json::Obj(list.iter().map(|m| (m.name.clone(), metric_json(m))).collect())
}

fn report_json(r: &Report) -> Json {
    Json::Obj(vec![
        ("seed".into(), Json::Num(r.seed as f64)),
        ("seconds".into(), Json::Num(r.seconds)),
        ("rounds".into(), Json::Num(r.rounds as f64)),
        ("quiet_rounds".into(), Json::Num(r.quiet_rounds as f64)),
        ("attempted".into(), Json::Num(r.tally.attempted as f64)),
        ("failed".into(), Json::Num(r.tally.failed as f64)),
        ("metrics".into(), metrics_json(&r.metrics)),
        ("workload_metrics".into(), metrics_json(&r.derived)),
        (
            "cells_min_s".into(),
            Json::Obj(r.cells.iter().map(|(id, s)| (id.clone(), Json::Num(*s))).collect()),
        ),
    ])
}

/// Sets `key` in an object, replacing an existing member in place.
fn set(obj: &mut Vec<(String, Json)>, key: &str, value: Json) {
    match obj.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = value,
        None => obj.push((key.to_string(), value)),
    }
}

/// The object member `key` of an object, created empty when missing.
fn child<'a>(
    obj: &'a mut Vec<(String, Json)>,
    key: &str,
) -> Result<&'a mut Vec<(String, Json)>, String> {
    if !obj.iter().any(|(k, _)| k == key) {
        obj.push((key.to_string(), Json::Obj(Vec::new())));
    }
    match obj.iter_mut().find(|(k, _)| k == key) {
        Some((_, Json::Obj(members))) => Ok(members),
        _ => Err(format!("`{key}` is not an object")),
    }
}

/// Merges one run into the ledger at `path` (created when missing): the
/// run replaces the previous run of the same workload and mode.
pub fn merge_into(path: &Path, header: &Header, report: &Report) -> Result<(), String> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Json::Obj(Vec::new()),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    let Json::Obj(top) = &mut doc else {
        return Err(format!("{}: not a ledger (top level is not an object)", path.display()));
    };
    set(top, "schema", Json::Str(SCHEMA.into()));
    set(top, "host", header.to_json());
    let mode = if report.traced { "per_layer" } else { "end_to_end" };
    let runs = child(top, "runs").and_then(|runs| child(runs, report.workload));
    set(runs.map_err(|e| format!("{}: {e}", path.display()))?, mode, report_json(report));
    std::fs::write(path, doc.render()).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// How one metric moved between two ledgers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Beyond the bound, but one of the two runs saw fewer than half its
    /// rounds quiet: the host, not the code, may have moved the number.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share by which `b` is worse than `a` (negative: better).
pub fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// The verdict on one end-to-end metric.
pub fn verdict(a: f64, b: f64, better: &str, bound: f64, both_quiet: bool) -> Verdict {
    if worse_by(a, b, better) <= bound {
        Verdict::Ok
    } else if both_quiet {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

struct Run<'a>(&'a Json);

impl Run<'_> {
    fn num(&self, key: &str) -> Option<f64> {
        self.0.get(key).and_then(Json::as_f64)
    }

    fn value(&self, group: &str, name: &str) -> Option<f64> {
        self.0.get(group)?.get(name)?.get("value")?.as_f64()
    }

    fn names(&self, group: &str) -> Vec<String> {
        match self.0.get(group) {
            Some(Json::Obj(members)) => members.iter().map(|(k, _)| k.clone()).collect(),
            _ => Vec::new(),
        }
    }

    fn mostly_quiet(&self) -> bool {
        match (self.num("quiet_rounds"), self.num("rounds")) {
            (Some(q), Some(r)) => q * 2.0 >= r,
            _ => false,
        }
    }
}

/// A ledger value for a table row.
fn num(v: Option<f64>) -> String {
    v.map_or_else(|| format!("{:>14}", "missing"), |v| format!("{v:>14.6}"))
}

fn read_ledger(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{}: not a {SCHEMA} file", path.display()));
    }
    Ok(doc)
}

/// Compares ledger `b` against ledger `a` and returns the printed rows
/// and whether nothing was flagged.
pub fn compare(a: &Json, b: &Json, contract: &Contract) -> (Vec<String>, bool) {
    let mut rows = Vec::new();
    let mut clean = true;
    for key in ["cpu", "nproc", "rustc", "commit"] {
        let of = |doc: &Json| match doc.get("host").and_then(|h| h.get(key)) {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Num(n)) => n.to_string(),
            _ => "?".to_string(),
        };
        rows.push(format!("host {key:<8} {} | {}", of(a), of(b)));
    }
    for (workload, _) in &contract.workloads {
        let run = |doc: &'_ Json, mode: &str| -> Option<Json> {
            doc.get("runs")?.get(workload)?.get(mode).cloned()
        };
        // End-to-end metrics against their bounds.
        match (run(a, "end_to_end"), run(b, "end_to_end")) {
            (Some(ra), Some(rb)) => {
                let (ra, rb) = (Run(&ra), Run(&rb));
                let same_seed = ra.num("seed") == rb.num("seed");
                let both_quiet = ra.mostly_quiet() && rb.mostly_quiet();
                for (name, unit, better, bound) in &contract.end_to_end {
                    let (va, vb) = (ra.value("metrics", name), rb.value("metrics", name));
                    let (Some(va), Some(vb)) = (va, vb) else {
                        rows.push(format!("{workload:<15} {name:<28} missing   unresolved"));
                        continue;
                    };
                    let v = verdict(va, vb, better, *bound, both_quiet);
                    clean &= v != Verdict::Worse;
                    rows.push(format!(
                        "{workload:<15} {name:<28} {va:>14.6} {vb:>14.6} {unit:<6} {:>+8.2}% \
                         (bound {:.0}%) {}",
                        100.0 * worse_by(va, vb, better),
                        bound * 100.0,
                        v.label()
                    ));
                }
                // The workload's own metrics: simulated ones repeat exactly
                // for a seed; host-time ones follow `pass_s`, shown only.
                for name in ra.names("workload_metrics") {
                    let va = ra.value("workload_metrics", &name);
                    let vb = rb.value("workload_metrics", &name);
                    let status = match (spec::is_simulated(&name), va == vb, same_seed) {
                        (false, _, _) => "",
                        (true, true, _) => "identical",
                        (true, false, true) => "DIFFERS",
                        (true, false, false) => "other seed",
                    };
                    clean &= status != "DIFFERS";
                    rows.push(format!(
                        "{workload:<15} {name:<28} {} {} {status}",
                        num(va),
                        num(vb)
                    ));
                }
            }
            _ => rows.push(format!("{workload:<15} end_to_end run missing   unresolved")),
        }
        // Exact per-layer counts.
        if let (Some(ra), Some(rb)) = (run(a, "per_layer"), run(b, "per_layer")) {
            let (ra, rb) = (Run(&ra), Run(&rb));
            if ra.num("seed") == rb.num("seed") {
                for name in ra.names("metrics").into_iter().filter(|n| spec::is_exact(n)) {
                    let (va, vb) = (ra.value("metrics", &name), rb.value("metrics", &name));
                    if va != vb {
                        clean = false;
                        rows.push(format!(
                            "{workload:<15} {name:<28} {} {} DIFFERS",
                            num(va),
                            num(vb)
                        ));
                    }
                }
            }
        }
    }
    (rows, clean)
}

/// `--compare A.json B.json`.
pub fn compare_command(a: &Path, b: &Path) -> Result<bool, String> {
    let contract = Contract::read(&crate::run::repo_root())?;
    let (rows, clean) = compare(&read_ledger(a)?, &read_ledger(b)?, &contract);
    println!("# {} | {}", a.display(), b.display());
    for row in rows {
        println!("{row}");
    }
    println!("{}", if clean { "no metric is worse" } else { "FLAGGED: see `worse` / `DIFFERS`" });
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::Tally;

    fn report(workload: &'static str, traced: bool, pass_s: f64, overhead: f64) -> Report {
        let metrics = if traced {
            vec![
                Metric::new("htm.commits", overhead, "count"),
                Metric::new("vm.new.us", pass_s, "us"),
            ]
        } else {
            vec![Metric::new("pass_s", pass_s, "s"), Metric::new("setup_s", 0.01, "s")]
        };
        Report {
            workload,
            seed: 1,
            seconds: 20.0,
            traced,
            rounds: 10,
            quiet_rounds: 6,
            tally: Tally { attempted: 10, failed: 0 },
            metrics,
            derived: vec![Metric::new("sim_overhead_x", overhead, "x")],
            cells: vec![("run.x".into(), pass_s)],
        }
    }

    fn contract() -> Contract {
        Contract {
            run_seconds: 20.0,
            workloads: vec![("batch-exec".into(), "w".into())],
            end_to_end: vec![
                ("pass_s".into(), "s".into(), "lower".into(), 0.25),
                ("setup_s".into(), "s".into(), "lower".into(), 0.25),
            ],
            per_layer: Vec::new(),
        }
    }

    fn ledger(name: &str, reports: &[Report]) -> Json {
        let path =
            std::env::temp_dir().join(format!("haft-benchmark-{}-{name}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let header = Header { cpu: "c".into(), nproc: 2, rustc: "r".into(), commit: "x".into() };
        for r in reports {
            merge_into(&path, &header, r).unwrap();
        }
        let doc = read_ledger(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        doc
    }

    #[test]
    fn verdicts_follow_direction_bound_and_quietness() {
        assert_eq!(verdict(1.0, 1.2, "lower", 0.25, true), Verdict::Ok);
        assert_eq!(verdict(1.0, 1.3, "lower", 0.25, true), Verdict::Worse);
        assert_eq!(verdict(1.0, 1.3, "lower", 0.25, false), Verdict::Unresolved);
        assert_eq!(verdict(1.0, 0.5, "lower", 0.25, true), Verdict::Ok, "better is never worse");
        assert_eq!(verdict(40.0, 29.0, "higher", 0.25, true), Verdict::Worse);
        assert_eq!(verdict(40.0, 31.0, "higher", 0.25, true), Verdict::Ok);
        assert!((worse_by(40.0, 30.0, "higher") - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merging_replaces_the_same_workload_and_mode_only() {
        let doc = ledger(
            "merge",
            &[
                report("batch-exec", false, 9.0, 2.0),
                report("batch-exec", true, 5.0, 7.0),
                report("batch-exec", false, 1.5, 2.0),
            ],
        );
        let runs = doc.get("runs").and_then(|r| r.get("batch-exec")).unwrap();
        let e2e = Run(runs.get("end_to_end").unwrap());
        assert_eq!(e2e.value("metrics", "pass_s"), Some(1.5), "latest run wins");
        assert!(runs.get("per_layer").is_some(), "the other mode is kept");
        assert!(e2e.mostly_quiet());
    }

    #[test]
    fn compare_flags_a_slowdown_and_a_moved_simulated_number() {
        let base = ledger("a", &[report("batch-exec", false, 1.0, 2.0)]);
        let same = ledger("b", &[report("batch-exec", false, 1.1, 2.0)]);
        let (rows, clean) = compare(&base, &same, &contract());
        assert!(clean, "{rows:#?}");
        assert!(rows.iter().any(|r| r.contains("pass_s") && r.ends_with("ok")));
        let slow = ledger("c", &[report("batch-exec", false, 1.4, 2.0)]);
        let (rows, clean) = compare(&base, &slow, &contract());
        assert!(!clean);
        assert!(rows.iter().any(|r| r.contains("pass_s") && r.ends_with("worse")), "{rows:#?}");
        let moved = ledger("d", &[report("batch-exec", false, 1.0, 2.001)]);
        let (rows, clean) = compare(&base, &moved, &contract());
        assert!(!clean);
        assert!(rows.iter().any(|r| r.contains("sim_overhead_x") && r.ends_with("DIFFERS")));
    }

    #[test]
    fn compare_flags_an_exact_layer_count_that_moved() {
        let a = ledger("e", &[report("batch-exec", true, 5.0, 7.0)]);
        let b = ledger("f", &[report("batch-exec", true, 9.0, 8.0)]);
        let (rows, clean) = compare(&a, &b, &contract());
        assert!(!clean);
        // The host-time layer metric (vm.new.us) may move; the count may not.
        assert!(rows.iter().any(|r| r.contains("htm.commits") && r.ends_with("DIFFERS")));
        assert!(!rows.iter().any(|r| r.contains("vm.new.us")));
    }

    #[test]
    fn one_line_keeps_every_digit_and_no_newline() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Num(0.123_456_789_012_345)),
            ("s".into(), Json::Str("two\nlines".into())),
        ]);
        let line = one_line(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }
}
