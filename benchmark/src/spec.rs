//! The metrics this binary prints, as static tables, and the reader for
//! `BENCHMARK.json`. `--self-check` holds the two against each other, so
//! the contract file and the program cannot drift apart.

use std::path::Path;

use haft_trace::json::Json;

use crate::workloads::{Variant, REPORT_SECTIONS};

/// An end-to-end metric: printed by every workload with `--trace 0`.
#[derive(Clone, Debug, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The end-to-end metrics. Host-side bounds are as wide as the contract
/// allows because this host's noise needs it (README.md, "Estimator and
/// noise"; the peak of a 5–11 MiB process moves by 7 % between runs on
/// thread-stack and allocator timing alone); `sim_overhead_x` is
/// simulated and repeats exactly for a seed.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "pass_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25 },
    EndToEnd { name: "sim_overhead_x", unit: "x", better: "lower", bound: 0.02 },
];

/// A per-layer metric: printed by every workload with `--trace 1`.
#[derive(Clone, Debug, PartialEq)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// The per-layer metrics, layer by layer. README.md says what each one
/// should move.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: &'static str| {
        out.push(PerLayer { name: name.to_string(), unit, better });
    };
    // host: explains spread, nothing should move it.
    add("host.nproc", "count", "higher");
    add("host.calib.best_mops", "Mops/s", "higher");
    add("host.calib.median_mops", "Mops/s", "higher");
    add("host.rounds", "count", "higher");
    add("host.quiet_rounds", "count", "higher");
    // The workload's own traced pass.
    add("bench.pass_s", "s", "lower");
    add("bench.harness_share", "%", "lower");
    add("bench.trace.overhead_x", "x", "lower");
    add("trace.events", "count", "higher");
    add("trace.export.mb_per_s", "MB/s", "higher");
    add("trace.serve.overhead_x", "x", "lower");
    // haft-ir
    add("ir.print.mb_per_s", "MB/s", "higher");
    add("ir.parse.mb_per_s", "MB/s", "higher");
    add("ir.verify.kinst_per_s", "kinst/s", "higher");
    // haft-workloads, haft-apps
    add("workloads.build_ms", "ms", "lower");
    add("apps.ycsb.mops_per_s", "Mops/s", "higher");
    add("apps.patch.ns_per_req", "ns", "lower");
    // haft-passes
    for cfg in ["ilr_only", "tx_only", "haft", "tmr", "abft"] {
        add(&format!("passes.harden.{cfg}.us_per_kinst"), "us", "lower");
    }
    for v in Variant::HARDENED {
        add(&format!("passes.expand.{}_x", v.label()), "x", "lower");
    }
    // haft-vm
    for engine in ["fused", "interp"] {
        for v in Variant::ALL {
            add(&format!("vm.{engine}.{}.ns_per_inst", v.label()), "ns", "lower");
        }
    }
    add("vm.fused_speedup_x", "x", "higher");
    add("vm.new.us", "us", "lower");
    add("vm.decode_fuse.us_per_kinst", "us", "lower");
    add("vm.fuse.total", "count", "higher");
    add("vm.short_run.us", "us", "lower");
    add("vm.profiled.overhead_x", "x", "lower");
    add("vm.traced.overhead_x", "x", "lower");
    // haft-htm
    add("htm.tx_cycle.ns", "ns", "lower");
    add("htm.access.ns", "ns", "lower");
    add("htm.commits", "count", "higher");
    add("htm.aborts", "count", "lower");
    add("htm.abort_share", "%", "lower");
    // haft-faults
    for v in Variant::HARDENED {
        add(&format!("faults.run.{}.us", v.label()), "us", "lower");
    }
    add("faults.forensics.overhead_x", "x", "lower");
    add("faults.classify.ns", "ns", "lower");
    add("faults.par2.speedup_x", "x", "higher");
    for v in Variant::HARDENED {
        add(&format!("faults.sdc.{}", v.label()), "count", "lower");
    }
    for v in Variant::HARDENED {
        add(&format!("faults.corrected.{}", v.label()), "count", "higher");
    }
    // haft-model
    add("model.sweep.us", "us", "lower");
    // haft-serve
    for cell in ["native", "haft", "tmr", "haft-faults"] {
        add(&format!("serve.sim.{cell}.kreq_per_s"), "kreq/s", "higher");
    }
    add("serve.sim.batches", "count", "lower");
    add("serve.sim.us_per_batch", "us", "lower");
    add("serve.batch_vm.us", "us", "lower");
    add("serve.sim.vm_share", "%", "higher");
    add("serve.sim.harness_us_per_req", "us", "lower");
    // haft-runtime
    for cell in ["native", "haft", "tmr", "haft-faults"] {
        add(&format!("runtime.native.{cell}.kreq_per_s"), "kreq/s", "higher");
    }
    add("runtime.w1.kreq_per_s", "kreq/s", "higher");
    add("runtime.scale_w2_x", "x", "higher");
    add("runtime.pool.kreq_per_s", "kreq/s", "higher");
    add("runtime.steals", "count", "lower");
    add("runtime.saga.kreq_per_s", "kreq/s", "higher");
    // haft-report, haft
    for name in REPORT_SECTIONS {
        add(&format!("report.section.{name}.s"), "s", "lower");
    }
    add("report.render.ms", "ms", "lower");
    add("report.check.ms", "ms", "lower");
    add("report.values_checked", "count", "higher");
    add("haft.harden_runs", "count", "lower");
    out
}

/// Per-layer metrics that are simulated counts: exact for a seed, so two
/// ledgers of one commit must agree on them to the last digit.
pub fn is_exact(name: &str) -> bool {
    const NAMES: [&str; 7] = [
        "htm.commits",
        "htm.aborts",
        "htm.abort_share",
        "serve.sim.batches",
        "vm.fuse.total",
        "report.values_checked",
        "haft.harden_runs",
    ];
    const PREFIXES: [&str; 3] = ["faults.sdc.", "faults.corrected.", "passes.expand."];
    NAMES.contains(&name) || PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Workload metrics in simulated units (cycles, virtual time): exact for a
/// seed. `sim_minst_per_s` is simulated work per *host* second, so not.
pub fn is_simulated(workload_metric: &str) -> bool {
    workload_metric.starts_with("sim_") && !workload_metric.ends_with("_per_s")
}

/// True for names the contract accepts.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What `BENCHMARK.json` declares.
#[derive(Clone, Debug, PartialEq)]
pub struct Contract {
    pub run_seconds: f64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    /// `(name, unit, better, bound)`.
    pub end_to_end: Vec<(String, String, String, f64)>,
    /// `(name, unit, better)`.
    pub per_layer: Vec<(String, String, String)>,
}

impl Contract {
    /// Reads `<root>/BENCHMARK.json`.
    pub fn read(root: &Path) -> Result<Contract, String> {
        let path = root.join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Contract::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = Json::parse(text)?;
        let arr =
            |key: &str| doc.get(key).and_then(Json::as_arr).ok_or(format!("missing array `{key}`"));
        let s = |item: &Json, key: &str| {
            item.get(key).and_then(Json::as_str).map(str::to_string).ok_or(format!("no `{key}`"))
        };
        let run_seconds =
            doc.get("run_seconds").and_then(Json::as_f64).ok_or("missing `run_seconds`")?;
        let mut c = Contract {
            run_seconds,
            workloads: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        for w in arr("workloads")? {
            c.workloads.push((s(w, "name")?, s(w, "why")?));
        }
        for m in arr("end_to_end")? {
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without `bound`")?;
            c.end_to_end.push((s(m, "name")?, s(m, "unit")?, s(m, "better")?, bound));
        }
        for m in arr("per_layer")? {
            c.per_layer.push((s(m, "name")?, s(m, "unit")?, s(m, "better")?));
        }
        Ok(c)
    }

    /// Differences between this file and the program's own tables.
    pub fn drift(&self) -> Vec<String> {
        let mut out = Vec::new();
        let ours: Vec<(String, String)> = crate::workloads::all()
            .iter()
            .map(|w| (w.name.to_string(), w.why.split_whitespace().collect::<Vec<_>>().join(" ")))
            .collect();
        if self.workloads != ours {
            out.push(format!("workloads differ: file {:?} vs program {ours:?}", self.workloads));
        }
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string(), m.bound))
            .collect();
        if self.end_to_end != e2e {
            out.push(format!("end_to_end differs: file {:?} vs program {e2e:?}", self.end_to_end));
        }
        let layers: Vec<_> = per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit.to_string(), m.better.to_string()))
            .collect();
        for m in &layers {
            if !self.per_layer.contains(m) {
                out.push(format!("per_layer: program prints {m:?}, file does not name it"));
            }
        }
        for m in &self.per_layer {
            if !layers.contains(m) {
                out.push(format!("per_layer: file names {m:?}, program does not print it"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_unique_and_within_the_contracts_limits() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        names.extend(crate::workloads::all().iter().map(|w| w.name.to_string()));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(per_layer().len() <= 128, "{}", per_layer().len());
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("é"));
    }

    #[test]
    fn the_committed_contract_matches_the_program() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let contract = Contract::read(&root).expect("BENCHMARK.json parses");
        assert_eq!(contract.drift(), Vec::<String>::new());
    }

    #[test]
    fn drift_is_reported_in_both_directions() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut contract = Contract::read(&root).unwrap();
        contract.per_layer.retain(|m| m.0 != "vm.new.us");
        contract.per_layer.push(("vm.made_up".into(), "us".into(), "lower".into()));
        contract.end_to_end[0].3 = 0.5;
        let drift = contract.drift();
        assert_eq!(drift.len(), 3, "{drift:?}");
    }
}
