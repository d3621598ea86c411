//! Section 3: transactification sweep — overhead and HTM aborts vs the
//! transaction-size threshold.

use haft::eval::perf_vm;
use haft::Experiment;
use haft_passes::HardenConfig;
use haft_workloads::{workload_by_name, Scale, Workload, WORKLOAD_NAMES};

use crate::render::{Series, Table, Tolerance};
use crate::section::{par_map, ReportConfig, SectionResult};

pub(super) fn run(cfg: &ReportConfig) -> SectionResult {
    // kmeans aborts on conflicts (true sharing), swaptions on
    // capacity; the full sweep is Fig. 8's: every workload.
    let (names, thresholds, scale, threads): (&[&str], &[u64], Scale, usize) = if cfg.fast {
        (&["kmeans", "swaptions"], &[250, 1000, 5000], Scale::Small, 2)
    } else {
        (&WORKLOAD_NAMES, &[250, 500, 1000, 3000, 5000], Scale::Large, 8)
    };

    let threshold_cols: Vec<String> = thresholds.iter().map(|t| t.to_string()).collect();
    let mut columns = vec!["workload"];
    columns.extend(threshold_cols.iter().map(String::as_str));
    let mut runtime = Table::new(
        "runtime-vs-threshold",
        "HAFT normalized runtime vs transaction-size threshold",
        &columns,
    )
    .tolerance(Tolerance::Rel(0.15));
    let mut aborts = Table::new(
        "abort-rate-vs-threshold",
        "HTM abort rate (%) vs transaction-size threshold",
        &columns,
    )
    .precision(1)
    .tolerance(Tolerance::Abs(5.0));
    let mut series = Vec::new();

    // Per workload: the native run, then HAFT at each threshold. The
    // HAFT runs are clones of one experiment, so they share one hardened
    // module; only the VM threshold changes.
    let workloads: Vec<Workload> =
        names.iter().map(|n| workload_by_name(n, scale).expect("registered workload")).collect();
    let mut runs = Vec::new();
    for w in &workloads {
        let native = Experiment::workload(w).vm(perf_vm(threads, thresholds[0]));
        let haft = native.clone().harden(HardenConfig::haft());
        runs.push(native);
        runs.extend(thresholds.iter().map(|&t| haft.clone().tx_threshold(t)));
    }
    let mut reports = par_map(runs, |exp| exp.run()).into_iter();

    for name in names {
        let native = reports.next().expect("native run").expect_completed(name);
        let (ohs, abs): (Vec<f64>, Vec<f64>) = reports
            .by_ref()
            .take(thresholds.len())
            .map(|v| {
                let run = v.expect_completed(name);
                (run.wall_cycles as f64 / native.wall_cycles as f64, run.htm.abort_rate_pct())
            })
            .unzip();
        let mut s = Series::new(
            &format!("abort-rate-{name}"),
            &format!("{name}: abort % as transactions grow"),
        )
        .tolerance(Tolerance::Abs(5.0));
        for (t, a) in threshold_cols.iter().zip(&abs) {
            s.push(t, *a);
        }
        series.push(s);
        runtime.push_row(name, ohs);
        aborts.push_row(name, abs);
    }

    SectionResult {
        notes: vec![
            format!(
                "HAFT at {:?} scale, {threads} threads; the same hardened module runs at \
                 every threshold (the split decision is the VM's run-time counter, \
                 paper §5.3/Fig. 8).",
                scale
            ),
            "The tension the paper tunes per benchmark: small transactions abort rarely \
             but pay begin/commit often; large ones amortize commits until capacity and \
             conflict aborts — and their wasted re-execution — dominate."
                .to_string(),
        ],
        tables: vec![runtime, aborts],
        series,
    }
}
