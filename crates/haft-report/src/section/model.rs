//! Section 12: the availability model — Table 4's fault probabilities,
//! the paper's beside ours, and the Fig. 10 curves each set draws.

use haft::model::{FaultProbabilities, HaftChain, RecoveryRates};
use haft_faults::{CampaignReport, Outcome};
use haft_passes::HardenConfig;
use haft_workloads::{workload_by_name, Scale};

use crate::render::{Table, Tolerance};
use crate::section::{campaign, ReportConfig, SectionResult};

const SEED: u64 = 0x7AB4;
const SYSTEMS: [&str; 3] = ["native", "ILR", "HAFT"];

pub(super) fn run(cfg: &ReportConfig) -> SectionResult {
    // A representative subset keeps the aggregate campaign tractable.
    let (names, injections, points): (&[&str], u64, usize) = if cfg.fast {
        (&["histogram", "linearreg"], 16, 3)
    } else {
        (&["histogram", "linearreg", "canneal", "streamcluster", "x264"], 100, 12)
    };
    let paper = [
        FaultProbabilities::native_paper(),
        FaultProbabilities::ilr_paper(),
        FaultProbabilities::haft_paper(),
    ];
    let workloads: Vec<_> = names
        .iter()
        .map(|name| workload_by_name(name, Scale::Small).expect("registered workload"))
        .collect();
    let configs = [HardenConfig::native(), HardenConfig::ilr_only(), HardenConfig::haft()];
    let measured = configs.map(|hc| {
        let mut agg = CampaignReport::default();
        for w in &workloads {
            agg.merge(&campaign(w, hc.clone(), injections, SEED));
        }
        let p = |o| agg.pct(o) / 100.0;
        FaultProbabilities {
            masked: p(Outcome::Masked),
            sdc: p(Outcome::Sdc),
            crashed: p(Outcome::Hang) + p(Outcome::OsDetected) + p(Outcome::IlrDetected),
            haft_correctable: p(Outcome::HaftCorrected),
        }
    });

    let mut columns = vec!["outcome".to_string()];
    columns.extend(SYSTEMS.iter().flat_map(|s| [format!("{s} paper"), format!("{s} measured")]));
    let mut table4 = Table::new(
        "fault-probabilities",
        "Fault outcome probabilities (%): the paper's Table 4 beside this campaign",
        &columns,
    )
    .precision(1)
    .tolerance(Tolerance::Abs(10.0));
    type Field = fn(&FaultProbabilities) -> f64;
    let fields: [(&str, Field); 4] = [
        ("masked", |p| p.masked),
        ("SDC", |p| p.sdc),
        ("crashed", |p| p.crashed),
        ("HAFT-correctable", |p| p.haft_correctable),
    ];
    for (label, field) in fields {
        let cells = paper.iter().zip(&measured).flat_map(|(p, m)| [field(p), field(m)]);
        table4.push_row(label, cells.map(|v| 100.0 * v).collect());
    }

    let mut columns = vec!["faults/s".to_string()];
    for what in ["available", "corrupted"] {
        columns.extend(SYSTEMS.iter().map(|s| format!("{s} {what} %")));
    }
    let fig10 = |id: &str, source: &str, sets: [FaultProbabilities; 3]| {
        let title = format!("One hour at each fault rate, {source} probabilities (% of it)");
        let mut table =
            Table::new(id, &title, &columns).precision(1).tolerance(Tolerance::Abs(5.0));
        let sweeps = sets.map(|probs| {
            HaftChain { probs, rates: RecoveryRates::default() }.sweep(0.00028, 1.0, points, 3600.0)
        });
        for i in 0..points {
            let mut row: Vec<f64> = sweeps.iter().map(|s| 100.0 * s[i].availability).collect();
            row.extend(sweeps.iter().map(|s| 100.0 * s[i].corruption));
            table.push_row(&format!("{:.5}", sweeps[0][i].fault_rate), row);
        }
        table
    };
    let curves =
        [fig10("fig10-paper", "the paper's", paper), fig10("fig10-measured", "measured", measured)];

    SectionResult {
        notes: vec![format!(
            "Measured columns: {injections} injections per workload per variant (seed \
             {SEED:#x}) aggregated over {names:?}, Small inputs, 2 threads; `crashed` sums \
             hang, os-detected and ilr-detected. Paper columns: \
             `FaultProbabilities::{{native,ilr,haft}}_paper`. Each set parameterizes the \
             same chain (recovery: manual 6 h, reboot 10 s, transactional 2.5 µs) at \
             {points} log-spaced fault rates. Our kernels mask fewer native faults than the \
             paper's binaries (tight loops, little dead state), so native corrupts sooner \
             here; the hardened columns agree in kind — ILR turns SDC into crashes, HAFT \
             turns crashes into corrections."
        )],
        tables: [table4].into_iter().chain(curves).collect(),
        series: Vec::new(),
    }
}
