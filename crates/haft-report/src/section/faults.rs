//! Section 2: the Table 1 fault-injection outcome histograms.

use haft_faults::Outcome;
use haft_passes::HardenConfig;
use haft_workloads::{workload_by_name, Scale, WORKLOAD_NAMES};

use crate::render::{Series, Tolerance};
use crate::section::{campaign, outcome_row, outcome_table, ReportConfig, SectionResult};

const SEED: u64 = 0x0F19;

pub(super) fn run(cfg: &ReportConfig) -> SectionResult {
    let (names, injections): (&[&str], u64) =
        if cfg.fast { (&["histogram", "linearreg"], 24) } else { (&WORKLOAD_NAMES, 150) };
    let variants: [(&str, HardenConfig); 4] = [
        ("native", HardenConfig::native()),
        ("ILR", HardenConfig::ilr_only()),
        ("HAFT", HardenConfig::haft()),
        ("TMR", HardenConfig::tmr()),
    ];

    let mut table =
        outcome_table("outcome-histogram", "Outcome distribution per injection campaign (%)");

    let mut native_sdc =
        Series::new("native-sdc", "native SDC % across workloads").tolerance(Tolerance::Abs(10.0));
    let mut haft_corrected =
        Series::new("haft-corrected", "HAFT rollback-corrected % across workloads")
            .tolerance(Tolerance::Abs(10.0));
    let mut tmr_corrected = Series::new("tmr-corrected", "TMR vote-corrected % across workloads")
        .tolerance(Tolerance::Abs(10.0));

    for name in names {
        let w = workload_by_name(name, Scale::Small).expect("registered workload");
        for (label, hc) in &variants {
            let report = campaign(&w, hc.clone(), injections, SEED);
            table.push_row(&format!("{name} · {label}"), outcome_row(&report));
            match *label {
                "native" => native_sdc.push(name, report.pct(Outcome::Sdc)),
                "HAFT" => haft_corrected.push(name, report.pct(Outcome::HaftCorrected)),
                "TMR" => tmr_corrected.push(name, report.pct(Outcome::VoteCorrected)),
                _ => {}
            }
        }
    }

    SectionResult {
        notes: vec![
            format!(
                "{injections} injections per variant (seed {SEED:#x}), Small inputs, \
                 2 threads — the paper's campaign shape (§4.2): uniform draw over the \
                 reference run's register-writing instructions, random XOR mask, outcome \
                 classified against the golden output."
            ),
            "Reading the classes: native converts faults into SDC and crashes; ILR \
             converts SDC into fail-stops (ilr-detected); HAFT converts fail-stops into \
             rollback corrections (haft-corrected); TMR masks in place (vote-corrected) \
             with no transactional machinery."
                .to_string(),
        ],
        tables: vec![table],
        series: vec![native_sdc, haft_corrected, tmr_corrected],
    }
}
