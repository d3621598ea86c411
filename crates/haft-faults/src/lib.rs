//! Fault-injection campaigns.
//!
//! Reproduces the paper's two-step methodology (§4.2): a reference run
//! establishes the dynamic trace (the population of register-writing
//! instructions) and the golden output; each injection run then flips one
//! randomly chosen occurrence's output register with a random mask and the
//! outcome is classified per the paper's Table 1:
//!
//! | Result         | Meaning                                   |
//! |----------------|-------------------------------------------|
//! | Hang           | program became unresponsive               |
//! | OS-detected    | the OS terminated the program             |
//! | ILR-detected   | ILR detected, TX did not recover          |
//! | HAFT-corrected | ILR detected, TX recovered                |
//! | Vote-corrected | a majority vote masked the fault (TMR)    |
//! | Checksum-corrected | a checksum verify-and-correct reconstructed the value (ABFT) |
//! | Masked         | fault did not affect output               |
//! | SDC            | silent data corruption in the output      |
//!
//! Campaigns are deterministic (seeded) and parallelized across OS
//! threads with `std::thread::scope` — the in-process stand-in for the
//! paper's 25-machine injection cluster.

pub mod campaign;
pub mod classify;
pub mod forensics;
pub mod report;

pub use campaign::{
    pilot_counts, run_campaign, settle_counts, CampaignConfig, PilotCounts, SettleCounts,
};
pub use classify::{
    classify, classify_requests, classify_settled, Group, Outcome, RequestCounts, RequestOutcome,
};
pub use forensics::{ForensicsSummary, LatencyHistogram, SiteStats};
pub use report::CampaignReport;
