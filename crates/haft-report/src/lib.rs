//! `haft-report` — one-command reproduction of the paper's figures.
//!
//! The workspace can regenerate every evaluation surface of the paper —
//! batch overheads, Table 1 fault histograms, the transactification
//! sweep, the Elzar comparison, the serving harness, the case studies —
//! but stdout scrolls away and hand-copied numbers drift. This crate
//! closes the loop: `cargo run -p haft-report --release [-- --fast]`
//! drives the `haft::Experiment` facade through every registered
//! [`Section`] and writes
//!
//! * `REPRODUCTION.md` — the paper's tables and figures (as Markdown
//!   tables and sparklines) with *this machine's* numbers, and
//! * `report/<section>.json` — the same numbers at full precision, each
//!   table/series carrying a pinned [`render::Tolerance`] band.
//!
//! `--check` regenerates and diffs against the committed snapshots
//! instead of overwriting them, exiting nonzero when a value leaves its
//! band ([`snapshot::diff`]) — so a PR that legitimately moves a number
//! must regenerate the snapshot, turning "the docs drifted" into a
//! reviewed diff. The simulator is deterministic: same code, same mode,
//! same numbers — bands only come into play when code changes.
//!
//! A section is anything that implements [`Section`]; the built-in ones
//! are the entries of [`all_sections`]. Everything else (rendering,
//! snapshots, the diff) is section-agnostic:
//!
//! ```
//! use haft_report::render::Table;
//! use haft_report::section::{ReportConfig, Section, SectionResult};
//! use haft_report::snapshot;
//!
//! struct Demo;
//! impl Section for Demo {
//!     fn name(&self) -> &'static str {
//!         "demo"
//!     }
//!     fn title(&self) -> &'static str {
//!         "Demo overheads"
//!     }
//!     fn paper_ref(&self) -> &'static str {
//!         "Fig. 0"
//!     }
//!     fn run(&self, _cfg: &ReportConfig) -> SectionResult {
//!         let mut t = Table::new("t", "Overheads", &["workload", "HAFT"]);
//!         t.push_row("histogram", vec![1.91]);
//!         SectionResult { tables: vec![t], ..Default::default() }
//!     }
//! }
//!
//! let sections: Vec<Box<dyn Section>> = vec![Box::new(Demo)];
//! let report = haft_report::generate_with(&ReportConfig { fast: true }, &sections);
//! let md = report.to_markdown();
//! assert!(md.contains("Demo overheads") && md.contains("1.91"));
//!
//! // Snapshots of a run diff clean against themselves ...
//! let snap = &report.snapshots()[0];
//! assert!(snapshot::diff(snap, snap).is_empty());
//! // ... and round-trip through their JSON files.
//! let reparsed = snapshot::Snapshot::parse(&snap.render()).unwrap();
//! assert!(snapshot::diff(snap, &reparsed).is_empty());
//! ```

pub mod render;
pub mod section;
pub mod snapshot;

pub use section::{all_sections, ReportConfig, Section, SectionResult};
pub use snapshot::{Mode, Snapshot};

/// One section's measured result plus its registry metadata.
#[derive(Clone, Debug)]
pub struct GeneratedSection {
    pub name: String,
    pub title: String,
    pub paper_ref: String,
    pub result: SectionResult,
}

impl GeneratedSection {
    /// The section as Markdown, from its title (the text of its heading)
    /// to its last series — what `--section` prints and what
    /// [`Report::to_markdown`] numbers and concatenates.
    pub fn to_markdown(&self) -> String {
        let mut md = format!("{}\n\n*Reproduces:* {}.\n", self.title, self.paper_ref);
        for note in &self.result.notes {
            md.push_str(&format!("\n{note}\n"));
        }
        for table in &self.result.tables {
            md.push('\n');
            md.push_str(&table.to_markdown());
        }
        for series in &self.result.series {
            md.push('\n');
            md.push_str(&series.to_markdown());
        }
        md
    }
}

/// A fully generated report, ready to render and snapshot.
#[derive(Clone, Debug)]
pub struct Report {
    pub mode: Mode,
    pub sections: Vec<GeneratedSection>,
}

impl Report {
    /// An empty report in the given mode.
    pub fn new(mode: Mode) -> Self {
        Report { mode, sections: Vec::new() }
    }

    /// Runs `section` and appends its result.
    pub fn add(&mut self, section: &dyn Section, cfg: &ReportConfig) {
        self.sections.push(GeneratedSection {
            name: section.name().to_string(),
            title: section.title().to_string(),
            paper_ref: section.paper_ref().to_string(),
            result: section.run(cfg),
        });
    }

    /// One snapshot per section, in report order.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.sections
            .iter()
            .map(|s| Snapshot {
                section: s.name.clone(),
                mode: self.mode,
                tables: s.result.tables.clone(),
                series: s.result.series.clone(),
            })
            .collect()
    }

    /// Renders the whole `REPRODUCTION.md` document.
    pub fn to_markdown(&self) -> String {
        let mut md =
            String::from("# REPRODUCTION — the paper's artifacts, this machine's numbers\n\n");
        md.push_str(&format!(
            "Regenerated by `cargo run -p haft-report --release{}` \
             (**{} mode**). Do not edit by hand — rerun the command instead. \
             `--check` verifies the committed `report/*.json` snapshots against a fresh \
             run's numbers using each table's pinned tolerance band; the simulator is \
             deterministic, so on unchanged code the check is exact. Fast and full mode \
             sweep different grids and are not comparable.\n\n",
            if self.mode == Mode::Fast { " -- --fast" } else { "" },
            self.mode.label(),
        ));
        md.push_str("| # | Section | Reproduces | Snapshot |\n|---|---|---|---|\n");
        for (i, s) in self.sections.iter().enumerate() {
            md.push_str(&format!(
                "| {} | {} | {} | `report/{}.json` |\n",
                i + 1,
                s.title,
                s.paper_ref,
                s.name
            ));
        }
        for (i, s) in self.sections.iter().enumerate() {
            md.push_str(&format!("\n## {}. {}", i + 1, s.to_markdown()));
        }
        md
    }
}

/// Runs the given sections under `cfg` and collects the report.
pub fn generate_with(cfg: &ReportConfig, sections: &[Box<dyn Section>]) -> Report {
    let mut report = Report::new(if cfg.fast { Mode::Fast } else { Mode::Full });
    for s in sections {
        report.add(s.as_ref(), cfg);
    }
    report
}

/// Runs every registered section ([`all_sections`]).
pub fn generate(cfg: &ReportConfig) -> Report {
    generate_with(cfg, &all_sections())
}
