//! Golden test for report generation: `--fast` mode renders every
//! registered section with real measured numbers, snapshots round-trip
//! through their JSON files, and the `--check` diff flags out-of-band
//! values.
//!
//! The expensive part — actually running the experiments — happens once;
//! every assertion reads the same generated report.

use haft_report::snapshot::{diff, Mode, Snapshot};
use haft_report::{all_sections, generate, ReportConfig};

#[test]
fn fast_report_renders_checks_and_round_trips() {
    let report = generate(&ReportConfig { fast: true });
    let registered = all_sections();

    // Every registered section ran, in registry order, and measured
    // something real.
    assert_eq!(report.mode, Mode::Fast);
    let names: Vec<&str> = report.sections.iter().map(|s| s.name.as_str()).collect();
    let expected: Vec<&str> = registered.iter().map(|s| s.name()).collect();
    assert_eq!(names, expected, "every registered section must run");
    for s in &report.sections {
        assert!(!s.result.tables.is_empty(), "{}: no tables", s.name);
        assert!(!s.result.notes.is_empty(), "{}: no methodology notes", s.name);
        for t in &s.result.tables {
            assert!(!t.rows.is_empty(), "{}/{}: empty table", s.name, t.id);
            for row in &t.rows {
                assert!(
                    row.values.iter().all(|v| v.is_finite()),
                    "{}/{}/{}: non-finite cell",
                    s.name,
                    t.id,
                    row.label
                );
            }
        }
    }

    // Spot-check the physics: redundancy (HAFT, TMR) is never free —
    // TX-only can dip below native in the cost model, so only the
    // redundant variants are pinned ≥ 1 — and the trade-off table pins
    // HAFT cheaper than TMR with zero TMR transactions.
    let overheads = &report.sections[0].result.tables[0];
    for row in &overheads.rows {
        assert!(row.values.iter().all(|&v| v > 0.0), "overheads/{}: non-positive", row.label);
        for col in ["HAFT", "TMR"] {
            let idx = overheads.columns.iter().position(|c| c == col).unwrap() - 1;
            assert!(
                row.values[idx] >= 1.0,
                "overheads/{} {col}: redundancy below native: {:?}",
                row.label,
                row.values
            );
        }
    }
    let tradeoff =
        &report.sections.iter().find(|s| s.name == "haft-vs-elzar").unwrap().result.tables[0];
    let mean_row = &tradeoff.rows[0];
    assert!(
        mean_row.values[0] < mean_row.values[1],
        "HAFT should be cheaper than TMR in the mean: {:?}",
        mean_row.values
    );
    let commits_row =
        tradeoff.rows.iter().find(|r| r.label.contains("HTM commits")).expect("commits row");
    assert_eq!(commits_row.values[1], 0.0, "TMR must not transactify");

    // The paper-figure sections, same spirit. A table is looked up by
    // section and id, a cell by its column header.
    let table = |section: &str, id: &str| {
        let s = report.sections.iter().find(|s| s.name == section).expect(section);
        s.result.tables.iter().find(|t| t.id == id).unwrap_or_else(|| panic!("{section}/{id}"))
    };
    let cell = |t: &haft_report::render::Table, row: usize, col: &str| {
        let idx = t.columns.iter().position(|c| c == col).unwrap_or_else(|| panic!("{col}"));
        t.rows[row].values[idx - 1]
    };
    for (section, id) in
        [("thread-scaling", "haft-runtime-vs-threads"), ("opt-levels", "overhead-by-level")]
    {
        for row in &table(section, id).rows {
            assert!(row.values.iter().all(|&v| v >= 1.0), "{section}/{}: {:?}", row.label, row);
        }
    }
    // Table 3: wherever anything aborted, the three causes are all of it.
    let causes = table("htm-aborts", "abort-causes");
    assert!(causes.rows.iter().any(|r| r.values[0] > 0.0), "no workload aborts at 5000");
    for row in causes.rows.iter().filter(|r| r.label != "mean" && r.values[0] > 0.0) {
        let split: f64 = row.values[1..].iter().sum();
        assert!((split - 100.0).abs() < 1e-6, "abort-causes/{}: causes sum to {split}", row.label);
    }
    // Fig. 10, from the paper's parameters and from ours: HAFT is never
    // less available nor more corrupted than native.
    for id in ["fig10-paper", "fig10-measured"] {
        let t = table("availability-model", id);
        for (i, row) in t.rows.iter().enumerate() {
            let (n, h) = (cell(t, i, "native available %"), cell(t, i, "HAFT available %"));
            assert!(h >= n, "{id} @{}: HAFT {h} < native {n} available", row.label);
            let (n, h) = (cell(t, i, "native corrupted %"), cell(t, i, "HAFT corrupted %"));
            assert!(h <= n, "{id} @{}: HAFT {h} > native {n} corrupted", row.label);
        }
    }
    // Hardening costs throughput wherever the hardened line has a native
    // twin (`HAFT-lock` has none: it elides the locks native takes).
    for id in ["memcached-ycsb-a", "memcached-ycsb-d"] {
        let t = table("case-studies", id);
        for (i, row) in t.rows.iter().enumerate() {
            for (hardened, native) in
                [("HAFT-atom", "native-atom"), ("HAFT-lock-noel", "native-lock")]
            {
                assert!(
                    cell(t, i, hardened) < cell(t, i, native),
                    "{id} @{} threads: {hardened} not below {native}",
                    row.label
                );
            }
        }
    }
    for row in &table("case-studies", "app-throughput").rows {
        for pair in row.values.chunks(2) {
            assert!(
                pair[1] < pair[0],
                "{}: HAFT {} not below native {}",
                row.label,
                pair[1],
                pair[0]
            );
        }
    }
    for row in &table("ablations", "peephole-savings").rows {
        assert!(row.values[2] >= 0.0, "{}: a peephole added instructions", row.label);
    }

    // The rendered REPRODUCTION.md carries every section, table, and a
    // sparkline for every series.
    let md = report.to_markdown();
    for s in &report.sections {
        assert!(md.contains(&s.title), "missing section title: {}", s.title);
        assert!(md.contains(&format!("`report/{}.json`", s.name)), "missing TOC row: {}", s.name);
        for t in &s.result.tables {
            assert!(md.contains(&t.title), "missing table: {}/{}", s.name, t.id);
        }
        for series in &s.result.series {
            assert!(md.contains(&series.title), "missing series: {}/{}", s.name, series.id);
        }
    }
    assert!(md.contains("fast mode"), "the mode banner must name the mode");

    // Snapshots: self-diff clean, JSON round-trip diff clean.
    let snapshots = report.snapshots();
    assert_eq!(snapshots.len(), report.sections.len());
    for snap in &snapshots {
        assert!(diff(snap, snap).is_empty(), "{}: self-diff", snap.section);
        let reparsed = Snapshot::parse(&snap.render())
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}", snap.section));
        let violations = diff(snap, &reparsed);
        assert!(violations.is_empty(), "{}: round-trip drifted: {violations:?}", snap.section);
    }

    // --check catches an out-of-band value: fake a committed snapshot
    // whose pinned number is far outside the band, and one whose number
    // drifted only epsilon (must pass).
    let mut pinned = snapshots[0].clone();
    let fresh = &snapshots[0];
    pinned.tables[0].rows[0].values[0] *= 3.0;
    let violations = diff(&pinned, fresh);
    assert_eq!(violations.len(), 1, "exactly the faked value trips: {violations:?}");
    assert!(violations[0].contains(&pinned.tables[0].rows[0].label), "{violations:?}");

    let mut pinned = snapshots[0].clone();
    pinned.tables[0].rows[0].values[0] *= 1.01;
    assert!(diff(&pinned, fresh).is_empty(), "1% drift sits inside the ±15% band");

    // A fast run never checks against full-mode pins.
    let mut pinned = snapshots[0].clone();
    pinned.mode = Mode::Full;
    let violations = diff(&pinned, fresh);
    assert!(violations[0].contains("mode"), "{violations:?}");
}
