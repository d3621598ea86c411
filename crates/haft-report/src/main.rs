//! CLI driver: regenerate `REPRODUCTION.md` + `report/*.json`, or
//! `--check` a fresh run against the committed snapshots.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use haft_report::snapshot::{diff, Snapshot};
use haft_report::{all_sections, Report, ReportConfig, Section};

const USAGE: &str = "\
usage: cargo run -p haft-report --release [--] [FLAGS]

  --fast            CI-sized sweeps (fewer workloads, Small inputs)
  --check           regenerate and diff against committed report/*.json
                    instead of overwriting them; exit 1 on any value
                    outside its pinned tolerance band
  --out DIR         output root (default: the repository root); writes
                    DIR/REPRODUCTION.md and DIR/report/<section>.json
  --section NAME    run only this section (repeatable); prints its
                    Markdown to stdout and leaves REPRODUCTION.md, which
                    needs the full registry, alone
  --list            list registered sections and exit
  --help            this text";

struct Args {
    fast: bool,
    check: bool,
    out: PathBuf,
    sections: Vec<String>,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    // Default output root: the workspace root, two levels above this
    // crate's manifest — independent of the invoking directory.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives at <root>/crates/haft-report")
        .to_path_buf();
    let mut args =
        Args { fast: false, check: false, out: repo_root, sections: Vec::new(), list: false };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--fast" => args.fast = true,
            "--check" => args.check = true,
            "--list" => args.list = true,
            "--out" => {
                args.out = PathBuf::from(iter.next().ok_or("--out needs a directory")?);
            }
            "--section" => {
                args.sections.push(iter.next().ok_or("--section needs a name")?);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let registry = all_sections();
    if args.list {
        for s in &registry {
            println!("{:<18} {}", s.name(), s.title());
        }
        return ExitCode::SUCCESS;
    }
    if let Some(name) = args.sections.iter().find(|n| !registry.iter().any(|s| s.name() == *n)) {
        let known: Vec<&str> = registry.iter().map(|s| s.name()).collect();
        eprintln!("error: unknown section `{name}` (known: {})", known.join(", "));
        return ExitCode::from(2);
    }
    let registered = registry.len();
    let selected: Vec<Box<dyn Section>> = registry
        .into_iter()
        .filter(|s| args.sections.is_empty() || args.sections.iter().any(|n| n == s.name()))
        .collect();
    let full_registry = selected.len() == registered;

    // Before the minutes of measurement, not after.
    let report_dir = args.out.join("report");
    if let Err(e) = std::fs::create_dir_all(&report_dir) {
        eprintln!("error: creating {}: {e}", report_dir.display());
        return ExitCode::from(2);
    }

    let cfg = ReportConfig { fast: args.fast };
    let mut report =
        Report::new(if args.fast { haft_report::Mode::Fast } else { haft_report::Mode::Full });
    eprintln!(
        "haft-report: {} mode, {} section(s)",
        if args.fast { "fast" } else { "full" },
        selected.len()
    );
    for s in &selected {
        let start = Instant::now();
        eprint!("  {:<18} ...", s.name());
        report.add(s.as_ref(), &cfg);
        eprintln!(" done in {:.1}s", start.elapsed().as_secs_f64());
    }

    let snapshots = report.snapshots();
    // The Markdown is derived output. A full run rewrites REPRODUCTION.md
    // — under --check too, so CI can archive what this run measured; a
    // partial run cannot, and prints its sections instead.
    if full_registry {
        let md_path = args.out.join("REPRODUCTION.md");
        if let Err(e) = std::fs::write(&md_path, report.to_markdown()) {
            eprintln!("error: writing {}: {e}", md_path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", md_path.display());
    } else {
        for s in &report.sections {
            println!("## {}", s.to_markdown());
        }
    }

    if args.check {
        let mut violations = Vec::new();
        // A committed snapshot whose section no longer exists would
        // otherwise linger unchecked (the loop below only walks fresh
        // sections) and ship as a stale artifact. Only a full-registry
        // run can tell an orphan from a merely unselected section.
        if full_registry {
            if let Ok(entries) = std::fs::read_dir(&report_dir) {
                for entry in entries.flatten() {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    if let Some(stem) = name.strip_suffix(".json") {
                        if !snapshots.iter().any(|s| s.section == stem) {
                            violations.push(format!(
                                "{stem}: committed snapshot has no registered section — \
                                 delete report/{name} or restore the section"
                            ));
                        }
                    }
                }
            }
        }
        for fresh in &snapshots {
            let path = report_dir.join(format!("{}.json", fresh.section));
            match std::fs::read_to_string(&path) {
                Ok(text) => match Snapshot::parse(&text) {
                    Ok(pinned) => violations.extend(diff(&pinned, fresh)),
                    Err(e) => {
                        violations.push(format!("{}: unparseable snapshot: {e}", fresh.section))
                    }
                },
                Err(_) => violations.push(format!(
                    "{}: no committed snapshot at {} — run without --check to pin one",
                    fresh.section,
                    path.display()
                )),
            }
        }
        if violations.is_empty() {
            let values: usize = snapshots
                .iter()
                .map(|s| {
                    s.tables.iter().map(|t| t.rows.len() * (t.columns.len() - 1)).sum::<usize>()
                        + s.series.iter().map(|sr| sr.points.len()).sum::<usize>()
                })
                .sum();
            println!(
                "check passed: {} section(s), {values} values inside their pinned bands",
                snapshots.len()
            );
            ExitCode::SUCCESS
        } else {
            eprintln!("check FAILED — {} value(s) left their pinned bands:", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            eprintln!(
                "If the drift is intentional, regenerate the snapshots \
                 (cargo run -p haft-report --release{}) and commit the diff.",
                if args.fast { " -- --fast" } else { "" }
            );
            ExitCode::FAILURE
        }
    } else {
        for snap in &snapshots {
            let path = report_dir.join(format!("{}.json", snap.section));
            if let Err(e) = std::fs::write(&path, snap.render()) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!("wrote {}", path.display());
        }
        ExitCode::SUCCESS
    }
}
