//! The repository benchmark: four fixed-work workloads measured with a
//! min-of-rounds estimator, and a per-layer traced run. README.md in this
//! directory documents the workloads, the estimator and every metric;
//! `../BENCHMARK.json` is the machine-readable contract.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload batch-exec --seed 1 --seconds 20 --trace 0
//! ```

// The benchmark must keep building when ROADMAP item 3 deletes the
// deprecated shims, so it may not lean on them today.
#![deny(deprecated)]

mod estimator;
mod host;
mod ledger;
mod probes;
mod run;
mod spans;
mod spec;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric { name: name.to_string(), value, unit }
    }
}

const USAGE: &str = "\
usage: haft-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       haft-benchmark --compare A.json B.json
       haft-benchmark --self-check
       haft-benchmark --list

  --workload NAME   report-fast | batch-exec | fault-campaign | serve-mixed
  --seed N          feeds Experiment::seed, CampaignConfig::seed, ServeConfig::seed (default 1)
  --seconds S       measuring time of the run (default: run_seconds of BENCHMARK.json)
  --trace 0|1       0: end-to-end metrics, tracing off (default); 1: the per-layer run
  --out FILE        also merge this run into the result ledger FILE
  --compare A B     compare two ledgers against the bounds of BENCHMARK.json
  --self-check      run every workload briefly and check what is printed against BENCHMARK.json
  --list            list the workloads and their cells";

enum Command {
    Run(run::RunArgs),
    Compare(PathBuf, PathBuf),
    SelfCheck,
    List,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut trace = false;
    let mut out = None;
    let mut iter = args.iter();
    let value = |iter: &mut std::slice::Iter<'_, String>, flag: &str| {
        iter.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--workload" => workload = Some(value(&mut iter, arg)?),
            "--seed" => {
                let v = value(&mut iter, arg)?;
                seed = v.parse().map_err(|_| format!("--seed: `{v}` is not a whole number"))?;
            }
            "--seconds" => {
                let v = value(&mut iter, arg)?;
                let s: f64 = v.parse().map_err(|_| format!("--seconds: `{v}` is not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds: {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value(&mut iter, arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
                };
            }
            "--out" => out = Some(PathBuf::from(value(&mut iter, arg)?)),
            "--compare" => {
                let a = PathBuf::from(value(&mut iter, arg)?);
                let b = PathBuf::from(value(&mut iter, arg)?);
                return Ok(Command::Compare(a, b));
            }
            "--self-check" => return Ok(Command::SelfCheck),
            "--list" => return Ok(Command::List),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("no --workload given")?;
    Ok(Command::Run(run::RunArgs { workload, seed, seconds, trace, out }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command {
        Command::Run(args) => run::run_command(&args),
        Command::Compare(a, b) => ledger::compare_command(&a, &b),
        Command::SelfCheck => run::self_check(),
        Command::List => {
            for w in workloads::all() {
                println!("{} — {}", w.name, w.why);
                for c in &w.cells {
                    println!("    {:<40} {}", c.id(), c.layer());
                }
            }
            Ok(true)
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let c = parse_args(&args("--workload serve-mixed --seed 42 --seconds 20 --trace 1"));
        let Ok(Command::Run(a)) = c else { panic!("not a run command") };
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mixed", 42, Some(20.0), true)
        );
    }

    #[test]
    fn malformed_values_are_rejected_where_they_enter() {
        for bad in [
            "--workload x --seed -1",
            "--workload x --seconds 0",
            "--workload x --seconds nan",
            "--workload x --trace 2",
            "--seed 1",
            "--workload",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
