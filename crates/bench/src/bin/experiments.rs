//! Runs the paper experiments and prints their reports: every one, in
//! paper order, when no NAME is given (the source of truth for
//! EXPERIMENTS.md), else only the named ones. `--json` emits the
//! machine-readable reports instead.
//!
//! ```bash
//! cargo run --release -p edgenn-bench --bin experiments -- [NAME…] [--json]
//! ```

use std::process::ExitCode;

use edgenn_bench::experiments::{Experiment, Lab, EXPERIMENTS};

fn main() -> ExitCode {
    let mut json = false;
    let mut selected: Vec<&Experiment> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            json = true;
        } else if let Some(experiment) = EXPERIMENTS.iter().find(|(name, _)| *name == arg) {
            selected.push(experiment);
        } else {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "unknown experiment '{arg}' (expected [NAME…] [--json], NAME one of: {})",
                names.join(" ")
            );
            return ExitCode::FAILURE;
        }
    }
    let all = selected.is_empty();
    if all {
        selected = EXPERIMENTS.iter().collect();
    }

    let lab = Lab::new();
    let reports = match selected
        .iter()
        .map(|(_, run)| run(&lab))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("experiment failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&reports).expect("serialize")
        );
    } else {
        if all {
            println!("# EdgeNN reproduction — all paper experiments\n");
        }
        for report in &reports {
            print!("{}", report.render());
            println!();
        }
    }
    ExitCode::SUCCESS
}
