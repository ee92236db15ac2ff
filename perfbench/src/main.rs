//! Wall-clock benchmark of the EdgeNN engine.
//!
//! ```text
//! edgenn-perfbench --workload <tiny-stream|paper-batch|serve-open>
//!                  --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! ```
//!
//! Every input is generated from `--seed`. The run measures for
//! `--seconds`, checks every output, and prints as its last stdout line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics with `--trace 1`).
//! `--out` also writes the full run record: host fingerprint, noise,
//! per-class medians, the benchmark's own spans and, traced, one row per
//! compiled node. See README.md beside this file.

mod closed;
mod probe;
mod procfs;
mod record;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use edgenn_core::runtime::functional::Executor;
use edgenn_core::runtime::pool::Pool;
use edgenn_nn::models::{build, ModelKind, ModelScale};
use serde_json::{Map, Value};

use record::{Outcome, Spans};

const WORKLOADS: [&str; 3] = ["tiny-stream", "paper-batch", "serve-open"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace", "out"].contains(k))
            .ok_or_else(|| format!("unknown argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key, value);
    }
    let get = |key: &str| {
        values
            .get(key)
            .map(|v| (*v).to_string())
            .ok_or_else(|| format!("--{key} is required"))
    };
    let workload = get("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed expects a non-negative integer".to_string())?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out: get("out").ok().map(PathBuf::from),
    })
}

/// What a run's numbers depend on besides the code: cores, pool
/// workers, the kernel variant, the environment pins, the model scale
/// and the measured co-run cutoff. Runs compare only on like hosts.
fn fingerprint(workload: &str) -> Result<Map, String> {
    let graph = build(ModelKind::Fcnn, ModelScale::Tiny);
    let exec = Executor::new(&graph).map_err(|e| e.to_string())?;
    let env = |key: &str| std::env::var(key).map_or(Value::Null, Value::from);
    let mut m = Map::new();
    m.insert(
        "available_parallelism",
        Value::from(
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as f64,
        ),
    );
    m.insert(
        "default_workers",
        Value::from(Pool::<()>::default_workers() as f64),
    );
    m.insert(
        "kernel_arch",
        Value::from(edgenn_tensor::kernel_arch().name()),
    );
    m.insert("EDGENN_SIMD", env("EDGENN_SIMD"));
    m.insert("EDGENN_CORUN_CUTOFF", env("EDGENN_CORUN_CUTOFF"));
    m.insert(
        "model_scale",
        Value::from(if workload == "paper-batch" {
            "paper"
        } else {
            "tiny"
        }),
    );
    m.insert(
        "corun_cutoff_flops",
        Value::from(closed::corun_cutoff(&exec)),
    );
    Ok(m)
}

fn run(args: &Args) -> Result<(Outcome, Map), String> {
    let mut spans = Spans::new(args.trace);
    let outcome = match args.workload.as_str() {
        "tiny-stream" => closed::run(
            &closed::TINY_STREAM,
            args.seed,
            args.seconds,
            args.trace,
            &mut spans,
        )?,
        "paper-batch" => closed::run(
            &closed::PAPER_BATCH,
            args.seed,
            args.seconds,
            args.trace,
            &mut spans,
        )?,
        _ => serve::run(args.seed, args.seconds, args.trace, &mut spans)?,
    };
    let mut rec = Map::new();
    rec.insert("workload", Value::from(args.workload.as_str()));
    rec.insert("seed", Value::from(args.seed as f64));
    rec.insert("seconds", Value::from(args.seconds));
    rec.insert("trace", Value::from(args.trace));
    rec.insert("fingerprint", Value::from(fingerprint(&args.workload)?));
    rec.insert("detail", Value::from(outcome.detail.clone()));
    rec.insert("spans", spans.to_value());
    Ok((outcome, rec))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("edgenn-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (outcome, mut rec) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("edgenn-perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let mut line = Map::new();
    line.insert("correct", Value::from(outcome.correct));
    line.insert("attempted", Value::from(outcome.attempted as f64));
    line.insert("failed", Value::from(outcome.failed as f64));
    line.insert("metrics", outcome.metrics.to_value());
    let line = Value::from(line);
    if let Some(path) = &args.out {
        rec.insert("result", line.clone());
        let text = serde_json::to_string_pretty(&Value::from(rec)).unwrap_or_default();
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, text));
        if let Err(e) = written {
            eprintln!("edgenn-perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    match serde_json::to_string(&line) {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("edgenn-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_and_bad_ones_fail() {
        let a = args(&[
            "--workload",
            "tiny-stream",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(a.out.is_none());
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "serve-open",
            "--seed",
            "-1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "serve-open",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "serve-open",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "serve-open", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--frobnicate", "1"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }
}
