//! `edgenn` — command-line front end for the EdgeNN reproduction. The
//! flags and subcommands are declared in [`args`]; `edgenn` with no
//! arguments prints the usage generated from them.

mod args;

use std::process::ExitCode;
use std::sync::Arc;

use args::{parse_model, parse_platform, Args};
use edgenn_core::prelude::*;
use edgenn_core::runtime::Runtime;
use edgenn_nn::graph::{compile, CompileOptions, CompileReport, Graph};
use edgenn_nn::models::{build, ModelScale};
use edgenn_obs::chrome::{self, TraceEntry};
use edgenn_obs::{EventSink, Labels, ProfileSummary, Recorder, SinkEvent};
use edgenn_sim::trace::timeline_entries;
use edgenn_sim::Platform;
use serde_json::Value;

/// The prose half of the usage text; the synopsis and the flag help
/// lines are generated from the tables in [`args`].
const NOTES: &str = "\
COMPILATION:
    Every command taking --model first runs the graph compiler (identity
    elimination, activation fusion, constant folding, slice/concat
    cancellation, DCE, to a fixpoint) so the tuner plans over the optimized
    DAG; --no-compile keeps the raw builder graph. Weights are prepacked into
    GEMM panel layouts at tiny scale, where the functional engine runs;
    paper-scale weights stay lazy/analytic unless --prepack forces packing.

COMPILE:
    Runs the compiler alone, prints per-pass node/edge deltas and re-verifies
    the rewrite: EC06x legality (interface preserved, fused-node partial-range
    contract, no orphans, report consistency) plus the tier-A graph check,
    and with --platform the tier-B profile/plan checks on the compiled graph.
    Exit status is non-zero when any error-severity diagnostic fires.

PRECISION:
    --precision int8 runs the quantized conv/dense kernels (per-channel
    symmetric weights, per-tensor affine activations, requantize epilogue)
    inside the functional engine and sizes footprint and tier-D certified
    bounds with the int8 sidecar; activations between nodes stay f32.

CHECK:
    Runs the edgenn-check static verifier: graph dataflow (tier A), plan
    legality on the target platform (tier B), then a simulated trace through
    the happens-before race detector plus report accounting (tier C), with
    stable EC0xx codes (see docs/diagnostics.md). --lenient serves plotting
    pipelines that accept a clamped copy proportion. Exit status is non-zero
    when any error-severity diagnostic fires.

ANALYZE:
    Runs the edgenn-check tier-D ownership/liveness analyzer: the plan is
    lowered into the exact slot/arena operation schedule the functional
    engine would execute, abstract-interpreted against the zero-copy contract
    (EC050-EC059, see docs/diagnostics.md), and a certified peak-memory bound
    is derived and checked against the platform's DRAM. The worker-pool
    schedule explorer then enumerates every queue/steal/reclaim interleaving
    of a scenario matrix (CHESS-style bounded preemptions), asserting the
    pool contract on each. --functional also runs the real engine, whose
    measured slot/arena bytes must never exceed the certified bound. Exit
    status is non-zero on any EC05x error, explorer violation, or
    measured-exceeds-certified conformance failure.

FAULTS:
    --faults takes either a bare integer (a seed for a reproducible random
    fault plan) or a spec of semicolon-separated clauses:
        kernel:<node>x<count>         kernel failures before success (or inf)
        bw:<start>-<end>@<factor>     bandwidth degradation window, factor (0,1)
        thermal:<start>-<end>@<factor> thermal throttle window, factor (0,1)
        stall:<start>-<end>@<factor>  page-migration stalls, factor > 1
        oom:<fraction>                co-tenant DRAM pressure in [0,1)
    Example: --faults 'kernel:3xinf;bw:0-500@0.5;oom:0.8'
    --deadline-us overruns degrade the hybrid plan to a single processor.

PROFILE:
    Runs the model through the real functional engine with the always-on
    flight recorder enabled, keeps the fastest of --runs measured requests
    (after one warm-up), and verifies the recorded spans through the tier-C
    checker (occupancy, causal ordering) before reporting. Prints per-stage
    p50/p99 (node, pack, compute, merge, queue wait) and a per-node
    predicted-vs-measured table. Defaults to --scale tiny: the engine runs
    on the host CPU, so measured times characterize engine behaviour, not
    target latency.

STORM:
    Monte-Carlo resilience sweep: each round injects a seeded random fault
    plan into the analytic simulation (recovery log gated by the EC04x
    checker) and into a functional execution whose output must stay bitwise
    identical to the fault-free reference. Reports survival rate and p99
    degraded latency per model; exit status is non-zero below 100% survival.
    The JSON summary archives every failing or deadline-degraded round's
    seed (failed_seeds / degraded_seeds) so --replay-seed can re-run it;
    --inject-failure tests that path end to end.

SERVE / SIEGE:
    The multi-tenant serving front end (edgenn-serve): per-tenant token-bucket
    admission with in-flight caps, a bounded ingress queue, weighted-fair
    dynamic batching into Executor::batch_execute, and an SLO guard that
    degrades hybrid -> single-processor -> int8 before it sheds. Every
    decision is a typed event in the admission log (docs/serving.md).
    serve  runs the real-time loop for --duration-ms of wall clock; --check
           replays the log through the EC07x admission-log checker.
    siege  is the deterministic gate: a seeded closed+open-loop load
           generator in virtual time with the fault injector armed (off with
           --no-faults). Formed batches execute for real and must reproduce
           the fault-free reference bitwise; the admission log always
           replays through EC07x. Exit status is non-zero if any admitted
           request is lost, any output diverges, the queue bound breaks, or
           the checker objects.
    Both write the shared JSON report (tenant tails, survival, shed rate,
    fairness spread, checker verdict) with --json / --out FILE.";

/// What a command returns: any error, printed as one message.
type Result<T, E = Box<dyn std::error::Error>> = std::result::Result<T, E>;

fn main() -> ExitCode {
    let result = Args::parse(std::env::args().skip(1), NOTES)
        .map_err(Into::into)
        .and_then(|args| args.run());
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// A JSON object holding `fields` in order.
fn object(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Writes a JSON `report` to `--out` (saying so on stderr unless
/// `--json`) and prints it on `--json`.
fn emit_report(args: &Args, what: &str, report: &Value) -> Result<()> {
    let text = serde_json::to_string_pretty(report)?;
    if let Some(path) = args.value("out") {
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
        if !args.has("json") {
            eprintln!("{what} written to {path}");
        }
    }
    if args.has("json") {
        println!("{text}");
    }
    Ok(())
}

/// Output sinks requested on the command line (`--trace-out` /
/// `--metrics-out`).
struct ObsOutputs<'o> {
    trace_out: Option<&'o str>,
    metrics_out: Option<&'o str>,
    recorder: Option<Recorder>,
}

impl<'o> ObsOutputs<'o> {
    /// `policy` labels the metrics snapshot: the configuration that ran,
    /// or `all` when a command runs every preset.
    fn from_args(args: &'o Args, graph_name: &str, platform: &Platform, policy: &str) -> Self {
        let trace_out = args.value("trace-out");
        let metrics_out = args.value("metrics-out");
        let recorder = (trace_out.is_some() || metrics_out.is_some()).then(|| {
            Recorder::with_labels(
                Labels::new()
                    .with("model", graph_name)
                    .with("platform", &platform.name)
                    .with("policy", policy),
            )
        });
        Self {
            trace_out,
            metrics_out,
            recorder,
        }
    }

    fn runtime<'a>(&self, platform: &'a Platform) -> Runtime<'a> {
        match &self.recorder {
            Some(rec) => Runtime::with_observer(platform, Arc::new(rec.clone())),
            None => Runtime::new(platform),
        }
    }

    fn write_trace(&self, events: &[edgenn_sim::TraceEvent]) -> Result<()> {
        let Some(path) = self.trace_out else {
            return Ok(());
        };
        let extra = self
            .recorder
            .as_ref()
            .map(edgenn_obs::Recorder::counter_samples)
            .unwrap_or_default();
        chrome::write(path, &timeline_entries(events, &extra))?;
        eprintln!("chrome trace written to {path} (load in Perfetto or chrome://tracing)");
        Ok(())
    }

    fn write_metrics(&self) -> Result<()> {
        let Some(path) = self.metrics_out else {
            return Ok(());
        };
        let rec = self
            .recorder
            .as_ref()
            .expect("metrics-out implies a recorder");
        let json = serde_json::to_string_pretty(&rec.metrics().to_json())?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        for warning in rec.warnings() {
            eprintln!("warning: {warning}");
        }
        eprintln!("metrics snapshot written to {path}");
        Ok(())
    }
}

fn parse_scale(args: &Args) -> Result<ModelScale> {
    match args.require("scale")? {
        "paper" => Ok(ModelScale::Paper),
        "tiny" => Ok(ModelScale::Tiny),
        other => Err(format!("unknown scale '{other}' (expected paper|tiny)").into()),
    }
}

/// Compiler options for one invocation. Prepacking materializes weights,
/// and paper-scale graphs are analytic-only (their weights are lazy by
/// design), so packing defaults on at tiny scale — where the functional
/// engine actually executes — and off at paper scale; `--prepack` /
/// `--no-prepack` override. `--precision int8` also packs the quantized
/// sidecar.
fn compile_options(args: &Args, scale: ModelScale) -> Result<CompileOptions> {
    let int8 = args::parse_precision(args.require("precision")?)? == Precision::Int8;
    let mut copts = if int8 {
        CompileOptions::int8()
    } else {
        CompileOptions::default()
    };
    let prepack = if args.has("prepack") {
        true
    } else if args.has("no-prepack") {
        false
    } else {
        scale == ModelScale::Tiny
    };
    if !prepack {
        copts.prepack_f32 = false;
        copts.prepack_int8 = false;
    }
    Ok(copts)
}

/// A model ready to run and its compile report (`None` only for a raw
/// graph).
type Loaded = (Graph, Option<CompileReport>);

/// Unless `--no-compile` was passed, optimizes `raw` with the graph
/// compiler so the tuner plans over the rewritten DAG; a graph whose
/// rewrite fails the EC06x legality checks is refused.
fn compile_loaded(args: &Args, scale: ModelScale, raw: Graph) -> Result<Loaded> {
    if args.has("no-compile") {
        return Ok((raw, None));
    }
    let copts = compile_options(args, scale)?;
    let (graph, report) = compile(&raw, &copts).map_err(|e| format!("compile: {e}"))?;
    let diags = edgenn_check::check_compiled(&raw, &graph, &report);
    if !diags.is_empty() {
        let mut msg = format!(
            "graph compiler produced an illegal rewrite of {} ({} finding(s)):\n",
            raw.name(),
            diags.len()
        );
        for d in &diags {
            msg.push_str(&format!("  {d}\n"));
        }
        return Err(msg.into());
    }
    Ok((graph, Some(report)))
}

/// Builds `--model` at `--scale` and compiles it (see [`compile_loaded`]).
fn load_model(args: &Args) -> Result<Loaded> {
    let model = parse_model(args.require("model")?)?;
    let scale = parse_scale(args)?;
    compile_loaded(args, scale, build(model, scale))
}

/// Mirrors a compile report into the recorder as `CompilerPass` events
/// (one per pass, aggregated across fixpoint iterations, plus one for
/// the prepack stage), so compiler work shows up in exported metrics
/// next to the engine counters.
fn emit_compiler_events(rec: &Recorder, report: &CompileReport) {
    let mut totals: Vec<(&'static str, u64, u64)> = Vec::new();
    for p in &report.passes {
        let eliminated = p.nodes_before.saturating_sub(p.nodes_after) as u64;
        match totals.iter_mut().find(|(name, _, _)| *name == p.pass) {
            Some((_, applied, nodes)) => {
                *applied += p.rewrites as u64;
                *nodes += eliminated;
            }
            None => totals.push((p.pass, p.rewrites as u64, eliminated)),
        }
    }
    for (pass, applied, nodes_eliminated) in totals {
        rec.emit(SinkEvent::CompilerPass {
            pass,
            applied,
            nodes_eliminated,
            bytes_prepacked: 0,
        });
    }
    if report.prepacked_nodes > 0 {
        rec.emit(SinkEvent::CompilerPass {
            pass: "prepack",
            applied: report.prepacked_nodes as u64,
            nodes_eliminated: 0,
            bytes_prepacked: report.prepacked_bytes,
        });
    }
}

fn cmd_simulate(args: &Args) -> Result<()> {
    let (graph, compile_report) = load_model(args)?;
    let platform = parse_platform(args.require("platform")?)?;
    let config = args::resolve_config(args)?;

    let obs = ObsOutputs::from_args(args, graph.name(), &platform, args.require("config")?);
    if let (Some(rec), Some(report)) = (&obs.recorder, &compile_report) {
        emit_compiler_events(rec, report);
    }
    let runtime = obs.runtime(&platform);
    let mut tuner = Tuner::new(&graph, &runtime)?;
    let plan = if obs.recorder.is_some() {
        // Run the adaptive loop so the EMA counter tracks and the plan
        // regeneration markers appear in the exported trace.
        let (plan, _) = tuner.adapt(&graph, &runtime, config, 3, 0.05)?;
        plan
    } else {
        tuner.plan(&graph, &runtime, config)?
    };
    let decisions = tuner.explain(&graph, &runtime, &plan)?;

    if let Some(spec) = args.value("faults") {
        let faults = parse_faults(spec, graph.len())?;
        let rcfg = resilience_config(args)?;
        let outcome = runtime.simulate_with_faults(&graph, &plan, &faults, &rcfg)?;
        let report = outcome.report.with_decisions(decisions);
        obs.write_trace(&report.events)?;
        obs.write_metrics()?;
        if args.has("json") {
            let json = object([
                ("report", serde_json::to_value(&report)?),
                ("recovery", serde_json::to_value(&outcome.recovery)?),
            ]);
            println!("{}", serde_json::to_string_pretty(&json)?);
            return Ok(());
        }
        println!(
            "{} on {} under fault injection ({})",
            report.model,
            report.platform,
            faults.describe()
        );
        println!(
            "  latency      : {:.3} ms (degraded)",
            report.total_us / 1e3
        );
        let rec = &outcome.recovery;
        println!("  injected     : {} fault(s)", rec.faults_injected);
        println!(
            "  recovery     : {} retrie(s), {} fallback(s), {} deadline degradation(s)",
            rec.retries, rec.fallbacks, rec.deadline_degradations
        );
        if rec.gpu_lost {
            println!("  gpu          : lost (permanent kernel fault; suffix fell back to CPU)");
        }
        for event in &rec.events {
            println!(
                "    t={:>9.1} us  n{:<3} {:?} -> {:?} (attempt {})",
                event.t_us, event.node, event.cause, event.action, event.attempt
            );
        }
        return Ok(());
    }

    let report = runtime.simulate(&graph, &plan)?.with_decisions(decisions);

    obs.write_trace(&report.events)?;
    if obs.metrics_out.is_some() {
        // A short serving run feeds the request-latency histogram so the
        // snapshot carries meaningful p50/p95/p99.
        runtime.simulate_stream(&graph, &plan, 32)?;
    }
    obs.write_metrics()?;

    if args.has("json") {
        println!("{}", serde_json::to_string_pretty(&report)?);
        return Ok(());
    }

    println!("{} on {}", report.model, report.platform);
    println!("  latency      : {:.3} ms", report.total_us / 1e3);
    println!("  avg power    : {:.2} W", report.energy.avg_power_w);
    println!(
        "  energy       : {:.3} mJ/inference",
        report.energy.energy_mj
    );
    println!(
        "  utilization  : CPU {:.0}% / GPU {:.0}%",
        report.energy.cpu_utilization * 100.0,
        report.energy.gpu_utilization * 100.0
    );
    println!(
        "  breakdown    : kernel {:.0} us, copies {:.0} us, migrations {:.0} us, \
         thrash {:.0} us, sync {:.0} us",
        report.summary.kernel_us,
        report.summary.copy_us,
        report.summary.migration_us,
        report.summary.thrash_us,
        report.summary.sync_us
    );
    println!(
        "  plan         : {} co-run layers, {} zero-copy arrays",
        plan.corun_count(),
        plan.managed_count()
    );
    let footprint = edgenn_core::footprint::footprint(&graph, &plan)?;
    println!(
        "  memory       : {:.1} MiB peak ({:.1} MiB weights + {:.1} MiB activations)",
        footprint.peak_mib(),
        footprint.weight_bytes as f64 / (1 << 20) as f64,
        footprint.peak_activation_bytes as f64 / (1 << 20) as f64
    );
    if args.has("layers") {
        println!(
            "\n  {:<22} {:>12} {:>10} {:>10}  assignment",
            "layer", "start us", "kernel", "memory"
        );
        for layer in &report.layers {
            println!(
                "  {:<22} {:>12.1} {:>10.1} {:>10.1}  {:?}",
                layer.name, layer.start_us, layer.kernel_us, layer.memory_us, layer.assignment
            );
        }
    }
    Ok(())
}

/// Compact rendering of an assignment for the decision tables.
fn assignment_cell(assignment: &edgenn_core::plan::Assignment) -> String {
    use edgenn_core::plan::Assignment;
    match assignment {
        Assignment::Cpu => "cpu".to_string(),
        Assignment::Gpu => "gpu".to_string(),
        Assignment::Split { cpu_fraction } => {
            format!("split {:.0}%c", cpu_fraction * 100.0)
        }
        Assignment::SplitInput { cpu_fraction } => {
            format!("split-in {:.0}%c", cpu_fraction * 100.0)
        }
    }
}

fn cmd_explain(args: &Args) -> Result<()> {
    let (graph, compile_report) = load_model(args)?;
    let platform = parse_platform(args.require("platform")?)?;
    let config = args::resolve_config(args)?;

    let runtime = Runtime::new(&platform);
    let tuner = Tuner::new(&graph, &runtime)?;
    let plan = tuner.plan(&graph, &runtime, config)?;
    let report = runtime.simulate(&graph, &plan)?;
    let rows = tuner.explain(&graph, &runtime, &plan)?;

    if args.has("json") {
        println!("{}", serde_json::to_string_pretty(&rows)?);
        return Ok(());
    }

    // Simulated per-layer wall time, keyed by node id.
    let mut simulated = vec![f64::NAN; graph.len()];
    for layer in &report.layers {
        simulated[layer.node] = layer.total_us();
    }

    println!(
        "{} on {} — per-layer tuner decisions",
        graph.name(),
        platform.name
    );
    println!(
        "{:<22} {:<6} {:<13} {:>11} {:>11} {:<9}  rationale",
        "layer", "class", "assignment", "predicted", "simulated", "memory"
    );
    for row in &rows {
        let sim = simulated
            .get(row.node)
            .copied()
            .filter(|t| t.is_finite())
            .map_or_else(|| "—".to_string(), |t| format!("{t:.1}"));
        println!(
            "{:<22} {:<6} {:<13} {:>11.1} {:>11} {:<9}  {}",
            row.name,
            row.class,
            assignment_cell(&row.assignment),
            row.predicted_us,
            sim,
            row.output_alloc.to_string(),
            row.rationale
        );
    }
    println!(
        "\ntotal: predicted {:.1} us over {} layers, simulated end-to-end {:.1} us",
        rows.iter().map(|r| r.predicted_us).sum::<f64>(),
        rows.len(),
        report.total_us
    );
    if let Some(c) = &compile_report {
        println!(
            "compiler: {} -> {} nodes ({} pass rewrite(s) over {} iteration(s), \
             {} node(s) / {} byte(s) prepacked)",
            c.nodes_pre,
            c.nodes_post,
            c.passes.iter().map(|p| p.rewrites).sum::<usize>(),
            c.iterations,
            c.prepacked_nodes,
            c.prepacked_bytes
        );
    }
    Ok(())
}

fn cmd_plan(args: &Args) -> Result<()> {
    let (graph, _) = load_model(args)?;
    let platform = parse_platform(args.require("platform")?)?;
    let config = args::resolve_config(args)?;
    let runtime = Runtime::new(&platform);
    let tuner = Tuner::new(&graph, &runtime)?;
    let plan = tuner.plan(&graph, &runtime, config)?;
    if args.has("explain") {
        let rows = tuner.explain(&graph, &runtime, &plan)?;
        println!(
            "{:<24} {:<8} {:>12} {:>12}  decision",
            "layer", "class", "t_cpu us", "t_gpu us"
        );
        for row in rows {
            println!(
                "{:<24} {:<8} {:>12.1} {:>12.1}  {} / {}",
                row.name,
                row.class,
                row.t_cpu_us,
                row.t_gpu_us,
                assignment_cell(&row.assignment),
                row.output_alloc
            );
        }
        return Ok(());
    }
    println!("{}", serde_json::to_string_pretty(&plan)?);
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<()> {
    let (graph, _) = load_model(args)?;
    let platform = parse_platform(args.require("platform")?)?;
    let obs = ObsOutputs::from_args(args, graph.name(), &platform, "all");
    let runtime = obs.runtime(&platform);
    let tuner = Tuner::new(&graph, &runtime)?;

    let configs: &[(&str, ExecutionConfig)] = &[
        ("baseline (gpu, explicit)", ExecutionConfig::baseline_gpu()),
        ("memory-only (zero-copy)", ExecutionConfig::memory_only()),
        ("hybrid-only (explicit)", ExecutionConfig::hybrid_only()),
        ("inter-kernel only", ExecutionConfig::inter_kernel_only()),
        ("edgenn", ExecutionConfig::edgenn()),
        (
            "edgenn (energy-aware)",
            ExecutionConfig::edgenn_energy_aware(),
        ),
        ("cpu-only", ExecutionConfig::cpu_only()),
    ];

    println!("{} on {}", graph.name(), platform.name);
    println!(
        "{:<26} {:>12} {:>10} {:>12}",
        "config", "latency ms", "power W", "energy mJ"
    );
    let mut baseline_us = None;
    let mut traced_events: Option<Vec<edgenn_sim::TraceEvent>> = None;
    for (name, config) in configs {
        if !platform.has_gpu() && *name != "cpu-only" {
            continue;
        }
        let plan = tuner.plan(&graph, &runtime, *config)?;
        let report = runtime.simulate(&graph, &plan)?;
        // Trace the headline edgenn run (or the first run when edgenn
        // never executes, e.g. on CPU-only platforms).
        if traced_events.is_none() || *name == "edgenn" {
            traced_events = Some(report.events.clone());
        }
        let delta = match baseline_us {
            None => {
                baseline_us = Some(report.total_us);
                String::new()
            }
            Some(base) => format!(
                "  ({:+.1}% vs baseline)",
                (report.total_us - base) / base * 100.0
            ),
        };
        println!(
            "{:<26} {:>12.3} {:>10.2} {:>12.3}{delta}",
            name,
            report.total_us / 1e3,
            report.energy.avg_power_w,
            report.energy.energy_mj
        );
    }
    if let Some(events) = &traced_events {
        obs.write_trace(events)?;
    }
    obs.write_metrics()?;
    Ok(())
}

fn cmd_check(args: &Args) -> Result<()> {
    let (graph, _) = load_model(args)?;
    let platform = parse_platform(args.require("platform")?)?;
    let config = args::resolve_config(args)?;

    let mut report = edgenn_check::CheckReport::default();

    // Tier A: the graph itself.
    report.extend(edgenn_check::check_graph(&graph));

    // Tier B: the profile the tuner plans from, then the plan it emits.
    let runtime = Runtime::new(&platform);
    let tuner = Tuner::new(&graph, &runtime)?;
    report.extend(edgenn_check::check_profile(tuner.stats()));
    let plan = tuner.plan(&graph, &runtime, config)?;
    report.extend(edgenn_check::check_plan(&graph, &plan, &platform));

    // Tier C: one simulated inference, its trace through the
    // happens-before detector, and the report's accounting invariants.
    let sim_report = runtime.simulate(&graph, &plan)?;
    report.extend(edgenn_check::check_trace_events(
        &sim_report.events,
        &platform,
    ));
    report.extend(edgenn_check::check_report(&sim_report));

    if args.has("lenient") {
        report.downgrade_accounting();
    }

    if args.has("json") {
        println!("{}", serde_json::to_string_pretty(&report.to_json())?);
    } else {
        print!("{}", report.render_table());
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "check failed: {} error(s) on {} x {}",
            report.error_count(),
            graph.name(),
            platform.name
        )
        .into())
    }
}

fn cmd_compile(args: &Args) -> Result<()> {
    let model = parse_model(args.require("model")?)?;
    let scale = parse_scale(args)?;
    let raw = build(model, scale);
    let copts = compile_options(args, scale)?;
    let (compiled, report) = compile(&raw, &copts).map_err(|e| format!("compile: {e}"))?;

    // Re-verify the rewrite: EC06x legality, then the full tier-A graph
    // check on the result.
    let mut check = edgenn_check::CheckReport::default();
    check.extend(edgenn_check::check_compiled(&raw, &compiled, &report));
    check.extend(edgenn_check::check_graph(&compiled));

    // With a platform, the compiled graph must also plan cleanly (tier B).
    let platform = args.value("platform").map(parse_platform).transpose()?;
    if let Some(p) = &platform {
        let config = args::resolve_config(args)?;
        let runtime = Runtime::new(p);
        let tuner = Tuner::new(&compiled, &runtime)?;
        check.extend(edgenn_check::check_profile(tuner.stats()));
        let plan = tuner.plan(&compiled, &runtime, config)?;
        check.extend(edgenn_check::check_plan(&compiled, &plan, p));
    }

    if args.has("json") || args.value("out").is_some() {
        let passes = report.passes.iter().map(|p| {
            object([
                ("pass", p.pass.into()),
                ("iteration", p.iteration.into()),
                ("nodes_before", p.nodes_before.into()),
                ("nodes_after", p.nodes_after.into()),
                ("edges_before", p.edges_before.into()),
                ("edges_after", p.edges_after.into()),
                ("rewrites", p.rewrites.into()),
            ])
        });
        let platform = platform.as_ref().map(|p| p.name.as_str());
        let json = object([
            ("model", raw.name().into()),
            ("platform", platform.map_or(Value::Null, Value::from)),
            ("scale", args.require("scale")?.into()),
            ("nodes_pre", report.nodes_pre.into()),
            ("nodes_post", report.nodes_post.into()),
            ("edges_pre", report.edges_pre.into()),
            ("edges_post", report.edges_post.into()),
            ("iterations", report.iterations.into()),
            ("prepacked_bytes", report.prepacked_bytes.into()),
            ("prepacked_nodes", report.prepacked_nodes.into()),
            ("passes", Value::Array(passes.collect())),
            ("check", check.to_json()),
            ("clean", check.is_clean().into()),
        ]);
        emit_report(args, "compile report", &json)?;
    } else {
        println!(
            "{} ({}) — compiled in {} iteration(s): {} -> {} nodes, {} -> {} edges",
            raw.name(),
            args.require("scale")?,
            report.iterations,
            report.nodes_pre,
            report.nodes_post,
            report.edges_pre,
            report.edges_post
        );
        println!(
            "{:<18} {:>5} {:>12} {:>12} {:>9}",
            "pass", "iter", "nodes", "edges", "rewrites"
        );
        for p in &report.passes {
            println!(
                "{:<18} {:>5} {:>5} -> {:<4} {:>5} -> {:<4} {:>9}",
                p.pass,
                p.iteration,
                p.nodes_before,
                p.nodes_after,
                p.edges_before,
                p.edges_after,
                p.rewrites
            );
        }
        println!(
            "prepack: {} node(s), {} byte(s) packed into kernel layouts",
            report.prepacked_nodes, report.prepacked_bytes
        );
        if !check.diagnostics.is_empty() {
            print!("{}", check.render_table());
        }
        if args.has("dump") {
            print!("\n{}", compiled.summary());
        }
    }

    if check.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "compile verification failed: {} error(s) on {}",
            check.error_count(),
            raw.name()
        )
        .into())
    }
}

fn cmd_analyze(args: &Args) -> Result<()> {
    use edgenn_core::runtime::sched_explore;

    let (graph, _) = load_model(args)?;
    let platform = parse_platform(args.require("platform")?)?;
    let config = args::resolve_config(args)?;

    let runtime = Runtime::new(&platform);
    let tuner = Tuner::new(&graph, &runtime)?;
    let plan = tuner.plan(&graph, &runtime, config)?;

    // Tier D: static ownership/liveness over the lowered schedule.
    let report = edgenn_check::check_ownership(&graph, &plan, &platform);

    // Pool schedule explorer: every interleaving of the scenario matrix.
    let matrix = sched_explore::default_matrix();
    let mut interleavings = 0u64;
    let mut states = 0u64;
    let mut explorer_violations: Vec<String> = Vec::new();
    for cfg in &matrix {
        let result = sched_explore::explore(cfg);
        interleavings += result.interleavings;
        states += result.states;
        if !result.is_clean() {
            explorer_violations.push(format!("{cfg:?}: {:?}", result.violations));
        }
    }

    // Optional conformance gate: the real engine's measured high-water
    // marks must stay under the certified bound.
    let functional = if args.has("functional") {
        let input = edgenn_tensor::Tensor::random(graph.input_shape().dims(), 1.0, 7);
        let outcome = edgenn_core::runtime::functional::execute(&graph, &plan, &input)?;
        let measured_slot = outcome.engine.slot_bytes;
        let measured_arena = outcome.engine.arena_fresh_bytes;
        let conforms =
            measured_slot <= report.bound.slot_bytes && measured_arena <= report.bound.arena_bytes;
        Some((measured_slot, measured_arena, conforms))
    } else {
        None
    };

    let explorer_clean = explorer_violations.is_empty();
    let measured_conforms = functional.is_none_or(|(_, _, ok)| ok);

    if args.has("json") {
        let explorer = object([
            ("scenarios", matrix.len().into()),
            ("interleavings", interleavings.into()),
            ("states", states.into()),
            ("violations", serde_json::to_value(&explorer_violations)?),
            ("clean", explorer_clean.into()),
        ]);
        let mut fields = vec![
            ("model", graph.name().into()),
            ("platform", platform.name.as_str().into()),
            ("config", args.require("config")?.into()),
            ("scale", args.require("scale")?.into()),
            ("ownership", serde_json::to_value(&report)?),
            ("clean", report.is_clean().into()),
            ("explorer", explorer),
        ];
        if let Some((slot, arena, conforms)) = functional {
            let functional = object([
                ("measured_slot_bytes", slot.into()),
                ("measured_arena_fresh_bytes", arena.into()),
                ("certified_slot_bytes", report.bound.slot_bytes.into()),
                ("certified_arena_bytes", report.bound.arena_bytes.into()),
                ("conforms", conforms.into()),
            ]);
            fields.push(("functional", functional));
        }
        let json = object(fields);
        println!("{}", serde_json::to_string_pretty(&json)?);
    } else {
        println!(
            "{} on {} — tier-D ownership/liveness analysis ({} abstract ops)",
            graph.name(),
            platform.name,
            report.ops
        );
        print!("{}", report.render_table(&graph));
        let margin = platform.dram_bytes.saturating_sub(report.bound.total_bytes);
        println!(
            "dram margin   : {:.1} MiB of {:.1} MiB free under the certified bound",
            margin as f64 / (1 << 20) as f64,
            platform.dram_bytes as f64 / (1 << 20) as f64
        );
        for d in &report.diagnostics {
            println!("  {d}");
        }
        println!(
            "pool explorer : {} scenario(s), {} interleaving(s), {} state(s): {}",
            matrix.len(),
            interleavings,
            states,
            if explorer_clean {
                "all invariants hold".to_string()
            } else {
                format!("{} violation(s)", explorer_violations.len())
            }
        );
        for v in &explorer_violations {
            println!("  {v}");
        }
        if let Some((slot, arena, conforms)) = functional {
            println!(
                "functional    : measured slots {} / certified {}, measured arena {} / \
                 certified {} — {}",
                slot,
                report.bound.slot_bytes,
                arena,
                report.bound.arena_bytes,
                if conforms {
                    "measured \u{2264} certified"
                } else {
                    "MEASURED EXCEEDS CERTIFIED"
                }
            );
        }
    }

    if report.is_clean() && explorer_clean && measured_conforms {
        Ok(())
    } else {
        Err(format!(
            "analyze failed on {} x {}: {} EC05x error(s), {} explorer violation(s){}",
            graph.name(),
            platform.name,
            report
                .diagnostics
                .iter()
                .filter(|d| d.severity == edgenn_check::Severity::Error)
                .count(),
            explorer_violations.len(),
            if measured_conforms {
                String::new()
            } else {
                ", measured footprint exceeded the certified bound".to_string()
            }
        )
        .into())
    }
}

/// Resolves a `--faults` argument: a bare integer is a seed for a
/// reproducible random plan, anything else goes through the spec
/// grammar (see `FaultPlan::parse`).
fn parse_faults(spec: &str, nodes: usize) -> Result<edgenn_sim::FaultPlan> {
    if let Ok(seed) = spec.parse::<u64>() {
        return Ok(edgenn_sim::FaultPlan::from_seed(seed, nodes));
    }
    Ok(edgenn_sim::FaultPlan::parse(spec)?)
}

/// Builds the resilience policy from `--max-retries` / `--deadline-us`.
fn resilience_config(args: &Args) -> Result<ResilienceConfig> {
    let mut cfg = ResilienceConfig::default();
    if args.has("max-retries") {
        cfg.max_retries = args.get("max-retries")?;
    }
    if args.has("deadline-us") {
        cfg.deadline_us = Some(args.get("deadline-us")?);
    }
    Ok(cfg)
}

/// One surviving storm round: the degraded analytic latency plus its
/// recovery accounting.
struct StormRun {
    total_us: f64,
    recovery: edgenn_core::runtime::resilience::RecoveryLog,
}

/// Per-model inputs a storm round runs against: the paper-scale graph
/// and plan for the analytic path, and a tiny-scale functional twin
/// with its fault-free reference output for the bitwise-identity gate.
struct StormSetup {
    graph: Graph,
    plan: ExecutionPlan,
    clean_us: f64,
    tiny: Graph,
    tiny_plan: ExecutionPlan,
    input: edgenn_tensor::Tensor,
    reference: edgenn_tensor::Tensor,
}

/// Plans one model at both scales and computes the fault-free
/// functional reference the storm's bitwise gate compares against.
fn storm_setup(
    kind: ModelKind,
    runtime: &Runtime<'_>,
    config: ExecutionConfig,
    seed: u64,
) -> Result<StormSetup> {
    let graph = build(kind, ModelScale::Paper);
    let tuner = Tuner::new(&graph, runtime)?;
    let plan = tuner.plan(&graph, runtime, config)?;
    let clean_us = runtime.simulate(&graph, &plan)?.total_us;

    let tiny = build(kind, ModelScale::Tiny);
    let tiny_tuner = Tuner::new(&tiny, runtime)?;
    let tiny_plan = tiny_tuner.plan(&tiny, runtime, config)?;
    let input = edgenn_tensor::Tensor::random(tiny.input_shape().dims(), 1.0, seed);
    let reference = edgenn_core::runtime::functional::execute(&tiny, &tiny_plan, &input)?.output;
    Ok(StormSetup {
        graph,
        plan,
        clean_us,
        tiny,
        tiny_plan,
        input,
        reference,
    })
}

/// Verbosely re-runs exactly one storm round — the seed usually pasted
/// from a summary's `failed_seeds` — and exits with its outcome.
fn storm_replay(
    kinds: &[ModelKind],
    platform: &Platform,
    runtime: &Runtime<'_>,
    config: ExecutionConfig,
    rcfg: &ResilienceConfig,
    base_seed: u64,
    replay_seed: u64,
) -> Result<()> {
    println!(
        "storm replay: seed {replay_seed} on {}, retry budget {}",
        platform.name, rcfg.max_retries
    );
    let mut failures: Vec<String> = Vec::new();
    for kind in kinds {
        let setup = storm_setup(*kind, runtime, config, base_seed)?;
        match storm_run(&setup, platform, runtime, replay_seed, rcfg) {
            Ok(run) => println!(
                "{:<12} ok: {:.3} ms degraded ({:.3} ms clean), {} fault(s), {} retr(y/ies), \
                 {} fallback(s), {} deadline degradation(s)",
                kind.name(),
                run.total_us / 1e3,
                setup.clean_us / 1e3,
                run.recovery.faults_injected,
                run.recovery.retries,
                run.recovery.fallbacks,
                run.recovery.deadline_degradations,
            ),
            Err(why) => {
                println!("{:<12} FAILED: {why}", kind.name());
                failures.push(format!("{} seed {replay_seed}: {why}", kind.name()));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("replay failed:\n  {}", failures.join("\n  ")).into())
    }
}

/// Executes one seeded storm round: analytic fault injection gated by
/// the checker (trace races, report accounting, EC04x recovery log),
/// then a functional execution that must reproduce the fault-free
/// output bit for bit.
fn storm_run(
    target: &StormSetup,
    platform: &Platform,
    runtime: &Runtime<'_>,
    run_seed: u64,
    rcfg: &ResilienceConfig,
) -> Result<StormRun> {
    let faults = edgenn_sim::FaultPlan::from_seed(run_seed, target.graph.len());
    let outcome = runtime
        .simulate_with_faults(&target.graph, &target.plan, &faults, rcfg)
        .map_err(|e| format!("analytic: {e}"))?;

    let mut check = edgenn_check::CheckReport::default();
    check.extend(edgenn_check::check_trace_events(
        &outcome.report.events,
        platform,
    ));
    check.extend(edgenn_check::check_report(&outcome.report));
    check.extend(edgenn_check::check_recovery(&outcome.recovery));
    if !check.is_clean() {
        let codes: Vec<&str> = check
            .diagnostics
            .iter()
            .filter(|d| d.severity == edgenn_check::Severity::Error)
            .map(|d| d.code)
            .collect();
        return Err(format!(
            "checker: {} error(s): {}",
            check.error_count(),
            codes.join(" ")
        )
        .into());
    }

    let tiny_faults = edgenn_sim::FaultPlan::from_seed(run_seed, target.tiny.len());
    let injector = edgenn_core::runtime::functional::FaultInjector::from_plan(
        &tiny_faults,
        target.tiny.len(),
        rcfg.max_retries,
    );
    let functional = edgenn_core::runtime::functional::Executor::new(&target.tiny)?
        .with_faults(injector)
        .execute(&target.tiny_plan, &target.input)
        .map_err(|e| format!("functional: {e}"))?;
    if !functional.output.approx_eq(&target.reference, 0.0) {
        return Err("functional output diverged from the fault-free reference".into());
    }

    Ok(StormRun {
        total_us: outcome.report.total_us,
        recovery: outcome.recovery,
    })
}

/// Percentile over a sorted latency sample (nearest-rank).
fn percentile_us(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs the functional engine under the flight recorder and reports the
/// measured timeline next to the analytic prediction.
fn cmd_profile(args: &Args) -> Result<()> {
    use edgenn_core::runtime::functional::Executor;
    use edgenn_obs::flight;
    use edgenn_tensor::Tensor;

    let (graph, _) = load_model(args)?;
    let platform = parse_platform(args.require("platform")?)?;
    let config = args::resolve_config(args)?;
    let runs: usize = args.get("runs")?;
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }

    // Predicted timeline: the analytic simulator on the target platform.
    let runtime = Runtime::new(&platform);
    let tuner = Tuner::new(&graph, &runtime)?;
    let plan = tuner.plan(&graph, &runtime, config)?;
    let predicted = runtime.simulate(&graph, &plan)?;

    // Measured timeline: real functional runs with the recorder on.
    // One warm-up populates the scratch arena and the worker pool, then
    // the fastest of `runs` recorded requests is kept.
    flight::enable();
    let executor = Executor::new(&graph)?;
    let input = Tensor::random(graph.input_shape().dims(), 1.0, 7);
    executor.execute(&plan, &input)?;
    let mut kept: Option<(Vec<flight::SpanRecord>, flight::SpanRecord, ProfileSummary)> = None;
    for _ in 0..runs {
        let marker = flight::mark();
        let outcome = executor.execute(&plan, &input)?;
        let records = flight::drain_since(&marker);
        let root = records
            .iter()
            .filter(|r| r.kind == flight::SpanKind::Request)
            .max_by_key(|r| r.id)
            .copied()
            .ok_or("the recorder captured no request span (ring overflow?)")?;
        let wall = root.end_ns - root.start_ns;
        if kept
            .as_ref()
            .is_none_or(|(_, best, _)| wall < best.end_ns - best.start_ns)
        {
            let slice = flight::causal_slice(&records, root.id);
            let profile = outcome.engine.profile.clone().unwrap_or_default();
            kept = Some((slice, root, profile));
        }
    }
    let (slice, root, profile) = kept.expect("runs >= 1 always keeps a request");
    let wall_us = (root.end_ns - root.start_ns) as f64 / 1e3;

    // Gate: the measured spans must satisfy the same tier-C invariants
    // the simulator's traces are held to.
    let diags = edgenn_check::check_flight_records(&slice);
    if !diags.is_empty() {
        let mut msg = format!(
            "recorded timeline failed the tier-C flight check ({} finding(s)):\n",
            diags.len()
        );
        for d in &diags {
            msg.push_str(&format!("  {d}\n"));
        }
        return Err(msg.into());
    }

    let mut nodes = edgenn_obs::flight::node_profiles(&slice);
    nodes.sort_by_key(|n| n.node);
    let layer_of = |node: u32| {
        predicted
            .layers
            .iter()
            .find(|l| l.node == node as usize)
            .map(|l| (l.name.clone(), l.kernel_us + l.memory_us))
    };

    if let Some(path) = args.value("perfetto") {
        // One trace holding the simulated timeline (pid 1, its counter
        // tracks on pid 1/2) next to the measured flight recording (pid
        // 3, one thread row per worker).
        let mut entries = timeline_entries(&predicted.events, &[]);
        entries.push(TraceEntry::process_name(1, "simulated (analytic model)"));
        entries.push(TraceEntry::process_name(3, "measured (flight recorder)"));
        let name_of = |n: u32| {
            graph.nodes().get(n as usize).map_or_else(
                || format!("n{n}"),
                |node| format!("n{n} {}", node.layer().name()),
            )
        };
        entries.extend(flight::trace_entries(&slice, 3, root.start_ns, &name_of));
        let written = chrome::write(path, &entries)?;
        let measured_spans = chrome::span_count(&written, 3);
        if measured_spans == 0 {
            return Err(format!("{path}: no measured spans made it into the trace").into());
        }
        eprintln!(
            "merged trace written to {path} ({} entries, {measured_spans} measured spans; load in Perfetto)",
            written.len()
        );
    }

    if args.has("json") {
        let node_values = nodes
            .iter()
            .map(|n| {
                let mut v = n.to_value();
                if let Value::Object(map) = &mut v {
                    if let Some((name, predicted_us)) = layer_of(n.node) {
                        map.insert("layer", Value::from(name));
                        map.insert("predicted_us", Value::from(predicted_us));
                    }
                }
                v
            })
            .collect();
        let json = object([
            ("model", graph.name().into()),
            ("platform", platform.name.as_str().into()),
            ("config", args.require("config")?.into()),
            ("scale", args.require("scale")?.into()),
            ("runs", runs.into()),
            ("wall_us", wall_us.into()),
            ("predicted_total_us", predicted.total_us.into()),
            ("flight_check", "clean".into()),
            ("profile", profile.to_value()),
            ("nodes", Value::Array(node_values)),
        ]);
        println!("{}", serde_json::to_string_pretty(&json)?);
        return Ok(());
    }

    println!(
        "profiled {} ({}) on {} — {} run(s), fastest request {:.1} us",
        graph.name(),
        args.require("scale")?,
        platform.name,
        runs,
        wall_us
    );
    println!(
        "flight check : clean ({} spans, {} dropped this session)",
        profile.span_count, profile.dropped
    );
    println!(
        "\n  {:<12} {:>6} {:>12} {:>10} {:>10} {:>10}",
        "stage", "count", "total us", "p50 us", "p99 us", "max us"
    );
    for stage in &profile.stages {
        println!(
            "  {:<12} {:>6} {:>12.1} {:>10.1} {:>10.1} {:>10.1}",
            stage.stage, stage.count, stage.total_us, stage.p50_us, stage.p99_us, stage.max_us
        );
    }
    println!(
        "\n  predicted = analytic model of {}; measured = host functional engine",
        platform.name
    );
    println!(
        "  node  layer                  predicted us  measured us   pack us compute us  merge us  queue us"
    );
    for n in &nodes {
        let (name, predicted_us) =
            layer_of(n.node).unwrap_or_else(|| (format!("n{}", n.node), 0.0));
        println!(
            "  {:<5} {:<22} {:>12.1} {:>12.1} {:>9.1} {:>10.1} {:>9.1} {:>9.1}",
            n.node,
            name,
            predicted_us,
            n.wall_us,
            n.pack_us,
            n.compute_us,
            n.merge_us,
            n.queue_wait_us
        );
    }
    Ok(())
}

fn cmd_storm(args: &Args) -> Result<()> {
    let platform = parse_platform(args.require("platform")?)?;
    let config = if platform.has_gpu() {
        args::resolve_config(args)?
    } else {
        // Hybrid configs cannot plan without a GPU; a CPU-only storm
        // still exercises the window and OOM fault classes.
        ExecutionConfig::cpu_only()
    };
    let seed: u64 = args.get("seed")?;
    let runs: usize = args.get("runs")?;
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    let rcfg = resilience_config(args)?;
    let inject = args
        .has("inject-failure")
        .then(|| args.get::<usize>("inject-failure"));
    let inject = inject.transpose()?;
    let kinds: Vec<ModelKind> = match args.require("model")? {
        "all" => ModelKind::ALL.to_vec(),
        name => vec![parse_model(name)?],
    };

    let runtime = Runtime::new(&platform);
    if args.has("replay-seed") {
        let replay: u64 = args.get("replay-seed")?;
        return storm_replay(&kinds, &platform, &runtime, config, &rcfg, seed, replay);
    }
    let json_wanted = args.has("json");
    if !json_wanted {
        println!(
            "fault storm: {runs} run(s)/model on {}, base seed {seed}, retry budget {}",
            platform.name, rcfg.max_retries
        );
        println!(
            "{:<12} {:>9} {:>9} {:>11} {:>11} {:>8} {:>10}",
            "model", "survived", "injected", "clean ms", "p99 ms", "retries", "fallbacks"
        );
    }

    let mut model_values = Vec::new();
    let mut total_runs = 0usize;
    let mut total_survived = 0usize;
    let mut first_failures: Vec<String> = Vec::new();
    for kind in kinds {
        let setup = storm_setup(kind, &runtime, config, seed)?;
        let clean_us = setup.clean_us;

        let mut latencies: Vec<f64> = Vec::with_capacity(runs);
        let mut survived = 0usize;
        let (mut injected, mut retries, mut fallbacks, mut degradations) = (0u64, 0u64, 0u64, 0u64);
        let mut failures: Vec<String> = Vec::new();
        let mut failed_seeds: Vec<u64> = Vec::new();
        let mut degraded_seeds: Vec<u64> = Vec::new();
        for i in 0..runs {
            let run_seed = seed.wrapping_add(i as u64);
            if inject == Some(i) {
                failures.push(format!(
                    "{} seed {run_seed}: forced failure (--inject-failure {i})",
                    kind.name()
                ));
                failed_seeds.push(run_seed);
                continue;
            }
            match storm_run(&setup, &platform, &runtime, run_seed, &rcfg) {
                Ok(run) => {
                    survived += 1;
                    latencies.push(run.total_us);
                    injected += run.recovery.faults_injected;
                    retries += run.recovery.retries;
                    fallbacks += run.recovery.fallbacks;
                    degradations += run.recovery.deadline_degradations;
                    if run.recovery.deadline_degradations > 0 {
                        degraded_seeds.push(run_seed);
                    }
                }
                Err(why) => {
                    failures.push(format!("{} seed {run_seed}: {why}", kind.name()));
                    failed_seeds.push(run_seed);
                }
            }
        }
        total_runs += runs;
        total_survived += survived;
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let p50 = percentile_us(&latencies, 0.50);
        let p99 = percentile_us(&latencies, 0.99);

        if !json_wanted {
            println!(
                "{:<12} {:>6}/{:<2} {:>9} {:>11.3} {:>11.3} {:>8} {:>10}",
                kind.name(),
                survived,
                runs,
                injected,
                clean_us / 1e3,
                p99 / 1e3,
                retries,
                fallbacks
            );
        }
        first_failures.extend(failures.iter().take(3).cloned());

        model_values.push(object([
            ("model", kind.name().into()),
            ("runs", runs.into()),
            ("survived", survived.into()),
            ("survival_rate", (survived as f64 / runs as f64).into()),
            ("clean_us", clean_us.into()),
            ("p50_degraded_us", p50.into()),
            ("p99_degraded_us", p99.into()),
            ("faults_injected", injected.into()),
            ("retries", retries.into()),
            ("fallbacks", fallbacks.into()),
            ("deadline_degradations", degradations.into()),
            ("failures", serde_json::to_value(&failures)?),
            // Seeds are the replay currency: paste any of these into
            // `edgenn storm --replay-seed N` to reproduce the round.
            ("failed_seeds", serde_json::to_value(&failed_seeds)?),
            ("degraded_seeds", serde_json::to_value(&degraded_seeds)?),
        ]));
    }

    let survival_rate = total_survived as f64 / total_runs as f64;
    let summary = object([
        ("platform", platform.name.as_str().into()),
        ("seed", seed.into()),
        ("runs_per_model", runs.into()),
        ("max_retries", rcfg.max_retries.into()),
        ("total_runs", total_runs.into()),
        ("total_survived", total_survived.into()),
        ("survival_rate", survival_rate.into()),
        ("models", Value::Array(model_values)),
    ]);
    emit_report(args, "storm summary", &summary)?;
    if !json_wanted {
        println!(
            "survival: {total_survived}/{total_runs} ({:.1}%)",
            survival_rate * 100.0
        );
    }

    if total_survived == total_runs {
        Ok(())
    } else {
        let mut message = format!(
            "storm failed: {total_survived}/{total_runs} run(s) survived on {}",
            platform.name
        );
        for failure in first_failures.iter().take(10) {
            message.push_str("\n  ");
            message.push_str(failure);
        }
        Err(message.into())
    }
}

/// Renders the shared serve/siege report: per-tenant outcome and tail
/// table, then the run summary.
fn render_serve_report(report: &edgenn_serve::SiegeReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str(
        "tenant       weight  arrived admitted rejected  shed completed    p50 ms    p99 ms   p999 ms\n",
    );
    for t in &report.tenants {
        let _ = writeln!(
            out,
            "{:<12} {:>6.1} {:>8} {:>8} {:>8} {:>5} {:>9} {:>9.3} {:>9.3} {:>9.3}",
            t.name,
            t.weight,
            t.arrived,
            t.admitted,
            t.rejected,
            t.shed,
            t.completed,
            t.p50_us / 1e3,
            t.p99_us / 1e3,
            t.p999_us / 1e3,
        );
    }
    let _ = writeln!(
        out,
        "batches        : {} ({} degraded)",
        report.batches, report.degraded_batches
    );
    let _ = writeln!(out, "survival       : {:.4}", report.survival);
    let _ = writeln!(out, "shed rate      : {:.4}", report.shed_rate);
    let _ = writeln!(out, "fairness spread: {:.3}", report.fairness_spread);
    let _ = writeln!(
        out,
        "queue high-water: {}/{}",
        report.high_water, report.queue_capacity
    );
    out
}

/// Replays a serving run's admission log through the EC07x checker;
/// the replay parameters travel on the report itself.
fn serve_check(report: &edgenn_serve::SiegeReport) -> edgenn_check::CheckReport {
    let params = edgenn_check::ServeCheckParams {
        weights: report.weights.clone(),
        queue_capacity: report.queue_capacity,
        max_batch: report.max_batch,
        models: report.models.len(),
    };
    let mut check = edgenn_check::CheckReport::default();
    check.extend(edgenn_check::check_admission_log(&report.log, &params));
    check
}

/// Shared `serve`/`siege` epilogue: JSON assembly (`--json` / `--out`),
/// then the exit gate — non-zero on any lost request, bitwise
/// divergence, queue-bound breach, or EC07x checker error.
fn serve_epilogue(
    args: &Args,
    command: &str,
    report: &edgenn_serve::SiegeReport,
    check: Option<&edgenn_check::CheckReport>,
    extra: Vec<(&'static str, Value)>,
) -> Result<()> {
    let Value::Object(mut summary) = report.to_value() else {
        return Err("serve report did not serialize to an object".into());
    };
    for (key, value) in extra {
        summary.insert(key.to_string(), value);
    }
    if let Some(check) = check {
        summary.insert("checker".to_string(), check.to_json());
    }
    emit_report(args, &format!("{command} report"), &Value::Object(summary))?;
    let checker_errors = check.map_or(0, edgenn_check::CheckReport::error_count);
    if report.gate_clean() && checker_errors == 0 {
        return Ok(());
    }
    let mut message = format!(
        "{command} gate failed: survival {:.4}, {} lost, {} bitwise failure(s), \
         queue high-water {}/{}, {} checker error(s)",
        report.survival,
        report.lost,
        report.bitwise_failures.len(),
        report.high_water,
        report.queue_capacity,
        checker_errors
    );
    for failure in report.bitwise_failures.iter().take(5) {
        message.push_str("\n  ");
        message.push_str(failure);
    }
    if let Some(check) = check {
        for d in check
            .diagnostics
            .iter()
            .filter(|d| d.severity == edgenn_check::Severity::Error)
            .take(5)
        {
            message.push_str("\n  ");
            message.push_str(d.code);
            message.push_str(": ");
            message.push_str(&d.message);
        }
    }
    Err(message.into())
}

/// Applies the serving flags `serve` and `siege` share to their config.
fn serving_overrides(
    args: &Args,
    platform: &mut Platform,
    queue_capacity: &mut usize,
    policy: &mut edgenn_serve::BatchPolicy,
) -> Result<()> {
    if let Some(v) = args.value("platform") {
        *platform = parse_platform(v)?;
    }
    if args.has("queue-capacity") {
        *queue_capacity = args.get("queue-capacity")?;
    }
    if args.has("max-batch") {
        policy.max_batch = args.get("max-batch")?;
    }
    if args.has("max-delay-us") {
        policy.max_delay_us = args.get("max-delay-us")?;
    }
    Ok(())
}

/// The wall-clock serving loop: seeded clients push through admission
/// into the bounded queue; the dispatcher batches weighted-fair and
/// executes for real.
fn cmd_serve(args: &Args) -> Result<()> {
    let seed: u64 = args.get("seed")?;
    let duration_ms: u64 = args.get("duration-ms")?;
    let mut cfg = edgenn_serve::ServeConfig::demo(seed, duration_ms);
    serving_overrides(
        args,
        &mut cfg.platform,
        &mut cfg.queue_capacity,
        &mut cfg.policy,
    )?;
    let recorder = Recorder::new();
    let report = edgenn_serve::run_server(&cfg, Some(&recorder))?;
    let check = if args.has("check") {
        Some(serve_check(&report))
    } else {
        None
    };
    if !args.has("json") {
        println!(
            "serve: seed {seed}, {duration_ms} ms wall clock, {} tenant(s) x {} model(s) on {}",
            cfg.tenants.len(),
            cfg.models.len(),
            cfg.platform.name,
        );
        print!("{}", render_serve_report(&report));
        if let Some(check) = &check {
            if check.is_clean() {
                println!("EC07x check    : clean");
            } else {
                println!("EC07x check    : {} error(s)", check.error_count());
            }
        }
    }
    serve_epilogue(
        args,
        "serve",
        &report,
        check.as_ref(),
        vec![
            ("seed", Value::from(seed)),
            ("duration_ms", Value::from(duration_ms)),
        ],
    )
}

/// The deterministic fault-injected load gate: seeded virtual-time load
/// over the full serving pipeline, real batch executions gated bitwise,
/// admission log replayed through the EC07x checker.
fn cmd_siege(args: &Args) -> Result<()> {
    let seed: u64 = args.get("seed")?;
    let mut cfg = edgenn_serve::SiegeConfig::ci(seed);
    if args.has("duration-us") {
        cfg.duration_us = args.get("duration-us")?;
    }
    serving_overrides(
        args,
        &mut cfg.platform,
        &mut cfg.queue_capacity,
        &mut cfg.policy,
    )?;
    if args.has("no-faults") {
        cfg.faults = false;
    }
    if args.has("max-retries") {
        cfg.max_retries = args.get("max-retries")?;
    }
    let recorder = Recorder::new();
    let report = edgenn_serve::run_siege(&cfg, Some(&recorder))?;
    let check = serve_check(&report);
    if !args.has("json") {
        println!(
            "siege: seed {seed}, {:.0} ms virtual, {} tenant(s) x {} model(s) on {}, faults {}",
            cfg.duration_us / 1e3,
            cfg.tenants.len(),
            cfg.models.len(),
            cfg.platform.name,
            if cfg.faults { "armed" } else { "off" },
        );
        print!("{}", render_serve_report(&report));
        if check.is_clean() {
            println!(
                "EC07x check    : clean ({} events)",
                report.log.events.len()
            );
        } else {
            println!("EC07x check    : {} error(s)", check.error_count());
        }
    }
    serve_epilogue(
        args,
        "siege",
        &report,
        Some(&check),
        vec![
            ("seed", Value::from(seed)),
            ("duration_us", Value::from(cfg.duration_us)),
            ("faults", Value::from(cfg.faults)),
        ],
    )
}

fn cmd_inspect(args: &Args) -> Result<()> {
    let (graph, _) = load_model(args)?;
    print!("{}", graph.summary());
    let structure = graph.structure()?;
    if structure.is_pure_chain() {
        println!("\nstructure: pure chain");
    } else {
        let regions = structure.parallel_segment_count();
        println!("\nstructure: {regions} fork-join region(s)");
    }
    Ok(())
}

fn cmd_models() -> Result<()> {
    println!(
        "{:<12} {:>10} {:>12} {:>8}  structure",
        "model", "layers", "GFLOPs", "params"
    );
    for kind in ModelKind::ALL {
        let graph = build(kind, ModelScale::Paper);
        let structure = graph.structure()?;
        let desc = if structure.is_pure_chain() {
            "chain".to_string()
        } else {
            format!("{} fork-join regions", structure.parallel_segment_count())
        };
        println!(
            "{:<12} {:>10} {:>12.2} {:>7.1}M  {desc}",
            kind.name(),
            graph.len() - 1,
            graph.total_flops() as f64 / 1e9,
            graph.param_bytes() as f64 / 4e6,
        );
    }
    Ok(())
}

fn cmd_platforms() {
    let platforms = [
        edgenn_sim::platforms::jetson_agx_xavier(),
        edgenn_sim::platforms::raspberry_pi_4(),
        edgenn_sim::platforms::dimensity_8100(),
        edgenn_sim::platforms::rtx_2080ti_server(),
        edgenn_sim::platforms::amd_embedded_apu(),
        edgenn_sim::platforms::apple_silicon_m1(),
    ];
    println!(
        "{:<22} {:>12} {:>12} {:>8} {:>10}  kind",
        "platform", "cpu GFLOPS", "gpu GFLOPS", "price", "max W"
    );
    for p in platforms {
        let gpu = p
            .gpu
            .as_ref()
            .map_or_else(|| "—".into(), |g| format!("{:.0}", g.peak_gflops));
        let kind = if p.is_integrated() {
            "integrated"
        } else if p.has_gpu() {
            "discrete"
        } else {
            "cpu-only"
        };
        println!(
            "{:<22} {:>12.0} {:>12} {:>8} {:>10.1}  {kind}",
            p.name,
            p.cpu.peak_gflops,
            gpu,
            format!("${}", p.price_usd),
            p.power.power_w(1.0, 1.0),
        );
    }
}
