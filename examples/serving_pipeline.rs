//! Inference serving: steady-state throughput, latency-vs-energy plans,
//! and a chrome-trace dump of the schedule.
//!
//! The paper evaluates single inferences; a deployed AIoT service runs a
//! stream of them. This example simulates a back-to-back request stream
//! under three plans (latency-tuned EdgeNN, energy-tuned EdgeNN, GPU-only
//! baseline) and writes the EdgeNN schedule as a Chrome trace. Latency
//! under open-loop (Poisson) load is what `edgenn siege` measures.
//!
//! ```bash
//! cargo run --release --example serving_pipeline
//! ```

use edgenn_core::prelude::*;
use edgenn_core::runtime::Runtime;
use edgenn_obs::chrome;
use edgenn_sim::platforms;
use edgenn_sim::trace::timeline_entries;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let jetson = platforms::jetson_agx_xavier();
    let runtime = Runtime::new(&jetson);
    let graph = build(ModelKind::SqueezeNet, ModelScale::Paper);
    let tuner = Tuner::new(&graph, &runtime)?;
    let requests = 32;

    println!(
        "serving {requests} SqueezeNet requests on {}:\n",
        jetson.name
    );
    println!(
        "{:<26} {:>12} {:>12} {:>10} {:>12}",
        "plan", "thruput/s", "p-last ms", "power W", "mJ/request"
    );

    let configs = [
        ("edgenn (latency)", ExecutionConfig::edgenn()),
        (
            "edgenn (energy-aware)",
            ExecutionConfig::edgenn_energy_aware(),
        ),
        ("gpu-only baseline", ExecutionConfig::baseline_gpu()),
    ];
    for (name, config) in configs {
        let plan = tuner.plan(&graph, &runtime, config)?;
        let stream = runtime.simulate_stream(&graph, &plan, requests)?;
        println!(
            "{:<26} {:>12.1} {:>12.2} {:>10.2} {:>12.2}",
            name,
            stream.throughput_per_s,
            stream.finish_times_us.last().unwrap() / 1e3,
            stream.energy.avg_power_w,
            stream.energy.energy_mj / requests as f64,
        );
    }

    // Dump the single-inference EdgeNN schedule for chrome://tracing.
    let plan = tuner.plan(&graph, &runtime, ExecutionConfig::edgenn())?;
    let report = runtime.simulate(&graph, &plan)?;
    let path = std::env::temp_dir().join("edgenn_squeezenet_trace.json");
    chrome::write(&path, &timeline_entries(&report.events, &[]))?;
    println!(
        "\nschedule trace ({} events) written to {} — load it in chrome://tracing",
        report.events.len(),
        path.display()
    );
    Ok(())
}
