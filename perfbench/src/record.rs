//! What one run hands back: metrics with units, the benchmark's own
//! spans, the host-noise window, and the JSON run record.

use std::time::Instant;

use serde_json::{Map, Value};

use edgenn_obs::flight;

use crate::procfs;

/// Ordered `(name, value, unit)` metrics of one run.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut map = Map::new();
        for (name, value, unit) in &self.0 {
            let mut m = Map::new();
            m.insert("value", Value::from(*value));
            m.insert("unit", Value::from(*unit));
            map.insert(name.clone(), Value::from(m));
        }
        Value::from(map)
    }
}

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output matched its reference and every check held.
    pub correct: bool,
    /// Inferences (or served requests) attempted while measuring.
    pub attempted: u64,
    /// Attempted operations that failed: wrong output, rejection, shed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Workload-specific detail for the run record file.
    pub detail: Map,
}

/// Records of a call's window that the rings overwrote before the
/// drain: written since `written_before` (a [`flight::total_records`]
/// reading) minus those drained. The recorder's own dropped counter
/// cannot tell this: it counts every wrap of a ring, drained or not.
#[must_use]
pub fn lost_records(written_before: u64, drained: usize) -> u64 {
    (flight::total_records() - written_before).saturating_sub(drained as u64)
}

/// The closed-loop or served figures over a set of blocks or sessions:
/// what becomes three of the end-to-end metrics.
#[derive(Debug)]
pub struct Summary {
    /// Geometric mean of per-class median latency (ms).
    pub latency_ms: Option<f64>,
    /// Inferences or completions per second.
    pub throughput: Option<f64>,
    /// Process CPU per inference or completion (ms).
    pub cpu_ms: f64,
}

impl Summary {
    /// `{"latency_p50_ms", "throughput_ips", "cpu_ms_per_inf"}`.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut o = Map::new();
        o.insert(
            "latency_p50_ms",
            Value::from(self.latency_ms.unwrap_or(0.0)),
        );
        o.insert(
            "throughput_ips",
            Value::from(self.throughput.unwrap_or(0.0)),
        );
        o.insert("cpu_ms_per_inf", Value::from(self.cpu_ms));
        Value::from(o)
    }
}

/// One of the benchmark's own spans around a public call it makes.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log, written out with the run record. Records nothing
/// unless the run is traced.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A log that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records `name` over `start..now` under `parent` and returns its
    /// index (usable as a parent), or `None` when disabled.
    pub fn close(&mut self, name: &str, parent: Option<usize>, start: Instant) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(0);
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns: ns(start),
            end_ns: ns(Instant::now()),
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a parent span now; [`Spans::finish`] sets its end once the
    /// children are recorded.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> Option<usize> {
        self.close(name, parent, Instant::now())
    }

    /// Ends the span `index` now.
    pub fn finish(&mut self, index: Option<usize>) {
        if let Some(i) = index {
            let end = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(0);
            self.spans[i].end_ns = end;
        }
    }

    /// `[{"name", "parent", "start_us", "dur_us"}, ...]`.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::from(
            self.spans
                .iter()
                .map(|s| {
                    let mut m = Map::new();
                    m.insert("name", Value::from(s.name.as_str()));
                    m.insert(
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::from(p as f64)),
                    );
                    m.insert("start_us", Value::from(s.start_ns as f64 / 1e3));
                    m.insert(
                        "dur_us",
                        Value::from(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                    );
                    Value::from(m)
                })
                .collect::<Vec<_>>(),
        )
    }
}

/// Process CPU, host steal and calling-thread run-queue wait over one
/// measurement window.
#[derive(Debug)]
pub struct Window {
    start: Instant,
    cpu_s: f64,
    host: procfs::HostTicks,
    runq_ns: u64,
}

/// What a [`Window`] saw.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    /// Process user+system seconds, all threads.
    pub cpu_s: f64,
    /// Share of host CPU time stolen by the hypervisor.
    pub steal_share: f64,
    /// Share of wall time the calling thread sat runnable but not running.
    pub runq_wait_share: f64,
}

impl Window {
    /// Opens a window now.
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
            cpu_s: procfs::process_cpu_s().unwrap_or(0.0),
            host: procfs::host_ticks().unwrap_or_default(),
            runq_ns: procfs::runq_wait_ns().unwrap_or(0),
        }
    }

    /// Seconds since the window opened.
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Closes the window.
    #[must_use]
    pub fn finish(&self) -> WindowStats {
        let wall_s = self.start.elapsed().as_secs_f64();
        let runq = procfs::runq_wait_ns()
            .unwrap_or(self.runq_ns)
            .saturating_sub(self.runq_ns);
        WindowStats {
            cpu_s: procfs::process_cpu_s().unwrap_or(self.cpu_s) - self.cpu_s,
            steal_share: procfs::steal_share(self.host, procfs::host_ticks().unwrap_or(self.host)),
            runq_wait_share: runq as f64 / 1e9 / wall_s.max(1e-9),
        }
    }
}

/// The host-noise per-layer values of `w`.
#[must_use]
pub fn host_values(w: &WindowStats) -> [(&'static str, f64); 2] {
    [
        ("host.steal_share", w.steal_share),
        ("host.runq_wait_share", w.runq_wait_share),
    ]
}

/// The pooled-tail per-layer values over latencies in ms: the highest
/// supported percentile, which one it is, and the sample count.
#[must_use]
pub fn tail_values(latencies_ms: &[f64]) -> [(&'static str, f64); 3] {
    let (q, v) = crate::stats::supported_tail(latencies_ms).unwrap_or((0.0, 0.0));
    [
        ("tail.latency_p99_ms", v),
        ("tail.quantile", q),
        ("tail.samples", latencies_ms.len() as f64),
    ]
}

/// The [`END_TO_END`] metrics, valued in order.
#[must_use]
pub fn end_to_end(values: [f64; 5]) -> Metrics {
    let mut metrics = Metrics::default();
    for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
        metrics.push(name, value, unit);
    }
    metrics
}

/// Every [`PER_LAYER`] metric in order, valued from `values` or 0 where
/// the workload does not exercise it.
///
/// # Errors
/// Fails on a value whose name is not in [`PER_LAYER`].
pub fn per_layer(values: &[(&str, f64)]) -> Result<Metrics, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !PER_LAYER.iter().any(|(known, _)| known == n))
    {
        return Err(format!("per-layer metric {name} is not declared"));
    }
    let mut metrics = Metrics::default();
    for (name, unit) in PER_LAYER {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        metrics.push(name, value, unit);
    }
    Ok(metrics)
}

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_ms", "ms"),
    ("throughput_ips", "1/s"),
    ("cpu_ms_per_inf", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with units, in
/// report order. A metric a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("nn.build_ms", "ms"),
    ("nn.compile_ms", "ms"),
    ("nn.prepacked_mb", "MiB"),
    ("nn.nodes_post", "count"),
    ("core.tuner.plan_ms", "ms"),
    ("core.exec.new_ms", "ms"),
    ("core.exec.gap_us", "us"),
    ("core.exec.corun_layers", "count"),
    ("core.exec.corun_cutoff_flops", "flops"),
    ("core.exec.slot_mb", "MiB"),
    ("core.pool.worker_tasks", "count"),
    ("core.pool.inline_tasks", "count"),
    ("core.pool.queue_wait_us", "us"),
    ("tensor.pack_us", "us"),
    ("tensor.compute_us", "us"),
    ("tensor.merge_us", "us"),
    ("tensor.pack_share", "share"),
    ("tensor.kernel_cpu_share", "share"),
    ("tensor.conv_gflops", "GFLOP/s"),
    ("tensor.dense_gflops", "GFLOP/s"),
    ("tensor.arena_fresh_kb", "KiB"),
    ("tensor.gemm_peak_gflops", "GFLOP/s"),
    ("tensor.copy_gbps", "GB/s"),
    ("sim.pred_ratio", "ratio"),
    ("serve.ingress_wait_us", "us"),
    ("serve.batch_wait_us", "us"),
    ("serve.service_us", "us"),
    ("serve.batch_size", "count"),
    ("serve.high_water", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.degraded_batches", "count"),
    ("serve.offered_shortfall", "share"),
    ("obs.trace_overhead", "ratio"),
    ("obs.flight_dropped", "count"),
    ("host.steal_share", "share"),
    ("host.runq_wait_share", "share"),
    ("tail.latency_p99_ms", "ms"),
    ("tail.quantile", "quantile"),
    ("tail.samples", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: Value = serde_json::from_str(&text).expect("valid JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            let Value::Object(root) = &json else {
                panic!("BENCHMARK.json is not an object")
            };
            let Some(Value::Array(items)) = root.get(key) else {
                panic!("{key} is missing")
            };
            items
                .iter()
                .map(|item| {
                    let Value::Object(m) = item else {
                        panic!("{key} entry is not an object")
                    };
                    let field = |f: &str| match m.get(f) {
                        Some(Value::String(s)) => s.clone(),
                        _ => panic!("{key} entry lacks {f}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn per_layer_fills_every_metric_and_rejects_unknown_names() {
        let m = per_layer(&[("serve.shed", 2.0)]).unwrap();
        assert_eq!(m.0.len(), PER_LAYER.len());
        assert!(m.0.iter().any(|(n, v, _)| n == "serve.shed" && *v == 2.0));
        assert!(m.0.iter().any(|(n, v, _)| n == "nn.build_ms" && *v == 0.0));
        assert!(per_layer(&[("serve.typo", 1.0)]).is_err());
    }
}
