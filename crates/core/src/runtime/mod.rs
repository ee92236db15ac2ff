//! The EdgeNN runtime: executes an [`ExecutionPlan`] against a simulated
//! platform (analytic mode) or against real tensors (functional mode, in
//! [`functional`]).

pub mod functional;
pub mod pool;
pub mod resilience;
pub mod sched_explore;

use std::sync::Arc;

use edgenn_nn::graph::{Graph, NodeId, Segment};
use edgenn_nn::layer::LayerClass;
use edgenn_obs::{EventSink, SinkEvent};
use edgenn_sim::processor::ExecutionContext;
use edgenn_sim::{
    AllocStrategy, KernelDesc, OpClass, Platform, ProcessorKind, ProcessorSpec, Timeline, TraceKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{RecoveryAction, RecoveryCause};
use crate::metrics::{InferenceReport, LayerTiming};
use crate::plan::{Assignment, ExecutionPlan, HybridMode, MemoryPolicy};
use crate::runtime::resilience::{FaultCtx, RecoveryEvent, ResilienceConfig, ResilientOutcome};
use crate::{CoreError, Result};
use edgenn_sim::{FaultClock, FaultKind, FaultPlan};

/// Maps a layer class to the simulator's operation class.
pub fn op_class(class: LayerClass) -> OpClass {
    match class {
        LayerClass::Conv => OpClass::Conv,
        LayerClass::Fc => OpClass::Fc,
        LayerClass::Pool => OpClass::Pool,
        LayerClass::Activation => OpClass::Activation,
        LayerClass::Norm => OpClass::Norm,
        LayerClass::Combine | LayerClass::Input => OpClass::Combine,
    }
}

/// Builds the kernel descriptor of one graph node.
///
/// # Errors
/// Propagates shape/workload failures from the layer.
pub fn kernel_desc(graph: &Graph, id: NodeId) -> Result<KernelDesc> {
    let node = graph.node(id)?;
    let shapes: Vec<_> = node
        .inputs()
        .iter()
        .map(|i| graph.node(*i).map(edgenn_nn::graph::Node::output_shape))
        .collect::<std::result::Result<_, _>>()?;
    let w = node.layer().workload(&shapes)?;
    let ws = node.layer().working_set_bytes(&shapes)?;
    Ok(KernelDesc {
        class: op_class(node.layer().class()),
        flops: w.flops,
        bytes_in: w.input_bytes,
        bytes_out: w.output_bytes,
        weight_bytes: w.weight_bytes,
        parallelism: node.output_shape().num_elements() as u64,
        working_set_bytes: ws,
    })
}

/// Scales a kernel descriptor to `part / total` of its partition units.
///
/// FLOPs, output bytes, weight bytes, and parallelism scale; input bytes
/// and working set do not (both partitions read the whole input — the
/// paper's Section IV-D example: "the GPU calculates the convolution
/// results of the first k input channels, and the CPU calculates the
/// results of the remaining").
pub fn scale_desc(desc: &KernelDesc, fraction: f64) -> KernelDesc {
    let f = fraction.clamp(0.0, 1.0);
    KernelDesc {
        class: desc.class,
        flops: (desc.flops as f64 * f) as u64,
        bytes_in: desc.bytes_in,
        bytes_out: (desc.bytes_out as f64 * f) as u64,
        weight_bytes: (desc.weight_bytes as f64 * f) as u64,
        parallelism: (desc.parallelism as f64 * f).ceil() as u64,
        working_set_bytes: desc.working_set_bytes,
    }
}

/// Scales a kernel descriptor to an *input-channel* fraction: FLOPs,
/// input bytes, weight bytes, and the working set scale with the channel
/// share, while the output is produced at full size by both partitions
/// (each side emits a complete partial-sum map).
pub fn scale_desc_input(desc: &KernelDesc, fraction: f64) -> KernelDesc {
    let f = fraction.clamp(0.0, 1.0);
    KernelDesc {
        class: desc.class,
        flops: (desc.flops as f64 * f) as u64,
        bytes_in: (desc.bytes_in as f64 * f) as u64,
        bytes_out: desc.bytes_out,
        weight_bytes: (desc.weight_bytes as f64 * f) as u64,
        parallelism: desc.parallelism,
        working_set_bytes: (desc.working_set_bytes as f64 * f) as u64,
    }
}

/// Blends a managed-memory bandwidth factor over a kernel's traffic mix:
/// the zero-copy penalty hits *activation* arrays (allocated per
/// inference), while weights are resident and read at full rate after
/// their first touch.
pub fn weighted_bw_factor(desc: &KernelDesc, activation_factor: f64) -> f64 {
    let act = (desc.bytes_in + desc.bytes_out) as f64;
    let w = desc.weight_bytes as f64;
    let total = act + w;
    if total <= 0.0 {
        1.0
    } else {
        (act * activation_factor + w) / total
    }
}

/// Where a node's output data currently resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// In host (CPU-side) memory only.
    Host,
    /// In device (GPU-side) memory only.
    Device,
    /// Valid in both (after a round trip or a managed array at rest).
    Both,
}

impl Loc {
    fn of(proc: ProcessorKind) -> Self {
        match proc {
            ProcessorKind::Cpu => Loc::Host,
            ProcessorKind::Gpu => Loc::Device,
        }
    }

    fn available_to(&self, proc: ProcessorKind) -> bool {
        matches!(
            (self, proc),
            (Loc::Both, _) | (Loc::Host, ProcessorKind::Cpu) | (Loc::Device, ProcessorKind::Gpu)
        )
    }
}

/// The analytic runtime: walks a graph under a plan, issuing kernels,
/// copies, migrations, and syncs to the simulated [`Timeline`].
pub struct Runtime<'a> {
    platform: &'a Platform,
    observer: Option<Arc<dyn EventSink>>,
}

impl<'a> Runtime<'a> {
    /// Creates a runtime for `platform`.
    pub fn new(platform: &'a Platform) -> Self {
        Self {
            platform,
            observer: None,
        }
    }

    /// Creates a runtime that mirrors every simulated activity (kernel
    /// launches, copies, migrations, stalls), tuner decision, and
    /// per-request latency into `observer`.
    pub fn with_observer(platform: &'a Platform, observer: Arc<dyn EventSink>) -> Self {
        Self {
            platform,
            observer: Some(observer),
        }
    }

    /// The attached observer sink, if any (the tuner and pipeline use
    /// this to report their decisions alongside the runtime's events).
    pub fn observer(&self) -> Option<&Arc<dyn EventSink>> {
        self.observer.as_ref()
    }

    fn emit(&self, event: SinkEvent) {
        if let Some(obs) = &self.observer {
            obs.emit(event);
        }
    }

    /// A fresh timeline wired to the observer when one is attached.
    fn new_timeline(&self) -> Timeline {
        match &self.observer {
            Some(obs) => Timeline::with_sink(Arc::clone(obs)),
            None => Timeline::new(),
        }
    }

    /// The platform this runtime simulates.
    pub fn platform(&self) -> &Platform {
        self.platform
    }

    fn spec(&self, proc: ProcessorKind) -> Result<&ProcessorSpec> {
        match proc {
            ProcessorKind::Cpu => Ok(&self.platform.cpu),
            ProcessorKind::Gpu => self.platform.gpu.as_ref().ok_or_else(|| CoreError::NoGpu {
                platform: self.platform.name.clone(),
            }),
        }
    }

    /// Solo full-layer times `(t_cpu_us, t_gpu_us)` for one node, used by
    /// the tuner as its profiling measurements. GPU time is infinite on
    /// CPU-only platforms.
    ///
    /// # Errors
    /// Propagates workload failures.
    pub fn node_times(&self, graph: &Graph, id: NodeId) -> Result<(f64, f64)> {
        let desc = kernel_desc(graph, id)?;
        let ctx = ExecutionContext::default();
        let t_cpu = self.platform.cpu.kernel_time_us(&desc, &ctx);
        let t_gpu = match &self.platform.gpu {
            Some(gpu) => gpu.kernel_time_us(&desc, &ctx),
            None => f64::INFINITY,
        };
        Ok((t_cpu, t_gpu))
    }

    /// Simulates one inference under `plan`, producing the full report.
    ///
    /// # Errors
    /// Fails on plan/graph mismatches, missing GPU, or workload errors.
    pub fn simulate(&self, graph: &Graph, plan: &ExecutionPlan) -> Result<InferenceReport> {
        plan.validate(graph)?;
        let mut timeline = self.new_timeline();
        let layers = self.run_request(graph, plan, &mut timeline, 0)?;
        let total_us = timeline.makespan_us();
        self.emit(SinkEvent::Request {
            latency_us: total_us,
        });
        let energy = self.platform.power.energy(&timeline);
        let report = InferenceReport {
            model: graph.name().to_string(),
            platform: self.platform.name.clone(),
            total_us,
            summary: timeline.summary(),
            energy,
            layers,
            events: timeline.events().to_vec(),
            decisions: Vec::new(),
        };
        if let Some(sink) = &self.observer {
            report.audit(sink.as_ref());
        }
        // Debug builds gate every single-request simulation on a clean
        // happens-before check of the trace just produced: a scheduling
        // regression (overlapping kernels, racing DMA) fails loudly here
        // instead of skewing results downstream. Release builds skip the
        // O(n^2) pass; `edgenn check` runs the same detector on demand.
        #[cfg(debug_assertions)]
        {
            let caps = edgenn_sim::trace::LinkCaps::from_platform(self.platform);
            let violations: Vec<_> = edgenn_sim::trace::check_trace(&report.events, Some(&caps))
                .into_iter()
                .filter(|v| v.kind != edgenn_sim::trace::TraceViolationKind::AggregateBandwidth)
                .collect();
            debug_assert!(
                violations.is_empty(),
                "runtime produced a racy trace for '{}' on '{}': {violations:?}",
                report.model,
                report.platform
            );
        }
        Ok(report)
    }

    /// Simulates one inference under `plan` while the environment
    /// misbehaves per `faults`, recovering per `cfg`: failed kernels are
    /// retried with exponential backoff and re-placed on the CPU on
    /// exhaustion (a permanent loss re-tunes the remaining suffix to the
    /// CPU-only plan), a burning deadline budget degrades the suffix to
    /// a single-processor plan, and OOM pressure shrinks the footprint
    /// (explicit → managed arrays) before execution. With an empty fault
    /// plan and no deadline this is step-for-step identical to
    /// [`Runtime::simulate`].
    ///
    /// # Errors
    /// Fails on plan/graph mismatches, workload errors, or a fault that
    /// defeats every recovery path ([`CoreError::Unrecoverable`]).
    pub fn simulate_with_faults(
        &self,
        graph: &Graph,
        plan: &ExecutionPlan,
        faults: &FaultPlan,
        cfg: &ResilienceConfig,
    ) -> Result<ResilientOutcome> {
        plan.validate(graph)?;
        let mut clock = FaultClock::new(faults.clone());
        let mut log = crate::runtime::resilience::RecoveryLog {
            max_attempts: cfg.max_retries,
            ..Default::default()
        };

        // OOM pressure is a planning-time fault: if a co-tenant's
        // reservation squeezes the plan's footprint out of DRAM, shrink
        // it by converting explicit two-copy arrays to managed
        // single-copy arrays (skipping input-split co-run outputs, whose
        // semantics prescribe an explicit merge — EC012).
        let mut effective = plan.clone();
        let reserved = clock.reserved_bytes(self.platform.dram_bytes);
        if reserved > 0 && self.platform.dram_bytes > 0 {
            self.emit(SinkEvent::Fault {
                category: "faults_injected",
                kind: FaultKind::OomPressure.to_string(),
                label: format!("{reserved} bytes reserved"),
                t_us: 0.0,
            });
            let budget = self.platform.dram_bytes - reserved;
            let fp = crate::footprint::footprint(graph, &effective)?;
            if fp.peak_bytes > budget {
                // Under the pure AllExplicit policy the per-node alloc is
                // ignored, so the shrink must also move the plan to the
                // semantic-aware policy for the node conversions to bind.
                if effective.config.memory_policy != MemoryPolicy::AllManaged {
                    for node_plan in &mut effective.nodes {
                        node_plan.output_alloc =
                            if matches!(node_plan.assignment, Assignment::SplitInput { .. }) {
                                AllocStrategy::Explicit
                            } else {
                                AllocStrategy::Managed
                            };
                    }
                    effective.config.memory_policy = MemoryPolicy::SemanticAware;
                }
                log.events.push(RecoveryEvent {
                    t_us: 0.0,
                    node: 0,
                    cause: RecoveryCause::OomPressure,
                    action: RecoveryAction::ShrinkFootprint,
                    attempt: 0,
                });
                let shrunk = crate::footprint::footprint(graph, &effective)?;
                if shrunk.peak_bytes > budget {
                    return Err(CoreError::Unrecoverable {
                        node: 0,
                        kind: FaultKind::OomPressure,
                    });
                }
            }
        }

        // Degraded plans are tuned up front so a mid-run switch is a
        // lookup, not a re-tune under fire. The CPU-only plan is the
        // re-tuned suffix after a permanent GPU loss; the deadline
        // degradation switches a hybrid plan to the fastest
        // single-processor plan (GPU-only where a GPU exists).
        let cpu_plan = self.degraded_plan(graph, &effective, HybridMode::CpuOnly)?;
        let degraded_plan = if self.platform.gpu.is_some() {
            self.degraded_plan(graph, &effective, HybridMode::GpuOnly)?
        } else {
            cpu_plan.clone()
        };

        let ctx = FaultCtx {
            clock,
            cfg: *cfg,
            log,
            cpu_plan,
            degraded_plan,
            gpu_lost: false,
            degraded: false,
        };

        let structure = graph.structure()?;
        let mut timeline = self.new_timeline();
        let mut sim = Sim {
            runtime: self,
            graph,
            plan: &effective,
            timeline: &mut timeline,
            ready: vec![0.0; graph.len()],
            loc: vec![Loc::Host; graph.len()],
            layers: Vec::with_capacity(graph.len()),
            jitter: StdRng::seed_from_u64(effective.config.jitter_seed),
            faults: Some(ctx),
        };
        for segment in structure.segments() {
            match segment {
                Segment::Chain(nodes) => {
                    for &id in nodes {
                        sim.exec_node(id, false)?;
                    }
                }
                Segment::Parallel { branches, join } => {
                    sim.exec_parallel(branches, *join)?;
                }
            }
        }
        sim.read_back_output(graph.output_id())?;
        let layers = sim.layers;
        let mut ctx = sim.faults.take().expect("fault context survives the run");
        ctx.log.faults_injected = ctx.clock.injected();
        ctx.log.gpu_lost = ctx.gpu_lost;

        let total_us = timeline.makespan_us();
        self.emit(SinkEvent::Request {
            latency_us: total_us,
        });
        let energy = self.platform.power.energy(&timeline);
        let report = InferenceReport {
            model: graph.name().to_string(),
            platform: self.platform.name.clone(),
            total_us,
            summary: timeline.summary(),
            energy,
            layers,
            events: timeline.events().to_vec(),
            decisions: Vec::new(),
        };
        if let Some(sink) = &self.observer {
            report.audit(sink.as_ref());
        }
        #[cfg(debug_assertions)]
        {
            let caps = edgenn_sim::trace::LinkCaps::from_platform(self.platform);
            let violations: Vec<_> = edgenn_sim::trace::check_trace(&report.events, Some(&caps))
                .into_iter()
                .filter(|v| v.kind != edgenn_sim::trace::TraceViolationKind::AggregateBandwidth)
                .collect();
            debug_assert!(
                violations.is_empty(),
                "resilient runtime produced a racy trace for '{}' on '{}': {violations:?}",
                report.model,
                report.platform
            );
        }
        Ok(ResilientOutcome {
            report,
            recovery: ctx.log,
        })
    }

    /// Tunes a single-processor plan for degraded execution, preserving
    /// the original config's memory policy and seeds.
    fn degraded_plan(
        &self,
        graph: &Graph,
        base: &ExecutionPlan,
        hybrid: HybridMode,
    ) -> Result<ExecutionPlan> {
        let mut config = base.config;
        config.hybrid = hybrid;
        let tuner = crate::tuner::Tuner::new(graph, self)?;
        tuner.plan(graph, self, config)
    }

    /// Simulates a back-to-back stream of `requests` inferences sharing
    /// one plan (a deployed service's steady state). Requests are queued
    /// at t = 0; the per-processor clocks carry across requests, so a plan
    /// that leaves one processor idle lets the next request start on it —
    /// request-level pipelining in the spirit of DART (the paper's reference \[88\]), which the
    /// paper cites as the multi-DNN scheduling line of work.
    ///
    /// # Errors
    /// Fails on plan/graph mismatches, missing GPU, or workload errors.
    pub fn simulate_stream(
        &self,
        graph: &Graph,
        plan: &ExecutionPlan,
        requests: usize,
    ) -> Result<StreamReport> {
        plan.validate(graph)?;
        if requests == 0 {
            return Err(CoreError::Internal {
                reason: "stream of zero requests".to_string(),
            });
        }
        let mut timeline = self.new_timeline();
        let mut finish_times = Vec::with_capacity(requests);
        for request in 0..requests {
            let layers = self.run_request(graph, plan, &mut timeline, request as u64)?;
            let finished = layers
                .iter()
                .map(|l| l.end_us)
                .fold(0.0f64, f64::max)
                .max(timeline.makespan_us());
            let started = layers.iter().map(|l| l.start_us).fold(finished, f64::min);
            self.emit(SinkEvent::Request {
                latency_us: finished - started,
            });
            finish_times.push(finished);
        }
        let total_us = timeline.makespan_us();
        let energy = self.platform.power.energy(&timeline);
        Ok(StreamReport {
            requests,
            total_us,
            finish_times_us: finish_times,
            throughput_per_s: requests as f64 * 1e6 / total_us,
            energy,
        })
    }

    /// Runs one request's DAG against a (possibly shared) timeline.
    fn run_request(
        &self,
        graph: &Graph,
        plan: &ExecutionPlan,
        timeline: &mut Timeline,
        request: u64,
    ) -> Result<Vec<LayerTiming>> {
        let structure = graph.structure()?;
        let mut sim = Sim {
            runtime: self,
            graph,
            plan,
            timeline,
            ready: vec![0.0; graph.len()],
            loc: vec![Loc::Host; graph.len()],
            layers: Vec::with_capacity(graph.len()),
            jitter: StdRng::seed_from_u64(plan.config.jitter_seed.wrapping_add(request)),
            faults: None,
        };
        for segment in structure.segments() {
            match segment {
                Segment::Chain(nodes) => {
                    for &id in nodes {
                        sim.exec_node(id, false)?;
                    }
                }
                Segment::Parallel { branches, join } => {
                    sim.exec_parallel(branches, *join)?;
                }
            }
        }
        sim.read_back_output(graph.output_id())?;
        Ok(sim.layers)
    }
}

/// Result of a multi-request stream simulation.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StreamReport {
    /// Number of inferences simulated.
    pub requests: usize,
    /// Makespan of the whole stream (us).
    pub total_us: f64,
    /// Completion time of each request (us from stream start).
    pub finish_times_us: Vec<f64>,
    /// Sustained throughput (inferences per second).
    pub throughput_per_s: f64,
    /// Energy accounting over the whole stream.
    pub energy: edgenn_sim::EnergyReport,
}

impl StreamReport {
    /// Average steady-state latency between consecutive completions (us).
    pub fn inter_completion_us(&self) -> f64 {
        if self.finish_times_us.len() < 2 {
            return self.total_us;
        }
        let first = self.finish_times_us[0];
        let last = *self.finish_times_us.last().expect("non-empty");
        (last - first) / (self.finish_times_us.len() - 1) as f64
    }
}

/// Mutable state of one simulation run.
struct Sim<'a, 'p> {
    runtime: &'a Runtime<'p>,
    graph: &'a Graph,
    plan: &'a ExecutionPlan,
    timeline: &'a mut Timeline,
    /// Time each node's output becomes available.
    ready: Vec<f64>,
    /// Residency of each node's output.
    loc: Vec<Loc>,
    layers: Vec<LayerTiming>,
    jitter: StdRng,
    /// Fault-injection state; `None` keeps the run on the exact
    /// fault-free path (no extra RNG draws, no timing perturbation).
    faults: Option<FaultCtx>,
}

impl Sim<'_, '_> {
    fn config(&self) -> &crate::plan::ExecutionConfig {
        &self.plan.config
    }

    fn jittered(&mut self, duration: f64) -> f64 {
        let amp = self.config().jitter;
        if amp <= 0.0 {
            duration
        } else {
            duration * (1.0 + amp * self.jitter.gen_range(-1.0..=1.0))
        }
    }

    /// The effective assignment of a node, honouring a mid-run suffix
    /// switch to a degraded plan (GPU loss or deadline degradation).
    fn assignment_of(&self, id: NodeId) -> Assignment {
        if let Some(f) = &self.faults {
            if f.gpu_lost {
                return f.cpu_plan.nodes[id.index()].assignment;
            }
            if f.degraded {
                return f.degraded_plan.nodes[id.index()].assignment;
            }
        }
        self.plan.nodes[id.index()].assignment
    }

    /// Multiplier on attainable memory bandwidth from active
    /// degradation windows (1 on the fault-free path).
    fn fault_bw_factor(&mut self, t: f64) -> f64 {
        let Some(f) = &mut self.faults else {
            return 1.0;
        };
        let before = f.clock.injected();
        let factor = f.clock.bandwidth_factor_at(t);
        if f.clock.injected() > before {
            self.runtime.emit(SinkEvent::Fault {
                category: "faults_injected",
                kind: FaultKind::BandwidthDegradation.to_string(),
                label: String::new(),
                t_us: t,
            });
        }
        factor
    }

    /// Multiplier on the compute roofline from active thermal windows.
    fn fault_compute_factor(&mut self, t: f64) -> f64 {
        let Some(f) = &mut self.faults else {
            return 1.0;
        };
        let before = f.clock.injected();
        let factor = f.clock.compute_factor_at(t);
        if f.clock.injected() > before {
            self.runtime.emit(SinkEvent::Fault {
                category: "faults_injected",
                kind: FaultKind::ThermalThrottle.to_string(),
                label: String::new(),
                t_us: t,
            });
        }
        factor
    }

    /// Multiplier (≥ 1) on managed-page migration time from active
    /// stall windows.
    fn fault_stall_factor(&mut self, t: f64) -> f64 {
        let Some(f) = &mut self.faults else {
            return 1.0;
        };
        let before = f.clock.injected();
        let factor = f.clock.stall_factor_at(t);
        if f.clock.injected() > before {
            self.runtime.emit(SinkEvent::Fault {
                category: "faults_injected",
                kind: FaultKind::MigrationStall.to_string(),
                label: String::new(),
                t_us: t,
            });
        }
        factor
    }

    /// Consumes one planned failure of `id`'s kernel, if any remains.
    fn fault_should_fail(&mut self, id: NodeId, name: &str, t: f64) -> bool {
        let Some(f) = &mut self.faults else {
            return false;
        };
        if f.clock.should_fail_kernel(id.index()) {
            self.runtime.emit(SinkEvent::Fault {
                category: "faults_injected",
                kind: FaultKind::TransientKernel.to_string(),
                label: name.to_string(),
                t_us: t,
            });
            true
        } else {
            false
        }
    }

    /// The retry budget per failed kernel (0 without fault injection).
    fn fault_retry_budget(&self) -> u32 {
        self.faults.as_ref().map_or(0, |f| f.cfg.max_retries)
    }

    /// Records a retry decision after failed attempt `attempt` and
    /// returns the backoff gap to wait before re-launching.
    fn fault_log_retry(&mut self, id: NodeId, name: &str, t: f64, attempt: u32) -> f64 {
        let Some(f) = &mut self.faults else {
            return 0.0;
        };
        f.log.retries += 1;
        f.log.events.push(RecoveryEvent {
            t_us: t,
            node: id.index(),
            cause: RecoveryCause::TransientKernel,
            action: RecoveryAction::Retry,
            attempt,
        });
        self.runtime.emit(SinkEvent::Fault {
            category: "retries",
            kind: RecoveryCause::TransientKernel.to_string(),
            label: name.to_string(),
            t_us: t,
        });
        f.cfg.backoff_us(attempt)
    }

    /// Records a GPU→CPU fallback; a permanent failure marks the GPU
    /// lost so the remaining suffix re-tunes to the CPU-only plan.
    fn fault_log_fallback(&mut self, id: NodeId, name: &str, t: f64, attempt: u32) {
        let Some(f) = &mut self.faults else { return };
        let permanent = f.clock.is_permanent(id.index());
        let cause = if permanent {
            RecoveryCause::PermanentKernel
        } else {
            RecoveryCause::TransientKernel
        };
        f.log.fallbacks += 1;
        f.log.events.push(RecoveryEvent {
            t_us: t,
            node: id.index(),
            cause,
            action: RecoveryAction::FallbackToCpu,
            attempt,
        });
        if permanent {
            f.gpu_lost = true;
        }
        self.runtime.emit(SinkEvent::Fault {
            category: "fallbacks",
            kind: cause.to_string(),
            label: name.to_string(),
            t_us: t,
        });
    }

    /// Degrades the remaining suffix to the single-processor plan when
    /// the deadline budget is burning (at most once per run).
    fn maybe_degrade_for_deadline(&mut self, id: NodeId, now: f64) {
        let Some(f) = &mut self.faults else { return };
        if f.degraded || f.gpu_lost {
            return;
        }
        let Some(deadline) = f.cfg.deadline_us else {
            return;
        };
        if now > deadline * f.cfg.deadline_degrade_fraction {
            f.degraded = true;
            f.log.deadline_degradations += 1;
            f.log.events.push(RecoveryEvent {
                t_us: now,
                node: id.index(),
                cause: RecoveryCause::DeadlineOverrun,
                action: RecoveryAction::DegradeToSingleProcessor,
                attempt: 0,
            });
            self.runtime.emit(SinkEvent::Fault {
                category: "deadline_degradations",
                kind: RecoveryCause::DeadlineOverrun.to_string(),
                label: String::new(),
                t_us: now,
            });
        }
    }

    /// Allocation strategy of a node's output under the active policy.
    fn alloc_of(&self, id: NodeId) -> AllocStrategy {
        match self.config().memory_policy {
            MemoryPolicy::AllExplicit => AllocStrategy::Explicit,
            MemoryPolicy::AllManaged => AllocStrategy::Managed,
            MemoryPolicy::SemanticAware => self.plan.nodes[id.index()].output_alloc,
        }
    }

    /// Bandwidth factor a kernel sees given the arrays it touches,
    /// weighted by its activation-vs-weight traffic mix.
    fn bandwidth_factor(&self, id: NodeId) -> f64 {
        let memory = &self.runtime.platform.memory;
        let node = self.graph.nodes().get(id.index()).expect("validated");
        let mut factor = memory.bandwidth_factor(self.alloc_of(id));
        for input in node.inputs() {
            factor = factor.min(memory.bandwidth_factor(self.alloc_of(*input)));
        }
        let desc = kernel_desc(self.graph, id).expect("validated at plan time");
        weighted_bw_factor(&desc, factor)
    }

    /// Ensures `id`'s output is accessible to `proc` by time `at`,
    /// scheduling copies/migrations as needed; returns the ready time.
    fn make_available(&mut self, id: NodeId, proc: ProcessorKind, at: f64) -> f64 {
        let memory = &self.runtime.platform.memory;
        let loc = self.loc[id.index()];
        if loc.available_to(proc) {
            return at;
        }
        let node = self.graph.nodes().get(id.index()).expect("validated");
        let bytes = (node.output_shape().num_elements() * 4) as u64;
        let label = format!("{} -> {proc}", node.layer().name());
        let end = match self.alloc_of(id) {
            AllocStrategy::Explicit => {
                // A bandwidth-degradation window stretches the DMA.
                let dur = memory.copy_time_us(bytes) / self.fault_bw_factor(at);
                self.timeline
                    .schedule_bus(TraceKind::Copy, at, dur, bytes, Some(proc), label)
            }
            AllocStrategy::Managed => {
                let prefetched = self.plan.nodes[id.index()].prefetch_inputs
                    || self
                        .graph
                        .successors(id)
                        .iter()
                        .any(|s| self.plan.nodes[s.index()].prefetch_inputs);
                // A stall window multiplies the page-migration time.
                let dur = memory.migration_time_us(bytes, prefetched) * self.fault_stall_factor(at);
                self.timeline
                    .schedule_bus(TraceKind::Migration, at, dur, bytes, Some(proc), label)
            }
        };
        self.loc[id.index()] = Loc::Both;
        end.max(at)
    }

    /// Executes one node per its plan. `corun_context` marks nodes inside
    /// a fork-join region whose branches run on both processors (memory
    /// contention applies).
    fn exec_node(&mut self, id: NodeId, corun_context: bool) -> Result<()> {
        let node = self.graph.node(id)?;
        if node.layer().class() == LayerClass::Input {
            // The host writes the input tensor when the request arrives
            // (the vector is pre-seeded with the arrival time).
            self.loc[id.index()] = Loc::Host;
            return Ok(());
        }
        let now = node
            .inputs()
            .iter()
            .map(|i| self.ready[i.index()])
            .fold(0.0, f64::max);
        self.maybe_degrade_for_deadline(id, now);
        match self.assignment_of(id) {
            Assignment::Gpu => self.exec_solo(id, ProcessorKind::Gpu, corun_context),
            Assignment::Cpu => self.exec_solo(id, ProcessorKind::Cpu, corun_context),
            Assignment::Split { cpu_fraction } => self.exec_split(id, cpu_fraction, false),
            Assignment::SplitInput { cpu_fraction } => self.exec_split(id, cpu_fraction, true),
        }
    }

    /// Whole layer on one processor.
    fn exec_solo(&mut self, id: NodeId, proc: ProcessorKind, corun: bool) -> Result<()> {
        let spec = self.runtime.spec(proc)?.clone();
        let memory = self.runtime.platform.memory.clone();
        let node = self.graph.node(id)?;
        let name = node.layer().name().to_string();
        let class = node.layer().class();
        let desc = kernel_desc(self.graph, id)?;
        let naive = self.config().memory_policy == MemoryPolicy::AllExplicit;
        // The original host-orchestrated program with managed arrays: the
        // host still touches activations between kernels. On an integrated
        // SoC that is free (same DRAM); on a discrete GPU every touch
        // bounces the pages over PCIe — the paper's Section IV-B claim
        // that unified memory "brings no benefit for the discrete
        // architecture".
        let managed_bounce =
            self.config().memory_policy == MemoryPolicy::AllManaged && !memory.is_unified();

        let inputs: Vec<NodeId> = node.inputs().to_vec();
        let mut ready = inputs
            .iter()
            .map(|i| self.ready[i.index()])
            .fold(0.0, f64::max);
        let start = ready;
        let mut memory_us = 0.0;

        if naive || managed_bounce {
            // Host-orchestrated boundary before a GPU kernel: an explicit
            // H2D copy, or an on-demand page-fault storm for managed
            // arrays on PCIe (scaled by the roundtrip fraction).
            if proc == ProcessorKind::Gpu {
                let (kind, dur) = if naive {
                    (TraceKind::Copy, memory.copy_time_us(desc.bytes_in))
                } else {
                    (
                        TraceKind::Migration,
                        memory.migration_time_us(desc.bytes_in, false),
                    )
                };
                let dur = self.config().host_roundtrip_fraction * dur;
                if dur > 0.0 {
                    memory_us += dur;
                    ready = self.timeline.schedule_bus(
                        kind,
                        ready,
                        dur,
                        desc.bytes_in,
                        Some(proc),
                        format!("{name} h2d"),
                    );
                }
            }
        } else {
            for input in &inputs {
                ready = self.make_available(*input, proc, ready).max(ready);
            }
        }

        // The zero-copy access penalty is a GPU-side effect (managed pages
        // lose some coalescing); the CPU reads the same DRAM either way.
        let policy_bw = if naive {
            1.0
        } else {
            self.bandwidth_factor(id)
        };
        let contention = if corun {
            memory.corun_contention_factor
        } else {
            1.0
        };
        // Kernel launch with recovery: an injected failure occupies the
        // processor for the attempt, then either retries after an
        // exponential backoff or — once the budget is exhausted —
        // re-places the work on the CPU.
        let mut proc = proc;
        let mut spec = spec;
        let mut kernel_us = 0.0;
        let mut failed_attempts = 0u32;
        let mut end = loop {
            let ctx = ExecutionContext {
                bandwidth_factor: if proc == ProcessorKind::Cpu {
                    1.0
                } else {
                    policy_bw
                } * self.fault_bw_factor(ready),
                contention_factor: contention,
                compute_factor: self.fault_compute_factor(ready),
            };
            let duration = self.jittered(spec.kernel_time_us(&desc, &ctx));
            kernel_us += duration;
            if proc == ProcessorKind::Cpu || !self.fault_should_fail(id, &name, ready) {
                break self.timeline.schedule(
                    proc,
                    TraceKind::Kernel,
                    ready,
                    duration,
                    name.clone(),
                );
            }
            failed_attempts += 1;
            let fail_end = self.timeline.schedule(
                proc,
                TraceKind::Kernel,
                ready,
                duration,
                format!("{name} [attempt {failed_attempts} failed]"),
            );
            if failed_attempts <= self.fault_retry_budget() {
                let backoff = self.fault_log_retry(id, &name, fail_end, failed_attempts);
                ready = fail_end + backoff;
            } else {
                self.fault_log_fallback(id, &name, fail_end, failed_attempts);
                proc = ProcessorKind::Cpu;
                spec = self.runtime.spec(ProcessorKind::Cpu)?.clone();
                ready = fail_end;
                if !(naive || managed_bounce) {
                    for input in &inputs {
                        ready = self
                            .make_available(*input, ProcessorKind::Cpu, ready)
                            .max(ready);
                    }
                }
            }
        };

        if (naive || managed_bounce) && proc == ProcessorKind::Gpu {
            // ... and the host reads the output after it.
            let (kind, dur) = if naive {
                (TraceKind::Copy, memory.copy_time_us(desc.bytes_out))
            } else {
                (
                    TraceKind::Migration,
                    memory.migration_time_us(desc.bytes_out, false),
                )
            };
            let dur = self.config().host_roundtrip_fraction * dur;
            if dur > 0.0 {
                memory_us += dur;
                end = self.timeline.schedule_bus(
                    kind,
                    end,
                    dur,
                    desc.bytes_out,
                    Some(proc),
                    format!("{name} d2h"),
                );
            }
            self.loc[id.index()] = Loc::Both;
        } else {
            self.loc[id.index()] = Loc::of(proc);
        }

        self.ready[id.index()] = end;
        self.layers.push(LayerTiming {
            node: id.index(),
            name,
            class_tag: class.tag().to_string(),
            assignment: self.assignment_of(id),
            start_us: start,
            end_us: end,
            kernel_us,
            memory_us,
        });
        Ok(())
    }

    /// Intra-kernel co-run: CPU computes `p` of the units, GPU the rest.
    /// `by_input` selects the input-channel split (full-size partial sums
    /// merged by addition) instead of the output-unit split.
    fn exec_split(&mut self, id: NodeId, p_cpu: f64, by_input: bool) -> Result<()> {
        let gpu = self.runtime.spec(ProcessorKind::Gpu)?.clone();
        let cpu = self.runtime.platform.cpu.clone();
        let memory = self.runtime.platform.memory.clone();
        let node = self.graph.node(id)?;
        let name = node.layer().name().to_string();
        let class = node.layer().class();
        let desc = kernel_desc(self.graph, id)?;
        let naive = self.config().memory_policy == MemoryPolicy::AllExplicit;

        let inputs: Vec<NodeId> = node.inputs().to_vec();
        let mut ready = inputs
            .iter()
            .map(|i| self.ready[i.index()])
            .fold(0.0, f64::max);
        let start = ready;
        let mut memory_us = 0.0;

        // Both processors need the inputs. Under zero-copy this is free
        // (the whole point of fine-grained co-running on unified memory);
        // under the naive policy the GPU side re-uploads.
        if naive {
            let dur = self.config().host_roundtrip_fraction * memory.copy_time_us(desc.bytes_in);
            if dur > 0.0 {
                memory_us += dur;
                ready = self.timeline.schedule_bus(
                    TraceKind::Copy,
                    ready,
                    dur,
                    desc.bytes_in,
                    Some(ProcessorKind::Gpu),
                    format!("{name} h2d"),
                );
            }
        } else {
            for input in &inputs {
                ready = self
                    .make_available(*input, ProcessorKind::Cpu, ready)
                    .max(ready);
                ready = self
                    .make_available(*input, ProcessorKind::Gpu, ready)
                    .max(ready);
            }
        }

        let bw = if naive {
            1.0
        } else {
            self.bandwidth_factor(id)
        };
        let window_bw = self.fault_bw_factor(ready);
        let window_compute = self.fault_compute_factor(ready);
        let cpu_ctx = ExecutionContext {
            // Zero-copy penalty is GPU-side only, but a degradation
            // window squeezes the shared DRAM for both processors.
            bandwidth_factor: window_bw,
            contention_factor: memory.corun_contention_factor,
            compute_factor: window_compute,
        };
        let gpu_ctx = ExecutionContext {
            bandwidth_factor: bw * window_bw,
            contention_factor: memory.corun_contention_factor,
            compute_factor: window_compute,
        };
        let (cpu_desc, gpu_desc) = if by_input {
            (
                scale_desc_input(&desc, p_cpu),
                scale_desc_input(&desc, 1.0 - p_cpu),
            )
        } else {
            (scale_desc(&desc, p_cpu), scale_desc(&desc, 1.0 - p_cpu))
        };
        let t_cpu = self.jittered(cpu.kernel_time_us(&cpu_desc, &cpu_ctx));
        let cpu_end = self.timeline.schedule(
            ProcessorKind::Cpu,
            TraceKind::Kernel,
            ready,
            t_cpu,
            format!("{name} [cpu part]"),
        );
        // GPU share with recovery: a failed launch retries with backoff;
        // exhaustion re-executes the GPU's share on the CPU after its
        // own part (recovery changes *where*, never *what*).
        let mut gpu_ready = ready;
        let mut failed_attempts = 0u32;
        let mut t_gpu_total = 0.0;
        let gpu_end = loop {
            let t_gpu = self.jittered(gpu.kernel_time_us(&gpu_desc, &gpu_ctx));
            t_gpu_total += t_gpu;
            if !self.fault_should_fail(id, &name, gpu_ready) {
                break self.timeline.schedule(
                    ProcessorKind::Gpu,
                    TraceKind::Kernel,
                    gpu_ready,
                    t_gpu,
                    format!("{name} [gpu part]"),
                );
            }
            failed_attempts += 1;
            let fail_end = self.timeline.schedule(
                ProcessorKind::Gpu,
                TraceKind::Kernel,
                gpu_ready,
                t_gpu,
                format!("{name} [gpu part attempt {failed_attempts} failed]"),
            );
            if failed_attempts <= self.fault_retry_budget() {
                let backoff = self.fault_log_retry(id, &name, fail_end, failed_attempts);
                gpu_ready = fail_end + backoff;
            } else {
                self.fault_log_fallback(id, &name, fail_end, failed_attempts);
                let t = self.jittered(cpu.kernel_time_us(&gpu_desc, &cpu_ctx));
                t_gpu_total += t;
                break self.timeline.schedule(
                    ProcessorKind::Cpu,
                    TraceKind::Kernel,
                    cpu_end.max(fail_end),
                    t,
                    format!("{name} [gpu share on cpu]"),
                );
            }
        };
        let mut end = cpu_end.max(gpu_end);
        let kernel_us = t_cpu.max(t_gpu_total);

        // Merge the CPU part into the canonical output array. An
        // input-channel split produces a full-size partial sum on each
        // processor, so the whole output volume crosses at the merge; an
        // output split only moves the CPU's share.
        let merge_bytes = if by_input {
            desc.bytes_out
        } else {
            (desc.bytes_out as f64 * p_cpu) as u64
        };
        match self.alloc_of(id) {
            AllocStrategy::Explicit => {
                let dur = memory.copy_time_us(merge_bytes);
                memory_us += dur;
                end = self.timeline.schedule_bus(
                    TraceKind::Copy,
                    end,
                    dur,
                    merge_bytes,
                    Some(ProcessorKind::Gpu),
                    format!("{name} merge"),
                );
            }
            AllocStrategy::Managed => {
                // An output split writes disjoint ranges of one managed
                // array: only the pages straddling the partition boundary
                // thrash. An input split's partial sums overlap on every
                // page — the full race-condition case of Section IV-B.
                let boundary = if by_input {
                    merge_bytes
                } else {
                    merge_bytes.min(128 << 10)
                };
                let dur = memory.thrash_time_us(boundary);
                memory_us += dur;
                end = self.timeline.schedule_bus(
                    TraceKind::Thrash,
                    end,
                    dur,
                    boundary,
                    None,
                    format!("{name} boundary pages"),
                );
            }
        }

        // Co-run synchronization (kernel wait + worker join).
        end += self.config().sync_overhead_us;
        self.timeline.advance_to(end);

        self.loc[id.index()] = if self.alloc_of(id) == AllocStrategy::Managed {
            Loc::Both
        } else {
            Loc::Device
        };
        self.ready[id.index()] = end;
        self.layers.push(LayerTiming {
            node: id.index(),
            name,
            class_tag: class.tag().to_string(),
            assignment: self.assignment_of(id),
            start_us: start,
            end_us: end,
            kernel_us,
            memory_us,
        });
        Ok(())
    }

    /// Executes a fork-join region: branches on their assigned processors,
    /// concurrently when assignments differ.
    fn exec_parallel(&mut self, branches: &[Vec<NodeId>], join: NodeId) -> Result<()> {
        // A branch is CPU-assigned when its first node is.
        let mut has_cpu = false;
        let mut has_gpu = false;
        for branch in branches {
            match branch.first().map(|id| self.assignment_of(*id)) {
                Some(Assignment::Cpu) => has_cpu = true,
                Some(Assignment::Gpu)
                | Some(Assignment::Split { .. })
                | Some(Assignment::SplitInput { .. }) => has_gpu = true,
                None => {}
            }
        }
        let corun = has_cpu && has_gpu;

        for branch in branches {
            for &id in branch {
                self.exec_node(id, corun)?;
            }
        }

        if corun {
            // The processors synchronize before the join layer
            // (paper Figure 5: "CPU and GPU need to synchronize before
            // going on to the concatenation layer").
            let at = branches
                .iter()
                .flat_map(|b| b.last())
                .map(|id| self.ready[id.index()])
                .fold(0.0, f64::max)
                + self.config().sync_overhead_us;
            self.timeline.advance_to(at);
            let join_name = self.graph.node(join)?.layer().name().to_string();
            self.timeline.schedule_bus(
                TraceKind::Sync,
                at - self.config().sync_overhead_us,
                self.config().sync_overhead_us,
                0,
                None,
                format!("barrier before {join_name}"),
            );
        }
        Ok(())
    }

    /// Final D2H of the class scores (the host consumes the result).
    fn read_back_output(&mut self, output: NodeId) -> Result<()> {
        let memory = self.runtime.platform.memory.clone();
        let node = self.graph.node(output)?;
        let bytes = (node.output_shape().num_elements() * 4) as u64;
        let at = self.ready[output.index()];
        if !self.loc[output.index()].available_to(ProcessorKind::Cpu) {
            let dur = match self.alloc_of(output) {
                AllocStrategy::Explicit => memory.copy_time_us(bytes),
                AllocStrategy::Managed => memory.migration_time_us(bytes, false),
            };
            self.timeline.schedule_bus(
                TraceKind::Copy,
                at,
                dur,
                bytes,
                Some(ProcessorKind::Cpu),
                "output read-back",
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ExecutionConfig, NodePlan};
    use edgenn_nn::models::{build, ModelKind, ModelScale};
    use edgenn_sim::platforms::{jetson_agx_xavier, raspberry_pi_4};

    fn gpu_plan(graph: &Graph, config: ExecutionConfig) -> ExecutionPlan {
        ExecutionPlan {
            config,
            nodes: vec![NodePlan::gpu_explicit(); graph.len()],
        }
    }

    fn cpu_plan(graph: &Graph, config: ExecutionConfig) -> ExecutionPlan {
        ExecutionPlan {
            config,
            nodes: vec![
                NodePlan {
                    assignment: Assignment::Cpu,
                    output_alloc: AllocStrategy::Explicit,
                    prefetch_inputs: false,
                };
                graph.len()
            ],
        }
    }

    #[test]
    fn gpu_baseline_runs_all_models() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Paper);
            let plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
            let report = runtime.simulate(&graph, &plan).unwrap();
            assert!(report.total_us > 0.0, "{kind}");
            assert!(report.summary.copy_us > 0.0, "{kind}: naive mode must copy");
            assert!(report.energy.energy_mj > 0.0, "{kind}");
            // Kernel events exist for every non-input layer.
            assert_eq!(report.layers.len(), graph.len() - 1, "{kind}");
        }
    }

    #[test]
    fn cpu_only_runs_on_gpuless_platform() {
        let platform = raspberry_pi_4();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::LeNet, ModelScale::Paper);
        let plan = cpu_plan(&graph, ExecutionConfig::cpu_only());
        let report = runtime.simulate(&graph, &plan).unwrap();
        assert!(report.total_us > 0.0);
        assert_eq!(report.energy.gpu_utilization, 0.0);
    }

    #[test]
    fn gpu_plan_on_gpuless_platform_errors() {
        let platform = raspberry_pi_4();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::LeNet, ModelScale::Paper);
        let plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
        assert!(matches!(
            runtime.simulate(&graph, &plan),
            Err(CoreError::NoGpu { .. })
        ));
    }

    #[test]
    fn managed_policy_eliminates_explicit_copies() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::AlexNet, ModelScale::Paper);
        let naive = runtime
            .simulate(&graph, &gpu_plan(&graph, ExecutionConfig::baseline_gpu()))
            .unwrap();
        let mut managed_cfg = ExecutionConfig::baseline_gpu();
        managed_cfg.memory_policy = MemoryPolicy::AllManaged;
        let managed = runtime
            .simulate(&graph, &gpu_plan(&graph, managed_cfg))
            .unwrap();
        assert!(naive.summary.copy_us > 0.0);
        assert!(managed.summary.copy_us < naive.summary.copy_us / 4.0);
    }

    #[test]
    fn split_assignment_beats_gpu_only_on_fc_heavy_net() {
        // FCNN's fc layers are memory-bound on the GPU; a tuned split
        // should win despite sync overhead.
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::Fcnn, ModelScale::Paper);
        let mut cfg = ExecutionConfig::edgenn();
        cfg.memory_policy = MemoryPolicy::AllManaged;
        let baseline = {
            let mut plan = gpu_plan(&graph, cfg);
            plan.config.memory_policy = MemoryPolicy::AllManaged;
            runtime.simulate(&graph, &plan).unwrap()
        };
        // Hand-build a split plan on the large fc layers.
        let mut plan = gpu_plan(&graph, cfg);
        for (idx, node) in graph.nodes().iter().enumerate() {
            if node.layer().class() == LayerClass::Fc {
                let (t_cpu, t_gpu) = runtime.node_times(&graph, NodeId(idx)).unwrap();
                let p = t_gpu / (t_cpu + t_gpu);
                plan.nodes[idx].assignment = Assignment::Split { cpu_fraction: p };
            }
        }
        let split = runtime.simulate(&graph, &plan).unwrap();
        assert!(
            split.total_us < baseline.total_us,
            "split {} should beat gpu-only {}",
            split.total_us,
            baseline.total_us
        );
    }

    #[test]
    fn jitter_changes_times_but_stays_deterministic_per_seed() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::LeNet, ModelScale::Paper);
        let mut cfg = ExecutionConfig::baseline_gpu();
        cfg.jitter = 0.1;
        cfg.jitter_seed = 1;
        let a = runtime.simulate(&graph, &gpu_plan(&graph, cfg)).unwrap();
        let b = runtime.simulate(&graph, &gpu_plan(&graph, cfg)).unwrap();
        assert_eq!(a.total_us, b.total_us, "same seed, same result");
        cfg.jitter_seed = 2;
        let c = runtime.simulate(&graph, &gpu_plan(&graph, cfg)).unwrap();
        assert_ne!(a.total_us, c.total_us, "different seed, different result");
    }

    #[test]
    fn scale_desc_partitions_conserve_flops() {
        let graph = build(ModelKind::AlexNet, ModelScale::Paper);
        let desc = kernel_desc(&graph, NodeId(1)).unwrap();
        let a = scale_desc(&desc, 0.3);
        let b = scale_desc(&desc, 0.7);
        let total = a.flops + b.flops;
        assert!(total >= desc.flops - 1 && total <= desc.flops + 1);
        assert_eq!(a.bytes_in, desc.bytes_in, "both parts read the whole input");
        assert_eq!(a.working_set_bytes, desc.working_set_bytes);
    }

    #[test]
    fn op_class_covers_all_layer_classes() {
        assert_eq!(op_class(LayerClass::Conv), OpClass::Conv);
        assert_eq!(op_class(LayerClass::Fc), OpClass::Fc);
        assert_eq!(op_class(LayerClass::Pool), OpClass::Pool);
        assert_eq!(op_class(LayerClass::Activation), OpClass::Activation);
        assert_eq!(op_class(LayerClass::Norm), OpClass::Norm);
        assert_eq!(op_class(LayerClass::Combine), OpClass::Combine);
        assert_eq!(op_class(LayerClass::Input), OpClass::Combine);
    }

    #[test]
    fn stream_throughput_at_least_matches_sequential() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::AlexNet, ModelScale::Paper);
        let plan = {
            let tuner = crate::tuner::Tuner::new(&graph, &runtime).unwrap();
            tuner
                .plan(&graph, &runtime, ExecutionConfig::edgenn())
                .unwrap()
        };
        let single = runtime.simulate(&graph, &plan).unwrap();
        let stream = runtime.simulate_stream(&graph, &plan, 8).unwrap();
        assert_eq!(stream.requests, 8);
        assert_eq!(stream.finish_times_us.len(), 8);
        // Completions are ordered and the stream is no slower than 8
        // strictly sequential runs.
        for w in stream.finish_times_us.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(stream.total_us <= single.total_us * 8.0 + 1e-6);
        assert!(stream.throughput_per_s >= 1e6 / single.total_us - 1e-6);
        assert!(stream.inter_completion_us() <= single.total_us + 1e-6);
        assert!(stream.energy.energy_mj > single.energy.energy_mj);
    }

    #[test]
    fn stream_rejects_zero_requests() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::LeNet, ModelScale::Paper);
        let plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
        assert!(runtime.simulate_stream(&graph, &plan, 0).is_err());
    }

    #[test]
    fn per_layer_timings_are_ordered_and_positive() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::SqueezeNet, ModelScale::Paper);
        let report = runtime
            .simulate(&graph, &gpu_plan(&graph, ExecutionConfig::baseline_gpu()))
            .unwrap();
        for layer in &report.layers {
            assert!(layer.end_us >= layer.start_us, "{}", layer.name);
            assert!(layer.kernel_us > 0.0, "{}", layer.name);
        }
        let sum_kernels: f64 = report.layers.iter().map(|l| l.kernel_us).sum();
        assert!(sum_kernels <= report.total_us + 1e-6);
    }

    /// First non-input node index in the GPU plan (fault anchor).
    fn first_kernel_node(graph: &Graph) -> usize {
        graph
            .topo_order()
            .into_iter()
            .find(|id| graph.node(*id).unwrap().layer().class() != LayerClass::Input)
            .unwrap()
            .index()
    }

    #[test]
    fn empty_fault_plan_is_bitwise_identical_to_plain_simulate() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::LeNet, ModelScale::Paper);
        let plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
        let plain = runtime.simulate(&graph, &plan).unwrap();
        let outcome = runtime
            .simulate_with_faults(
                &graph,
                &plan,
                &FaultPlan::none(),
                &ResilienceConfig::default(),
            )
            .unwrap();
        assert!(outcome.recovery.is_clean());
        assert_eq!(
            outcome.report.total_us, plain.total_us,
            "resilience machinery must cost nothing when idle"
        );
    }

    #[test]
    fn analytic_permanent_failure_exhausts_retries_then_falls_back() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::LeNet, ModelScale::Paper);
        let plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
        let mut faults = FaultPlan::none();
        faults.kernel_faults.push(edgenn_sim::KernelFault {
            node: first_kernel_node(&graph),
            fail_count: u32::MAX,
        });
        let cfg = ResilienceConfig::default();
        let outcome = runtime
            .simulate_with_faults(&graph, &plan, &faults, &cfg)
            .unwrap();
        assert_eq!(outcome.recovery.retries, u64::from(cfg.max_retries));
        assert_eq!(outcome.recovery.fallbacks, 1);
        assert!(outcome.recovery.gpu_lost, "permanent loss re-tunes to CPU");
        let clean = runtime.simulate(&graph, &plan).unwrap();
        assert!(
            outcome.report.total_us > clean.total_us,
            "retries and the CPU path must cost simulated time"
        );
    }

    #[test]
    fn analytic_one_shot_transient_recovers_in_one_retry() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::LeNet, ModelScale::Paper);
        let plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
        let mut faults = FaultPlan::none();
        faults.kernel_faults.push(edgenn_sim::KernelFault {
            node: first_kernel_node(&graph),
            fail_count: 1,
        });
        let outcome = runtime
            .simulate_with_faults(&graph, &plan, &faults, &ResilienceConfig::default())
            .unwrap();
        assert_eq!(outcome.recovery.retries, 1);
        assert_eq!(outcome.recovery.fallbacks, 0);
        assert!(!outcome.recovery.gpu_lost);
        assert_eq!(outcome.recovery.faults_injected, 1);
    }

    #[test]
    fn deadline_budget_degrades_the_run_to_a_single_processor() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::ResNet18, ModelScale::Paper);
        let plan = {
            let tuner = crate::tuner::Tuner::new(&graph, &runtime).unwrap();
            tuner
                .plan(&graph, &runtime, ExecutionConfig::edgenn())
                .unwrap()
        };
        let cfg = ResilienceConfig {
            deadline_us: Some(1.0), // burns immediately
            ..ResilienceConfig::default()
        };
        let outcome = runtime
            .simulate_with_faults(&graph, &plan, &FaultPlan::none(), &cfg)
            .unwrap();
        assert_eq!(outcome.recovery.deadline_degradations, 1);
        assert!(outcome
            .recovery
            .events
            .iter()
            .any(|e| e.action == RecoveryAction::DegradeToSingleProcessor));
    }

    #[test]
    fn seeded_fault_runs_are_deterministic_and_survive_every_seed() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::SqueezeNet, ModelScale::Paper);
        let plan = {
            let tuner = crate::tuner::Tuner::new(&graph, &runtime).unwrap();
            tuner
                .plan(&graph, &runtime, ExecutionConfig::edgenn())
                .unwrap()
        };
        let cfg = ResilienceConfig::default();
        for seed in 0..12u64 {
            let faults = FaultPlan::from_seed(seed, graph.len());
            let a = runtime
                .simulate_with_faults(&graph, &plan, &faults, &cfg)
                .unwrap();
            let b = runtime
                .simulate_with_faults(&graph, &plan, &faults, &cfg)
                .unwrap();
            assert_eq!(a.report.total_us, b.report.total_us, "seed {seed}");
            assert_eq!(
                a.recovery.faults_injected, b.recovery.faults_injected,
                "seed {seed}"
            );
            assert!(a.report.total_us.is_finite() && a.report.total_us > 0.0);
        }
    }

    #[test]
    fn oom_pressure_shrinks_the_footprint_to_managed_arrays() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::Vgg16, ModelScale::Paper);
        let plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
        // Reserve enough DRAM that the explicit-copy footprint no longer
        // fits but the all-managed one still does, forcing exactly one
        // shrink rather than an unrecoverable failure.
        let explicit_peak = crate::footprint::footprint(&graph, &plan)
            .unwrap()
            .peak_bytes;
        let mut managed_plan = plan.clone();
        managed_plan.config.memory_policy = MemoryPolicy::AllManaged;
        let managed_peak = crate::footprint::footprint(&graph, &managed_plan)
            .unwrap()
            .peak_bytes;
        assert!(managed_peak < explicit_peak);
        let budget = (managed_peak + explicit_peak) as f64 / 2.0;
        let mut faults = FaultPlan::none();
        faults.oom_reserve_fraction = 1.0 - budget / platform.dram_bytes as f64;
        let outcome = runtime
            .simulate_with_faults(&graph, &plan, &faults, &ResilienceConfig::default())
            .unwrap();
        assert!(outcome
            .recovery
            .events
            .iter()
            .any(|e| e.action == RecoveryAction::ShrinkFootprint));
    }
}
