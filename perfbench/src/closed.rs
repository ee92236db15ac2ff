//! The closed-loop workloads. One client thread calls the executor and
//! sends its next call only when the previous one returns:
//!
//! * `tiny-stream` calls `Executor::execute` (batch 1) on the six Tiny
//!   models in f32 and int8: twelve classes whose 60-750 us calls are
//!   dominated by fixed per-call costs (pool spawn, slot allocation,
//!   plan validation).
//! * `paper-batch` calls `Executor::batch_execute` with batches of four
//!   on Paper-scale AlexNet, ResNet-18 and SqueezeNet (f32): conv
//!   packing and GEMM do almost all the work. VGG-16 is left out, at
//!   about a second per image it would leave too few rounds per run.
//!
//! Each round runs every class once in a seeded shuffle; throughput is
//! inferences per median round and latency the geometric mean of the
//! per-class medians.

use std::collections::BTreeMap;
use std::time::Instant;

use edgenn_core::plan::{ExecutionConfig, ExecutionPlan, Precision};
use edgenn_core::runtime::functional::{Executor, FunctionalOutcome};
use edgenn_core::runtime::{kernel_desc, Runtime};
use edgenn_core::tuner::Tuner;
use edgenn_nn::graph::{compile, CompileOptions, Graph};
use edgenn_nn::models::{build, ModelKind, ModelScale};
use edgenn_obs::flight;
use edgenn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde_json::{Map, Value};

use crate::record::{self, Outcome, Spans, Summary, Window};
use crate::stats::{self, geomean_of_medians, median, per_median_round};

const MIB: f64 = 1024.0 * 1024.0;

/// One closed-loop workload.
#[derive(Debug)]
pub struct Spec {
    /// Model scale every class is built at.
    pub scale: ModelScale,
    /// Models, one class per (model, precision).
    pub models: &'static [ModelKind],
    /// Engine precisions.
    pub precisions: &'static [Precision],
    /// Inputs per call: 1 calls `execute`, more call `batch_execute`.
    pub batch: usize,
    /// Distinct seeded calls per class, cycled round by round.
    pub calls: usize,
    /// Full set-ups timed for `setup_s` (its median).
    pub setups: usize,
}

/// `tiny-stream`: twelve classes, `execute` at batch 1.
pub const TINY_STREAM: Spec = Spec {
    scale: ModelScale::Tiny,
    models: &ModelKind::ALL,
    precisions: &[Precision::F32, Precision::Int8],
    batch: 1,
    calls: 4,
    setups: 31,
};

/// `paper-batch`: three Paper-scale models, `batch_execute` at batch 4.
pub const PAPER_BATCH: Spec = Spec {
    scale: ModelScale::Paper,
    models: &[
        ModelKind::AlexNet,
        ModelKind::ResNet18,
        ModelKind::SqueezeNet,
    ],
    precisions: &[Precision::F32],
    batch: 4,
    calls: 1,
    setups: 5,
};

/// Absolute tolerance of the core property tests against the
/// uncompiled reference, per precision, for outputs of magnitude <= 1.
fn tolerance(precision: Precision) -> f32 {
    match precision {
        Precision::F32 => 1e-4,
        Precision::Int8 => 0.05,
    }
}

/// True when `out` is within `tol` of `reference`, the tolerance scaled
/// by the reference's largest magnitude when that exceeds 1 (Paper-scale
/// logits are larger than the Tiny ones the tolerances were set on).
#[must_use]
pub fn within(out: &Tensor, reference: &Tensor, tol: f32) -> bool {
    let scale = reference
        .as_slice()
        .iter()
        .fold(1.0f32, |m, v| m.max(v.abs()));
    out.approx_eq(reference, tol * scale)
}

/// Outputs of one call that differ in any bit from the expected ones
/// (a missing or extra output counts as differing).
#[must_use]
pub fn mismatches(outputs: &[Tensor], expected: &[Tensor]) -> u64 {
    let same = |a: &Tensor, b: &Tensor| {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    };
    let differing = outputs
        .iter()
        .zip(expected)
        .filter(|(a, b)| !same(a, b))
        .count();
    (differing + outputs.len().abs_diff(expected.len())) as u64
}

/// One compiled, planned model.
struct Loaded {
    graph: Graph,
    nodes_post: usize,
    prepacked_bytes: u64,
    /// One plan per `Spec::precisions` entry.
    plans: Vec<ExecutionPlan>,
}

/// Seconds spent in each set-up step, summed over the models.
#[derive(Debug, Default, Clone, Copy)]
struct SetupTimes {
    build: f64,
    compile: f64,
    plan: f64,
    new: f64,
    first: f64,
    total: f64,
}

fn config(precision: Precision) -> ExecutionConfig {
    let mut config = ExecutionConfig::edgenn();
    config.precision = precision;
    config
}

fn call(
    exec: &Executor<'_>,
    plan: &ExecutionPlan,
    inputs: &[Tensor],
) -> Result<Vec<FunctionalOutcome>, String> {
    let outcomes = if let [one] = inputs {
        exec.execute(plan, one).map(|o| vec![o])
    } else {
        exec.batch_execute(plan, inputs)
    };
    outcomes.map_err(|e| e.to_string())
}

fn call_name(spec: &Spec) -> &'static str {
    if spec.batch == 1 {
        "core::Executor::execute"
    } else {
        "core::Executor::batch_execute"
    }
}

/// One full set-up: build, compile and prepack, plan, `Executor::new`
/// and a first single-input inference per precision, for every model.
fn set_up(
    spec: &Spec,
    runtime: &Runtime<'_>,
    first_inputs: &[&Tensor],
    spans: &mut Spans,
) -> Result<(Vec<Loaded>, SetupTimes), String> {
    let options = if spec.precisions.contains(&Precision::Int8) {
        CompileOptions::int8()
    } else {
        CompileOptions::default()
    };
    let start = Instant::now();
    let parent = spans.open("setup", None);
    let mut t = SetupTimes::default();
    let mut loaded = Vec::with_capacity(spec.models.len());
    for (&kind, &first) in spec.models.iter().zip(first_inputs) {
        let s = Instant::now();
        let raw = build(kind, spec.scale);
        t.build += s.elapsed().as_secs_f64();
        spans.close("nn::models::build", parent, s);

        let s = Instant::now();
        let (graph, report) = compile(&raw, &options).map_err(|e| e.to_string())?;
        drop(raw);
        t.compile += s.elapsed().as_secs_f64();
        spans.close("nn::graph::compile", parent, s);

        let s = Instant::now();
        let tuner = Tuner::new(&graph, runtime).map_err(|e| e.to_string())?;
        let plans = spec
            .precisions
            .iter()
            .map(|&p| tuner.plan(&graph, runtime, config(p)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        t.plan += s.elapsed().as_secs_f64();
        spans.close("core::tuner::Tuner::plan", parent, s);

        let s = Instant::now();
        let exec = Executor::new(&graph).map_err(|e| e.to_string())?;
        t.new += s.elapsed().as_secs_f64();
        spans.close("core::Executor::new", parent, s);

        let s = Instant::now();
        for plan in &plans {
            exec.execute(plan, first).map_err(|e| e.to_string())?;
        }
        t.first += s.elapsed().as_secs_f64();
        spans.close("core::Executor::execute", parent, s);
        drop(exec);

        loaded.push(Loaded {
            nodes_post: report.nodes_post,
            prepacked_bytes: report.prepacked_bytes,
            graph,
            plans,
        });
    }
    t.total = start.elapsed().as_secs_f64();
    spans.finish(parent);
    Ok((loaded, t))
}

/// Seeded inputs per model and call, and the uncompiled reference
/// forward pass of each.
#[allow(clippy::type_complexity)]
fn references(
    spec: &Spec,
    rng: &mut StdRng,
    spans: &mut Spans,
) -> Result<(Vec<Vec<Vec<Tensor>>>, Vec<Vec<Vec<Tensor>>>), String> {
    let parent = spans.open("reference", None);
    let mut inputs = Vec::new();
    let mut refs = Vec::new();
    for &kind in spec.models {
        let raw = build(kind, spec.scale);
        let dims = raw.input_shape().dims().to_vec();
        let calls: Vec<Vec<Tensor>> = (0..spec.calls)
            .map(|_| {
                (0..spec.batch)
                    .map(|_| Tensor::random(&dims, 1.0, rng.next_u64()))
                    .collect()
            })
            .collect();
        let mut model_refs = Vec::new();
        for c in &calls {
            let s = Instant::now();
            let outs = c
                .iter()
                .map(|x| raw.forward(x))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            spans.close("nn::Graph::forward (uncompiled)", parent, s);
            model_refs.push(outs);
        }
        inputs.push(calls);
        refs.push(model_refs);
    }
    spans.finish(parent);
    Ok((inputs, refs))
}

/// Accumulated flight-recorder attribution of one compiled node.
#[derive(Debug, Default, Clone)]
struct NodeRow {
    layer: String,
    kind: &'static str,
    flops: u64,
    bytes: u64,
    predicted_us: f64,
    wall_us: f64,
    pack_us: f64,
    compute_us: f64,
    merge_us: f64,
    queue_us: f64,
}

/// Everything the traced rounds accumulate.
#[derive(Debug, Default)]
struct TraceAcc {
    inferences: u64,
    pool_tasks: u64,
    inline_tasks: u64,
    queue_wait_ns: u64,
    arena_fresh_bytes: u64,
    slot_bytes_max: u64,
    corun_layers: u64,
    pack_us: f64,
    compute_us: f64,
    merge_us: f64,
    dropped: u64,
    cpu_s: f64,
    /// Per class, node id -> row.
    nodes: Vec<BTreeMap<u32, NodeRow>>,
    /// Per class, inferences the rows were accumulated over.
    node_inferences: Vec<u64>,
}

impl TraceAcc {
    fn add_outcomes(&mut self, outcomes: &[FunctionalOutcome]) {
        for o in outcomes {
            let e = &o.engine;
            self.inferences += 1;
            self.pool_tasks += e.pool_tasks;
            self.inline_tasks += e.inline_tasks;
            self.queue_wait_ns += e.queue_wait_ns;
            self.arena_fresh_bytes += e.arena_fresh_bytes;
            self.slot_bytes_max = self.slot_bytes_max.max(e.slot_bytes);
            self.corun_layers += o.corun_layers as u64;
            if let Some(p) = &e.profile {
                let total = |stage: &str| p.stage(stage).map_or(0.0, |s| s.total_us);
                self.pack_us += total("pack");
                self.compute_us += total("compute");
                self.merge_us += total("merge");
            }
        }
    }

    fn add_records(&mut self, class: usize, records: &[flight::SpanRecord], inferences: u64) {
        self.node_inferences[class] += inferences;
        for p in flight::node_profiles(records) {
            if let Some(row) = self.nodes[class].get_mut(&p.node) {
                row.wall_us += p.wall_us;
                row.pack_us += p.pack_us;
                row.compute_us += p.compute_us;
                row.merge_us += p.merge_us;
                row.queue_us += p.queue_wait_us;
            }
        }
    }
}

/// Static per-node columns: layer, kind, FLOPs, bytes and the
/// simulator's prediction for the class's plan.
fn node_table(
    graph: &Graph,
    plan: &ExecutionPlan,
    runtime: &Runtime<'_>,
) -> Result<BTreeMap<u32, NodeRow>, String> {
    let predicted = runtime.simulate(graph, plan).map_err(|e| e.to_string())?;
    let mut rows = BTreeMap::new();
    for id in graph.topo_order().skip(1) {
        let node = graph.node(id).map_err(|e| e.to_string())?;
        let desc = kernel_desc(graph, id).map_err(|e| e.to_string())?;
        let predicted_us = predicted
            .layers
            .iter()
            .filter(|l| l.node == id.index())
            .map(|l| l.kernel_us + l.memory_us)
            .sum();
        rows.insert(
            u32::try_from(id.index()).map_err(|e| e.to_string())?,
            NodeRow {
                layer: node.layer().name().to_string(),
                kind: node.layer().class().tag(),
                flops: desc.flops,
                bytes: desc.bytes_in + desc.bytes_out + desc.weight_bytes,
                predicted_us,
                ..NodeRow::default()
            },
        );
    }
    Ok(rows)
}

/// What kind of round runs next. Untraced runs only run `Plain`; traced
/// runs cycle all three so drift on the host hits each alike.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Round {
    /// Executor calls, recorder off.
    Plain,
    /// Executor calls, flight recorder on, records drained per call.
    Traced,
    /// Single-threaded `Graph::forward` on the same compiled graphs.
    Forward,
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Parses `corun_cutoff` out of the executor's `Debug` output.
pub fn corun_cutoff(exec: &Executor<'_>) -> f64 {
    let text = format!("{exec:?}");
    text.split("corun_cutoff: ")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0.0)
}

/// Shortest measurement block: 50 host ticks on two cores, enough to
/// tell a block's steal share to 2%.
const BLOCK_S: f64 = 0.25;

/// Consecutive plain rounds measured as one unit of host noise.
#[derive(Debug, Default)]
struct Block {
    /// Host steal share over the block.
    steal: f64,
    /// Process CPU seconds over the block.
    cpu_s: f64,
    /// Inferences of plain rounds in the block.
    inferences: u64,
    /// Plain round times (s).
    rounds: Vec<f64>,
    /// `(class, per-inference seconds)` of every plain call.
    samples: Vec<(usize, f64)>,
}

/// Counters at the start of the open block.
struct BlockMark {
    start: Instant,
    host: crate::procfs::HostTicks,
    cpu_s: f64,
}

impl BlockMark {
    fn now() -> Self {
        Self {
            start: Instant::now(),
            host: crate::procfs::host_ticks().unwrap_or_default(),
            cpu_s: crate::procfs::process_cpu_s().unwrap_or(0.0),
        }
    }

    fn close(&self, mut block: Block) -> Block {
        block.steal =
            crate::procfs::steal_share(self.host, crate::procfs::host_ticks().unwrap_or(self.host));
        block.cpu_s = crate::procfs::process_cpu_s().unwrap_or(self.cpu_s) - self.cpu_s;
        block
    }
}

impl Block {
    fn class_samples(blocks: &[&Block], classes: usize) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); classes];
        for (ci, t) in blocks.iter().flat_map(|b| &b.samples) {
            out[*ci].push(*t);
        }
        out
    }

    fn summary(blocks: &[&Block], classes: usize, per_round: usize) -> Summary {
        let rounds: Vec<f64> = blocks
            .iter()
            .flat_map(|b| b.rounds.iter().copied())
            .collect();
        let inferences: u64 = blocks.iter().map(|b| b.inferences).sum();
        Summary {
            latency_ms: geomean_of_medians(&Self::class_samples(blocks, classes)).map(|s| s * 1e3),
            throughput: per_median_round(per_round, &rounds),
            cpu_ms: blocks.iter().map(|b| b.cpu_s).sum::<f64>() * 1e3 / inferences.max(1) as f64,
        }
    }
}

/// Runs one closed-loop workload for `seconds`.
///
/// # Errors
/// Fails when a model cannot be built, planned or executed.
#[allow(clippy::too_many_lines)]
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let platform = edgenn_sim::platforms::jetson_agx_xavier();
    let runtime = Runtime::new(&platform);
    let mut rng = StdRng::seed_from_u64(seed);
    let (inputs, refs) = references(spec, &mut rng, spans)?;

    let first_inputs: Vec<&Tensor> = inputs.iter().map(|calls| &calls[0][0]).collect();
    let mut setups = Vec::with_capacity(spec.setups);
    let mut loaded = Vec::new();
    for _ in 0..spec.setups {
        drop(std::mem::take(&mut loaded));
        let (l, t) = set_up(spec, &runtime, &first_inputs, spans)?;
        loaded = l;
        setups.push(t);
    }
    let execs = loaded
        .iter()
        .map(|l| Executor::new(&l.graph))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;

    // Classes (model, precision index), each checked once against the
    // uncompiled reference; later calls must reproduce these bits.
    let classes: Vec<(usize, usize)> = (0..spec.models.len())
        .flat_map(|m| (0..spec.precisions.len()).map(move |p| (m, p)))
        .collect();
    let class_name =
        |&(m, p): &(usize, usize)| format!("{}/{:?}", spec.models[m], spec.precisions[p]);
    let mut correct = true;
    let mut warm: Vec<Vec<Vec<Tensor>>> = Vec::with_capacity(classes.len());
    for &(m, p) in &classes {
        let mut per_call = Vec::with_capacity(spec.calls);
        for (c, call_inputs) in inputs[m].iter().enumerate() {
            let outs: Vec<Tensor> = call(&execs[m], &loaded[m].plans[p], call_inputs)?
                .into_iter()
                .map(|o| o.output)
                .collect();
            let tol = tolerance(spec.precisions[p]);
            if !outs.iter().zip(&refs[m][c]).all(|(o, r)| within(o, r, tol)) {
                eprintln!(
                    "{}: call {c} is outside the reference tolerance",
                    class_name(&(m, p))
                );
                correct = false;
            }
            per_call.push(outs);
        }
        warm.push(per_call);
    }
    drop(refs);

    let mut acc = TraceAcc::default();
    if traced {
        for &(m, p) in &classes {
            acc.nodes
                .push(node_table(&loaded[m].graph, &loaded[m].plans[p], &runtime)?);
        }
        acc.node_inferences = vec![0; classes.len()];
    }
    let kinds: &[Round] = if traced {
        &[Round::Plain, Round::Traced, Round::Forward]
    } else {
        &[Round::Plain]
    };
    // Latency samples of the traced and forward rounds, per class.
    let mut lat: [Vec<Vec<f64>>; 2] = std::array::from_fn(|_| vec![Vec::new(); classes.len()]);
    let mut blocks: Vec<Block> = Vec::new();
    let mut block = Block::default();
    let mut block_mark = BlockMark::now();
    let mut pooled_ms = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut order: Vec<usize> = (0..classes.len()).collect();
    // Read before the measurement loop: the loop's own latency samples
    // grow with throughput and would otherwise leak into the figure.
    let peak_rss = crate::procfs::peak_rss_mib().ok_or("no VmHWM")?;
    let window = Window::start();
    let mut n = 0usize;
    while window.elapsed_s() < seconds {
        let kind = kinds[n % kinds.len()];
        let call_idx = (n / kinds.len()) % spec.calls;
        n += 1;
        shuffle(&mut order, &mut rng);
        let round_span = spans.open("round", None);
        if kind == Round::Traced {
            flight::enable();
        }
        let round_start = Instant::now();
        for &ci in &order {
            let (m, p) = classes[ci];
            let call_inputs = &inputs[m][call_idx];
            if kind == Round::Forward {
                if spec.precisions[p] != Precision::F32 {
                    continue;
                }
                for x in call_inputs {
                    let s = Instant::now();
                    std::hint::black_box(loaded[m].graph.forward(x).map_err(|e| e.to_string())?);
                    lat[1][ci].push(s.elapsed().as_secs_f64());
                    spans.close("nn::Graph::forward", round_span, s);
                }
                continue;
            }
            let window_marks = (kind == Round::Traced).then(|| {
                let cpu = crate::procfs::process_cpu_s().unwrap_or(0.0);
                (flight::mark(), flight::total_records(), cpu)
            });
            let s = Instant::now();
            let outcomes = call(&execs[m], &loaded[m].plans[p], call_inputs)?;
            let per_inf = s.elapsed().as_secs_f64() / spec.batch as f64;
            if kind == Round::Traced {
                spans.close(call_name(spec), round_span, s);
            }
            if let Some((marker, written, cpu)) = window_marks {
                acc.cpu_s += crate::procfs::process_cpu_s().unwrap_or(cpu) - cpu;
                let records = flight::drain_since(&marker);
                acc.dropped += record::lost_records(written, records.len());
                acc.add_outcomes(&outcomes);
                acc.add_records(ci, &records, spec.batch as u64);
                lat[0][ci].push(per_inf);
            } else {
                block.samples.push((ci, per_inf));
                block.inferences += spec.batch as u64;
                if traced {
                    pooled_ms.push(per_inf * 1e3);
                }
            }
            attempted += spec.batch as u64;
            let outs: Vec<Tensor> = outcomes.into_iter().map(|o| o.output).collect();
            failed += mismatches(&outs, &warm[ci][call_idx]);
        }
        if kind == Round::Plain {
            block.rounds.push(round_start.elapsed().as_secs_f64());
            if block_mark.start.elapsed().as_secs_f64() >= BLOCK_S {
                blocks.push(block_mark.close(std::mem::take(&mut block)));
                block_mark = BlockMark::now();
            }
        }
        if kind == Round::Traced {
            flight::disable();
        }
        spans.finish(round_span);
    }
    if !block.rounds.is_empty() {
        blocks.push(block_mark.close(block));
    }
    let w = window.finish();
    let [traced_lat, forward] = lat;
    let per_round = classes.len() * spec.batch;
    let all: Vec<&Block> = blocks.iter().collect();
    let quiet: Vec<&Block> =
        stats::quiet_blocks(&blocks.iter().map(|b| b.steal).collect::<Vec<_>>())
            .into_iter()
            .map(|i| &blocks[i])
            .collect();
    let plain = Block::class_samples(&all, classes.len());

    let mut detail = Map::new();
    detail.insert("corun_cutoff_flops", Value::from(corun_cutoff(&execs[0])));
    detail.insert(
        "rounds",
        Value::from(blocks.iter().map(|b| b.rounds.len()).sum::<usize>() as f64),
    );
    detail.insert("blocks", Value::from(blocks.len() as f64));
    detail.insert("steal_share", Value::from(w.steal_share));
    detail.insert("runq_wait_share", Value::from(w.runq_wait_share));
    if !traced {
        // Traced blocks also span traced and forward rounds, so only an
        // untraced run's blocks describe its plain calls alone.
        detail.insert("quiet_blocks", Value::from(quiet.len() as f64));
        detail.insert(
            "quiet_steal_share",
            Value::from(quiet.iter().map(|b| b.steal).sum::<f64>() / quiet.len().max(1) as f64),
        );
        detail.insert(
            "all_blocks",
            Block::summary(&all, classes.len(), per_round).to_value(),
        );
    }
    detail.insert(
        "setup_s",
        Value::from(
            setups
                .iter()
                .map(|t| Value::from(t.total))
                .collect::<Vec<_>>(),
        ),
    );
    detail.insert(
        "classes",
        Value::from(
            classes
                .iter()
                .enumerate()
                .map(|(ci, c)| {
                    let mut o = Map::new();
                    o.insert("class", Value::from(class_name(c)));
                    o.insert("samples", Value::from(plain[ci].len() as f64));
                    o.insert(
                        "median_ms",
                        Value::from(median(&plain[ci]).unwrap_or(0.0) * 1e3),
                    );
                    Value::from(o)
                })
                .collect::<Vec<_>>(),
        ),
    );

    let metrics = if traced {
        let setup_median = |f: fn(&SetupTimes) -> f64| {
            median(&setups.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let per_inf = |v: f64| v / acc.inferences.max(1) as f64;
        let mut rows = Vec::new();
        let (mut conv, mut dense) = ((0.0, 0.0), (0.0, 0.0));
        let (mut predicted, mut measured) = (0.0, 0.0);
        // Per inference of the class mix, as the tensor.* metrics are.
        let mut sums = [0.0; 5];
        for (ci, table) in acc.nodes.iter().enumerate() {
            let inf = acc.node_inferences[ci].max(1) as f64;
            for (node, r) in table {
                for (sum, v) in sums.iter_mut().zip([
                    r.wall_us,
                    r.pack_us,
                    r.compute_us,
                    r.merge_us,
                    r.predicted_us * inf,
                ]) {
                    *sum += v / inf / classes.len() as f64;
                }
                let flops = r.flops as f64 * inf;
                match r.kind {
                    "conv" => conv = (conv.0 + flops, conv.1 + r.wall_us),
                    "fc" => dense = (dense.0 + flops, dense.1 + r.wall_us),
                    _ => {}
                }
                predicted += r.predicted_us * inf;
                measured += r.wall_us;
                let mut o = Map::new();
                o.insert("class", Value::from(class_name(&classes[ci])));
                o.insert("node", Value::from(f64::from(*node)));
                o.insert("layer", Value::from(r.layer.as_str()));
                o.insert("kind", Value::from(r.kind));
                o.insert("measured_us", Value::from(r.wall_us / inf));
                o.insert("pack_us", Value::from(r.pack_us / inf));
                o.insert("compute_us", Value::from(r.compute_us / inf));
                o.insert("merge_us", Value::from(r.merge_us / inf));
                o.insert("queue_us", Value::from(r.queue_us / inf));
                o.insert("flops", Value::from(r.flops as f64));
                o.insert("bytes", Value::from(r.bytes as f64));
                o.insert("predicted_us", Value::from(r.predicted_us));
                rows.push(Value::from(o));
            }
        }
        detail.insert("nodes", Value::from(rows));
        let mut row_sums = Map::new();
        for (name, v) in [
            "measured_us",
            "pack_us",
            "compute_us",
            "merge_us",
            "predicted_us",
        ]
        .into_iter()
        .zip(sums)
        {
            row_sums.insert(name, Value::from(v));
        }
        detail.insert("node_sums_per_inference", Value::from(row_sums));
        let gflops = |(f, us): (f64, f64)| if us > 0.0 { f / us / 1e3 } else { 0.0 };
        let f32_gaps: Vec<f64> = classes
            .iter()
            .enumerate()
            .filter(|(_, &(_, p))| spec.precisions[p] == Precision::F32)
            .filter_map(|(ci, _)| Some((median(&plain[ci])? - median(&forward[ci])?) * 1e6))
            .collect();
        let kernel_us = acc.pack_us + acc.compute_us + acc.merge_us;
        let (gemm_gflops, copy_gbps) = crate::probe::roofline();
        let values = [
            ("nn.build_ms", setup_median(|t| t.build) * 1e3),
            ("nn.compile_ms", setup_median(|t| t.compile) * 1e3),
            (
                "nn.prepacked_mb",
                loaded.iter().map(|l| l.prepacked_bytes as f64).sum::<f64>() / MIB,
            ),
            (
                "nn.nodes_post",
                loaded.iter().map(|l| l.nodes_post as f64).sum(),
            ),
            ("core.tuner.plan_ms", setup_median(|t| t.plan) * 1e3),
            (
                "core.exec.new_ms",
                setups.first().map_or(0.0, |t| t.new) * 1e3,
            ),
            (
                "core.exec.gap_us",
                f32_gaps.iter().sum::<f64>() / f32_gaps.len().max(1) as f64,
            ),
            ("core.exec.corun_layers", per_inf(acc.corun_layers as f64)),
            ("core.exec.corun_cutoff_flops", corun_cutoff(&execs[0])),
            ("core.exec.slot_mb", acc.slot_bytes_max as f64 / MIB),
            ("core.pool.worker_tasks", per_inf(acc.pool_tasks as f64)),
            ("core.pool.inline_tasks", per_inf(acc.inline_tasks as f64)),
            (
                "core.pool.queue_wait_us",
                per_inf(acc.queue_wait_ns as f64 / 1e3),
            ),
            ("tensor.pack_us", per_inf(acc.pack_us)),
            ("tensor.compute_us", per_inf(acc.compute_us)),
            ("tensor.merge_us", per_inf(acc.merge_us)),
            (
                "tensor.pack_share",
                if kernel_us > 0.0 {
                    acc.pack_us / kernel_us
                } else {
                    0.0
                },
            ),
            (
                "tensor.kernel_cpu_share",
                if acc.cpu_s > 0.0 {
                    (acc.pack_us + acc.compute_us) / 1e6 / acc.cpu_s
                } else {
                    0.0
                },
            ),
            ("tensor.conv_gflops", gflops(conv)),
            ("tensor.dense_gflops", gflops(dense)),
            (
                "tensor.arena_fresh_kb",
                per_inf(acc.arena_fresh_bytes as f64) / 1024.0,
            ),
            ("tensor.gemm_peak_gflops", gemm_gflops),
            ("tensor.copy_gbps", copy_gbps),
            (
                "sim.pred_ratio",
                if measured > 0.0 {
                    predicted / measured
                } else {
                    0.0
                },
            ),
            (
                "obs.trace_overhead",
                geomean_of_medians(&traced_lat).unwrap_or(0.0)
                    / geomean_of_medians(&plain).unwrap_or(f64::INFINITY)
                    - 1.0,
            ),
            ("obs.flight_dropped", acc.dropped as f64),
        ];
        let mut values = values.to_vec();
        values.extend(record::host_values(&w));
        values.extend(record::tail_values(&pooled_ms));
        record::per_layer(&values)?
    } else {
        let q = Block::summary(&quiet, classes.len(), per_round);
        record::end_to_end([
            q.latency_ms.ok_or("no latency samples")?,
            q.throughput.ok_or("no complete round")?,
            // Steal is not charged to the process, so CPU time per
            // inference takes every block.
            Block::summary(&all, classes.len(), per_round).cpu_ms,
            median(&setups.iter().map(|t| t.total).collect::<Vec<_>>()).ok_or("no set-up")?,
            peak_rss,
        ])
    };
    Ok(Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_output_counts_as_failed() {
        let good = vec![
            Tensor::random(&[1, 10], 1.0, 3),
            Tensor::random(&[1, 10], 1.0, 4),
        ];
        assert_eq!(mismatches(&good, &good), 0);
        let mut bad = good.clone();
        let flipped = f32::from_bits(bad[1].as_slice()[7].to_bits() ^ 1);
        bad[1].as_mut_slice()[7] = flipped;
        assert_eq!(mismatches(&bad, &good), 1);
        assert_eq!(mismatches(&good[..1], &good), 1, "a missing output fails");
    }

    #[test]
    fn tolerance_scales_with_large_references() {
        let reference = Tensor::from_vec(vec![0.5, -200.0], &[2]).unwrap();
        let close = Tensor::from_vec(vec![0.5, -200.01], &[2]).unwrap();
        let far = Tensor::from_vec(vec![0.6, -200.0], &[2]).unwrap();
        assert!(within(&close, &reference, 1e-4));
        assert!(!within(&far, &reference, 1e-4));
        let small = Tensor::from_vec(vec![0.5], &[1]).unwrap();
        assert!(!within(
            &Tensor::from_vec(vec![0.5002], &[1]).unwrap(),
            &small,
            1e-4
        ));
    }

    #[test]
    fn cutoff_parses_from_the_executor_debug_output() {
        let graph = build(ModelKind::Fcnn, ModelScale::Tiny);
        let exec = Executor::new(&graph).unwrap().with_corun_cutoff(65_536);
        assert_eq!(corun_cutoff(&exec), 65_536.0);
    }
}
