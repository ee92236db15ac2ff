//! Execution traces: a per-event record of everything the simulated
//! platform did, used by tests, reports, and the adaptive tuner's
//! feedback loop.

use edgenn_obs::chrome::TraceEntry;
use edgenn_obs::CounterSample;
use serde::{Deserialize, Serialize};

use crate::processor::ProcessorKind;

/// What kind of activity an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceKind {
    /// A compute kernel.
    Kernel,
    /// An explicit CPU<->GPU copy.
    Copy,
    /// Managed-memory page migration (zero-copy on-demand paging).
    Migration,
    /// Consistency thrash on a write-shared managed array.
    Thrash,
    /// Synchronization / merge of partitioned results.
    Sync,
    /// Idle gap (recorded only in summaries, not as events).
    Idle,
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Kernel => "kernel",
            Self::Copy => "copy",
            Self::Migration => "migration",
            Self::Thrash => "thrash",
            Self::Sync => "sync",
            Self::Idle => "idle",
        })
    }
}

/// One timeline event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Event kind.
    pub kind: TraceKind,
    /// Processor the event occupies (`None` for bus-level activity such
    /// as copies, which occupy the interconnect rather than a core).
    pub processor: Option<ProcessorKind>,
    /// Start time in microseconds since simulation start.
    pub start_us: f64,
    /// End time in microseconds.
    pub end_us: f64,
    /// Free-form label ("conv1", "fc6 merge", …).
    pub label: String,
    /// Bytes moved over the interconnect by this event (0 for pure
    /// compute and synchronization events).
    pub bytes: u64,
}

impl TraceEvent {
    /// Event duration in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Aggregated view of a trace.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Total kernel time (sum over events; co-run overlap counted twice).
    pub kernel_us: f64,
    /// Total explicit-copy time.
    pub copy_us: f64,
    /// Total migration time.
    pub migration_us: f64,
    /// Total thrash time.
    pub thrash_us: f64,
    /// Total synchronization/merge time.
    pub sync_us: f64,
    /// Wall-clock time during which *at least one* activity was in
    /// flight: the length of the interval union over all events. Unlike
    /// the per-kind sums above, co-running CPU and GPU kernels are
    /// counted once here.
    pub busy_us: f64,
    /// Wall-clock time (within `[0, last event end]`) during which
    /// nothing at all was happening.
    pub idle_us: f64,
    /// Total bytes moved over the interconnect (copies + migrations +
    /// thrash refetches).
    pub bytes_moved: u64,
}

impl TraceSummary {
    /// Builds a summary from raw events.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut s = Self::default();
        for e in events {
            let d = e.duration_us();
            match e.kind {
                TraceKind::Kernel => s.kernel_us += d,
                TraceKind::Copy => s.copy_us += d,
                TraceKind::Migration => s.migration_us += d,
                TraceKind::Thrash => s.thrash_us += d,
                TraceKind::Sync => s.sync_us += d,
                TraceKind::Idle => {}
            }
            s.bytes_moved += e.bytes;
        }
        let spans: Vec<(f64, f64)> = events
            .iter()
            .filter(|e| e.kind != TraceKind::Idle)
            .map(|e| (e.start_us, e.end_us))
            .collect();
        s.busy_us = interval_union_us(&spans);
        let horizon = spans.iter().map(|&(_, end)| end).fold(0.0f64, f64::max);
        s.idle_us = (horizon - s.busy_us).max(0.0);
        s
    }

    /// Total memory-management time (copies + migrations + thrash).
    pub fn memory_us(&self) -> f64 {
        self.copy_us + self.migration_us + self.thrash_us
    }
}

/// Length of the union of a set of (possibly overlapping) intervals.
/// This is the wall-clock busy time: co-running activities on different
/// tracks are counted once, not once per track.
pub fn interval_union_us(spans: &[(f64, f64)]) -> f64 {
    let mut spans: Vec<(f64, f64)> = spans
        .iter()
        .copied()
        .filter(|&(start, end)| end > start)
        .collect();
    spans.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (start, end) in spans {
        match current {
            Some((cs, ce)) if start <= ce => current = Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

// --- Happens-before race detection -----------------------------------
//
// The engine's timeline realizes a happens-before partial order: kernels
// on one processor are serialized through `free_at`, bus transfers start
// no earlier than their producer's ready time, and co-run merges lift
// both clocks. Two events are therefore HB-ordered exactly when their
// intervals are disjoint, and *concurrent* when they overlap. The
// detector below reconstructs that order from a finished trace, derives
// which data region each event touches from the engine's label
// conventions, and reports conflicting concurrent accesses — the checks
// a real CUDA stream-race tool would do on an Nsight timeline.

/// Sub-microsecond slack for interval comparisons: events that merely
/// touch at an endpoint (producer end == consumer start) are ordered,
/// not concurrent.
const HB_TOLERANCE_US: f64 = 1e-6;

/// Class of invariant a trace event (pair) violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceViolationKind {
    /// Non-finite timestamps or negative duration.
    MalformedEvent,
    /// Two kernels overlap on one processor (a core cannot run two
    /// kernels at once).
    KernelOverlap,
    /// CPU and GPU kernels write the same output region concurrently.
    WriteWriteRace,
    /// A DMA transfer of a region is concurrent with a kernel that
    /// produces or consumes that same region (read-write hazard), or two
    /// transfers move the same region at once.
    OrderingHazard,
    /// A single transfer's implied rate exceeds the platform's fastest
    /// physical link.
    BandwidthExceeded,
    /// The instantaneous *sum* of concurrent transfer rates exceeds the
    /// link capacity (advisory: the engine does not serialize bus
    /// events against each other).
    AggregateBandwidth,
}

impl std::fmt::Display for TraceViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::MalformedEvent => "malformed event",
            Self::KernelOverlap => "kernel overlap",
            Self::WriteWriteRace => "write-write race",
            Self::OrderingHazard => "ordering hazard",
            Self::BandwidthExceeded => "bandwidth exceeded",
            Self::AggregateBandwidth => "aggregate bandwidth",
        })
    }
}

/// One violation found by [`check_trace`], pointing back into the event
/// slice by index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceViolation {
    /// Violation class.
    pub kind: TraceViolationKind,
    /// Index of the (first) offending event.
    pub first: usize,
    /// Index of the second event for pairwise violations.
    pub second: Option<usize>,
    /// Human-readable description.
    pub detail: String,
}

/// Physical link capacity the trace must conserve.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkCaps {
    /// The fastest physical path data can take on the platform, in GB/s:
    /// the DRAM bandwidth on a unified SoC, `max(PCIe, DRAM)` on a
    /// discrete system. Apparent per-event rates can legitimately exceed
    /// the copy bandwidth (the engine scales transfer *durations* by the
    /// host-roundtrip fraction while recording full array sizes), but
    /// nothing can beat the memory system itself.
    pub link_gbps: f64,
}

impl LinkCaps {
    /// Capacity bound for `platform`: the fastest of the DRAM interfaces,
    /// the bulk copy engine, and the modeled page-walk rate (some presets
    /// calibrate `page_migration_us_per_mb` faster than their DRAM
    /// figure; prefetched migrations legitimately move at that rate).
    pub fn from_platform(platform: &crate::platforms::Platform) -> Self {
        let dram = platform.gpu.as_ref().map_or(platform.cpu.mem_bw_gbps, |g| {
            g.mem_bw_gbps.max(platform.cpu.mem_bw_gbps)
        });
        let page_walk_gbps = if platform.memory.page_migration_us_per_mb > 0.0 {
            1e3 / platform.memory.page_migration_us_per_mb
        } else {
            0.0
        };
        Self {
            link_gbps: dram.max(platform.memory.copy_bw_gbps).max(page_walk_gbps),
        }
    }
}

/// The data region an event touches, derived from the engine's label
/// conventions (`"conv1 h2d"`, `"conv1 [cpu part]"`, `"pool2 -> GPU"`,
/// …). Returns `None` for events that touch no array (syncs, stalls).
pub fn data_region(event: &TraceEvent) -> Option<&str> {
    if matches!(event.kind, TraceKind::Sync | TraceKind::Idle) {
        return None;
    }
    let label = event.label.as_str();
    for suffix in [
        " h2d",
        " d2h",
        " merge",
        " boundary pages",
        " [cpu part]",
        " [gpu part]",
        " -> CPU",
        " -> GPU",
    ] {
        if let Some(base) = label.strip_suffix(suffix) {
            return Some(base);
        }
    }
    Some(label)
}

/// The reconstructed happens-before relation over one trace.
///
/// Indices refer back into the event slice the relation was built from.
#[derive(Debug)]
pub struct HappensBefore<'a> {
    events: &'a [TraceEvent],
}

impl<'a> HappensBefore<'a> {
    /// Builds the relation for `events`.
    pub fn new(events: &'a [TraceEvent]) -> Self {
        Self { events }
    }

    /// True when event `a` happens-before event `b`: `a` retires before
    /// `b` starts (endpoint contact counts as ordered).
    pub fn ordered(&self, a: usize, b: usize) -> bool {
        self.events[a].end_us <= self.events[b].start_us + HB_TOLERANCE_US
    }

    /// True when neither event is ordered before the other — they run
    /// concurrently on the timeline.
    pub fn concurrent(&self, a: usize, b: usize) -> bool {
        !self.ordered(a, b) && !self.ordered(b, a)
    }
}

/// True when `e` moves bytes over the interconnect.
fn moves_bytes(e: &TraceEvent) -> bool {
    matches!(
        e.kind,
        TraceKind::Copy | TraceKind::Migration | TraceKind::Thrash
    ) && e.bytes > 0
}

/// Race- and conservation-checks one finished trace.
///
/// Checks, in order: malformed events, same-processor kernel overlap,
/// CPU/GPU write-write conflicts on one region, kernel/DMA ordering
/// hazards, and (when `caps` is given) per-event and aggregate
/// bandwidth conservation. Returns every violation found; an empty
/// vector means the trace is consistent with the happens-before order
/// the engine claims to enforce.
///
/// The label-derived region model assumes each label names one request's
/// arrays: apply this to single-request traces only (pipelined stream
/// traces legitimately reuse labels across in-flight requests).
pub fn check_trace(events: &[TraceEvent], caps: Option<&LinkCaps>) -> Vec<TraceViolation> {
    let mut out = Vec::new();

    // Malformed events disqualify themselves from the pairwise checks.
    let mut well_formed = vec![true; events.len()];
    for (i, e) in events.iter().enumerate() {
        if !e.start_us.is_finite() || !e.end_us.is_finite() || e.end_us < e.start_us {
            well_formed[i] = false;
            out.push(TraceViolation {
                kind: TraceViolationKind::MalformedEvent,
                first: i,
                second: None,
                detail: format!(
                    "event '{}' has invalid interval [{}, {}]",
                    e.label, e.start_us, e.end_us
                ),
            });
        }
    }

    let hb = HappensBefore::new(events);
    let idx: Vec<usize> = (0..events.len()).filter(|&i| well_formed[i]).collect();

    // Same-processor kernel serialization (per-core exclusivity).
    for proc in [ProcessorKind::Cpu, ProcessorKind::Gpu] {
        let mut kernels: Vec<usize> = idx
            .iter()
            .copied()
            .filter(|&i| events[i].kind == TraceKind::Kernel && events[i].processor == Some(proc))
            .collect();
        kernels.sort_by(|&a, &b| {
            events[a]
                .start_us
                .partial_cmp(&events[b].start_us)
                .expect("finite times")
        });
        for pair in kernels.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if hb.concurrent(a, b) {
                out.push(TraceViolation {
                    kind: TraceViolationKind::KernelOverlap,
                    first: a,
                    second: Some(b),
                    detail: format!(
                        "{proc} kernels '{}' and '{}' overlap",
                        events[a].label, events[b].label
                    ),
                });
            }
        }
    }

    // Cross-processor conflicts on one data region. Kernels write their
    // region; transfers read and write theirs. Split halves carry
    // distinct "[cpu part]"/"[gpu part]" labels over disjoint ranges of
    // the shared output, so only *identical* kernel labels conflict.
    for (n, &i) in idx.iter().enumerate() {
        let Some(region_i) = data_region(&events[i]) else {
            continue;
        };
        for &j in &idx[n + 1..] {
            let Some(region_j) = data_region(&events[j]) else {
                continue;
            };
            if region_i != region_j || !hb.concurrent(i, j) {
                continue;
            }
            let (a, b) = (&events[i], &events[j]);
            match (a.kind, b.kind) {
                (TraceKind::Kernel, TraceKind::Kernel) => {
                    if a.processor != b.processor && a.label == b.label {
                        out.push(TraceViolation {
                            kind: TraceViolationKind::WriteWriteRace,
                            first: i,
                            second: Some(j),
                            detail: format!("CPU and GPU both write '{}' concurrently", a.label),
                        });
                    }
                }
                (TraceKind::Kernel, _) | (_, TraceKind::Kernel) => {
                    let transfer = if a.kind == TraceKind::Kernel { b } else { a };
                    if moves_bytes(transfer) {
                        out.push(TraceViolation {
                            kind: TraceViolationKind::OrderingHazard,
                            first: i,
                            second: Some(j),
                            detail: format!(
                                "'{}' and '{}' touch region '{region_i}' concurrently",
                                a.label, b.label
                            ),
                        });
                    }
                }
                _ => {
                    if moves_bytes(a) && moves_bytes(b) {
                        out.push(TraceViolation {
                            kind: TraceViolationKind::OrderingHazard,
                            first: i,
                            second: Some(j),
                            detail: format!(
                                "transfers '{}' and '{}' move region '{region_i}' concurrently",
                                a.label, b.label
                            ),
                        });
                    }
                }
            }
        }
    }

    // Bandwidth conservation: no transfer, alone or summed with its
    // concurrent peers, may beat the fastest physical link. 5% slack
    // absorbs float noise in calibrated rates.
    if let Some(caps) = caps {
        let cap = caps.link_gbps * 1.05;
        let mut deltas: Vec<(f64, f64, usize)> = Vec::new();
        for &i in &idx {
            let e = &events[i];
            let dur = e.duration_us();
            if !moves_bytes(e) || dur <= 0.0 {
                continue;
            }
            let gbps = e.bytes as f64 / dur * 1e-3;
            if gbps > cap {
                out.push(TraceViolation {
                    kind: TraceViolationKind::BandwidthExceeded,
                    first: i,
                    second: None,
                    detail: format!(
                        "'{}' implies {gbps:.1} GB/s over a {:.1} GB/s link",
                        e.label, caps.link_gbps
                    ),
                });
            }
            deltas.push((e.start_us, gbps, i));
            deltas.push((e.end_us, -gbps, i));
        }
        deltas.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        let mut level = 0.0;
        let mut flagged = false;
        for &(_, delta, i) in &deltas {
            level += delta;
            if level > cap && !flagged {
                flagged = true;
                out.push(TraceViolation {
                    kind: TraceViolationKind::AggregateBandwidth,
                    first: i,
                    second: None,
                    detail: format!(
                        "concurrent transfers sum to {level:.1} GB/s over a {:.1} GB/s link",
                        caps.link_gbps
                    ),
                });
            }
        }
    }

    out
}

/// Assumed managed-memory page size for the outstanding-pages counter.
const PAGE_BYTES: f64 = 4096.0;

/// Instantaneous interconnect bandwidth (GB/s) as a step function:
/// change-point sweep over every byte-moving event. Returns `(t_us,
/// gbps)` samples, one per distinct change point.
fn bandwidth_samples(events: &[TraceEvent]) -> Vec<(f64, f64)> {
    let mut deltas: Vec<(f64, f64)> = Vec::new();
    for e in events {
        let dur = e.duration_us();
        if e.bytes > 0 && dur > 0.0 {
            // bytes / us -> GB/s is a factor of 1e-3.
            let gbps = e.bytes as f64 / dur * 1e-3;
            deltas.push((e.start_us, gbps));
            deltas.push((e.end_us, -gbps));
        }
    }
    deltas.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let mut samples = Vec::new();
    let mut level = 0.0;
    let mut i = 0;
    while i < deltas.len() {
        let t = deltas[i].0;
        while i < deltas.len() && deltas[i].0 == t {
            level += deltas[i].1;
            i += 1;
        }
        samples.push((t, level.max(0.0)));
    }
    samples
}

/// Outstanding managed pages over time: migrations page data in, a
/// thrash invalidates the pages for its duration before they come back.
/// Returns `(t_us, pages)` samples.
fn managed_page_samples(events: &[TraceEvent]) -> Vec<(f64, f64)> {
    let mut deltas: Vec<(f64, f64)> = Vec::new();
    for e in events {
        let pages = (e.bytes as f64 / PAGE_BYTES).ceil();
        if pages <= 0.0 {
            continue;
        }
        match e.kind {
            TraceKind::Migration => deltas.push((e.end_us, pages)),
            TraceKind::Thrash => {
                deltas.push((e.start_us, -pages));
                deltas.push((e.end_us, pages));
            }
            _ => {}
        }
    }
    deltas.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let mut samples = Vec::new();
    let mut level = 0.0;
    let mut i = 0;
    while i < deltas.len() {
        let t = deltas[i].0;
        while i < deltas.len() && deltas[i].0 == t {
            level += deltas[i].1;
            i += 1;
        }
        samples.push((t, level.max(0.0)));
    }
    samples
}

/// The simulated timeline as Chrome trace entries (see
/// [`edgenn_obs::chrome`]), loadable in `chrome://tracing` or Perfetto.
/// Everything the simulated hardware did sits on `pid` 1: kernels on a
/// "CPU" (`tid` 1) or "GPU" (`tid` 2) row, bus activity (copies,
/// migrations, thrash, syncs) on a "Bus" row (`tid` 3), and two counter
/// tracks fed by byte-moving events: instantaneous interconnect
/// bandwidth and outstanding managed pages. `extra` samples (e.g. the
/// tuner's per-node EMA evolution, collected through an
/// `edgenn_obs::Recorder`) become counters on `pid` 2, so they group
/// apart from the hardware. Callers that want one file holding this
/// timeline next to another append their entries under a distinct `pid`.
#[must_use]
pub fn timeline_entries(events: &[TraceEvent], extra: &[CounterSample]) -> Vec<TraceEntry> {
    let spans = events.iter().map(|event| {
        let (track, tid) = match event.processor {
            Some(ProcessorKind::Cpu) => ("CPU", 1),
            Some(ProcessorKind::Gpu) => ("GPU", 2),
            None => ("Bus", 3),
        };
        let (name, cat) = (event.label.as_str(), event.kind.to_string());
        let span = TraceEntry::span(name, cat, 1, tid, event.start_us, event.duration_us())
            .arg("track", track);
        if event.bytes > 0 {
            span.arg("bytes", event.bytes)
        } else {
            span
        }
    });
    let bandwidth = bandwidth_samples(events)
        .into_iter()
        .map(|(ts, gbps)| TraceEntry::counter("bandwidth_gbps", 1, ts, gbps));
    let pages = managed_page_samples(events)
        .into_iter()
        .map(|(ts, pages)| TraceEntry::counter("managed_pages_outstanding", 1, ts, pages));
    let extra = extra
        .iter()
        .map(|sample| TraceEntry::counter(sample.track.as_str(), 2, sample.t_us, sample.value));
    spans.chain(bandwidth).chain(pages).chain(extra).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceKind, start: f64, end: f64) -> TraceEvent {
        TraceEvent {
            kind,
            processor: None,
            start_us: start,
            end_us: end,
            label: "t".into(),
            bytes: 0,
        }
    }

    #[test]
    fn summary_buckets_by_kind() {
        let events = vec![
            ev(TraceKind::Kernel, 0.0, 10.0),
            ev(TraceKind::Copy, 10.0, 13.0),
            ev(TraceKind::Kernel, 13.0, 20.0),
            ev(TraceKind::Migration, 20.0, 21.0),
            ev(TraceKind::Thrash, 21.0, 25.0),
            ev(TraceKind::Sync, 25.0, 26.0),
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.kernel_us, 17.0);
        assert_eq!(s.copy_us, 3.0);
        assert_eq!(s.migration_us, 1.0);
        assert_eq!(s.thrash_us, 4.0);
        assert_eq!(s.sync_us, 1.0);
        assert_eq!(s.memory_us(), 8.0);
        // Back-to-back events: always busy, never idle.
        assert_eq!(s.busy_us, 26.0);
        assert_eq!(s.idle_us, 0.0);
    }

    #[test]
    fn busy_counts_corun_overlap_once() {
        // CPU [0, 10] and GPU [5, 15] co-run: per-kind kernel time
        // double-counts the overlap (15 + 10 = 20 over a 15us window);
        // the wall-clock union must not.
        let events = vec![
            TraceEvent {
                kind: TraceKind::Kernel,
                processor: Some(ProcessorKind::Cpu),
                start_us: 0.0,
                end_us: 10.0,
                label: "cpu".into(),
                bytes: 0,
            },
            TraceEvent {
                kind: TraceKind::Kernel,
                processor: Some(ProcessorKind::Gpu),
                start_us: 5.0,
                end_us: 15.0,
                label: "gpu".into(),
                bytes: 0,
            },
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.kernel_us, 20.0, "per-kind sum still double-counts");
        assert_eq!(s.busy_us, 15.0, "interval union counts the overlap once");
        assert_eq!(s.idle_us, 0.0);
    }

    #[test]
    fn idle_is_the_gap_between_activities() {
        let events = vec![
            ev(TraceKind::Kernel, 0.0, 5.0),
            ev(TraceKind::Kernel, 10.0, 15.0),
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.busy_us, 10.0);
        assert_eq!(s.idle_us, 5.0);
    }

    #[test]
    fn interval_union_merges_contained_and_touching_spans() {
        assert_eq!(interval_union_us(&[]), 0.0);
        assert_eq!(
            interval_union_us(&[(0.0, 10.0), (2.0, 4.0)]),
            10.0,
            "contained"
        );
        assert_eq!(
            interval_union_us(&[(0.0, 5.0), (5.0, 9.0)]),
            9.0,
            "touching"
        );
        assert_eq!(
            interval_union_us(&[(6.0, 8.0), (0.0, 1.0)]),
            3.0,
            "disjoint, unsorted"
        );
        assert_eq!(interval_union_us(&[(3.0, 3.0)]), 0.0, "zero-width ignored");
    }

    #[test]
    fn events_serialize_round_trip() {
        let e = TraceEvent {
            kind: TraceKind::Kernel,
            processor: Some(ProcessorKind::Gpu),
            start_us: 1.5,
            end_us: 2.5,
            label: "conv1".into(),
            bytes: 4096,
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.duration_us(), 1.0);
    }

    /// The timeline's entries as a written trace file holds them.
    fn rendered(events: &[TraceEvent], extra: &[CounterSample]) -> Vec<serde_json::Value> {
        let json = edgenn_obs::chrome::to_json(&timeline_entries(events, extra));
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        parsed.as_array().unwrap().clone()
    }

    #[test]
    fn chrome_trace_contains_all_events_on_correct_tracks() {
        let events = vec![
            TraceEvent {
                kind: TraceKind::Kernel,
                processor: Some(ProcessorKind::Gpu),
                start_us: 0.0,
                end_us: 5.0,
                label: "conv1".into(),
                bytes: 0,
            },
            TraceEvent {
                kind: TraceKind::Copy,
                processor: None,
                start_us: 5.0,
                end_us: 7.0,
                label: "h2d".into(),
                bytes: 0,
            },
        ];
        let arr = rendered(&events, &[]);
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0]["name"], "conv1");
        assert_eq!(arr[0]["tid"], 2);
        assert_eq!(arr[1]["args"]["track"], "Bus");
        assert_eq!(arr[1]["dur"], 2.0);
    }

    #[test]
    fn chrome_trace_emits_counter_tracks_for_byte_movers() {
        let events = vec![
            TraceEvent {
                kind: TraceKind::Copy,
                processor: None,
                start_us: 0.0,
                end_us: 10.0,
                label: "h2d".into(),
                bytes: 10_000, // 1000 bytes/us = 1 GB/s for 10us
            },
            TraceEvent {
                kind: TraceKind::Migration,
                processor: None,
                start_us: 10.0,
                end_us: 12.0,
                label: "fault".into(),
                bytes: 8192, // 2 pages
            },
        ];
        let arr = rendered(&events, &[]);
        let counters: Vec<&serde_json::Value> = arr.iter().filter(|e| e["ph"] == "C").collect();
        assert!(!counters.is_empty());
        let bw_on: Vec<&&serde_json::Value> = counters
            .iter()
            .filter(|e| e["name"] == "bandwidth_gbps" && e["ts"] == 0.0)
            .collect();
        assert_eq!(bw_on.len(), 1);
        assert!((bw_on[0]["args"]["value"].as_f64().unwrap() - 1.0).abs() < 1e-9);
        let pages: Vec<&&serde_json::Value> = counters
            .iter()
            .filter(|e| e["name"] == "managed_pages_outstanding")
            .collect();
        assert_eq!(pages.len(), 1, "one sample at the migration's end");
        assert_eq!(pages[0]["args"]["value"].as_f64().unwrap(), 2.0);
    }

    #[test]
    fn chrome_trace_appends_extra_counter_samples() {
        let extra = vec![
            CounterSample {
                track: "ema_cpu_us/conv1".into(),
                t_us: 0.0,
                value: 120.0,
            },
            CounterSample {
                track: "ema_cpu_us/conv1".into(),
                t_us: 1.0,
                value: 110.0,
            },
        ];
        let arr = rendered(&[], &extra);
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0]["ph"], "C");
        assert_eq!(arr[0]["name"], "ema_cpu_us/conv1");
        assert_eq!(
            arr[0]["pid"], 2,
            "tuner counters live on their own process row"
        );
        assert_eq!(arr[1]["args"]["value"], 110.0);
    }

    #[test]
    fn kind_display_tags() {
        assert_eq!(TraceKind::Kernel.to_string(), "kernel");
        assert_eq!(TraceKind::Thrash.to_string(), "thrash");
    }

    fn kernel(label: &str, proc: ProcessorKind, start: f64, end: f64) -> TraceEvent {
        TraceEvent {
            kind: TraceKind::Kernel,
            processor: Some(proc),
            start_us: start,
            end_us: end,
            label: label.into(),
            bytes: 0,
        }
    }

    fn copy(label: &str, start: f64, end: f64, bytes: u64) -> TraceEvent {
        TraceEvent {
            kind: TraceKind::Copy,
            processor: Some(ProcessorKind::Gpu),
            start_us: start,
            end_us: end,
            label: label.into(),
            bytes,
        }
    }

    #[test]
    fn region_model_strips_engine_label_suffixes() {
        assert_eq!(data_region(&copy("conv1 h2d", 0.0, 1.0, 4)), Some("conv1"));
        assert_eq!(
            data_region(&copy("pool2 -> GPU", 0.0, 1.0, 4)),
            Some("pool2")
        );
        assert_eq!(
            data_region(&kernel("fc6 [cpu part]", ProcessorKind::Cpu, 0.0, 1.0)),
            Some("fc6")
        );
        assert_eq!(
            data_region(&ev(TraceKind::Sync, 0.0, 1.0)),
            None,
            "syncs touch no array"
        );
    }

    #[test]
    fn happens_before_matches_interval_order() {
        let events = vec![
            kernel("a", ProcessorKind::Gpu, 0.0, 10.0),
            kernel("b", ProcessorKind::Gpu, 10.0, 20.0),
            kernel("c", ProcessorKind::Cpu, 5.0, 15.0),
        ];
        let hb = HappensBefore::new(&events);
        assert!(hb.ordered(0, 1), "endpoint contact is ordered");
        assert!(!hb.ordered(1, 0));
        assert!(hb.concurrent(0, 2) && hb.concurrent(2, 1));
    }

    #[test]
    fn dma_may_overlap_compute_but_kernels_may_not_share_a_core() {
        // The PR-1 overlap rule: a copy of one region runs alongside a
        // kernel producing a *different* region — legal DMA/compute
        // overlap, no violations.
        let clean = vec![
            kernel("conv1", ProcessorKind::Gpu, 0.0, 10.0),
            copy("input -> GPU", 2.0, 6.0, 1_000),
        ];
        assert!(check_trace(&clean, None).is_empty());

        // Back-to-back kernels on one processor are serial, and kernels
        // on different processors may overlap.
        let serial = vec![
            kernel("a", ProcessorKind::Gpu, 0.0, 5.0),
            kernel("b", ProcessorKind::Gpu, 5.0, 9.0),
            kernel("c", ProcessorKind::Cpu, 1.0, 8.0),
        ];
        assert!(check_trace(&serial, None).is_empty());

        // Two kernels on one processor overlapping is the race.
        let racy = vec![
            kernel("conv1", ProcessorKind::Gpu, 0.0, 10.0),
            kernel("conv2", ProcessorKind::Gpu, 5.0, 15.0),
        ];
        let v = check_trace(&racy, None);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, TraceViolationKind::KernelOverlap);
        assert_eq!((v[0].first, v[0].second), (0, Some(1)));
    }

    #[test]
    fn cross_processor_same_label_is_a_write_write_race() {
        let events = vec![
            kernel("fc6", ProcessorKind::Cpu, 0.0, 10.0),
            kernel("fc6", ProcessorKind::Gpu, 3.0, 12.0),
        ];
        let v = check_trace(&events, None);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, TraceViolationKind::WriteWriteRace);

        // Sanctioned split halves carry distinct part labels.
        let split = vec![
            kernel("fc6 [cpu part]", ProcessorKind::Cpu, 0.0, 10.0),
            kernel("fc6 [gpu part]", ProcessorKind::Gpu, 0.0, 9.0),
        ];
        assert!(check_trace(&split, None).is_empty());
    }

    #[test]
    fn dma_racing_its_own_kernel_is_an_ordering_hazard() {
        let events = vec![
            kernel("conv1", ProcessorKind::Gpu, 0.0, 10.0),
            copy("conv1 h2d", 5.0, 8.0, 1_000),
        ];
        let v = check_trace(&events, None);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, TraceViolationKind::OrderingHazard);
    }

    #[test]
    fn bandwidth_conservation_flags_impossible_transfers() {
        let caps = LinkCaps { link_gbps: 10.0 };
        // 1 MB in 1 us = 1000 GB/s over a 10 GB/s link.
        let impossible = vec![copy("x h2d", 0.0, 1.0, 1_000_000)];
        let v = check_trace(&impossible, Some(&caps));
        assert!(v
            .iter()
            .any(|v| v.kind == TraceViolationKind::BandwidthExceeded));

        // Two 6 GB/s transfers of *different* regions at once: each is
        // fine alone, their sum beats the link — aggregate advisory.
        let pair = vec![
            copy("a h2d", 0.0, 1.0, 6_000),
            copy("b h2d", 0.0, 1.0, 6_000),
        ];
        let v = check_trace(&pair, Some(&caps));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, TraceViolationKind::AggregateBandwidth);
    }

    #[test]
    fn malformed_events_are_reported_once_and_quarantined() {
        let events = vec![
            TraceEvent {
                kind: TraceKind::Kernel,
                processor: Some(ProcessorKind::Gpu),
                start_us: 10.0,
                end_us: f64::NAN,
                label: "bad".into(),
                bytes: 0,
            },
            kernel("good", ProcessorKind::Gpu, 0.0, 5.0),
        ];
        let v = check_trace(&events, None);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, TraceViolationKind::MalformedEvent);

        let negative = vec![kernel("backwards", ProcessorKind::Cpu, 5.0, -1.0)];
        let v = check_trace(&negative, None);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, TraceViolationKind::MalformedEvent);
    }

    #[test]
    fn link_caps_take_the_fastest_physical_path() {
        let jetson = crate::platforms::jetson_agx_xavier();
        let caps = LinkCaps::from_platform(&jetson);
        assert_eq!(caps.link_gbps, 100.0, "GPU's DRAM share dominates");
        let rpi = crate::platforms::raspberry_pi_4();
        assert_eq!(LinkCaps::from_platform(&rpi).link_gbps, 6.0);
    }
}
