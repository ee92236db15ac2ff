//! The flight recorder: an always-on, lock-free continuous profiler for
//! the functional execution engine.
//!
//! The [`Recorder`](crate::Recorder) keeps a rich, heap-allocated event
//! stream behind a mutex — perfect for simulator traces, far too heavy
//! for the real execution hot path, where a conv layer's GEMM runs in
//! tens of microseconds and a mutexed `String`-carrying event would cost
//! more than the work it describes. This module is the complementary
//! substrate:
//!
//! * **Fixed-size records.** One span is seven `u64` words: a seqlock
//!   word, start/end monotonic nanoseconds, span id, causal parent id,
//!   packed kind/worker/node, and a free argument (byte count, attempt
//!   number). No allocation ever happens on the record path.
//! * **Per-worker rings.** Records land in one of a set of ring
//!   buffers, selected by a thread-local ordinal. Slots are claimed with
//!   a single `fetch_add`; wrap-around silently overwrites the oldest
//!   record and counts it as dropped — flight-recorder semantics: the
//!   last *N* records always survive, and loss is observable, never
//!   silent. Ring capacity is sized from the workload via [`reserve`]
//!   (the engine passes a node-count-derived estimate at executor
//!   construction), so one request's window fits even on deep models.
//! * **Seqlock slots.** Every slot carries a sequence word so the
//!   drain-side reader can detect a record that was overwritten while
//!   being read and skip it instead of reporting a torn span. All slot
//!   accesses are atomic, so this is safe Rust end to end.
//! * **Causal parents.** Span ids are process-unique; each record names
//!   its parent, threaded across worker threads via an explicit
//!   thread-local ([`with_parent`]) that pooled task closures restore on
//!   the worker. The drain side can therefore rebuild a per-request tree
//!   even when several requests interleave on the same pool.
//!
//! On top of the raw rings sit the drain/merge layer
//! ([`mark`]/[`drain_since`]/[`causal_slice`]), the per-request
//! [`ProfileSummary`] and per-node attribution ([`node_profiles`]), the
//! fault black box ([`blackbox_dump`]), and the mapping of records onto
//! Chrome/Perfetto trace entries ([`trace_entries`]).
//!
//! The recorder is process-global and disabled by default; when
//! disabled, an instrumentation site costs one relaxed atomic load.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde_json::{Map, Value};

use crate::chrome::TraceEntry;

/// Number of independent ring buffers. Threads hash onto rings by a
/// monotonically assigned ordinal, so up to this many threads record
/// with zero contention; beyond it, threads share rings (still correct —
/// slot claims are atomic — just occasionally contended).
const RINGS: usize = 8;

/// Base records retained per ring (generation 0). Each ring generation
/// doubles this, so capacity adapts to the graph being profiled (see
/// [`reserve`]) instead of silently dropping most of a deep model's
/// request window.
const BASE_RING_RECORDS: usize = 4096;

/// Maximum number of ring generations. Capacity doubles per generation,
/// so the deepest configuration retains `4096 << 7` = 512 Ki records
/// per ring — far beyond any single request.
const GENERATIONS: usize = 8;

/// Records retained per ring in generation `gen`.
fn ring_capacity(gen: usize) -> usize {
    BASE_RING_RECORDS << gen
}

/// `u64` words per slot: seq + start + end + id + parent + meta + arg.
const WORDS: usize = 7;

/// What a span measured. Stored in the low byte of the meta word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One end-to-end request through the functional engine (root span).
    Request,
    /// One graph node's forward execution (wall time, all phases).
    Node,
    /// Data layout phase: im2col unfold or GEMM B-panel packing.
    Pack,
    /// Arithmetic phase: the GEMM/matvec inner loops.
    Compute,
    /// Output stitching: merging split-execution partial results.
    Merge,
    /// Time a pooled task spent queued before a worker picked it up.
    QueueWait,
    /// A pooled task body running on a worker (or inline on the driver).
    TaskRun,
    /// Instant: a scratch-arena acquisition served from reused capacity.
    ArenaHit,
    /// Instant: a scratch-arena acquisition that had to grow (allocate).
    ArenaMiss,
    /// Instant: the resilience layer retried a faulted kernel.
    Retry,
    /// Instant: the resilience layer fell back to the reference path.
    Fallback,
    /// Instant: the pool lost a worker mid-run.
    WorkerLoss,
    /// Instant: an admission-control decision on an incoming serve
    /// request (`arg` = 1 admitted, 0 rejected).
    Admission,
    /// Dynamic-batcher coalescing window: from the moment a batch's
    /// first request becomes eligible to the batch dispatch (`arg` =
    /// batch size).
    BatchForm,
    /// Instant: the SLO guard degraded a request's plan
    /// (hybrid→single-processor or f32→int8) to protect its deadline.
    Degrade,
    /// Instant: the SLO guard shed a request that degradation could
    /// not save.
    Shed,
}

impl SpanKind {
    /// Every kind, in code order (used by docs-sync and exhaustive tests).
    pub const ALL: [SpanKind; 16] = [
        SpanKind::Request,
        SpanKind::Node,
        SpanKind::Pack,
        SpanKind::Compute,
        SpanKind::Merge,
        SpanKind::QueueWait,
        SpanKind::TaskRun,
        SpanKind::ArenaHit,
        SpanKind::ArenaMiss,
        SpanKind::Retry,
        SpanKind::Fallback,
        SpanKind::WorkerLoss,
        SpanKind::Admission,
        SpanKind::BatchForm,
        SpanKind::Degrade,
        SpanKind::Shed,
    ];

    /// Stable wire code (1-based; 0 means "empty slot").
    fn code(self) -> u64 {
        match self {
            SpanKind::Request => 1,
            SpanKind::Node => 2,
            SpanKind::Pack => 3,
            SpanKind::Compute => 4,
            SpanKind::Merge => 5,
            SpanKind::QueueWait => 6,
            SpanKind::TaskRun => 7,
            SpanKind::ArenaHit => 8,
            SpanKind::ArenaMiss => 9,
            SpanKind::Retry => 10,
            SpanKind::Fallback => 11,
            SpanKind::WorkerLoss => 12,
            SpanKind::Admission => 13,
            SpanKind::BatchForm => 14,
            SpanKind::Degrade => 15,
            SpanKind::Shed => 16,
        }
    }

    fn from_code(code: u64) -> Option<SpanKind> {
        SpanKind::ALL.get(code.wrapping_sub(1) as usize).copied()
    }

    /// Snake-case stage name, used in profiles, JSON, and trace export.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Node => "node",
            SpanKind::Pack => "pack",
            SpanKind::Compute => "compute",
            SpanKind::Merge => "merge",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::TaskRun => "task_run",
            SpanKind::ArenaHit => "arena_hit",
            SpanKind::ArenaMiss => "arena_miss",
            SpanKind::Retry => "retry",
            SpanKind::Fallback => "fallback",
            SpanKind::WorkerLoss => "worker_loss",
            SpanKind::Admission => "admission",
            SpanKind::BatchForm => "batch_form",
            SpanKind::Degrade => "degrade",
            SpanKind::Shed => "shed",
        }
    }

    /// True for point-in-time markers (zero-duration by construction).
    pub fn is_instant(self) -> bool {
        matches!(
            self,
            SpanKind::ArenaHit
                | SpanKind::ArenaMiss
                | SpanKind::Retry
                | SpanKind::Fallback
                | SpanKind::WorkerLoss
                | SpanKind::Admission
                | SpanKind::Degrade
                | SpanKind::Shed
        )
    }
}

/// One decoded flight-recorder record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Causal parent span id (0 = no parent / root).
    pub parent: u64,
    /// What the span measured.
    pub kind: SpanKind,
    /// Graph node id the span belongs to (`u32::MAX` = not node-scoped).
    pub node: u32,
    /// Recording thread's worker ordinal (0 = driver / first thread).
    pub worker: u16,
    /// Start, monotonic nanoseconds since the process flight epoch.
    pub start_ns: u64,
    /// End, monotonic nanoseconds (equal to `start_ns` for instants).
    pub end_ns: u64,
    /// Kind-specific argument: bytes for pack/arena spans, attempt
    /// number for retries, task sequence for pool spans, 0 otherwise.
    pub arg: u64,
}

/// Node id used when a span is not attributed to a graph node.
pub const NO_NODE: u32 = u32::MAX;

impl SpanRecord {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }

    /// JSON form (used by `edgenn profile --json` and black-box dumps).
    pub fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("id".to_string(), Value::Number(self.id as f64));
        map.insert("parent".to_string(), Value::Number(self.parent as f64));
        map.insert(
            "kind".to_string(),
            Value::String(self.kind.name().to_string()),
        );
        map.insert("node".to_string(), Value::Number(f64::from(self.node)));
        map.insert("worker".to_string(), Value::Number(f64::from(self.worker)));
        map.insert("start_ns".to_string(), Value::Number(self.start_ns as f64));
        map.insert("end_ns".to_string(), Value::Number(self.end_ns as f64));
        map.insert("arg".to_string(), Value::Number(self.arg as f64));
        Value::Object(map)
    }
}

/// One ring of seqlock-guarded slots.
struct Ring {
    /// Claim cursor: total records ever claimed in this ring.
    cursor: AtomicU64,
    /// Records this ring retains (fixed for the ring's lifetime).
    records: usize,
    /// `records * WORDS` atomic words.
    slots: Vec<AtomicU64>,
}

impl Ring {
    fn new(records: usize) -> Ring {
        let mut slots = Vec::with_capacity(records * WORDS);
        slots.resize_with(records * WORDS, || AtomicU64::new(0));
        Ring {
            cursor: AtomicU64::new(0),
            records,
            slots,
        }
    }

    /// Writes one record. Lock-free: one `fetch_add` to claim a slot,
    /// then plain atomic stores guarded by the slot's sequence word.
    fn write(&self, rec: &SpanRecord) {
        let claim = self.cursor.fetch_add(1, Ordering::Relaxed);
        let base = (claim as usize % self.records) * WORDS;
        let seq = &self.slots[base];
        // Mark the slot as in-flight so a concurrent drain skips it.
        seq.store(0, Ordering::Release);
        fence(Ordering::Release);
        let meta = rec.kind.code() | (u64::from(rec.worker) << 8) | (u64::from(rec.node) << 24);
        self.slots[base + 1].store(rec.start_ns, Ordering::Relaxed);
        self.slots[base + 2].store(rec.end_ns, Ordering::Relaxed);
        self.slots[base + 3].store(rec.id, Ordering::Relaxed);
        self.slots[base + 4].store(rec.parent, Ordering::Relaxed);
        self.slots[base + 5].store(meta, Ordering::Relaxed);
        self.slots[base + 6].store(rec.arg, Ordering::Relaxed);
        // Publish: sequence = claim + 1 (nonzero, identifies the claim).
        seq.store(claim + 1, Ordering::Release);
    }

    /// Reads the record at `claim` if it is still intact (not overwritten
    /// or mid-write). Seqlock read: sequence must match before and after.
    fn read(&self, claim: u64) -> Option<SpanRecord> {
        let base = (claim as usize % self.records) * WORDS;
        let seq = &self.slots[base];
        if seq.load(Ordering::Acquire) != claim + 1 {
            return None;
        }
        let start_ns = self.slots[base + 1].load(Ordering::Relaxed);
        let end_ns = self.slots[base + 2].load(Ordering::Relaxed);
        let id = self.slots[base + 3].load(Ordering::Relaxed);
        let parent = self.slots[base + 4].load(Ordering::Relaxed);
        let meta = self.slots[base + 5].load(Ordering::Relaxed);
        let arg = self.slots[base + 6].load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if seq.load(Ordering::Acquire) != claim + 1 {
            return None;
        }
        let kind = SpanKind::from_code(meta & 0xff)?;
        Some(SpanRecord {
            id,
            parent,
            kind,
            node: (meta >> 24) as u32,
            worker: ((meta >> 8) & 0xffff) as u16,
            start_ns,
            end_ns,
            arg,
        })
    }
}

/// A black-box snapshot taken when something went wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackBox {
    /// Why the dump was taken ("fault: conv3", "deadline-miss", ...).
    pub reason: String,
    /// When it was taken (monotonic ns since the flight epoch).
    pub captured_ns: u64,
    /// The surviving records, causally ordered (oldest first).
    pub records: Vec<SpanRecord>,
}

impl BlackBox {
    /// JSON form for dump files and `edgenn profile --json`.
    pub fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("reason".to_string(), Value::String(self.reason.clone()));
        map.insert(
            "captured_ns".to_string(),
            Value::Number(self.captured_ns as f64),
        );
        map.insert(
            "records".to_string(),
            Value::Array(self.records.iter().map(SpanRecord::to_value).collect()),
        );
        Value::Object(map)
    }
}

/// The process-global recorder state.
///
/// Rings live in **generations**: fixed-size ring sets whose capacity
/// doubles per generation. [`reserve`] publishes a larger generation
/// when a caller (the execution engine, sized from its graph) needs a
/// bigger retained window; writers pick up the current generation with
/// one extra atomic load, so the record path stays lock-free. Old
/// generations stop receiving writes but stay drainable, so markers
/// taken before a growth still resolve.
struct Flight {
    generations: [OnceLock<Vec<Ring>>; GENERATIONS],
    current_gen: AtomicUsize,
    /// Serializes [`reserve`] growth decisions (not the record path).
    grow: Mutex<()>,
    next_id: AtomicU64,
    epoch: Instant,
    blackbox: Mutex<Option<BlackBox>>,
}

/// Fast-path gate, separate from the lazily built [`Flight`] so a
/// disabled instrumentation site is a single relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

static FLIGHT: OnceLock<Flight> = OnceLock::new();

/// Next thread ordinal; the first thread to record becomes worker 0.
static NEXT_ORDINAL: AtomicUsize = AtomicUsize::new(0);

/// Span ids are handed out to threads in blocks of this size, so the
/// hot path pays a thread-local bump instead of a contended global
/// `fetch_add`. Ids stay unique and are monotonic *per thread*; across
/// threads numeric order no longer implies allocation order.
const ID_BLOCK: u64 = 256;

thread_local! {
    /// Lazily assigned per-thread ordinal (ring selector + worker id).
    static ORDINAL: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Causal parent for spans begun on this thread.
    static PARENT: Cell<u64> = const { Cell::new(0) };
    /// This thread's `(next, limit)` window into the global id space.
    static ID_CACHE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Allocates a span id from the thread's block, refilling from the
/// global counter once per [`ID_BLOCK`] spans.
fn next_span_id() -> u64 {
    ID_CACHE.with(|c| {
        let (next, limit) = c.get();
        if next < limit {
            c.set((next + 1, limit));
            next
        } else {
            let start = flight().next_id.fetch_add(ID_BLOCK, Ordering::Relaxed);
            c.set((start + 1, start + ID_BLOCK));
            start
        }
    })
}

fn flight() -> &'static Flight {
    FLIGHT.get_or_init(|| Flight {
        generations: std::array::from_fn(|_| OnceLock::new()),
        current_gen: AtomicUsize::new(0),
        grow: Mutex::new(()),
        next_id: AtomicU64::new(1),
        epoch: Instant::now(),
        blackbox: Mutex::new(None),
    })
}

/// Builds the ring set of one generation.
fn make_rings(gen: usize) -> Vec<Ring> {
    (0..RINGS).map(|_| Ring::new(ring_capacity(gen))).collect()
}

/// The currently published generation and its rings.
fn current_rings(f: &'static Flight) -> (usize, &'static [Ring]) {
    let gen = f.current_gen.load(Ordering::Acquire);
    (gen, f.generations[gen].get_or_init(|| make_rings(gen)))
}

/// Rings of generation `gen`, if that generation was ever allocated.
fn gen_rings(f: &'static Flight, gen: usize) -> Option<&'static [Ring]> {
    f.generations.get(gen)?.get().map(Vec::as_slice)
}

/// Records retained per ring in the currently published generation.
/// Each thread's records land in one ring, so this is also the longest
/// single-threaded record window guaranteed to survive a drain.
pub fn retained_records_per_ring() -> usize {
    ring_capacity(flight().current_gen.load(Ordering::Acquire))
}

/// Ensures every ring retains at least `min_records` records, growing
/// to a larger ring generation when needed. The engine calls this once
/// per executor with an estimate derived from its graph's node count,
/// so a deep model's per-request profile window survives intact
/// instead of losing its oldest spans to wrap-around.
///
/// Growth publishes a fresh (empty) ring set: records already written
/// stay drainable through markers taken before the growth, but a
/// marker taken afterwards only sees post-growth records. Callers
/// should therefore reserve *before* the window they care about —
/// which is exactly what sizing at executor construction does.
pub fn reserve(min_records: usize) {
    let f = flight();
    let _guard = f
        .grow
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let current = f.current_gen.load(Ordering::Acquire);
    if ring_capacity(current) >= min_records {
        return;
    }
    let mut target = current;
    while target + 1 < GENERATIONS && ring_capacity(target) < min_records {
        target += 1;
    }
    // Allocate before publishing so writers never observe an empty slot.
    f.generations[target].get_or_init(|| make_rings(target));
    f.current_gen.store(target, Ordering::Release);
}

fn ordinal() -> usize {
    ORDINAL.with(|o| {
        let v = o.get();
        if v != usize::MAX {
            return v;
        }
        let assigned = NEXT_ORDINAL.fetch_add(1, Ordering::Relaxed);
        o.set(assigned);
        assigned
    })
}

/// Is the flight recorder currently recording?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on (idempotent). The rings are allocated on first
/// use and kept for the life of the process.
pub fn enable() {
    flight();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording. Already-written records stay drainable.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Monotonic nanoseconds since the recorder epoch (first use).
pub fn now_ns() -> u64 {
    u64::try_from(flight().epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The calling thread's current causal parent span id (0 = none).
pub fn current_parent() -> u64 {
    PARENT.with(Cell::get)
}

/// Runs `f` with `parent` as the thread's causal parent, restoring the
/// previous parent afterwards. Pool task closures use this to carry the
/// submitting span's identity onto the worker thread.
pub fn with_parent<R>(parent: u64, f: impl FnOnce() -> R) -> R {
    let prev = PARENT.with(|p| p.replace(parent));
    let result = f();
    PARENT.with(|p| p.set(prev));
    result
}

/// An open span: identity captured at [`begin`], recorded at [`end`].
/// `Copy` so it can ride through closures without borrow gymnastics.
#[derive(Debug, Clone, Copy)]
pub struct OpenSpan {
    id: u64,
    parent: u64,
    kind: SpanKind,
    node: u32,
    start_ns: u64,
}

impl OpenSpan {
    /// The span's id, for use as a causal parent of child spans.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// A disabled placeholder (recording it is a no-op).
    pub fn disabled() -> OpenSpan {
        OpenSpan {
            id: 0,
            parent: 0,
            kind: SpanKind::Node,
            node: NO_NODE,
            start_ns: 0,
        }
    }
}

/// Opens a span of `kind` on `node`, parented to the thread's current
/// causal parent. Returns a disabled no-op span when recording is off.
#[inline]
pub fn begin(kind: SpanKind, node: u32) -> OpenSpan {
    if !enabled() {
        return OpenSpan::disabled();
    }
    OpenSpan {
        id: next_span_id(),
        parent: current_parent(),
        kind,
        node,
        start_ns: now_ns(),
    }
}

/// Closes and records `span`. Returns the span id (0 when disabled).
#[inline]
pub fn end(span: OpenSpan) -> u64 {
    end_with(span, 0)
}

/// Closes and records `span` with a kind-specific argument.
pub fn end_with(span: OpenSpan, arg: u64) -> u64 {
    if span.id == 0 || !enabled() {
        return 0;
    }
    let rec = SpanRecord {
        id: span.id,
        parent: span.parent,
        kind: span.kind,
        node: span.node,
        worker: worker_ordinal(),
        start_ns: span.start_ns,
        end_ns: now_ns(),
        arg,
    };
    write_record(&rec);
    rec.id
}

/// Records a zero-duration marker. Returns the span id (0 when disabled).
pub fn instant(kind: SpanKind, node: u32, arg: u64) -> u64 {
    if !enabled() {
        return 0;
    }
    let t = now_ns();
    let rec = SpanRecord {
        id: next_span_id(),
        parent: current_parent(),
        kind,
        node,
        worker: worker_ordinal(),
        start_ns: t,
        end_ns: t,
        arg,
    };
    write_record(&rec);
    rec.id
}

/// Records a span with explicit timestamps and parent. Used for spans
/// whose start predates the recording thread (queue-wait: claimed when
/// the task was submitted, recorded when a worker picks it up) and for
/// synthesized phase attribution (aggregate pack time inside one GEMM).
/// Returns the span id (0 when disabled).
pub fn record_manual(
    kind: SpanKind,
    node: u32,
    parent: u64,
    start_ns: u64,
    end_ns: u64,
    arg: u64,
) -> u64 {
    if !enabled() {
        return 0;
    }
    let rec = SpanRecord {
        id: next_span_id(),
        parent,
        kind,
        node,
        worker: worker_ordinal(),
        start_ns,
        end_ns: end_ns.max(start_ns),
        arg,
    };
    write_record(&rec);
    rec.id
}

/// Routes by `rec.worker` (already the thread's ordinal, resolved once
/// by the caller) instead of re-reading the thread-local.
fn write_record(rec: &SpanRecord) {
    let (_, rings) = current_rings(flight());
    rings[usize::from(rec.worker) % RINGS].write(rec);
}

/// The calling thread's worker ordinal (assigned on first record).
pub fn worker_ordinal() -> u16 {
    (ordinal() % usize::from(u16::MAX)) as u16
}

/// A drain position: the ring generation and its per-ring cursors at
/// the time of [`mark`]. A marker taken before a [`reserve`] growth
/// still drains correctly — the drain walks every generation from the
/// marker's up to the current one.
#[derive(Debug, Clone, Copy)]
pub struct Marker {
    gen: usize,
    cursors: [u64; RINGS],
}

/// Snapshots the current ring cursors so a later [`drain_since`] returns
/// only records written after this point. Allocation-free: the engine
/// calls this once per request.
pub fn mark() -> Marker {
    let (gen, rings) = current_rings(flight());
    let mut cursors = [0u64; RINGS];
    for (slot, ring) in cursors.iter_mut().zip(rings.iter()) {
        *slot = ring.cursor.load(Ordering::Acquire);
    }
    Marker { gen, cursors }
}

/// Drains every intact record written since `marker`, across all rings,
/// sorted by start time (ties broken by span id). Records overwritten by
/// ring wrap-around are skipped — they are visible in
/// [`dropped_records`], never silently absent.
pub fn drain_since(marker: &Marker) -> Vec<SpanRecord> {
    let mut out = drain_since_unsorted(marker);
    out.sort_by_key(|r| (r.start_ns, r.id));
    out
}

/// [`drain_since`] without the start-time sort — ring order. The sort
/// only matters for human-ordered output (trace export, black box);
/// summarization does not need it.
fn drain_since_unsorted(marker: &Marker) -> Vec<SpanRecord> {
    let mut out = Vec::new();
    drain_since_into(marker, &mut out);
    out
}

/// Appends every intact record written since `marker` to `out`, in
/// ring order, walking every generation from the marker's to the
/// current one (the marker's cursors gate only its own generation;
/// later generations start empty, so they drain from zero).
fn drain_since_into(marker: &Marker, out: &mut Vec<SpanRecord>) {
    let f = flight();
    let current = f.current_gen.load(Ordering::Acquire);
    for gen in marker.gen..=current {
        let Some(rings) = gen_rings(f, gen) else {
            continue;
        };
        for (idx, ring) in rings.iter().enumerate() {
            let since = if gen == marker.gen {
                marker.cursors[idx]
            } else {
                0
            };
            let hi = ring.cursor.load(Ordering::Acquire);
            let lo = since.max(hi.saturating_sub(ring.records as u64));
            for claim in lo..hi {
                if let Some(rec) = ring.read(claim) {
                    out.push(rec);
                }
            }
        }
    }
}

/// Drains the window opened by `marker` and summarizes the request
/// rooted at span `root` in one pass: the engine's per-request hot
/// path. Skips the start-time sort, never materializes the causal
/// slice (both only matter for trace export, not for stage buckets),
/// and reuses a per-thread drain buffer so the steady state allocates
/// nothing for the record window itself.
pub fn profile_since(marker: &Marker, root: u64, dropped: u64) -> ProfileSummary {
    use std::cell::RefCell;
    thread_local! {
        static DRAIN: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
    }
    DRAIN.with(|buf| {
        let Ok(mut records) = buf.try_borrow_mut() else {
            // Re-entrant call (a sink callback profiling itself):
            // fall back to a fresh buffer.
            let records = drain_since_unsorted(marker);
            let keep = causal_mask(&records, root);
            return ProfileSummary::build_masked(&records, Some(&keep), dropped);
        };
        records.clear();
        drain_since_into(marker, &mut records);
        let keep = causal_mask(&records, root);
        ProfileSummary::build_masked(&records, Some(&keep), dropped)
    })
}

/// Drains the most recent surviving records from every ring (the "last
/// N" view the black box snapshots), across all generations.
pub fn drain_all() -> Vec<SpanRecord> {
    drain_since(&Marker {
        gen: 0,
        cursors: [0; RINGS],
    })
}

/// Folds `f` over every ring of every allocated generation.
fn fold_rings(f: impl Fn(&Ring) -> u64) -> u64 {
    let flight = flight();
    (0..GENERATIONS)
        .filter_map(|gen| gen_rings(flight, gen))
        .flat_map(|rings| rings.iter().map(&f))
        .sum()
}

/// Total records overwritten by ring wrap-around since process start.
pub fn dropped_records() -> u64 {
    fold_rings(|r| {
        r.cursor
            .load(Ordering::Relaxed)
            .saturating_sub(r.records as u64)
    })
}

/// Total records ever written since process start.
pub fn total_records() -> u64 {
    fold_rings(|r| r.cursor.load(Ordering::Relaxed))
}

/// Restricts `records` to the causal tree rooted at span `root`: the
/// root itself plus every record whose parent chain reaches it. This is
/// how a per-request profile stays clean when several requests (or
/// other test threads) interleave on the same rings.
pub fn causal_slice(records: &[SpanRecord], root: u64) -> Vec<SpanRecord> {
    let keep = causal_mask(records, root);
    records
        .iter()
        .zip(keep)
        .filter_map(|(r, kept)| kept.then_some(*r))
        .collect()
}

/// Membership mask for [`causal_slice`]: `mask[i]` is true when
/// `records[i]` is the root or transitively parented to it. BFS over a
/// parent-sorted index instead of a hash-set fixpoint — this runs once
/// per request inside the engine, so it has to stay a few microseconds
/// even for hundred-span windows.
fn causal_mask(records: &[SpanRecord], root: u64) -> Vec<bool> {
    let mut by_parent: Vec<(u64, usize)> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.parent, i))
        .collect();
    by_parent.sort_unstable_by_key(|&(parent, _)| parent);
    let mut keep = vec![false; records.len()];
    for (i, r) in records.iter().enumerate() {
        if r.id == root {
            keep[i] = true;
        }
    }
    let mut frontier = vec![root];
    while let Some(id) = frontier.pop() {
        let first = by_parent.partition_point(|&(parent, _)| parent < id);
        for &(parent, i) in &by_parent[first..] {
            if parent != id {
                break;
            }
            if !keep[i] {
                keep[i] = true;
                frontier.push(records[i].id);
            }
        }
    }
    keep
}

/// Snapshots the last-N record window as a [`BlackBox`] and stores it as
/// the process's most recent dump. Returns `None` when recording is off.
pub fn blackbox_dump(reason: &str) -> Option<BlackBox> {
    if !enabled() {
        return None;
    }
    let f = flight();
    let dump = BlackBox {
        reason: reason.to_string(),
        captured_ns: now_ns(),
        records: drain_all(),
    };
    *f.blackbox
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(dump.clone());
    Some(dump)
}

/// The most recent black-box dump, if any fault has triggered one.
pub fn last_blackbox() -> Option<BlackBox> {
    flight()
        .blackbox
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Clears the stored black-box dump (tests and multi-run CLI sessions).
pub fn clear_blackbox() {
    *flight()
        .blackbox
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// Per-stage latency summary over one set of records.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStat {
    /// Stage name ([`SpanKind::name`]).
    pub stage: &'static str,
    /// Number of spans of this stage.
    pub count: u64,
    /// Sum of span durations (us). Instants contribute count only.
    pub total_us: f64,
    /// Median span duration (us).
    pub p50_us: f64,
    /// 99th-percentile span duration (us).
    pub p99_us: f64,
    /// Largest span duration (us).
    pub max_us: f64,
}

impl StageStat {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("stage".to_string(), Value::String(self.stage.to_string()));
        map.insert("count".to_string(), Value::Number(self.count as f64));
        map.insert("total_us".to_string(), Value::Number(self.total_us));
        map.insert("p50_us".to_string(), Value::Number(self.p50_us));
        map.insert("p99_us".to_string(), Value::Number(self.p99_us));
        map.insert("max_us".to_string(), Value::Number(self.max_us));
        Value::Object(map)
    }
}

/// The continuous-profiler view of one record window: per-stage
/// count/total/p50/p99, plus how much the window lost to ring wrap.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileSummary {
    /// Records summarized.
    pub span_count: u64,
    /// Records lost to ring overwrite during the window.
    pub dropped: u64,
    /// Per-stage statistics, ordered by [`SpanKind::ALL`].
    pub stages: Vec<StageStat>,
}

/// Exact percentile of a sorted sample set (nearest-rank).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

impl ProfileSummary {
    /// Builds the summary from drained records. `dropped` is the delta
    /// of [`dropped_records`] over the window being summarized.
    pub fn build(records: &[SpanRecord], dropped: u64) -> ProfileSummary {
        Self::build_masked(records, None, dropped)
    }

    /// [`build`] restricted to records whose mask entry is true (the
    /// fused path of [`profile_since`], which avoids materializing a
    /// causal slice just to summarize it).
    fn build_masked(records: &[SpanRecord], keep: Option<&[bool]>, dropped: u64) -> ProfileSummary {
        // One pass to bucket durations by kind (instead of one scan per
        // kind): this runs per request inside the engine's hot loop.
        const KINDS: usize = SpanKind::ALL.len();
        let mut buckets: [Vec<f64>; KINDS] = std::array::from_fn(|_| Vec::new());
        let mut span_count = 0u64;
        for (i, r) in records.iter().enumerate() {
            if keep.is_some_and(|k| !k[i]) {
                continue;
            }
            span_count += 1;
            buckets[r.kind as usize].push(r.duration_us());
        }
        let mut stages = Vec::new();
        for (kind, durations) in SpanKind::ALL.iter().zip(&mut buckets) {
            if durations.is_empty() {
                continue;
            }
            durations.sort_by(f64::total_cmp);
            stages.push(StageStat {
                stage: kind.name(),
                count: durations.len() as u64,
                total_us: durations.iter().sum(),
                p50_us: percentile(durations, 0.50),
                p99_us: percentile(durations, 0.99),
                max_us: *durations.last().unwrap_or(&0.0),
            });
        }
        ProfileSummary {
            span_count,
            dropped,
            stages,
        }
    }

    /// Looks up one stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageStat> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// JSON form.
    pub fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert(
            "span_count".to_string(),
            Value::Number(self.span_count as f64),
        );
        map.insert("dropped".to_string(), Value::Number(self.dropped as f64));
        map.insert(
            "stages".to_string(),
            Value::Array(self.stages.iter().map(StageStat::to_value).collect()),
        );
        Value::Object(map)
    }
}

/// Per-node attribution reconstructed from one request's records.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeProfile {
    /// Graph node id.
    pub node: u32,
    /// Node wall time: the node span's own duration (us).
    pub wall_us: f64,
    /// Time in pack phases (im2col + B-panel packing) under this node.
    pub pack_us: f64,
    /// Time in compute phases (GEMM/matvec inner loops) under this node.
    pub compute_us: f64,
    /// Time merging split partial outputs for this node.
    pub merge_us: f64,
    /// Time this node's pooled tasks waited in the queue.
    pub queue_wait_us: f64,
    /// Arena acquisitions served from reused capacity.
    pub arena_hits: u64,
    /// Arena acquisitions that had to allocate.
    pub arena_misses: u64,
    /// Resilience retries attributed to this node.
    pub retries: u64,
    /// Resilience fallbacks attributed to this node.
    pub fallbacks: u64,
}

impl NodeProfile {
    /// JSON form.
    pub fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("node".to_string(), Value::Number(f64::from(self.node)));
        map.insert("wall_us".to_string(), Value::Number(self.wall_us));
        map.insert("pack_us".to_string(), Value::Number(self.pack_us));
        map.insert("compute_us".to_string(), Value::Number(self.compute_us));
        map.insert("merge_us".to_string(), Value::Number(self.merge_us));
        map.insert(
            "queue_wait_us".to_string(),
            Value::Number(self.queue_wait_us),
        );
        map.insert(
            "arena_hits".to_string(),
            Value::Number(self.arena_hits as f64),
        );
        map.insert(
            "arena_misses".to_string(),
            Value::Number(self.arena_misses as f64),
        );
        map.insert("retries".to_string(), Value::Number(self.retries as f64));
        map.insert(
            "fallbacks".to_string(),
            Value::Number(self.fallbacks as f64),
        );
        Value::Object(map)
    }
}

/// Reconstructs per-node attribution from a drained record set. Node
/// wall time comes from [`SpanKind::Node`] spans; phase and resilience
/// records attach to the node id they recorded, or — for kernel-level
/// records emitted below node granularity (tensor pack/compute/arena
/// spans carry [`NO_NODE`]) — to the nearest ancestor span that names a
/// node. Sorted by node id.
pub fn node_profiles(records: &[SpanRecord]) -> Vec<NodeProfile> {
    use std::collections::BTreeMap;
    use std::collections::HashMap;
    let by_id: HashMap<u64, (u32, u64)> =
        records.iter().map(|r| (r.id, (r.node, r.parent))).collect();
    let resolve = |rec: &SpanRecord| -> u32 {
        let mut node = rec.node;
        let mut parent = rec.parent;
        let mut hops = 0;
        while node == NO_NODE && parent != 0 && hops < 64 {
            let Some(&(pn, pp)) = by_id.get(&parent) else {
                break;
            };
            node = pn;
            parent = pp;
            hops += 1;
        }
        node
    };
    let mut by_node: BTreeMap<u32, NodeProfile> = BTreeMap::new();
    for rec in records {
        let node = resolve(rec);
        if node == NO_NODE {
            continue;
        }
        let entry = by_node.entry(node).or_insert(NodeProfile {
            node,
            ..NodeProfile::default()
        });
        match rec.kind {
            SpanKind::Node => entry.wall_us += rec.duration_us(),
            SpanKind::Pack => entry.pack_us += rec.duration_us(),
            SpanKind::Compute => entry.compute_us += rec.duration_us(),
            SpanKind::Merge => entry.merge_us += rec.duration_us(),
            SpanKind::QueueWait => entry.queue_wait_us += rec.duration_us(),
            SpanKind::ArenaHit => entry.arena_hits += 1,
            SpanKind::ArenaMiss => entry.arena_misses += 1,
            SpanKind::Retry => entry.retries += 1,
            SpanKind::Fallback => entry.fallbacks += 1,
            SpanKind::Request
            | SpanKind::TaskRun
            | SpanKind::WorkerLoss
            | SpanKind::Admission
            | SpanKind::BatchForm
            | SpanKind::Degrade
            | SpanKind::Shed => {}
        }
    }
    by_node.into_values().collect()
}

/// Maps records onto Chrome-trace entries: spans, and instants for the
/// instant kinds, on process id `pid` with one thread row per worker
/// ordinal. `name_of` maps node ids to display names (the CLI passes
/// layer names; pass `|n| format!("n{n}")` when unknown). Timestamps
/// are shifted so `t0_ns` becomes 0 and converted to microseconds,
/// matching the simulator's trace clock.
pub fn trace_entries(
    records: &[SpanRecord],
    pid: u64,
    t0_ns: u64,
    name_of: &dyn Fn(u32) -> String,
) -> Vec<TraceEntry> {
    records
        .iter()
        .map(|rec| {
            let name = if rec.node == NO_NODE {
                rec.kind.name().to_string()
            } else {
                format!("{} {}", rec.kind.name(), name_of(rec.node))
            };
            let (cat, tid) = (rec.kind.name(), u64::from(rec.worker));
            let ts = rec.start_ns.saturating_sub(t0_ns) as f64 / 1e3;
            let entry = if rec.kind.is_instant() {
                TraceEntry::instant(name, cat, pid, tid, ts)
            } else {
                TraceEntry::span(name, cat, pid, tid, ts, rec.duration_us().max(0.001))
            };
            let entry = entry.arg("id", rec.id).arg("parent", rec.parent);
            if rec.arg == 0 {
                entry
            } else {
                entry.arg("arg", rec.arg)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flight test shares the process-global recorder with every
    /// other test thread, so assertions work on deltas and on causal
    /// slices rooted at spans this test created.
    fn recording<R>(f: impl FnOnce() -> R) -> R {
        enable();
        f()
    }

    #[test]
    fn docs_list_every_stage() {
        // Same doc-sync contract as the diagnostics registry: the stage
        // table in docs/profiling.md must name every SpanKind, so a new
        // kind cannot land without its documentation row.
        let docs = include_str!("../../../docs/profiling.md");
        for kind in SpanKind::ALL {
            assert!(
                docs.contains(&format!("`{}`", kind.name())),
                "stage {:?} ({}) missing from docs/profiling.md",
                kind,
                kind.name()
            );
        }
    }

    #[test]
    fn span_kind_all_matches_discriminant_order() {
        // `ProfileSummary::build` buckets by `kind as usize` and labels
        // the bucket with `ALL[i]`; both must agree on the ordering.
        for (i, kind) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "SpanKind::ALL out of code order");
        }
    }

    #[test]
    fn disabled_recorder_records_nothing_through_open_spans() {
        // Spans opened while disabled stay no-ops even if another test
        // enables recording concurrently: the id is pinned to 0.
        let span = OpenSpan::disabled();
        assert_eq!(end(span), 0);
    }

    #[test]
    fn span_roundtrip_preserves_fields() {
        recording(|| {
            let marker = mark();
            let root = begin(SpanKind::Request, NO_NODE);
            let root_id = with_parent(root.id(), || {
                let child = begin(SpanKind::Node, 7);
                std::thread::sleep(std::time::Duration::from_micros(50));
                end_with(child, 42);
                root.id()
            });
            end(root);
            let records = causal_slice(&drain_since(&marker), root_id);
            let node = records
                .iter()
                .find(|r| r.kind == SpanKind::Node)
                .expect("node span drained");
            assert_eq!(node.node, 7);
            assert_eq!(node.parent, root_id);
            assert_eq!(node.arg, 42);
            assert!(node.end_ns > node.start_ns);
            let req = records
                .iter()
                .find(|r| r.kind == SpanKind::Request)
                .expect("request span drained");
            assert!(req.start_ns <= node.start_ns);
            assert!(req.end_ns >= node.end_ns);
        });
    }

    #[test]
    fn instants_have_zero_duration_and_inherit_parent() {
        recording(|| {
            let marker = mark();
            let root = begin(SpanKind::Request, NO_NODE);
            with_parent(root.id(), || {
                instant(SpanKind::ArenaMiss, 3, 4096);
            });
            let root_id = root.id();
            end(root);
            let records = causal_slice(&drain_since(&marker), root_id);
            let miss = records
                .iter()
                .find(|r| r.kind == SpanKind::ArenaMiss)
                .expect("instant drained");
            assert_eq!(miss.start_ns, miss.end_ns);
            assert_eq!(miss.duration_us(), 0.0);
            assert_eq!(miss.parent, root_id);
            assert_eq!(miss.arg, 4096);
        });
    }

    /// Capacity target shared by the tests that exercise wrap and
    /// growth: reserving first pins the generation, so the two tests
    /// cannot race each other's capacity observations.
    const TEST_RING_RECORDS: usize = 2 * BASE_RING_RECORDS;

    #[test]
    fn ring_wrap_counts_drops_instead_of_failing() {
        recording(|| {
            reserve(TEST_RING_RECORDS);
            let capacity = retained_records_per_ring() as u64;
            let dropped_before = dropped_records();
            let total_before = total_records();
            // One thread writes to one ring; exceed its capacity.
            let writes = capacity + 500;
            for i in 0..writes {
                instant(SpanKind::Retry, 1, i);
            }
            assert!(total_records() - total_before >= writes);
            assert!(
                dropped_records() - dropped_before >= 500,
                "wrap must surface as dropped records"
            );
        });
    }

    #[test]
    fn reserve_grows_rings_and_keeps_marker_windows_intact() {
        recording(|| {
            reserve(TEST_RING_RECORDS);
            assert!(retained_records_per_ring() >= TEST_RING_RECORDS);
            // Growth is monotone: asking for less never shrinks.
            let before = retained_records_per_ring();
            reserve(1);
            assert_eq!(retained_records_per_ring(), before);
            // A window larger than the base capacity survives a drain
            // whole: the VGG regression this sizing fixes showed up as
            // thousands of dropped records per request.
            let marker = mark();
            let dropped_before = dropped_records();
            let writes = (BASE_RING_RECORDS + 512) as u64;
            let first = instant(SpanKind::Retry, 42, 0);
            for i in 1..writes {
                instant(SpanKind::Retry, 42, i);
            }
            assert_eq!(
                dropped_records() - dropped_before,
                0,
                "reserved rings must hold the whole window"
            );
            let drained = drain_since(&marker);
            assert!(
                drained.iter().any(|r| r.id == first),
                "oldest record of the window survives"
            );
            assert!(
                drained.iter().filter(|r| r.node == 42).count() as u64 >= writes,
                "every record of the window survives"
            );
        });
    }

    #[test]
    fn drain_since_skips_records_before_the_marker() {
        recording(|| {
            let early = instant(SpanKind::Fallback, 9, 0);
            let marker = mark();
            let late = instant(SpanKind::Fallback, 10, 0);
            let drained = drain_since(&marker);
            assert!(drained.iter().any(|r| r.id == late));
            assert!(drained.iter().all(|r| r.id != early));
        });
    }

    #[test]
    fn causal_slice_follows_parent_chains_not_interleavings() {
        recording(|| {
            let marker = mark();
            let mine = begin(SpanKind::Request, NO_NODE);
            let mine_id = mine.id();
            let stranger = begin(SpanKind::Request, NO_NODE);
            with_parent(mine_id, || {
                let child = begin(SpanKind::Node, 1);
                with_parent(child.id(), || {
                    instant(SpanKind::Retry, 1, 1);
                });
                end(child);
            });
            with_parent(stranger.id(), || {
                instant(SpanKind::Retry, 2, 1);
            });
            end(stranger);
            end(mine);
            let slice = causal_slice(&drain_since(&marker), mine_id);
            assert_eq!(
                slice.iter().filter(|r| r.kind == SpanKind::Retry).count(),
                1
            );
            assert!(slice.iter().all(|r| r.node != 2));
            // Grandchild reached through the chain, not just direct kids.
            assert!(slice
                .iter()
                .any(|r| r.kind == SpanKind::Retry && r.node == 1));
        });
    }

    #[test]
    fn profile_summary_aggregates_per_stage() {
        let mk = |kind: SpanKind, start: u64, end: u64| SpanRecord {
            id: start,
            parent: 0,
            kind,
            node: 1,
            worker: 0,
            start_ns: start,
            end_ns: end,
            arg: 0,
        };
        let records = vec![
            mk(SpanKind::Node, 0, 10_000),
            mk(SpanKind::Node, 20_000, 26_000),
            mk(SpanKind::Pack, 1_000, 3_000),
        ];
        let profile = ProfileSummary::build(&records, 2);
        assert_eq!(profile.span_count, 3);
        assert_eq!(profile.dropped, 2);
        let node = profile.stage("node").unwrap();
        assert_eq!(node.count, 2);
        assert!((node.total_us - 16.0).abs() < 1e-9);
        assert!((node.p50_us - 6.0).abs() < 1e-9);
        assert!((node.max_us - 10.0).abs() < 1e-9);
        assert_eq!(profile.stage("pack").unwrap().count, 1);
        assert!(profile.stage("merge").is_none());
    }

    #[test]
    fn node_profiles_attribute_phases_and_instants() {
        let mk = |kind: SpanKind, node: u32, start: u64, end: u64| SpanRecord {
            id: start + u64::from(node),
            parent: 0,
            kind,
            node,
            worker: 0,
            start_ns: start,
            end_ns: end,
            arg: 0,
        };
        let records = vec![
            mk(SpanKind::Node, 1, 0, 10_000),
            mk(SpanKind::Pack, 1, 0, 2_000),
            mk(SpanKind::Compute, 1, 2_000, 9_000),
            mk(SpanKind::ArenaHit, 1, 100, 100),
            mk(SpanKind::Retry, 1, 200, 200),
            mk(SpanKind::Node, 2, 10_000, 12_000),
            mk(SpanKind::QueueWait, 2, 9_500, 10_000),
        ];
        let profiles = node_profiles(&records);
        assert_eq!(profiles.len(), 2);
        let n1 = &profiles[0];
        assert_eq!(n1.node, 1);
        assert!((n1.wall_us - 10.0).abs() < 1e-9);
        assert!((n1.pack_us - 2.0).abs() < 1e-9);
        assert!((n1.compute_us - 7.0).abs() < 1e-9);
        assert_eq!(n1.arena_hits, 1);
        assert_eq!(n1.retries, 1);
        let n2 = &profiles[1];
        assert!((n2.queue_wait_us - 0.5).abs() < 1e-9);
    }

    #[test]
    fn node_profiles_resolve_kernel_records_through_parents() {
        // A tensor-level pack span and arena instant carry NO_NODE; they
        // must attach to the node named by their ancestor chain.
        let records = vec![
            SpanRecord {
                id: 1,
                parent: 0,
                kind: SpanKind::Node,
                node: 5,
                worker: 0,
                start_ns: 0,
                end_ns: 10_000,
                arg: 0,
            },
            SpanRecord {
                id: 2,
                parent: 1,
                kind: SpanKind::Pack,
                node: NO_NODE,
                worker: 0,
                start_ns: 100,
                end_ns: 2_100,
                arg: 4096,
            },
            SpanRecord {
                id: 3,
                parent: 2,
                kind: SpanKind::ArenaMiss,
                node: NO_NODE,
                worker: 0,
                start_ns: 150,
                end_ns: 150,
                arg: 4096,
            },
        ];
        let profiles = node_profiles(&records);
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].node, 5);
        assert!((profiles[0].pack_us - 2.0).abs() < 1e-9);
        assert_eq!(profiles[0].arena_misses, 1);
    }

    #[test]
    fn blackbox_snapshot_contains_recent_records() {
        recording(|| {
            let tagged = instant(SpanKind::Fallback, 77, 123);
            let dump = blackbox_dump("test-fault").expect("enabled");
            assert_eq!(dump.reason, "test-fault");
            assert!(dump.records.iter().any(|r| r.id == tagged));
            let stored = last_blackbox().expect("stored");
            assert_eq!(stored.reason, "test-fault");
            let json = dump.to_value();
            assert_eq!(json["reason"], "test-fault");
            assert!(json["records"].as_array().is_some_and(|a| !a.is_empty()));
        });
    }

    #[test]
    fn trace_entries_render_spans_and_instants() {
        let records = vec![
            SpanRecord {
                id: 1,
                parent: 0,
                kind: SpanKind::Node,
                node: 4,
                worker: 2,
                start_ns: 5_000,
                end_ns: 15_000,
                arg: 0,
            },
            SpanRecord {
                id: 2,
                parent: 1,
                kind: SpanKind::ArenaMiss,
                node: 4,
                worker: 2,
                start_ns: 6_000,
                end_ns: 6_000,
                arg: 64,
            },
        ];
        let entries: Vec<Value> = trace_entries(&records, 3, 5_000, &|n| format!("layer{n}"))
            .iter()
            .map(serde::Serialize::to_value)
            .collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0]["ph"], "X");
        assert_eq!(entries[0]["name"], "node layer4");
        assert_eq!(entries[0]["pid"], 3);
        assert_eq!(entries[0]["tid"], 2);
        assert_eq!(entries[0]["ts"], 0);
        assert_eq!(entries[0]["dur"], 10);
        assert_eq!(entries[1]["ph"], "i");
        assert_eq!(entries[1]["args"]["arg"], 64);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.50), 2.0);
        assert_eq!(percentile(&sorted, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn every_span_kind_roundtrips_its_code() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::from_code(kind.code()), Some(kind));
            assert!(!kind.name().is_empty());
        }
        assert_eq!(SpanKind::from_code(0), None);
        assert_eq!(SpanKind::from_code(255), None);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_records() {
        recording(|| {
            let marker = mark();
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    s.spawn(move || {
                        for i in 0..2_000u64 {
                            // Encode the writer id in both node and arg so
                            // a torn record (fields from two writers)
                            // is detectable.
                            let node = u32::try_from(t).unwrap() + 100;
                            instant(SpanKind::Retry, node, t * 10_000 + i);
                        }
                    });
                }
            });
            for rec in drain_since(&marker) {
                if rec.kind == SpanKind::Retry && rec.node >= 100 && rec.node < 104 {
                    let writer = u64::from(rec.node - 100);
                    assert_eq!(
                        rec.arg / 10_000,
                        writer,
                        "record mixes fields from two writers"
                    );
                }
            }
        });
    }
}
