//! # edgenn-obs
//!
//! The observability layer shared by the whole EdgeNN stack. It answers
//! the questions the simulator and tuner otherwise leave implicit: *what
//! ran, where, for how long, moving how many bytes — and why did the
//! tuner decide that?*
//!
//! Five pieces:
//!
//! 1. [`MetricsRegistry`] — counters, gauges, and log-bucketed
//!    histograms (p50/p95/p99), labeled by model/platform/policy, with
//!    JSON and Prometheus-text exposition.
//! 2. [`EventSink`] — the span/event sink trait that `edgenn-sim`'s
//!    `Timeline` and `edgenn-core`'s `Runtime`/`Tuner`/`pipeline` emit
//!    into: kernel launches, copies/migrations with byte counts,
//!    contention stalls, EMA updates, plan regenerations, per-request
//!    latencies, and accounting warnings.
//! 3. [`Recorder`] — the standard sink: cheaply clonable, thread-safe,
//!    feeds every event into its registry and keeps the raw stream for
//!    trace export (counter samples become Chrome-trace counter tracks).
//! 4. [`flight`] — the flight recorder: lock-free per-worker rings of
//!    fixed-size span records written from the functional engine's hot
//!    paths, with drain/merge into per-request profiles, fault black
//!    boxes, and trace entries for Perfetto (see `docs/profiling.md`).
//! 5. [`chrome`] — the one Chrome/Perfetto trace exporter: typed
//!    trace-event entries (spans, instants, counters, process names),
//!    their serialization, and the checked file writer every trace the
//!    workspace writes goes through.
//!
//! Zero external dependencies: std plus the workspace's vendored
//! `serde`/`serde_json` only, so offline builds keep working.
//!
//! ```
//! use edgenn_obs::{EventSink, Labels, Recorder, SinkEvent};
//!
//! let recorder = Recorder::with_labels(Labels::new().with("model", "alexnet"));
//! recorder.emit(SinkEvent::span("kernel", "gpu", "conv1", 0.0, 42.0, 0));
//! recorder.emit(SinkEvent::Counter { track: "ema/conv1".into(), t_us: 1.0, value: 42.0 });
//! assert_eq!(recorder.events().len(), 2);
//! let json = recorder.metrics().to_json();
//! assert!(json["counters"].as_array().is_some());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chrome;
pub mod flight;
mod metrics;
mod sink;

pub use flight::{
    BlackBox, NodeProfile, OpenSpan, ProfileSummary, SpanKind, SpanRecord, StageStat,
};
pub use metrics::{HistogramSnapshot, Labels, MetricsRegistry};
pub use sink::{CounterSample, EventSink, NullSink, Recorder, SinkEvent};
