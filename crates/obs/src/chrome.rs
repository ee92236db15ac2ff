//! Chrome trace-event export: the one place the workspace spells out the
//! trace-event format that `chrome://tracing` and Perfetto load.
//!
//! Producers decide how their timeline maps onto process and thread
//! rows and build [`TraceEntry`] values: the simulator's
//! `edgenn_sim::trace::timeline_entries` puts the CPU, GPU and bus on
//! one process, and [`flight::trace_entries`](crate::flight::trace_entries)
//! gives each pool worker a thread row. [`write`] serializes the entries
//! as the JSON array flavour of the format, reads the file back and
//! fails unless it parses as a JSON array, so a command only reports a
//! trace it has checked.
//!
//! ```
//! use edgenn_obs::chrome::{self, TraceEntry};
//!
//! let entries = vec![
//!     TraceEntry::process_name(1, "simulated"),
//!     TraceEntry::span("conv1", "kernel", 1, 2, 0.0, 5.0).arg("track", "GPU"),
//!     TraceEntry::counter("bandwidth_gbps", 1, 0.0, 1.5),
//! ];
//! let path = std::env::temp_dir().join("edgenn_chrome_doctest.json");
//! let parsed = chrome::write(&path, &entries).unwrap();
//! assert_eq!(parsed.len(), 3);
//! assert_eq!(chrome::span_count(&parsed, 1), 1);
//! std::fs::remove_file(&path).unwrap();
//! ```

use std::path::Path;

use serde_json::{Map, Value};

/// What an entry records: the format's phase letter and, for spans,
/// the duration.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// `X`: a complete span lasting this many microseconds.
    Span(f64),
    /// `i`: a thread-scoped instant.
    Instant,
    /// `C`: one sample of a counter track.
    Counter,
    /// `M`: process metadata.
    Metadata,
}

/// One trace-event entry. Build it with [`span`](Self::span),
/// [`instant`](Self::instant), [`counter`](Self::counter) or
/// [`process_name`](Self::process_name) and attach arguments with
/// [`arg`](Self::arg).
#[derive(Debug, Clone)]
pub struct TraceEntry {
    name: String,
    cat: Option<String>,
    phase: Phase,
    ts_us: Option<f64>,
    pid: u64,
    tid: Option<u64>,
    args: Map,
}

impl TraceEntry {
    fn new(name: String, phase: Phase, pid: u64) -> Self {
        Self {
            name,
            cat: None,
            phase,
            ts_us: None,
            pid,
            tid: None,
            args: Map::new(),
        }
    }

    fn on_thread(self, cat: String, tid: u64, ts_us: f64) -> Self {
        Self {
            cat: Some(cat),
            tid: Some(tid),
            ts_us: Some(ts_us),
            ..self
        }
    }

    /// A span of `dur_us` starting at `ts_us` on thread row `tid` of
    /// process `pid`.
    pub fn span(
        name: impl Into<String>,
        cat: impl Into<String>,
        pid: u64,
        tid: u64,
        ts_us: f64,
        dur_us: f64,
    ) -> Self {
        Self::new(name.into(), Phase::Span(dur_us), pid).on_thread(cat.into(), tid, ts_us)
    }

    /// A point-in-time marker at `ts_us` on thread row `tid` of process
    /// `pid`.
    pub fn instant(
        name: impl Into<String>,
        cat: impl Into<String>,
        pid: u64,
        tid: u64,
        ts_us: f64,
    ) -> Self {
        Self::new(name.into(), Phase::Instant, pid).on_thread(cat.into(), tid, ts_us)
    }

    /// One sample of counter track `name` on process `pid`.
    pub fn counter(name: impl Into<String>, pid: u64, ts_us: f64, value: f64) -> Self {
        let entry = Self::new(name.into(), Phase::Counter, pid);
        Self {
            ts_us: Some(ts_us),
            ..entry
        }
        .arg("value", value)
    }

    /// The metadata entry that labels process `pid` as `name`.
    pub fn process_name(pid: u64, name: &str) -> Self {
        Self::new("process_name".into(), Phase::Metadata, pid).arg("name", name)
    }

    /// Adds `key: value` to the entry's `args`.
    #[must_use]
    pub fn arg(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.args.insert(key, value.into());
        self
    }
}

impl serde::Serialize for TraceEntry {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("name", self.name.as_str().into());
        if let Some(cat) = &self.cat {
            m.insert("cat", cat.as_str().into());
        }
        let ph = match self.phase {
            Phase::Span(_) => "X",
            Phase::Instant => "i",
            Phase::Counter => "C",
            Phase::Metadata => "M",
        };
        m.insert("ph", ph.into());
        if let Some(ts) = self.ts_us {
            m.insert("ts", ts.into());
        }
        if let Phase::Span(dur) = self.phase {
            m.insert("dur", dur.into());
        }
        m.insert("pid", self.pid.into());
        if let Some(tid) = self.tid {
            m.insert("tid", tid.into());
        }
        if self.phase == Phase::Instant {
            m.insert("s", "t".into());
        }
        m.insert("args", Value::Object(self.args.clone()));
        Value::Object(m)
    }
}

/// `entries` as a Chrome trace: a pretty-printed JSON array.
pub fn to_json(entries: &[TraceEntry]) -> String {
    serde_json::to_string_pretty(entries).expect("trace entries are serializable")
}

/// Writes `entries` to `path` as a Chrome trace, then reads the file
/// back and parses it. Returns the parsed entries, so a caller can check
/// what actually reached the disk.
///
/// # Errors
/// Fails when the file cannot be written or read back, or when what was
/// read back is not a JSON array.
pub fn write(path: impl AsRef<Path>, entries: &[TraceEntry]) -> Result<Vec<Value>, String> {
    let path = path.as_ref();
    let shown = path.display();
    std::fs::write(path, to_json(entries)).map_err(|e| format!("writing {shown}: {e}"))?;
    let reread = std::fs::read_to_string(path).map_err(|e| format!("re-reading {shown}: {e}"))?;
    match serde_json::from_str(&reread) {
        Ok(Value::Array(parsed)) => Ok(parsed),
        Ok(_) => Err(format!("{shown}: a Chrome trace must be a JSON array")),
        Err(e) => Err(format!("{shown} is not valid JSON: {e}")),
    }
}

/// How many spans of process `pid` a parsed trace holds.
pub fn span_count(entries: &[Value], pid: u64) -> usize {
    entries
        .iter()
        .filter(|e| e["pid"] == pid && e["ph"] == "X")
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_rereads_the_file_and_counts_spans_per_process() {
        let path = std::env::temp_dir().join(format!("edgenn_chrome_{}.json", std::process::id()));
        let entries = [
            TraceEntry::span("a", "kernel", 1, 1, 0.0, 1.0),
            TraceEntry::span("b", "node", 3, 0, 0.0, 1.0),
            TraceEntry::instant("c", "retry", 3, 0, 0.5),
        ];
        let parsed = write(&path, &entries).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!((span_count(&parsed, 1), span_count(&parsed, 3)), (1, 1));
        std::fs::remove_file(&path).unwrap();

        let missing_dir = std::env::temp_dir().join("edgenn_no_such_dir/t.json");
        assert!(write(missing_dir, &entries)
            .unwrap_err()
            .starts_with("writing "));
    }
}
