//! Readers for the Linux `/proc` files the benchmark samples: process
//! CPU time, host steal, the calling thread's run-queue wait and peak
//! resident memory. Parsers take the file text so tests can feed fixed
//! inputs; readers return `None` where the file is missing.

use std::fs;

/// Clock ticks per second of `/proc` tick counters (`USER_HZ`), fixed
/// at 100 by the Linux ABI on every architecture the engine targets.
pub const TICKS_PER_S: f64 = 100.0;

/// Process user+system CPU ticks from `/proc/self/stat`: fields 14 and
/// 15, which count every thread of the process, live or joined.
#[must_use]
pub fn parse_stat_cpu_ticks(text: &str) -> Option<u64> {
    // The command name (field 2) is parenthesised and may hold spaces,
    // so count fields from the last ')'.
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Host-wide CPU ticks from the aggregate `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostTicks {
    /// Sum of every column (user … steal; guest time is already inside
    /// user and nice).
    pub total: u64,
    /// Ticks the hypervisor ran someone else while this guest was ready.
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
#[must_use]
pub fn parse_host_ticks(text: &str) -> Option<HostTicks> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let cols: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *cols.get(7)?;
    Some(HostTicks {
        total: cols.iter().take(8).sum(),
        steal,
    })
}

/// Share of host ticks that were stolen between two snapshots.
#[must_use]
pub fn steal_share(before: HostTicks, after: HostTicks) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// `VmHWM` (peak resident set) in KiB from `/proc/self/status`.
#[must_use]
pub fn parse_vm_hwm_kib(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Nanoseconds the thread spent waiting on a run queue, the second
/// field of `/proc/thread-self/schedstat`.
#[must_use]
pub fn parse_runq_wait_ns(text: &str) -> Option<u64> {
    text.split_whitespace().nth(1)?.parse().ok()
}

/// Current process CPU time in seconds.
#[must_use]
pub fn process_cpu_s() -> Option<f64> {
    let ticks = parse_stat_cpu_ticks(&fs::read_to_string("/proc/self/stat").ok()?)?;
    Some(ticks as f64 / TICKS_PER_S)
}

/// Current host tick counters.
#[must_use]
pub fn host_ticks() -> Option<HostTicks> {
    parse_host_ticks(&fs::read_to_string("/proc/stat").ok()?)
}

/// Peak resident memory of this process in MiB.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let kib = parse_vm_hwm_kib(&fs::read_to_string("/proc/self/status").ok()?)?;
    Some(kib as f64 / 1024.0)
}

/// Run-queue wait of the calling thread so far, in nanoseconds.
#[must_use]
pub fn runq_wait_ns() -> Option<u64> {
    parse_runq_wait_ns(&fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_spaces_and_parens_in_the_name() {
        let text = "4242 (edgenn (bench) x) R 1 4242 4242 0 -1 4194304 \
                    900 0 0 0 1234 56 7 8 20 0 3 0 100 1000 200";
        assert_eq!(parse_stat_cpu_ticks(text), Some(1234 + 56));
        assert_eq!(parse_stat_cpu_ticks("12 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn host_ticks_read_the_aggregate_line() {
        let text = "cpu  1494440 0 166609 2194000 694 0 4490 186776 0 0\n\
                    cpu0 747220 0 83304 1097000 347 0 2245 93388 0 0\n\
                    intr 1 2 3\n";
        let t = parse_host_ticks(text).unwrap();
        assert_eq!(t.steal, 186_776);
        assert_eq!(
            t.total,
            1_494_440 + 166_609 + 2_194_000 + 694 + 4_490 + 186_776
        );
        assert_eq!(parse_host_ticks("cpu0 1 2 3\n"), None);
        assert_eq!(parse_host_ticks("cpu  1 2 x 4 5 6 7 8\n"), None);
    }

    #[test]
    fn steal_share_is_a_delta_ratio() {
        let a = HostTicks {
            total: 1000,
            steal: 10,
        };
        let b = HostTicks {
            total: 1200,
            steal: 40,
        };
        assert!((steal_share(a, b) - 0.15).abs() < 1e-12);
        assert_eq!(steal_share(a, a), 0.0);
    }

    #[test]
    fn vm_hwm_and_schedstat_parse() {
        let status = "Name:\tedgenn\nVmPeak:\t  20000 kB\nVmHWM:\t    6204 kB\nVmRSS:\t 6000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(6204));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_runq_wait_ns("116873 52000 2\n"), Some(52_000));
        assert_eq!(parse_runq_wait_ns("116873"), None);
    }
}
