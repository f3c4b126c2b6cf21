//! Measurement plumbing shared by every workload: latency samples and
//! their percentiles, the benchmark's own span recorder, registry
//! deltas, process memory, and the result line.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use zerber_obs::{HistogramSnapshot, MetricsSnapshot};

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (`0 < q <= 1`) of `samples` by the nearest-rank
/// rule; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `samples`; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Fewest operations in a run a tail percentile is taken over: the p99
/// is the median of the p99s of runs of consecutive operations, so a
/// burst of interference in a few of them moves it little. The nearest
/// rank in 250 is the third slowest, which sits about as far out as the
/// 11th slowest of 1000. Medians and rates are taken over the whole
/// phase.
pub const TAIL_RUN: usize = 250;

/// Fewest runs a p99 is the median of. With fewer operations than this
/// many runs hold, the p99 is taken over all of them: the median of a
/// few runs' p99s follows whichever run sits in the middle, and in a
/// phase whose latencies drift that run moves with the phase's pace.
pub const TAIL_RUNS_MIN: usize = 10;

/// Operation latencies, each tagged with when its operation started.
#[derive(Default, Clone)]
pub struct Latencies {
    at: Vec<f64>,
    ms: Vec<f64>,
}

impl Latencies {
    /// Records one operation that started `at` into the phase.
    pub fn push(&mut self, at: Duration, took: Duration) {
        self.at.push(at.as_secs_f64());
        self.ms.push(ms(took));
    }

    /// Moves `other`'s latencies into this set.
    pub fn extend(&mut self, other: Latencies) {
        self.at.extend(other.at);
        self.ms.extend(other.ms);
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// The median latency.
    pub fn p50(&self) -> f64 {
        median(&self.ms)
    }

    /// The 99th-percentile latency: the operations are cut, in the
    /// order they started, into runs of at least [`TAIL_RUN`], and the
    /// median of the runs' p99s is reported; with fewer than
    /// [`TAIL_RUNS_MIN`] runs, the p99 of all operations.
    pub fn p99(&self) -> f64 {
        let runs = match self.len() / TAIL_RUN {
            enough if enough >= TAIL_RUNS_MIN => enough,
            _ => 1,
        };
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| self.at[a].total_cmp(&self.at[b]));
        let per_run: Vec<f64> = (0..runs)
            .map(|r| {
                let run = &order[r * order.len() / runs..(r + 1) * order.len() / runs];
                let values: Vec<f64> = run.iter().map(|&i| self.ms[i]).collect();
                quantile(&values, 0.99)
            })
            .collect();
        median(&per_run)
    }
}

/// One span the benchmark recorded around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// The operation that caused the call; spans of one operation share
    /// it.
    pub op: u64,
    /// Layer call, e.g. `server.lookup`.
    pub name: &'static str,
    /// Wall time of the call.
    pub duration: Duration,
}

/// The benchmark's span recorder, kept in memory until the run ends.
/// Disabled, it records nothing: the untraced run keeps no spans.
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records a finished span.
    pub fn record(&mut self, op: u64, name: &'static str, duration: Duration) {
        if self.enabled {
            self.spans.push(Span { op, name, duration });
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(op, name, start.elapsed());
        out
    }

    /// Durations, in milliseconds, of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.duration))
            .collect()
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// One line per span name: spans, operations they cover, median
    /// and total milliseconds.
    pub fn summary(&self) -> String {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                let spans: Vec<&Span> = self.spans.iter().filter(|s| s.name == name).collect();
                let mut ops: Vec<u64> = spans.iter().map(|s| s.op).collect();
                ops.sort_unstable();
                ops.dedup();
                let durations = self.durations_ms(name);
                format!(
                    "span {name}: {} spans over {} ops, p50 {:.4} ms, total {:.1} ms\n",
                    spans.len(),
                    ops.len(),
                    median(&durations),
                    durations.iter().sum::<f64>()
                )
            })
            .collect()
    }
}

/// A registry histogram's observations between two snapshots.
pub fn histogram_delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
) -> HistogramSnapshot {
    let mut delta = after
        .histogram(name)
        .cloned()
        .unwrap_or_else(|| HistogramSnapshot::empty(name));
    if let Some(old) = before.histogram(name) {
        delta.count -= old.count;
        delta.sum = delta.sum.wrapping_sub(old.sum);
        for (now, then) in delta.buckets.iter_mut().zip(&old.buckets) {
            *now -= then;
        }
    }
    delta
}

/// A registry counter's growth between two snapshots.
pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let now = after.counter(name).unwrap_or(0);
    let then = before.counter(name).unwrap_or(0);
    now.saturating_sub(then) as f64
}

/// Nanoseconds to milliseconds.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Named metrics with units, in a stable order.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Metrics {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.insert(name, (value, unit));
    }

    /// Keeps exactly the metrics `reported` names; one a run did not
    /// measure (its layer was not exercised) reads 0.
    pub fn restrict(&mut self, reported: &[(&'static str, &'static str)]) {
        self.values = reported
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).map_or(0.0, |&(v, _)| v);
                (name, (value, unit))
            })
            .collect();
    }

    /// Moves every metric of `other` into this set.
    pub fn extend(&mut self, other: Metrics) {
        self.values.extend(other.values);
    }

    /// Looks one metric up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 50.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_percentile_ignores_one_bad_run() {
        let mut latencies = Latencies::default();
        for i in 0..5_000u64 {
            // The third thousand operations are ten times slower.
            let took = if i / 1_000 == 2 { 10 } else { 1 };
            latencies.push(Duration::from_millis(i), Duration::from_millis(took));
        }
        assert_eq!(latencies.p99(), 1.0);
        assert_eq!(latencies.p50(), 1.0);
        // Too few samples for ten runs: the p99 of all of them.
        let mut few = Latencies::default();
        for i in 0..2_000u64 {
            few.push(Duration::from_millis(i), Duration::from_millis(1 + i % 100));
        }
        assert_eq!(few.p99(), 99.0);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut tracer = Tracer::new(false);
        let value = tracer.time(1, "x", || 7);
        assert_eq!(value, 7);
        assert!(tracer.summary().is_empty());
        let mut tracer = Tracer::new(true);
        tracer.time(1, "x", || ());
        tracer.time(1, "x", || ());
        assert_eq!(tracer.durations_ms("x").len(), 2);
        assert!(tracer.summary().starts_with("span x: 2 spans over 1 ops"));
    }

    #[test]
    fn result_line_prints_every_digit() {
        let mut metrics = Metrics::default();
        metrics.set("latency_ms", 1.203_456_789, "ms");
        let line = result_line(true, 10, 0, &metrics);
        assert!(line.contains("\"latency_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
    }
}
