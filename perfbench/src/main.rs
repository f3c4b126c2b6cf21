//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <conf_search|shard_read|shard_write> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its workload's deployment from the seed (several
//! times, to time set-up), drives it in a closed loop through the public
//! API for `--seconds`, checks the answers, and prints one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run splits its
//! `--seconds` between untraced measurement and measurement with the
//! benchmark's spans on, and reports the per-layer metrics plus the
//! tracing overhead. See `perfbench/README.md`
//! for the workloads and the metric-to-layer table.

mod conf;
mod inputs;
mod measure;
mod shard;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::Metrics;

/// How one run is configured.
pub struct RunOptions {
    /// Input sizes; `None` takes the workload's own.
    pub scale: Option<inputs::Scale>,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of each timed phase.
    pub seconds: f64,
    /// Measure once more with spans on and report per-layer metrics.
    pub trace: bool,
    /// Where segmented stores live during the run (removed afterwards).
    pub data_dir: PathBuf,
}

/// What one run produced.
#[derive(Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Named metrics with units.
    pub metrics: Metrics,
    /// The first failed check, if any.
    pub problem: Option<String>,
}

impl Outcome {
    /// Marks the run incorrect.
    pub fn fail(mut self, problem: String) -> Self {
        self.correct = false;
        self.problem = Some(problem);
        self
    }
}

/// The end-to-end metrics every `--trace 0` run reports, with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("ops_s", "ops/s"),
    ("wire_kb_per_op", "KB"),
    ("rss_mb", "MB"),
];

/// The per-layer metrics every `--trace 1` run reports, with units. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("client.fetch_ms.p50", "ms"),
    ("client.fetch_ms.p99", "ms"),
    ("server.lookup_ms.p50", "ms"),
    ("net.codec_ms.p50", "ms"),
    ("field.reconstruct_ms.p50", "ms"),
    ("core.decode_elems_per_ms", "1/ms"),
    ("client.rank_ms.p50", "ms"),
    ("client.elements_per_query", "count"),
    ("client.useful_element_ratio", "ratio"),
    ("shamir.split_ms_per_doc", "ms"),
    ("server.insert_ms_per_doc", "ms"),
    ("server.delete_ms_per_doc", "ms"),
    ("runtime.fanout_ms.p50", "ms"),
    ("runtime.fanout_ms.p99", "ms"),
    ("runtime.wire_queue_ms.p50", "ms"),
    ("runtime.wire_queue_ms.p99", "ms"),
    ("runtime.gather_ms.p50", "ms"),
    ("runtime.gather_useful_ratio", "ratio"),
    ("runtime.hedges_per_query", "count"),
    ("runtime.duplicates_per_query", "count"),
    ("runtime.failed_attempts_per_query", "count"),
    ("query.eval_ms.terms.p99", "ms"),
    ("query.eval_ms.and.p99", "ms"),
    ("query.eval_ms.phrase.p99", "ms"),
    ("postings.blocks_decoded_per_query", "count"),
    ("postings.block_skip_ratio", "ratio"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions_per_kquery", "count"),
    ("cache.hit_ms.p50", "ms"),
    ("runtime.epoch_bumps_per_write", "count"),
    ("segment.wal_append_ms.p99", "ms"),
    ("segment.wal_fsync_ms.p50", "ms"),
    ("segment.wal_fsync_ms.p99", "ms"),
    ("segment.flushes", "count"),
    ("segment.flush_ms.p99", "ms"),
    ("segment.compactions", "count"),
    ("segment.compaction_ms.total", "ms"),
    ("segment.segments.max", "count"),
    ("segment.disk_bytes_per_posting", "B"),
    ("runtime.setup_probe_failures", "count"),
    ("error_rate", "ratio"),
    ("trace_overhead.query_p50_ms", "ms"),
    ("trace_overhead.query_p99_ms", "ms"),
    ("trace_overhead.write_p50_ms", "ms"),
    ("trace_overhead.write_p99_ms", "ms"),
    ("trace_overhead.ops_s", "ops/s"),
    ("trace_overhead.wire_kb_per_op", "KB"),
];

/// End-to-end metrics whose traced-minus-untraced difference is the
/// tracing overhead.
const OVERHEAD_OF: [(&str, &str, &str); 6] = [
    ("query_p50_ms", "trace_overhead.query_p50_ms", "ms"),
    ("query_p99_ms", "trace_overhead.query_p99_ms", "ms"),
    ("write_p50_ms", "trace_overhead.write_p50_ms", "ms"),
    ("write_p99_ms", "trace_overhead.write_p99_ms", "ms"),
    ("ops_s", "trace_overhead.ops_s", "ops/s"),
    ("wire_kb_per_op", "trace_overhead.wire_kb_per_op", "KB"),
];

/// Records the tracing overhead: traced minus untraced values.
pub fn overhead(metrics: &mut Metrics, untraced: &Metrics, traced: &Metrics) {
    for (base, name, unit) in OVERHEAD_OF {
        let delta = traced.get(base).unwrap_or(0.0) - untraced.get(base).unwrap_or(0.0);
        metrics.set(name, delta, unit);
    }
}

/// Reports on stderr how far a run has come.
pub fn progress(stage: &str, since: std::time::Instant) {
    eprintln!(
        "perfbench: {stage} done at {:.1} s",
        since.elapsed().as_secs_f64()
    );
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["conf_search", "shard_read", "shard_write"];

/// Runs one workload.
pub fn run(workload: &str, opts: &RunOptions) -> Option<Outcome> {
    match workload {
        "conf_search" => Some(conf::run(opts)),
        "shard_read" => Some(shard::run(opts, shard::Mode::Read)),
        "shard_write" => Some(shard::run(opts, shard::Mode::Write)),
        _ => None,
    }
}

fn parse(args: &[String]) -> Result<(String, RunOptions), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let data_dir = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(".perfbench_data")
        .join(format!("{workload}-{}", std::process::id()));
    Ok((
        workload,
        RunOptions {
            scale: None,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            data_dir,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = run(&workload, &opts).expect("workload names are validated");
    let reported: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    outcome.metrics.restrict(reported);
    if let Some(problem) = &outcome.problem {
        eprintln!("perfbench: correctness check failed: {problem}");
    }
    println!(
        "{}",
        measure::result_line(
            outcome.correct,
            outcome.attempted.max(1),
            outcome.failed,
            &outcome.metrics
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(name), "{name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names repeat");
    }

    #[test]
    fn benchmark_json_names_exactly_these_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = json.matches("\"name\":").count();
        assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for name in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} [{unit}]");
        }
    }

    #[test]
    fn every_workload_passes_its_checks_at_tiny_scale() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let opts = RunOptions {
                    scale: Some(inputs::Scale::tiny()),
                    seed: 3,
                    seconds: 0.4,
                    trace,
                    data_dir: std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                        .join(".perfbench_data")
                        .join(format!("test-{workload}-{trace}")),
                };
                let mut outcome = run(workload, &opts).expect("known workload");
                assert!(
                    outcome.correct,
                    "{workload} trace={trace}: {:?}",
                    outcome.problem
                );
                assert!(outcome.attempted > 0);
                assert_eq!(outcome.failed, 0, "{workload} trace={trace}");
                assert!(!opts.data_dir.exists(), "{workload} left its stores behind");
                let reported: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                outcome.metrics.restrict(reported);
                let line = measure::result_line(true, 1, 0, &outcome.metrics);
                for (name, _) in reported {
                    assert!(
                        line.contains(&format!("\"{name}\": ")),
                        "{workload}: {name}"
                    );
                }
            }
        }
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse(&args(
            "--workload shard_write --seed 1 --seconds 2 --trace 1"
        ))
        .is_ok());
        assert!(parse(&args(
            "--workload shard_read --seed 1 --seconds 2 --trace 0"
        ))
        .is_ok());
        assert!(parse(&args("--workload nope --seed 1 --seconds 2 --trace 0")).is_err());
        assert!(parse(&args(
            "--workload shard_write --seed x --seconds 2 --trace 0"
        ))
        .is_err());
        assert!(parse(&args(
            "--workload shard_write --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse(&args(
            "--workload shard_write --seed 1 --seconds 2 --trace 2"
        ))
        .is_err());
        assert!(parse(&args("--workload shard_write --seconds 2")).is_err());
        assert!(parse(&args("--bogus 1")).is_err());
    }
}
