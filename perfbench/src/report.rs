//! Metric definitions, statistics, the machine block and JSON output.

use std::fmt::Write as _;

/// Whether a metric gates a change (end to end) or explains one (layer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    EndToEnd,
    Layer,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub scope: Scope,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        scope: Scope::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        scope: Scope::Layer,
    }
}

/// Every metric of the final result line.  `BENCHMARK.json` lists the same
/// names and units; NOTES.md says which end-to-end metric and workload
/// each layer metric should move.
pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s", "lower"),
    e2e("jobs_per_ref_cpu_s", "1/s", "higher"),
    e2e("job_ref_cpu_p50_ms", "ms", "lower"),
    e2e("job_ref_cpu_tail_ms", "ms", "lower"),
    layer("circuit.qasm.parse_ms", "ms", "lower"),
    layer("core.engine.apply_ms", "ms", "lower"),
    layer("core.engine.gates", "count", "lower"),
    layer("core.engine.composition_gates", "count", "lower"),
    layer("core.engine.reductions", "count", "lower"),
    layer("core.engine.peak_states", "count", "lower"),
    layer("core.engine.peak_transitions", "count", "lower"),
    layer("treeaut.inclusion_ms", "ms", "lower"),
    layer("treeaut.certificate.build_ms", "ms", "lower"),
    layer("treeaut.certificate.bytes", "bytes", "lower"),
    layer("certify.check_ms", "ms", "lower"),
    layer("core.hunt.ms", "ms", "lower"),
    layer("core.hunt.iterations", "count", "lower"),
    layer("simulator.confirm_ms", "ms", "lower"),
    layer("simulator.confirmed", "count", "higher"),
    layer("treeaut.format.encode_ms", "ms", "lower"),
    layer("treeaut.format.witness_bytes", "bytes", "lower"),
    layer("amplitude.intern.hit_ratio", "ratio", "higher"),
    layer("amplitude.intern.distinct", "count", "lower"),
    layer("treeaut.arena.live_nodes_per_job", "count", "lower"),
    layer("bigint.heap_spills", "count", "lower"),
    layer("daemon.client.admit_ms", "ms", "lower"),
    layer("daemon.client.run_ms", "ms", "lower"),
    layer("daemon.cache.hit_ratio", "ratio", "higher"),
    layer("daemon.server.rejected", "count", "lower"),
    layer("daemon.server.exhausted", "count", "lower"),
    layer("daemon.server.certified", "count", "higher"),
    layer("daemon.store.journal_bytes", "bytes", "lower"),
    layer("daemon.store.snapshot_bytes", "bytes", "lower"),
    layer("trace.span_coverage", "ratio", "higher"),
    layer("trace.overhead_share", "ratio", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    METRICS
        .iter()
        .find(|metric| metric.name == name)
        .map(|metric| metric.unit)
        .unwrap_or_else(|| panic!("metric {name} is not defined"))
}

/// A metric name: a letter or digit, then letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `percentile`-th sample (nearest rank), lowered to the highest
/// percentile that still has at least ten samples beyond it when there are
/// too few samples.  Returns `(value, percentile used, samples)`.
///
/// A workload fixes its percentile so that runs of different length report
/// the same statistic; it is chosen so every run has at least ten samples
/// beyond it.
pub fn tail(values: &[f64], percentile: f64) -> (f64, f64, usize) {
    let n = values.len();
    if n == 0 {
        return (0.0, percentile, 0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut rank = ((percentile / 100.0) * n as f64).ceil() as usize;
    let mut used = percentile;
    if n - rank.min(n) < 10 {
        rank = n.saturating_sub(10).max(n.div_ceil(2));
        used = 100.0 * rank as f64 / n as f64;
    }
    (sorted[rank.clamp(1, n) - 1], used, n)
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Steal and total CPU ticks of the whole machine (the first line of
/// `/proc/stat`): on a VM, steal is time the host ran something else.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// `nproc`, CPU model, compiler, source revision and the engine default
/// that depends on the machine.
pub fn machine_block() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", rustc),
        ("git_sha", git_sha()),
        (
            "default_eval_threads",
            crate::adapter::default_eval_threads().to_string(),
        ),
    ]
}

/// The checked-out commit, read from `.git` in the working directory
/// (`none` outside a git checkout).
fn git_sha() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON string literal.
pub fn json_str(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (non-finite values become `null`).
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// The final line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            assert!(valid_name(name), "invalid metric name {name}");
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit_of(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        for (i, metric) in METRICS.iter().enumerate() {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(METRICS[..i].iter().all(|m| m.name != metric.name));
        }
        assert!(!valid_name("_x") && !valid_name("a b") && valid_name("a.b-c_d"));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&values, 90.0), (180.0, 90.0, 200));
        // 50 samples: p90 would leave 5 beyond, so it drops to p80.
        let (value, percentile, _) = tail(&values[..50], 90.0);
        assert_eq!((value, percentile), (40.0, 80.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0], 90.0), (2.0, 200.0 / 3.0, 3));
    }
}
