//! The benchmark's self-test at tiny size: every workload emits exactly the
//! metrics `BENCHMARK.json` declares, each with its unit and a valid name,
//! and a planted wrong expected verdict makes the run fail.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "verify-spec",
    "hunt-superposing",
    "hunt-reversible",
    "daemon-mixed",
];

/// `(scope, name, unit, better)` from `perfbench --list-metrics`.
fn metric_table() -> Vec<(String, String, String, String)> {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--list-metrics")
        .output()
        .expect("perfbench runs");
    assert!(output.status.success());
    String::from_utf8(output.stdout)
        .expect("utf-8")
        .lines()
        .map(|line| {
            let words: Vec<&str> = line.split(' ').collect();
            assert_eq!(words.len(), 4, "bad metric line `{line}`");
            (
                words[0].to_string(),
                words[1].to_string(),
                words[2].to_string(),
                words[3].to_string(),
            )
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Runs the benchmark and returns its last output line.
fn run(workload: &str, trace: u8, extra: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .args(extra)
        .output()
        .expect("perfbench runs");
    assert!(
        output.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn benchmark_json_declares_the_emitted_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let per_layer_at = json.find("\"per_layer\"").expect("per_layer section");
    let end_to_end_at = json.find("\"end_to_end\"").expect("end_to_end section");
    assert!(
        end_to_end_at < per_layer_at,
        "end_to_end comes before per_layer"
    );
    let table = metric_table();
    for (scope, name, unit, better) in &table {
        assert!(valid_name(name), "invalid metric name {name}");
        let entry_at = json
            .find(&format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\""
            ))
            .unwrap_or_else(|| panic!("{name} ({unit}, {better}) missing from BENCHMARK.json"));
        let in_end_to_end = end_to_end_at < entry_at && entry_at < per_layer_at;
        match scope.as_str() {
            "end_to_end" => assert!(in_end_to_end, "{name} should be end to end"),
            _ => assert!(entry_at > per_layer_at, "{name} should be per layer"),
        }
    }
    assert_eq!(
        json.matches("{\"name\": ").count() - WORKLOADS.len(),
        table.len()
    );
    for workload in WORKLOADS {
        assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let table = metric_table();
    for workload in WORKLOADS {
        for trace in [0u8, 1] {
            let line = run(workload, trace, &[]);
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{workload}: {line}"
            );
            let scope = if trace == 0 {
                "end_to_end"
            } else {
                "per_layer"
            };
            let expected: Vec<_> = table.iter().filter(|m| m.0 == scope).collect();
            assert_eq!(
                line.matches("\"value\": ").count(),
                expected.len(),
                "{line}"
            );
            for (_, name, unit, _) in expected {
                let prefix = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&prefix)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing in {line}"));
                let rest = &line[at + prefix.len()..];
                let (value, rest) = rest.split_once(", ").expect("value then unit");
                assert!(value.parse::<f64>().is_ok(), "{name} = {value}");
                assert!(
                    rest.starts_with(&format!("\"unit\": \"{unit}\"}}")),
                    "{name}: {rest}"
                );
            }
        }
    }
}

#[test]
fn a_planted_wrong_verdict_fails_the_run() {
    for workload in WORKLOADS {
        let line = run(workload, 0, &["--plant-wrong"]);
        assert!(
            line.starts_with("{\"correct\": false, "),
            "{workload}: {line}"
        );
    }
}

#[test]
fn bad_arguments_are_refused() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("perfbench runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
