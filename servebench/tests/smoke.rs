//! A short run of every workload on shrunken datasets, untraced and
//! traced: every metric `BENCHMARK.json` names is emitted with its unit,
//! no request fails, and every output check passes. This checks the
//! plumbing, not performance.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("servebench sits inside the repository")
        .to_path_buf()
}

fn parse(text: &str) -> Value {
    serde_json::from_str_value(text).unwrap_or_else(|e| panic!("not JSON ({e:?}): {text}"))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get_field(key)
        .unwrap_or_else(|| panic!("no {key:?} in {v:?}"))
}

/// `(name, unit)` of every metric in one table of `BENCHMARK.json`.
fn declared(table: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let Value::Array(metrics) = field(&parse(&text), table).clone() else {
        panic!("{table} is not a list");
    };
    metrics
        .iter()
        .map(|m| {
            let s = |k| field(m, k).as_str().expect("a string").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn smoke(workload: &str) {
    for (trace, table) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
            .current_dir(repo_root())
            .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
            .args(["--trace", trace, "--smoke"])
            .output()
            .expect("run servebench");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        // The metric names are checked before the verdict, so that a run
        // whose output check fails still shows whether it emits them all.
        let last = stdout.lines().last().unwrap_or_default();
        assert!(
            last.starts_with("{\"correct\""),
            "{workload} --trace {trace} printed no result:\n{stdout}\n{stderr}"
        );
        let result = parse(last);
        let Value::Object(metrics) = field(&result, "metrics") else {
            panic!("metrics is not an object: {stdout}");
        };
        let emitted: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(field(m, "value").as_f64().is_some(), "{name} has no value");
                (
                    name.clone(),
                    field(m, "unit").as_str().expect("a unit").to_string(),
                )
            })
            .collect();
        assert_eq!(emitted, declared(table), "{workload} --trace {trace}");
        assert!(
            matches!(field(&result, "correct"), Value::Bool(true)),
            "{workload} --trace {trace} output check failed:\n{stdout}\n{stderr}"
        );
        assert!(out.status.success(), "{stdout}\n{stderr}");
        assert!(field(&result, "attempted").as_u64().expect("a count") > 0);
        assert_eq!(field(&result, "failed").as_u64(), Some(0), "{stdout}");
    }
}

#[test]
fn answer_hot() {
    smoke("answer-hot");
}

#[test]
fn answer_cold() {
    smoke("answer-cold");
}

#[test]
fn live_mixed() {
    smoke("live-mixed");
}

#[test]
fn scale_scorer() {
    smoke("scale-scorer");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "answer-hot", "--seed", "1", "--seconds", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
            .current_dir(repo_root())
            .args(args)
            .output()
            .expect("run servebench");
        assert!(!out.status.success(), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
