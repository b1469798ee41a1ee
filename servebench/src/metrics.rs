//! Every metric the benchmark reports, with its unit, and the result
//! line. `BENCHMARK.json` at the repository root lists the same names;
//! the smoke test holds the two together.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs), as a user of the stack sees them.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("rss_mb", "MiB")];

/// Figures a user also sees, but too unsteady from run to run on a
/// shared 2-core VM to hold a regression bound. The whole VM slows by up
/// to 2x for minutes at a time, with little CPU steal showing; ten runs
/// of any latency or throughput of this stack then spread by more than
/// a quarter of their median, and 0.25 is the widest bound a metric may
/// have. Every run measures them; the untraced run prints them in its
/// log, traced runs report them ahead of the per-layer metrics.
pub const UNBOUNDED: &[(&str, &str)] = &[
    ("answer_p50_ms", "ms"),
    ("answer_p99_ms", "ms"),
    ("answer_qps", "1/s"),
    ("batch_qps", "1/s"),
    ("retrieve_p50_ms", "ms"),
    ("retrieve_p99_ms", "ms"),
    ("mutate_p50_ms", "ms"),
    ("mutate_p99_ms", "ms"),
    ("mutate_batches_per_s", "1/s"),
    ("follower_lag_p50_ms", "ms"),
    ("follower_lag_p99_ms", "ms"),
];

/// Per-layer metrics (traced runs, after [`UNBOUNDED`]). A layer that is
/// not on a workload's path (the beam on the scorer tier, the shards on
/// the MMKGR tier) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("http.healthz_rtt_us", "us"),
    ("http.wire_us", "us"),
    ("http.connects_per_req", "count"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.resp_bytes", "bytes"),
    ("registry.answer_us", "us"),
    ("registry.self_us", "us"),
    ("serve.answer_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("pool.batch_us_per_query", "us"),
    ("beam.run_us", "us"),
    ("beam.self_us", "us"),
    ("beam.edges_scanned", "count"),
    ("beam.frontier_len", "count"),
    ("policy.forward_us", "us"),
    ("policy.calls", "count"),
    ("policy.rows_per_call", "count"),
    ("retrieve.total_us", "us"),
    ("retrieve.subgraph_us", "us"),
    ("retrieve.mmr_us", "us"),
    ("retrieve.entities", "count"),
    ("retrieve.paths", "count"),
    ("mutation.apply_us", "us"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("mutation.compact_ms", "ms"),
    ("mutation.compactions", "count"),
    ("mutation.epoch_lag", "count"),
    ("replication.bootstrap_ms", "ms"),
    ("replication.lag_seq", "count"),
    ("replication.lag_sample_us", "us"),
    ("replication.frames_shipped", "count"),
    ("replication.reconnects", "count"),
    ("snapshot.open_ms", "ms"),
    ("snapshot.graph_ms", "ms"),
    ("snapshot.crc_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("sharded.answer_us", "us"),
    ("scorer.answer_us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.failed_frac", "ratio"),
    ("trace.answer_remainder_ms", "ms"),
    ("trace.retrieve_remainder_ms", "ms"),
    ("trace.mutate_remainder_ms", "ms"),
    ("trace.overhead_us", "us"),
    ("trace.span_cost_us", "us"),
];

/// The last line a run prints.
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    /// Pick `table`'s metrics out of `values`; a missing or non-finite
    /// value is a bug in this benchmark.
    pub fn new(
        correct: bool,
        attempted: usize,
        failed: usize,
        table: &[(&'static str, &'static str)],
        values: &BTreeMap<&'static str, f64>,
    ) -> Result<RunResult, String> {
        let metrics = table
            .iter()
            .map(|&(name, unit)| match values.get(name) {
                Some(&v) if v.is_finite() => Ok((name, unit, v)),
                Some(v) => Err(format!("metric {name} is not finite: {v}")),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect::<Result<_, _>>()?;
        Ok(RunResult {
            correct,
            attempted: attempted.max(1),
            failed,
            metrics,
        })
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| format!(r#""{name}": {{"value": {v:?}, "unit": "{unit}"}}"#))
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(UNBOUNDED).chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let values: BTreeMap<&str, f64> = [("a", 1.5), ("b", 2.0)].into_iter().collect();
        let r = RunResult::new(true, 3, 0, &[("a", "ms"), ("b", "s")], &values).unwrap();
        let v: serde::Value = serde_json::from_str_value(&r.to_json()).unwrap();
        let text = serde_json::to_string(&v).unwrap();
        assert!(
            text.contains("\"correct\"") && text.contains("1.5"),
            "{text}"
        );
        assert!(RunResult::new(true, 1, 0, &[("c", "ms")], &values).is_err());
    }
}
