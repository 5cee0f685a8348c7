//! The metric tables (mirrored by `/BENCHMARK.json`; a unit test keeps
//! the two in step), the percentile rule, and the order statistics
//! `--repeat` / `--compare` print.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric. `bound` is the share of the median by which an
/// end-to-end metric may worsen; per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these; leg A / leg B are defined per workload in the README.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("tps", "1/s", Higher, 0.25),
    e2e("tps_b", "1/s", Higher, 0.25),
    e2e("lat_p50_ms", "ms", Lower, 0.25),
    e2e("lat_p95_ms", "ms", Lower, 0.25),
    e2e("lat_b_p50_ms", "ms", Lower, 0.25),
    e2e("rss_mb", "MB", Lower, 0.10),
];

/// Single-layer numbers from the traced run: the workload's own
/// transactions sent through every layer of the stack in turn.
pub const PER_LAYER: &[MetricDef] = &[
    layer("symexec.explore_s", "s", Lower),
    layer("symexec.profile_bytes", "count", Lower),
    layer("symexec.predict_us_per_tx", "us", Lower),
    layer("symexec.predict_us_slowest", "us", Lower),
    layer("symexec.overapprox_ratio", "ratio", Lower),
    layer("core.prepare_call_us", "us", Lower),
    layer("core.execute_call_us", "us", Lower),
    layer("core.predict_us", "us", Lower),
    layer("core.queue_us", "us", Lower),
    layer("core.execute_us", "us", Lower),
    layer("core.commit_us", "us", Lower),
    layer("core.apply_us", "us", Lower),
    layer("core.overlap_us", "us", Higher),
    layer("core.lock_waits", "count", Lower),
    layer("core.contended_keys", "count", Lower),
    layer("core.lock_fresh_allocs", "count", Lower),
    layer("core.rounds", "count", Lower),
    layer("core.retry_pct", "%", Lower),
    layer("core.reexec_us_per_tx", "us", Lower),
    layer("core.dep_prepare_us", "us", Lower),
    layer("core.batch_p50_ms", "ms", Lower),
    layer("core.batch_p95_ms", "ms", Lower),
    layer("core.tx_lat_p50_us", "us", Lower),
    layer("core.tx_lat_p99_us", "us", Lower),
    layer("core.cross_shard_ratio", "ratio", Lower),
    layer("core.shard_exec_imbalance", "ratio", Lower),
    layer("core.stream_tps", "1/s", Higher),
    layer("core.stream_tps_shards4", "1/s", Higher),
    layer("core.seq_tps", "1/s", Higher),
    layer("txir.interp_us_per_tx", "us", Lower),
    layer("storage.get_ns", "ns", Lower),
    layer("storage.put_ns", "ns", Lower),
    layer("storage.gc_us", "us", Lower),
    layer("storage.digest_ms", "ms", Lower),
    layer("storage.keys", "count", Lower),
    layer("storage.versions_per_key", "ratio", Lower),
    layer("storage.gc_versions_removed", "count", Higher),
    layer("consensus.propose_p50_ms", "ms", Lower),
    layer("consensus.propose_p95_ms", "ms", Lower),
    layer("consensus.follower_lag_ms", "ms", Lower),
    layer("consensus.wal_fsyncs_per_batch", "ratio", Lower),
    layer("consensus.wal_appends_per_batch", "ratio", Lower),
    layer("consensus.wal_bytes_per_tx", "ratio", Lower),
    layer("consensus.wal_append_fsync_us", "us", Lower),
    layer("consensus.batch_fill", "ratio", Higher),
    layer("consensus.elections", "count", Lower),
    layer("pipeline.tps", "1/s", Higher),
    layer("pipeline.commit_p50_ms", "ms", Lower),
    layer("pipeline.commit_p95_ms", "ms", Lower),
    layer("pipeline.submit_us_per_tx", "us", Lower),
    layer("pipeline.flush_p50_ms", "ms", Lower),
    layer("pipeline.sync_p50_ms", "ms", Lower),
    layer("pipeline.sync_p95_ms", "ms", Lower),
    layer("pipeline.apply_us_per_batch", "us", Lower),
    layer("pipeline.single_node_commit_p50_ms", "ms", Lower),
    layer("pipeline.recovery_ms", "ms", Lower),
    layer("pipeline.recovery_replay_ms", "ms", Lower),
    layer("pipeline.consensus_retries", "count", Lower),
    layer("pipeline.shed_requests", "count", Lower),
    layer("client.retries", "count", Lower),
    layer("server.wire_encode_ns", "ns", Lower),
    layer("server.wire_decode_ns", "ns", Lower),
    layer("server.rtt_idle_p50_ms", "ms", Lower),
    layer("server.lat_p50_ms", "ms", Lower),
    layer("server.lat_p95_ms", "ms", Lower),
    layer("server.lat_p99_ms", "ms", Lower),
    layer("server.lat_max_ms", "ms", Lower),
    layer("server.wire_rejects", "count", Lower),
    layer("server.dropped_responses", "count", Lower),
    layer("server.engine_unresolved", "count", Lower),
    layer("server.evicted_clients", "count", Lower),
    layer("loadgen.late_p99_ms", "ms", Lower),
    layer("loadgen.achieved_rps_pct", "%", Higher),
    layer("proc.cpu_ms_per_ktx", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.self_time_cover_pct", "%", Higher),
    layer("failed_pct", "%", Lower),
];

#[cfg(test)]
pub fn is_valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are never NaN"));
    values
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

const PERCENTILES: &[(f64, &str)] = &[
    (0.5, "p50"),
    (0.9, "p90"),
    (0.95, "p95"),
    (0.99, "p99"),
    (0.999, "p99.9"),
];

/// The highest percentile that still has at least ten samples beyond it.
pub fn highest_supported(n: usize) -> Option<(f64, &'static str)> {
    PERCENTILES
        .iter()
        .rev()
        .find(|(p, _)| n as f64 * (1.0 - p) >= 10.0)
        .copied()
}

/// Whether `n` samples support reporting percentile `p` by that rule.
pub fn supports(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p) >= 10.0
}

/// "median, highest supported percentile, n" of a timing, for the report.
pub fn describe(samples: &[f64], unit: &str) -> String {
    if samples.is_empty() {
        return "no samples".into();
    }
    let s = sorted(samples.to_vec());
    let mut out = format!("median {:.3} {unit}", percentile(&s, 0.5));
    if let Some((p, label)) = highest_supported(s.len()).filter(|(p, _)| *p > 0.5) {
        out.push_str(&format!(", {label} {:.3} {unit}", percentile(&s, p)));
    }
    out.push_str(&format!(", n={}", s.len()));
    out
}

/// Quartile cut points as Python's `statistics.quantiles(values, n=4)`
/// gives them (the default exclusive method), so the spreads printed here
/// are the ones the driver computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Splits time-ordered samples into `n` consecutive groups of equal size.
pub fn quarters(samples: &[f64], n: usize) -> Vec<Vec<f64>> {
    let size = samples.len().div_ceil(n).max(1);
    samples.chunks(size).map(<[f64]>::to_vec).collect()
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let q = quartiles(values);
    (q[2] - q[0]) / q[1]
}

/// By what share of `base` the value `new` is worse (negative = better).
pub fn worse_by(def: &MetricDef, base: f64, new: f64) -> f64 {
    match def.better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(9), None);
        assert_eq!(highest_supported(20).unwrap().1, "p50");
        assert_eq!(highest_supported(199).unwrap().1, "p90");
        assert_eq!(highest_supported(200).unwrap().1, "p95");
        assert_eq!(highest_supported(999).unwrap().1, "p95");
        assert_eq!(highest_supported(1000).unwrap().1, "p99");
        assert_eq!(highest_supported(10_000).unwrap().1, "p99.9");
        assert!(supports(200, 0.95) && !supports(199, 0.95));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_valid_name(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.unit.len() <= 16);
        }
        for crate::inputs::Spec { name, why, .. } in crate::inputs::SPECS {
            assert!(is_valid_name(name));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(!is_valid_name("") && !is_valid_name(".x") && !is_valid_name("a b"));
    }

    #[test]
    fn worse_by_respects_direction() {
        let lower = &MetricDef {
            name: "x_ms",
            unit: "ms",
            better: Lower,
            bound: 0.1,
        };
        let higher = &MetricDef {
            name: "x_tps",
            unit: "1/s",
            better: Higher,
            bound: 0.1,
        };
        assert!((worse_by(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(higher, 10.0, 12.0) < 0.0);
    }
}
