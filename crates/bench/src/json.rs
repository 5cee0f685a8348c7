//! Hand-rolled JSON rendering for benchmark result snapshots.
//!
//! The harness writes each figure's numbers to `results/BENCH_<fig>.json`
//! so a change shows up as a `git diff` — the robustness counters
//! (deterministic aborts, abort-retry events) next to the throughput
//! figures. Nothing reads the files back, so this is a serializer only:
//! just enough JSON to emit objects, arrays, strings and numbers with
//! correct escaping (the container has no `serde_json`; testkit builds its
//! reproducer artifacts with it too).

use crate::RunResult;
use std::io::Write;
use std::path::Path;

/// A JSON value tree, rendered with [`Json::render`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact rather than going through `f64`).
    Int(i64),
    /// A float; non-finite values render as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object members.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Renders the tree as pretty-printed JSON (2-space indent, trailing
    /// newline) — stable output, suitable for committed snapshots.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_value(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_value(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(n) => {
                if n.is_finite() {
                    // Rust's shortest-roundtrip float formatting; force a
                    // decimal point so the value re-parses as a float.
                    let s = n.to_string();
                    out.push_str(&s);
                    if !s.contains('.') && !s.contains('e') {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.write_value(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_value(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One measured operating point as a JSON object. Every duration is
/// virtual time; `aborted` counts deterministic per-transaction aborts
/// (final, replicated verdicts) and `abort_retries` the abort-and-retry
/// events (validation failures that re-executed).
pub fn run_result_json(system: &str, r: &RunResult) -> Json {
    Json::obj(vec![
        ("system", Json::Str(system.to_owned())),
        ("sustainable", Json::Bool(r.sustainable)),
        ("batch_size", Json::Int(r.batch_size as i64)),
        ("throughput_tps", Json::Num(r.throughput_tps)),
        ("committed", Json::Int(r.committed as i64)),
        ("aborted", Json::Int(r.aborted as i64)),
        ("abort_retries", Json::Int(r.abort_retries as i64)),
        ("abort_pct", Json::Num(r.abort_pct)),
        ("p99_ms", Json::Num(r.p99_ms)),
        ("prepare_us", Json::Num(r.prepare_us)),
        ("reexec_us", Json::Num(r.reexec_us)),
        // Per-stage mean batch times (µs): the batch lifecycle split of
        // DESIGN.md §3.4.1. `overlap_us` is how much of `predict_us` hid
        // behind the previous batch's execution (prepare-ahead).
        ("predict_us", Json::Num(r.predict_us)),
        ("queue_us", Json::Num(r.queue_us)),
        ("execute_us", Json::Num(r.execute_us)),
        ("commit_us", Json::Num(r.commit_us)),
        ("overlap_us", Json::Num(r.overlap_us)),
        ("lock_waits", Json::Int(r.lock_waits as i64)),
        ("lock_contended_keys", Json::Int(r.lock_contended_keys as i64)),
        (
            "stage_hists",
            Json::Arr(
                r.stage_hists
                    .iter()
                    .map(|h| {
                        Json::obj(vec![
                            ("stage", Json::Str(h.stage.clone())),
                            ("p50_us", Json::Int(h.p50_us as i64)),
                            ("p95_us", Json::Int(h.p95_us as i64)),
                            ("p99_us", Json::Int(h.p99_us as i64)),
                            ("max_us", Json::Int(h.max_us as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Assembles a whole exhibit snapshot: one group per operating condition
/// (e.g. a warehouse count), each holding the per-system results.
pub fn snapshot_json(exhibit: &str, groups: &[(String, Vec<(String, RunResult)>)]) -> Json {
    Json::obj(vec![
        ("time", Json::Str("virtual".to_owned())),
        ("exhibit", Json::Str(exhibit.to_owned())),
        (
            "groups",
            Json::Arr(
                groups
                    .iter()
                    .map(|(label, rows)| {
                        Json::obj(vec![
                            ("label", Json::Str(label.clone())),
                            (
                                "results",
                                Json::Arr(
                                    rows.iter()
                                        .map(|(sys, r)| run_result_json(sys, r))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Writes a snapshot to `results/BENCH_<exhibit>.json` (creating the
/// directory if needed) and returns the path written.
pub fn write_snapshot(exhibit: &str, json: &Json) -> std::io::Result<std::path::PathBuf> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{exhibit}.json"));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(json.render().as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_escaping() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::Int(-3).render(), "-3\n");
        assert_eq!(Json::Num(2.5).render(), "2.5\n");
        assert_eq!(Json::Num(3.0).render(), "3.0\n", "floats keep a decimal point");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n", "non-finite is null");
        assert_eq!(
            Json::Str("a\"b\\c\nd".into()).render(),
            "\"a\\\"b\\\\c\\nd\"\n"
        );
    }

    #[test]
    fn renders_nested_structures() {
        let j = Json::obj(vec![
            ("xs", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let s = j.render();
        assert!(s.contains("\"xs\": [\n    1,\n    2\n  ]"), "pretty array: {s}");
        assert!(s.contains("\"empty\": []"), "empty array inline: {s}");
    }

    fn keys(j: &Json) -> Vec<&str> {
        match j {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn rendered_run_result_has_exactly_these_keys_in_this_order() {
        let r = RunResult { stage_hists: vec![crate::StageHist::default()], ..RunResult::default() };
        let j = run_result_json("MQ-MF", &r);
        assert_eq!(
            keys(&j),
            [
                "system",
                "sustainable",
                "batch_size",
                "throughput_tps",
                "committed",
                "aborted",
                "abort_retries",
                "abort_pct",
                "p99_ms",
                "prepare_us",
                "reexec_us",
                "predict_us",
                "queue_us",
                "execute_us",
                "commit_us",
                "overlap_us",
                "lock_waits",
                "lock_contended_keys",
                "stage_hists",
            ]
        );
        let Json::Obj(members) = &j else { unreachable!("keys() checked it") };
        let Some((_, Json::Arr(hists))) = members.last() else {
            panic!("stage_hists must be an array");
        };
        assert_eq!(keys(&hists[0]), ["stage", "p50_us", "p95_us", "p99_us", "max_us"]);
        assert_eq!(keys(&snapshot_json("x", &[])), ["time", "exhibit", "groups"]);
    }

    /// A snapshot says `"time": "virtual"`, so no wall-clock value may
    /// reach it: the same search twice must render the same bytes.
    #[test]
    fn two_runs_render_byte_identical_snapshots() {
        let setup = crate::tpcc_setup(2);
        let cfg = crate::SustainConfig {
            warmup_batches: 2,
            measure_batches: 3,
            max_batch: 64,
            ..crate::SustainConfig::default()
        };
        let render = || {
            let r = crate::measure_sustainable(crate::SystemKind::MqMf, &setup, &cfg);
            assert!(r.sustainable && r.committed > 0, "{r:?}");
            snapshot_json("t", &[("tpcc-2wh".to_owned(), vec![("MQ-MF".to_owned(), r)])]).render()
        };
        assert_eq!(render(), render());
    }
}
