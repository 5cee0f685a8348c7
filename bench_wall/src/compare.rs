//! `--repeat` and `--compare`: sets of runs of the same code, their
//! medians, quartiles and spreads against each metric's bound — the tool
//! that fixes the bounds and shows two sets agree within them.

use crate::json::Json;
use crate::metrics::{median, quartiles, spread, worse_by, MetricDef, END_TO_END};
use std::collections::BTreeMap;
use std::path::Path;

/// workload -> metric -> one value per run.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn to_json(set: &RunSet) -> Json {
    Json::obj(set.iter().map(|(workload, metrics)| {
        let metrics = metrics.iter().map(|(name, values)| {
            (
                name.clone(),
                Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
            )
        });
        (workload.clone(), Json::obj(metrics))
    }))
}

pub fn from_json(json: &Json) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (workload, metrics) in json.as_obj().ok_or("a run set is an object of workloads")? {
        let slot = set.entry(workload.clone()).or_default();
        for (name, values) in metrics
            .as_obj()
            .ok_or("a workload is an object of metrics")?
        {
            let values = values
                .as_arr()
                .ok_or("a metric is an array of values")?
                .iter()
                .map(|v| v.as_f64().ok_or("metric values are numbers"))
                .collect::<Result<Vec<f64>, _>>()?;
            slot.insert(name.clone(), values);
        }
    }
    Ok(set)
}

pub fn load(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    from_json(&Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
}

/// The spread of `setup_s` is reported but not held to its bound: set-up
/// is short, so its run-to-run share is wide; its median still is.
fn spread_is_bounded(def: &MetricDef) -> bool {
    def.name != "setup_s"
}

/// Prints each end-to-end metric's median, quartiles and spread of one
/// set. Returns whether every bounded spread stays within its bound.
pub fn print_set(set: &RunSet) -> bool {
    let mut ok = true;
    for (workload, metrics) in set {
        println!("\n== {workload}: spread of each end-to-end metric over its runs ==");
        println!(
            "{:<16} {:>5} {:>12} {:>12} {:>12} {:>9} {:>7}  verdict",
            "metric", "runs", "q1", "median", "q3", "spread", "bound"
        );
        for def in END_TO_END {
            let Some(values) = metrics.get(def.name).filter(|v| v.len() >= 2) else {
                continue;
            };
            let q = quartiles(values);
            let s = spread(values);
            let verdict = if !spread_is_bounded(def) {
                "reported only"
            } else if s <= def.bound / 3.0 {
                "steady"
            } else if s <= def.bound {
                "within bound"
            } else {
                ok = false;
                "WIDER THAN BOUND"
            };
            println!(
                "{:<16} {:>5} {:>12.4} {:>12.4} {:>12.4} {:>8.2}% {:>6.0}%  {verdict}",
                def.name,
                values.len(),
                q[0],
                q[1],
                q[2],
                s * 100.0,
                def.bound * 100.0
            );
        }
    }
    ok
}

/// Compares two sets of runs of the same code: each spread within its
/// bound, and the second median not worse than the first by more than
/// the bound. Returns whether they agree.
pub fn compare(a: &RunSet, b: &RunSet) -> bool {
    let mut ok = print_set(a);
    ok &= print_set(b);
    for (workload, first) in a {
        let Some(second) = b.get(workload) else {
            println!("\n{workload}: missing from the second set");
            ok = false;
            continue;
        };
        println!("\n== {workload}: second set against the first ==");
        println!(
            "{:<16} {:>12} {:>12} {:>9} {:>7}  verdict",
            "metric", "median 1", "median 2", "worse by", "bound"
        );
        for def in END_TO_END {
            let (Some(x), Some(y)) = (first.get(def.name), second.get(def.name)) else {
                continue;
            };
            let (m1, m2) = (median(x), median(y));
            let worse = worse_by(def, m1, m2);
            let verdict = if worse > def.bound {
                ok = false;
                "DISAGREE"
            } else {
                "agree"
            };
            println!(
                "{:<16} {:>12.4} {:>12.4} {:>8.2}% {:>6.0}%  {verdict}",
                def.name,
                m1,
                m2,
                worse * 100.0,
                def.bound * 100.0
            );
        }
    }
    println!(
        "\n{}",
        if ok {
            "the two sets agree within the bounds"
        } else {
            "the two sets DISAGREE beyond the bounds"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(tps: &[f64]) -> RunSet {
        let mut set = RunSet::new();
        set.entry("w".into())
            .or_default()
            .insert("tps".into(), tps.to_vec());
        set
    }

    #[test]
    fn run_sets_round_trip_through_json() {
        let s = set(&[1.5, 2.25, 3.0]);
        assert_eq!(
            from_json(&Json::parse(&to_json(&s).render()).unwrap()).unwrap(),
            s
        );
        assert!(from_json(&Json::Arr(vec![])).is_err());
    }

    #[test]
    fn compare_flags_a_median_worse_than_the_bound() {
        let steady = [100.0, 101.0, 100.5, 99.5, 100.2];
        assert!(compare(&set(&steady), &set(&steady)));
        let slower: Vec<f64> = steady.iter().map(|v| v * 0.7).collect();
        assert!(
            !compare(&set(&steady), &set(&slower)),
            "tps fell by three tenths"
        );
        assert!(
            compare(&set(&slower), &set(&steady)),
            "getting faster is not a disagreement"
        );
        let noisy = [100.0, 140.0, 60.0, 120.0, 80.0];
        assert!(
            !print_set(&set(&noisy)),
            "a spread wider than the bound is flagged"
        );
    }
}
