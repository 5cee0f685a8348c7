//! `bench_wall`: the repo's one benchmark. It drives the real threaded
//! `Engine` / `Replica`, the replicated `Pipeline` and the TCP `Server`
//! through their public APIs only, on the wall clock; it prints every
//! metric by name with its unit, checks the program's outputs, and exits
//! non-zero when a check fails. See README.md beside this package.

mod compare;
mod exec;
mod inputs;
mod json;
mod loadgen;
mod metrics;
mod probes;
mod proc;
mod replicated;
mod served;
mod trace;

use inputs::{Family, Spec, SPECS};
use json::Json;
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// How long one run measures unless `--seconds` says otherwise; the
/// `run_seconds` of BENCHMARK.json.
pub const RUN_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 11;

/// What one in-process run was asked to do.
pub struct Opts {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    /// Shrunken inputs, one set-up, checks only.
    pub quick: bool,
}

impl Opts {
    /// Set-ups per run; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }

    /// How many units of work a leg does: `--seconds` times what this
    /// host did per second at the seed commit. The count is fixed before
    /// the leg starts, so two runs of one commit do the same work and a
    /// faster program finishes sooner; every leg does at least one unit.
    pub fn scaled(&self, per_second: f64) -> usize {
        if self.quick {
            1
        } else {
            ((self.seconds * per_second).round() as usize).max(1)
        }
    }
}

/// What one run found.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    /// Workload-specific numbers: printed, not part of the result line.
    extras: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    failures: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// A timing's median and 95th percentile. `groups` are the samples of
    /// each replay, or of each quarter of a leg, in time order: the
    /// percentile is taken per group and the median group is returned, so
    /// a stall that hits one group does not set the figure.
    pub fn latency(&mut self, what: &str, groups: &[Vec<f64>]) -> (f64, f64) {
        let pooled: Vec<f64> = groups.iter().flatten().copied().collect();
        self.check(!pooled.is_empty(), || format!("{what}: no latency samples"));
        if pooled.is_empty() {
            return (f64::MAX, f64::MAX);
        }
        let of_median_group = |p: f64| {
            let per_group: Vec<f64> = groups
                .iter()
                .filter(|g| !g.is_empty())
                .map(|g| metrics::percentile(&metrics::sorted(g.clone()), p))
                .collect();
            metrics::median(&per_group)
        };
        let thin = if metrics::supports(pooled.len(), 0.95) {
            ""
        } else {
            " (fewer than 10 samples beyond p95)"
        };
        self.note(format!(
            "{what}: {} in {} groups{thin}",
            metrics::describe(&pooled, "ms"),
            groups.len()
        ));
        (of_median_group(0.5), of_median_group(0.95))
    }

    /// The four latency figures of an untraced run. Leg B's p95 is
    /// printed but is no end-to-end metric: it did not repeat.
    pub fn put_leg_latencies(&mut self, leg_a: (f64, f64), leg_b: (f64, f64)) {
        self.put("lat_p50_ms", leg_a.0);
        self.put("lat_p95_ms", leg_a.1);
        self.put("lat_b_p50_ms", leg_b.0);
        self.extra("lat_b_p95_ms", leg_b.1, "ms");
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push((name.to_owned(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// An output check: a failed one fails the run.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(why());
        }
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, with every metric of `defs` and no other.
    fn result_line(&self, defs: &[MetricDef]) -> Json {
        let metrics = defs.iter().map(|def| {
            let value = self
                .value(def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
            (
                def.name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(def.unit.into())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            (
                "failed",
                Json::Num((self.failed + self.failures.len() as u64) as f64),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

fn run_in_process(opts: &Opts, traced: bool) -> ExitCode {
    let started = Instant::now();
    let spec = opts.spec;
    println!(
        "bench_wall: workload {} seed {} {} run{}; nproc {} (scheduler mq_mf(2) everywhere, load generator <= {} connections)",
        spec.name,
        opts.seed,
        if traced { "traced" } else { "untraced" },
        if opts.quick { ", --quick" } else { "" },
        proc::nproc(),
        served::connections(),
    );
    let mut report = Report::default();
    let defs = if traced {
        probes::run(opts, &mut report);
        PER_LAYER
    } else {
        match spec.family {
            Family::Exec => exec::run(opts, &mut report),
            Family::Replicated => replicated::run(opts, &mut report),
            Family::Served => served::run(opts, &mut report),
        }
        END_TO_END
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for def in defs {
        if let Some(value) = report.value(def.name) {
            println!(
                "{:<36} {:>16.4} {:<6} ({} is better)",
                def.name,
                value,
                def.unit,
                def.better.as_str()
            );
        }
    }
    for (name, value, unit) in &report.extras {
        println!("{name:<36} {value:>16.4} {unit:<6} (this workload only)");
    }
    for failure in &report.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!(
        "# checks {}; {} attempted, {} failed; {:.1} s wall",
        if report.failures.is_empty() {
            "passed"
        } else {
            "FAILED"
        },
        report.attempted,
        report.failed,
        started.elapsed().as_secs_f64()
    );
    println!("{}", report.result_line(defs).render());
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process of its own: a fresh
/// `Registry::global()` and its own `VmHWM`. Returns the parsed result
/// line, or `None` when the child failed.
fn run_child(spec: &Spec, seed: u64, seconds: f64, traced: bool, quick: bool) -> Option<Json> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        spec.name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if traced { "1" } else { "0" }])
    .stdout(Stdio::piped());
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().expect("child process starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let line = stdout.lines().last().and_then(|l| Json::parse(l).ok());
    line.filter(|j| {
        output.status.success() && j.get("correct").and_then(Json::as_bool) == Some(true)
    })
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    repeat: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage: bench_wall [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--quick]
                  [--repeat N [--out set.json]] | --compare a.json b.json
workloads: tpcc_exec rubis_exec smallbank_replicated smallbank_served (default: each, in a child process)";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: None,
        quick: false,
        repeat: 1,
        out: None,
        compare: None,
    };
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => cli.workload = Some(value(&mut it, arg)?),
            "--seed" => {
                cli.seed = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--quick" => cli.quick = true,
            "--repeat" => {
                cli.repeat = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if cli.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value(&mut it, arg)?)),
            "--compare" => {
                cli.compare = Some((
                    PathBuf::from(value(&mut it, arg)?),
                    PathBuf::from(value(&mut it, arg)?),
                ));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &cli.workload {
        if inputs::spec(name).is_none() {
            return Err(format!("unknown workload {name}"));
        }
    }
    Ok(cli)
}

/// Every selected workload, each run in its own child process, `repeat`
/// times on consecutive seeds, untraced and (with `--trace`) traced.
fn orchestrate(cli: &Cli) -> ExitCode {
    let specs: Vec<&Spec> = match &cli.workload {
        Some(name) => vec![inputs::spec(name).expect("validated by parse_cli")],
        None => SPECS.iter().collect(),
    };
    let started = Instant::now();
    println!(
        "bench_wall: {} run(s) of each workload, each in a child process of its own",
        cli.repeat
    );
    for spec in &specs {
        println!("  {}: {}", spec.name, spec.why);
    }
    let mut set = compare::RunSet::new();
    let mut layers = compare::RunSet::new();
    let mut ok = true;
    for spec in &specs {
        for rep in 0..cli.repeat {
            let seed = cli.seed + rep as u64;
            for traced in [false, true] {
                if traced && cli.trace != Some(true) {
                    continue;
                }
                println!(
                    "\n---- {} seed {seed} {} ----",
                    spec.name,
                    if traced { "traced" } else { "untraced" }
                );
                let Some(line) = run_child(spec, seed, cli.seconds, traced, cli.quick) else {
                    println!("---- {} seed {seed}: run FAILED ----", spec.name);
                    ok = false;
                    continue;
                };
                let slot = if traced { &mut layers } else { &mut set }
                    .entry(spec.name.into())
                    .or_default();
                for (name, m) in line.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                    let value = m
                        .get("value")
                        .and_then(Json::as_f64)
                        .expect("metric value is a number");
                    slot.entry(name.clone()).or_default().push(value);
                }
            }
        }
    }

    println!(
        "\n==== medians over {} run(s) per workload ====",
        cli.repeat
    );
    for (defs, runs) in [(END_TO_END, &set), (PER_LAYER, &layers)] {
        if runs.is_empty() {
            continue;
        }
        print!("{:<36}", "metric");
        for spec in &specs {
            print!(" {:>20}", spec.name);
        }
        println!(" unit");
        for def in defs {
            print!("{:<36}", def.name);
            for spec in &specs {
                match runs.get(spec.name).and_then(|m| m.get(def.name)) {
                    Some(values) => print!(" {:>20.4}", metrics::median(values)),
                    None => print!(" {:>20}", "-"),
                }
            }
            println!(" {}", def.unit);
        }
    }
    if cli.repeat > 1 {
        ok &= compare::print_set(&set);
    }
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, compare::to_json(&set).render() + "\n") {
            println!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    println!(
        "\n{} in {:.0} s",
        if ok {
            "all runs and checks passed"
        } else {
            "SOME RUNS OR CHECKS FAILED"
        },
        started.elapsed().as_secs_f64()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("bench_wall: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return match (compare::load(a), compare::load(b)) {
            (Ok(a), Ok(b)) if compare::compare(&a, &b) => ExitCode::SUCCESS,
            (Ok(_), Ok(_)) => ExitCode::FAILURE,
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench_wall: {e}");
                ExitCode::from(2)
            }
        };
    }
    // One workload with an explicit trace mode runs here; everything else
    // fans out to one child process per run.
    match (&cli.workload, cli.trace, cli.repeat) {
        (Some(name), Some(traced), 1) => {
            let spec = inputs::spec(name).expect("validated by parse_cli");
            run_in_process(
                &Opts {
                    spec,
                    seed: cli.seed,
                    seconds: cli.seconds,
                    quick: cli.quick,
                },
                traced,
            )
        }
        _ => orchestrate(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn cli_accepts_the_drivers_command_line() {
        let cli = parse_cli(&args(
            "--workload rubis_exec --seed 7 --seconds 20 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (cli.workload.as_deref(), cli.seed, cli.seconds, cli.trace),
            (Some("rubis_exec"), 7, 20.0, Some(false))
        );
        assert_eq!(
            parse_cli(&args("--trace --quick")).unwrap().trace,
            Some(true)
        );
        assert_eq!(parse_cli(&args("--trace 1")).unwrap().trace, Some(true));
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--seconds 0")).is_err());
        assert!(parse_cli(&args("--frobnicate")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report {
            attempted: 10,
            ..Report::default()
        };
        for def in END_TO_END {
            report.put(def.name, 1.25);
        }
        report.put("not_in_the_table", 3.0);
        let line = Json::parse(&report.result_line(END_TO_END).render()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
        report.check(false, || "boom".into());
        let line = report.result_line(END_TO_END);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed"), Some(&Json::Num(1.0)));
    }

    /// BENCHMARK.json is written by hand; this keeps it in step with the
    /// tables the program prints from.
    #[test]
    fn benchmark_json_mirrors_the_metric_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let file =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .unwrap();
        let keys: Vec<&str> = file
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            file.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
        let str_of = |j: &Json, k: &str| match j.get(k) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{k}: {other:?}"),
        };
        let workloads: Vec<(String, String)> = file
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        for (key, defs, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let listed = file.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(str_of(entry, "name"), def.name);
                assert_eq!(str_of(entry, "unit"), def.unit, "{}", def.name);
                assert_eq!(str_of(entry, "better"), def.better.as_str(), "{}", def.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    bounded.then_some(def.bound),
                    "{}",
                    def.name
                );
            }
        }
    }
}
