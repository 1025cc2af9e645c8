//! `perf`: the workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! ```
//!
//! One process runs one workload. With `--trace 0` it measures the
//! end-to-end metrics with tracing and kernel counters off; with
//! `--trace 1` it measures the per-layer metrics and writes its spans
//! beside the executable. Correctness gates run before any timing. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and the catalogue metrics with their units. `BENCHMARK.json`
//! lists the training workloads; the serving workloads run by hand. See
//! `README.md`.

mod json;
mod layers;
mod metrics;
mod mirror;
mod probes;
mod serve;
mod stats;
mod trace;
mod train;

use json::{Json, Object};
use metrics::Report;
use skipnode_tensor::{kstats, pool, simd};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Trace;

/// Version of the `--out` report and span file layout.
const SCHEMA: f64 = 1.0;
/// `--seconds` when not given; `BENCHMARK.json` runs with the same value.
const DEFAULT_SECONDS: f64 = 50.0;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainSkipnodeDeep,
    TrainVanillaWide,
    ServeRead,
    ServeWriteMix,
}

pub const WORKLOADS: [(&str, Workload); 4] = [
    ("train-skipnode-deep", Workload::TrainSkipnodeDeep),
    ("train-vanilla-wide", Workload::TrainVanillaWide),
    ("serve-read", Workload::ServeRead),
    ("serve-write-mix", Workload::ServeWriteMix),
];

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub name: &'static str,
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: f64,
    pub trace: bool,
    /// Where to write the full report, if anywhere.
    pub out: Option<PathBuf>,
}

const USAGE: &str =
    "usage: perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
workloads: train-skipnode-deep, train-vanilla-wide, serve-read, serve-write-mix";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = DEFAULT_SECONDS;
        let mut trace = false;
        let mut out = None;
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(
                        *WORKLOADS
                            .iter()
                            .find(|(n, _)| *n == v)
                            .ok_or(format!("unknown workload {v:?}"))?,
                    );
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err(format!("--seconds {seconds} outside (0, 600]"));
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    }
                }
                "--out" => out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let (name, workload) = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            name,
            seed,
            seconds,
            trace,
            out,
        })
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

fn run(args: &Args, report: &mut Report, trace: &mut Trace) -> Result<(), String> {
    match (args.workload, args.trace) {
        (Workload::TrainSkipnodeDeep, false) => train::run(&train::skipnode_deep(), args, report),
        (Workload::TrainVanillaWide, false) => train::run(&train::vanilla_wide(), args, report),
        (Workload::TrainSkipnodeDeep, true) => {
            train::run_traced(&train::skipnode_deep(), args, report, trace)
        }
        (Workload::TrainVanillaWide, true) => {
            train::run_traced(&train::vanilla_wide(), args, report, trace)
        }
        (Workload::ServeRead, false) => serve::run(false, args, report),
        (Workload::ServeWriteMix, false) => serve::run(true, args, report),
        (Workload::ServeRead, true) => serve::run_traced(false, args, report, trace),
        (Workload::ServeWriteMix, true) => serve::run_traced(true, args, report, trace),
    }?;
    let missing = report.missing();
    if !missing.is_empty() {
        return Err(format!("no value measured for {missing:?}"));
    }
    Ok(())
}

/// Write the span file beside the executable (inside the build directory).
fn write_spans(args: &Args, trace: &Trace) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let dir = exe.parent().ok_or("the executable has no directory")?;
    let path = dir.join(format!("perf-spans-{}-{}.json", args.name, args.seed));
    std::fs::write(&path, trace.to_json().render())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Write the full report: every metric and detail with its sample count.
fn write_report(path: &Path, args: &Args, report: &Report, nproc: usize) -> Result<(), String> {
    let (metrics, detail) = report.entries_json();
    let machine = Object::new()
        .with("isa", Json::str(simd::active().name()))
        .with("pool_threads", Json::num(pool::num_threads() as f64))
        .with("nproc", Json::num(nproc as f64));
    let doc = Object::new()
        .with("schema", Json::num(SCHEMA))
        .with("workload", Json::str(args.name))
        .with("seed", Json::num(args.seed as f64))
        .with("seconds", Json::num(args.seconds))
        .with("trace", Json::Bool(args.trace))
        .with("machine", Json::Obj(machine))
        .with("attempted", Json::num(report.attempted as f64))
        .with("failed", Json::num(report.failed as f64))
        .with("metrics", metrics)
        .with("detail", detail);
    std::fs::write(path, Json::Obj(doc).render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SKIPNODE_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perf: refusing to run with {set:?} set; the benchmark fixes its own configuration"
        );
        return ExitCode::from(2);
    }
    // Kernels run on one thread: on a small shared machine a second pool
    // thread mostly contends with the first, and with the serving threads,
    // for the same core, and its availability swings step times between
    // runs far more than any change under test would.
    std::env::set_var("SKIPNODE_THREADS", "1");
    kstats::set_enabled(false);

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perf {} seed={} seconds={} trace={} isa={} pool_threads={} nproc={nproc}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        simd::active().name(),
        pool::num_threads(),
    );
    let mut report = Report::new(match (args.trace, args.workload) {
        (true, _) => metrics::PER_LAYER,
        (false, Workload::ServeRead | Workload::ServeWriteMix) => metrics::SERVING_END_TO_END,
        (false, Workload::TrainSkipnodeDeep | Workload::TrainVanillaWide) => metrics::END_TO_END,
    });
    let mut trace = Trace::new();
    let outcome = run(&args, &mut report, &mut trace);
    report.print();

    let mut result = outcome.as_ref().err().cloned();
    if result.is_none() && args.trace {
        match write_spans(&args, &trace) {
            Ok(path) => println!("spans: {} ({} spans)", path.display(), trace.spans().len()),
            Err(e) => result = Some(e),
        }
    }
    if result.is_none() {
        if let Some(path) = &args.out {
            result = write_report(path, &args, &report, nproc).err();
        }
    }
    if let Some(e) = &result {
        eprintln!("perf: {}: {e}", args.name);
    }
    println!("{}", report.result(result.is_none()).render());
    if result.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::metrics::{Metric, END_TO_END, PER_LAYER};

    fn benchmark_json() -> crate::json::Object {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the perf directory");
        match parse(&text).expect("BENCHMARK.json parses") {
            Json::Obj(o) => o,
            other => panic!("BENCHMARK.json is not an object: {other:?}"),
        }
    }

    fn arr<'a>(o: &'a crate::json::Object, key: &str) -> &'a [Json] {
        match o.get(key) {
            Some(Json::Arr(items)) => items,
            other => panic!("{key} is not an array: {other:?}"),
        }
    }

    fn obj(v: &Json) -> &crate::json::Object {
        match v {
            Json::Obj(o) => o,
            other => panic!("expected an object, got {other:?}"),
        }
    }

    fn text<'a>(o: &'a crate::json::Object, key: &str) -> &'a str {
        match o.get(key) {
            Some(Json::Str(s)) => s,
            other => panic!("{key} is not a string: {other:?}"),
        }
    }

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The metrics listed under `key`, checked against `catalogue`.
    fn check_metrics(o: &crate::json::Object, key: &str, catalogue: &[Metric], bounded: bool) {
        let listed = arr(o, key);
        assert_eq!(listed.len(), catalogue.len(), "{key} count");
        for (entry, m) in listed.iter().zip(catalogue) {
            let e = obj(entry);
            let name = text(e, "name");
            assert!(is_name(name), "metric name {name:?}");
            assert_eq!(name, m.name, "{key} order follows the catalogue");
            let unit = text(e, "unit");
            assert_eq!(unit, m.unit, "unit of {name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(matches!(text(e, "better"), "lower" | "higher"), "{name}");
            let keys: Vec<&str> = e.keys().collect();
            if bounded {
                assert_eq!(keys, ["name", "unit", "better", "bound"], "{name}");
                match e.get("bound") {
                    Some(Json::Num(b)) => assert!(*b > 0.0 && *b <= 0.25, "{name} bound {b}"),
                    other => panic!("{name} bound {other:?}"),
                }
            } else {
                assert_eq!(keys, ["name", "unit", "better"], "{name}");
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_binary() {
        let o = benchmark_json();
        let keys: Vec<&str> = o.keys().collect();
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
        let command: Vec<&str> = arr(&o, "command")
            .iter()
            .map(|v| match v {
                Json::Str(s) => s.as_str(),
                other => panic!("command part {other:?}"),
            })
            .collect();
        assert!(command.contains(&"perf/Cargo.toml"), "{command:?}");
        assert_eq!(arr(&o, "paths"), [Json::str("perf")]);
        assert_eq!(o.get("run_seconds"), Some(&Json::Num(DEFAULT_SECONDS)));

        let workloads: Vec<&str> = arr(&o, "workloads")
            .iter()
            .map(|w| {
                let w = obj(w);
                assert!(text(w, "why").len() <= 200 && !text(w, "why").contains('\n'));
                text(w, "name")
            })
            .collect();
        // The serving workloads run by hand only: their open-loop latencies
        // spread wider between runs than any regression bound (README.md).
        assert_eq!(workloads, ["train-skipnode-deep", "train-vanilla-wide"]);
        assert!(workloads
            .iter()
            .all(|w| WORKLOADS.iter().any(|(n, _)| n == w)));

        check_metrics(&o, "end_to_end", END_TO_END, true);
        check_metrics(&o, "per_layer", PER_LAYER, false);
        let bound = |name: &str| {
            arr(&o, "end_to_end")
                .iter()
                .map(obj)
                .find(|e| text(e, "name") == name)
                .and_then(|e| match e.get("bound") {
                    Some(Json::Num(b)) => Some(*b),
                    _ => None,
                })
                .expect("bounded metric")
        };
        assert!(END_TO_END.iter().all(|m| bound(m.name) <= bound("setup_s")));
    }

    #[test]
    fn arguments_parse_and_refuse_bad_values() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload serve-read --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeRead);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload serve-read --trace 2").is_err());
        assert!(parse("--workload serve-read --seconds 0").is_err());
        assert!(parse("--seed 3").is_err());
    }
}
