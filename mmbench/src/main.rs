//! `mmbench`: the repository benchmark. Runs one seeded closed-loop
//! workload against the public `mmdiag` API for a fixed time and prints its
//! metrics, by name with their units, as the last line of standard output:
//!
//! ```text
//! cargo run --release --manifest-path mmbench/Cargo.toml -- \
//!     --workload scale-verified --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload again, untraced for a third of the time and then with spans
//! around every call into a layer, and reports the per-layer metrics. See
//! `README.md` beside this crate for the workloads and the metric map.

mod common;
mod fleet;
mod heap;
mod monitor;
mod scale;
mod spans;
mod stats;

use common::{Config, Report};
use stats::Json;
use std::process::ExitCode;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// The end-to-end metrics every workload reports, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("diagnose_p50_us", "us"),
    ("verified_p50_us", "us"),
    ("diagnoses_per_s", "1/s"),
    ("lookups_per_diagnosis", "count"),
];

/// The per-layer metrics of a traced run. A metric whose layer the
/// workload bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("peak_rss_mb", "MiB"),
    ("topology.build_ms", "ms"),
    ("topology.adjacency_ns_per_node", "ns"),
    ("syndrome.lookup_ns", "ns"),
    ("core.probes", "count"),
    ("core.probe_lookups", "count"),
    ("core.probe_us", "us"),
    ("core.certify_us", "us"),
    ("core.grow_us", "us"),
    ("core.grow_lookups", "count"),
    ("core.grow_rounds", "count"),
    ("core.grow_parallel_rounds", "count"),
    ("core.other_us", "us"),
    ("core.seq_diagnose_us", "us"),
    ("core.auto_over_seq", "ratio"),
    ("exec.tasks", "count"),
    ("exec.steals", "count"),
    ("exec.parks", "count"),
    ("exec.task_p50_ns", "ns"),
    ("exec.busy_frac", "ratio"),
    ("verify.samples", "count"),
    ("verify.checked_tests", "count"),
    ("verify.tests_per_lookup", "ratio"),
    ("monitor.epochs", "count"),
    ("monitor.parts_reprobed", "count"),
    ("monitor.parts_reused", "count"),
    ("monitor.escalations", "count"),
    ("monitor.quiescent_epochs", "count"),
    ("monitor.probe_us", "us"),
    ("monitor.grow_us", "us"),
    ("monitor.lookups_per_delta_node", "count"),
    ("trace.overhead_frac", "ratio"),
    ("verify_p50_us", "us"),
    ("diagnose_p99_us", "us"),
    ("epoch_p50_us", "us"),
    ("epoch_p90_us", "us"),
    ("lookups_per_epoch", "count"),
    ("failed_frac", "ratio"),
];

const WORKLOADS: &[&str] = &["scale-verified", "fleet-small", "monitor-epochs"];

struct Args {
    workload: String,
    config: Config,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        config: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

/// The commit of the working tree, read from `.git` when there is one.
fn git_rev() -> Json {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return Json::Null;
    };
    match head.strip_prefix("ref: ") {
        None => Json::Str(head),
        Some(name) => read(&format!(".git/{name}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(name))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .map_or(Json::Null, Json::Str),
    }
}

/// The compiler on the path, which is the one `cargo run` just built with.
fn rustc_version() -> Json {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Json::Null, |o| {
            Json::str(String::from_utf8_lossy(&o.stdout).trim())
        })
}

fn provenance(args: &Args) -> Json {
    Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Int(args.config.seed)),
        ("seconds", Json::Num(args.config.seconds)),
        ("trace", Json::Bool(args.config.trace)),
        ("git_rev", git_rev()),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "pool_threads",
            Json::Int(mmdiag::exec::default_threads() as u64),
        ),
        ("rustc", rustc_version()),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

fn write_spans(args: &Args, spans: Vec<Json>) -> Result<String, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let path = format!("{dir}/spans-{}-{}.json", args.workload, args.config.seed);
    let body = Json::obj([("clients", Json::Arr(spans))]).render();
    std::fs::write(&path, body).map_err(|e| format!("writing {path}: {e}"))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "mmbench: {e}\nusage: mmbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Every knob the program reads comes from an MMDIAG_* variable,
    // parsed through one door; a run under any of them would not measure
    // the default configuration.
    let knobs = mmdiag::exec::knobs();
    if *knobs != mmdiag::exec::Knobs::parse(None, None, None, None, None, None, None, None) {
        eprintln!("mmbench: refusing to run with MMDIAG_* knobs set: {knobs:?}");
        return ExitCode::from(2);
    }

    let mut report: Report = match args.workload.as_str() {
        "scale-verified" => scale::run(&args.config),
        "fleet-small" => fleet::run(&args.config),
        "monitor-epochs" => monitor::run(&args.config),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    report.set("peak_heap_mb", heap::peak_mib());
    match stats::peak_rss_mib() {
        Some(mib) => report.set("peak_rss_mb", mib),
        None => report.error("no VmHWM in /proc/self/status".into()),
    }
    let spans = std::mem::take(&mut report.spans);
    if args.config.trace {
        match write_spans(&args, spans) {
            Ok(path) => report.detail("spans_file", Json::Str(path)),
            Err(e) => report.error(e),
        }
    }

    let table = if args.config.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match report.get(name) {
            Some(v) => v,
            None if args.config.trace => 0.0,
            None => {
                report.error(format!("end-to-end metric {name} was not measured"));
                continue;
            }
        };
        metrics.push((
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    let not_applicable: Vec<Json> = table
        .iter()
        .filter(|(name, _)| report.get(name).is_none())
        .map(|(name, _)| Json::str(*name))
        .collect();
    let all: Vec<(&str, Json)> = report
        .metrics
        .iter()
        .map(|&(name, v)| (name, Json::Num(v)))
        .collect();
    let correct = report.errors.is_empty() && report.tally.failed == 0;
    let detail = Json::obj([
        ("provenance", provenance(&args)),
        ("failed_frac", Json::Num(report.tally.failed_frac())),
        (
            "errors",
            Json::Arr(report.errors.iter().map(Json::str).collect()),
        ),
        ("not_applicable", Json::Arr(not_applicable)),
        ("measured", Json::obj(all)),
        ("detail", Json::Obj(std::mem::take(&mut report.detail))),
    ]);
    println!("{}", detail.render());
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(report.tally.attempted)),
        ("failed", Json::Int(report.tally.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload fleet-small --seed 3 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload, "fleet-small");
        assert_eq!(
            (a.config.seed, a.config.seconds, a.config.trace),
            (3, 2.5, true)
        );
        assert!(parse("--workload nope --seed 3 --seconds 2 --trace 0").is_err());
        assert!(parse("--workload fleet-small --seed 3 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload fleet-small --seconds 2 --trace 0").is_err());
        assert!(parse("--workload fleet-small --seed 1 --seconds 0 --trace 0").is_err());
    }

    /// `BENCHMARK.json` and this binary must name the same workloads and
    /// metrics with the same units.
    #[test]
    fn benchmark_json_lists_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        for w in WORKLOADS {
            assert!(
                compact.contains(&format!("\"name\":\"{w}\"")),
                "workload {w}"
            );
        }
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "metric {name} [{unit}]");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "no extra metrics"
        );
    }
}
