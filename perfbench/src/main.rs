//! The repository benchmark. It times the product only from outside:
//! the `ofence` binary as users run it, the `ofence serve` wire protocol
//! over loopback TCP, and — in the separate traced run — spans recorded
//! here, with the repository's own `obs::Recorder`, around calls into
//! each layer's public functions.
//!
//! ```text
//! perfbench --ofence BIN --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! the full result record (comparability stamp, percentiles, oracle
//! counts). Workload inputs are generated from `--seed` with
//! `ofence_corpus`; the program under test only ever sees the files.

mod cli_runs;
mod disk;
mod load;
mod oracle;
mod proc;
mod serve_run;
mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub use workload::{Kind, Size};

/// Everything a workload run needs to know.
pub struct Ctx {
    pub bin: PathBuf,
    /// Scratch space of this run, inside the checkout; removed at exit.
    pub dir: PathBuf,
    pub kind: Kind,
    pub size: Size,
    pub seed: u64,
    pub seconds: f64,
}

/// Every end-to-end metric with its unit, in `BENCHMARK.json` order. A
/// `--trace 0` run reports exactly these; `--trace 1` reports exactly
/// [`traced::PER_LAYER`].
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("written_mb_per_op", "MB"),
    ("within_slo_share", "share"),
    ("ok_share", "share"),
];

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run produced: the headline metrics plus a free-form
/// detail record printed beside them.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// False when the run cannot be trusted as a whole (an oracle failure
    /// in set-up, or a load generator that fell behind its schedule).
    pub valid: bool,
    pub metrics: Vec<Metric>,
    pub detail: Vec<(String, serde_json::Value)>,
}

struct Args {
    bin: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut bin = None;
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut i = 0;
    while i < argv.len() {
        let val = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--ofence" => bin = Some(PathBuf::from(val)),
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| "--seconds: not a number")?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => trace = val == "1",
            "--size" => {
                size = match val.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err("--size is full or tiny".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok(Args {
        bin: bin.ok_or("--ofence BIN is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        size,
    })
}

/// The git revision of the checkout, read from `.git` without running
/// git (which could touch the index); `none` outside a repository.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn stamp(args: &Args, root: &Path) -> serde_json::Value {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    serde_json::json!({
        "available_parallelism": cores,
        "pool_workers": ofence::pool::global().workers(),
        "git_rev": git_rev(root),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload.clone(),
        "size": format!("{:?}", args.size),
        "build_profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "traced": args.trace,
    })
}

fn run() -> Result<(Outcome, serde_json::Value), String> {
    let args = parse_args()?;
    let kind = Kind::parse(&args.workload)?;
    if !args.bin.is_file() {
        return Err(format!("{}: no ofence binary", args.bin.display()));
    }
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let dir = root.join(".bench_runs").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let dir = proc::fresh_dir(dir)?;
    let ctx = Ctx {
        bin: args
            .bin
            .canonicalize()
            .map_err(|e| format!("{}: {e}", args.bin.display()))?,
        dir: dir.clone(),
        kind,
        size: args.size,
        seed: args.seed,
        seconds: args.seconds,
    };
    let (outcome, declared) = if args.trace {
        (traced::run(&ctx), traced::PER_LAYER)
    } else {
        let out = match kind {
            Kind::ColdPaper | Kind::Warm12kEdit => cli_runs::run(&ctx),
            Kind::Serve1k2Mixed => serve_run::run(&ctx),
        };
        (out, END_TO_END)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(root.join(".bench_runs"));
    let outcome = outcome?;
    let reported: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    if reported != declared {
        return Err(format!(
            "reported metrics {reported:?} differ from the declared {declared:?}"
        ));
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a number", m.name));
    }
    Ok((outcome, stamp(&args, &root)))
}

fn main() -> ExitCode {
    let (out, stamp) = match run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut metrics = serde_json::Map::new();
    for m in &out.metrics {
        metrics.insert(
            m.name.to_string(),
            serde_json::json!({ "value": m.value, "unit": m.unit }),
        );
    }
    let correct = out.valid && out.failed == 0;
    let mut detail = serde_json::Map::new();
    for (k, v) in out.detail {
        detail.insert(k, v);
    }
    let record = serde_json::json!({
        "record": {
            "stamp": stamp,
            "valid": out.valid,
            "failed_share": out.failed as f64 / out.attempted.max(1) as f64,
            "detail": serde_json::Value::Object(detail),
        }
    });
    println!(
        "{}",
        serde_json::to_string(&record).expect("record serializes")
    );
    let last = serde_json::json!({
        "correct": correct,
        "attempted": out.attempted.max(1),
        "failed": out.failed,
        "metrics": serde_json::Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&last).expect("result serializes")
    );
    if !correct {
        eprintln!("perfbench: correctness oracle failed (see the record above)");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// A scratch directory for the benchmark's own tests, inside the
/// checkout's ignored run area.
#[cfg(test)]
pub fn test_dir(tag: &str) -> PathBuf {
    let d = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../.bench_runs/tests")
        .join(format!("{tag}-{}", std::process::id()));
    proc::fresh_dir(d).expect("test dir")
}

#[cfg(test)]
mod tests {
    /// `BENCHMARK.json`'s metric lists, in order, with their units.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        doc[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn every_declared_metric_is_reported_with_its_unit() {
        assert_eq!(declared("end_to_end"), ours(super::END_TO_END));
        assert_eq!(declared("per_layer"), ours(super::traced::PER_LAYER));
    }
}
