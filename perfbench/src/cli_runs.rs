//! The two CLI workloads, timed from outside: one fresh `ofence analyze`
//! process per op.
//!
//! * `cold-paper` — paper-scale corpus, empty cache and ledger dirs per
//!   op; graded against the generator's manifest.
//! * `warm-12k-edit` — 12k-file corpus warmed by one cold fill in
//!   set-up; each op edits one file and re-runs against the warm cache;
//!   its finding fingerprints must equal the cold fill's.
//!
//! A run starts ops until `--seconds` have passed since the first, so it
//! measures over the whole window however fast ops are: host noise on a
//! shared machine comes in bursts of seconds, and a longer window averages
//! more of them into the run's median.

use crate::disk::DiskTracker;
use crate::oracle;
use crate::proc::{fresh_dir, run_to_end, settle_disk};
use crate::stats::{median, tail};
use crate::workload::{materialize, Editor, Kind, SETUP_REPS};
use crate::{metric, Ctx, Outcome};
use ofence_corpus::Corpus;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fewest timed ops in a run, however short its `--seconds`.
const MIN_OPS: usize = 3;

/// The `ofence analyze` argument list for a workload.
pub fn analyze_args(kind: Kind, corpus: &str, cache: &Path, hist: &Path) -> Vec<String> {
    let mut args: Vec<String> = ["analyze", corpus, "--json", "--fail-on", "none"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.extend(kind.analysis_flags());
    args.extend([
        "--cache-dir".to_string(),
        cache.display().to_string(),
        "--history-dir".to_string(),
        hist.display().to_string(),
    ]);
    args
}

/// A prepared workload: the corpus on disk, plus (warm) the cold fill's
/// fingerprints. `setup_s` times generation, writing and the cold fill,
/// not the grading of the fill.
pub struct Prepared {
    pub root: PathBuf,
    pub corpus: Corpus,
    pub baseline: Vec<String>,
    pub setup_s: f64,
    pub setup_grade: oracle::Grade,
}

/// One set-up: generate and write the corpus; for `warm-12k-edit` also
/// run the cold fill that warms the cache.
pub fn prepare(ctx: &Ctx, root: PathBuf) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let root = fresh_dir(root)?;
    let corpus = materialize(ctx.kind, ctx.size, ctx.seed, &root.join("corpus"))?;
    let mut baseline = Vec::new();
    let mut setup_grade = oracle::Grade {
        pass: true,
        ..Default::default()
    };
    let mut setup_s = t0.elapsed().as_secs_f64();
    if ctx.kind == Kind::Warm12kEdit {
        let args = analyze_args(ctx.kind, "corpus", Path::new("cache"), Path::new("hist"));
        let fill = run_to_end(&ctx.bin, &args, &root)?;
        setup_s = t0.elapsed().as_secs_f64();
        if fill.exit_code != Some(0) {
            return Err(format!("cold fill failed: {}", fill.stderr));
        }
        let doc = oracle::parse(&fill.stdout)?;
        setup_grade = oracle::grade(&corpus.manifest, &doc);
        baseline = oracle::fingerprints(&doc);
    }
    Ok(Prepared {
        root,
        corpus,
        baseline,
        setup_s,
        setup_grade,
    })
}

/// A workload ready for timed ops: the corpus, and for `warm-12k-edit`
/// the editor that mirrors it.
struct Ready {
    p: Prepared,
    editor: Option<Editor>,
}

/// Set up several times, keep the last, report the median time. A
/// set-up lasts until the first timed op can begin, so it includes the
/// untimed warm-up op (page cache and allocator settle before timing).
/// Grading is not part of it.
fn set_up(ctx: &Ctx) -> Result<(Ready, f64, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept: Option<Ready> = None;
    for rep in 0..SETUP_REPS {
        if let Some(r) = kept.take() {
            let _ = std::fs::remove_dir_all(&r.p.root);
        }
        settle_disk();
        let p = prepare(ctx, ctx.dir.join(format!("rep{rep}")))?;
        let mut editor = (ctx.kind == Kind::Warm12kEdit)
            .then(|| Editor::new(p.corpus.clone(), p.root.join("corpus"), ctx.seed, false));
        let warm_up = op(ctx, &p, editor.as_mut(), 0)?;
        times.push(p.setup_s + warm_up.wall_ms / 1e3);
        kept = Some(Ready { p, editor });
    }
    Ok((kept.expect("at least one set-up"), median(&times), times))
}

struct Op {
    ok: bool,
    wall_ms: f64,
    cpu_ms: f64,
    rss_mb: f64,
    written: u64,
    counter_keys: Vec<String>,
    grade: Option<oracle::Grade>,
    why: String,
}

/// Run one op and check its output.
fn op(ctx: &Ctx, p: &Prepared, editor: Option<&mut Editor>, k: usize) -> Result<Op, String> {
    let (cache, hist) = if ctx.kind == Kind::ColdPaper {
        (
            fresh_dir(p.root.join(format!("cache{k}")))?,
            fresh_dir(p.root.join(format!("hist{k}")))?,
        )
    } else {
        (p.root.join("cache"), p.root.join("hist"))
    };
    if let Some(ed) = editor {
        ed.edit()?;
    }
    let mut tracker = DiskTracker::new(&[&cache, &hist]);
    let rel = |d: &Path| d.strip_prefix(&p.root).unwrap_or(d).to_path_buf();
    let args = analyze_args(ctx.kind, "corpus", &rel(&cache), &rel(&hist));
    let f = run_to_end(&ctx.bin, &args, &p.root)?;
    let written = tracker.written_since();
    if ctx.kind == Kind::ColdPaper {
        let _ = std::fs::remove_dir_all(&cache);
        let _ = std::fs::remove_dir_all(&hist);
    }
    let mut why = String::new();
    let mut counter_keys = Vec::new();
    let mut grade = None;
    if f.timed_out {
        why = "timed out".into();
    } else if f.exit_code != Some(0) {
        why = format!("exit {:?}: {}", f.exit_code, f.stderr.trim());
    } else {
        match oracle::parse(&f.stdout) {
            Err(e) => why = e,
            Ok(doc) => {
                counter_keys = oracle::counter_keys(&doc);
                if ctx.kind == Kind::ColdPaper {
                    let g = oracle::grade(&p.corpus.manifest, &doc);
                    if !g.pass {
                        why = g.why.clone();
                    }
                    grade = Some(g);
                } else if oracle::fingerprints(&doc) != p.baseline {
                    why = "finding fingerprints differ from the cold fill's".into();
                }
            }
        }
    }
    Ok(Op {
        ok: why.is_empty(),
        wall_ms: f.wall_ms,
        cpu_ms: f.cpu_ms,
        rss_mb: f.maxrss_mb,
        written,
        counter_keys,
        grade,
        why,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (Ready { p, mut editor }, setup_s, setup_times) = set_up(ctx)?;
    settle_disk();
    let mut ops = Vec::new();
    let start = Instant::now();
    while ops.len() < MIN_OPS || start.elapsed().as_secs_f64() < ctx.seconds {
        let o = op(ctx, &p, editor.as_mut(), ops.len() + 1)?;
        if !o.ok {
            eprintln!("perfbench: op {} failed: {}", ops.len(), o.why);
        }
        ops.push(o);
    }
    let n = ops.len();
    let failed = ops.iter().filter(|o| !o.ok).count();
    let lat: Vec<f64> = ops.iter().map(|o| o.wall_ms).collect();
    let t = tail(&lat);
    let latency_list: Vec<f64> = lat.iter().map(|v| v.round()).collect();
    let first_keys = &ops[0].counter_keys;
    let mismatches = ops
        .iter()
        .filter(|o| o.ok && &o.counter_keys != first_keys)
        .count();
    let slo = ctx.kind.slo_ms();
    let within = ops.iter().filter(|o| o.ok && o.wall_ms <= slo).count();
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("latency_p50_ms", median(&lat), "ms"),
        metric("latency_tail_ms", t.value, "ms"),
        metric(
            "cpu_ms_per_op",
            ops.iter().map(|o| o.cpu_ms).sum::<f64>() / n as f64,
            "ms",
        ),
        metric(
            "peak_rss_mb",
            ops.iter().map(|o| o.rss_mb).fold(0.0, f64::max),
            "MB",
        ),
        metric(
            "written_mb_per_op",
            ops.iter().map(|o| o.written as f64).sum::<f64>() / n as f64 / 1e6,
            "MB",
        ),
        metric("within_slo_share", within as f64 / n as f64, "share"),
        metric("ok_share", (n - failed) as f64 / n as f64, "share"),
    ];
    let failures: Vec<String> = ops
        .iter()
        .filter(|o| !o.ok)
        .map(|o| o.why.clone())
        .take(5)
        .collect();
    let detail = vec![
        ("ops".into(), serde_json::json!(n)),
        ("setup_times_s".into(), serde_json::json!(setup_times)),
        (
            "latency_tail".into(),
            serde_json::json!({
                "percentile": t.percentile, "samples": t.samples, "beyond": t.beyond
            }),
        ),
        ("latencies_ms".into(), serde_json::json!(latency_list)),
        ("slo_ms".into(), serde_json::json!(slo)),
        ("doc_mismatch_ops".into(), serde_json::json!(mismatches)),
        ("setup_oracle".into(), grade_json(&p.setup_grade)),
        (
            "op_oracle".into(),
            ops[0].grade.as_ref().map(grade_json).unwrap_or_default(),
        ),
        ("failures".into(), serde_json::json!(failures)),
    ];
    Ok(Outcome {
        attempted: n,
        failed,
        valid: p.setup_grade.pass,
        metrics,
        detail,
    })
}

pub fn grade_json(g: &oracle::Grade) -> serde_json::Value {
    serde_json::json!({
        "pass": g.pass,
        "bugs_injected": g.bugs_injected,
        "bugs_found": g.bugs_found,
        "unexplained_pairings": g.unexplained_pairings,
        "decoy_pairings": g.decoy_pairings,
        "decoy_false_positives": g.decoy_false_positives,
        "why": g.why.clone(),
    })
}
