//! The traced run: a separate run, never one of the timed ones, that
//! replays a workload's ops in-process as the sequence of public calls
//! the product path makes, with spans recorded here on an
//! `obs::Recorder` around each call. The engine is one call; what
//! happens inside it is found by re-invoking each layer's public
//! function on the inputs the engine handled, after the op, and the
//! residue is reported as `engine.unattributed_ms`.
//!
//! Untraced and traced replica ops alternate; the difference of their
//! medians is the tracing overhead. Spans stay in memory and are written
//! to `.bench_spans/<workload>-<seed>.json` when the run ends.

use crate::cli_runs::prepare;
use crate::disk::DiskTracker;
use crate::load::{self, SlotKind};
use crate::oracle;
use crate::proc::fresh_dir;
use crate::serve_run::{connections, Conn};
use crate::stats::median;
use crate::workload::{materialize, Editor, Kind};
use crate::{metric, Ctx, Metric, Outcome};
use ofence::{AnalysisConfig, AnalysisResult, Engine, SourceFile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-op samples of every per-layer metric; medians are reported.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).map(|v| median(v)).unwrap_or(0.0)
    }
}

/// Time `f` under a span named `name` when tracing.
fn span<T>(rec: Option<&obs::Recorder>, name: &str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => {
            let _g = r.span(name);
            f()
        }
        None => f(),
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// How the product path under replay is wired.
struct Wiring<'a> {
    config: &'a AnalysisConfig,
    corpus: String,
    cache: &'a Path,
    hist: &'a Path,
    /// The daemon snapshots twice and keys the snapshot; the CLI walks
    /// once and loads the disk cache into a fresh engine.
    daemon: bool,
}

/// What one replica op produced.
struct OpOut {
    result: AnalysisResult,
    sources: Vec<SourceFile>,
    doc: serde_json::Value,
    report_bytes: usize,
    load_bytes: u64,
    save_bytes: u64,
    shards_written: usize,
    ledger_bytes: u64,
    records: usize,
}

/// One op of the product path, as the CLI (`analyze`) or the session
/// (`analyze` request) runs it.
fn replica_op(
    p: &Wiring<'_>,
    engine: &mut Engine,
    rec: Option<&obs::Recorder>,
) -> Result<OpOut, String> {
    let paths = vec![p.corpus.clone()];
    let sources = if p.daemon {
        span(rec, "session.snapshot", || {
            let mut last = None;
            for _ in 0..2 {
                let s = span(rec, "walk", || ofence::collect_sources(&paths))?;
                let key = span(rec, "cache.hash", || {
                    ofence::session::corpus_key(&s, p.config)
                });
                last = Some((s, key));
            }
            Ok::<_, String>(last.expect("two passes").0)
        })?
    } else {
        span(rec, "walk", || ofence::collect_sources(&paths))?
    };
    let mut load_bytes = 0;
    if !p.daemon {
        load_bytes = DiskTracker::new(&[p.cache]).total_bytes();
        span(rec, "cache.load", || engine.load_disk_cache(p.cache));
    }
    let result = span(rec, "engine", || engine.analyze(&sources));
    let mut cache_tracker = DiskTracker::new(&[p.cache]);
    span(rec, "cache.save", || engine.save_disk_cache(p.cache))?;
    let save_bytes = cache_tracker.written_since();
    let shards_written = cache_tracker.last_files;
    let mut hist_tracker = DiskTracker::new(&[p.hist]);
    let config = p.config;
    let append_perf = || {
        let r = ofence::perf::record_of(&result, config, None);
        ofence::perf::append(p.hist, &r)
    };
    if !p.daemon {
        span(rec, "ledger", append_perf)?;
    }
    let records = span(rec, "fingerprint", || {
        ofence::finding_records(&result.deviations, &result.sites, &result.files)
    });
    let n_records = records.len();
    span(rec, "ledger", || {
        let r = ofence::history::record_of(&result, config, records);
        ofence::history::append(p.hist, &r)
    })?;
    if p.daemon {
        span(rec, "ledger", append_perf)?;
    }
    let ledger_bytes = hist_tracker.written_since();
    let (doc, report_bytes) = span(rec, "report", || {
        let doc = result.to_json();
        let text = if p.daemon {
            serde_json::to_string(&doc)
        } else {
            serde_json::to_string_pretty(&doc)
        }
        .expect("report serializes");
        let n = std::hint::black_box(text).len();
        (doc, n)
    });
    Ok(OpOut {
        result,
        sources,
        doc,
        report_bytes,
        load_bytes,
        save_bytes,
        shards_written,
        ledger_bytes,
        records: n_records,
    })
}

/// Per-layer busy nanoseconds of the per-file replay.
#[derive(Default)]
struct FrontBusy {
    lex: AtomicU64,
    pp: AtomicU64,
    parse: AtomicU64,
    lower: AtomicU64,
    extract: AtomicU64,
    tokens: AtomicU64,
    cfg_nodes: AtomicU64,
}

fn add_ns(a: &AtomicU64, t: Instant) {
    a.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Re-invoke every layer on the inputs the engine handled in `out` and
/// attribute the engine span. `dirty` names the files the engine had to
/// analyze (all of them when `None`).
fn replay(
    out: &OpOut,
    config: &AnalysisConfig,
    dirty: Option<&[String]>,
    engine_ms: f64,
    s: &mut Samples,
    replay_rec: &obs::Recorder,
) {
    let r = &out.result;
    let counter = |n: &str| r.obs.count_of(n) as f64;
    // Hashing: the engine keys its cache on every file's content hash.
    let t = Instant::now();
    for f in &out.sources {
        std::hint::black_box(ofence::cache::content_hash(f.content.as_bytes()));
    }
    let hash_ms = ms(t);

    // Per-file front end, on the same pool the engine uses.
    let todo: Vec<usize> = out
        .sources
        .iter()
        .enumerate()
        .filter(|(_, f)| dirty.is_none_or(|d| d.iter().any(|n| f.name.ends_with(n.as_str()))))
        .map(|(i, _)| i)
        .collect();
    let busy = FrontBusy::default();
    let frontend = ckit::FrontendConfig::default();
    {
        let _g = replay_rec.span("replay.frontend");
        ofence::pool::global().run_batch(&todo, replay_rec, &|_, i| {
            let f = &out.sources[i];
            let t = Instant::now();
            let Ok(tokens) = ckit::lexer::lex(&f.content) else {
                return;
            };
            add_ns(&busy.lex, t);
            busy.tokens
                .fetch_add(tokens.len() as u64, Ordering::Relaxed);
            let t = Instant::now();
            let Ok(ppo) = ckit::pp::preprocess(tokens, &frontend.pp) else {
                return;
            };
            add_ns(&busy.pp, t);
            let t = Instant::now();
            let parsed = ckit::parser::parse_tokens(ppo.tokens, &frontend.parser);
            add_ns(&busy.parse, t);
            let parsed = ckit::ParsedFile {
                unit: parsed.unit,
                map: ckit::SourceMap::new(f.name.as_str(), &f.content),
                source: f.content.clone(),
                errors: parsed.errors,
                includes: ppo.includes,
            };
            let t = Instant::now();
            let lowered = cfgir::LoweredFile::lower(&parsed);
            add_ns(&busy.lower, t);
            let nodes: usize = lowered.cfgs.iter().map(|c| c.ids().count()).sum();
            busy.cfg_nodes.fetch_add(nodes as u64, Ordering::Relaxed);
            drop(lowered);
            // `analyze_file` lowers again before extracting: extraction
            // is its total minus the lowering timed above.
            let t = Instant::now();
            std::hint::black_box(ofence::sites::analyze_file(i, &parsed, config));
            add_ns(&busy.extract, t);
        });
    }
    let get = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / 1e6;
    let (lex, pp, parse, lower) = (
        get(&busy.lex),
        get(&busy.pp),
        get(&busy.parse),
        get(&busy.lower),
    );
    let extract = (get(&busy.extract) - lower).max(0.0);
    let replay_busy = lex + pp + parse + lower + extract;
    // The engine ran this phase on its pool: its batch wall is the
    // workers' busy plus idle time over the worker count.
    let workers = ofence::pool::global().workers() as f64;
    let (wbusy, widle) = (counter("worker_busy_us"), counter("worker_idle_us"));
    let batch_wall = (wbusy + widle) / workers / 1e3;
    let share = |x: f64| {
        if replay_busy > 0.0 {
            x / replay_busy * batch_wall
        } else {
            0.0
        }
    };
    s.push("ckit.lex_ms", share(lex));
    s.push("ckit.pp_ms", share(pp));
    s.push("ckit.parse_ms", share(parse));
    s.push("cfgir.lower_ms", share(lower));
    s.push("sites.extract_ms", share(extract));
    s.push("ckit.files", counter("ckit_files_parsed"));
    s.push(
        "ckit.tokens_per_s",
        if lex > 0.0 {
            busy.tokens.load(Ordering::Relaxed) as f64 / (lex / 1e3)
        } else {
            0.0
        },
    );
    s.push(
        "cfgir.cfg_nodes",
        busy.cfg_nodes.load(Ordering::Relaxed) as f64,
    );
    s.push("sites.barrier_sites", r.sites.len() as f64);
    s.push(
        "pool.busy_ratio",
        if wbusy + widle > 0.0 {
            wbusy / (wbusy + widle)
        } else {
            0.0
        },
    );
    s.push("pool.steals", counter("pool_steals"));

    // Global phases, serial in the engine.
    let mut files = r.files.clone();
    let t = Instant::now();
    let composed = (config.ipa_depth > 0).then(|| {
        let _g = replay_rec.span("replay.compose");
        let roots: Vec<(usize, String)> = files
            .iter()
            .flat_map(|fa| {
                fa.window_calls
                    .iter()
                    .flatten()
                    .map(|c| (fa.file, c.callee.clone()))
            })
            .collect();
        let index = ofence::ComposedIndex::build_rooted(&files, config.ipa_depth, &roots);
        ofence::summary::augment_sites(&mut files, &index, config);
        index
    });
    let compose_ms = if composed.is_some() { ms(t) } else { 0.0 };
    s.push("summary.compose_ms", compose_ms);
    s.push(
        "summary.composed_fns",
        composed.as_ref().map(|c| c.len()).unwrap_or(0) as f64,
    );
    let timed = |name: &str, f: &mut dyn FnMut()| {
        let _g = replay_rec.span(name);
        let t = Instant::now();
        f();
        ms(t)
    };
    let pair_ms = timed("replay.pairing", &mut || {
        std::hint::black_box(ofence::pairing::pair_barriers(&r.sites, config));
    });
    let check_ms = timed("replay.deviation", &mut || {
        std::hint::black_box(ofence::deviation::check_all(
            &r.sites, &r.pairing, &r.files, config,
        ));
    });
    let missing_ms = if config.detect_missing {
        let scratch = obs::Recorder::new();
        timed("replay.missing", &mut || {
            std::hint::black_box(ofence::missing::detect_traced(
                &r.files,
                &r.sites,
                &r.pairing,
                config,
                composed.as_ref(),
                &scratch,
            ));
        })
    } else {
        0.0
    };
    let patch_ms = timed("replay.patch", &mut || {
        for d in &r.deviations {
            std::hint::black_box(ofence::patch::synthesize(d, &r.files[d.site.file]));
        }
    });
    let annotate_ms = timed("replay.annotate", &mut || {
        let found = ofence::annotate::find_missing_annotations(&r.sites, &r.pairing);
        for d in &found {
            std::hint::black_box(ofence::annotate::synthesize_annotation(
                d,
                &r.files[d.site.file],
            ));
        }
    });
    s.push("pairing.ms", pair_ms);
    s.push("pairing.pairings", r.pairing.pairings.len() as f64);
    s.push("deviation.ms", check_ms);
    s.push("deviation.findings", r.deviations.len() as f64);
    s.push("missing.ms", missing_ms);
    s.push("patch.ms", patch_ms);
    s.push("patch.patches", r.patches.len() as f64);
    s.push("annotate.ms", annotate_ms);
    s.push("annotate.annotations", r.annotations.len() as f64);
    s.push("cache.engine_hash_ms", hash_ms);
    let attributed = hash_ms
        + batch_wall
        + compose_ms
        + pair_ms
        + check_ms
        + missing_ms
        + patch_ms
        + annotate_ms;
    s.push("engine.analyze_ms", engine_ms);
    s.push("engine.files_analyzed", counter("engine_files_analyzed"));
    s.push("engine.unattributed_ms", engine_ms - attributed);
    s.push(
        "cache.hit_ratio",
        counter("engine_cache_hits") / out.sources.len().max(1) as f64,
    );
}

/// Sum of the durations of spans named `name` in a snapshot, in ms.
fn span_ms(snap: &obs::Snapshot, name: &str) -> f64 {
    snap.total_us_of(name) as f64 / 1e3
}

/// Record one traced op's own spans into the samples.
fn op_samples(snap: &obs::Snapshot, out: &OpOut, daemon: bool, op_ms: f64, s: &mut Samples) {
    let passes = if daemon { 2.0 } else { 1.0 };
    s.push("walk.ms", span_ms(snap, "walk"));
    s.push("walk.files", out.sources.len() as f64 * passes);
    s.push(
        "walk.read_mb",
        out.sources.iter().map(|f| f.content.len()).sum::<usize>() as f64 * passes / 1e6,
    );
    s.push("cache.key_ms", span_ms(snap, "cache.hash"));
    s.push("cache.load_ms", span_ms(snap, "cache.load"));
    s.push("cache.load_mb", out.load_bytes as f64 / 1e6);
    s.push("cache.save_ms", span_ms(snap, "cache.save"));
    s.push("cache.save_mb", out.save_bytes as f64 / 1e6);
    s.push("cache.shards_written", out.shards_written as f64);
    s.push("fingerprint.ms", span_ms(snap, "fingerprint"));
    s.push("fingerprint.records", out.records as f64);
    s.push("report.render_ms", span_ms(snap, "report"));
    s.push("report.mb", out.report_bytes as f64 / 1e6);
    s.push("ledger.append_ms", span_ms(snap, "ledger"));
    s.push("ledger.bytes", out.ledger_bytes as f64);
    s.push("session.snapshot_ms", span_ms(snap, "session.snapshot"));
    s.push("trace.op_ms", op_ms);
    let top: f64 = [
        "session.snapshot",
        "cache.load",
        "engine",
        "cache.save",
        "ledger",
        "fingerprint",
        "report",
    ]
    .iter()
    .map(|n| span_ms(snap, n))
    .sum::<f64>()
        + if daemon { 0.0 } else { span_ms(snap, "walk") };
    s.push("trace.accounted_ratio", top / op_ms);
}

fn spans_json(snap: &obs::Snapshot) -> serde_json::Value {
    serde_json::Value::Array(
        snap.spans
            .iter()
            .map(|sp| {
                serde_json::json!({
                    "id": sp.id, "parent": sp.parent, "name": sp.name.clone(),
                    "start_us": sp.start_us, "dur_us": sp.dur_us
                })
            })
            .collect(),
    )
}

/// Replay ops until the time budget is spent: untraced and traced ops
/// alternate, every traced op is followed by the layer replay. Each op
/// runs on a fresh engine (a CLI process) unless `persistent` is given
/// (the daemon's long-lived engine). `before_op(k)` applies op `k`'s edit
/// and names the files it dirtied (`None`: all of them).
fn replica_loop(
    p: &Wiring<'_>,
    budget_s: f64,
    mut before_op: impl FnMut(usize) -> Result<Option<Vec<String>>, String>,
    mut persistent: Option<&mut Engine>,
    mut check: impl FnMut(&serde_json::Value) -> oracle::Grade,
    s: &mut Samples,
    ops_json: &mut Vec<serde_json::Value>,
) -> Result<(usize, usize, Vec<String>), String> {
    let t0 = Instant::now();
    let mut untraced = Vec::new();
    let mut k = 0;
    let mut failed = 0;
    let mut first_keys: Option<Vec<String>> = None;
    let mut mismatches = 0;
    let mut failures = Vec::new();
    // Warm-up op, untimed: page cache and allocator settle first.
    before_op(usize::MAX)?;
    let mut fresh = Engine::new(p.config.clone());
    replica_op(p, persistent.as_deref_mut().unwrap_or(&mut fresh), None)?;
    while t0.elapsed().as_secs_f64() < budget_s || k < 4 {
        let dirty = before_op(k)?;
        let traced = k % 2 == 1;
        let rec = obs::Recorder::new();
        let mut fresh = Engine::new(p.config.clone());
        let engine = match persistent.as_deref_mut() {
            Some(e) => e,
            None => &mut fresh,
        };
        let t = Instant::now();
        let out = replica_op(p, engine, traced.then_some(&rec))?;
        let op_ms = ms(t);
        if !traced {
            untraced.push(op_ms);
        } else {
            let snap = rec.snapshot();
            op_samples(&snap, &out, p.daemon, op_ms, s);
            let replay_rec = obs::Recorder::new();
            let engine_ms = span_ms(&snap, "engine");
            replay(&out, p.config, dirty.as_deref(), engine_ms, s, &replay_rec);
            let keys = oracle::counter_keys(&out.doc);
            match &first_keys {
                None => first_keys = Some(keys),
                Some(f) if *f != keys => mismatches += 1,
                Some(_) => {}
            }
            ops_json.push(serde_json::json!({
                "op": k,
                "wall_ms": op_ms,
                "spans": spans_json(&snap),
                "replay_spans": spans_json(&replay_rec.snapshot()),
            }));
        }
        let g = check(&out.doc);
        if !g.pass {
            failed += 1;
            failures.push(g.why);
        }
        k += 1;
    }
    s.push("trace.untraced_op_ms", median(&untraced));
    s.push("report.doc_mismatch_ops", mismatches as f64);
    Ok((k, failed, failures))
}

fn write_spans(ctx: &Ctx, name: &str, ops: Vec<serde_json::Value>) -> Option<PathBuf> {
    let root = ctx.dir.parent()?.parent()?.join(".bench_spans");
    std::fs::create_dir_all(&root).ok()?;
    let path = root.join(format!("{name}-{}.json", ctx.seed));
    let doc = serde_json::json!({ "workload": name, "seed": ctx.seed, "ops": ops });
    std::fs::write(&path, serde_json::to_string(&doc).ok()?).ok()?;
    Some(path)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let config = ctx.kind.config();
    let mut s = Samples::default();
    let mut ops_json = Vec::new();
    let name = match ctx.kind {
        Kind::ColdPaper => "cold-paper",
        Kind::Warm12kEdit => "warm-12k-edit",
        Kind::Serve1k2Mixed => "serve-1k2-mixed",
    };
    let (attempted, failed, failures, extra) = match ctx.kind {
        Kind::ColdPaper | Kind::Warm12kEdit => {
            let prep = prepare(ctx, ctx.dir.join("rep0"))?;
            // Run where the CLI ran, so file names (and with them finding
            // fingerprints) match the cold fill's.
            std::env::set_current_dir(&prep.root).map_err(|e| e.to_string())?;
            let corpus_dir = "corpus".to_string();
            let warm = ctx.kind == Kind::Warm12kEdit;
            let mut editor = warm.then(|| {
                Editor::new(
                    prep.corpus.clone(),
                    prep.root.join("corpus"),
                    ctx.seed,
                    false,
                )
            });
            let cache = PathBuf::from("cache");
            let hist = PathBuf::from("hist");
            let p = Wiring {
                config: &config,
                corpus: corpus_dir,
                cache: &cache,
                hist: &hist,
                daemon: false,
            };
            let manifest = prep.corpus.manifest.clone();
            let baseline = prep.baseline.clone();
            let before = |_k: usize| -> Result<Option<Vec<String>>, String> {
                match editor.as_mut() {
                    Some(ed) => Ok(Some(vec![ed.edit()?])),
                    None => {
                        fresh_dir(cache.clone())?;
                        fresh_dir(hist.clone())?;
                        Ok(None)
                    }
                }
            };
            let check = |doc: &serde_json::Value| {
                if warm {
                    let same = oracle::fingerprints(doc) == baseline;
                    oracle::Grade {
                        pass: same,
                        why: if same {
                            String::new()
                        } else {
                            "fingerprints differ from the cold fill's".into()
                        },
                        ..Default::default()
                    }
                } else {
                    oracle::grade(&manifest, doc)
                }
            };
            let (k, failed, failures) =
                replica_loop(&p, ctx.seconds, before, None, check, &mut s, &mut ops_json)?;
            (k, failed, failures, Vec::new())
        }
        Kind::Serve1k2Mixed => serve(ctx, &config, &mut s, &mut ops_json)?,
    };
    let spans = write_spans(ctx, name, ops_json);
    let overhead = s.get("trace.op_ms") - s.get("trace.untraced_op_ms");
    s.push("trace.overhead_ms", overhead);
    s.push(
        "cache.hash_ms",
        s.get("cache.engine_hash_ms") + s.get("cache.key_ms"),
    );
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(n, unit)| metric(n, s.get(n), unit))
        .collect();
    let mut detail = vec![
        ("ops".into(), serde_json::json!(attempted)),
        (
            "span_file".into(),
            serde_json::json!(spans.map(|p| p.display().to_string())),
        ),
        (
            "failures".into(),
            serde_json::json!(failures.iter().take(5).collect::<Vec<_>>()),
        ),
    ];
    detail.extend(extra);
    Ok(Outcome {
        attempted,
        failed,
        valid: true,
        metrics,
        detail,
    })
}

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("walk.ms", "ms"),
    ("walk.files", "count"),
    ("walk.read_mb", "MB"),
    ("cache.hash_ms", "ms"),
    ("cache.load_ms", "ms"),
    ("cache.load_mb", "MB"),
    ("cache.save_ms", "ms"),
    ("cache.save_mb", "MB"),
    ("cache.shards_written", "count"),
    ("cache.hit_ratio", "ratio"),
    ("ckit.lex_ms", "ms"),
    ("ckit.pp_ms", "ms"),
    ("ckit.parse_ms", "ms"),
    ("ckit.files", "count"),
    ("ckit.tokens_per_s", "1/s"),
    ("cfgir.lower_ms", "ms"),
    ("cfgir.cfg_nodes", "count"),
    ("sites.extract_ms", "ms"),
    ("sites.barrier_sites", "count"),
    ("summary.compose_ms", "ms"),
    ("summary.composed_fns", "count"),
    ("pairing.ms", "ms"),
    ("pairing.pairings", "count"),
    ("deviation.ms", "ms"),
    ("deviation.findings", "count"),
    ("missing.ms", "ms"),
    ("patch.ms", "ms"),
    ("patch.patches", "count"),
    ("annotate.ms", "ms"),
    ("annotate.annotations", "count"),
    ("fingerprint.ms", "ms"),
    ("fingerprint.records", "count"),
    ("report.render_ms", "ms"),
    ("report.mb", "MB"),
    ("report.doc_mismatch_ops", "count"),
    ("ledger.append_ms", "ms"),
    ("ledger.bytes", "bytes"),
    ("engine.analyze_ms", "ms"),
    ("engine.files_analyzed", "count"),
    ("engine.unattributed_ms", "ms"),
    ("pool.busy_ratio", "ratio"),
    ("pool.steals", "count"),
    ("session.snapshot_ms", "ms"),
    ("session.snapshot_passes", "count"),
    ("session.coalesced_ratio", "ratio"),
    ("session.queue_wait_ms", "ms"),
    ("server.ping_ms", "ms"),
    ("server.response_mb", "MB"),
    ("server.wire_ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.accounted_ratio", "ratio"),
];

type Extra = Vec<(String, serde_json::Value)>;

/// The serve workload's traced run, in three phases: replica ops of the
/// session's request path (layer breakdown), the mixed load against an
/// in-process `Session` called directly (coalescing, snapshot passes,
/// engine-lock queueing), and the same load through `server::serve` on
/// loopback (wire cost, ping under load).
fn serve(
    ctx: &Ctx,
    config: &AnalysisConfig,
    s: &mut Samples,
    ops_json: &mut Vec<serde_json::Value>,
) -> Result<(usize, usize, Vec<String>, Extra), String> {
    let root = fresh_dir(ctx.dir.join("rep0"))?;
    let corpus_dir = root.join("corpus");
    let corpus = materialize(ctx.kind, ctx.size, ctx.seed, &corpus_dir)?;
    let editor = Mutex::new(Editor::new(corpus, corpus_dir.clone(), ctx.seed, true));
    let cache = fresh_dir(root.join("cache"))?;
    let hist = fresh_dir(root.join("hist"))?;
    let p = Wiring {
        config,
        corpus: corpus_dir.display().to_string(),
        cache: &cache,
        hist: &hist,
        daemon: true,
    };
    // Phase a: replica ops on one long-lived engine, warmed cold first.
    let mut engine = Engine::new(config.clone());
    replica_op(&p, &mut engine, None)?;
    let slots = load::schedule(load::SCHEDULE_SEED, ctx.seconds, load::RATE_PER_S);
    let (k, mut failed, mut failures) = {
        let editor = &editor;
        replica_loop(
            &p,
            ctx.seconds * 0.4,
            |k| {
                let mut ed = editor.lock().expect("editor");
                if slots[k % slots.len()].kind == SlotKind::Edit {
                    Ok(Some(vec![ed.edit()?]))
                } else {
                    Ok(Some(Vec::new()))
                }
            },
            Some(&mut engine),
            |doc| {
                let ed = editor.lock().expect("editor");
                oracle::grade(ed.manifest(ed.version()), doc)
            },
            s,
            ops_json,
        )?
    };
    drop(engine);

    // Phase b: the session, called directly from one thread per
    // connection.
    let cache2 = fresh_dir(root.join("cache2"))?;
    let hist2 = fresh_dir(root.join("hist2"))?;
    let session = Arc::new(ofence::Session::new(ofence::SessionOptions {
        config: config.clone(),
        paths: vec![corpus_dir.display().to_string()],
        cache_dir: Some(cache2),
        history_dir: Some(hist2.clone()),
    }));
    let warm = session.begin_request("analyze", Some("warm".into()));
    session.analyze_document(&warm)?;
    let phase_slots = load::schedule(
        load::SCHEDULE_SEED ^ 0xb,
        ctx.seconds * 0.3,
        load::RATE_PER_S,
    );
    struct Direct {
        enter: Instant,
        coalesced: bool,
        spans: Vec<obs::SpanRecord>,
        doc: Result<serde_json::Value, String>,
        version: (usize, usize),
    }
    let direct = load::run(&phase_slots, connections(), |_| {
        let (session, editor) = (&session, &editor);
        move |job: &load::Job| {
            if job.kind == SlotKind::Edit {
                let _ = editor.lock().expect("editor").edit();
            }
            let v0 = editor.lock().expect("editor").version();
            let req = session.begin_request("analyze", Some(format!("direct-{}", job.seq)));
            let enter = Instant::now();
            let doc = session.analyze_document(&req);
            let v1 = editor.lock().expect("editor").version();
            Direct {
                enter,
                coalesced: req.coalesced(),
                spans: req.rec.snapshot().spans,
                doc,
                version: (v0, v1),
            }
        }
    });
    // Engine-lock queueing: leaders hold the engine one at a time, and a
    // leader's `serve_run` span ends right after it releases the lock.
    // A leader waited from its own `serve_run` start until the previous
    // holder's end.
    let t_base = direct.done.iter().map(|d| d.2.enter).min();
    let mut leaders: Vec<(f64, f64)> = direct
        .done
        .iter()
        .filter(|d| !d.2.coalesced)
        .filter_map(|(_, _, d)| {
            let sp = d.spans.iter().find(|sp| sp.name == "serve_run")?;
            let start =
                d.enter.duration_since(t_base?).as_secs_f64() * 1e3 + sp.start_us as f64 / 1e3;
            Some((start, start + sp.dur_us as f64 / 1e3))
        })
        .collect();
    leaders.sort_by(|a, b| a.1.total_cmp(&b.1));
    let waits: Vec<f64> = leaders
        .iter()
        .enumerate()
        .map(|(i, &(start, _))| {
            let prev_end = if i > 0 { leaders[i - 1].1 } else { start };
            (prev_end - start).max(0.0)
        })
        .collect();
    s.push(
        "session.queue_wait_ms",
        waits.iter().sum::<f64>() / waits.len().max(1) as f64,
    );
    let c = &session.counters;
    let requests = c.requests.load(Ordering::Relaxed).max(1) as f64;
    s.push(
        "session.coalesced_ratio",
        c.coalesced.load(Ordering::Relaxed) as f64 / requests,
    );
    s.push(
        "session.snapshot_passes",
        2.0 + c.snapshot_retries.load(Ordering::Relaxed) as f64 / requests,
    );
    for (_, _, d) in &direct.done {
        if let Err(why) = grade_in_flight(&editor, d.doc.as_ref(), d.version) {
            failed += 1;
            failures.push(format!("direct session request: {why}"));
        }
    }

    // Phase c: the same session behind the wire protocol.
    let server = ofence::server::serve("127.0.0.1:0", session.clone())?;
    let addr = server.addr().to_string();
    let wire_slots = load::schedule(
        load::SCHEDULE_SEED ^ 0xc,
        ctx.seconds * 0.3,
        load::RATE_PER_S,
    );
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (wire, pings) = std::thread::scope(|sc| {
        let pinger = sc.spawn(|| {
            let mut conn = Conn::new(&addr);
            let mut rtts = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let t = Instant::now();
                if conn.call("{\"id\":0,\"method\":\"ping\"}").is_ok() {
                    rtts.push(ms(t));
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            rtts
        });
        let wire = load::run(&wire_slots, connections(), |_| {
            let mut conn = Conn::new(&addr);
            let editor = &editor;
            move |job: &load::Job| {
                if job.kind == SlotKind::Edit {
                    let _ = editor.lock().expect("editor").edit();
                }
                let v0 = editor.lock().expect("editor").version();
                let id = format!("wire-{}", job.seq);
                let req = format!(
                    "{{\"id\":{},\"request_id\":\"{id}\",\"method\":\"analyze\"}}",
                    job.seq
                );
                let t = Instant::now();
                let r = conn.call(&req);
                let rtt = ms(t);
                let v1 = editor.lock().expect("editor").version();
                (id, rtt, r, (v0, v1))
            }
        });
        stop.store(true, Ordering::Relaxed);
        (wire, pinger.join().unwrap_or_default())
    });
    server.shutdown();
    let (records, _) = ofence::perf::load_requests(&hist2)?;
    let in_process: BTreeMap<&str, f64> = records
        .iter()
        .map(|r| (r.request_id.as_str(), r.latency_us as f64 / 1e3))
        .collect();
    let mut wire_ms = Vec::new();
    let mut resp_mb = Vec::new();
    for (_, _, (id, rtt, r, versions)) in &wire.done {
        if let Ok(line) = r {
            resp_mb.push(line.len() as f64 / 1e6);
            if let Some(doc_ms) = in_process.get(id.as_str()) {
                wire_ms.push(rtt - doc_ms);
            }
        }
        let doc = r
            .clone()
            .and_then(|line| crate::serve_run::result_of(&line));
        if let Err(why) = grade_in_flight(&editor, doc.as_ref(), *versions) {
            failed += 1;
            failures.push(format!("wire request {id}: {why}"));
        }
    }
    s.push("server.ping_ms", median(&pings));
    s.push("server.response_mb", median(&resp_mb));
    s.push("server.wire_ms", median(&wire_ms));
    let attempted = k + direct.done.len() + wire.done.len();
    let extra = vec![
        ("replica_ops".into(), serde_json::json!(k)),
        (
            "direct_requests".into(),
            serde_json::json!(direct.done.len()),
        ),
        ("wire_requests".into(), serde_json::json!(wire.done.len())),
        ("ping_probes".into(), serde_json::json!(pings.len())),
    ];
    Ok((attempted, failed, failures, extra))
}

/// Grade a session answer against every manifest that was current while
/// its request was in flight.
fn grade_in_flight(
    editor: &Mutex<Editor>,
    doc: Result<&serde_json::Value, &String>,
    versions: (usize, usize),
) -> Result<(), String> {
    let g = editor
        .lock()
        .expect("editor")
        .grade(doc.map_err(|e| e.clone())?, versions);
    if g.pass {
        Ok(())
    } else {
        Err(g.why)
    }
}
