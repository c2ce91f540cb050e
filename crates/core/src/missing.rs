//! Missing-barrier detection — a dataflow extension beyond the paper's
//! deviation list.
//!
//! Algorithm 1 leaves a write barrier unpaired when no read barrier shares
//! its objects. Usually that means no concurrent reader exists — but
//! sometimes the reader exists and simply *lacks its fence*. This pass
//! hunts for such readers: barrier-free functions that load the objects an
//! unpaired write barrier publishes, in the ordering-sensitive
//! guard-then-payload shape, and reports the absent read fence with a
//! machine-verifiable insertion patch (applying it makes the writer pair
//! on re-analysis, which removes the diagnostic).
//!
//! The *outlier rule* keeps the false-positive rate in check: a fence-less
//! reader is only reported when the guard load conditionally dominates the
//! dependent loads (the shape a fence protects) and the reader is the
//! anomaly among its siblings — either every other reader of the same
//! objects kept its fence, or it is the only reader of the protocol at
//! all. Disabling the rule ([`crate::AnalysisConfig::outlier_rule`])
//! reports every object overlap, which the ablation benchmark shows is
//! noisy.

use crate::config::AnalysisConfig;
use crate::deviation::{Deviation, DeviationKind};
use crate::extract::accesses_in_node;
use crate::ir::*;
use crate::pairing::PairingResult;
use crate::sites::FileAnalysis;
use crate::summary::ComposedIndex;
use cfgir::{dominators, Cfg, LoweredFile, NodeId, NodeKind, TypeEnv};
use ckit::span::Span;
use ckit::ParsedFile;
use std::sync::Arc;

/// One load in a candidate reader function.
#[derive(Debug)]
struct Load {
    object: SharedObject,
    node: NodeId,
    span: Span,
    line: u32,
}

/// A barrier-free function, summarized for the detector. Built once per
/// file, in the per-file phase, and kept on [`FileAnalysis::readers`], so
/// a run only matches writers against summaries it already has.
#[derive(Debug)]
pub struct ReaderSummary {
    name: String,
    reads: Box<[Load]>,
    /// Objects the function stores to (a true reader has none of the
    /// protocol's).
    writes: Box<[SharedObject]>,
    /// `(guard, payload)` indices into `reads`, ascending: the guard load
    /// sits in a branch condition whose node dominates the payload load's
    /// (distinct) node — the shape a fence protects.
    guarded: Box<[(u32, u32)]>,
}

/// A reader summary placed in the corpus.
struct Reader<'a> {
    file: usize,
    file_name: &'a str,
    summary: &'a ReaderSummary,
}

/// The evidence a candidate produced: which guard/payload loads matched.
struct Candidate<'a> {
    reader: &'a Reader<'a>,
    guard: &'a Load,
    payload: &'a Load,
    /// Guard load sits in a condition that dominates the payload load and
    /// the reader never stores the protocol objects.
    strict: bool,
}

/// Detect missing read-side fences for every unpaired-without-match write
/// barrier. Called by the engine when
/// [`AnalysisConfig::detect_missing`] is set.
pub fn detect(
    files: &[Arc<FileAnalysis>],
    sites: &[BarrierSite],
    pairing: &PairingResult,
    config: &AnalysisConfig,
) -> Vec<Deviation> {
    let rec = obs::Recorder::new();
    detect_traced(files, sites, pairing, config, None, &rec)
}

/// [`detect`] with a `missing` phase span and decision counters. When a
/// [`ComposedIndex`] is supplied (`ipa_depth > 0`), readers whose fence
/// lives in a transitively reachable callee are exonerated — corpus-wide
/// evidence the ±1 view cannot provide.
pub fn detect_traced(
    files: &[Arc<FileAnalysis>],
    sites: &[BarrierSite],
    pairing: &PairingResult,
    config: &AnalysisConfig,
    index: Option<&ComposedIndex>,
    rec: &obs::Recorder,
) -> Vec<Deviation> {
    let _span = rec.span("missing");
    let out = detect_inner(files, sites, pairing, config, index, rec);
    rec.count("missing_reports_emitted", out.len() as u64);
    out
}

fn detect_inner(
    files: &[Arc<FileAnalysis>],
    sites: &[BarrierSite],
    pairing: &PairingResult,
    config: &AnalysisConfig,
    index: Option<&ComposedIndex>,
    rec: &obs::Recorder,
) -> Vec<Deviation> {
    let writers: Vec<&BarrierSite> = pairing
        .unpaired
        .iter()
        .filter(|(_, r)| *r == UnpairedReason::NoMatch)
        .filter_map(|(id, _)| sites.iter().find(|s| s.id == *id))
        .filter(|s| s.is_write_barrier() && s.seqcount.is_none() && s.wakeup_after.is_none())
        .collect();
    rec.count("missing_writers_examined", writers.len() as u64);
    if writers.is_empty() {
        return Vec::new();
    }

    // The engine's analyses always carry their summaries; any other
    // caller's (e.g. built with `detect_missing` off) are built here.
    let sets: Vec<Arc<[ReaderSummary]>> = files
        .iter()
        .map(|fa| {
            fa.readers
                .clone()
                .unwrap_or_else(|| summarize_source(&fa.name, &fa.source, config, rec))
        })
        .collect();
    let mut readers: Vec<Reader<'_>> = files
        .iter()
        .zip(&sets)
        .flat_map(|(fa, set)| {
            set.iter().map(|summary| Reader {
                file: fa.file,
                file_name: &fa.name,
                summary,
            })
        })
        .collect();
    if let Some(index) = index {
        // Inter-procedural exoneration: a candidate whose fence lives in
        // a callee within `ipa_depth` call edges is not fence-less.
        let before = readers.len();
        readers.retain(|r| !index.fence_within(r.file, &r.summary.name, config.ipa_depth));
        rec.count(
            "missing_readers_exonerated",
            (before - readers.len()) as u64,
        );
    }
    rec.count("missing_readers_summarized", readers.len() as u64);
    let mut out = Vec::new();
    for writer in writers {
        detect_for_writer(writer, &readers, sites, config, &mut out);
    }
    out
}

/// Summarize the barrier-free functions of one lowered file (`envs`
/// aligned with its functions): the whole-function view the detector
/// needs, which the rest of [`FileAnalysis`] keeps only around barrier
/// windows. Counted as `missing_reader_files_built`.
pub(crate) fn summarize(
    parsed: &ParsedFile,
    lowered: &LoweredFile<'_>,
    envs: &[TypeEnv<'_>],
    config: &AnalysisConfig,
    rec: &obs::Recorder,
) -> Arc<[ReaderSummary]> {
    rec.count("missing_reader_files_built", 1);
    let mut readers = Vec::new();
    for (fi, cfg) in lowered.cfgs.iter().enumerate() {
        if function_has_fence(cfg) {
            continue;
        }
        let mut reads = Vec::new();
        let mut writes: Vec<SharedObject> = Vec::new();
        let mut cond_nodes = Vec::new();
        for node in cfg.ids() {
            if matches!(cfg.node(node).kind, NodeKind::Cond(_)) {
                cond_nodes.push(node);
            }
            for raw in accesses_in_node(&cfg.node(node).kind, &envs[fi]) {
                if config.is_generic_type(&raw.object.strukt) {
                    continue;
                }
                match raw.kind {
                    AccessKind::Read => reads.push(Load {
                        object: raw.object,
                        node,
                        span: raw.span,
                        line: parsed.map.lookup(raw.span.lo).line,
                    }),
                    AccessKind::Write if !writes.contains(&raw.object) => writes.push(raw.object),
                    AccessKind::Write => {}
                }
            }
        }
        if reads.is_empty() {
            continue;
        }
        let dom = dominators(cfg);
        let mut guarded = Vec::new();
        for (gi, g) in reads.iter().enumerate() {
            if !cond_nodes.contains(&g.node) {
                continue;
            }
            for (pi, p) in reads.iter().enumerate() {
                if p.node != g.node && dom.dominates(g.node, p.node) {
                    guarded.push((gi as u32, pi as u32));
                }
            }
        }
        readers.push(ReaderSummary {
            name: lowered.functions[fi].sig.name.to_string(),
            reads: reads.into(),
            writes: writes.into(),
            guarded: guarded.into(),
        });
    }
    readers.into()
}

/// [`summarize`] from source text, for an analysis that carries no
/// summaries (built with `detect_missing` off, or loaded from the disk
/// cache, which does not persist them). An unparseable file has none.
pub(crate) fn summarize_source(
    name: &str,
    source: &str,
    config: &AnalysisConfig,
    rec: &obs::Recorder,
) -> Arc<[ReaderSummary]> {
    let Ok(parsed) = ckit::parse_string(name, source) else {
        return Arc::from([]);
    };
    let lowered = LoweredFile::lower(&parsed);
    let envs: Vec<TypeEnv<'_>> = (0..lowered.functions.len())
        .map(|i| lowered.env(i))
        .collect();
    summarize(&parsed, &lowered, &envs, config, rec)
}

/// Does the function contain any call with fence semantics (explicit
/// barrier, seqcount API, wake-up, or full-barrier atomic)? Such functions
/// are never "fence-less readers".
fn function_has_fence(cfg: &Cfg) -> bool {
    for node in cfg.ids() {
        let Some(expr) = cfg.node(node).kind.expr() else {
            continue;
        };
        let mut found = false;
        expr.walk(&mut |e| {
            if let Some(name) = e.call_name() {
                if matches!(
                    kmodel::classify_call(name),
                    kmodel::CallSemantics::Barrier(_) | kmodel::CallSemantics::Seqcount(_)
                ) || kmodel::has_full_barrier_semantics(name)
                {
                    found = true;
                }
            }
        });
        if found {
            return true;
        }
    }
    false
}

fn detect_for_writer(
    writer: &BarrierSite,
    readers: &[Reader<'_>],
    sites: &[BarrierSite],
    config: &AnalysisConfig,
    out: &mut Vec<Deviation>,
) {
    // The protocol the write barrier implements: payload objects are
    // stored before it, the guard objects after (the publish store).
    let mut guards: Vec<&SharedObject> = Vec::new();
    let mut payloads: Vec<&SharedObject> = Vec::new();
    for a in &writer.accesses {
        if a.kind != AccessKind::Write {
            continue;
        }
        let bucket = match a.side {
            Side::After => &mut guards,
            Side::Before => &mut payloads,
        };
        if !bucket.contains(&&a.object) {
            bucket.push(&a.object);
        }
    }
    payloads.retain(|o| !guards.contains(o));
    if guards.is_empty() || payloads.is_empty() {
        return;
    }

    // Sibling readers that kept their fence: read barriers loading at
    // least one guard and one payload object.
    let fenced = sites
        .iter()
        .filter(|s| s.id != writer.id && s.is_read_barrier())
        .filter(|s| {
            let reads = |o: &SharedObject| {
                s.accesses
                    .iter()
                    .any(|a| a.kind == AccessKind::Read && &a.object == o)
            };
            guards.iter().any(|g| reads(g)) && payloads.iter().any(|p| reads(p))
        })
        .count();

    // Fence-less candidates.
    let mut candidates: Vec<Candidate<'_>> = Vec::new();
    for reader in readers {
        let summary = reader.summary;
        let loads_any =
            |objects: &[&SharedObject]| summary.reads.iter().any(|l| objects.contains(&&l.object));
        // Most readers load no protocol object: reject them before
        // collecting anything.
        if !loads_any(&guards) || !loads_any(&payloads) {
            continue;
        }
        let reads_of = |objects: &[&SharedObject]| -> Vec<usize> {
            (0..summary.reads.len())
                .filter(|&i| objects.contains(&&summary.reads[i].object))
                .collect()
        };
        let guard_reads = reads_of(&guards);
        let payload_reads = reads_of(&payloads);
        // Strict guard→payload shape: a guard load in a branch condition
        // that dominates a payload load — exactly where a fence belongs.
        let pure = !summary
            .writes
            .iter()
            .any(|w| guards.contains(&w) || payloads.contains(&w));
        let mut best: Option<(usize, usize)> = None;
        if pure {
            best = guard_reads.iter().find_map(|&g| {
                payload_reads
                    .iter()
                    .find(|&&p| summary.guarded.binary_search(&(g as u32, p as u32)).is_ok())
                    .map(|&p| (g, p))
            });
        }
        let strict = best.is_some();
        let (guard, payload) = best.unwrap_or((guard_reads[0], payload_reads[0]));
        candidates.push(Candidate {
            reader,
            guard: &summary.reads[guard],
            payload: &summary.reads[payload],
            strict,
        });
    }

    let unfenced = candidates.len();
    for c in candidates {
        // Outlier rule: the fence — not the writer's barrier — must be
        // the anomaly. Either the unfenced reader is outvoted by fenced
        // siblings, or it is the protocol's only reader.
        let report = if config.outlier_rule {
            c.strict && (fenced > unfenced || unfenced == 1)
        } else {
            true
        };
        if !report {
            continue;
        }
        let fence = kmodel::idioms::suggested_fence_for_writer(writer.kind.name()).to_string();
        out.push(Deviation {
            kind: DeviationKind::MissingBarrier {
                writer_function: writer.site.function.clone(),
                fence: fence.clone(),
            },
            barrier: writer.id,
            site: SiteRef {
                file: c.reader.file,
                file_name: c.reader.file_name.to_string(),
                function: c.reader.summary.name.clone(),
                node: c.payload.node,
                span: c.guard.span,
                line: c.guard.line,
            },
            object: Some(c.guard.object.clone()),
            access_span: Some(c.payload.span),
            explanation: format!(
                "{}() reads {} then {} with no read fence, but {}() in {}() \
                 publishes them in order ({} then barrier then {}); insert \
                 {}() between the loads",
                c.reader.summary.name,
                c.guard.object,
                c.payload.object,
                writer.kind.name(),
                writer.site.function,
                c.payload.object,
                c.guard.object,
                fence,
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, SourceFile};

    fn config_missing() -> AnalysisConfig {
        AnalysisConfig {
            detect_missing: true,
            ..AnalysisConfig::default()
        }
    }

    fn missing_of(devs: &[Deviation]) -> Vec<&Deviation> {
        devs.iter()
            .filter(|d| matches!(d.kind, DeviationKind::MissingBarrier { .. }))
            .collect()
    }

    const UNFENCED_READER: &str = r#"
struct box { int ready; int value; };
void publish(struct box *b, int v) {
    b->value = v;
    smp_wmb();
    b->ready = 1;
}
int consume(struct box *b) {
    if (!b->ready)
        return 0;
    return b->value;
}
"#;

    #[test]
    fn unfenced_guarded_reader_detected() {
        let files = vec![SourceFile::new("m.c", UNFENCED_READER)];
        let r = Engine::new(config_missing()).analyze(&files);
        let miss = missing_of(&r.deviations);
        assert_eq!(miss.len(), 1, "{:?}", r.deviations);
        let d = miss[0];
        assert_eq!(d.site.function, "consume");
        assert_eq!(d.object, Some(SharedObject::new("box", "ready")));
        match &d.kind {
            DeviationKind::MissingBarrier {
                writer_function,
                fence,
            } => {
                assert_eq!(writer_function, "publish");
                assert_eq!(fence, "smp_rmb");
            }
            _ => unreachable!(),
        }
    }

    /// Two parseable files (one with an unfenced reader) and one that
    /// does not parse.
    fn summary_corpus() -> Vec<SourceFile> {
        vec![
            SourceFile::new("m.c", UNFENCED_READER),
            SourceFile::new(
                "q.c",
                "struct q { int n; };\nint peek(struct q *p) { return p->n; }\n",
            ),
            SourceFile::new("broken.c", "int @ garbage"),
        ]
    }

    fn built(r: &crate::AnalysisResult) -> u64 {
        r.obs.count_of("missing_reader_files_built")
    }

    #[test]
    fn reader_summaries_built_once_per_file() {
        let mut files = summary_corpus();
        let mut engine = Engine::new(config_missing());
        let cold = engine.analyze(&files);
        assert_eq!(built(&cold), 2, "every parseable file, once");
        assert_eq!(missing_of(&cold.deviations).len(), 1);
        let noop = engine.analyze(&files);
        assert_eq!(built(&noop), 0, "a no-op run reuses every summary");
        files[1].content = format!("{}int more(void) {{ return 0; }}\n", files[1].content).into();
        let edited = engine.analyze(&files);
        assert_eq!(built(&edited), 1, "only the edited file");
        assert_eq!(
            format!("{:?}", edited.deviations),
            format!("{:?}", cold.deviations)
        );
        let off = Engine::new(AnalysisConfig::default()).analyze(&files);
        assert_eq!(built(&off), 0, "no summaries without --missing");
        assert!(off.files.iter().all(|fa| fa.readers.is_none()));
    }

    #[test]
    fn disk_hydrated_engine_builds_summaries_once() {
        let dir =
            std::env::temp_dir().join(format!("ofence-missing-hydrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let files = summary_corpus();
        let mut cold = Engine::new(config_missing());
        let cold_run = cold.analyze(&files);
        cold.save_disk_cache(&dir).unwrap();

        let mut warm = Engine::new(config_missing());
        warm.load_disk_cache(&dir);
        let first = warm.analyze(&files);
        assert_eq!(first.obs.count_of("engine_files_analyzed"), 0);
        assert_eq!(built(&first), 2, "disk entries carry no summaries");
        assert_eq!(
            format!("{:?}", first.deviations),
            format!("{:?}", cold_run.deviations)
        );
        assert!(first.files.iter().all(|fa| fa.readers.is_some()));
        assert_eq!(built(&warm.analyze(&files)), 0, "kept in memory");
        // Summaries are not persisted: building them dirties no shard.
        warm.save_disk_cache(&dir).unwrap();
        assert_eq!(warm.last_save().unwrap().shards_written, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyses_without_summaries_get_them_from_source() {
        let config = config_missing();
        let r = Engine::new(config.clone()).analyze(&summary_corpus());
        let stripped: Vec<Arc<FileAnalysis>> = r
            .files
            .iter()
            .map(|fa| {
                Arc::new(FileAnalysis {
                    readers: None,
                    ..FileAnalysis::clone(fa)
                })
            })
            .collect();
        let with = detect(&r.files, &r.sites, &r.pairing, &config);
        let without = detect(&stripped, &r.sites, &r.pairing, &config);
        assert_eq!(with.len(), 1);
        assert_eq!(format!("{with:?}"), format!("{without:?}"));
    }

    #[test]
    fn off_by_default() {
        let files = vec![SourceFile::new("m.c", UNFENCED_READER)];
        let r = Engine::new(AnalysisConfig::default()).analyze(&files);
        assert!(missing_of(&r.deviations).is_empty());
    }

    #[test]
    fn fenced_reader_not_flagged() {
        let src = r#"
struct box { int ready; int value; };
void publish(struct box *b, int v) {
    b->value = v;
    smp_wmb();
    b->ready = 1;
}
int consume(struct box *b) {
    if (!b->ready)
        return 0;
    smp_rmb();
    return b->value;
}
"#;
        let files = vec![SourceFile::new("m.c", src)];
        let r = Engine::new(config_missing()).analyze(&files);
        assert!(missing_of(&r.deviations).is_empty(), "{:?}", r.deviations);
    }

    #[test]
    fn release_store_writer_suggests_load_acquire() {
        let src = r#"
struct slot { struct item *cur; int epoch; };
void install(struct slot *s, struct item *it) {
    s->epoch = 1;
    smp_store_release(&s->cur, it);
}
int peek(struct slot *s) {
    if (!s->cur)
        return 0;
    return s->epoch;
}
"#;
        let files = vec![SourceFile::new("m.c", src)];
        let r = Engine::new(config_missing()).analyze(&files);
        let miss = missing_of(&r.deviations);
        assert_eq!(miss.len(), 1, "{:?}", r.deviations);
        match &miss[0].kind {
            DeviationKind::MissingBarrier { fence, .. } => {
                assert_eq!(fence, "smp_load_acquire")
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn unconditional_reads_need_ablation_mode() {
        // Reads with no guard→payload shape: the outlier rule keeps quiet,
        // the ablation mode reports.
        let src = r#"
struct st { int a; int b; };
void w(struct st *p) {
    p->a = 1;
    smp_wmb();
    p->b = 2;
}
int scan(struct st *p) {
    return p->a + p->b;
}
int scan2(struct st *p) {
    return p->b - p->a;
}
"#;
        let files = vec![SourceFile::new("m.c", src)];
        let strictr = Engine::new(config_missing()).analyze(&files);
        assert!(
            missing_of(&strictr.deviations).is_empty(),
            "{:?}",
            strictr.deviations
        );
        let loose = Engine::new(AnalysisConfig {
            outlier_rule: false,
            ..config_missing()
        })
        .analyze(&files);
        assert!(!missing_of(&loose.deviations).is_empty());
    }

    #[test]
    fn implicit_ipc_writer_skipped() {
        let src = r#"
struct d { int token; int state; };
void waker(struct d *p) {
    p->state = 2;
    smp_wmb();
    p->token = 1;
    wake_up_process(p);
}
int watcher(struct d *p) {
    if (!p->token)
        return 0;
    return p->state;
}
"#;
        let files = vec![SourceFile::new("m.c", src)];
        let r = Engine::new(config_missing()).analyze(&files);
        assert!(
            missing_of(&r.deviations).is_empty(),
            "the woken side needs no fence: {:?}",
            r.deviations
        );
    }
}
